"""Comparison policies: three reduced variants of the harvesting allocator
and a conventional relay with its own power supply."""

from __future__ import annotations

import enum
import functools

import numpy as np

from .allocator import _result, _split_gains, solve, sorted_pairing, waterfill
# not called here, but perfbench/spans.py BINDINGS looks it up by this name
from .allocator import split_and_gain  # noqa: F401
from .model import AllocationResult, ChannelRealization, SubcarrierPairing, SystemConfig

__all__ = [
    "PolicyId",
    "conventional_hop_powers",
    "solve_conventional",
    "solve_opa_no_pairing",
    "solve_policy",
    "solve_uniform",
]


class PolicyId(enum.Enum):
    """Allocation policies known to the sweep engine and the CLI."""

    PROPOSED = "proposed"
    OPA_NO_PAIRING = "opa-nopair"
    UNIFORM_WITH_PAIRING = "uniform-pair"
    UNIFORM_NO_PAIRING = "uniform-nopair"
    CONVENTIONAL_NON_EH = "conventional"

    @classmethod
    def from_name(cls, name: str) -> "PolicyId":
        for policy in cls:
            if policy.value == name:
                return policy
        valid = ", ".join(policy.value for policy in cls)
        raise ValueError(f"unknown policy '{name}'; valid policies: {valid}")


@functools.lru_cache(maxsize=16)
def _identity_pairing(n: int) -> SubcarrierPairing:
    # immutable, so one checked instance per N is shared by every result
    return SubcarrierPairing(np.arange(n, dtype=np.int64))


def solve_opa_no_pairing(channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Water-filled power over identity pairing (subcarrier i forwards on i),
    with the equal-rate split still applied per pair."""
    pairing = _identity_pairing(channel.n_subcarriers)
    rho, gam = _split_gains(channel, pairing.perm, cfg)
    return _result(pairing, rho, gam, waterfill(gam, cfg.p_max))


def solve_uniform(channel: ChannelRealization, cfg: SystemConfig, use_pairing: bool) -> AllocationResult:
    """p_max/N on every subcarrier; pairing is sorted or identity per the
    flag; the equal-rate split is still applied per pair. Never raises: a
    dead channel simply carries zero rate."""
    n = channel.n_subcarriers
    if use_pairing:
        pairing = sorted_pairing(channel.h_sq, channel.g_sq)
    else:
        pairing = _identity_pairing(n)
    rho, gam = _split_gains(channel, pairing.perm, cfg)
    return _result(pairing, rho, gam, np.full(n, cfg.p_max / n))


def _conventional_slopes(channel: ChannelRealization, cfg: SystemConfig):
    """Per-hop SNR slopes of the supplied-relay system (per mW at the relay
    and at the destination). The relay has no power splitter; its decoder
    sees the antenna noise."""
    a = channel.h_sq / cfg.noise.sigma_ra_sq
    b = channel.g_sq / cfg.noise.sigma_d_sq
    return a, b


def solve_conventional(channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Relay with its own supply (no harvesting, no splitting): the source
    and relay spend one pooled budget p_max.

    Per matched pair the two hop powers are balanced so both mutual
    informations are equal, which collapses the pair into a scalar channel of
    gain a*b/(a+b) per mW of pooled pair power (a, b the per-hop SNR slopes);
    sorted pairing and water-filling of the pooled budget follow. ``powers``
    reports the combined source+relay power per pair and ``rho_i`` is fixed
    at 1.
    """
    n = channel.n_subcarriers
    pairing = sorted_pairing(channel.h_sq, channel.g_sq)
    a, b = _conventional_slopes(channel, cfg)
    b = b[pairing.perm]
    gam = np.zeros(n)
    live = (a > 0.0) & (b > 0.0)
    gam[live] = a[live] * b[live] / (a[live] + b[live])
    return _result(pairing, np.ones(n), gam, waterfill(gam, cfg.p_max))


def conventional_hop_powers(channel: ChannelRealization, cfg: SystemConfig, result: AllocationResult):
    """Split the pooled pair powers of a conventional allocation back into
    (source, relay) components, per incoming subcarrier."""
    a, b = _conventional_slopes(channel, cfg)
    b = b[result.pairing.perm]
    total = a + b
    live = (a > 0.0) & (b > 0.0)
    p_source = np.where(live, result.powers * np.where(live, b, 1.0) / np.where(live, total, 1.0), 0.0)
    p_relay = np.where(live, result.powers - p_source, 0.0)
    return p_source, p_relay


# looked up at call time, so a rebinding of any solver is seen here too
_SOLVERS = {
    PolicyId.PROPOSED: lambda channel, cfg: solve(channel, cfg),
    PolicyId.OPA_NO_PAIRING: lambda channel, cfg: solve_opa_no_pairing(channel, cfg),
    PolicyId.UNIFORM_WITH_PAIRING: lambda channel, cfg: solve_uniform(channel, cfg, use_pairing=True),
    PolicyId.UNIFORM_NO_PAIRING: lambda channel, cfg: solve_uniform(channel, cfg, use_pairing=False),
    PolicyId.CONVENTIONAL_NON_EH: lambda channel, cfg: solve_conventional(channel, cfg),
}


def solve_policy(policy: PolicyId, channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Dispatch one realization to the named policy."""
    if not isinstance(policy, PolicyId):
        raise ValueError(f"unhandled policy: {policy!r}")
    return _SOLVERS[policy](channel, cfg)
