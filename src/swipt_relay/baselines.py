"""Comparison policies: three reduced variants of the harvesting allocator
and a conventional relay with its own power supply."""

from __future__ import annotations

import enum
import functools

import numpy as np

from .allocator import (
    _PRODUCT_LIMIT,
    NoUsablePairError,
    _largest,
    _pair_rates,
    _result,
    _sorted_perm,
    _split_gains,
    solve,
    sorted_pairing,
    waterfill,
)
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
    return _solve_row(PolicyId.OPA_NO_PAIRING, channel, cfg)


def solve_uniform(channel: ChannelRealization, cfg: SystemConfig, use_pairing: bool) -> AllocationResult:
    """p_max/N on every subcarrier; pairing is sorted or identity per the
    flag; the equal-rate split is still applied per pair. Never raises: a
    dead channel simply carries zero rate."""
    policy = PolicyId.UNIFORM_WITH_PAIRING if use_pairing else PolicyId.UNIFORM_NO_PAIRING
    return _solve_row(policy, channel, cfg)


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
    return _solve_row(PolicyId.CONVENTIONAL_NON_EH, channel, cfg)


def conventional_hop_powers(channel: ChannelRealization, cfg: SystemConfig, result: AllocationResult):
    """Split the pooled pair powers of a conventional allocation back into
    (source, relay) components, per incoming subcarrier.

    The source takes P*b/(a+b) of a pair's power P; where P*b or a+b
    overflows it takes P / (1 + a/b) instead.
    """
    a, b = _conventional_slopes(channel, cfg)
    b = b[result.pairing.perm]
    live = (a > 0.0) & (b > 0.0)
    a, b, powers = a[live], b[live], result.powers[live]
    with np.errstate(over="ignore", invalid="ignore"):
        product, total = powers * b, a + b
        share = product / total
    big = ~np.isfinite(product) | np.isinf(total)
    share[big] = powers[big] / (1.0 + a[big] / b[big])
    p_source = np.zeros(channel.n_subcarriers)
    p_relay = np.zeros(channel.n_subcarriers)
    p_source[live] = share
    p_relay[live] = powers - share
    return p_source, p_relay


def _conventional_gains(channel: ChannelRealization, perm: np.ndarray, cfg: SystemConfig):
    """(rho_I, gamma) of the supplied-relay pairs that forward subcarrier i
    over ``perm[i]``: no split (rho_I = 1) and gamma = a*b/(a+b).

    Where a*b overflows, gamma (below min(a, b)) is taken as
    lo / (1 + lo/hi) with lo, hi the smaller and larger slope. No product
    overflows while max(a) * max(b) lies below ``_PRODUCT_LIMIT``, which one
    check decides.
    """
    n = channel.n_subcarriers
    a, b = _conventional_slopes(channel, cfg)
    overflow_free = _largest(a) * _largest(b) < _PRODUCT_LIMIT
    b = b[perm]
    gam = np.zeros(n)
    live = (a > 0.0) & (b > 0.0)
    a, b = a[live], b[live]
    if overflow_free:
        gam[live] = a * b / (a + b)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            product = a * b
            live_gam = product / (a + b)
        big = np.isinf(product)
        lo, hi = np.minimum(a[big], b[big]), np.maximum(a[big], b[big])
        live_gam[big] = lo / (1.0 + lo / hi)
        gam[live] = live_gam
    return np.ones(n), gam


def _water_filled(gam: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    # this module's ``waterfill`` binding, looked up at call time
    return waterfill(gam, cfg.p_max)


def _uniform_powers(gam: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    return np.full(gam.size, cfg.p_max / gam.size)


# every policy as a row of three rules: sorted (else identity) pairing, the
# (rho_I, gamma) of the pairs for a given permutation, and the powers on them
_RULES = {
    PolicyId.PROPOSED: (True, _split_gains, _water_filled),
    PolicyId.OPA_NO_PAIRING: (False, _split_gains, _water_filled),
    PolicyId.UNIFORM_WITH_PAIRING: (True, _split_gains, _uniform_powers),
    PolicyId.UNIFORM_NO_PAIRING: (False, _split_gains, _uniform_powers),
    PolicyId.CONVENTIONAL_NON_EH: (True, _conventional_gains, _water_filled),
}


def _allocate(policy: PolicyId, channel: ChannelRealization, perm: np.ndarray, cfg: SystemConfig):
    """(rho_I, gamma, powers) of ``policy``'s row over the pairing ``perm``.
    Raises :class:`NoUsablePairError` where the row water-fills a dead
    channel."""
    _, gains, powers = _RULES[policy]
    rho, gam = gains(channel, perm, cfg)
    return rho, gam, powers(gam, cfg)


def _solve_row(policy: PolicyId, channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    if _RULES[policy][0]:
        pairing = sorted_pairing(channel.h_sq, channel.g_sq)
    else:
        pairing = _identity_pairing(channel.n_subcarriers)
    return _result(pairing, *_allocate(policy, channel, pairing.perm, cfg), cfg.p_max)


def solve_policy(policy: PolicyId, channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Dispatch one realization to the named policy."""
    if not isinstance(policy, PolicyId):
        raise ValueError(f"unhandled policy: {policy!r}")
    if policy is PolicyId.PROPOSED:
        return solve(channel, cfg)
    return _solve_row(policy, channel, cfg)


def _trial_rates(policies, channel: ChannelRealization, cfg: SystemConfig):
    """Total rate of each of ``policies`` (distinct ``PolicyId`` values) on
    one realization, with the bits of ``solve_policy(...).total_rate``, and a
    boolean per policy that is set where it raised :class:`NoUsablePairError`;
    such a policy scores 0.0.

    The sorted order is computed once and no per-policy result is built: the
    rows' gains and powers fill one ``(P, N)`` table each and all P rates are
    summed at once. A row sum adds its N terms in the order of a 1-D
    ``ndarray.sum``, left to right below 8 terms and pairwise from 8 up.
    """
    n = channel.n_subcarriers
    perms = {True: _sorted_perm(channel.h_sq, channel.g_sq), False: _identity_pairing(n).perm}
    gams = np.zeros((len(policies), n))
    powers = np.zeros((len(policies), n))
    dead = np.zeros(len(policies), dtype=bool)
    for row, policy in enumerate(policies):
        try:
            _, gams[row], powers[row] = _allocate(policy, channel, perms[_RULES[policy][0]], cfg)
        except NoUsablePairError:
            # the row keeps zero gains and powers, so it sums to exactly 0.0
            dead[row] = True
    return _pair_rates(gams, powers, cfg.p_max).sum(axis=1), dead
