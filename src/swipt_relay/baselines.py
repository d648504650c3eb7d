"""Comparison policies: three reduced variants of the harvesting allocator
and a conventional relay with its own power supply."""

from __future__ import annotations

import enum

import numpy as np

from .allocator import (
    _PROPOSED_ROW,
    _check_width,
    _run_row,
    _sorted_perm,
    _split_gains,
    _table_rates,
    _water_filled,
)
# not called here, but perfbench/spans.py BINDINGS looks them up by these names
from .allocator import solve, sorted_pairing, split_and_gain, waterfill  # noqa: F401
from .model import AllocationResult, ChannelRealization, SystemConfig

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


def solve_opa_no_pairing(channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Water-filled power over identity pairing (subcarrier i forwards on i),
    with the equal-rate split still applied per pair."""
    return solve_policy(PolicyId.OPA_NO_PAIRING, channel, cfg)


def solve_uniform(channel: ChannelRealization, cfg: SystemConfig, use_pairing: bool) -> AllocationResult:
    """p_max/N on every subcarrier; pairing is sorted or identity per the
    flag; the equal-rate split is still applied per pair. Never raises: a
    dead channel simply carries zero rate."""
    policy = PolicyId.UNIFORM_WITH_PAIRING if use_pairing else PolicyId.UNIFORM_NO_PAIRING
    return solve_policy(policy, channel, cfg)


def _conventional_slopes(h: np.ndarray, g: np.ndarray, cfg: SystemConfig):
    """Per-hop SNR slopes of the supplied-relay system (per mW at the relay
    and at the destination) for incoming gains ``h`` and outgoing gains
    ``g``. The relay has no power splitter; its decoder sees the antenna
    noise."""
    return h / cfg.noise.sigma_ra_sq, g / cfg.noise.sigma_d_sq


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
    return solve_policy(PolicyId.CONVENTIONAL_NON_EH, channel, cfg)


def conventional_hop_powers(channel: ChannelRealization, cfg: SystemConfig, result: AllocationResult):
    """Split the pooled pair powers of a conventional allocation back into
    (source, relay) components, per incoming subcarrier.

    The source takes P*b/(a+b) of a pair's power P; where P*b or a+b
    overflows it takes P / (1 + a/b) instead. Raises ``ValueError`` when the
    channel or the result is not ``cfg.n_subcarriers`` wide.
    """
    _check_width(channel.n_subcarriers, cfg)
    for vec in (result.pairing.perm, result.powers):
        _check_width(vec.size, cfg, "result")
    a, b = _conventional_slopes(channel.h_sq, channel.g_sq[result.pairing.perm], cfg)
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


def _conventional_gains(h: np.ndarray, g_paired: np.ndarray, cfg: SystemConfig):
    """(rho_I, gamma) tables of the supplied-relay pairs whose incoming gains
    are ``h`` and outgoing gains ``g_paired``, two tables of any equal
    shape: no split (rho_I = 1) and gamma = a*b/(a+b).

    Where a*b overflows, gamma (below min(a, b)) is taken as
    lo / (1 + lo/hi) with lo, hi the smaller and larger slope; every other
    pair's gamma is the plain quotient, so it does not depend on the rest of
    the table.
    """
    a, b = _conventional_slopes(h, g_paired, cfg)
    gam = np.zeros(h.shape)
    live = (a > 0.0) & (b > 0.0)
    a, b = a[live], b[live]
    with np.errstate(over="ignore", invalid="ignore"):
        product = a * b
        live_gam = product / (a + b)
    big = np.isinf(product)
    lo, hi = np.minimum(a[big], b[big]), np.maximum(a[big], b[big])
    live_gam[big] = lo / (1.0 + lo / hi)
    gam[live] = live_gam
    return np.ones(h.shape), gam


def _uniform_powers(gam: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    return np.full(gam.size, cfg.p_max / gam.size)


# every policy as a row of the three rules ``allocator._run_row`` executes
_RULES = {
    PolicyId.PROPOSED: _PROPOSED_ROW,
    PolicyId.OPA_NO_PAIRING: (False, _split_gains, _water_filled),
    PolicyId.UNIFORM_WITH_PAIRING: (True, _split_gains, _uniform_powers),
    PolicyId.UNIFORM_NO_PAIRING: (False, _split_gains, _uniform_powers),
    PolicyId.CONVENTIONAL_NON_EH: (True, _conventional_gains, _water_filled),
}


def solve_policy(policy: PolicyId, channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Run the named policy's row on one realization."""
    if not isinstance(policy, PolicyId):
        raise ValueError(f"unhandled policy: {policy!r}")
    return _run_row(_RULES[policy], channel, cfg)


def _trial_rates(policies, channels, cfg: SystemConfig):
    """Total rate of each of ``policies`` (distinct ``PolicyId`` values) on
    each of ``channels``, a block of ``cfg.n_subcarriers``-wide
    realizations, with the bits of ``solve_policy(...).total_rate``: a
    ``(P, b)`` rate table, and a ``(P, b)`` boolean table that is set where
    a policy raised :class:`NoUsablePairError` on a channel, which scores 0.

    The rules of ``_run_row`` run on ``(b, N)`` tables, one channel per
    row, and no per-policy result is built: the block's sorted pairings are
    computed once, then each policy row takes its gains over the whole
    block and scores them with ``allocator._table_rates``, the scorer the
    exhaustive pairing search shares.
    """
    h = np.array([channel.h_sq for channel in channels])
    g = np.array([channel.g_sq for channel in channels])
    paired = {True: np.take_along_axis(g, _sorted_perm(h, g), axis=1), False: g}
    rates = np.empty((len(policies), len(channels)))
    dead = np.empty(rates.shape, dtype=bool)
    for row, policy in enumerate(policies):
        use_sorted, gains, power_rule = _RULES[policy]
        rates[row], dead[row] = _table_rates(gains(h, paired[use_sorted], cfg)[1], power_rule, cfg)
    return rates, dead
