"""Comparison policies: three reduced variants of the harvesting allocator
and a conventional relay with its own power supply."""

from __future__ import annotations

import enum

import numpy as np

from .allocator import (
    _PRODUCT_LIMIT,
    _PROPOSED_ROW,
    NoUsablePairError,
    _identity_pairing,
    _largest,
    _pair_rates,
    _run_row,
    _sorted_perm,
    _split_gains,
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
    return solve_policy(PolicyId.CONVENTIONAL_NON_EH, channel, cfg)


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
        use_sorted, gains, power_rule = _RULES[policy]
        try:
            gam = gains(channel, perms[use_sorted], cfg)[1]
            gams[row], powers[row] = gam, power_rule(gam, cfg)
        except NoUsablePairError:
            # the row keeps zero gains and powers, so it sums to exactly 0.0
            dead[row] = True
    return _pair_rates(gams, powers, cfg.p_max).sum(axis=1), dead
