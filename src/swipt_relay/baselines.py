"""Comparison policies: three reduced variants of the harvesting allocator
and a conventional relay with its own power supply."""

from __future__ import annotations

import enum
import math

import numpy as np

from .allocator import (
    _FLOAT_BODY_LIMIT,
    _PRODUCT_LIMIT,
    _PROPOSED_ROW,
    NoUsablePairError,
    _check_width,
    _identity_pairing,
    _largest,
    _pair_rates,
    _run_row,
    _sorted_perm,
    _split_gains,
    _water_filled,
    split_and_gain,
)
# not called here, but perfbench/spans.py BINDINGS looks them up by these names
from .allocator import solve, sorted_pairing, waterfill  # noqa: F401
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
    overflows it takes P / (1 + a/b) instead. Raises ``ValueError`` when the
    channel or the result is not ``cfg.n_subcarriers`` wide.
    """
    _check_width(channel.n_subcarriers, cfg)
    for vec in (result.pairing.perm, result.powers):
        _check_width(vec.size, cfg, "result")
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


def _conventional_gain(a: float, b: float) -> float:
    """The gamma ``_conventional_gains`` gives slopes a, b, on Python floats."""
    if not (a > 0.0 and b > 0.0):
        return 0.0
    if a * b == math.inf:
        lo, hi = min(a, b), max(a, b)
        return lo / (1.0 + lo / hi)
    return a * b / (a + b)


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

    No per-policy result is built and each channel's sorted order is
    computed once. Below ``_FLOAT_BODY_LIMIT`` subcarriers the pass is
    policy-major on Python floats, where a dozen small NumPy calls per trial
    would cost more than the arithmetic: each row takes its gains, then its
    powers, for the whole block, and one rate sum scores all ``P*b`` rows.
    From it up each channel fills a ``(P, N)`` NumPy table of gains and one
    of powers; a block-high table would only add temporaries. A row sum
    adds its N terms as a 1-D ``ndarray.sum`` does whatever the table's
    height, left to right below 8 terms and pairwise from 8 up. Both bodies
    make the same ``split_and_gain`` and ``waterfill`` calls and float
    operations.
    """
    n, shape = cfg.n_subcarriers, (len(policies), len(channels))
    if n >= _FLOAT_BODY_LIMIT:
        rates, dead = np.empty(shape), np.zeros(shape, dtype=bool)
        for col, channel in enumerate(channels):
            perms = {True: _sorted_perm(channel.h_sq, channel.g_sq), False: _identity_pairing(n).perm}
            gams, powers = np.zeros((len(policies), n)), np.zeros((len(policies), n))
            for row, policy in enumerate(policies):
                use_sorted, gains, power_rule = _RULES[policy]
                try:
                    gam = gains(channel, perms[use_sorted], cfg)[1]
                    gams[row], powers[row] = gam, power_rule(gam, cfg)
                except NoUsablePairError:
                    # the row keeps zero gains and powers, so it sums to exactly 0.0
                    dead[row, col] = True
            rates[:, col] = _pair_rates(gams, powers, cfg.p_max).sum(axis=1)
        return rates, dead
    h_lists = [channel.h_sq.tolist() for channel in channels]
    g_lists = [channel.g_sq.tolist() for channel in channels]
    g_sorted = []
    for h_list, g_list in zip(h_lists, g_lists):
        # a stable descending sort: the order of np.argsort(-x, kind="stable")
        order_h = sorted(range(n), key=h_list.__getitem__, reverse=True)
        order_g = sorted(range(n), key=g_list.__getitem__, reverse=True)
        # the outgoing gain that incoming subcarrier i forwards over, for i in order
        g_sorted.append([g_list[j] for _, j in sorted(zip(order_h, order_g))])
    s_ra, s_d = cfg.noise.sigma_ra_sq, cfg.noise.sigma_d_sq
    gams, powers, dead = [], [], []
    for policy in policies:
        use_sorted, gains, power_rule = _RULES[policy]
        hg_lists = list(zip(h_lists, g_sorted if use_sorted else g_lists))
        if gains is _conventional_gains:
            row_gams = [[_conventional_gain(h / s_ra, g / s_d) for h, g in zip(*hg)] for hg in hg_lists]
        else:
            row_gams = [[split_and_gain(h, g, cfg)[1] for h, g in zip(*hg)] for hg in hg_lists]
        for gam in row_gams:
            try:
                gam_powers = [cfg.p_max / n] * n if power_rule is _uniform_powers else power_rule(gam, cfg)
                dead.append(False)
            except NoUsablePairError:
                dead.append(True)
                gam = gam_powers = [0.0] * n
            gams.append(gam)
            powers.append(gam_powers)
    rates = _pair_rates(np.array(gams), np.array(powers), cfg.p_max).sum(axis=1)
    return rates.reshape(shape), np.array(dead).reshape(shape)
