"""Comparison policies: three reduced variants of the harvesting allocator
and a conventional relay with its own power supply."""

from __future__ import annotations

import numpy as np

from .allocator import (
    AllocationResult,
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
from .channel import ChannelRealization
from .model import PolicyId, SystemConfig

__all__ = [
    "conventional_hop_powers",
    "solve_conventional",
    "solve_opa_no_pairing",
    "solve_policy",
    "solve_uniform",
]


def _check_policies(policies) -> tuple[PolicyId, ...]:
    """``policies`` as a tuple. Raises ``ValueError`` unless it is a
    nonempty iterable of ``PolicyId`` values."""
    policies = tuple(policies)
    for policy in policies:
        if not isinstance(policy, PolicyId):
            raise ValueError(f"unhandled policy: {policy!r}")
    if not policies:
        raise ValueError("policies must be nonempty")
    return policies


def solve_opa_no_pairing(channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Water-filled power over identity pairing (subcarrier i forwards on i),
    with the equal-rate split still applied per pair."""
    return solve_policy(PolicyId.OPA_NO_PAIRING, channel, cfg)


def solve_uniform(channel: ChannelRealization, cfg: SystemConfig, use_pairing: bool) -> AllocationResult:
    """p_max/N on every subcarrier; pairing is sorted or identity per the
    flag; the equal-rate split is still applied per pair. A dead channel
    simply carries zero rate. Raises ``ValueError`` when ``use_pairing`` is
    not a bool (Python or NumPy), and when the channel's width is not the
    config's."""
    if not isinstance(use_pairing, (bool, np.bool_)):
        raise ValueError(f"use_pairing must be a bool, got {use_pairing!r}")
    policy = PolicyId.UNIFORM_WITH_PAIRING if use_pairing else PolicyId.UNIFORM_NO_PAIRING
    return solve_policy(policy, channel, cfg)


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

    With each hop's noise-to-gain ratio u = sigma_ra^2/h and
    v = sigma_d^2/g, the source takes P / (1 + v/u) of a pair's power P,
    which never exceeds P, and the relay takes the rest. An unpowered pair
    gives the source nothing; ``result`` is a conventional allocation, which
    powers only pairs of positive finite gain, so every powered pair has a
    ratio to split by. Raises ``ValueError`` when the channel or the result
    is not ``cfg.n_subcarriers`` wide.
    """
    _check_width(channel.n_subcarriers, cfg)
    for vec in (result.pairing.perm, result.powers):
        _check_width(vec.size, cfg, "result")
    h, g = channel.h_sq, channel.g_sq[result.pairing.perm]
    noise, powers = cfg.noise, result.powers
    # a ratio of 0 or inf gives the share its limit; a dead pair's NaN falls
    # on an unpowered pair and is dropped below
    with np.errstate(all="ignore"):
        share = powers / (1.0 + (noise.sigma_d_sq / g) / (noise.sigma_ra_sq / h))
    p_source = np.where(powers > 0.0, share, 0.0)
    return p_source, powers - p_source


def _conventional_gains(h: np.ndarray, g_paired: np.ndarray, cfg: SystemConfig):
    """(rho_I, gamma) tables of the supplied-relay pairs whose incoming gains
    are ``h`` and outgoing gains ``g_paired``, two tables of any equal
    shape: no split (rho_I = 1) and gamma = a*b/(a+b), with a = h/sigma_ra^2
    and b = g/sigma_d^2 the per-hop SNR slopes (the relay has no splitter,
    so its decoder sees the antenna noise).

    Where that quotient is not finite (a dead pair's 0/0, or a slope or a*b
    past the float range) gamma is taken as
    1 / (sigma_ra^2/h + sigma_d^2/g), one over the sum of the hops'
    noise-to-gain ratios: 0 on a dead hop, and finite wherever the true
    gain fits a float. Every other pair's gamma is the plain quotient, so it
    does not depend on the rest of the table.
    """
    noise = cfg.noise
    with np.errstate(all="ignore"):
        a, b = h / noise.sigma_ra_sq, g_paired / noise.sigma_d_sq
        gam = a * b / (a + b)
        odd = ~np.isfinite(gam)
        gam[odd] = 1.0 / (noise.sigma_ra_sq / h[odd] + noise.sigma_d_sq / g_paired[odd])
    return np.ones(h.shape), gam


def _uniform_powers(gam: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """p_max/N on every pair of one channel's gain vector ``gam``, or of
    each row of a ``(b, N)`` gain table. A row is dead only where p_max/N
    underflows to 0."""
    return np.full(gam.shape, cfg.p_max / gam.shape[-1])


# every policy as a row of the three rules ``allocator._run_row`` executes
_RULES = {
    PolicyId.PROPOSED: _PROPOSED_ROW,
    PolicyId.OPA_NO_PAIRING: (False, _split_gains, _water_filled),
    PolicyId.UNIFORM_WITH_PAIRING: (True, _split_gains, _uniform_powers),
    PolicyId.UNIFORM_NO_PAIRING: (False, _split_gains, _uniform_powers),
    PolicyId.CONVENTIONAL_NON_EH: (True, _conventional_gains, _water_filled),
}


def solve_policy(policy: PolicyId, channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Run the named policy's row on one realization. Raises ``ValueError``
    when the channel's width is not the config's or a pair's effective gain
    passes the float range (the channel is too strong for the noise)."""
    _check_policies((policy,))
    return _run_row(_RULES[policy], channel, cfg)


def _trial_rates(policies, channels, cfg: SystemConfig):
    """Total rate of each of ``policies`` (distinct ``PolicyId`` values) on
    each of ``channels``, a block of ``cfg.n_subcarriers``-wide
    realizations, with the bits of ``solve_policy(...).total_rate``: a
    ``(P, b)`` rate table, and a ``(P, b)`` boolean table that is set where
    a policy powered no pair of a channel, which scores 0: where its
    ``solve_policy`` raises :class:`NoUsablePairError`, or returns zero
    powers.
    A channel on which a policy's effective gain passes the float range
    raises that policy's ``ValueError``, as ``solve_policy`` does.

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
