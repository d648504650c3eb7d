"""Rate-optimal resource allocation for the energy-harvesting relay link.

The end-to-end decision factors into three exact steps:

1. sorted pairing — the k-th strongest incoming subcarrier forwards over the
   k-th strongest outgoing one;
2. power splitting — on each matched pair the decode-side fraction rho_I is
   the unique point where the two mutual-information terms (source-to-relay
   decode, relay-to-destination forward on harvested power) are equal, the
   positive root of a quadratic in rho_I;
3. water-filling — with the split fixed, each pair behaves as a scalar
   channel of effective gain gamma, and the source budget is spread so every
   active pair sits at a common water level.

A pair whose outgoing gain is zero (or when harvesting is disabled) can never
deliver data: it is pinned to rho_I = 1, gamma = 0 and receives no power.
All functions are pure; concurrent use needs no coordination.
"""

from __future__ import annotations

import math

import numpy as np

from .model import AllocationResult, ChannelRealization, SubcarrierPairing, SystemConfig, _frozen

__all__ = [
    "NoUsablePairError",
    "effective_gain",
    "optimal_rho",
    "pair_rate",
    "rate_terms",
    "solve",
    "sorted_pairing",
    "split_and_gain",
    "waterfill",
]

_LN2 = math.log(2.0)
# 1/gamma overflows to inf at and below this gain (a subnormal float)
_GAMMA_MIN_INVERTIBLE = 2.0**-1024
# water-filling's prefix sums stay finite while p_max + N * max(1/gamma) is
# below this bound
_PREFIX_SUM_LIMIT = 2.0**1023


class NoUsablePairError(ValueError):
    """Every pair of the channel has zero effective gain; no rate can flow."""


def rate_terms(h_sq: float, g_sq: float, rho_i: float, p_mw: float, cfg: SystemConfig) -> tuple[float, float]:
    """The two mutual-information terms of one pair, in bits/s/Hz (without
    the 1/2 pre-log): decode at the relay, and forward on harvested power."""
    if not 0.0 <= rho_i <= 1.0:
        raise ValueError("rho_i must lie in [0, 1]")
    if p_mw < 0.0:
        raise ValueError("power must be nonnegative")
    noise = cfg.noise
    snr_decode = rho_i * h_sq * p_mw / (rho_i * noise.sigma_ra_sq + noise.sigma_rb_sq)
    snr_forward = cfg.eta * (1.0 - rho_i) * h_sq * g_sq * p_mw / noise.sigma_d_sq
    return math.log1p(snr_decode) / _LN2, math.log1p(snr_forward) / _LN2


def pair_rate(h_sq: float, g_sq: float, rho_i: float, p_mw: float, cfg: SystemConfig) -> float:
    """End-to-end decode-and-forward rate of one pair: half the smaller of
    the two hop mutual informations."""
    term_decode, term_forward = rate_terms(h_sq, g_sq, rho_i, p_mw, cfg)
    return 0.5 * min(term_decode, term_forward)


def sorted_pairing(h_sq, g_sq) -> SubcarrierPairing:
    """Match the k-th largest incoming gain with the k-th largest outgoing
    gain for every k. Ties break toward the lower original index (stable
    sort), which never changes the achievable rate."""
    h = np.asarray(h_sq, dtype=float)
    g = np.asarray(g_sq, dtype=float)
    if h.ndim != 1 or g.ndim != 1 or h.shape != g.shape:
        raise ValueError("h_sq and g_sq must be equal-length vectors")
    order_h = np.argsort(-h, kind="stable")
    order_g = np.argsort(-g, kind="stable")
    perm = np.empty(h.size, dtype=np.int64)
    perm[order_h] = order_g
    return SubcarrierPairing(perm)


def _rho_info(b: float, s_ra: float, s_rb: float) -> float:
    """Positive root rho_I of b*s_ra*rho^2 + (1 - b*s_ra + b*s_rb)*rho - b*s_rb
    for b > 0, through the rationalized form that avoids cancellation."""
    quad = b * s_ra
    lin = 1.0 - quad + b * s_rb
    root = math.sqrt(lin * lin + 4.0 * b * b * s_ra * s_rb)
    if lin >= 0.0:
        return 2.0 * b * s_rb / (lin + root)
    return (root - lin) / (2.0 * quad)


def optimal_rho(g_sq: float, cfg: SystemConfig) -> tuple[float, float]:
    """Closed-form equal-rate power split for a pair forwarding over outgoing
    gain ``g_sq``.

    With b = eta * g_sq / sigma_d_sq, rho_I is the positive root of

        b*s_ra*rho^2 + (1 - b*s_ra + b*s_rb)*rho - b*s_rb = 0,

    which always lies strictly inside (0, 1). Both returned ratios are
    evaluated through rationalized root forms chosen to avoid cancellation,
    and rho_E carries its own full precision rather than float 1 - rho_I.

    Raises ``ValueError`` when the pair cannot carry rate (g_sq == 0,
    harvesting disabled, or b underflowing to zero), in which case callers
    pin rho_I = 1, gamma = 0.
    """
    noise = cfg.noise
    if not g_sq > 0.0:
        raise ValueError("pair cannot carry rate: outgoing gain is zero")
    if not cfg.eta > 0.0:
        raise ValueError("pair cannot carry rate: harvesting is disabled (eta == 0)")
    b = cfg.eta * g_sq / noise.sigma_d_sq
    if not b > 0.0:
        raise ValueError(
            "pair cannot carry rate: forward quality eta*g_sq/sigma_d_sq underflows to zero"
        )
    rho_info = _rho_info(b, noise.sigma_ra_sq, noise.sigma_rb_sq)
    # complementary ratio from its own quadratic: quad*x^2 - c*x + 1 = 0
    quad = b * noise.sigma_ra_sq
    c = quad + b * noise.sigma_rb_sq + 1.0
    rho_harvest = 2.0 / (c + math.sqrt(c * c - 4.0 * quad))
    return rho_info, rho_harvest


def effective_gain(h_sq: float, rho_i: float, cfg: SystemConfig) -> float:
    """Rate slope of a pair after the split: gamma such that the pair rate is
    0.5*log2(1 + gamma*P). Independent of any power value."""
    noise = cfg.noise
    return h_sq * rho_i / (rho_i * noise.sigma_ra_sq + noise.sigma_rb_sq)


def split_and_gain(h_sq: float, g_sq: float, cfg: SystemConfig) -> tuple[float, float]:
    """(rho_I, gamma) for one matched pair, with dead pairs pinned to
    (1.0, 0.0).

    rho_I is exactly ``optimal_rho(g_sq, cfg)[0]`` and gamma exactly
    ``effective_gain(h_sq, rho_I, cfg)``; the rho_E root is not computed. A
    pair is dead when its forward quality b = eta*g_sq/sigma_d_sq is not
    positive: zero gain, harvesting disabled, or b underflowing to zero.
    """
    noise = cfg.noise
    b = cfg.eta * g_sq / noise.sigma_d_sq
    if not b > 0.0:
        return 1.0, 0.0
    s_ra = noise.sigma_ra_sq
    s_rb = noise.sigma_rb_sq
    rho_info = _rho_info(b, s_ra, s_rb)
    return rho_info, h_sq * rho_info / (rho_info * s_ra + s_rb)


def _all_to_strongest(gam: np.ndarray, p_max: float) -> np.ndarray:
    """The whole budget on the channel of largest gamma: the water-filling
    answer when no level rises above its 1/gamma in floating point."""
    powers = np.zeros_like(gam)
    powers[int(np.argmax(gam))] = p_max
    return powers


def waterfill(gammas, p_max: float) -> np.ndarray:
    """Spread ``p_max`` over parallel channels of gains ``gammas`` so that
    every powered channel sits at a common water level.

    The active set is found exactly, with no iteration or tolerance (Palomar
    & Fonollosa, IEEE TSP 2005): with the usable 1/gamma sorted ascending as
    s_1 <= s_2 <= ..., the k strongest channels fill to the level
    (p_max + s_1 + ... + s_k) / k, and channel k is powered iff s_k lies
    below that level, which holds for a prefix of k. One sort and one
    cumulative sum give the level, so a call costs O(N log N). The returned
    powers satisfy the stationarity conditions to float precision and sum to
    ``p_max``. Channels with gamma == 0 receive exactly zero. When ``p_max``
    lies below the float spacing of the strongest 1/gamma (or that 1/gamma
    overflows), the whole budget goes to the strongest channel. When
    ``p_max + N * max(1/gamma)`` nears the float range, the problem is solved
    scaled down by a power of two, so the prefix sums cannot overflow.

    Raises ``ValueError`` unless every gain is finite and nonnegative and
    ``p_max`` is positive and finite, and :class:`NoUsablePairError` when
    every gain is zero.
    """
    gam = np.asarray(gammas, dtype=float)
    if gam.ndim != 1 or gam.size == 0:
        raise ValueError("gammas must be a nonempty vector")
    if not ((gam >= 0.0) & (gam < math.inf)).all():
        raise ValueError("gammas must be finite and nonnegative")
    if not (math.isfinite(p_max) and p_max > 0.0):
        raise ValueError("p_max must be positive and finite")
    # a channel whose 1/gamma overflows is never powered beside a stronger one
    usable = gam > _GAMMA_MIN_INVERTIBLE
    if not usable.any():
        if not (gam > 0.0).any():
            raise NoUsablePairError("no usable pair: every effective gain is zero")
        return _all_to_strongest(gam, p_max)
    inv = 1.0 / gam[usable]
    steps = np.sort(inv)
    budget = p_max
    scale = 1.0
    if p_max + steps.size * steps.item(-1) >= _PREFIX_SUM_LIMIT:
        # the prefix sums could overflow: solve the problem scaled down by a
        # power of two, which leaves the rounding of every normal float as is
        scale = 2.0 ** (steps.size.bit_length() + 1)
        inv, steps, budget = inv / scale, steps / scale, p_max / scale
    levels = (budget + np.cumsum(steps)) / np.arange(1, steps.size + 1)
    # the strongest channel is always active, even when p_max lies below the
    # float spacing of its 1/gamma and its level cannot rise above it
    n_active = max(int(np.count_nonzero(steps < levels)), 1)
    active = inv <= steps[n_active - 1]
    # the prefix levels carry cumsum rounding: recompute the level over the
    # active set and drop any channel whose 1/gamma rounds onto or above it
    while True:
        level = (budget + float(inv[active].sum())) / int(active.sum())
        overshoot = active & (inv >= level)
        if not overshoot.any():
            break
        active &= ~overshoot
        if not active.any():
            return _all_to_strongest(gam, p_max)
    alloc = np.where(active, level - inv, 0.0)
    # pin the float sum exactly to the budget; the correction is O(ulp) and
    # lands on the largest allocation
    alloc[int(np.argmax(alloc))] += budget - math.fsum(alloc)
    if scale != 1.0:
        alloc *= scale
    powers = np.zeros_like(gam)
    powers[usable] = alloc
    return powers


def _split_gains(channel: ChannelRealization, perm: np.ndarray, cfg: SystemConfig):
    """(rho_I, gamma) vectors of the pairs that forward subcarrier i over
    ``perm[i]``."""
    # the split loop runs on Python floats: NumPy-scalar arithmetic is about
    # 3x slower and gives the same bits
    h_list = channel.h_sq.tolist()
    g_list = channel.g_sq[perm].tolist()
    rho, gam = np.array([split_and_gain(h, g, cfg) for h, g in zip(h_list, g_list)]).T
    return rho, gam


def _result(pairing: SubcarrierPairing, rho: np.ndarray, gam: np.ndarray, powers: np.ndarray) -> AllocationResult:
    """The frozen result of a policy that put ``powers`` on pairs of
    effective gains ``gam``."""
    pair_rates = 0.5 * np.log1p(gam * powers) / _LN2
    return _frozen(
        AllocationResult,
        pairing=pairing,
        rho_i=rho,
        powers=powers,
        pair_rates=pair_rates,
        total_rate=float(pair_rates.sum()),
    )


def solve(channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Run the full three-step policy on one realization.

    Raises :class:`NoUsablePairError` when the whole channel is dead.
    """
    n = cfg.n_subcarriers
    if channel.n_subcarriers != n:
        raise ValueError(
            f"channel has {channel.n_subcarriers} subcarriers, config expects {n}"
        )
    pairing = sorted_pairing(channel.h_sq, channel.g_sq)
    rho, gam = _split_gains(channel, pairing.perm, cfg)
    return _result(pairing, rho, gam, waterfill(gam, cfg.p_max))
