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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, _holds_non_real, _read_vectors, _real_array
from .model import _INT_KINDS, SystemConfig, _is_real, _real

__all__ = [
    "AllocationResult",
    "NoUsablePairError",
    "SubcarrierPairing",
    "allocation_to_dict",
    "effective_gain",
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
# split_and_gain's root squares b: it stays finite up to this b for noise
# powers up to ~1e76 mW; past it the root is taken from the quadratic
# divided by b
_B_DIRECT_MAX = 2.0**256
# no product gamma*P of the gains and powers scored overflows while
# max(gamma) * max(P) stays below this bound
_PRODUCT_LIMIT = 2.0**1023
# below this many elements ``ndarray.sum`` adds float64 strictly left to
# right; from it up it sums pairwise over eight accumulators. Water-filling
# and the largest gain and power of a rate sum are taken on Python floats
# below it and on NumPy arrays from it up.
_FLOAT_BODY_LIMIT = 8
# module aliases: one global lookup each on the float water-filling path
_INF = math.inf
_fsum = math.fsum


class NoUsablePairError(ValueError):
    """Every pair of the channel has zero effective gain; no rate can flow."""


@dataclass(frozen=True)
class SubcarrierPairing:
    """Matching of incoming to outgoing subcarriers: ``perm[i] = j`` means the
    stream decoded from subcarrier i is forwarded on subcarrier j. Being a
    permutation, it uses every incoming and outgoing subcarrier exactly once.
    """

    perm: np.ndarray

    def __post_init__(self):
        p = np.array(self.perm)
        # a float or bool index would be truncated to another permutation
        if p.dtype.kind not in _INT_KINDS:
            raise ValueError(f"perm must hold integers, got dtype {p.dtype}")
        # np.array casts a bool among ints to an int, so the entries are
        # scanned as well
        if _holds_non_real(self.perm):
            raise ValueError("perm must hold integers, not bools")
        p = p.astype(np.int64, copy=False)
        if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError("perm must be a permutation of 0..N-1")
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)


@dataclass(frozen=True)
class AllocationResult:
    """One policy's full decision for one channel realization.

    ``rho_i[i]`` is the decode-side power-splitting fraction of incoming
    subcarrier i (the harvest fraction is its complement), ``powers[i]`` the
    power spent on pair i in mW, ``pair_rates[i]`` its end-to-end rate. For
    the conventional (non-harvesting) baseline ``powers`` carries the pooled
    source-plus-relay power of the pair and ``rho_i`` is fixed at 1.

    The values are read by the package's number rule (see ``model._real``):
    each vector becomes a new read-only float array, and ``total_rate`` a
    Python float. A bool or a string in a vector raises ``ValueError``
    "<field> entries must be numbers, not bools or strings", and a bool, a
    string or ``None`` as ``total_rate`` raises "total_rate must be a
    number". Their ranges stay open, so that ``verify(result=...)`` can
    audit a corrupted allocation: NaN, ±inf, a negative power or a split
    outside [0, 1] is kept as given.
    """

    pairing: SubcarrierPairing
    rho_i: np.ndarray
    powers: np.ndarray
    pair_rates: np.ndarray
    total_rate: float

    def __post_init__(self):
        _read_vectors(self, ("rho_i", "powers", "pair_rates"))
        if not _is_real(self.total_rate):
            raise ValueError("total_rate must be a number")
        object.__setattr__(self, "total_rate", _real(self.total_rate))


def allocation_to_dict(result: AllocationResult) -> dict:
    """JSON-friendly view of an :class:`AllocationResult`."""
    return {
        "pairing": result.pairing.perm.tolist(),
        "rho_i": result.rho_i.tolist(),
        "powers": result.powers.tolist(),
        "pair_rates": result.pair_rates.tolist(),
        "total_rate": result.total_rate,
    }


def _check_split(h_sq: float, g_sq: float, rho_i: float) -> tuple[float, float, float]:
    """The gains and ``rho_i`` as Python floats, read by the number rule of
    ``model._real``. Raises ``ValueError`` unless both gains are finite and
    nonnegative and ``rho_i`` lies in [0, 1]."""
    h_sq, g_sq, rho_i = _real(h_sq), _real(g_sq), _real(rho_i)
    if not (0.0 <= h_sq < math.inf and 0.0 <= g_sq < math.inf):
        raise ValueError("h_sq and g_sq must be finite and nonnegative")
    if not 0.0 <= rho_i <= 1.0:
        raise ValueError("rho_i must lie in [0, 1]")
    return h_sq, g_sq, rho_i


def rate_terms(h_sq: float, g_sq: float, rho_i: float, p_mw: float, cfg: SystemConfig) -> tuple[float, float]:
    """The two mutual-information terms of one pair, in bits/s/Hz (without
    the 1/2 pre-log): decode at the relay, and forward on harvested power.

    Where a term's SNR overflows, log1p(SNR) equals the sum of the logs of
    its factors to float precision, so that term is taken in that form
    instead of inf. Each argument is read as a Python float, so an int or a
    NumPy scalar gives the float's result. Raises ``ValueError`` unless both
    gains are finite and nonnegative ("h_sq and g_sq must be finite and
    nonnegative"), ``rho_i`` lies in [0, 1] ("rho_i must lie in [0, 1]") and
    the power is finite and nonnegative ("power must be nonnegative"). A
    bool, a string or ``None`` is not a number, and an int past the float
    range is out of range.
    """
    h_sq, g_sq, rho_i = _check_split(h_sq, g_sq, rho_i)
    p_mw = _real(p_mw)
    if not 0.0 <= p_mw < math.inf:
        raise ValueError("power must be nonnegative")
    noise = cfg.noise
    decode_noise = rho_i * noise.sigma_ra_sq + noise.sigma_rb_sq
    snr_decode = rho_i * h_sq * p_mw / decode_noise
    snr_forward = cfg.eta * (1.0 - rho_i) * h_sq * g_sq * p_mw / noise.sigma_d_sq
    if snr_decode == math.inf:
        log_decode = math.log(rho_i) + math.log(h_sq) + math.log(p_mw) - math.log(decode_noise)
    else:
        log_decode = math.log1p(snr_decode)
    if snr_forward == math.inf:
        log_forward = (
            math.log(cfg.eta) + math.log1p(-rho_i) + math.log(h_sq) + math.log(g_sq)
            + math.log(p_mw) - math.log(noise.sigma_d_sq)
        )
    else:
        log_forward = math.log1p(snr_forward)
    return log_decode / _LN2, log_forward / _LN2


def sorted_pairing(h_sq, g_sq) -> SubcarrierPairing:
    """Match the k-th largest incoming gain with the k-th largest outgoing
    gain for every k. Ties break toward the lower original index (stable
    sort), which never changes the achievable rate. Raises ``ValueError``
    on gains a :class:`ChannelRealization` rejects."""
    channel = ChannelRealization(h_sq, g_sq)
    return _pairing(_sorted_perm(channel.h_sq, channel.g_sq))


def _pairing(perm: np.ndarray) -> SubcarrierPairing:
    """A :class:`SubcarrierPairing` around ``perm``, a permutation the engine
    has just computed and no caller holds: it is made read-only in place,
    and the constructor's copy and check are skipped."""
    perm.setflags(write=False)
    pairing = object.__new__(SubcarrierPairing)
    pairing.__dict__["perm"] = perm
    return pairing


def _sorted_perm(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The permutations of :func:`sorted_pairing` for two equal-shape float
    vectors, or tables of one channel per row: incoming subcarrier i of a
    row forwards over outgoing ``perm[..., i]``."""
    # the method skips the np.argsort wrapper, about half the call
    order_h = (-h).argsort(axis=-1, kind="stable")
    order_g = (-g).argsort(axis=-1, kind="stable")
    perm = np.empty_like(order_h)
    if h.ndim == 1:
        perm[order_h] = order_g
    else:
        perm[np.arange(len(h))[:, None], order_h] = order_g
    return perm


def effective_gain(h_sq: float, rho_i: float, cfg: SystemConfig) -> float:
    """Rate slope of a pair after the split: gamma such that the pair rate is
    0.5*log2(1 + gamma*P), as a Python float. Independent of any power
    value. Raises ``ValueError`` on a gain or ``rho_i`` that
    :func:`rate_terms` rejects, with its message."""
    h_sq, _, rho_i = _check_split(h_sq, 0.0, rho_i)  # gamma does not depend on g_sq
    noise = cfg.noise
    return h_sq * rho_i / (rho_i * noise.sigma_ra_sq + noise.sigma_rb_sq)


def split_and_gain(h_sq: float, g_sq: float, cfg: SystemConfig) -> tuple[float, float]:
    """Closed-form equal-rate split of one matched pair: (rho_I, gamma), with
    dead pairs pinned to (1.0, 0.0).

    With b = eta * g_sq / sigma_d_sq, rho_I is the positive root of

        b*s_ra*rho^2 + (1 - b*s_ra + b*s_rb)*rho - b*s_rb = 0,

    which always lies strictly inside (0, 1). It is evaluated through the
    rationalized root form that avoids cancellation, written once for the
    quadratic times t: t = 1 up to b = 2**256, and past it, where b*b heads
    for overflow, t = 1/b, the quadratic divided by b, whose coefficients
    stay finite for any b; there rho_I rounds to 1 and gamma to
    h_sq / (s_ra + s_rb). A root that rounds above 1, as it can from
    b ~ 1e12 on, is capped at 1. gamma is exactly
    ``effective_gain(h_sq, rho_I, cfg)``. A pair is dead when b is not
    positive: zero gain, harvesting disabled, or b underflowing to zero.
    """
    noise = cfg.noise
    b = cfg.eta * g_sq / noise.sigma_d_sq
    s_ra = noise.sigma_ra_sq
    s_rb = noise.sigma_rb_sq
    # the quadratic times t has b*t where it has b and t where it has 1; past
    # _B_DIRECT_MAX, b rebinds to b*t = 1, and a product with 1.0 is exact,
    # so each form keeps the bits of its quadratic written out
    t = 1.0
    if not 0.0 < b <= _B_DIRECT_MAX:
        if not b > 0.0:
            return 1.0, 0.0
        t, b = 1.0 / b, 1.0
    quad = b * s_ra
    lin = t - quad + b * s_rb
    root = math.sqrt(lin * lin + 4.0 * b * b * s_ra * s_rb)
    if lin >= 0.0:
        rho_info = 2.0 * b * s_rb / (lin + root)
    else:
        rho_info = (root - lin) / (2.0 * quad)
    # the root lies below 1 but can round an ulp above it once b is large
    if rho_info > 1.0:
        rho_info = 1.0
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
    running sum give the level, so a call costs O(N log N). The returned
    powers are nonnegative, satisfy the stationarity conditions to float
    precision, and sum to ``p_max`` within one ulp of it (``math.fsum``).
    Channels with gamma == 0 receive exactly zero. When ``p_max`` lies below
    the float spacing of the strongest 1/gamma (or that 1/gamma overflows),
    or is subnormal and so coarse that the equal shares round past it, the
    whole budget goes to the strongest channel. When
    ``p_max + N * max(1/gamma)`` nears the float range, the problem is solved
    scaled down by a power of two, so the prefix sums cannot overflow.

    The algorithm has two bodies that perform the same float operations in
    the same order and so return the same bits. Below 8 channels it runs on
    Python floats, where a dozen small NumPy calls would cost more than the
    arithmetic; from 8 channels up it runs on NumPy arrays. The cut sits at
    8 because ``ndarray.sum`` adds fewer than 8 elements strictly left to
    right, which a plain ``+=`` loop reproduces, and switches to pairwise
    summation from 8 up. The edge rules above are written once, in the
    array body: the float body runs the common case and hands every other
    input to it, as it does a rejected gain. It keeps the active set as the
    channels whose 1/gamma is at most a threshold ``top``, so an overshoot
    of the level shows as ``not top < level`` and is handed over there.

    Raises ``ValueError`` unless every gain is finite and nonnegative and
    ``p_max`` is positive and finite, and :class:`NoUsablePairError` when
    every gain is zero. A bool or a string is neither a gain nor a budget.
    """
    # a float64 array holds only real numbers, so the engine's gain rows
    # skip the scan that rejects a bool the cast would read as 0 or 1 or a
    # numeric string it would parse
    if type(gammas) is np.ndarray and gammas.dtype == np.float64:
        gam = gammas
    else:
        gam = _real_array("gammas", gammas)
    n = gam.size
    if gam.ndim != 1 or n == 0:
        raise ValueError("gammas must be a nonempty vector")
    if n < _FLOAT_BODY_LIMIT:
        return _waterfill_floats(gam, p_max)
    return _waterfill_array(gam, p_max)


def _check_budget(p_max) -> float:
    """``p_max`` as a Python float. Raises ``ValueError`` unless it is a
    positive finite real number; a bool or a string is not one."""
    budget = _real(p_max)
    if 0.0 < budget < math.inf:
        return budget
    raise ValueError("p_max must be positive and finite")


def _waterfill_floats(gam: np.ndarray, p_max: float) -> np.ndarray:
    """``waterfill`` on Python floats, step for step as
    :func:`_waterfill_array`, for a vector of fewer than
    ``_FLOAT_BODY_LIMIT`` gains. It runs the common case and returns
    ``_waterfill_array(gam, p_max)`` for every other input: a gain that is
    not finite and nonnegative, positive gains none of which is invertible,
    prefix sums that could overflow, an overshoot of the level and a budget
    pin below zero. The array body decides each of those with the same
    float operations, so the bits and the errors are the same. One pass
    over the gains both rejects a gain and takes each 1/gamma, so a
    rejected gain is handed over, wherever it lies, before the budget is
    checked."""
    values = gam.tolist()
    # a channel whose 1/gamma overflows keeps its place at 1/gamma = inf,
    # which no level reaches, so it sorts last and is never powered
    inv = []
    for g in values:
        if not 0.0 <= g < _INF:
            return _waterfill_array(gam, p_max)
        inv.append(1.0 / g if g > _GAMMA_MIN_INVERTIBLE else _INF)
    # the engine's budget, a positive finite float, needs no further check
    if type(p_max) is not float or not 0.0 < p_max < _INF:
        p_max = _check_budget(p_max)
    steps = sorted(inv)
    n_usable = len(steps) - steps.count(_INF)
    # raised here, so that the dead rows of an eta = 0 sweep stay on floats
    if not n_usable and not max(values) > 0.0:
        raise NoUsablePairError("no usable pair: every effective gain is zero")
    if not n_usable or p_max + n_usable * steps[n_usable - 1] >= _PREFIX_SUM_LIMIT:
        return _waterfill_array(gam, p_max)
    # the prefix levels, with the running sum kept apart from the budget as
    # np.cumsum keeps it; every k is counted, as count_nonzero counts
    n_active = 0
    prefix = 0.0
    # a float count divides as the int one would, without the conversion
    k = 0.0
    for step in steps:
        k += 1.0
        prefix += step
        if step < (p_max + prefix) / k:
            n_active += 1
    # the active set is {x in inv: x <= top}; left to right, as ndarray.sum
    # adds so few elements; the builtin sum() compensates its rounding from
    # Python 3.12 on
    top = steps[max(n_active, 1) - 1]
    total, count = 0.0, 0
    for x in inv:
        if x <= top:
            total += x
            count += 1
    level = (p_max + total) / count
    # top < level holds iff no active channel overshoots the level
    if not top < level:
        return _waterfill_array(gam, p_max)
    alloc = [level - x if x <= top else 0.0 for x in inv]
    # np.argmax's pick: the first largest allocation
    largest = alloc.index(max(alloc))
    alloc[largest] += p_max - _fsum(alloc)
    if alloc[largest] < 0.0:
        return _waterfill_array(gam, p_max)
    return np.array(alloc)


def _waterfill_array(gam: np.ndarray, p_max: float) -> np.ndarray:
    """``waterfill`` on NumPy arrays, for a vector of any length."""
    if not ((gam >= 0.0) & (gam < math.inf)).all():
        raise ValueError("gammas must be finite and nonnegative")
    p_max = _check_budget(p_max)
    if not (gam > 0.0).any():
        raise NoUsablePairError("no usable pair: every effective gain is zero")
    # a channel whose 1/gamma overflows keeps its place at 1/gamma = inf,
    # which no level reaches; the finite steps sort first
    usable = gam > _GAMMA_MIN_INVERTIBLE
    n_usable = int(np.count_nonzero(usable))
    if not n_usable:
        return _all_to_strongest(gam, p_max)
    inv = np.divide(1.0, gam, out=np.full(gam.shape, math.inf), where=usable)
    steps = np.sort(inv)[:n_usable]
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
    # lands on the largest allocation. Zeros leave a correctly rounded sum
    # as it is, so only the active allocations are summed
    largest = int(np.argmax(alloc))
    alloc[largest] += budget - math.fsum(alloc[active].tolist())
    if scale != 1.0:
        # the pin keeps every allocation at most the scaled budget, so none
        # overflows on the way back; the scaling is exact, so the sum falls
        # short of p_max only by the bits that a subnormal scaled budget lost
        # (none where it is normal), which the largest allocation takes
        alloc *= scale
        alloc[largest] += p_max - budget * scale
    # a subnormal budget can round several equal shares up past it, so that
    # the pin drives the largest below zero: the whole budget then goes to
    # the strongest channel
    if alloc[largest] < 0.0:
        return _all_to_strongest(gam, p_max)
    return alloc


def _water_filled(gam: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The water-filled powers of one channel's gain vector ``gam``, or of
    each row of a ``(b, N)`` gain table ``gam``: one ``waterfill`` call per
    channel, through this module's binding looked up at call time.

    Like every rule, it takes either shape and maps gains to powers of that
    shape. ``waterfill`` takes one vector, so a vector goes to it as it is,
    and raises :class:`NoUsablePairError` when all its gains are zero. A
    table goes to it row by row, and a row of zero gains gets zero powers;
    every other row powers some pair. The row vectors are stacked into the
    ``(b, N)`` power table once, at the end.
    """
    p_max = cfg.p_max
    if gam.ndim == 1:
        return waterfill(gam, p_max)
    rows = []
    for row_gam in gam:
        try:
            rows.append(waterfill(row_gam, p_max))
        except NoUsablePairError:
            rows.append(np.zeros(gam.shape[1]))
    return np.array(rows)


def _split_gains(h: np.ndarray, g_paired: np.ndarray, cfg: SystemConfig):
    """(rho_I, gamma) tables of the pairs whose incoming gains are ``h`` and
    outgoing gains ``g_paired``, two tables of any equal shape; one
    ``split_and_gain`` call per pair. Both are read-only views of one
    array."""
    # the split loop runs on Python floats: NumPy-scalar arithmetic is about
    # 3x slower and gives the same bits
    pairs = map(split_and_gain, h.ravel().tolist(), g_paired.ravel().tolist(), itertools.repeat(cfg))
    # one flat buffer: about 2.5x faster than np.array on the list of tuples
    table = np.fromiter(itertools.chain.from_iterable(pairs), float, 2 * h.size)
    # read-only before the views are taken, so that both inherit the flag
    table.setflags(write=False)
    return table.reshape(-1, 2).T.reshape(2, *h.shape)


def _largest(values: np.ndarray) -> float:
    """The largest element of the nonempty float array ``values``."""
    # below 8 elements, max of a list costs a third of ndarray.max()'s call
    return max(values.ravel().tolist()) if values.size < _FLOAT_BODY_LIMIT else float(values.max())


def _check_gains(gam: np.ndarray) -> None:
    """Raise ``ValueError`` "an effective gain passes the float range: the
    channel is too strong for the noise" when a gain of the table ``gam``
    is inf: a pair whose effective gain overflows, as it can on a strong
    channel at low noise powers, has no rate to report. Every rule's gains
    go through it before their powers are taken."""
    if _largest(gam) == _INF:
        raise ValueError("an effective gain passes the float range: the channel is too strong for the noise")


def _pair_rates(gam: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """0.5*log2(1 + gamma*P) elementwise, for nonempty gains and powers of
    any equal shape.

    Where gamma*P overflows, log1p(gamma*P) equals log(gamma) + log(P) to
    float precision, so those terms are taken in that form instead of inf.
    That form is taken only when max(gamma) * max(P) reaches
    ``_PRODUCT_LIMIT``; below it no product overflows, and the two forms
    give the same bits wherever both hold.
    """
    if _largest(gam) * _largest(powers) < _PRODUCT_LIMIT:
        # the bits of 0.5 * log1p(gamma * P) / ln 2, with two arrays fewer
        rates = np.log1p(gam * powers)
        rates *= 0.5
        rates /= _LN2
        return rates
    with np.errstate(over="ignore"):
        snr = gam * powers
    rates = 0.5 * np.log1p(snr) / _LN2
    big = np.isinf(snr)
    rates[big] = 0.5 * (np.log(gam[big]) + np.log(powers[big])) / _LN2
    return rates


def _table_rates(gam: np.ndarray, power_rule, cfg: SystemConfig):
    """Total rate of each row of the ``(b, N)`` gain table ``gam``, whose
    ``(b, N)`` power table ``power_rule(gam, cfg)`` gives: a ``(b,)`` rate
    vector, and a ``(b,)`` boolean vector, true where the rule powered no
    pair of a row, which is dead and scores 0.

    A row sum adds its N terms as a 1-D ``ndarray.sum`` does whatever the
    table's height, left to right below 8 terms and pairwise from 8 up, so a
    row's rate has the bits of the ``total_rate`` of its one-row result.
    Raises ``ValueError`` when a gain of the table is inf (see
    :func:`_check_gains`), before any power is taken. Each row is scored by
    :func:`_pair_rates` in the form the whole table's largest gain and
    power allow, which gives a row the same bits as its own result.
    """
    _check_gains(gam)
    powers = power_rule(gam, cfg)
    # a dead row's powers are all zero, so it sums to exactly 0.0
    return _pair_rates(gam, powers).sum(axis=1), ~powers.any(axis=1)


def _check_width(n: int, cfg: SystemConfig, what: str = "channel") -> None:
    """Raise ``ValueError`` unless ``what`` spans ``cfg.n_subcarriers``
    subcarriers."""
    if n != cfg.n_subcarriers:
        raise ValueError(f"{what} has {n} subcarriers, config expects {cfg.n_subcarriers}")


def _run_row(row, channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """The result of one policy row on one realization. A row is three rules:
    sorted (else identity) pairing; the (rho_I, gamma) tables of the pairs
    of given incoming and outgoing gain tables; and the powers of a gain
    table. ``baselines`` runs the same rules on a ``(b, N)`` block of
    channels, one per row; here they run on this channel's vectors.

    Raises ``ValueError`` when the channel's width is not the config's or
    an effective gain passes the float range (see :func:`_check_gains`), and
    :class:`NoUsablePairError` where the row water-fills a dead channel.
    """
    use_sorted, gains, power_rule = row
    _check_width(channel.n_subcarriers, cfg)
    h, g = channel.h_sq, channel.g_sq
    perm = _sorted_perm(h, g) if use_sorted else np.arange(channel.n_subcarriers)
    # two indexings: unpacking a (2, N) table would start an iterator, which
    # costs more than both
    tables = gains(h, g[perm], cfg)
    rho, gam = tables[0], tables[1]
    _check_gains(gam)
    powers = power_rule(gam, cfg)
    pair_rates = _pair_rates(gam, powers)
    # every array is the row's own, so the result is built around them as
    # they are, each made read-only in place
    for vec in (rho, powers, pair_rates):
        vec.setflags(write=False)
    result = object.__new__(AllocationResult)
    result.__dict__.update(pairing=_pairing(perm), rho_i=rho, powers=powers, pair_rates=pair_rates,
                           total_rate=float(pair_rates.sum()))
    return result


# the three-step policy of this module as a row
_PROPOSED_ROW = (True, _split_gains, _water_filled)


def solve(channel: ChannelRealization, cfg: SystemConfig) -> AllocationResult:
    """Run the full three-step policy on one realization.

    Raises :class:`NoUsablePairError` when the whole channel is dead, and
    ``ValueError`` when its width is not ``cfg.n_subcarriers`` or an
    effective gain passes the float range.
    """
    return _run_row(_PROPOSED_ROW, channel, cfg)
