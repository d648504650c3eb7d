import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swipt_relay import allocator
from swipt_relay.allocator import (
    NoUsablePairError,
    _sorted_perm,
    _split_gains,
    _table_rates,
    _water_filled,
    _waterfill_array,
    _waterfill_floats,
    effective_gain,
    rate_terms,
    solve,
    sorted_pairing,
    split_and_gain,
    waterfill,
)
from swipt_relay.baselines import PolicyId
from swipt_relay.channel import ChannelRealization, generate_channel
from swipt_relay.model import NoiseProfile
from swipt_relay.montecarlo import SweepSpec, sweep
from swipt_relay.oracle import best_pairing_exhaustive, verify

from conftest import NOISE_1DBM, REF_GAIN, REF_GAMMA, REF_RATE_10MW, REF_RHO, make_cfg, mixed_gains
from oracles import power_by_grid, rho_by_bisection


# --------------------------------------------------------------- rate_terms

def test_pair_rate_zero_power(single_pair_cfg):
    assert rate_terms(0.9, 0.9, 0.5, 0.0, single_pair_cfg) == (0.0, 0.0)


def test_pair_rate_zero_decode_fraction(single_pair_cfg):
    assert rate_terms(0.9, 0.9, 0.0, 10.0, single_pair_cfg)[0] == 0.0


def test_pair_rate_dead_hops(single_pair_cfg):
    assert rate_terms(0.0, 0.9, 0.5, 10.0, single_pair_cfg) == (0.0, 0.0)
    assert rate_terms(0.9, 0.0, 1.0, 10.0, single_pair_cfg)[1] == 0.0


def test_pair_rate_reference_instance(single_pair_cfg):
    """At the equal-rate split the two terms coincide and the pair rate, half
    the smaller term, is half either term; the split itself comes from the
    independent bisection."""
    rho = rho_by_bisection(REF_GAIN, single_pair_cfg, tol=1e-13)
    t_decode, t_forward = rate_terms(REF_GAIN, REF_GAIN, rho, 10.0, single_pair_cfg)
    assert abs(t_decode - t_forward) < 1e-6  # limited only by bisection width
    rate = 0.5 * min(t_decode, t_forward)
    assert rate == pytest.approx(REF_RATE_10MW, rel=1e-9)
    assert rate == pytest.approx(0.5 * t_decode, rel=1e-6)


# ----------------------------------------------------------- sorted_pairing

def test_sorted_pairing_example():
    pairing = sorted_pairing([3.0, 1.0, 2.0], [0.5, 0.9, 0.1])
    np.testing.assert_array_equal(pairing.perm, [1, 2, 0])


def test_sorted_pairing_identity_when_both_descending():
    pairing = sorted_pairing([9.0, 5.0, 2.0, 1.0], [0.7, 0.5, 0.3, 0.1])
    np.testing.assert_array_equal(pairing.perm, np.arange(4))


def test_sorted_pairing_tie_break_lowest_index_first():
    pairing = sorted_pairing([1.0, 1.0, 1.0], [0.5, 0.9, 0.1])
    np.testing.assert_array_equal(pairing.perm, [1, 0, 2])


def test_sorted_pairing_ties_cannot_change_rate(default_cfg):
    """With tied incoming gains every matching consistent with the sort gives
    the same total rate; enumeration confirms the chosen tie-break is
    rate-neutral."""
    chan = ChannelRealization([0.7, 0.7, 0.7], [0.5, 0.9, 0.1])
    cfg = make_cfg(n_subcarriers=3, taps=3)
    got = solve(chan, cfg).total_rate
    for perm in itertools.permutations(range(3)):
        gam = np.array(
            [split_and_gain(chan.h_sq[i], chan.g_sq[perm[i]], cfg)[1] for i in range(3)]
        )
        powers = waterfill(gam, cfg.p_max)
        rate = float(np.sum(0.5 * np.log2(1.0 + gam * powers)))
        assert rate == pytest.approx(got, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3, 4, 7, 8, 256]))
def test_sorted_pairing_returns_read_only_permutation(data, n):
    """The result is built without the constructor's copy and check: it must
    still be a read-only int64 permutation, with ties and zero gains."""
    tied = st.sampled_from([0.0, 5e-324, 1.0, 2.5])
    gains = st.lists(tied | st.floats(0.0, 1e6), min_size=n, max_size=n)
    h, g = data.draw(gains), data.draw(gains)
    perm = sorted_pairing(h, g).perm
    assert perm.dtype == np.int64
    np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    assert not perm.flags.writeable
    with pytest.raises(ValueError):
        perm[0] = perm[-1]


def test_sorted_pairing_rejects_length_mismatch():
    with pytest.raises(ValueError):
        sorted_pairing([1.0, 2.0], [1.0])


# ------------------------------------------------ closed-form split (rho_I)

def test_optimal_rho_reference_instance(single_pair_cfg):
    rho_info = split_and_gain(1.0, REF_GAIN, single_pair_cfg)[0]
    assert rho_info == pytest.approx(REF_RHO, abs=1e-12)
    assert rho_info == pytest.approx(0.588403, abs=1e-6)
    assert abs(rho_info - rho_by_bisection(REF_GAIN, single_pair_cfg)) < 1e-10


def test_optimal_rho_vanishing_processing_noise():
    """As the processing noise vanishes with b*sigma_ra_sq = 2 the split
    degenerates to 1 - 1/(b*sigma_ra_sq) = 0.5."""
    cfg = make_cfg(noise=NoiseProfile(1.0, 1e-12, 0.5, 0.5))
    rho_info = split_and_gain(1.0, 2.0, cfg)[0]  # b = eta*g/sigma_d = 2
    assert rho_info == pytest.approx(0.5, abs=1e-6)
    assert abs(rho_info - rho_by_bisection(2.0, cfg)) < 1e-10


def test_optimal_rho_huge_forward_quality(single_pair_cfg):
    """b -> infinity drives the split toward pure decoding: rho_I -> 1^- with
    1 - rho_I ~ 1/(1 + b*(sigma_ra_sq + sigma_rb_sq)), still strictly inside
    (0, 1). Cross-checked against the bisection oracle."""
    g = 1e9 * single_pair_cfg.noise.sigma_d_sq  # b = 1e9
    rho_info = split_and_gain(1.0, g, single_pair_cfg)[0]
    assert 0.0 < rho_info < 1.0
    assert rho_info > 0.999999
    expected_harvest = 1.0 / (1.0 + 1e9 * (NOISE_1DBM + NOISE_1DBM))
    assert 1.0 - rho_info == pytest.approx(expected_harvest, rel=1e-6)
    assert abs(rho_info - rho_by_bisection(g, single_pair_cfg)) < 1e-10


def test_optimal_rho_tiny_forward_quality(single_pair_cfg):
    g = 1e-6 * single_pair_cfg.noise.sigma_d_sq  # b = 1e-6
    rho_info = split_and_gain(1.0, g, single_pair_cfg)[0]
    assert rho_info == pytest.approx(1e-6 * NOISE_1DBM, rel=1e-5)


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(1e-6, 100.0),
    s_ra=st.floats(1e-2, 10.0),
    s_rb=st.floats(1e-2, 10.0),
    s_d=st.floats(1e-2, 10.0),
    eta=st.floats(1e-6, 1.0),
)
def test_optimal_rho_interior_and_equalizing(g, s_ra, s_rb, s_d, eta):
    cfg = make_cfg(eta=eta, noise=NoiseProfile(s_ra, s_rb, s_d / 2, s_d / 2))
    rho_info = split_and_gain(1.0, g, cfg)[0]
    assert 0.0 < rho_info < 1.0
    t_decode, t_forward = rate_terms(1.0, g, rho_info, 1.0, cfg)
    assert abs(t_decode - t_forward) <= 1e-9 * max(t_decode, 1e-12)


# ----------------------------------------------------------- effective_gain

def test_effective_gain_zero_split(single_pair_cfg):
    assert effective_gain(0.9, 0.0, single_pair_cfg) == 0.0


def test_effective_gain_reference_instance(single_pair_cfg):
    rho_info = split_and_gain(1.0, REF_GAIN, single_pair_cfg)[0]
    gamma = effective_gain(REF_GAIN, rho_info, single_pair_cfg)
    assert gamma == pytest.approx(REF_GAMMA, rel=1e-12)
    # consistency: 0.5*log2(1 + gamma*P) is exactly the pair rate at the split
    rate = 0.5 * math.log2(1.0 + gamma * 10.0)
    assert rate == pytest.approx(
        0.5 * min(rate_terms(REF_GAIN, REF_GAIN, rho_info, 10.0, single_pair_cfg)), rel=1e-12
    )


def test_effective_gain_scales_linearly_in_h(single_pair_cfg):
    base = effective_gain(0.37, 0.6, single_pair_cfg)
    assert effective_gain(2.0 * 0.37, 0.6, single_pair_cfg) == 2.0 * base
    assert effective_gain(7.3 * 0.37, 0.6, single_pair_cfg) == pytest.approx(
        7.3 * base, rel=1e-14
    )


def test_effective_gain_power_independent(single_pair_cfg):
    # gamma never sees a power value: identical bits regardless of budget
    lo = effective_gain(0.9, REF_RHO, make_cfg(p_max=1.0))
    hi = effective_gain(0.9, REF_RHO, make_cfg(p_max=1e6))
    assert lo == hi


# ----------------------------------------------------------- split_and_gain

@pytest.mark.parametrize(
    "g_sq, eta",
    [
        (0.0, 1.0),
        (0.9, 0.0),
        (5e-324, 0.1),  # eta*g_sq/sigma_d_sq underflows to zero
    ],
)
def test_split_and_gain_pins_dead_pairs(g_sq, eta):
    assert split_and_gain(1.0, g_sq, make_cfg(eta=eta)) == (1.0, 0.0)


def _bits(x) -> str:
    return float(x).hex()


@settings(max_examples=500, deadline=None)
@given(
    h=st.floats(0.0, 1e6),
    g=st.floats(1e-300, 1e6),
    eta=st.floats(0.0, 1.0, exclude_min=True),
)
def test_split_and_gain_bits(h, g, eta):
    """Python-float and np.float64 inputs give the same bits; rho_I is the
    bisection oracle's root, and gamma is exactly effective_gain's."""
    cfg = make_cfg(eta=eta)
    rho, gamma = split_and_gain(h, g, cfg)
    rho_64, gamma_64 = split_and_gain(np.float64(h), np.float64(g), cfg)
    assert (_bits(rho), _bits(gamma)) == (_bits(rho_64), _bits(gamma_64))
    if not eta * g / cfg.noise.sigma_d_sq > 0.0:
        assert (rho, gamma) == (1.0, 0.0)
        return
    assert abs(rho - rho_by_bisection(g, cfg)) <= 1e-10
    assert _bits(gamma) == _bits(effective_gain(h, rho, cfg))


@pytest.mark.parametrize("g_sq", [1e155, 1e160, sys.float_info.max])
def test_split_and_gain_huge_forward_quality(g_sq, single_pair_cfg):
    """Where b*b overflows the split still holds: rho_I rounds to 1 and gamma
    to h/(s_ra + s_rb), exactly effective_gain's at that rho_I."""
    noise = single_pair_cfg.noise
    rho, gamma = split_and_gain(0.9, g_sq, single_pair_cfg)
    assert 0.0 < rho <= 1.0
    assert rho == pytest.approx(1.0, abs=1e-15)
    assert _bits(gamma) == _bits(effective_gain(0.9, rho, single_pair_cfg))
    assert gamma == pytest.approx(0.9 / (noise.sigma_ra_sq + noise.sigma_rb_sq), rel=1e-15)


def test_split_and_gain_infinite_forward_quality():
    # eta * g_sq / sigma_d_sq overflows to b = inf
    cfg = make_cfg(noise=NoiseProfile(1.0, 3.0, 0.25, 0.25))
    assert split_and_gain(2.0, sys.float_info.max, cfg) == (1.0, 0.5)


@pytest.mark.parametrize("s_ra, s_rb", [(NOISE_1DBM, NOISE_1DBM), (1.0, 3.0), (3.0, 1.0), (1e-6, 1e3)])
def test_split_and_gain_continuous_across_root_forms(s_ra, s_rb):
    """Either side of b = 2**256, where the root switches to the quadratic
    divided by b, rho_I is 1 to within an ulp and never above it."""
    cfg = make_cfg(noise=NoiseProfile(s_ra, s_rb, 0.5, 0.5))  # sigma_d_sq = 1: b = g_sq
    for b in (2.0**256 / (1.0 + 2.0**-52), 2.0**256, 2.0**256 * (1.0 + 2.0**-52), 1e100, 1e300):
        rho = split_and_gain(1.0, b, cfg)[0]
        assert 1.0 - 2.0**-52 <= rho <= 1.0


@pytest.mark.parametrize(
    "noise",
    [(2.0**-511,) * 4, (2.0**-511, 2.0**-511, 0.5, 0.5), (2.0**-511, 1.0, 0.5, 0.5), (1.0, 2.0**-511, 0.5, 0.5)],
)
def test_split_and_gain_at_the_smallest_relay_noise(noise):
    """At the smallest relay noise a config takes, 2**-511 mW, the split is
    the bisection oracle's root to 1e-10 for g_sq from 1e-300 to 1e300, and
    verify passes on seeded channels. Below it, with every noise power at
    1e-160 mW, the split of g_sq = 2 was 0.6180364 against bisection's
    0.6180340 and verify failed equal_rate; at 5e-324 mW it raised
    ZeroDivisionError."""
    cfg = make_cfg(noise=NoiseProfile(*noise))
    for g in np.geomspace(1e-300, 1e300, 121).tolist():
        assert abs(split_and_gain(1.0, g, cfg)[0] - rho_by_bisection(g, cfg)) <= 1e-10
    for seed in range(1, 4):
        assert verify(generate_channel(cfg, seed), cfg).all_pass


def test_split_and_gain_caps_rho_at_one_below_direct_max():
    """Below b = 2**256 the direct root form can round an ulp above 1, from
    b ~ 1e12 on and on either sign of its linear coefficient. rho_I is
    capped at 1 there, so the harvest fraction never goes negative and
    rate_terms accepts every split."""
    # an example on the default noise, where the root rounded to 1 + 2**-52
    assert split_and_gain(1.0, 4770896554256483.0, make_cfg()) == split_and_gain(1.0, 2.0**300, make_cfg())
    rng = np.random.default_rng(20261018)
    g_grid = np.geomspace(1e-3, 2.0**256, 400).tolist()
    capped = {True: 0, False: 0}  # by the sign of the linear coefficient
    for _ in range(150):
        s_ra, s_rb, s_da, s_db = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=4)).tolist()
        cfg = make_cfg(noise=NoiseProfile(s_ra, s_rb, s_da, s_db))
        for g in g_grid + [float(rng.uniform(1e3, 1e20))]:
            rho, _ = split_and_gain(1.0, g, cfg)
            assert 0.0 < rho <= 1.0
            rate_terms(1.0, g, rho, 1.0, cfg)
            b = cfg.eta * g / cfg.noise.sigma_d_sq
            if rho == 1.0 and b <= 2.0**256:
                capped[1.0 - b * s_ra + b * s_rb >= 0.0] += 1
    assert capped[True] > 0 and capped[False] > 0


# ------------------------------------------------------------- split tables

@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 256),
    eta=st.sampled_from([0.0, 5e-324, 1.0]),
)
def test_split_table_matches_per_pair_calls(seed, n, eta):
    """_split_gains equals one split_and_gain call per pair stacked by
    np.array, byte for byte, over sorted and identity pairings, on one
    channel and on a table of three, one per row."""
    h = np.array([mixed_gains(seed + k, n) for k in range(3)])
    g = np.array([mixed_gains(seed + k + 3, n) for k in range(3)])
    cfg = make_cfg(n_subcarriers=n, taps=1, eta=eta)
    for paired in (np.take_along_axis(g, _sorted_perm(h, g), axis=1), g):
        for h_in, g_in in ((h[0], paired[0]), (h, paired)):
            pairs = zip(h_in.ravel().tolist(), g_in.ravel().tolist())
            want = np.array([split_and_gain(hi, gi, cfg) for hi, gi in pairs]).T.reshape(2, *h_in.shape)
            got = _split_gains(h_in, g_in, cfg)
            assert got.dtype == want.dtype and got.shape == want.shape == (2, *h_in.shape)
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- waterfill

def test_waterfill_equal_gains_split_evenly():
    powers = waterfill([0.3, 0.3, 0.3, 0.3], 1000.0)
    np.testing.assert_allclose(powers, 250.0, rtol=1e-12)


def test_waterfill_single_channel_gets_everything():
    np.testing.assert_allclose(waterfill([0.7], 42.0), [42.0])


def test_waterfill_two_gains_vs_grid_oracle():
    """Budget too small to activate the weak channel: the dense grid search
    puts everything on the strong one."""
    from_grid = power_by_grid([1.0, 0.1], 2.0, resolution=10**6)
    powers = waterfill([1.0, 0.1], 2.0)
    np.testing.assert_allclose(powers, from_grid, atol=2.0 / 10**6)
    np.testing.assert_allclose(powers, [2.0, 0.0], atol=1e-12)


def test_waterfill_zero_gain_gets_exactly_zero():
    powers = waterfill([0.5, 0.0, 0.2], 10.0)
    assert powers[1] == 0.0
    assert math.fsum(powers) == pytest.approx(10.0, abs=1e-9)


def test_waterfill_all_dead_raises():
    with pytest.raises(NoUsablePairError):
        waterfill([0.0, 0.0], 10.0)


@pytest.mark.parametrize("gammas", [[], [[1.0, 2.0]], np.ones((2, 2))])
def test_waterfill_rejects_an_input_that_is_not_a_nonempty_vector(gammas):
    with pytest.raises(ValueError, match="gammas must be a nonempty vector"):
        waterfill(gammas, 10.0)


@pytest.mark.parametrize(
    "gammas, p_max, expected",
    [
        ([1e-10], 1e-20, [1e-20]),
        ([2.0, 1e-10], 1e-30, [1e-30, 0.0]),
        ([1e-310], 10.0, [10.0]),  # 1/gamma overflows to inf
        ([1e-310, 2e-310], 1.0, [0.0, 1.0]),  # both overflow; the larger gain wins
    ],
)
def test_waterfill_budget_below_float_spacing_goes_to_strongest(gammas, p_max, expected):
    """No water level rises above the strongest 1/gamma, so the whole budget
    lands on that channel, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = waterfill(gammas, p_max)
    np.testing.assert_array_equal(powers, expected)


@pytest.mark.parametrize(
    "gammas, p_max",
    [
        ([1.0, 6e-309, 6e-309], 10.0),  # 1/gamma finite, their sum overflows
        ([1.0, 1e-308], 1.7e308),  # budget near the float range, both powered
        ([1.0, 1.0, 1.0], 1.5e308),
        # scaled down, the budget is subnormal and loses bits: it is pinned
        # after scaling back, in both bodies
        ([1e300, 2.0**-1024 + 2.0**-1074], 7e-309),
        ([1e300] + [2.0**-1024 + 2.0**-1074] * 7, 7e-309),
        # the largest budget: level - 1/gamma rounds above the scaled budget,
        # and the allocation scaled back must still not overflow
        ([2.0**-1023], sys.float_info.max),
        ([2.0**-1023] + [0.0] * 7, sys.float_info.max),
    ],
)
def test_waterfill_prefix_sums_near_overflow(gammas, p_max):
    """Finite powers on one water level, the budget met exactly, and no
    warning, when p_max + sum(1/gamma) exceeds the float range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = waterfill(gammas, p_max)
    assert np.all(np.isfinite(powers)) and np.all(powers >= 0.0)
    assert math.fsum(powers) == p_max
    gam = np.asarray(gammas)
    active = powers > 0.0
    # halved, a level at the edge of the float range stays finite; a zero
    # gain's 1/gamma is inf, above every level
    with np.errstate(divide="ignore"):
        half_inv = 0.5 / gam
    levels = 0.5 * powers[active] + half_inv[active]
    np.testing.assert_allclose(levels, levels[0], rtol=1e-15, atol=0.0)
    assert np.all(half_inv[~active] >= levels[0])


def test_waterfill_overflowing_prefix_sum_example():
    np.testing.assert_array_equal(waterfill([1.0, 6e-309, 6e-309], 10.0), [10.0, 0.0, 0.0])
    # p_max + sum(1/gamma) is past 2**1023 but the levels stay finite: the
    # scaled solve gives the unscaled answer
    np.testing.assert_array_equal(waterfill([0.3] * 3, 1.5e308), [5e307] * 3)


@pytest.mark.parametrize(
    "gammas, p_max",
    [
        # equal shares of a subnormal budget round up past it, so the pin
        # drove the first one below zero: in the float and the array body,
        # unscaled and scaled down against an overflowing prefix sum
        ([1.7e308] * 6, 2e-323),
        ([1.7e308] * 6 + [0.0] * 3, 2e-323),
        ([1.7e308] * 3 + [1e-308], 24 * 2.0**-1074),
        ([1.7e308] * 6 + [1e-307] * 60, 4.783e-321),
    ],
)
def test_waterfill_gives_a_coarse_subnormal_budget_to_the_strongest(gammas, p_max):
    powers = waterfill(gammas, p_max)
    assert np.all(powers >= 0.0)
    np.testing.assert_array_equal(powers, [p_max] + [0.0] * (len(gammas) - 1))


def test_waterfill_sums_to_the_budget_within_one_ulp():
    """The pin lands on one allocation, so the sum of the powers can miss
    p_max by its last bit, and by no more, in either body."""
    # a miss of exactly one ulp
    p_max = 23750133.58373585
    powers = waterfill([2.3508342762555003e-07, 4.4848511811727376e-07], p_max)
    assert abs(math.fsum(powers) - p_max) == math.ulp(p_max)
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        gammas = 10.0 ** rng.uniform(-12.0, 6.0, size=int(rng.integers(1, 20)))
        p_max = float(10.0 ** rng.uniform(-6.0, 9.0))
        assert abs(math.fsum(waterfill(gammas, p_max)) - p_max) <= math.ulp(p_max)


def waterfill_by_bisection(gammas, p_max):
    """Reference water-filling: bisect the level over
    [min 1/gamma, min 1/gamma + p_max] down to 1e-12 relative width, then
    solve the active set exactly and pin the sum to the budget."""
    gam = np.asarray(gammas, dtype=float)
    usable = gam > 0.0
    inv = 1.0 / gam[usable]
    lo = float(inv.min())
    hi = lo + p_max
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if float(np.maximum(0.0, mid - inv).sum()) >= p_max:
            hi = mid
        else:
            lo = mid
    active = inv < hi
    while True:
        level = (p_max + float(inv[active].sum())) / int(active.sum())
        overshoot = active & (inv >= level)
        if not overshoot.any():
            break
        active &= ~overshoot
    alloc = np.where(active, level - inv, 0.0)
    alloc[int(np.argmax(alloc))] += p_max - math.fsum(alloc)
    powers = np.zeros_like(gam)
    powers[usable] = alloc
    return powers


@pytest.mark.parametrize(
    "gammas, p_max, expected",
    [
        ([0.3] * 7, 10.0, [10.0 / 7] * 7),  # all gains equal
        ([1.0, 0.5], 1.0, [1.0, 0.0]),  # 1/gamma of the weak channel is the level
        ([1.0, 1.0, 1.0 / 3.0], 4.0, [2.0, 2.0, 0.0]),  # same, behind a tie
        ([0.7], 1e-6, [1e-6]),  # N = 1
        ([0.7], 1e9, [1e9]),
    ],
)
def test_waterfill_matches_bisection_on_edge_cases(gammas, p_max, expected):
    powers = waterfill(gammas, p_max)
    np.testing.assert_allclose(powers, waterfill_by_bisection(gammas, p_max), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(powers, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(
    gammas=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=256
    ),
    p_max=st.floats(1e-6, 1e9),
)
def test_waterfill_matches_bisection(gammas, p_max):
    if not any(g > 0.0 for g in gammas):
        return
    np.testing.assert_allclose(
        waterfill(gammas, p_max), waterfill_by_bisection(gammas, p_max), rtol=1e-12, atol=0.0
    )


@settings(max_examples=200, deadline=None)
@given(
    gammas=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-4, 1e3)), min_size=1, max_size=10
    ),
    p_max=st.floats(1e-2, 1e4),
)
def test_waterfill_stationarity(gammas, p_max):
    """Budget met to within one ulp, every powered channel on one water
    level, every idle usable channel above it."""
    gam = np.asarray(gammas)
    if not np.any(gam > 0):
        with pytest.raises(NoUsablePairError):
            waterfill(gam, p_max)
        return
    powers = waterfill(gam, p_max)
    assert np.all(powers >= 0.0)
    assert np.all(powers[gam == 0.0] == 0.0)
    assert abs(math.fsum(powers) - p_max) <= math.ulp(p_max)
    active = powers > 0.0
    levels = powers[active] + 1.0 / gam[active]
    level = float(np.mean(levels))
    assert np.max(np.abs(levels - level)) <= 1e-9 * level
    idle = (~active) & (gam > 0.0)
    if np.any(idle):
        assert np.all(1.0 / gam[idle] >= level - 1e-9)


# ----------------------------------------- waterfill's float and array bodies

@st.composite
def _waterfill_problem(draw):
    """Gains for N = 1..7 with zero, overflowing-inverse, subnormal and
    normal entries, and a budget that is ordinary, below the float spacing of
    the strongest 1/gamma, or within a decade of the float range."""
    gain = st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.0**-1024, exclude_min=True),  # 1/gamma overflows
        st.floats(2.0**-1024, 2.0**-1022),
        st.floats(1e-300, 1e300),
        st.floats(1e-3, 1e3),
    )
    gammas = draw(st.lists(gain, min_size=1, max_size=7))
    kind = draw(st.sampled_from(("ordinary", "below_spacing", "near_overflow")))
    if kind == "ordinary":
        p_max = draw(st.floats(1e-30, 1e9))
    elif kind == "near_overflow":
        p_max = draw(st.floats(1e307, 1.7e308))
    else:
        strongest = max(gammas)
        spacing = math.ulp(1.0 / strongest) if strongest > 2.0**-1024 else 1.0
        p_max = spacing * draw(st.floats(2.0**-20, 1.0, exclude_max=True))
    return np.array(gammas), p_max


def _outcome(body, gammas, p_max):
    """The powers' bytes, or the type and message of what the body raised."""
    try:
        return body(gammas, p_max).tobytes()
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=1000, deadline=None)
@given(problem=_waterfill_problem())
def test_waterfill_bodies_bit_identical(problem):
    gammas, p_max = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_waterfill_floats, gammas, p_max) == _outcome(_waterfill_array, gammas, p_max)


@pytest.mark.parametrize(
    "gammas, p_max, error",
    [
        ([math.nan, 1.0], 10.0, ValueError),
        ([1.0, -1.0], 10.0, ValueError),
        ([math.inf], 10.0, ValueError),
        ([1.0, 2.0], 0.0, ValueError),
        ([1.0], math.nan, ValueError),
        ([1.0, 0.5, 0.25], math.inf, ValueError),
        ([math.nan], math.nan, ValueError),  # the gains are checked first
        ([0.0, 0.0, 0.0], 10.0, NoUsablePairError),
        ([1.0, 2.0], "1.0", ValueError),
        ([1.0, 2.0], None, ValueError),
        ([1.0, -1.0], math.nan, ValueError),  # the gains first, also after one is inverted
        ([0.0, 0.0], -1.0, ValueError),  # the budget before the dead pair
    ],
)
def test_waterfill_bodies_raise_alike(gammas, p_max, error):
    gammas = np.array(gammas)
    outcome = _outcome(_waterfill_floats, gammas, p_max)
    assert outcome[0] is error
    assert outcome == _outcome(_waterfill_array, gammas, p_max)


@pytest.fixture
def handoffs(monkeypatch):
    """The calls that reach ``allocator._waterfill_array``, counted through
    the module attribute the float body looks it up by."""
    calls = []

    def counted(gam, p_max):
        calls.append(gam.size)
        return _waterfill_array(gam, p_max)

    monkeypatch.setattr(allocator, "_waterfill_array", counted)
    return calls


@pytest.mark.parametrize(
    "gammas, p_max",
    [
        ([math.nan, 1.0], 10.0),  # a rejected gain
        ([1.0, 2.0**-1030], 1e308),  # prefix sums near overflow: scaled
        ([3.0, 3.0, 3.0], 5e-324),  # the threshold meets the level
        ([5.0, 5.0, 5.0], 5e-324),  # the pin drives the largest below zero
        ([1e-310, 5e-324], 10.0),  # positive gains, none invertible
        # the prefix count admits a channel that overshoots the level
        ([4.411923543412696] * 3 + [4.411923543412685, 4.411923543412694], 9.23057087659867e-19),
        ([2.0, 1e-310, math.inf], 10.0),  # rejected after an invertible and an uninvertible gain
    ],
)
def test_float_body_hands_each_edge_input_to_the_array_body(handoffs, gammas, p_max):
    gam = np.array(gammas)
    assert _outcome(waterfill, gam, p_max) == _outcome(_waterfill_array, gam, p_max)
    assert handoffs == [gam.size]


def test_benchmark_traffic_stays_on_the_float_body(handoffs):
    """The sweep of the rate-vs-power figure with all five policies, solves
    and exhaustive ``verify`` at N=6 never reach the array body, and
    neither does a dead channel."""
    cfg = make_cfg()
    sweep(cfg, SweepSpec("p_max_dbm", tuple(range(10, 41, 5)), 300, seed=0, policies=tuple(PolicyId)))
    for seed in range(1, 301):
        solve(generate_channel(cfg, seed), cfg)
    cfg6 = make_cfg(n_subcarriers=6)
    for seed in range(1, 6):
        assert verify(generate_channel(cfg6, seed), cfg6).all_pass
    with pytest.raises(NoUsablePairError):
        waterfill([0.0] * 4, 1.0)
    assert handoffs == []


@settings(max_examples=500, deadline=None)
@given(
    values=st.lists(
        st.floats(5e-324, 1e300) | st.floats(1e-3, 1e3), min_size=1, max_size=7
    ),
    mask_seed=st.integers(0, 2**32 - 1),
)
def test_numpy_sum_adds_few_elements_left_to_right(values, mask_seed):
    """The float body reproduces ``inv[active].sum()`` with a ``+=`` loop,
    which holds only while NumPy adds fewer than 8 float64 elements in order.
    A NumPy whose reduction order changes fails here, and the cut at 8
    channels must be revisited."""
    def left_to_right(xs):
        total = 0.0
        for x in xs:
            total += x
        return total

    arr = np.array(values)
    assert _bits(arr.sum()) == _bits(left_to_right(values))
    mask = np.random.default_rng(mask_seed).random(arr.size) < 0.6
    picked = arr[mask]
    assert _bits(picked.sum()) == _bits(left_to_right(picked.tolist()))


@st.composite
def _gains_with_unusable(draw):
    """1 to 300 gains, a drawn share of them zero, subnormal or 2**-1024,
    whose 1/gamma overflows, and at least one above 2**-1024. A tenth lie
    near the float range, where 1/gamma scaled down turns subnormal."""
    n = draw(st.integers(1, 12) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gammas = 10.0 ** np.where(rng.random(n) < 0.1, rng.uniform(290.0, 308.25, n), rng.uniform(-12.0, 6.0, n))
    unusable = rng.random(n) < draw(st.floats(0.0, 1.0))
    gammas[unusable] = rng.choice([0.0, 5e-324, 1e-310, 2.0**-1024], int(unusable.sum()))
    usable_gain = st.floats(2.0**-1024, 2.0**-1022, exclude_min=True) | st.floats(1e-300, 1.7e308)
    gammas[draw(st.integers(0, n - 1))] = draw(usable_gain)
    return gammas


@settings(max_examples=500, deadline=None)
@given(
    gammas=_gains_with_unusable(),
    p_max=st.floats(-30.0, 308.0).map(lambda e: 10.0**e) | st.floats(5e-324, 2.0**-1022),
)
# a subnormal budget loses bits when scaled down, so the scaling must follow
# the usable channels alone: their count, and the largest finite 1/gamma
@example(gammas=np.array([1e300, 0.0]), p_max=7e-309)
@example(gammas=np.array([1e300, 2.0**-1024 + 2.0**-1074] + [0.0] * 7), p_max=7e-309)
def test_waterfill_on_unusable_gains_equals_waterfill_on_the_usable_ones(gammas, p_max):
    """A channel whose 1/gamma overflows keeps its place and gets 0.0; every
    other channel gets the bits of water-filling the usable channels alone,
    also where dropping the unusable ones takes the vector below 8."""
    usable = gammas > 2.0**-1024
    expected = np.zeros(gammas.size)
    expected[usable] = waterfill(gammas[usable], p_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert waterfill(gammas, p_max).tobytes() == expected.tobytes()


# --------------------------------------------------------------------- solve

def test_solve_reference_single_pair(single_pair_cfg):
    result = solve(ChannelRealization([REF_GAIN], [REF_GAIN]), single_pair_cfg)
    assert result.total_rate == pytest.approx(REF_RATE_10MW, rel=1e-9)
    assert result.powers[0] == pytest.approx(10.0, abs=1e-9)
    assert result.rho_i[0] == pytest.approx(REF_RHO, abs=1e-12)


def test_solve_identity_pairing_when_orders_match(default_cfg):
    chan = ChannelRealization([4.0, 3.0, 2.0, 1.0], [0.9, 0.8, 0.2, 0.1])
    result = solve(chan, default_cfg)
    np.testing.assert_array_equal(result.pairing.perm, np.arange(4))


def test_solve_result_invariants(default_cfg):
    for seed in range(1, 30):
        chan = generate_channel(default_cfg, seed)
        result = solve(chan, default_cfg)
        assert np.all((result.rho_i >= 0.0) & (result.rho_i <= 1.0))
        assert np.all(result.powers >= 0.0)
        assert math.fsum(result.powers) == pytest.approx(default_cfg.p_max, abs=1e-9)
        assert result.total_rate == pytest.approx(float(result.pair_rates.sum()), rel=1e-12)


def test_solve_equal_rate_on_powered_pairs(default_cfg):
    for seed in range(1, 30):
        chan = generate_channel(default_cfg, seed)
        result = solve(chan, default_cfg)
        for i in range(4):
            if result.powers[i] > 0.0:
                t1, t2 = rate_terms(
                    chan.h_sq[i],
                    chan.g_sq[result.pairing.perm[i]],
                    result.rho_i[i],
                    result.powers[i],
                    default_cfg,
                )
                assert abs(t1 - t2) <= 1e-9 * max(t1, 1e-12)


def test_solve_beats_every_other_pairing(default_cfg):
    for seed in range(1, 101):
        chan = generate_channel(default_cfg, seed)
        _, best_rate = best_pairing_exhaustive(chan, default_cfg)
        assert solve(chan, default_cfg).total_rate >= best_rate - 1e-9


def test_solve_rate_monotone_in_budget(default_cfg):
    budgets = np.geomspace(1.0, 1e4, 10)
    for seed in range(1, 101):
        chan = generate_channel(default_cfg, seed)
        rates = [solve(chan, make_cfg(p_max=float(p))).total_rate for p in budgets]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_solve_pairing_invariant_under_common_scaling(default_cfg):
    for seed in range(1, 20):
        chan = generate_channel(default_cfg, seed)
        scaled = ChannelRealization(chan.h_sq * 13.7, chan.g_sq * 13.7)
        np.testing.assert_array_equal(
            solve(chan, default_cfg).pairing.perm,
            solve(scaled, default_cfg).pairing.perm,
        )


def test_water_filled_rule_flags_a_dead_row(default_cfg):
    """The table path fills a dead row with zero powers, and the scorer
    flags the row it powers nowhere."""
    gam = np.array([[0.5, 0.2, 0.1, 0.3], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.5]])
    with pytest.raises(NoUsablePairError, match="^no usable pair: every effective gain is zero$"):
        _water_filled(gam[1], default_cfg)
    powers = _water_filled(gam, default_cfg)
    assert powers[1].tolist() == [0.0] * 4
    for row in (0, 2):
        assert powers[row].tobytes() == waterfill(gam[row], default_cfg.p_max).tobytes()
    rates, dead = _table_rates(gam, _water_filled, default_cfg)
    assert dead.tolist() == [False, True, False]
    assert rates[1] == 0.0 and (rates[[0, 2]] > 0.0).all()


@pytest.mark.parametrize("n", [1, 4, 7, 8, 9])
def test_water_filled_rule_on_a_vector_is_its_row_of_a_table(n, default_cfg):
    """One channel's vector gets the powers of its row in a table, which
    holds it among others or alone; a dead vector raises. The widths fall
    on both sides of the float body's limit, and a table of dead rows alone
    is a float table of zeros."""
    gam = np.array([mixed_gains(seed, n) for seed in range(40)])
    gam[3] = 0.0
    table = _water_filled(gam, default_cfg)
    _, dead = _table_rates(gam, _water_filled, default_cfg)
    for row, vec in enumerate(gam):
        if dead[row]:
            with pytest.raises(NoUsablePairError):
                _water_filled(vec, default_cfg)
            assert not table[row].any()
            continue
        powers = _water_filled(vec, default_cfg)
        assert powers.shape == (n,)
        assert powers.tobytes() == table[row].tobytes() == _water_filled(vec[None], default_cfg)[0].tobytes()
    assert dead[3]
    table = _water_filled(np.zeros((3, n)), default_cfg)
    _, dead = _table_rates(np.zeros((3, n)), _water_filled, default_cfg)
    assert (table.shape, table.dtype, dead.tolist()) == ((3, n), np.float64, [True] * 3)
    assert not table.any()


def test_solve_dead_channel_raises(default_cfg):
    with pytest.raises(NoUsablePairError):
        solve(ChannelRealization([0.0] * 4, [0.0] * 4), default_cfg)
    # harvesting disabled kills every pair as well
    chan = generate_channel(default_cfg, 1)
    with pytest.raises(NoUsablePairError):
        solve(chan, make_cfg(eta=0.0))


def test_solve_partially_dead_channel(default_cfg):
    chan = ChannelRealization([0.9, 0.0, 0.8, 0.7], [0.5, 0.6, 0.0, 0.4])
    result = solve(chan, default_cfg)
    dead = [i for i in range(4) if chan.g_sq[result.pairing.perm[i]] == 0.0]
    for i in dead:
        assert result.rho_i[i] == 1.0
        assert result.powers[i] == 0.0
        assert result.pair_rates[i] == 0.0
    assert math.fsum(result.powers) == pytest.approx(default_cfg.p_max, abs=1e-9)


def test_solve_underflowing_outgoing_gain_is_a_dead_pair():
    cfg = make_cfg(eta=0.1)
    chan = ChannelRealization([1.0, 1.0, 1.0, 1.0], [5e-324, 1.0, 1.0, 1.0])
    result = solve(chan, cfg)
    dead = int(np.flatnonzero(result.pairing.perm == 0)[0])
    assert result.rho_i[dead] == 1.0
    assert result.powers[dead] == 0.0
    assert result.pair_rates[dead] == 0.0
    live = np.arange(4) != dead
    np.testing.assert_allclose(result.powers[live], cfg.p_max / 3, rtol=1e-12)


def test_solve_rejects_size_mismatch(default_cfg):
    with pytest.raises(ValueError):
        solve(ChannelRealization([1.0], [1.0]), default_cfg)


def test_pair_rates_take_the_log_form_where_the_powers_scored_overflow():
    """The rate form is chosen from the gains and powers scored, not from a
    budget: a power of 1e308 on a gain of 100 overflows their product, so
    the rate is 0.5*log2(gamma) + 0.5*log2(P), with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = allocator._pair_rates(np.array([100.0]), np.array([1e308]))
    assert rates.tolist() == pytest.approx([0.5 * math.log2(100.0) + 0.5 * math.log2(1e308)], rel=1e-15)


def test_solve_huge_outgoing_gain_is_a_live_pair(single_pair_cfg):
    # b = eta * g_sq / sigma_d_sq is past the point where b*b overflows
    result = solve(ChannelRealization([1.0], [1e160]), single_pair_cfg)
    assert result.rho_i[0] == 1.0
    assert result.powers[0] == single_pair_cfg.p_max
    assert result.total_rate > 0.0
