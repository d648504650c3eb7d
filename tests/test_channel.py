import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt_relay.baselines import PolicyId, solve_policy
import swipt_relay
from swipt_relay.channel import _fixed_state, _hop_states, generate_channel

from conftest import assert_read_only, make_cfg


def reference_taps(cfg, seed):
    """Both hops' taps, one spawned child and one scaled normal draw per hop."""
    hops = []
    for child, distance in zip(np.random.SeedSequence(seed).spawn(2), (cfg.dr, cfg.d0 - cfg.dr)):
        std = math.sqrt(0.5 / (cfg.taps * (1.0 + distance) ** cfg.alpha))
        hops.append((np.random.default_rng(child).standard_normal(2 * cfg.taps) * std).view(complex))
    return hops


def reference_gains(cfg, seed):
    return [np.abs(np.fft.fft(taps, n=cfg.n_subcarriers)) ** 2 for taps in reference_taps(cfg, seed)]


def _mean_tap_power(cfg, draws):
    """Mean of sum_l |t_l|^2 over ``draws`` hops of ``draws // 2`` channels;
    with N >= L, Parseval gives it as the mean subcarrier gain."""
    total = 0.0
    for seed in range(draws // 2):
        chan = generate_channel(cfg, seed)
        total += float(np.mean(chan.h_sq)) + float(np.mean(chan.g_sq))
    return total / draws


def test_tap_set_total_power_matches_path_loss():
    # E[sum |t_l|^2] = (1+d)^(-alpha); relative std of one draw is 1/sqrt(L),
    # so 1e5 hops (both hops at d = 0.5) pin the mean to ~0.16%
    assert _mean_tap_power(make_cfg(), 100_000) == pytest.approx(1.5**-3, rel=0.02)


def test_single_tap_at_vanishing_distance_has_unit_power():
    # 1 + d rounds to 1, so both hops draw at the path loss of zero distance
    cfg = make_cfg(n_subcarriers=1, taps=1, d0=2e-300, dr=1e-300)
    assert _mean_tap_power(cfg, 100_000) == pytest.approx(1.0, rel=0.02)


def test_single_tap_gives_flat_gains():
    chan = generate_channel(make_cfg(taps=1), 11)
    for gains in (chan.h_sq, chan.g_sq):
        np.testing.assert_allclose(gains, gains[0], rtol=1e-12)


@pytest.mark.parametrize("n_sub, n_taps", [(1, 1), (4, 2), (5, 5), (16, 3)])
def test_gains_are_squared_dft_of_the_taps(n_sub, n_taps):
    cfg = make_cfg(n_subcarriers=n_sub, taps=n_taps)
    chan = generate_channel(cfg, 7)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n_sub), np.arange(n_taps)) / n_sub)
    for gains, taps in zip((chan.h_sq, chan.g_sq), reference_taps(cfg, 7)):
        np.testing.assert_allclose(gains, np.abs(phase @ taps) ** 2, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("distance", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_mean_subcarrier_gain_follows_path_loss(distance):
    cfg = make_cfg(dr=distance)
    acc_h = acc_g = 0.0
    draws = 10_000
    for seed in range(draws):
        chan = generate_channel(cfg, seed)
        acc_h += float(np.mean(chan.h_sq))
        acc_g += float(np.mean(chan.g_sq))
    assert acc_h / draws == pytest.approx((1.0 + distance) ** -3, rel=0.03)
    assert acc_g / draws == pytest.approx((2.0 - distance) ** -3, rel=0.03)


def test_generate_channel_deterministic(default_cfg):
    one = generate_channel(default_cfg, 42)
    two = generate_channel(default_cfg, 42)
    np.testing.assert_array_equal(one.h_sq, two.h_sq)
    np.testing.assert_array_equal(one.g_sq, two.g_sq)


def test_generate_channel_varies_with_seed(default_cfg):
    one = generate_channel(default_cfg, 42)
    two = generate_channel(default_cfg, 43)
    assert not np.array_equal(one.h_sq, two.h_sq)
    assert not np.array_equal(one.g_sq, two.g_sq)


def test_generate_channel_hops_are_distinct(default_cfg):
    # symmetric geometry, but the two hops draw from disjoint substreams
    chan = generate_channel(default_cfg, 5)
    assert not np.array_equal(chan.h_sq, chan.g_sq)


@st.composite
def channel_cases(draw):
    n_sub = draw(st.integers(1, 256))
    cfg = make_cfg(
        n_subcarriers=n_sub,
        taps=draw(st.integers(1, n_sub)),
        dr=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        alpha=draw(st.floats(0.5, 6.0)),
    )
    # past 2**32 and 2**64 the seed takes more than one entropy word
    return cfg, draw(st.integers(0, 2**70))


@settings(max_examples=300, deadline=None)
@given(channel_cases())
def test_generate_channel_matches_reference_composition(case):
    """Bit for bit the in-test reference: spawned children, scaled normals,
    one FFT per hop."""
    cfg, seed = case
    chan = generate_channel(cfg, seed)
    ref_h, ref_g = reference_gains(cfg, seed)
    assert chan.h_sq.tobytes() == ref_h.tobytes()
    assert chan.g_sq.tobytes() == ref_g.tobytes()


# one seed on each side of every 32-bit word-count boundary: up to 4 words
# the entropy is zero-padded to the pool size, from 5 words up it is not
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 1, 2**96 - 1, 2**96 + 1,
                  2**128 - 1, 2**128, 2**128 + 1, 2**160, 2**200 + 3]


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_hop_streams_match_the_spawned_children_at_every_word_count(seed):
    states = _hop_states(seed)
    for k, state in enumerate(states):
        child = np.random.SeedSequence(seed, spawn_key=(k,))
        assert state.tobytes() == child.generate_state(4, np.uint64).tobytes()
        ours = np.random.Generator(np.random.PCG64(_fixed_state()(state))).standard_normal(64)
        assert ours.tobytes() == np.random.default_rng(child).standard_normal(64).tobytes()
    cfg = make_cfg(n_subcarriers=16, taps=8)
    chan = generate_channel(cfg, seed)
    ref_h, ref_g = reference_gains(cfg, seed)
    assert chan.h_sq.tobytes() == ref_h.tobytes()
    assert chan.g_sq.tobytes() == ref_g.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**200))
def test_hop_states_match_the_spawned_children(seed):
    """One pool mixed from the seed's words, then the spawn word mixed in,
    gives each child's PCG64 seed at any word count."""
    states = _hop_states(seed)
    for k, state in enumerate(states):
        child = np.random.SeedSequence(seed, spawn_key=(k,))
        assert state.tobytes() == child.generate_state(4, np.uint64).tobytes()


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(2**63 - 1), np.uint32(2**32 - 1), np.uint8(0)])
def test_numpy_integer_seeds_name_the_same_channel_as_python_ints(seed):
    cfg = make_cfg(n_subcarriers=16, taps=8)
    chan = generate_channel(cfg, seed)
    ref_h, ref_g = reference_gains(cfg, int(seed))
    assert chan.h_sq.tobytes() == ref_h.tobytes()
    assert chan.g_sq.tobytes() == ref_g.tobytes()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_fixed_state_hands_out_only_a_pcg64_seed(n_words, dtype):
    fixed = _fixed_state()(_hop_states(5)[0])
    with pytest.raises(ValueError, match="exactly 4 uint64 words"):
        fixed.generate_state(n_words, dtype)


def test_importing_the_package_leaves_numpy_random_unimported():
    # numpy.random costs several MB and milliseconds at import; a
    # generate_channel call loads it when it first needs it
    src = str(Path(swipt_relay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, swipt_relay; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_generated_channel_and_results_are_read_only(default_cfg):
    chan = generate_channel(default_cfg, 3)
    assert_read_only(chan.h_sq)
    assert_read_only(chan.g_sq)
    for policy in PolicyId:
        result = solve_policy(policy, chan, default_cfg)
        for arr in (result.pairing.perm, result.rho_i, result.powers, result.pair_rates):
            assert_read_only(arr)


def test_relay_near_destination_second_hop_mean_gain_is_one():
    cfg = make_cfg(dr=1.0 - 1e-9)
    acc = 0.0
    draws = 10_000
    for seed in range(draws):
        acc += float(np.mean(generate_channel(cfg, seed).g_sq))
    assert acc / draws == pytest.approx(1.0, rel=0.03)


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": 5e-324, "d0": 1.7e308, "dr": 1e-300},  # the weakest path loss
        {"alpha": 1e300, "d0": 2e-300, "dr": 1e-300},  # 1 + d rounds to 1
        {"alpha": 1750.09, "taps": 1},  # the path loss at the float range's edge
        {"alpha": 1.0, "d0": 1.7e308, "dr": 8.5e307, "taps": 1},  # the farthest hops
        {"n_subcarriers": 512, "taps": 512, "d0": 2e-300, "dr": 1e-300},  # the most taps at unit loss
        {"n_subcarriers": 1, "taps": 1, "d0": 2e-300, "dr": 1e-300},
    ],
)
def test_gains_are_finite_at_the_extreme_valid_configs(overrides):
    """A built config bounds each hop's tap-variance divisor below by 1, so
    every tap's std is at most sqrt(0.5) and the draw has no gain to check."""
    cfg = make_cfg(**overrides)
    for seed in range(50):
        chan = generate_channel(cfg, seed)
        for gains in (chan.h_sq, chan.g_sq):
            assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)


def test_fuzzed_gains_stay_finite_and_nonnegative():
    rng = np.random.default_rng(2026)
    checked = 0
    seed = 0
    while checked < 1_000_000:
        n_taps = int(rng.integers(1, 9))
        dr = float(rng.uniform(0.0, 5.0))
        cfg = make_cfg(
            n_subcarriers=int(rng.integers(n_taps, 257)),
            taps=n_taps,
            dr=dr,
            d0=dr + float(rng.uniform(0.0, 5.0)),
            alpha=float(rng.uniform(0.3, 6.0)),
        )
        chan = generate_channel(cfg, seed)
        for gains in (chan.h_sq, chan.g_sq):
            assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)
        checked += 2 * cfg.n_subcarriers
        seed += 1
