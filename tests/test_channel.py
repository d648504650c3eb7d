import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt_relay.baselines import PolicyId, solve_policy
from swipt_relay.channel import (
    TapSet,
    draw_taps,
    generate_channel,
    read_channel_csv,
    taps_to_subcarrier_gains,
    write_channel_csv,
)
from swipt_relay.model import ChannelRealization

from conftest import make_cfg


def test_draw_taps_deterministic_given_stream():
    one = draw_taps(np.random.default_rng(7), 4, 0.5, 3.0)
    two = draw_taps(np.random.default_rng(7), 4, 0.5, 3.0)
    np.testing.assert_array_equal(one.taps, two.taps)
    assert one.taps.size == 4
    assert np.all(np.isfinite(one.taps))


def test_draw_taps_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_taps(rng, 0, 0.5, 3.0)
    with pytest.raises(ValueError):
        draw_taps(rng, 4, -1.0, 3.0)


def test_tap_set_total_power_matches_path_loss():
    # E[sum |t_l|^2] = (1+d)^(-alpha); relative std of one draw is 1/sqrt(L),
    # so 1e5 draws pin the mean to ~0.16%
    rng = np.random.default_rng(123)
    total = 0.0
    draws = 100_000
    for _ in range(draws):
        taps = draw_taps(rng, 4, 0.5, 3.0).taps
        total += float(np.sum(np.abs(taps) ** 2))
    assert total / draws == pytest.approx(1.5**-3, rel=0.02)


def test_single_tap_at_zero_distance_has_unit_power():
    rng = np.random.default_rng(99)
    total = sum(
        float(np.abs(draw_taps(rng, 1, 0.0, 3.0).taps[0]) ** 2) for _ in range(100_000)
    )
    assert total / 100_000 == pytest.approx(1.0, rel=0.02)


def test_single_tap_gives_flat_gains():
    taps = TapSet([0.3 - 0.4j])
    gains = taps_to_subcarrier_gains(taps, 4)
    np.testing.assert_allclose(gains, 0.25, rtol=1e-12)


def test_two_unit_taps_dft_gains():
    gains = taps_to_subcarrier_gains(TapSet([1.0, 1.0]), 4)
    np.testing.assert_allclose(gains, [4.0, 2.0, 0.0, 2.0], atol=1e-12)


def test_gains_require_enough_subcarriers():
    with pytest.raises(ValueError):
        taps_to_subcarrier_gains(TapSet([1.0, 1.0, 1.0, 1.0]), 3)


@pytest.mark.parametrize("distance", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_mean_subcarrier_gain_follows_path_loss(distance):
    rng = np.random.default_rng(int(distance * 1000))
    acc = 0.0
    draws = 10_000
    for _ in range(draws):
        taps = draw_taps(rng, 4, distance, 3.0)
        acc += float(np.mean(taps_to_subcarrier_gains(taps, 4)))
    assert acc / draws == pytest.approx((1.0 + distance) ** -3, rel=0.03)


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


def test_generate_channel_rejects_negative_seed(default_cfg):
    with pytest.raises(ValueError):
        generate_channel(default_cfg, -1)


def test_generate_channel_rejects_fewer_subcarriers_than_taps():
    # np.fft.fft would otherwise truncate the 4-tap response to 3 taps
    with pytest.raises(ValueError, match="must be >= number of taps"):
        generate_channel(make_cfg(n_subcarriers=3, taps=4), 1)


@st.composite
def channel_cases(draw):
    n_sub = draw(st.integers(1, 256))
    cfg = make_cfg(
        n_subcarriers=n_sub,
        taps=draw(st.integers(1, n_sub)),
        dr=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        alpha=draw(st.floats(0.5, 6.0)),
    )
    return cfg, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(channel_cases())
def test_generate_channel_matches_reference_composition(case):
    """Bit for bit the spawned children drawn with ``draw_taps`` and
    transformed with ``taps_to_subcarrier_gains``, one hop at a time."""
    cfg, seed = case
    child_h, child_g = np.random.SeedSequence(seed).spawn(2)
    taps_h = draw_taps(np.random.default_rng(child_h), cfg.taps, cfg.dr, cfg.alpha)
    taps_g = draw_taps(np.random.default_rng(child_g), cfg.taps, cfg.d0 - cfg.dr, cfg.alpha)
    chan = generate_channel(cfg, seed)
    assert chan.h_sq.tobytes() == taps_to_subcarrier_gains(taps_h, cfg.n_subcarriers).tobytes()
    assert chan.g_sq.tobytes() == taps_to_subcarrier_gains(taps_g, cfg.n_subcarriers).tobytes()


def _assert_read_only(arr):
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = arr[0]
    # a view of a writable array would leave a back door through .base
    if arr.base is not None:
        assert not arr.base.flags.writeable


def test_generated_channel_and_results_are_read_only(default_cfg):
    chan = generate_channel(default_cfg, 3)
    _assert_read_only(chan.h_sq)
    _assert_read_only(chan.g_sq)
    for policy in PolicyId:
        result = solve_policy(policy, chan, default_cfg)
        for arr in (result.pairing.perm, result.rho_i, result.powers, result.pair_rates):
            _assert_read_only(arr)


def test_relay_near_destination_second_hop_mean_gain_is_one():
    cfg = make_cfg(dr=1.0 - 1e-9)
    acc = 0.0
    draws = 10_000
    for seed in range(draws):
        acc += float(np.mean(generate_channel(cfg, seed).g_sq))
    assert acc / draws == pytest.approx(1.0, rel=0.03)


def test_fuzzed_gains_stay_finite_and_nonnegative():
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 1_000_000:
        n_taps = int(rng.integers(1, 9))
        n_sub = int(rng.integers(n_taps, 257))
        taps = draw_taps(rng, n_taps, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.3, 6.0)))
        gains = taps_to_subcarrier_gains(taps, n_sub)
        assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)
        checked += n_sub


def test_channel_csv_round_trip(tmp_path, default_cfg):
    channels = [generate_channel(default_cfg, seed) for seed in range(1, 4)]
    path = tmp_path / "channels.csv"
    write_channel_csv(path, channels)
    header = path.read_text().splitlines()[0]
    assert header == "trial,subcarrier,h_sq,g_sq"
    again = read_channel_csv(path)
    assert len(again) == 3
    for orig, back in zip(channels, again):
        np.testing.assert_array_equal(orig.h_sq, back.h_sq)
        np.testing.assert_array_equal(orig.g_sq, back.g_sq)
