import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swipt_relay.allocator import NoUsablePairError, _split_gains, solve
from swipt_relay.baselines import (
    PolicyId,
    _conventional_gains,
    _trial_rates,
    conventional_hop_powers,
    solve_conventional,
    solve_opa_no_pairing,
    solve_policy,
    solve_uniform,
)
from swipt_relay.channel import ChannelRealization, generate_channel
from swipt_relay.model import NoiseProfile, default_config
from swipt_relay.montecarlo import _block_trials, run_trials
from swipt_relay.oracle import best_pairing_exhaustive, verify

from conftest import EDGE_GAINS, NOISE_1DBM, assert_read_only, make_cfg, mixed_gains


# every noise power 1e-3 mW: a valid config where a strong channel's
# effective gain can pass the float range
LOW_NOISE = NoiseProfile(1e-3, 1e-3, 1e-3, 1e-3)
GAIN_OVERFLOW = "an effective gain passes the float range: the channel is too strong for the noise"


def test_policy_names_are_exact():
    assert [p.value for p in PolicyId] == [
        "proposed",
        "opa-nopair",
        "uniform-pair",
        "uniform-nopair",
        "conventional",
    ]
    assert PolicyId.from_name("uniform-pair") is PolicyId.UNIFORM_WITH_PAIRING
    with pytest.raises(ValueError, match="valid policies"):
        PolicyId.from_name("bogus")


def test_dispatch_covers_every_policy(default_cfg):
    chan = generate_channel(default_cfg, 3)
    for policy in PolicyId:
        result = solve_policy(policy, chan, default_cfg)
        assert result.total_rate >= 0.0
        assert math.fsum(result.powers) == pytest.approx(default_cfg.p_max, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_solve_is_the_proposed_row(seed):
    cfg = make_cfg(n_subcarriers=6, taps=1, p_max=1000.0)
    chan = ChannelRealization(mixed_gains(seed, 6), mixed_gains(seed + 100, 6))
    try:
        direct = solve(chan, cfg)
    except NoUsablePairError:
        with pytest.raises(NoUsablePairError):
            solve_policy(PolicyId.PROPOSED, chan, cfg)
        return
    row = solve_policy(PolicyId.PROPOSED, chan, cfg)
    for field in ("rho_i", "powers", "pair_rates"):
        assert getattr(row, field).tobytes() == getattr(direct, field).tobytes(), field
    assert row.pairing.perm.tobytes() == direct.pairing.perm.tobytes()
    assert repr(row.total_rate) == repr(direct.total_rate)


WIDTH_CHECKED = {
    **{policy.value: (lambda chan, cfg, policy=policy: solve_policy(policy, chan, cfg)) for policy in PolicyId},
    "verify": verify,
    "best_pairing_exhaustive": best_pairing_exhaustive,
}


@pytest.mark.parametrize("name", list(WIDTH_CHECKED))
def test_every_policy_and_oracle_rejects_a_channel_of_another_width(name, default_cfg):
    chan = ChannelRealization([1.0, 0.5, 0.25], [0.8, 0.4, 0.2])
    with pytest.raises(ValueError, match="channel has 3 subcarriers, config expects 4"):
        WIDTH_CHECKED[name](chan, default_cfg)


def test_dispatch_rejects_a_policy_name(default_cfg):
    # the CLI converts names with PolicyId.from_name; the table takes only members
    chan = generate_channel(default_cfg, 3)
    with pytest.raises(ValueError, match="unhandled policy"):
        solve_policy("proposed", chan, default_cfg)


@pytest.mark.parametrize("policy", ["proposed", None, 0])
def test_dispatch_and_trials_refuse_a_non_member_alike(policy, default_cfg):
    chan = generate_channel(default_cfg, 3)
    with pytest.raises(ValueError) as from_dispatch:
        solve_policy(policy, chan, default_cfg)
    with pytest.raises(ValueError) as from_trials:
        run_trials(default_cfg, (policy,), trials=1, seed=1)
    assert str(from_dispatch.value) == str(from_trials.value) == f"unhandled policy: {policy!r}"


# --------------------------------------------------------- opa, no pairing

def test_opa_uses_identity_pairing(default_cfg):
    chan = generate_channel(default_cfg, 11)
    np.testing.assert_array_equal(
        solve_opa_no_pairing(chan, default_cfg).pairing.perm, np.arange(4)
    )


def test_opa_equals_solve_when_hops_share_order(default_cfg):
    chan = ChannelRealization([4.0, 3.0, 2.0, 1.0], [0.9, 0.6, 0.5, 0.2])
    full = solve(chan, default_cfg)
    reduced = solve_opa_no_pairing(chan, default_cfg)
    assert reduced.total_rate == pytest.approx(full.total_rate, rel=1e-12)
    np.testing.assert_allclose(reduced.powers, full.powers, rtol=1e-9)


def test_opa_single_subcarrier_equals_solve(single_pair_cfg):
    chan = ChannelRealization([0.9], [0.9])
    assert solve_opa_no_pairing(chan, single_pair_cfg).total_rate == pytest.approx(
        solve(chan, single_pair_cfg).total_rate, rel=1e-12
    )


# ------------------------------------------------------------------ uniform

def test_uniform_budget_and_rates(default_cfg):
    chan = generate_channel(default_cfg, 17)
    result = solve_uniform(chan, default_cfg, use_pairing=True)
    np.testing.assert_allclose(result.powers, default_cfg.p_max / 4, rtol=1e-12)
    assert result.total_rate == pytest.approx(float(result.pair_rates.sum()), rel=1e-12)


def test_uniform_with_pairing_matches_solve_on_symmetric_gains(default_cfg):
    # all effective gains equal: water-filling degenerates to uniform power
    chan = ChannelRealization([0.8] * 4, [0.6] * 4)
    assert solve_uniform(chan, default_cfg, use_pairing=True).total_rate == pytest.approx(
        solve(chan, default_cfg).total_rate, rel=1e-12
    )


def test_uniform_pairing_flag(default_cfg):
    chan = ChannelRealization([1.0, 4.0, 2.0, 3.0], [0.1, 0.9, 0.4, 0.2])
    with_pairing = solve_uniform(chan, default_cfg, use_pairing=True)
    without = solve_uniform(chan, default_cfg, use_pairing=False)
    np.testing.assert_array_equal(without.pairing.perm, np.arange(4))
    assert not np.array_equal(with_pairing.pairing.perm, np.arange(4))


def test_uniform_flag_immaterial_single_subcarrier(single_pair_cfg):
    chan = ChannelRealization([0.9], [0.9])
    on = solve_uniform(chan, single_pair_cfg, use_pairing=True)
    off = solve_uniform(chan, single_pair_cfg, use_pairing=False)
    assert on.total_rate == off.total_rate


def test_uniform_never_raises_on_dead_channel(default_cfg):
    result = solve_uniform(
        ChannelRealization([0.0] * 4, [0.0] * 4), default_cfg, use_pairing=False
    )
    assert result.total_rate == 0.0


# ------------------------------------------------------------- per-trial laws

def test_proposed_dominates_every_eh_baseline(default_cfg):
    for seed in range(1, 201):
        chan = generate_channel(default_cfg, seed)
        top = solve(chan, default_cfg).total_rate
        assert solve_opa_no_pairing(chan, default_cfg).total_rate <= top + 1e-9
        assert solve_uniform(chan, default_cfg, True).total_rate <= top + 1e-9
        assert solve_uniform(chan, default_cfg, False).total_rate <= top + 1e-9


def test_uniform_pairing_never_hurts_per_trial(default_cfg):
    for seed in range(1, 201):
        chan = generate_channel(default_cfg, seed)
        assert (
            solve_uniform(chan, default_cfg, False).total_rate
            <= solve_uniform(chan, default_cfg, True).total_rate + 1e-9
        )


# ------------------------------------------------------------- conventional

def test_conventional_symmetric_pair():
    """Matched per-hop slopes c collapse to an effective gain of c/2 and an
    even source/relay split."""
    cfg = make_cfg(n_subcarriers=1, taps=1, p_max=100.0)
    c = 0.5
    chan = ChannelRealization([c * NOISE_1DBM], [c * NOISE_1DBM])
    result = solve_conventional(chan, cfg)
    assert result.total_rate == pytest.approx(0.5 * math.log2(1 + 0.5 * c * 100.0), rel=1e-12)
    p_source, p_relay = conventional_hop_powers(chan, cfg, result)
    assert p_source[0] == pytest.approx(p_relay[0], rel=1e-12)
    assert p_source[0] + p_relay[0] == pytest.approx(100.0, rel=1e-12)


def test_conventional_first_hop_limited():
    cfg = make_cfg(n_subcarriers=1, taps=1, p_max=10.0)
    chan = ChannelRealization([1.0], [1e12])
    result = solve_conventional(chan, cfg)
    slope = 1.0 / cfg.noise.sigma_ra_sq
    assert result.total_rate == pytest.approx(0.5 * math.log2(1 + slope * 10.0), rel=1e-9)


def test_conventional_hop_powers_rejects_a_channel_of_another_width(default_cfg):
    narrow = ChannelRealization([1.0, 0.5, 0.25], [0.8, 0.4, 0.2])
    result = solve_conventional(generate_channel(default_cfg, 3), default_cfg)
    with pytest.raises(ValueError, match="channel has 3 subcarriers, config expects 4"):
        conventional_hop_powers(narrow, default_cfg, result)


def test_conventional_hop_powers_rejects_a_result_of_another_width(default_cfg):
    narrow_cfg = make_cfg(n_subcarriers=3, taps=1)
    result = solve_conventional(ChannelRealization([1.0, 0.5, 0.25], [0.8, 0.4, 0.2]), narrow_cfg)
    with pytest.raises(ValueError, match="result has 3 subcarriers, config expects 4"):
        conventional_hop_powers(generate_channel(default_cfg, 3), default_cfg, result)


def test_conventional_budget_and_hop_balance(default_cfg):
    for seed in range(1, 31):
        chan = generate_channel(default_cfg, seed)
        result = solve_conventional(chan, default_cfg)
        p_source, p_relay = conventional_hop_powers(chan, default_cfg, result)
        assert math.fsum(p_source) + math.fsum(p_relay) == pytest.approx(
            default_cfg.p_max, abs=1e-9
        )
        for i in range(4):
            if result.powers[i] > 0.0:
                snr_relay = chan.h_sq[i] * p_source[i] / default_cfg.noise.sigma_ra_sq
                snr_dest = (
                    chan.g_sq[result.pairing.perm[i]]
                    * p_relay[i]
                    / default_cfg.noise.sigma_d_sq
                )
                assert abs(snr_relay - snr_dest) <= 1e-9 * max(snr_relay, 1e-12)


def test_conventional_has_no_splitter(default_cfg):
    chan = generate_channel(default_cfg, 23)
    result = solve_conventional(chan, default_cfg)
    np.testing.assert_array_equal(result.rho_i, np.ones(4))


def test_conventional_ignores_harvesting_efficiency(default_cfg):
    chan = generate_channel(default_cfg, 29)
    with_eta = solve_conventional(chan, default_cfg).total_rate
    without_eta = solve_conventional(chan, make_cfg(eta=0.0)).total_rate
    assert with_eta == without_eta


def _conventional_grid_best(chan, cfg, steps=200):
    """Dense search over (source power 1, relay power 1, source power 2) with
    relay power 2 taking the remainder, for both pairings of a two-subcarrier
    channel."""
    s_r = cfg.noise.sigma_ra_sq
    s_d = cfg.noise.sigma_d_sq
    p_max = cfg.p_max
    axis = np.linspace(0.0, p_max, steps + 1)
    best = 0.0
    for perm in ((0, 1), (1, 0)):
        g = chan.g_sq[list(perm)]
        for ps1 in axis:
            pr1 = axis[axis <= p_max - ps1][:, None]
            ps2 = axis[None, :]
            pr2 = p_max - ps1 - pr1 - ps2
            ok = pr2 >= 0.0
            r1 = 0.5 * np.minimum(
                np.log2(1.0 + chan.h_sq[0] * ps1 / s_r),
                np.log2(1.0 + g[0] * pr1 / s_d),
            )
            r2 = 0.5 * np.minimum(
                np.log2(1.0 + chan.h_sq[1] * ps2 / s_r),
                np.log2(1.0 + g[1] * np.where(ok, pr2, 0.0) / s_d),
            )
            total = np.where(ok, r1 + r2, -1.0)
            best = max(best, float(total.max()))
    return best


@pytest.mark.parametrize("seed", [2, 5])
def test_conventional_matches_grid_oracle_two_subcarriers(seed):
    cfg = make_cfg(n_subcarriers=2, taps=2, p_max=100.0)
    chan = generate_channel(cfg, seed)
    got = solve_conventional(chan, cfg).total_rate
    best = _conventional_grid_best(chan, cfg)
    assert got >= best - 1e-3
    assert got <= best + 1e-3 + 2e-2  # grid is coarse; closed form may exceed it slightly


def test_conventional_dead_channel_raises(default_cfg):
    with pytest.raises(NoUsablePairError):
        solve_conventional(ChannelRealization([0.0] * 4, [1.0] * 4), default_cfg)


@pytest.mark.parametrize("policy", list(PolicyId), ids=lambda policy: policy.value)
def test_overflowing_pair_rate_is_finite(policy):
    """gamma*P overflows on a 1e301 incoming gain at 1e9 mW, where the pair
    rate is 0.5*log2(gamma*P), about 512 bits/s/Hz: every harvesting policy
    reports that rate, not inf, and warns of no overflow. A pair that does
    not overflow keeps its bits. The supplied relay's gamma a*b/(a+b) stays
    below its outgoing slope b, so on the same channel none of its products
    overflows."""
    cfg = make_cfg(n_subcarriers=2, taps=2, p_max=1e9)
    chan = ChannelRealization([1e301, 1.0], [1.0, 0.5])
    result = solve_policy(policy, chan, cfg)
    assert result.total_rate == float(result.pair_rates.sum())
    if policy is PolicyId.CONVENTIONAL_NON_EH:
        gam = _conventional_gains(chan.h_sq, chan.g_sq[result.pairing.perm], cfg)[1]
        np.testing.assert_array_equal(result.pair_rates, 0.5 * np.log1p(gam * result.powers) / math.log(2.0))
        assert math.isfinite(result.total_rate)
        return
    rho, gam = _split_gains(chan.h_sq, chan.g_sq[result.pairing.perm], cfg)
    with np.errstate(over="ignore"):  # the product gamma*P itself still overflows
        product = gam * result.powers
    big = int(np.argmax(gam))
    assert math.isinf(product[big]) and math.isfinite(product[1 - big])
    expected = 0.5 * (math.log(gam[big]) + math.log(result.powers[big])) / math.log(2.0)
    assert result.pair_rates[big] == expected
    assert 510.0 < expected < 514.0
    assert result.pair_rates[1 - big] == 0.5 * np.log1p(product[1 - big]) / math.log(2.0)


# the supplied relay's a*b overflows on the strongest pair at the default
# noise; at 1e-3 mW the slope a = h/sigma_ra^2 itself overflows
OVERFLOW_CASES = {
    "huge-incoming": ([1e301, 1.0], [1e10, 0.5], None),
    "huge-outgoing": ([1e10, 0.5], [1e301, 1.0], None),
    "low-noise-incoming": ([1e306], [1.0], LOW_NOISE),
    "low-noise-both": ([1e306, 1.0], [1e300, 0.5], LOW_NOISE),
}


def _overflow_case(name, **overrides):
    h_sq, g_sq, noise = OVERFLOW_CASES[name]
    cfg = make_cfg(n_subcarriers=len(h_sq), taps=1, **overrides, **({"noise": noise} if noise else {}))
    return ChannelRealization(h_sq, g_sq), cfg


@pytest.mark.parametrize("name", sorted(OVERFLOW_CASES))
def test_conventional_rate_is_finite_where_slope_product_overflows(name):
    """a*b (or a slope itself) passes the float range on the strongest pair
    although its gamma, below min(a, b), does not: that gamma is taken as
    1 / (sigma_ra^2/h + sigma_d^2/g), within a few ulp of the exact gain, and
    the other pair keeps the bits of a*b/(a+b). RuntimeWarnings are errors
    under the test suite's filter."""
    chan, cfg = _overflow_case(name)
    result = solve_conventional(chan, cfg)
    assert math.isfinite(result.total_rate) and result.total_rate >= 0.0
    assert np.isfinite(result.pair_rates).all() and (result.pair_rates >= 0.0).all()
    s_ra, s_d = cfg.noise.sigma_ra_sq, cfg.noise.sigma_d_sq
    # Python floats: a slope past the float range reads as inf, silently
    h, g = chan.h_sq.tolist(), chan.g_sq[result.pairing.perm].tolist()
    a, b = [x / s_ra for x in h], [x / s_d for x in g]
    gam = _conventional_gains(chan.h_sq, chan.g_sq[result.pairing.perm], cfg)[1]
    assert gam[0] == 1.0 / (s_ra / h[0] + s_d / g[0])
    exact = 1 / (Fraction(s_ra) / Fraction(h[0]) + Fraction(s_d) / Fraction(g[0]))
    assert gam[0] == pytest.approx(float(exact), rel=4e-16)
    if len(h) > 1:
        assert gam[1] == a[1] * b[1] / (a[1] + b[1])
    # at low noise the split rows refuse these channels
    policies = (PolicyId.CONVENTIONAL_NON_EH,) if cfg.noise is LOW_NOISE else tuple(PolicyId)
    rates, dead = _trial_rates(policies, [chan], cfg)
    assert np.isfinite(rates).all() and (rates >= 0.0).all() and not dead.any()
    assert rates[-1, 0] == result.total_rate


def test_conventional_rates_the_low_noise_channel_whose_slope_overflows():
    """h = 1e306 at 1e-3 mW: a = h/sigma_ra^2 is inf, b = 1/2e-3 = 500, and
    the pair is b-limited, so gamma = 500 and the rate is
    0.5*log2(1 + 500*p_max)."""
    chan, cfg = _overflow_case("low-noise-incoming")
    result = solve_conventional(chan, cfg)
    assert result.total_rate == pytest.approx(0.5 * math.log2(1.0 + 500.0 * cfg.p_max), rel=1e-15)
    assert result.total_rate == pytest.approx(9.4658, abs=1e-4)


@pytest.mark.parametrize("name", sorted(OVERFLOW_CASES))
def test_conventional_hop_powers_are_finite_where_power_product_overflows(name):
    """On a huge slope the products P*b and a*b pass the float range, but
    the source's share P / (1 + (sigma_d^2/g)/(sigma_ra^2/h)) never does: it
    lies in [0, P] on every pair, and the relay takes the rest."""
    chan, cfg = _overflow_case(name, p_max=1e9)
    result = solve_conventional(chan, cfg)
    p_source, p_relay = conventional_hop_powers(chan, cfg, result)
    assert np.isfinite(p_source).all() and np.isfinite(p_relay).all()
    assert (p_source >= 0.0).all() and (p_relay >= 0.0).all()
    assert (p_source <= result.powers).all() and (p_relay <= result.powers).all()
    np.testing.assert_array_equal(p_relay, result.powers - p_source)
    s_ra, s_d = cfg.noise.sigma_ra_sq, cfg.noise.sigma_d_sq
    h, g = chan.h_sq.tolist(), chan.g_sq[result.pairing.perm].tolist()
    for i, power in enumerate(result.powers.tolist()):
        assert p_source[i] == power / (1.0 + (s_d / g[i]) / (s_ra / h[i]))


@pytest.mark.parametrize("g_sq", [1.0, 1e306], ids=["split-gain", "both-gains"])
def test_an_effective_gain_past_the_float_range_is_refused(g_sq):
    """At 1e-3 mW noise the split gain of a 1e306 incoming gain overflows,
    and with a 1e306 outgoing gain so does the supplied relay's (about
    3.3e308). Each policy that meets an infinite gain refuses the channel
    with one ValueError, before any power is taken, and so does the
    one-pass trial."""
    cfg = make_cfg(n_subcarriers=1, taps=1, noise=LOW_NOISE)
    chan = ChannelRealization([1e306], [g_sq])
    refusing = [policy for policy in PolicyId if g_sq > 1.0 or policy is not PolicyId.CONVENTIONAL_NON_EH]
    for policy in refusing:
        with pytest.raises(ValueError, match=GAIN_OVERFLOW):
            solve_policy(policy, chan, cfg)
        with pytest.raises(ValueError, match=GAIN_OVERFLOW):
            _trial_rates((policy,), [chan, generate_channel(cfg, 1)], cfg)
    with pytest.raises(ValueError, match=GAIN_OVERFLOW):
        solve(chan, cfg)


# ------------------------------------------------------- one-pass trial


def _one_at_a_time(chan, cfg):
    """Per policy: solve_policy's total rate, or 0.0 and a dead flag."""
    rates, dead = [], []
    for policy in PolicyId:
        try:
            rates.append(solve_policy(policy, chan, cfg).total_rate)
            dead.append(False)
        except NoUsablePairError:
            rates.append(0.0)
            dead.append(True)
    return rates, dead


TRIAL_CHANNELS = {
    "zero-gains": ([0.0, 1.0, 0.0, 2.0], [1.0, 0.0, 0.0, 3.0]),
    "dead": ([0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]),
    "subnormal": ([1e-310, 5e-311, 1.0, 2.0], [1.0, 1.0, 5e-324, 1e-315]),
    "all-subnormal": ([1e-310, 5e-311], [1.0, 1.0]),
    "huge-incoming": ([1e300, 1.0, 0.5, 2.0], [1.0, 0.5, 0.25, 2.0]),
    "huge-outgoing": ([1.0, 0.5, 0.25, 2.0], [1e300, 1.0, 0.5, 2.0]),
    # the supplied relay's a*b overflows on the strongest pair
    "conventional-overflow": ([1e301, 1.0], [1e10, 0.5]),
    "conventional-overflow-outgoing": ([1e10, 0.5], [1e301, 1.0]),
    "ties": ([1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 1.0, 1.0]),
    "n1": ([0.3], [0.7]),
    "n1-dead": ([0.0], [0.7]),
    "n9": (list(np.geomspace(1e-3, 1e3, 9)), list(np.geomspace(5.0, 5e-3, 9))),
}


@pytest.mark.parametrize("p_max", [1e-6, 1000.0, 1e9])
@pytest.mark.parametrize("name", sorted(TRIAL_CHANNELS))
def test_trial_rates_match_solve_policy(name, p_max):
    h_sq, g_sq = TRIAL_CHANNELS[name]
    cfg = make_cfg(n_subcarriers=len(h_sq), taps=1, p_max=p_max)
    chan = ChannelRealization(h_sq, g_sq)
    rates, dead = _trial_rates(tuple(PolicyId), [chan], cfg)
    rates, dead = rates[:, 0], dead[:, 0]
    want_rates, want_dead = _one_at_a_time(chan, cfg)
    assert rates.tobytes() == np.array(want_rates).tobytes()
    assert dead.tolist() == want_dead


@pytest.mark.parametrize("p_max", [1e-6, 1000.0, 1e9])
@pytest.mark.parametrize("n", [1, 4, 7, 9, 256])
def test_trial_rates_of_a_block_equal_its_one_channel_blocks(n, p_max):
    """A block's tables are the column stacks of one-channel blocks, bit for
    bit. The block holds a dead channel, one where the supplied relay's a*b
    overflows (so the whole block's rate sum takes the overflow branch), and
    random channels with and without edge gains."""
    cfg = make_cfg(n_subcarriers=n, taps=1, p_max=p_max)
    h_over, g_over = TRIAL_CHANNELS["conventional-overflow"]
    channels = [
        ChannelRealization(mixed_gains(1, n), [0.0] * n),
        ChannelRealization((h_over + mixed_gains(2, n))[:n], (g_over + mixed_gains(3, n))[:n]),
        *(generate_channel(cfg, seed) for seed in range(5)),
        *(ChannelRealization(mixed_gains(seed, n), mixed_gains(seed + 1, n)) for seed in (10, 20, 30)),
    ]
    rates, dead = _trial_rates(tuple(PolicyId), channels, cfg)
    singles = [_trial_rates(tuple(PolicyId), [chan], cfg) for chan in channels]
    assert rates.shape == dead.shape == (len(PolicyId), len(channels))
    assert rates.tobytes() == np.hstack([one for one, _ in singles]).tobytes()
    assert dead.tolist() == np.hstack([one for _, one in singles]).tolist()
    # on the dead channel every water-filling policy is dead and all score 0
    assert dead[:, 0].tolist() == [True, True, False, False, True]
    assert not rates[:, 0].any()


def test_trial_rates_score_harvesting_disabled_as_dead():
    cfg = make_cfg(eta=0.0)
    chan = generate_channel(cfg, 4)
    rates, dead = _trial_rates(tuple(PolicyId), [chan], cfg)
    rates, dead = rates[:, 0], dead[:, 0]
    assert dead.tolist() == [True, True, False, False, False]
    assert rates.tolist()[:4] == [0.0] * 4 and rates[4] > 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 256),
    eta=st.sampled_from([0.0, 5e-324, 1.0]),
)
def test_trial_rates_match_solve_policy_at_any_width(seed, n, eta):
    """The one-pass trial scores every policy with the bits of solve_policy
    on wide gain vectors, up to N=256."""
    h_sq, g_sq = mixed_gains(seed, n), mixed_gains(seed + 1, n)
    cfg = make_cfg(n_subcarriers=n, taps=1, p_max=1000.0, eta=eta)
    chan = ChannelRealization(h_sq, g_sq)
    rates, dead = _trial_rates(tuple(PolicyId), [chan], cfg)
    rates, dead = rates[:, 0], dead[:, 0]
    want_rates, want_dead = _one_at_a_time(chan, cfg)
    assert rates.tobytes() == np.array(want_rates).tobytes()
    assert dead.tolist() == want_dead


_gain = st.one_of(
    st.just(0.0),
    st.just(1e-310),
    st.floats(1e-12, 1e6),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 20),
    p_max=st.sampled_from([1e-6, 1.0, 1000.0, 1e9]),
    eta=st.sampled_from([0.0, 0.05, 1.0]),
)
def test_trial_rates_match_solve_policy_on_random_channels(data, n, p_max, eta):
    """Bit for bit, on either side of the 8 terms where a row sum turns
    pairwise; incoming gains reach 1e300, where gamma*P overflows."""
    h_sq = data.draw(st.lists(st.one_of(_gain, st.just(1e300)), min_size=n, max_size=n))
    g_sq = data.draw(st.lists(_gain, min_size=n, max_size=n))
    cfg = make_cfg(n_subcarriers=n, taps=1, p_max=p_max, eta=eta)
    chan = ChannelRealization(h_sq, g_sq)
    rates, dead = _trial_rates(tuple(PolicyId), [chan], cfg)
    rates, dead = rates[:, 0], dead[:, 0]
    want_rates, want_dead = _one_at_a_time(chan, cfg)
    assert rates.tobytes() == np.array(want_rates).tobytes()
    assert dead.tolist() == want_dead


_in_domain_gain = (
    st.sampled_from(EDGE_GAINS + (1e306,))
    | st.floats(-12.0, 6.0).map(lambda e: 10.0**e)
    | st.floats(6.0, 306.0).map(lambda e: 10.0**e)
)


@settings(max_examples=300, deadline=None)
@given(
    gains=st.lists(st.tuples(_in_domain_gain, _in_domain_gain), min_size=1, max_size=12),
    p_max=st.floats(-6.0, 9.0).map(lambda e: 10.0**e),
    eta=st.sampled_from([0.0, 5e-324, 1.0]),
    noise=st.sampled_from([default_config().noise, LOW_NOISE]),
)
# P*b/(a+b) rounded an ulp above P on the 1e300 pair; the relay's rest must
# not turn negative
@example(gains=[(0.9547922439374674, 1e300), (1.0, 1.0)], p_max=6.34553643662418, eta=1.0,
         noise=default_config().noise)
# at low noise the split gain overflows (refused) and the supplied relay's
# slope a overflows (rated); with both gains huge, both are refused
@example(gains=[(1e306, 1.0)], p_max=1000.0, eta=1.0, noise=LOW_NOISE)
@example(gains=[(1e306, 1e306)], p_max=1000.0, eta=1.0, noise=LOW_NOISE)
def test_in_domain_outputs_are_finite_and_nonnegative(gains, p_max, eta, noise):
    """Every policy's result, the one-pass trial's rates and the conventional
    hop powers are finite and nonnegative, with no RuntimeWarning, on either
    side of the 8-element water-filling cut, at the default noise and at
    1e-3 mW; each hop power is at most its pair's power, and the two sum
    back to it to within its ulp. A policy may instead raise
    NoUsablePairError, or refuse a channel whose effective gain passes the
    float range; the one-pass trial then refuses it for that policy, and
    still rates the others."""
    cfg = make_cfg(n_subcarriers=len(gains), taps=1, p_max=p_max, eta=eta, noise=noise)
    chan = ChannelRealization(*zip(*gains))
    refused = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for policy in PolicyId:
            try:
                result = solve_policy(policy, chan, cfg)
            except NoUsablePairError:
                continue  # a water-filled row on a dead channel
            except ValueError as err:
                assert str(err) == GAIN_OVERFLOW
                refused.append(policy)
                continue
            outputs = [result.rho_i, result.powers, result.pair_rates, np.array([result.total_rate])]
            if policy is PolicyId.CONVENTIONAL_NON_EH:
                p_source, p_relay = conventional_hop_powers(chan, cfg, result)
                assert (np.abs(p_source + p_relay - result.powers) <= np.spacing(result.powers)).all()
                assert (p_source <= result.powers).all() and (p_relay <= result.powers).all()
                outputs += [p_source, p_relay]
            for values in outputs:
                assert np.isfinite(values).all() and (values >= 0.0).all()
        for policy in refused:
            with pytest.raises(ValueError, match=GAIN_OVERFLOW):
                _trial_rates((policy,), [chan, chan], cfg)
        kept = tuple(policy for policy in PolicyId if policy not in refused)
        if kept:
            rates, _ = _trial_rates(kept, [chan, chan], cfg)
            assert np.isfinite(rates).all() and (rates >= 0.0).all()


@pytest.mark.parametrize("p_max", [1000.0, 1e9])
@pytest.mark.parametrize("name", sorted(TRIAL_CHANNELS))
def test_solve_policy_results_are_read_only_down_to_their_bases(name, p_max):
    """Each policy's result arrays, and the arrays they view, are read-only:
    on N=1 and N=9, with dead pairs, and where gamma*P overflows."""
    h_sq, g_sq = TRIAL_CHANNELS[name]
    cfg = make_cfg(n_subcarriers=len(h_sq), taps=1, p_max=p_max)
    chan = ChannelRealization(h_sq, g_sq)
    for policy in PolicyId:
        try:
            result = solve_policy(policy, chan, cfg)
        except NoUsablePairError:
            continue
        for arr in (result.rho_i, result.powers, result.pair_rates, result.pairing.perm):
            assert_read_only(arr)


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_trial_rates_of_one_channel_are_its_column_of_a_whole_block(n, eta):
    """A block of one gives its channel's column of a whole block (the one
    run_trials makes at N) bit for bit. The block holds a dead channel, and
    with eta=0 every water-filling policy is dead on all."""
    cfg = make_cfg(n_subcarriers=n, taps=1, eta=eta)
    block = _block_trials(n)
    channels = [generate_channel(cfg, seed) for seed in range(block - 1)]
    channels.insert(17, ChannelRealization(mixed_gains(5, n), [0.0] * n))
    rates, dead = _trial_rates(tuple(PolicyId), channels, cfg)
    assert rates.shape == (len(PolicyId), block)
    for column, chan in enumerate(channels):
        one_rates, one_dead = _trial_rates(tuple(PolicyId), [chan], cfg)
        assert one_rates[:, 0].tobytes() == rates[:, column].tobytes()
        assert one_dead[:, 0].tolist() == dead[:, column].tolist()
    assert dead[:, 17].tolist() == [True, True, False, False, True]
    assert dead.all(axis=1).tolist() == [eta == 0.0, eta == 0.0, False, False, False]
