import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from swipt_relay.allocator import NoUsablePairError, effective_gain, solve, split_and_gain, waterfill
from swipt_relay.channel import ChannelRealization, generate_channel
from swipt_relay.model import NoiseProfile, dbm_to_mw, default_config
from swipt_relay.oracle import (
    CheckResult,
    VerificationReport,
    _permutations,
    best_pairing_exhaustive,
    verify,
)

import oracles
from conftest import REF_GAIN, REF_RHO, make_cfg
from oracles import power_by_grid, rho_by_bisection


# ------------------------------------------------------------- bisection

def test_bisection_reference_instance(single_pair_cfg):
    assert rho_by_bisection(REF_GAIN, single_pair_cfg, tol=1e-12) == pytest.approx(
        REF_RHO, abs=1e-10
    )


def test_bisection_agrees_with_closed_form_on_random_draws():
    rng = np.random.default_rng(20260809)
    for _ in range(1000):
        noise = NoiseProfile(*np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4)))
        cfg = make_cfg(eta=float(rng.uniform(1e-3, 1.0)), noise=noise)
        g = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        assert abs(split_and_gain(1.0, g, cfg)[0] - rho_by_bisection(g, cfg)) <= 1e-10


def test_bisection_rejects_degenerate_inputs(single_pair_cfg):
    with pytest.raises(ValueError):
        rho_by_bisection(0.0, single_pair_cfg)
    with pytest.raises(ValueError):
        rho_by_bisection(0.9, make_cfg(eta=0.0))


def test_bisection_below_the_float_spacing_ends_at_adjacent_floats(monkeypatch):
    # once lo and hi are adjacent floats the midpoint is one of them, so a
    # tol below their spacing never stopped the loop
    calls = itertools.count()
    original = oracles.rate_terms

    def counted(*args):
        if next(calls) > 5000:
            raise AssertionError("the bisection does not end")
        return original(*args)

    monkeypatch.setattr(oracles, "rate_terms", counted)
    cfg = default_config()
    root = rho_by_bisection(0.9, cfg, tol=1e-300)
    assert 0.0 < root < 1.0
    assert root == rho_by_bisection(0.9, cfg, tol=1e-16)


# ------------------------------------------------------- exhaustive pairing

def test_exhaustive_two_symmetric_subcarriers():
    cfg = make_cfg(n_subcarriers=2, taps=2)
    pairing, rate = best_pairing_exhaustive(
        ChannelRealization([2.0, 1.0], [2.0, 1.0]), cfg
    )
    np.testing.assert_array_equal(pairing.perm, [0, 1])
    assert rate > 0.0


def test_exhaustive_agrees_with_solver(default_cfg):
    cfg3 = make_cfg(n_subcarriers=3, taps=3)
    for seed in range(1, 101):
        chan = generate_channel(cfg3, seed)
        _, best_rate = best_pairing_exhaustive(chan, cfg3)
        assert solve(chan, cfg3).total_rate >= best_rate - 1e-9


def test_exhaustive_starved_budget_boundary_case():
    """Budget below both activation thresholds: all power rides the strong
    pair and the sorted matching still wins the enumeration."""
    cfg = make_cfg(n_subcarriers=2, taps=2, p_max=0.5)
    chan = ChannelRealization([2.0, 1.0], [2.0, 1.0])
    gammas = np.array(
        [
            chan.h_sq[i] * effective_gain(1.0, split_and_gain(1.0, chan.g_sq[i], cfg)[0], cfg)
            for i in range(2)
        ]
    )
    # confirm the construction really is the starved regime
    assert cfg.p_max < 1.0 / gammas[1] - 1.0 / gammas[0]
    np.testing.assert_allclose(waterfill(gammas, cfg.p_max), [0.5, 0.0], atol=1e-12)
    pairing, rate = best_pairing_exhaustive(chan, cfg)
    np.testing.assert_array_equal(pairing.perm, [0, 1])
    assert solve(chan, cfg).total_rate == pytest.approx(rate, rel=1e-12)


def test_exhaustive_caps_subcarrier_count():
    cfg = make_cfg(n_subcarriers=9, taps=4)
    chan = ChannelRealization([1.0] * 9, [1.0] * 9)
    with pytest.raises(ValueError, match="capped"):
        best_pairing_exhaustive(chan, cfg)


def test_exhaustive_handles_partially_dead_pairs(default_cfg):
    # an all-dead identity matching must not stop the search from finding a
    # live permutation
    cfg = make_cfg(n_subcarriers=2, taps=2)
    chan = ChannelRealization([1.0, 0.0], [0.0, 1.0])
    pairing, rate = best_pairing_exhaustive(chan, cfg)
    np.testing.assert_array_equal(pairing.perm, [1, 0])
    assert rate > 0.0


# ------------------------------------------------------------- power grid

def test_grid_splits_evenly_for_equal_gains():
    powers = power_by_grid([0.5, 0.5], 7.0, resolution=10**5)
    assert abs(powers[0] - 3.5) <= 7.0 / 10**5


def test_grid_matches_interior_closed_form():
    # interior optimum: P1 = p_max/2 + (1/g2 - 1/g1)/2
    gammas = [2.0, 0.5]
    p_max = 3.0
    expected = p_max / 2 + (1.0 / gammas[1] - 1.0 / gammas[0]) / 2
    powers = power_by_grid(gammas, p_max, resolution=10**6)
    assert abs(powers[0] - expected) <= p_max / 10**6
    assert powers[0] + powers[1] == pytest.approx(p_max, abs=1e-12)


def test_grid_agrees_with_waterfill_on_random_draws():
    rng = np.random.default_rng(7)
    resolution = 10**4
    for _ in range(1000):
        gammas = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), size=2))
        p_max = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        step = p_max / resolution
        from_grid = power_by_grid(gammas, p_max, resolution=resolution)
        from_waterfill = waterfill(gammas, p_max)
        np.testing.assert_allclose(from_waterfill, from_grid, atol=step * 1.0000001)


# -------------------------------------------- two-subcarrier sorted identity

def _sorted_vs_swapped_margin(h, g, p_max, cfg):
    """The product-form margin that makes sorted pairing at least as good as
    the swapped one, evaluated with the solver's own optimal powers."""
    split = [effective_gain(1.0, split_and_gain(1.0, gj, cfg)[0], cfg) for gj in g]
    gam_sorted = np.array([h[0] * split[0], h[1] * split[1]])
    gam_swapped = np.array([h[0] * split[1], h[1] * split[0]])
    p_sorted = waterfill(gam_sorted, p_max)
    p_swapped = waterfill(gam_swapped, p_max)

    def score(gam, p):
        return gam[0] * p[0] + gam[1] * p[1] + gam[0] * gam[1] * p[0] * p[1]

    return score(gam_sorted, p_sorted) - score(gam_swapped, p_swapped), (
        p_sorted,
        p_swapped,
    )


def test_two_subcarrier_margin_nonnegative_in_all_power_regimes(default_cfg):
    cfg2 = make_cfg(n_subcarriers=2, taps=2)
    rng = np.random.default_rng(123)
    seen = {"interior": 0, "both_starved": 0, "sorted_starved_only": 0}
    for _ in range(500):
        h = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(5.0), size=2)))[::-1]
        g = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(5.0), size=2)))[::-1]
        p_max = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e3))))
        margin, (p_sorted, p_swapped) = _sorted_vs_swapped_margin(h, g, p_max, cfg2)
        assert margin > -1e-12
        if p_sorted[1] > 0 and p_swapped[1] > 0:
            seen["interior"] += 1
        elif p_sorted[1] == 0 and p_swapped[1] == 0:
            seen["both_starved"] += 1
        elif p_sorted[1] == 0 and p_swapped[1] > 0:
            seen["sorted_starved_only"] += 1
    assert all(count > 0 for count in seen.values()), seen


# ------------------------------------------------------------------- verify

def test_verify_reference_instance(single_pair_cfg):
    report = verify(ChannelRealization([REF_GAIN], [REF_GAIN]), single_pair_cfg)
    assert report.all_pass
    names = [check.check_name for check in report.checks]
    assert names == [
        "equal_rate",
        "root_bounds",
        "monotone_rho_in_b",
        "waterfill_kkt",
        "pairing_optimality",
        "per_trial_dominance",
    ]


def test_verify_underflowing_outgoing_gain_is_a_dead_pair():
    # b = eta*g_sq/sigma_d_sq underflows to zero on the first outgoing
    # subcarrier: the allocator scores that pair as dead, and so must every
    # oracle check
    cfg = make_cfg(eta=0.1)
    chan = ChannelRealization([1.0, 0.5, 0.2, 0.1], [5e-324, 1.0, 1.0, 1.0])
    result = solve(chan, cfg)
    report = verify(chan, cfg)
    assert report.all_pass, report.to_json()
    assert len(report.checks) == 6
    _, best_rate = best_pairing_exhaustive(chan, cfg)
    assert best_rate == pytest.approx(result.total_rate, rel=1e-12)


def test_verify_certifies_all_to_strongest():
    """Every live gamma lies below 2**-1024, so each 1/gamma overflows and no
    water level is finite: the allocation puts the whole budget on the
    strongest pair, and waterfill_kkt checks exactly that, with no warning
    from an inf - inf."""
    cfg = make_cfg(n_subcarriers=2, taps=2)
    chan = ChannelRealization([1e-310, 5e-311], [1.0, 1.0])
    result = solve(chan, cfg)
    assert result.powers.tolist() == [cfg.p_max, 0.0]
    report = verify(chan, cfg)
    assert report.all_pass, report.to_json()
    by_name = {check.check_name: check for check in report.checks}
    assert by_name["waterfill_kkt"].residual == 0.0
    # negative controls: the budget on the weaker pair, split over both, short
    for powers in ([0.0, cfg.p_max], [cfg.p_max / 2, cfg.p_max / 2]):
        wrong = replace(result, powers=np.array(powers))
        assert not verify(chan, cfg, result=wrong).checks[3].passed
    short = verify(chan, cfg, result=replace(result, powers=np.array([cfg.p_max / 2, 0.0])))
    assert short.checks[3].check_name == "waterfill_kkt"
    assert not short.checks[3].passed
    assert short.checks[3].residual == cfg.p_max / 2


def test_verify_one_hundred_seeded_channels(default_cfg):
    passed = sum(
        verify(generate_channel(default_cfg, seed), default_cfg).all_pass
        for seed in range(1, 101)
    )
    assert passed == 100


def test_verify_flags_corrupted_split(default_cfg):
    """Negative control: shifting one split ratio off its equal-rate point
    must trip the equal-rate check with a visible residual."""
    chan = generate_channel(default_cfg, 3)
    result = solve(chan, default_cfg)
    rho = result.rho_i.copy()
    rho[0] += 0.1
    corrupted = replace(result, rho_i=rho)
    report = verify(chan, default_cfg, result=corrupted)
    by_name = {check.check_name: check for check in report.checks}
    assert not by_name["equal_rate"].passed
    assert by_name["equal_rate"].residual > 1e-9
    assert not report.all_pass


def test_verify_json_schema(default_cfg):
    report = verify(generate_channel(default_cfg, 1), default_cfg)
    payload = json.loads(report.to_json())
    assert isinstance(payload, list) and len(payload) == 6
    for entry in payload:
        assert set(entry) == {"check_name", "pass", "residual", "tolerance"}
        assert entry["pass"] is True


def test_verify_merge_keeps_worst_residual(default_cfg):
    reports = [verify(generate_channel(default_cfg, s), default_cfg) for s in (1, 2)]
    merged = VerificationReport.merge(reports)
    assert merged.all_pass
    for check in merged.checks:
        singles = [
            single.residual
            for report in reports
            for single in report.checks
            if single.check_name == check.check_name
        ]
        assert check.residual == max(singles)


def test_verify_rejects_a_result_of_another_width(default_cfg):
    narrow_cfg = make_cfg(n_subcarriers=3, taps=1)
    narrow = solve(generate_channel(narrow_cfg, 5), narrow_cfg)
    with pytest.raises(ValueError, match="result has 3 subcarriers, config expects 4"):
        verify(generate_channel(default_cfg, 5), default_cfg, result=narrow)


def test_verify_checks_the_subcarrier_cap_first():
    # solve would raise NoUsablePairError on this dead channel
    cfg = make_cfg(n_subcarriers=9, taps=4)
    chan = ChannelRealization([1.0] * 9, [0.0] * 9)
    with pytest.raises(ValueError, match="at most 8") as info:
        verify(chan, cfg)
    assert not isinstance(info.value, NoUsablePairError)


def test_verify_reports_power_on_a_zero_gain_pair():
    cfg = make_cfg(n_subcarriers=2, taps=2)
    chan = ChannelRealization([1.0, 1.0], [1.0, 0.0])
    result = solve(chan, cfg)
    assert result.powers[1] == 0.0  # the dead pair
    spread = replace(result, powers=np.full(2, cfg.p_max / 2))
    kkt = {check.check_name: check for check in verify(chan, cfg, result=spread).checks}["waterfill_kkt"]
    assert not kkt.passed
    assert kkt.residual == math.inf


# a channel given as an int is that seed's draw at the row's config
@pytest.mark.parametrize(
    "overrides, chan, powers, kkt, rate",
    [
        ({}, 1, [0.0, 0.0, 0.0, 0.0], math.inf, "fails"),
        ({}, 1, [1e3, -1e3, 0.0, 0.0], math.inf, "undefined"),
        ({}, 1, [-5.0, 0.0, 0.0, 0.0], math.inf, "undefined"),
        ({}, 1, [math.inf, 0.0, 0.0, 0.0], math.inf, "undefined"),
        ({}, 1, [1e308, 1e308, 0.0, 0.0], math.inf, "undefined"),
        ({}, 1, [math.nan, 1e3, 0.0, 0.0], math.inf, "undefined"),
        ({"n_subcarriers": 2, "taps": 2}, ChannelRealization([1.0, 1e-310], [1.0, 1.0]), [500.0, 500.0], math.nan, "fails"),
        ({}, ChannelRealization([100.0, 1.0, 1.0, 1.0], [100.0, 1.0, 1.0, 1.0]), [1e308, 0.0, 0.0, 0.0], 1e308, "fails"),
    ],
    ids=[
        "no-pair-powered",
        "a-negative-power",
        "only-a-negative-power",
        "an-infinite-power",
        "powers-summing-past-the-float-range",
        "a-nan-power-beside-a-powered-pair",
        "a-powered-pair-whose-inverse-gain-overflows",
        "a-power-whose-product-with-its-gain-overflows",
    ],
)
def test_verify_audits_unpowered_and_negative_powers_without_a_warning(overrides, chan, powers, kkt, rate):
    """Malformed powers fail checks; they raise nothing and warn nothing.

    Powers are audited only when each is finite and nonnegative and their
    sum is finite. Others, a NaN among them, leave no water level, so the
    KKT check fails with residual inf, and deliver no rate, so
    pairing_optimality fails with residual NaN. No pair powered leaves no level either. A powered pair
    whose 1/gamma overflows beside a usable one makes the level inf, and
    its spread inf - inf is NaN. A power of 1e308 on a gain of ~100 is
    audited: its budget residual is 1e308, and the rate it delivers, whose
    SNR passes the float range, is taken in log form; the three pairs it
    leaves unpowered deliver none of the rates they claim, so
    pairing_optimality fails with a finite residual. The other checks are
    untouched."""
    cfg = make_cfg(**overrides)
    if isinstance(chan, int):
        chan = generate_channel(cfg, chan)
    corrupted = replace(solve(chan, cfg), powers=np.array(powers))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(chan, cfg, result=corrupted)
    by_name = {check.check_name: check for check in report.checks}
    residual = by_name["waterfill_kkt"].residual
    assert (math.isnan(residual) if math.isnan(kkt) else residual == kkt) and not by_name["waterfill_kkt"].passed
    optimality = by_name["pairing_optimality"]
    assert math.isnan(optimality.residual) == (rate == "undefined")
    assert not optimality.passed
    assert [check.check_name for check in report.checks if not check.passed] == ["waterfill_kkt", "pairing_optimality"]


def test_verify_fails_a_claimed_rate_above_the_delivered_one(default_cfg):
    """The claimed total rate must be the one the result's splits and powers
    deliver: a rate raised by 5 bits/s/Hz fails pairing_optimality with the
    relative excess as its residual, and every other check still passes."""
    chan = generate_channel(default_cfg, 2)
    result = solve(chan, default_cfg)
    report = verify(chan, default_cfg, result=replace(result, total_rate=result.total_rate + 5.0))
    by_name = {check.check_name: check for check in report.checks}
    assert not by_name["pairing_optimality"].passed
    assert by_name["pairing_optimality"].residual == pytest.approx(5.0 / result.total_rate)
    assert [check.check_name for check in report.checks if not check.passed] == ["pairing_optimality"]
    assert verify(chan, default_cfg).checks[4].residual == 0.0


def test_verify_reports_a_split_above_one(default_cfg):
    """A split outside [0, 1] fails root_bounds and is taken clamped by the
    other checks, so the audit reports it instead of raising."""
    chan = generate_channel(default_cfg, 3)
    result = solve(chan, default_cfg)
    rho = result.rho_i.copy()
    rho[0] = 1.25
    report = verify(chan, default_cfg, result=replace(result, rho_i=rho))
    by_name = {check.check_name: check for check in report.checks}
    assert not by_name["root_bounds"].passed
    assert by_name["root_bounds"].residual == pytest.approx(0.25)


@pytest.mark.parametrize(
    "p_max_dbm, pair, powered, failing",
    [
        (30.0, 0, True, ["equal_rate", "root_bounds", "waterfill_kkt", "pairing_optimality"]),
        (0.0, 1, False, ["root_bounds"]),
    ],
    ids=["a-powered-pair", "a-pair-water-filling-leaves-unpowered"],
)
def test_verify_fails_a_nan_split_without_raising(p_max_dbm, pair, powered, failing):
    """A NaN split fails root_bounds with residual NaN, and the other checks
    read it as 0, a pair that decodes nothing and carries no rate. On a
    powered pair that breaks the equal-rate condition, the water level and
    the delivered rate; on a pair water-filling leaves unpowered it changes
    nothing else. Nothing raises and nothing warns."""
    cfg = make_cfg(p_max=dbm_to_mw(p_max_dbm))
    chan = generate_channel(cfg, 1)
    result = solve(chan, cfg)
    assert (result.powers[pair] > 0.0) == powered
    rho = result.rho_i.copy()
    rho[pair] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(chan, cfg, result=replace(result, rho_i=rho))
    by_name = {check.check_name: check for check in report.checks}
    assert math.isnan(by_name["root_bounds"].residual)
    assert [check.check_name for check in report.checks if not check.passed] == failing


def test_verify_audits_each_claimed_pair_rate(default_cfg):
    """Each claimed pair rate must be the one its split and power deliver:
    NaN pair rates fail pairing_optimality with residual NaN, and half a
    bit moved from one pair to another, which keeps the total, fails it
    with that pair's relative excess. Every other check still passes."""
    chan = generate_channel(default_cfg, 2)
    result = solve(chan, default_cfg)
    moved = result.pair_rates.copy()
    moved[0] += 0.5
    moved[1] -= 0.5
    for pair_rates, residual in ((np.full(4, math.nan), math.nan), (moved, 0.5 / result.pair_rates[0])):
        report = verify(chan, default_cfg, result=replace(result, pair_rates=pair_rates))
        optimality = report.checks[4]
        assert optimality.check_name == "pairing_optimality" and not optimality.passed
        assert optimality.residual == pytest.approx(residual, nan_ok=True)
        assert [check.check_name for check in report.checks if not check.passed] == ["pairing_optimality"]


# ------------------------------------------- the search's table, bit for bit

def _exhaustive_reference(channel, cfg):
    """The search as one loop over ``itertools.permutations``, one pairing
    at a time, as it was written before it scored a table: the reference the
    table search must match bit for bit."""
    n = channel.n_subcarriers
    factor = np.array([split_and_gain(1.0, g, cfg)[1] for g in channel.g_sq.tolist()])
    best_perm, best_rate = None, -math.inf
    for perm in itertools.permutations(range(n)):
        gam = channel.h_sq * factor[list(perm)]
        if np.any(gam > 0.0):
            powers = waterfill(gam, cfg.p_max)
            rate = float(np.sum(0.5 * np.log1p(gam * powers) / math.log(2.0)))
        else:
            rate = 0.0
        if rate > best_rate:
            best_perm, best_rate = perm, rate
    return np.array(best_perm, dtype=np.int64), best_rate


_BUDGETS = (1e-6, 1e-2, 1.0, 1e3, 1e9)
# zero, underflowing (b = 0 at eta = 0.05), subnormal and ordinary gains
_GAINS = (0.0, 5e-324, 1e-310, 1e-3, 0.2, 1.0, 3.0, 1e150)


def _table_cases(n, eta):
    """Channels and budgets for one (N, eta): seeded draws alternate with
    gains drawn from ``_GAINS``; fewer cases where N! is large."""
    rng = np.random.default_rng(1000 * n + int(100 * eta))
    count = {6: 4, 7: 2, 8: 1}.get(n, 10)
    for k in range(count):
        cfg = make_cfg(
            n_subcarriers=n, taps=min(n, 4), eta=eta, p_max=_BUDGETS[(n + k) % len(_BUDGETS)]
        )
        if k % 2:
            h, g = rng.choice(_GAINS, size=(2, n))
            yield ChannelRealization(h, g), cfg
        else:
            yield generate_channel(cfg, n + k), cfg


@pytest.mark.parametrize(
    "n, eta",
    # one live N = 8 search: each takes seconds against the reference loop
    [(n, eta) for n in range(1, 9) for eta in (1.0, 0.05, 0.0) if (n, eta) != (8, 0.05)],
)
def test_exhaustive_table_matches_per_pairing_loop(n, eta):
    for chan, cfg in _table_cases(n, eta):
        pairing, rate = best_pairing_exhaustive(chan, cfg)
        ref_perm, ref_rate = _exhaustive_reference(chan, cfg)
        assert pairing.perm.tobytes() == ref_perm.tobytes()
        assert np.float64(rate).tobytes() == np.float64(ref_rate).tobytes()
        assert isinstance(rate, float)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_exhaustive_equal_gains_return_identity(n):
    # every pairing scores the same rate, so the first one wins
    cfg = make_cfg(n_subcarriers=n, taps=1)
    pairing, rate = best_pairing_exhaustive(ChannelRealization([0.7] * n, [0.4] * n), cfg)
    np.testing.assert_array_equal(pairing.perm, np.arange(n))
    assert rate > 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_table_is_lexicographic_and_read_only(n):
    perms = _permutations(n)
    assert perms.dtype == np.intp and perms.shape == (math.factorial(n), n)
    np.testing.assert_array_equal(perms, list(itertools.permutations(range(n))))
    assert not perms.flags.writeable
    assert _permutations(n) is perms


def test_exhaustive_result_does_not_share_the_table():
    cfg = make_cfg(n_subcarriers=3, taps=3)
    pairing, _ = best_pairing_exhaustive(generate_channel(cfg, 1), cfg)
    assert not np.shares_memory(pairing.perm, _permutations(3))


# ------------------------------------------------ overflowing pair rates

def test_exhaustive_rate_is_finite_where_gain_times_power_overflows():
    """gamma*P overflows on a 1e300 incoming gain at 1e9 mW; the search
    scores that pair 0.5*log2(gamma) + 0.5*log2(P), as the allocator does."""
    cfg = make_cfg(n_subcarriers=1, taps=1, p_max=1e9)
    chan = ChannelRealization([1e300], [1.0])
    _, rate = best_pairing_exhaustive(chan, cfg)
    with np.errstate(over="ignore"):
        assert rate == solve(chan, cfg).total_rate
    gamma = split_and_gain(1e300, 1.0, cfg)[1]
    assert rate == 0.5 * (math.log(gamma) + math.log(1e9)) / math.log(2.0)
    assert 510.0 < rate < 514.0


def test_verify_certifies_overflowing_rates():
    """On that channel both equal-rate terms overflow too; each is taken in
    log form, so their gap is finite and the channel is certified."""
    cfg = make_cfg(n_subcarriers=1, taps=1, p_max=1e9)
    chan = ChannelRealization([1e300], [1.0])
    report = verify(chan, cfg)
    by_name = {check.check_name: check for check in report.checks}
    assert by_name["equal_rate"].passed
    assert 0.0 <= by_name["equal_rate"].residual <= 1e-15
    assert report.all_pass


def test_merged_report_keeps_a_nan_residual():
    """A NaN residual (say from inf - inf) survives a merge and fails it,
    wherever it comes in the list."""
    cfg = make_cfg(n_subcarriers=1, taps=1, p_max=1e9)
    undefined = VerificationReport((CheckResult("equal_rate", False, math.nan, 1e-9),))
    certified = verify(ChannelRealization([1.0], [1.0]), cfg)
    for reports in ([certified, undefined], [undefined, certified]):
        merged = VerificationReport.merge(reports)
        assert math.isnan({c.check_name: c for c in merged.checks}["equal_rate"].residual)
        assert not merged.all_pass


def test_a_report_of_no_checks_does_not_pass():
    """A report in which no check ran certifies nothing, and neither does a
    merge of no reports."""
    assert not VerificationReport(()).all_pass
    assert not VerificationReport.merge([]).all_pass


def test_verify_rejects_an_infinite_claimed_rate(default_cfg):
    chan = generate_channel(default_cfg, 2)
    result = solve(chan, default_cfg)
    report = verify(chan, default_cfg, result=replace(result, total_rate=math.inf))
    by_name = {check.check_name: check for check in report.checks}
    assert math.isnan(by_name["pairing_optimality"].residual)
    assert not by_name["pairing_optimality"].passed


def test_every_verdict_is_a_bool_and_a_failing_report_serialises(default_cfg):
    """A split of exactly 1 fails root_bounds, and the checks that take it
    clamped fail too; a claimed rate 5 bits/s/Hz too high, given as a NumPy
    float, fails pairing_optimality. Each verdict is a Python bool, so the
    report and a merge of it serialise to JSON booleans."""
    chan = generate_channel(default_cfg, 3)
    result = solve(chan, default_cfg)
    rho = result.rho_i.copy()
    rho[0] = 1.0
    claimed = np.float64(result.total_rate + 5.0)
    failing = verify(chan, default_cfg, result=replace(result, rho_i=rho, total_rate=claimed))
    merged = VerificationReport.merge([verify(chan, default_cfg), failing])
    for report in (failing, merged):
        assert all(type(check.passed) is bool for check in report.checks)
        payload = json.loads(report.to_json())
        assert [entry["pass"] for entry in payload] == [check.passed for check in report.checks]
        verdicts = {entry["check_name"]: entry["pass"] for entry in payload}
        assert verdicts["root_bounds"] is False and verdicts["pairing_optimality"] is False


@pytest.mark.parametrize(
    "overrides",
    [{"eta": 5e-324}, {"noise": replace(default_config().noise, sigma_da_sq=5e-324, sigma_db_sq=5e-324)}],
    ids=["eta-5e-324", "sigma_d-5e-324"],
)
def test_monotone_grid_spans_b_at_the_float_edges(overrides):
    """The monotone check's grid is taken in b, so neither an eta whose g
    grid overflows nor a destination noise whose g grid collapses to
    subnormals fails it or warns; at eta = 5e-324 every check passes."""
    cfg = make_cfg(**overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(generate_channel(cfg, 1), cfg)
    by_name = {check.check_name: check for check in report.checks}
    assert by_name["monotone_rho_in_b"].passed
    assert by_name["monotone_rho_in_b"].residual == 0.0
    assert all(type(check.passed) is bool for check in report.checks)
    assert len(json.loads(report.to_json())) == 6
    if "eta" in overrides:
        assert report.all_pass, report.to_json()
