import itertools
import json
import math

import numpy as np
import pytest

from swipt_relay.allocator import NoUsablePairError, effective_gain, solve, split_and_gain, waterfill
from swipt_relay.channel import generate_channel
from swipt_relay.model import ChannelRealization, NoiseProfile
from swipt_relay.oracle import (
    CheckResult,
    VerificationReport,
    _permutations,
    best_pairing_exhaustive,
    power_by_grid,
    rho_by_bisection,
    verify,
)

from conftest import REF_GAIN, REF_RHO, make_cfg


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


def test_bisection_root_is_power_invariant(single_pair_cfg):
    at_1mw = rho_by_bisection(REF_GAIN, single_pair_cfg, p_mw=1.0)
    at_100mw = rho_by_bisection(REF_GAIN, single_pair_cfg, p_mw=100.0)
    assert abs(at_1mw - at_100mw) <= 1e-12


def test_bisection_rejects_degenerate_inputs(single_pair_cfg):
    with pytest.raises(ValueError):
        rho_by_bisection(0.0, single_pair_cfg)
    with pytest.raises(ValueError):
        rho_by_bisection(0.9, make_cfg(eta=0.0))
    with pytest.raises(ValueError):
        rho_by_bisection(0.9, single_pair_cfg, tol=0.0)
    with pytest.raises(ValueError, match="p_mw must be positive"):
        rho_by_bisection(0.9, single_pair_cfg, p_mw=0.0)


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


def test_grid_validates_inputs():
    with pytest.raises(ValueError):
        power_by_grid([1.0], 1.0)
    with pytest.raises(ValueError):
        power_by_grid([1.0, 2.0], 1.0, resolution=0)


def test_grid_rejects_a_dead_channel():
    with pytest.raises(NoUsablePairError):
        power_by_grid([0.0, 0.0], 10.0, 100)
    with pytest.raises(NoUsablePairError):
        waterfill([0.0, 0.0], 10.0)


@pytest.mark.parametrize("resolution", [True, 100.0, 2.5, "100", None])
def test_grid_rejects_a_resolution_that_is_not_an_int(resolution):
    with pytest.raises(ValueError, match="resolution must be an int >= 1"):
        power_by_grid([1.0, 2.0], 10.0, resolution)


@pytest.mark.parametrize(
    "gammas, p_max, message",
    [
        ([1.0, math.nan], 10.0, "gammas must be finite and nonnegative"),
        ([1.0, -1.0], 10.0, "gammas must be finite and nonnegative"),
        ([math.inf, 1.0], 10.0, "gammas must be finite and nonnegative"),
        ([1.0, 2.0], math.nan, "p_max must be positive and finite"),
        ([1.0, 2.0], 0.0, "p_max must be positive and finite"),
        ([1.0, 2.0], math.inf, "p_max must be positive and finite"),
    ],
)
def test_grid_rejects_what_waterfill_rejects(gammas, p_max, message):
    with pytest.raises(ValueError, match=message):
        power_by_grid(gammas, p_max, 100)
    with pytest.raises(ValueError, match=message):
        waterfill(gammas, p_max)


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
    from dataclasses import replace

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
    from dataclasses import replace

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
    from dataclasses import replace

    result = solve(chan, cfg)
    assert result.powers[1] == 0.0  # the dead pair
    spread = replace(result, powers=np.full(2, cfg.p_max / 2))
    kkt = {check.check_name: check for check in verify(chan, cfg, result=spread).checks}["waterfill_kkt"]
    assert not kkt.passed
    assert kkt.residual == math.inf


def test_verify_rejects_bad_tolerance(default_cfg):
    with pytest.raises(ValueError):
        verify(generate_channel(default_cfg, 1), default_cfg, tol=0.0)
    # an infinite tolerance would pass every check
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify(generate_channel(default_cfg, 1), default_cfg, tol=tol)


def test_verify_fails_a_claimed_rate_above_the_delivered_one(default_cfg):
    """The claimed total rate must be the one the result's splits and powers
    deliver: a rate raised by 5 bits/s/Hz fails pairing_optimality with the
    relative excess as its residual, and every other check still passes."""
    from dataclasses import replace

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
    from dataclasses import replace

    chan = generate_channel(default_cfg, 3)
    result = solve(chan, default_cfg)
    rho = result.rho_i.copy()
    rho[0] = 1.25
    report = verify(chan, default_cfg, result=replace(result, rho_i=rho))
    by_name = {check.check_name: check for check in report.checks}
    assert not by_name["root_bounds"].passed
    assert by_name["root_bounds"].residual == pytest.approx(0.25)


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


def test_verify_rejects_an_infinite_claimed_rate(default_cfg):
    chan = generate_channel(default_cfg, 2)
    result = solve(chan, default_cfg)
    from dataclasses import replace

    report = verify(chan, default_cfg, result=replace(result, total_rate=math.inf))
    by_name = {check.check_name: check for check in report.checks}
    assert math.isnan(by_name["pairing_optimality"].residual)
    assert not by_name["pairing_optimality"].passed
