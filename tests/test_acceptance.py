"""End-to-end acceptance suite.

Each test prints one `[PASS]`/`[FAIL]` line (visible under `pytest -s`) and
asserts the criterion at its pinned tolerance. The two Monte-Carlo sweeps are
computed once per module and shared; policy comparisons use the standard
error of the per-trial paired difference, which is the standard error of the
reported mean difference because every policy sees common random numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from swipt_relay.allocator import rate_terms, solve, split_and_gain, waterfill
from swipt_relay.baselines import PolicyId
from swipt_relay.channel import generate_channel
from swipt_relay.model import NoiseProfile, dbm_to_mw, default_config
from swipt_relay.montecarlo import POINT_SEED_STRIDE, SweepSpec, run_trials, sweep
from swipt_relay.oracle import best_pairing_exhaustive

from conftest import REF_GAIN, make_cfg
from oracles import power_by_grid, rho_by_bisection

ALL_POLICIES = tuple(PolicyId)
EH_BASELINES = (
    PolicyId.OPA_NO_PAIRING,
    PolicyId.UNIFORM_WITH_PAIRING,
    PolicyId.UNIFORM_NO_PAIRING,
)

POWER_VALUES_DBM = (10.0, 20.0, 30.0, 40.0)
POSITION_VALUES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_TRIALS = 2000
POWER_SEED = 101
POSITION_SEED = 202


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _paired_gap_in_ses(winner: np.ndarray, loser: np.ndarray) -> float:
    diff = winner - loser
    return float(diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size)))


@pytest.fixture(scope="module")
def power_sweep_arrays():
    """Per-trial rates for every policy over the power grid (relay at the
    midpoint), plus the wall time of the computation."""
    cfg = default_config()
    start = time.perf_counter()
    data = {}
    for index, dbm in enumerate(POWER_VALUES_DBM):
        cfg_point = replace(cfg, p_max=dbm_to_mw(dbm))
        batch = run_trials(
            cfg_point, ALL_POLICIES, SWEEP_TRIALS, POWER_SEED + index * POINT_SEED_STRIDE
        )
        data[dbm] = batch.rates
    return data, time.perf_counter() - start


@pytest.fixture(scope="module")
def position_sweep_arrays():
    """Per-trial rates for the harvesting and conventional policies over the
    relay-position grid at a 30 dBm budget."""
    cfg = default_config()
    policies = (PolicyId.PROPOSED, PolicyId.CONVENTIONAL_NON_EH)
    start = time.perf_counter()
    data = {}
    for index, position in enumerate(POSITION_VALUES):
        cfg_point = replace(cfg, dr=position * cfg.d0)
        batch = run_trials(
            cfg_point, policies, SWEEP_TRIALS, POSITION_SEED + index * POINT_SEED_STRIDE
        )
        data[position] = batch.rates
    return data, time.perf_counter() - start


def test_criterion_01_closed_form_split_matches_bisection():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        g = float(5.0 - rng.uniform(0.0, 5.0))          # (0, 5]
        eta = float(1.0 - rng.uniform(0.0, 1.0))        # (0, 1]
        noise = NoiseProfile(*(rng.uniform(0.1, 10.0, size=4)))
        cfg = make_cfg(eta=eta, noise=noise)
        closed = split_and_gain(1.0, g, cfg)[0]
        bisected = rho_by_bisection(g, cfg, tol=1e-12)
        worst = max(worst, abs(closed - bisected))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: closed-form split vs bisection oracle, 10^4 draws",
        worst <= 1e-10 and elapsed < 5.0,
        f"max |closed - bisected| = {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_pinned_single_pair_instance(single_pair_cfg):
    rho_closed = split_and_gain(1.0, REF_GAIN, single_pair_cfg)[0]
    rho_bisected = rho_by_bisection(REF_GAIN, single_pair_cfg, tol=1e-12)
    p_mw = dbm_to_mw(10.0)
    t_decode, t_forward = rate_terms(REF_GAIN, REF_GAIN, rho_closed, p_mw, single_pair_cfg)
    rel_gap = abs(t_decode - t_forward) / max(t_decode, 1e-12)
    ok = (
        abs(rho_closed - 0.588403) <= 1e-6
        and abs(rho_bisected - 0.588403) <= 1e-6
        and rel_gap <= 1e-9
    )
    _report(
        "criterion 2: pinned instance rho* = 0.588403 and equal terms at 10 dBm",
        ok,
        f"rho* = {rho_closed:.9f}, term gap = {rel_gap:.3e}",
    )


def test_criterion_03_sorted_pairing_globally_optimal():
    start = time.perf_counter()
    worst = -math.inf
    for n in (2, 3, 4):
        cfg = make_cfg(n_subcarriers=n, taps=min(4, n))
        for seed in range(1, 1001):
            chan = generate_channel(cfg, seed)
            _, best_rate = best_pairing_exhaustive(chan, cfg)
            worst = max(worst, best_rate - solve(chan, cfg).total_rate)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3: solver matches exhaustive pairing search, N in {2,3,4} x 1000",
        worst <= 1e-9 and elapsed < 30.0,
        f"max (exhaustive - solver) = {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_04_waterfilling_correctness():
    rng = np.random.default_rng(4242)
    worst_kkt = 0.0
    for _ in range(10_000):
        size = int(rng.integers(1, 9))
        gam = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), size=size))
        gam[rng.uniform(size=size) < 0.15] = 0.0
        gam[int(rng.integers(size))] = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e2))))
        p_max = float(np.exp(rng.uniform(np.log(0.1), np.log(1e4))))
        powers = waterfill(gam, p_max)
        worst_kkt = max(worst_kkt, abs(math.fsum(powers) - p_max))
        active = powers > 0.0
        levels = powers[active] + 1.0 / gam[active]
        level = float(levels.mean())
        worst_kkt = max(worst_kkt, float(np.max(np.abs(levels - level))) / level)
        idle = (~active) & (gam > 0.0)
        if np.any(idle):
            worst_kkt = max(worst_kkt, float(np.max(level - 1.0 / gam[idle])))

    worst_grid = 0.0
    for _ in range(20):
        gam = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), size=2))
        p_max = float(np.exp(rng.uniform(np.log(1.0), np.log(1e3))))
        gap = np.max(np.abs(waterfill(gam, p_max) - power_by_grid(gam, p_max, 10**6)))
        worst_grid = max(worst_grid, float(gap) / (p_max / 10**6))

    worst_interior = 0.0
    accepted = 0
    while accepted < 1000:
        gam = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(10.0), size=2)))[::-1]
        p_max = float(np.exp(rng.uniform(np.log(0.1), np.log(1e3))))
        p1_closed = p_max / 2.0 + (1.0 / gam[1] - 1.0 / gam[0]) / 2.0
        if not 0.0 < p1_closed < p_max:
            continue
        accepted += 1
        worst_interior = max(worst_interior, abs(waterfill(gam, p_max)[0] - p1_closed))

    ok = worst_kkt <= 1e-9 and worst_grid <= 1.0 and worst_interior <= 1e-6
    _report(
        "criterion 4: water-filling KKT, grid oracle, interior closed form",
        ok,
        f"kkt = {worst_kkt:.3e}, grid = {worst_grid:.3f} steps, interior = {worst_interior:.3e}",
    )


def test_criterion_05_per_trial_dominance(default_cfg):
    batch = run_trials(
        default_cfg, (PolicyId.PROPOSED,) + EH_BASELINES, trials=10_000, seed=77
    )
    top = batch.rates[PolicyId.PROPOSED]
    worst = max(
        float(np.max(batch.rates[policy] - top)) for policy in EH_BASELINES
    )
    _report(
        "criterion 5: proposed dominates every harvesting baseline on 10^4 trials",
        worst <= 1e-9,
        f"max (baseline - proposed) = {worst:.3e}",
    )


def test_criterion_06_rate_vs_power_trend(power_sweep_arrays):
    data, elapsed = power_sweep_arrays
    means = {
        policy: [float(data[dbm][policy].mean()) for dbm in POWER_VALUES_DBM]
        for policy in ALL_POLICIES
    }
    increasing = all(
        all(b > a for a, b in zip(curve, curve[1:])) for curve in means.values()
    )
    min_ses = min(
        _paired_gap_in_ses(
            data[dbm][PolicyId.PROPOSED], data[dbm][PolicyId.UNIFORM_NO_PAIRING]
        )
        for dbm in POWER_VALUES_DBM
    )
    _report(
        "criterion 6: all curves rise with the budget; proposed beats "
        "uniform-no-pairing by > 3 SE",
        increasing and min_ses > 3.0 and elapsed < 60.0,
        f"min gap = {min_ses:.1f} SE, sweep took {elapsed:.2f}s",
    )


def test_criterion_07_relay_position_trend(position_sweep_arrays):
    data, elapsed = position_sweep_arrays
    curve = {
        policy: np.array([float(data[x][policy].mean()) for x in POSITION_VALUES])
        for policy in (PolicyId.PROPOSED, PolicyId.CONVENTIONAL_NON_EH)
    }
    argmax_eh = POSITION_VALUES[int(np.argmax(curve[PolicyId.PROPOSED]))]
    argmax_conv = POSITION_VALUES[int(np.argmax(curve[PolicyId.CONVENTIONAL_NON_EH]))]
    ok = (
        argmax_eh <= 0.3
        and argmax_conv in (0.4, 0.5, 0.6)
        and argmax_eh < argmax_conv
        and elapsed < 60.0
    )
    _report(
        "criterion 7: harvesting relay belongs near the source, conventional "
        "near the middle",
        ok,
        f"argmax EH = {argmax_eh}, conventional = {argmax_conv}, sweep took {elapsed:.2f}s",
    )


def test_criterion_08_conventional_lead_grows_with_power(power_sweep_arrays):
    data, _ = power_sweep_arrays
    ses = [
        _paired_gap_in_ses(
            data[dbm][PolicyId.CONVENTIONAL_NON_EH], data[dbm][PolicyId.PROPOSED]
        )
        for dbm in POWER_VALUES_DBM
    ]
    gaps = [
        float(
            data[dbm][PolicyId.CONVENTIONAL_NON_EH].mean()
            - data[dbm][PolicyId.PROPOSED].mean()
        )
        for dbm in POWER_VALUES_DBM
    ]
    ok = min(ses) > 3.0 and gaps[-1] > gaps[0]
    _report(
        "criterion 8: conventional leads the harvesting system everywhere and "
        "the lead widens with power",
        ok,
        f"min lead = {min(ses):.1f} SE, gap 10 dBm = {gaps[0]:.3f}, 40 dBm = {gaps[-1]:.3f}",
    )


def test_criterion_09_split_monotone_in_forward_quality(single_pair_cfg):
    b_grid = np.geomspace(1e-6, 1e6, 1000)
    g_grid = b_grid * single_pair_cfg.noise.sigma_d_sq / single_pair_cfg.eta
    rhos = np.array([split_and_gain(1.0, g, single_pair_cfg)[0] for g in g_grid])
    strictly_increasing = bool(np.all(np.diff(rhos) > 0.0))
    _report(
        "criterion 9: split ratio strictly increasing over 10^3 sorted b values",
        strictly_increasing,
        f"rho range [{rhos[0]:.3e}, {1 - rhos[-1]:.3e} below 1]",
    )


def test_criterion_10_sweeps_reproduce_byte_identically(default_cfg):
    power_spec = SweepSpec(
        variable="p_max_dbm",
        values=POWER_VALUES_DBM,
        trials=SWEEP_TRIALS,
        seed=POWER_SEED,
        policies=ALL_POLICIES,
    )
    position_spec = SweepSpec(
        variable="relay_position",
        values=POSITION_VALUES,
        trials=SWEEP_TRIALS,
        seed=POSITION_SEED,
        policies=(PolicyId.PROPOSED, PolicyId.CONVENTIONAL_NON_EH),
    )
    identical = True
    for spec in (power_spec, position_spec):
        first = sweep(default_cfg, spec).to_csv().encode()
        second = sweep(default_cfg, spec).to_csv().encode()
        identical = identical and first == second
    _report(
        "criterion 10: repeated sweep runs emit byte-identical CSV",
        identical,
    )
