"""Independent brute-force solvers that certify the closed forms.

Nothing here reuses a closed-form answer to check itself: the split ratio is
re-derived by bisecting the equal-rate condition, pairing optimality by
enumerating every permutation, and two-channel power allocation by a dense
grid search. ``verify`` bundles those plus the allocator invariants into a
machine-readable report.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .allocator import (
    _LN2,
    NoUsablePairError,
    effective_gain,
    optimal_rho,
    rate_terms,
    solve,
    waterfill,
)
from .model import AllocationResult, ChannelRealization, SubcarrierPairing, SystemConfig

__all__ = [
    "CheckResult",
    "VerificationReport",
    "best_pairing_exhaustive",
    "power_by_grid",
    "rho_by_bisection",
    "verify",
]

_EXHAUSTIVE_CAP = 8  # 8! = 40320 pairings


def _live(g_sq: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Which outgoing gains can carry rate, by the allocator's rule: the
    forward quality b = eta*g_sq/sigma_d_sq must be positive, so a gain whose
    b underflows to zero makes a dead pair, as does g_sq == 0 or eta == 0."""
    return cfg.eta * g_sq / cfg.noise.sigma_d_sq > 0.0


def rho_by_bisection(g_sq: float, cfg: SystemConfig, tol: float = 1e-12, p_mw: float = 1.0) -> float:
    """Locate the equal-rate split by bisection on rho over [0, 1].

    The decode term vanishes at rho = 0 and the forward term at rho = 1, so
    their difference brackets a sign change; the root does not depend on the
    probe power ``p_mw`` (nor on the incoming gain, fixed at 1 here).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    if not p_mw > 0.0:
        raise ValueError("p_mw must be positive")

    def gap(rho: float) -> float:
        term_decode, term_forward = rate_terms(1.0, g_sq, rho, p_mw, cfg)
        return term_decode - term_forward

    lo, hi = 0.0, 1.0
    if not (gap(lo) < 0.0 < gap(hi)):
        raise ValueError("equal-rate condition not bracketed; the pair is degenerate")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_pairing_exhaustive(channel: ChannelRealization, cfg: SystemConfig) -> tuple[SubcarrierPairing, float]:
    """Try all N! pairings, re-running splitting and water-filling for each;
    return the best pairing and its rate (ties go to the lexicographically
    smallest permutation). Guarded at N <= 8; beyond that use seeded sampled
    permutations instead of this oracle."""
    n = channel.n_subcarriers
    if n > _EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive pairing search is capped at N = {_EXHAUSTIVE_CAP} "
            f"(N! permutations); got N = {n}"
        )
    # per outgoing subcarrier, the split-dependent factor of gamma
    factor = np.zeros(n)
    for j in np.flatnonzero(_live(channel.g_sq, cfg)):
        rho_info, _ = optimal_rho(channel.g_sq[j], cfg)
        factor[j] = effective_gain(1.0, rho_info, cfg)
    best_perm: tuple[int, ...] | None = None
    best_rate = -math.inf
    for perm in itertools.permutations(range(n)):
        gam = channel.h_sq * factor[list(perm)]
        if np.any(gam > 0.0):
            powers = waterfill(gam, cfg.p_max)
            rate = float(np.sum(0.5 * np.log1p(gam * powers) / _LN2))
        else:
            rate = 0.0
        if rate > best_rate:
            best_perm, best_rate = perm, rate
    assert best_perm is not None
    return SubcarrierPairing(np.array(best_perm, dtype=np.int64)), best_rate


def power_by_grid(gammas, p_max: float, resolution: int = 10**6) -> np.ndarray:
    """Two-channel power allocation by dense grid search: P1 sweeps
    {0, p_max/resolution, ..., p_max}, P2 takes the remainder, and the summed
    rate is maximized. Accurate to one grid step."""
    gam = np.asarray(gammas, dtype=float)
    if gam.shape != (2,):
        raise ValueError("power_by_grid expects exactly two gains")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    p1 = np.linspace(0.0, p_max, resolution + 1)
    objective = np.log1p(gam[0] * p1) + np.log1p(gam[1] * (p_max - p1))
    best = int(np.argmax(objective))
    return np.array([p1[best], p_max - p1[best]])


@dataclass(frozen=True)
class CheckResult:
    check_name: str
    passed: bool
    residual: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "pass": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification pass; failures are entries, not faults."""

    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps([check.to_dict() for check in self.checks], indent=indent)

    @classmethod
    def merge(cls, reports) -> "VerificationReport":
        """Combine reports check-by-check, keeping the worst residual and
        AND-ing the verdicts."""
        merged: dict[str, CheckResult] = {}
        for report in reports:
            for check in report.checks:
                prev = merged.get(check.check_name)
                if prev is None:
                    merged[check.check_name] = check
                else:
                    merged[check.check_name] = CheckResult(
                        check.check_name,
                        prev.passed and check.passed,
                        max(prev.residual, check.residual),
                        check.tolerance,
                    )
        return cls(tuple(merged.values()))


def _pair_gammas(channel: ChannelRealization, result: AllocationResult, cfg: SystemConfig) -> np.ndarray:
    """Effective gains implied by the allocation's own splits (zero on pairs
    that cannot carry rate)."""
    gam = np.zeros(channel.n_subcarriers)
    for i in np.flatnonzero(_live(channel.g_sq[result.pairing.perm], cfg)):
        gam[i] = effective_gain(channel.h_sq[i], result.rho_i[i], cfg)
    return gam


def verify(
    channel: ChannelRealization,
    cfg: SystemConfig,
    tol: float = 1e-9,
    result: AllocationResult | None = None,
) -> VerificationReport:
    """Run every certifiable property on one realization.

    When ``result`` is omitted the allocator is run first; passing a result
    lets callers audit an externally produced (or deliberately corrupted)
    allocation. Requires N <= 8 for the exhaustive pairing check.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    from .baselines import solve_opa_no_pairing, solve_uniform  # cycle-free at call time

    if result is None:
        result = solve(channel, cfg)
    perm = result.pairing.perm
    n = channel.n_subcarriers
    checks: list[CheckResult] = []

    # equal-rate condition on every powered pair
    residual = 0.0
    for i in range(n):
        if result.powers[i] > 0.0:
            rho = min(max(result.rho_i[i], 0.0), 1.0)
            t_decode, t_forward = rate_terms(
                channel.h_sq[i], channel.g_sq[perm[i]], rho, result.powers[i], cfg
            )
            residual = max(residual, abs(t_decode - t_forward) / max(t_decode, 1e-12))
    checks.append(CheckResult("equal_rate", residual <= tol, residual, tol))

    # split ratios strictly inside (0, 1) on usable pairs
    residual = 0.0
    strict = True
    for i in np.flatnonzero(_live(channel.g_sq[perm], cfg)):
        rho = result.rho_i[i]
        residual = max(residual, -rho, rho - 1.0, 0.0)
        strict = strict and 0.0 < rho < 1.0
    checks.append(CheckResult("root_bounds", strict and residual <= tol, residual, tol))

    # split ratio monotone in the forward-quality scalar b
    residual = 0.0
    monotone = True
    if cfg.eta > 0.0:
        g_grid = np.geomspace(1e-4, 1e4, 64) * cfg.noise.sigma_d_sq / cfg.eta
        rhos = [optimal_rho(g, cfg)[0] for g in g_grid]
        for lo_rho, hi_rho in zip(rhos, rhos[1:]):
            residual = max(residual, lo_rho - hi_rho)
            monotone = monotone and hi_rho > lo_rho
    checks.append(CheckResult("monotone_rho_in_b", monotone and residual <= tol, max(residual, 0.0), tol))

    # stationarity of the power allocation
    gam = _pair_gammas(channel, result, cfg)
    active = result.powers > 0.0
    if np.any(active & (gam <= 0.0)):
        residual = math.inf
    else:
        budget = abs(math.fsum(result.powers) - cfg.p_max)
        inv = np.where(gam > 0.0, 1.0 / np.where(gam > 0.0, gam, 1.0), math.inf)
        levels = result.powers[active] + inv[active]
        level = float(np.mean(levels)) if levels.size else 0.0
        spread = float(np.max(np.abs(levels - level)) / level) if levels.size else 0.0
        idle = (~active) & (gam > 0.0)
        slack = float(max(0.0, np.max((level - inv[idle]) / level))) if np.any(idle) else 0.0
        residual = max(budget, spread, slack)
    checks.append(CheckResult("waterfill_kkt", residual <= tol, residual, tol))

    # no other pairing beats the sorted one
    _, best_rate = best_pairing_exhaustive(channel, cfg)
    residual = max(0.0, best_rate - result.total_rate)
    checks.append(CheckResult("pairing_optimality", residual <= tol, residual, tol))

    # every reduced policy is dominated on this very realization
    residual = 0.0
    for rival in (
        lambda: solve_opa_no_pairing(channel, cfg),
        lambda: solve_uniform(channel, cfg, use_pairing=True),
        lambda: solve_uniform(channel, cfg, use_pairing=False),
    ):
        try:
            rival_rate = rival().total_rate
        except NoUsablePairError:
            rival_rate = 0.0
        residual = max(residual, rival_rate - result.total_rate)
    checks.append(CheckResult("per_trial_dominance", residual <= tol, max(residual, 0.0), tol))

    return VerificationReport(tuple(checks))
