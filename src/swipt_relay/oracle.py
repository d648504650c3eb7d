"""Independent brute-force solvers that certify the closed forms.

Nothing here reuses a closed-form answer to check itself: the split ratio is
re-derived by bisecting the equal-rate condition, pairing optimality by
enumerating every permutation, and two-channel power allocation by a dense
grid search. ``verify`` bundles those plus the allocator invariants into a
machine-readable report.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .allocator import (
    _GAMMA_MIN_INVERTIBLE,
    NoUsablePairError,
    _check_budget,
    _check_width,
    _pair_rates,
    _table_rates,
    _water_filled,
    effective_gain,
    rate_terms,
    solve,
    split_and_gain,
)
# not called here, but perfbench/spans.py BINDINGS looks it up by this name
from .allocator import waterfill  # noqa: F401
from .baselines import PolicyId, _trial_rates
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

# the reduced policies the proposed one must dominate on every realization
_RIVALS = (PolicyId.OPA_NO_PAIRING, PolicyId.UNIFORM_WITH_PAIRING, PolicyId.UNIFORM_NO_PAIRING)


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


@functools.lru_cache(maxsize=_EXHAUSTIVE_CAP)
def _permutations(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 as the rows of a read-only ``(n!, n)``
    array, in the lexicographic order of ``itertools.permutations``."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    perms.setflags(write=False)
    return perms


def best_pairing_exhaustive(channel: ChannelRealization, cfg: SystemConfig) -> tuple[SubcarrierPairing, float]:
    """Try all N! pairings, re-running splitting and water-filling for each;
    return the best pairing and its rate (ties go to the lexicographically
    smallest permutation). Guarded at N <= 8; beyond that use seeded sampled
    permutations instead of this oracle.

    The candidates are the rows of one ``(N!, N)`` table of effective gains,
    built from the N per-subcarrier split factors and scored by the sweep's
    scorer, ``allocator._table_rates``: each row is water-filled by its own
    ``waterfill`` call, N! calls in all. A row of dead pairs makes its call
    too, which raises :class:`NoUsablePairError`, and scores 0. The rates of
    all rows are then summed at once. At N = 8 each ``(N!, N)`` float table
    (gains, powers, rate terms) is 40320 x 8, about 2.6 MB, and a call peaks
    near 10 MB; at N = 6 a table is 35 KB.
    """
    _check_width(channel.n_subcarriers, cfg)
    n = cfg.n_subcarriers
    if n > _EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive pairing search is capped at N = {_EXHAUSTIVE_CAP} "
            f"(N! permutations); got N = {n}"
        )
    # per outgoing subcarrier, the split-dependent factor of gamma (0 if dead)
    factor = np.array([split_and_gain(1.0, g, cfg)[1] for g in channel.g_sq.tolist()])
    perms = _permutations(n)
    # row r pairs incoming subcarrier i with outgoing perms[r, i]
    rates, _ = _table_rates(channel.h_sq * factor[perms], _water_filled, cfg)
    # the first largest rate: ties go to the earliest row
    best = int(np.argmax(rates))
    return SubcarrierPairing(perms[best]), float(rates[best])


def power_by_grid(gammas, p_max: float, resolution: int = 10**6) -> np.ndarray:
    """Two-channel power allocation by dense grid search: P1 sweeps
    {0, p_max/resolution, ..., p_max}, P2 takes the remainder, and the summed
    rate is maximized. Accurate to one grid step. Rejects gains and a
    budget that ``waterfill`` rejects, with the same messages, raises
    :class:`NoUsablePairError` where both gains are zero, and takes only an
    int resolution."""
    gam = np.asarray(gammas, dtype=float)
    if gam.shape != (2,):
        raise ValueError("power_by_grid expects exactly two gains")
    if not ((gam >= 0.0) & (gam < math.inf)).all():
        raise ValueError("gammas must be finite and nonnegative")
    _check_budget(p_max)
    if not (gam > 0.0).any():
        raise NoUsablePairError("no usable pair: every effective gain is zero")
    if isinstance(resolution, bool) or not isinstance(resolution, (int, np.integer)) or resolution < 1:
        raise ValueError("resolution must be an int >= 1")
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
                        _worst((prev.residual, check.residual)),
                        check.tolerance,
                    )
        return cls(tuple(merged.values()))


def _worst(residuals) -> float:
    """The largest of ``residuals`` and 0.0, or NaN if any residual is NaN.

    The builtin ``max`` drops a NaN that is not its first argument, which
    would let an undefined residual (say inf - inf) pass its check.
    """
    worst = 0.0
    for residual in residuals:
        if math.isnan(residual):
            return residual
        if residual > worst:
            worst = residual
    return worst


def _pair_gammas(channel: ChannelRealization, perm: np.ndarray, rho_i: np.ndarray, cfg: SystemConfig):
    """Effective gains implied by the splits ``rho_i`` of the pairs that
    forward subcarrier i over ``perm[i]`` (zero on pairs that cannot carry
    rate)."""
    gam = np.zeros(channel.n_subcarriers)
    for i in np.flatnonzero(_live(channel.g_sq[perm], cfg)):
        gam[i] = effective_gain(channel.h_sq[i], rho_i[i], cfg)
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
    allocation. Raises ``ValueError`` when ``cfg`` has more than 8
    subcarriers, which the exhaustive pairing check cannot enumerate (checked
    before anything else runs), and when the channel or the result is not as
    wide as ``cfg``.
    """
    if cfg.n_subcarriers > _EXHAUSTIVE_CAP:
        raise ValueError(
            f"n_subcarriers must be at most {_EXHAUSTIVE_CAP} for verification "
            "(the pairing check enumerates all N! permutations)"
        )
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    _check_width(channel.n_subcarriers, cfg)
    if result is None:
        result = solve(channel, cfg)
    for vec in (result.pairing.perm, result.rho_i, result.powers):
        _check_width(vec.size, cfg, "result")
    perm = result.pairing.perm
    # root_bounds fails a split outside [0, 1]; the other checks take it clamped
    rho_i = np.clip(result.rho_i, 0.0, 1.0)
    n = channel.n_subcarriers
    checks: list[CheckResult] = []

    # equal-rate condition on every powered pair
    gaps = []
    for i in range(n):
        if result.powers[i] > 0.0:
            t_decode, t_forward = rate_terms(
                channel.h_sq[i], channel.g_sq[perm[i]], rho_i[i], result.powers[i], cfg
            )
            gaps.append(abs(t_decode - t_forward) / max(t_decode, 1e-12))
    residual = _worst(gaps)
    checks.append(CheckResult("equal_rate", residual <= tol, residual, tol))

    # split ratios strictly inside (0, 1) on usable pairs
    gaps = []
    strict = True
    for i in np.flatnonzero(_live(channel.g_sq[perm], cfg)):
        rho = result.rho_i[i]
        gaps += (-rho, rho - 1.0)
        strict = strict and 0.0 < rho < 1.0
    residual = _worst(gaps)
    checks.append(CheckResult("root_bounds", strict and residual <= tol, residual, tol))

    # split ratio monotone in the forward-quality scalar b
    residual = 0.0
    monotone = True
    if cfg.eta > 0.0:
        g_grid = np.geomspace(1e-4, 1e4, 64) * cfg.noise.sigma_d_sq / cfg.eta
        rhos = [split_and_gain(1.0, g, cfg)[0] for g in g_grid]
        for lo_rho, hi_rho in zip(rhos, rhos[1:]):
            residual = max(residual, lo_rho - hi_rho)
            monotone = monotone and hi_rho > lo_rho
    checks.append(CheckResult("monotone_rho_in_b", monotone and residual <= tol, max(residual, 0.0), tol))

    # stationarity of the power allocation
    gam = _pair_gammas(channel, perm, rho_i, cfg)
    active = result.powers > 0.0
    # a pair whose 1/gamma overflows is idle beside a usable one
    usable = gam > _GAMMA_MIN_INVERTIBLE
    budget = abs(math.fsum(result.powers) - cfg.p_max)
    if np.any(active & (gam <= 0.0)):
        residual = math.inf
    elif not usable.any():
        # every live 1/gamma overflows, so no level is finite: the whole
        # budget must sit on one pair, and that pair must be the strongest
        strongest = np.count_nonzero(active) == 1 and gam[active].item() == gam.max()
        residual = budget if strongest else math.inf
    else:
        inv = np.full(n, math.inf)
        inv[usable] = 1.0 / gam[usable]
        levels = result.powers[active] + inv[active]
        level = float(np.mean(levels)) if levels.size else 0.0
        spread = float(np.max(np.abs(levels - level)) / level) if levels.size else 0.0
        idle = (~active) & (gam > 0.0)
        slack = float(np.max((level - inv[idle]) / level)) if np.any(idle) else 0.0
        residual = _worst((budget, spread, slack))
    checks.append(CheckResult("waterfill_kkt", residual <= tol, residual, tol))

    # no other pairing beats the sorted one, and the claimed rate is the one
    # the splits and powers deliver; an infinite claimed rate has no defined
    # gap to the search's finite one
    _, best_rate = best_pairing_exhaustive(channel, cfg)
    gap = best_rate - result.total_rate if math.isfinite(result.total_rate) else math.nan
    delivered = float(_pair_rates(gam, result.powers, cfg.p_max).sum())
    residual = _worst((gap, (result.total_rate - delivered) / max(delivered, 1e-12)))
    checks.append(CheckResult("pairing_optimality", residual <= tol, residual, tol))

    # every reduced policy is dominated on this very realization; a rival
    # with no usable pair scores 0
    rival_rates, _ = _trial_rates(_RIVALS, [channel], cfg)
    residual = _worst([rate - result.total_rate for rate in rival_rates[:, 0].tolist()])
    checks.append(CheckResult("per_trial_dominance", residual <= tol, residual, tol))

    return VerificationReport(tuple(checks))
