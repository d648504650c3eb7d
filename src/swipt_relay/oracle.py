"""An independent brute-force search that certifies the closed forms.

Nothing here reuses a closed-form answer to check itself: pairing optimality
is re-derived by enumerating every permutation. ``verify`` audits one result
on the Python floats it reads once from the channel and the result, and
reports six checks:

- ``equal_rate``: the two rate terms meet on every pair given a finite,
  positive power;
- ``root_bounds``: the split of every pair that can carry rate lies
  strictly inside (0, 1);
- ``monotone_rho_in_b``: the split rises with the forward quality b;
- ``waterfill_kkt``: the powers spend the budget at one water level;
- ``pairing_optimality``: the exhaustive search finds no better pairing, and
  the claimed rates, in total and per pair, are the ones the splits and
  powers deliver;
- ``per_trial_dominance``: no reduced policy beats the result on this
  realization.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .allocator import (
    AllocationResult,
    SubcarrierPairing,
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
from .baselines import _trial_rates
from .channel import ChannelRealization
from .model import PolicyId, SystemConfig, _real

__all__ = [
    "CheckResult",
    "VerificationReport",
    "best_pairing_exhaustive",
    "verify",
]

_EXHAUSTIVE_CAP = 8  # 8! = 40320 pairings

# the forward-quality scalars b at which verify checks that rho_I rises
_MONOTONE_B_GRID = tuple(np.geomspace(1e-4, 1e4, 64).tolist())

# the reduced policies the proposed one must dominate on every realization
_RIVALS = (PolicyId.OPA_NO_PAIRING, PolicyId.UNIFORM_WITH_PAIRING, PolicyId.UNIFORM_NO_PAIRING)


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
        return bool(self.checks) and all(check.passed for check in self.checks)

    def to_json(self) -> str:
        return json.dumps([check.to_dict() for check in self.checks], indent=2)

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


def _check_verify_args(cfg: SystemConfig, tol) -> float:
    """``tol`` as a Python float, once ``cfg`` and ``tol`` pass
    :func:`verify`'s first two checks, which need no channel: at most 8
    subcarriers, and a positive, finite tolerance."""
    if cfg.n_subcarriers > _EXHAUSTIVE_CAP:
        raise ValueError(
            f"n_subcarriers must be at most {_EXHAUSTIVE_CAP} for verification "
            "(the pairing check enumerates all N! permutations)"
        )
    tol = _real(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    return tol


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
    before anything else runs); unless ``tol`` is a positive, finite real
    number ("tolerance must be positive and finite"; a bool, a string or
    ``None`` is not one, and an int past the float range is not finite),
    which each check then carries as a Python float; and when the channel
    or the result is not as wide as ``cfg``.

    A result's powers are audited only when each is finite and nonnegative
    and their sum is finite. Other powers leave no water level and deliver
    no rate: ``waterfill_kkt`` fails with residual inf and
    ``pairing_optimality`` with residual NaN, and nothing is raised. A NaN
    split fails ``root_bounds`` with residual NaN and is read as 0 by the
    other checks, and nothing is raised either.
    """
    tol = _check_verify_args(cfg, tol)
    _check_width(channel.n_subcarriers, cfg)
    if result is None:
        result = solve(channel, cfg)
    for vec in (result.pairing.perm, result.rho_i, result.powers, result.pair_rates):
        _check_width(vec.size, cfg, "result")
    h_sq = channel.h_sq.tolist()
    g_sq = channel.g_sq[result.pairing.perm].tolist()
    raw_rho = result.rho_i.tolist()
    # root_bounds fails a split outside [0, 1] and a NaN one; the other checks
    # take it clamped, and a NaN split as 0
    rho_i = np.clip(np.nan_to_num(result.rho_i, nan=0.0), 0.0, 1.0).tolist()
    powers = result.powers.tolist()
    # the powers are audited only when each is finite and nonnegative and
    # their sum is finite: others leave no water level and deliver no rate.
    # fsum raises OverflowError where finite powers sum past the float range
    audited = all(0.0 <= p < math.inf for p in powers)
    try:
        budget = abs(math.fsum(powers) - cfg.p_max) if audited else math.inf
    except OverflowError:
        budget = math.inf
    audited = budget < math.inf
    # the pairs that can carry rate, by split_and_gain's rule: the forward
    # quality b = eta*g_sq/sigma_d_sq must be positive, so a b that
    # underflows to zero makes a dead pair, as does g_sq == 0 or eta == 0; on
    # Python floats a b past the float range is inf, with no warning
    live = [cfg.eta * g / cfg.noise.sigma_d_sq > 0.0 for g in g_sq]
    checks: list[CheckResult] = []

    # equal-rate condition on every pair powered with a finite power
    gaps = []
    for h, g, rho, p in zip(h_sq, g_sq, rho_i, powers):
        if 0.0 < p < math.inf:
            t_decode, t_forward = rate_terms(h, g, rho, p, cfg)
            gaps.append(abs(t_decode - t_forward) / max(t_decode, 1e-12))
    residual = _worst(gaps)
    checks.append(CheckResult("equal_rate", residual <= tol, residual, tol))

    # split ratios strictly inside (0, 1) on usable pairs
    gaps = []
    strict = True
    for rho, ok in zip(raw_rho, live):
        if ok:
            gaps += (-rho, rho - 1.0)
            strict = strict and 0.0 < rho < 1.0
    residual = _worst(gaps)
    checks.append(CheckResult("root_bounds", strict and residual <= tol, residual, tol))

    # split ratio monotone in the forward-quality scalar b
    residual = 0.0
    monotone = True
    if cfg.eta > 0.0:
        # rho_I depends on b, s_ra and s_rb alone, and at eta = 1 and
        # sigma_d_sq = 1 the outgoing gain is b: so the grid spans b itself,
        # whatever eta and sigma_d_sq are, with no g that overflows or
        # collapses to subnormals
        unit = replace(cfg, eta=1.0, noise=replace(cfg.noise, sigma_da_sq=0.5, sigma_db_sq=0.5))
        rhos = [split_and_gain(1.0, b, unit)[0] for b in _MONOTONE_B_GRID]
        for lo_rho, hi_rho in zip(rhos, rhos[1:]):
            residual = max(residual, lo_rho - hi_rho)
            monotone = monotone and hi_rho > lo_rho
    checks.append(CheckResult("monotone_rho_in_b", monotone and residual <= tol, max(residual, 0.0), tol))

    # stationarity of the power allocation, on the gains the splits imply; a
    # 1/gamma past the float range is inf, which no level reaches
    gam = [effective_gain(h, rho, cfg) if ok else 0.0 for h, rho, ok in zip(h_sq, rho_i, live)]
    inv = [1.0 / g if g > 0.0 else math.inf for g in gam]
    active = [p > 0.0 for p in powers]
    # no water level exists where the powers are not audited, no pair is
    # powered or a powered pair carries nothing
    if not audited or not any(active) or any(on and g <= 0.0 for on, g in zip(active, gam)):
        residual = math.inf
    elif min(inv) == math.inf:
        # every live 1/gamma overflows, so no level is finite: the whole
        # budget must sit on one pair, and that pair must be the strongest
        strongest = active.count(True) == 1 and gam[active.index(True)] == max(gam)
        residual = budget if strongest else math.inf
    else:
        # a powered pair whose 1/gamma overflows makes the level inf, and
        # inf - inf is NaN on Python floats, with no warning
        levels = [p + x for p, x, on in zip(powers, inv, active) if on]
        level = float(np.mean(levels))
        spread = _worst([abs(x - level) for x in levels]) / level
        slack = [(level - x) / level for x, on, g in zip(inv, active, gam) if not on and g > 0.0]
        residual = _worst([budget, spread, *slack])
    checks.append(CheckResult("waterfill_kkt", residual <= tol, residual, tol))

    # no other pairing beats the sorted one, and the claimed rates, in total
    # and per pair, are the ones the splits and powers deliver; an infinite
    # claimed rate has no defined gap to the search's finite one
    _, best_rate = best_pairing_exhaustive(channel, cfg)
    gap = best_rate - result.total_rate if math.isfinite(result.total_rate) else math.nan
    pair_rates = _pair_rates(np.array(gam), result.powers) if audited else np.full(len(gam), math.nan)
    delivered = float(pair_rates.sum())
    excess = [(claim - rate) / max(rate, 1e-12) for claim, rate in zip(result.pair_rates.tolist(), pair_rates.tolist())]
    residual = _worst((gap, (result.total_rate - delivered) / max(delivered, 1e-12), *excess))
    checks.append(CheckResult("pairing_optimality", residual <= tol, residual, tol))

    # every reduced policy is dominated on this very realization; a rival
    # with no usable pair scores 0
    rival_rates, _ = _trial_rates(_RIVALS, [channel], cfg)
    residual = _worst([rate - result.total_rate for rate in rival_rates[:, 0].tolist()])
    checks.append(CheckResult("per_trial_dominance", residual <= tol, residual, tol))

    return VerificationReport(tuple(checks))
