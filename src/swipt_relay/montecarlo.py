"""Seeded trial runner and parameter sweeps.

Comparisons use common random numbers: within one trial every policy sees the
identical channel realization. Trial t (1-based) of a run seeded with s draws
its channel from seed s + t; sweep point k offsets the run seed by
k * 1_000_000, so adding sweep points or policies never perturbs existing
results. A sweep is limited to fewer than 10^6 trials per point, so no two
points share a channel seed. Trials run serially and are reduced in trial
order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .allocator import NoUsablePairError
from .baselines import PolicyId, solve_policy
from .channel import _check_seed, generate_channel
from .model import ConfigError, SystemConfig, config_errors, dbm_to_mw, validate_config

__all__ = [
    "POINT_SEED_STRIDE",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "TrialResult",
    "run_trials",
    "sweep",
]

POINT_SEED_STRIDE = 1_000_000  # collision-free for < 10^6 trials per point

SWEEP_VARIABLES = ("p_max_dbm", "relay_position")

CSV_COLUMNS = (
    "sweep_variable",
    "sweep_value",
    "policy",
    "mean_rate_bps_hz",
    "std_rate",
    "trials",
    "seed",
)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: which knob to vary, where, and how hard to average."""

    variable: str
    values: tuple[float, ...]
    trials: int
    seed: int
    policies: tuple[PolicyId, ...]

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("values must be nonempty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        policies = tuple(self.policies)
        if not policies:
            raise ValueError("policies must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials >= POINT_SEED_STRIDE:
            raise ValueError(
                f"trials must be below {POINT_SEED_STRIDE}, the per-point seed stride, "
                "so that no two sweep points share a channel seed"
            )
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "policies", policies)


@dataclass(frozen=True)
class TrialResult:
    """Per-policy rate vectors over one batch of trials. ``dead_trials``
    counts trials a policy had to score as zero because no pair was usable."""

    rates: dict[PolicyId, np.ndarray]
    dead_trials: dict[PolicyId, int]


def run_trials(cfg: SystemConfig, policies, trials: int, seed: int) -> TrialResult:
    """Evaluate every policy on ``trials`` common channel draws.

    Deterministic given (cfg, policies, trials, seed).
    """
    validate_config(cfg)
    policies = tuple(policies)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seed = _check_seed(seed)
    rates = {policy: np.empty(trials) for policy in policies}
    dead = {policy: 0 for policy in policies}
    for index in range(trials):
        chan = generate_channel(cfg, seed + index + 1)
        for policy in policies:
            try:
                rates[policy][index] = solve_policy(policy, chan, cfg).total_rate
            except NoUsablePairError:
                rates[policy][index] = 0.0
                dead[policy] += 1
    for arr in rates.values():
        arr.setflags(write=False)
    return TrialResult(rates, dead)


@dataclass(frozen=True)
class SweepRow:
    sweep_variable: str
    sweep_value: float
    policy: str
    mean_rate_bps_hz: float
    std_rate: float
    trials: int
    seed: int


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep table, one row per (sweep point, policy)."""

    rows: tuple[SweepRow, ...]

    def to_csv(self, banner: str | None = None) -> str:
        """Render the stable CSV form; a non-None ``banner`` is emitted as a
        leading comment line."""
        buf = io.StringIO()
        if banner is not None:
            buf.write(f"# {banner}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(
                [
                    row.sweep_variable,
                    repr(row.sweep_value),
                    row.policy,
                    repr(row.mean_rate_bps_hz),
                    repr(row.std_rate),
                    row.trials,
                    row.seed,
                ]
            )
        return buf.getvalue()


def _substitute(cfg: SystemConfig, variable: str, value: float) -> SystemConfig:
    if variable == "p_max_dbm":
        return replace(cfg, p_max=dbm_to_mw(value))
    if variable == "relay_position":
        return replace(cfg, dr=value * cfg.d0)
    raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")


def sweep(cfg: SystemConfig, spec: SweepSpec) -> SweepResult:
    """Run ``spec`` against ``cfg``: each sweep value is substituted into a
    copy of the config (relay_position is a fraction of d0), trials run under
    a value-indexed seed offset, and per-policy mean/std are tabulated.

    Every point's config is built and checked before the first trial runs, so
    an invalid later point fails at once, with the error ``run_trials``
    would raise on it, instead of after the earlier points' trials.
    ``run_trials`` still validates each point it is given, as it validates
    any caller's config.
    """
    points = [_substitute(cfg, spec.variable, value) for value in spec.values]
    for point in points:
        errors = config_errors(point)
        if errors:
            raise ConfigError(errors)
    rows: list[SweepRow] = []
    for index, (value, point) in enumerate(zip(spec.values, points)):
        batch = run_trials(point, spec.policies, spec.trials, spec.seed + index * POINT_SEED_STRIDE)
        for policy in spec.policies:
            rates = batch.rates[policy]
            std = float(rates.std(ddof=1)) if spec.trials > 1 else 0.0
            rows.append(
                SweepRow(
                    sweep_variable=spec.variable,
                    sweep_value=float(value),
                    policy=policy.value,
                    mean_rate_bps_hz=float(rates.mean()),
                    std_rate=std,
                    trials=spec.trials,
                    seed=spec.seed,
                )
            )
    return SweepResult(tuple(rows))
