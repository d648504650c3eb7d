"""Seeded trial runner and parameter sweeps.

Comparisons use common random numbers: within one trial every policy sees the
identical channel realization. Trial t (1-based) of a run seeded with s draws
its channel from seed s + t; sweep point k offsets the run seed by
k * 1_000_000, so adding sweep points or policies never perturbs existing
results. A sweep is limited to fewer than 10^6 trials per point, so no two
points share a channel seed. Trials run serially and are reduced in trial
order. Each trial scores all its policies in one pass over the policy rows of
``baselines`` and keeps only their total rates.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from .baselines import PolicyId, _trial_rates
# not called here, but perfbench/spans.py BINDINGS looks it up by this name
from .baselines import solve_policy  # noqa: F401
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


def _check_policies(policies) -> tuple[PolicyId, ...]:
    policies = tuple(policies)
    for policy in policies:
        if not isinstance(policy, PolicyId):
            raise ValueError(f"unhandled policy: {policy!r}")
    if not policies:
        raise ValueError("policies must be nonempty")
    return policies


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
        policies = _check_policies(self.policies)
        if len(set(policies)) != len(policies):
            raise ValueError("policies must not repeat")
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

    Each trial draws one channel and scores all distinct policies on it in
    one pass (``baselines._trial_rates``): the sorted pairing is computed
    once and only the total rates are kept, with the bits each policy's
    ``solve_policy(...).total_rate`` has. A policy named twice is evaluated
    once. The policies are checked, and must be nonempty, before the first
    trial.

    Deterministic given (cfg, policies, trials, seed).
    """
    validate_config(cfg)
    distinct = tuple(dict.fromkeys(_check_policies(policies)))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seed = _check_seed(seed)
    table = np.empty((len(distinct), trials))
    dead = np.zeros(len(distinct), dtype=np.int64)
    for index in range(trials):
        chan = generate_channel(cfg, seed + index + 1)
        table[:, index], dead_now = _trial_rates(distinct, chan, cfg)
        dead += dead_now
    table.setflags(write=False)
    return TrialResult(
        {policy: table[k] for k, policy in enumerate(distinct)},
        {policy: int(dead[k]) for k, policy in enumerate(distinct)},
    )


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
