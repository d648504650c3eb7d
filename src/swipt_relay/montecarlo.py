"""Seeded trial runner and parameter sweeps.

Comparisons use common random numbers: within one trial every policy sees the
identical channel realization. Trial t (1-based) of a run seeded with s draws
its channel from seed s + t; sweep point k offsets the run seed by
k * 1_000_000, so adding sweep points or policies never perturbs existing
results. A sweep is limited to fewer than 10^6 trials per point, so no two
points share a channel seed. Trials run serially in blocks: a block's
channels are generated in seed order, then the policy rules of ``baselines``
score the whole block as ``(b, N)`` tables and keep only total rates. Rates
are reduced in trial order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .baselines import _check_policies, _trial_rates
from .channel import _check_seed, generate_channel
from .model import SWEEP_VARIABLES, PolicyId, SystemConfig, _is_int, _real, dbm_to_mw
# not called here, but perfbench/spans.py BINDINGS looks them up by these names
from .baselines import solve_policy  # noqa: F401
from .model import validate_config  # noqa: F401

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

# subcarrier pairs per block of trials, a trial counting as at least
# _MIN_TRIAL_PAIRS pairs: 256 trials up to N=16, 64 at N=64, 16 at N=256.
# A block pays ~20 NumPy calls per policy whatever its length; at N=4,
# 256-trial blocks took 3-5% less process time per trial than 64-trial
# ones, and 1024-trial blocks ~2.5% less again while holding ~1 MB more. At
# N=256, process time per trial shows no consistent order between 4-, 16-
# and 64-trial blocks, and 64-trial blocks hold ~2 MB more.
_BLOCK_PAIRS = 4096
_MIN_TRIAL_PAIRS = 16


def _block_trials(n_subcarriers: int) -> int:
    """The trials in one block of :func:`run_trials` at ``n_subcarriers``."""
    return max(_BLOCK_PAIRS // max(n_subcarriers, _MIN_TRIAL_PAIRS), 1)


def _check_trials(trials) -> None:
    if not (_is_int(trials) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")


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
        values = tuple(_real(v) for v in self.values)
        if not values:
            raise ValueError("values must be nonempty")
        # a NaN (also what a value that is not a number reads as) compares
        # false either way, so the order check would pass it
        if not all(math.isfinite(v) for v in values):
            raise ValueError("values must be finite")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        policies = _check_policies(self.policies)
        if len(set(policies)) != len(policies):
            raise ValueError("policies must not repeat")
        _check_trials(self.trials)
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
    counts the trials in which a policy powered no pair, each scored as
    zero: no pair was usable, or the policy's powers underflowed to 0."""

    rates: dict[PolicyId, np.ndarray]
    dead_trials: dict[PolicyId, int]


def run_trials(cfg: SystemConfig, policies, trials: int, seed: int) -> TrialResult:
    """Evaluate every policy on ``trials`` common channel draws.

    The trials run in blocks of :func:`_block_trials` trials, 256 up to
    N=16 and fewer past it (see ``_BLOCK_PAIRS``); no bit depends on the
    block length. A block first draws its channels, one per trial in seed
    order, then scores all distinct policies on them
    (``baselines._trial_rates``): the block's sorted pairings are computed
    once, each policy takes its gains over the whole block, and only the
    total rates are kept, with the bits each policy's
    ``solve_policy(...).total_rate`` has. Running one layer over a block at
    a time, not alternating them per trial, keeps each layer's code and data
    cache-resident. A policy named twice is evaluated once. The
    policies, an integer ``trials`` of at least 1 and the seed are checked
    before the first trial; ``cfg`` was checked when it was built.

    Deterministic given (cfg, policies, trials, seed).
    """
    distinct = tuple(dict.fromkeys(_check_policies(policies)))
    _check_trials(trials)
    seed = _check_seed(seed)
    table = np.empty((len(distinct), trials))
    dead = np.zeros(len(distinct), dtype=np.int64)
    block = _block_trials(cfg.n_subcarriers)
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        channels = [generate_channel(cfg, seed + index + 1) for index in range(start, stop)]
        table[:, start:stop], dead_now = _trial_rates(distinct, channels, cfg)
        dead += dead_now.sum(axis=1)
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


# the CSV header: one column per SweepRow field, in field order
CSV_COLUMNS = tuple(field.name for field in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep table, one row per (sweep point, policy)."""

    rows: tuple[SweepRow, ...]

    def to_csv(self, banner: str | None = None) -> str:
        """Render the stable CSV form; a non-None ``banner`` is emitted as a
        leading comment line. Raises ``ValueError`` when the banner holds a
        line break, which would put a line that is not a comment above the
        header."""
        buf = io.StringIO()
        if banner is not None:
            if "\n" in banner or "\r" in banner:
                raise ValueError("banner must be one line")
            buf.write(f"# {banner}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # the csv module writes a float as its repr
        writer.writerows(map(astuple, self.rows))
        return buf.getvalue()


def _substitute(cfg: SystemConfig, variable: str, value: float) -> SystemConfig:
    if variable == "p_max_dbm":
        return replace(cfg, p_max=dbm_to_mw(value))
    return replace(cfg, dr=value * cfg.d0)  # relay_position, as SweepSpec checks


def sweep(cfg: SystemConfig, spec: SweepSpec) -> SweepResult:
    """Run ``spec`` against ``cfg``: each sweep value is substituted into a
    copy of the config (relay_position is a fraction of d0), trials run under
    a value-indexed seed offset, and per-policy mean/std are tabulated.

    Every point's config is built, and so checked, before the first trial
    runs, so an invalid later point raises its ``ConfigError`` (or, for a
    dBm value past the float range, its ``ValueError``) at once, instead of
    after the earlier points' trials.
    """
    points = [_substitute(cfg, spec.variable, value) for value in spec.values]
    rows: list[SweepRow] = []
    for index, (value, point) in enumerate(zip(spec.values, points)):
        batch = run_trials(point, spec.policies, spec.trials, spec.seed + index * POINT_SEED_STRIDE)
        for policy in spec.policies:
            rates = batch.rates[policy]
            std = float(rates.std(ddof=1)) if spec.trials > 1 else 0.0
            rows.append(
                SweepRow(
                    sweep_variable=spec.variable,
                    sweep_value=value,
                    policy=policy.value,
                    mean_rate_bps_hz=float(rates.mean()),
                    std_rate=std,
                    trials=spec.trials,
                    seed=spec.seed,
                )
            )
    return SweepResult(tuple(rows))
