"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. Operation ``j`` (0, 1, 2, ...) has inputs of
its own that no other operation shares (its channel seeds are disjoint from
every other operation's), so no input repeats within a run. The outputs of
the first ``pool_size`` operations are pinned under ``reference/``; the
benchmark seed chooses which of them a run uses and in what order. A run that
uses up the pool goes on with fresh operations past it, which are checked by
the sanity checks below and by the oracle sample only.

The calls go through module attributes (``montecarlo.sweep``, not a name
imported once) so the traced run sees them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from swipt_relay import allocator, channel, model, montecarlo, oracle
from swipt_relay.allocator import NoUsablePairError
from swipt_relay.baselines import PolicyId

POLICIES = tuple(PolicyId)
REL_TOL = 1e-12  # the refactor rule: outputs may drift by at most this much
WARM_UP_SEED = 10**9  # far past every operation's seeds


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


class Workload:
    """Defaults shared by the workloads.

    ``cycle``: a run stops only after a multiple of this many operations, so
    every run sees the same mix of operation kinds. ``min_ops``: a run lasts
    at least this many operations (unless that takes three times
    ``--seconds``)."""

    cycle = 1
    min_ops = 2  # a percentile needs two samples

    def config(self) -> model.SystemConfig:
        return replace(model.default_config(), n_subcarriers=self.n_subcarriers, taps=self.taps)

    def order(self, rng: np.random.Generator):
        """The run's operations: a seeded permutation of the pinned pool,
        then fresh operations past it."""
        return itertools.chain((int(j) for j in rng.permutation(self.pool_size)), itertools.count(self.pool_size))

    def record(self, output):
        """The part of an output that is pinned as its reference."""
        return output

    def merge(self, merged, output):
        """Fold one output into the run's merged result."""
        return None

    def merged_failures(self, merged, n_ops: int) -> int:
        return 0

    def oracle_failures(self, cfg, ops, rng) -> int:
        return 0


class SweepWorkload(Workload):
    """Operation ``j`` is one sweep point, ``sweep(cfg, spec).to_csv()``
    over ``trials`` trials at the point ``values[j % len(values)]``, with
    master seed ``trials * j``; a trial is one realization evaluated under
    every policy. Runs stop at whole rounds of the points."""

    def __init__(self, name, n_subcarriers, taps, values, trials, pool_size, oracle_samples):
        self.name = name
        self.n_subcarriers = n_subcarriers
        self.taps = taps
        self.values = tuple(float(v) for v in values)
        self.trials = trials
        self.pool_size = pool_size
        self.oracle_samples = oracle_samples
        self.cycle = len(self.values)
        self.trials_per_op = trials
        self.attempted_per_op = trials * len(POLICIES)
        if pool_size % self.cycle:
            raise ValueError("the pool must hold whole rounds of the sweep points")

    def order(self, rng: np.random.Generator):
        """Rounds of the points in a fixed order; within each point the
        pinned operations are taken in a seeded order."""
        per_point = [rng.permutation(np.arange(p, self.pool_size, self.cycle)) for p in range(self.cycle)]
        rounds = (int(j) for round_ in zip(*per_point) for j in round_)
        return itertools.chain(rounds, itertools.count(self.pool_size))

    def _sweep(self, cfg, value: float, trials: int, seed: int):
        spec = montecarlo.SweepSpec("p_max_dbm", (value,), trials, seed, POLICIES)
        result = montecarlo.sweep(cfg, spec)
        csv_text = result.to_csv()
        if csv_text.count("\n") != len(result.rows) + 1:
            raise RuntimeError("CSV does not have one line per row")
        return np.array([[row.mean_rate_bps_hz, row.std_rate] for row in result.rows])

    def run(self, cfg, j: int):
        return self._sweep(cfg, self.values[j % self.cycle], self.trials, self.trials * j)

    def warm_up(self, cfg) -> None:
        self._sweep(cfg, self.values[0], 8, WARM_UP_SEED)

    def failures(self, output, reference) -> int:
        """Operations failed in one sweep point: a row that misses its
        reference, or that is not a finite nonnegative rate when the point is
        past the pool, fails all of its trials."""
        if isinstance(output, Exception) or output.shape != (len(POLICIES), 2):
            return self.attempted_per_op
        if reference is None:
            bad_rows = np.count_nonzero(~(np.isfinite(output) & (output >= 0.0)).all(axis=1))
        else:
            bad_rows = sum(
                not (_close(got[0], want[0]) and _close(got[1], want[1]))
                for got, want in zip(output.tolist(), reference.tolist())
            )
        return int(bad_rows) * self.trials

    def expected_calls(self, n_ops: int) -> dict[str, int]:
        trials = n_ops * self.trials
        return {
            "channel.generate_channel": trials,
            # proposed, opa-nopair and conventional water-fill; uniform does not
            "allocator.waterfill": 3 * trials,
            # every policy but conventional splits each of the N pairs
            "allocator.split_and_gain": 4 * self.n_subcarriers * trials,
        }

    def oracle_failures(self, cfg, ops, rng) -> int:
        """Re-certify a seeded sample of the run's realizations with
        ``oracle.verify``; a failing realization fails every policy on it."""
        failed = 0
        for _ in range(self.oracle_samples):
            j = ops[int(rng.integers(len(ops)))]
            cfg_point = replace(cfg, p_max=model.dbm_to_mw(self.values[j % self.cycle]))
            seed = self.trials * j + 1 + int(rng.integers(self.trials))
            report = oracle.verify(channel.generate_channel(cfg_point, seed), cfg_point)
            failed += 0 if report.all_pass else len(POLICIES)
        return failed


class VerifyWorkload(Workload):
    """Operation ``j`` is ``verify(generate_channel(cfg, j + 1), cfg)``; the
    run walks consecutive seeds and merges the reports as ``swipt-relay
    verify`` does."""

    trials_per_op = 1
    attempted_per_op = 1
    min_ops = 100  # so the 90th percentile has ten samples beyond it

    def __init__(self, name, n_subcarriers, taps, pool_size):
        self.name = name
        self.n_subcarriers = n_subcarriers
        self.taps = taps
        self.pool_size = pool_size

    def order(self, rng: np.random.Generator):
        """Consecutive seeds from a seeded start, wrapping round the pool."""
        start = int(rng.integers(self.pool_size))
        walk = ((start + i) % self.pool_size for i in range(self.pool_size))
        return itertools.chain(walk, itertools.count(self.pool_size))

    def run(self, cfg, j: int):
        return oracle.verify(channel.generate_channel(cfg, j + 1), cfg)

    def warm_up(self, cfg) -> None:
        oracle.verify(channel.generate_channel(cfg, WARM_UP_SEED), cfg)

    def record(self, output) -> list[bool]:
        return [check.passed for check in output.checks]

    def failures(self, output, reference) -> int:
        if isinstance(output, Exception) or not output.all_pass:
            return 1
        return int(reference is not None and self.record(output) != reference.tolist())

    def merge(self, merged, output):
        """Merge the reports as ``swipt-relay verify`` does."""
        if isinstance(output, Exception):
            return merged
        return output if merged is None else oracle.VerificationReport.merge([merged, output])

    def merged_failures(self, merged, n_ops: int) -> int:
        """A failing merged verdict fails the whole run, as it fails the
        command."""
        return 0 if merged is not None and merged.all_pass else n_ops

    def expected_calls(self, n_ops: int) -> dict[str, int]:
        n = self.n_subcarriers
        return {
            "channel.generate_channel": n_ops,
            # N! candidate pairings, plus the proposed and opa-nopair solves
            "allocator.waterfill": n_ops * (math.factorial(n) + 2),
            # proposed, opa-nopair and both uniform rivals split N pairs each
            "allocator.split_and_gain": n_ops * 4 * n,
        }


class SolveWorkload(Workload):
    """Operation ``j`` is ``solve(generate_channel(cfg, j + 1), cfg)``, the
    ``swipt-relay solve --seed`` path without process start. Its output is
    the total rate, NaN for a dead channel (``NoUsablePairError``)."""

    trials_per_op = 1
    attempted_per_op = 1
    oracle_samples = 16

    def __init__(self, name, pool_size):
        self.name = name
        self.pool_size = pool_size

    def config(self) -> model.SystemConfig:
        return model.default_config()

    def run(self, cfg, j: int) -> float:
        try:
            return allocator.solve(channel.generate_channel(cfg, j + 1), cfg).total_rate
        except NoUsablePairError:  # documented outcome for a dead channel
            return math.nan

    def warm_up(self, cfg) -> None:
        self.run(cfg, WARM_UP_SEED - 1)

    def failures(self, output, reference) -> int:
        if isinstance(output, Exception):
            return 1
        if reference is None:
            return int(not (math.isnan(output) or (math.isfinite(output) and output >= 0.0)))
        if math.isnan(reference) or math.isnan(output):
            return int(not (math.isnan(reference) and math.isnan(output)))
        return int(not _close(output, float(reference)))

    def expected_calls(self, n_ops: int) -> dict[str, int]:
        return {
            "channel.generate_channel": n_ops,
            "allocator.waterfill": n_ops,
            "allocator.split_and_gain": n_ops * self.config().n_subcarriers,
        }

    def oracle_failures(self, cfg, ops, rng) -> int:
        failed = 0
        for _ in range(self.oracle_samples):
            j = ops[int(rng.integers(len(ops)))]
            failed += not oracle.verify(channel.generate_channel(cfg, j + 1), cfg).all_pass
        return failed


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "figure-sweep",
            n_subcarriers=4,
            taps=4,
            values=range(10, 41, 5),
            trials=2000,  # the sweep command's default
            pool_size=49,
            oracle_samples=6,
        ),
        SweepWorkload(
            "wide-ofdm",
            n_subcarriers=256,
            taps=16,
            values=(30,),
            trials=2000,
            pool_size=8,
            oracle_samples=0,  # the exhaustive oracle stops at N = 8
        ),
        VerifyWorkload(
            "verify-oracle",
            n_subcarriers=6,
            taps=4,
            pool_size=1024,
        ),
        SolveWorkload(
            "single-solve",
            pool_size=65536,
        ),
    )
}
