#!/usr/bin/env python3
"""Benchmark of the swipt-relay simulator: four workloads, run in-process
through the library API, one process per workload, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload, both modes

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the same operations untraced and then traced, checks that both give
identical outputs and the closed-form call counts, and reports per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
nonzero when any operation failed. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import refkernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the keys of workloads.WORKLOADS, listed here so that arguments parse before
# the simulator is imported
WORKLOAD_NAMES = ("figure-sweep", "wide-ofdm", "verify-oracle", "single-solve")

MAX_STRETCH = 3.0  # a run measures longer than this many --seconds only ...
MIN_SAMPLES = 2  # ... to reach this many operations, which a percentile needs
SETUP_RUNS = 7  # fresh processes whose set-up time is measured
TRACE_UNTRACED_SHARE = 0.25  # of --seconds, for the untraced pass of a traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program() -> None:
    """Import the simulator from this checkout's ``src``, never from
    anywhere else on the path."""
    package = SRC / "swipt_relay" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no simulator source at {package}")
    sys.path.insert(0, str(SRC))
    import swipt_relay

    if Path(swipt_relay.__file__).resolve() != package.resolve():
        raise BenchError(f"swipt_relay was imported from {swipt_relay.__file__}, not {package}")


def measure_setup(config_path: Path) -> list[dict]:
    """Set-up times of fresh processes. The first process only warms the
    bytecode and page caches and is dropped."""
    runs = []
    for _ in range(1 + SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        runs.append(json.loads(proc.stdout))
    return runs[1:]


class Loop:
    """A closed loop over a workload's operations. Each operation is timed
    and its output checked against its pinned reference, if it has one,
    outside the timed interval. When the loop ends, each operation's time,
    less the CPU time the reference sampler took inside it, is scaled by
    ``ref_nominal_s / ref`` with ``ref`` the reference kernel's time around
    it."""

    def __init__(self, workload, cfg, pinned, sampler, ref_nominal_s: float, keep_outputs: bool = False):
        self.workload = workload
        self.cfg = cfg
        self.pinned = pinned
        self.sampler = sampler
        self.ref_nominal_s = ref_nominal_s
        self.outputs = [] if keep_outputs else None
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.failed = 0
        self.merged = None
        self.scaled_s = np.empty(0)
        self.peak_rss_mb = 0.0
        self._reported = False

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def one(self, j: int) -> float:
        """Run, time and check operation ``j``; return its wall time."""
        start = time.perf_counter()
        try:
            output = self.workload.run(self.cfg, j)
        except Exception as exc:  # counted as a failed operation
            output = exc
            if not self._reported:
                traceback.print_exc(file=sys.stderr)
                self._reported = True
        end = time.perf_counter()
        self.ops.append(j)
        self.starts.append(start)
        self.ends.append(end)
        reference = self.pinned[j] if j < len(self.pinned) else None
        self.failed += self.workload.failures(output, reference)
        self.merged = self.workload.merge(self.merged, output)
        if self.outputs is not None:
            self.outputs.append(output)
        return end - start

    def run(self, ops, seconds: float = float("inf"), min_ops: int = 0) -> None:
        """Run until ``ops`` run out, or until ``seconds`` have been measured
        and ``min_ops`` operations done, at the end of a round of the
        workload's ``cycle``. Past ``MAX_STRETCH * seconds`` the run ends at
        the next round once it has ``MIN_SAMPLES`` operations (or
        ``min_ops``, if fewer)."""
        cycle = self.workload.cycle
        measured = 0.0
        for j in ops:
            measured += self.one(j)
            if self.n_ops % cycle:
                continue
            if measured >= seconds and self.n_ops >= min_ops:
                break
            if measured >= MAX_STRETCH * seconds and self.n_ops >= min(min_ops, MIN_SAMPLES):
                break
        # before the scaling below, whose arrays grow with the operation count
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        net, ref = self.sampler.net_and_ref(self.starts, self.ends)
        self.scaled_s = net * (self.ref_nominal_s / ref)

    @property
    def wall_total_s(self) -> float:
        return sum(self.ends) - sum(self.starts)

    @property
    def scaled_total_s(self) -> float:
        return float(self.scaled_s.sum())


def _setup_median(setup: list[dict], keys: tuple[str, ...], ref_nominal_s: float) -> float:
    """Median over the set-up processes, each scaled by its own reference."""
    return statistics.median(sum(run[key] for key in keys) * ref_nominal_s / run["ref_s"] for run in setup)


def end_to_end_metrics(loop: Loop, setup: list[dict], baseline: dict) -> dict:
    lat = sorted(loop.scaled_s.tolist())
    values = {
        "setup_s": _setup_median(setup, ("import_s", "load_config_s"), baseline["setup_ref_nominal_s"]),
        "trials_per_s": loop.n_ops * loop.workload.trials_per_op / loop.scaled_total_s,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "peak_rss_mb": loop.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def layer_metrics(tracer, traced: Loop, untraced: Loop, setup: list[dict], baseline: dict, sampler) -> dict:
    """Per-layer figures of the traced pass. Span times are scaled to the
    nominal machine speed by the pass's mean scale; shares need no scaling."""
    from workloads import POLICIES

    summary = tracer.summary()
    traced_s = traced.wall_total_s
    scale = traced.scaled_total_s / traced_s
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return summary.get(name, empty)

    def per_call_us(name, key="total_s"):
        entry = get(name)
        return 1e6 * scale * entry[key] / entry["calls"] if entry["calls"] else 0.0

    def share(name):
        return get(name)["total_s"] / traced_s

    def self_share(prefix):
        return sum(e["self_s"] for n, e in summary.items() if n.startswith(prefix)) / traced_s

    setup_ref_nominal_s = baseline["setup_ref_nominal_s"]
    sweeps = get("montecarlo.sweep")["calls"]
    reduce_s = get("montecarlo.sweep")["self_s"] + get("montecarlo.to_csv")["total_s"]
    searches = get("oracle.best_pairing_exhaustive")["calls"]
    pairings = tracer.calls_under("oracle.best_pairing_exhaustive", "allocator.waterfill")
    fracs = tracer.active_fracs
    metrics = [
        ("channel.generate_channel.calls", get("channel.generate_channel")["calls"], "count"),
        ("channel.generate_channel.us_per_call", per_call_us("channel.generate_channel"), "us"),
        ("channel.generate_channel.share", share("channel.generate_channel"), "fraction"),
        ("allocator.split_and_gain.calls", get("allocator.split_and_gain")["calls"], "count"),
        ("allocator.split_and_gain.us_per_call", per_call_us("allocator.split_and_gain"), "us"),
        ("allocator.split_and_gain.share", share("allocator.split_and_gain"), "fraction"),
        ("allocator.waterfill.calls", get("allocator.waterfill")["calls"], "count"),
        ("allocator.waterfill.us_per_call", per_call_us("allocator.waterfill"), "us"),
        ("allocator.waterfill.share", share("allocator.waterfill"), "fraction"),
        ("allocator.waterfill.active_frac", statistics.fmean(fracs) if fracs else 0.0, "fraction"),
        ("allocator.sorted_pairing.us_per_call", per_call_us("allocator.sorted_pairing"), "us"),
        ("allocator.solve.self_us", per_call_us("allocator.solve", "self_s"), "us"),
        *(
            (f"baselines.solve_policy.{p}.us_per_call", per_call_us(f"baselines.solve_policy.{p}"), "us")
            for p in (policy.value for policy in POLICIES)
        ),
        ("baselines.self_share", self_share("baselines."), "fraction"),
        ("montecarlo.run_trials.self_share", self_share("montecarlo.run_trials"), "fraction"),
        ("montecarlo.reduce_s", scale * reduce_s / sweeps if sweeps else 0.0, "s"),
        ("montecarlo.dead_trials", tracer.dead_trials, "count"),
        ("oracle.best_pairing_exhaustive.us_per_call", per_call_us("oracle.best_pairing_exhaustive"), "us"),
        ("oracle.verify.self_share", self_share("oracle.verify"), "fraction"),
        ("oracle.pairings_per_seed", pairings / searches if searches else 0.0, "count"),
        ("model.validate_config.calls", get("model.validate_config")["calls"], "count"),
        ("model.load_config_s", _setup_median(setup, ("load_config_s",), setup_ref_nominal_s), "s"),
        ("swipt_relay.import_s", _setup_median(setup, ("import_s",), setup_ref_nominal_s), "s"),
        ("env.ref_s", statistics.median(sampler.refs), "s"),
        ("trace.overhead", traced.scaled_total_s / untraced.scaled_total_s, "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in metrics}


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return repr(a) == repr(b)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b or (a != a and b != b)  # NaN marks a dead channel


def self_test(workload, untraced: Loop, traced: Loop, tracer) -> int:
    """Return the failed operations of the traced run: those whose traced
    output differs from the untraced one, and all of them when a call count
    misses its closed form. A miss means the tracer did not see every call
    into a layer, or the engine's call structure changed; either way the
    per-layer figures are wrong until ``expected_calls`` in workloads.py or
    ``BINDINGS`` in spans.py are updated, in a benchmark-only change."""
    mismatched = sum(not _same(a, b) for a, b in zip(untraced.outputs, traced.outputs))
    mismatched += abs(untraced.n_ops - traced.n_ops)
    if mismatched:
        print(f"self-test: {mismatched} traced outputs differ from the untraced ones", file=sys.stderr)
    summary = tracer.summary()
    for span, want in workload.expected_calls(traced.n_ops).items():
        got = summary.get(span, {"calls": 0})["calls"]
        if got != want:
            print(f"self-test: {span} was called {got} times, expected {want}", file=sys.stderr)
            mismatched = untraced.n_ops
    return mismatched


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    from swipt_relay import model
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    baseline = json.loads((HERE / "baseline.json").read_text())
    ref_nominal_s = baseline["ref_nominal_s"]
    with np.load(HERE / "reference" / f"{name}.npz") as reference:
        pinned_config = json.loads(str(reference["config"]))
        pinned = reference["outputs"]

    OUT.mkdir(exist_ok=True)
    config_path = OUT / f"config-{name}-{os.getpid()}.json"
    config_path.write_text(json.dumps(model.config_to_dict(workload.config())))
    try:
        setup = measure_setup(config_path)
        cfg = model.validate_config(model.load_config(config_path))
    finally:
        config_path.unlink()
    if model.config_to_dict(cfg) != pinned_config:
        raise BenchError(f"the {name} config differs from the pinned one; see pin.py")

    rng = np.random.default_rng(seed)
    refkernel.pin_to_one_cpu()
    with refkernel.Sampler() as sampler:
        workload.warm_up(cfg)  # untimed, on inputs no operation uses
        loop = Loop(workload, cfg, pinned, sampler, ref_nominal_s, keep_outputs=trace)
        mismatched = 0
        if not trace:
            loop.run(workload.order(rng), seconds, workload.min_ops)
        else:
            from spans import Tracer

            loop.run(workload.order(rng), TRACE_UNTRACED_SHARE * seconds)
            traced = Loop(workload, cfg, pinned, sampler, ref_nominal_s, keep_outputs=True)
            with Tracer() as tracer:
                traced.run(loop.ops)  # the same operations again
    if not trace:
        metrics = end_to_end_metrics(loop, setup, baseline)
    else:
        tracer.write(OUT / f"spans-{name}.npz")
        mismatched = self_test(workload, loop, traced, tracer)
        metrics = layer_metrics(tracer, traced, loop, setup, baseline, sampler)

    attempted = loop.n_ops * workload.attempted_per_op
    failed = loop.failed + workload.merged_failures(loop.merged, loop.n_ops)
    failed += workload.oracle_failures(cfg, loop.ops.tolist(), rng)
    failed = min(failed + mismatched * workload.attempted_per_op, attempted)
    unpinned = sum(j >= len(pinned) for j in loop.ops)
    for metric, entry in metrics.items():
        print(f"{metric:<50} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':<50} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"{'unpinned_ops':<50} {unpinned} of {loop.n_ops} (past the pinned pool)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=180)
            print(proc.stdout, end="", flush=True)
            status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
