#!/usr/bin/env python3
"""Compare two revisions on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py [--base REV] [--head REV] [--pairs N] [--workload NAME ...]

Both revisions are extracted with ``git archive REV | tar -x`` into a
temporary directory, so each run sees only committed files. For every
workload of BENCHMARK.json, pair i runs ``perfbench/run.py --workload W
--seed 71+i --seconds S --trace 0`` once from each tree, S being the
benchmark's ``run_seconds``; the base tree goes first in even pairs and the
head tree in odd ones, so a drift in machine speed favours neither side.
The last JSON line of each run is parsed; a run that prints none or
outlives its timeout counts as a crash.

The summary goes to ``BENCH_<short head sha>.json`` at the repository root:
per workload and end-to-end metric, each side's median and quartiles, the
head/base ratio of the medians, the pairs the head wins, whether the
head median is worse than the base's past the metric's ``bound``, and
whether the base runs spread too widely for that bound to tell (both
printed as well), plus the failed operations of every run, and each side's
count of code lines under ``src/`` (``code_lines``). Its ``host`` block
records the machine, the CPU count, the Python version and whether bytecode
writing is off in the runs: they inherit ``PYTHONDONTWRITEBYTECODE`` from
this process's environment, but not its ``-B`` flag. With it off, every
set-up probe compiles each module it imports, so ``setup_s`` reads higher
than with a warm bytecode cache. The exit status
is 1 when a workload's head runs all printed no result or a metric's head
median is worse past its bound, and 0 otherwise; the summary file is written
either way, and a metric that is only unresolved does not fail the run.
After each pair's runs, one fresh process per tree imports that tree's
``perfbench/workloads.py`` and warms up. The two then time operations
``j = 0..K-1`` of the workload with ``time.process_time`` in lockstep, K
fixed per workload (``PROBE_OPS``): each runs one pass when told to, and
the sides take turns in the pair's order for ``PROBE_PASSES`` passes, so
that pass k of base and head run back to back under the same load. The
fastest pass per side counts, as the one least slowed by other load. Each
workload's ``process_time`` block summarises the probes' CPU µs per
operation (``us_per_op``) as the runs' metrics are summarised: a raw figure
that no reference kernel scales, to set beside ``trials_per_s``.
``--workload NAME``, repeatable, runs only the named workloads; when the summary file already holds a comparison of the
same revisions with the same pairs and run length, its other workloads are
kept, so one workload can be rerun without losing the rest. Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600
SEED_BASE = 71
# operations of one pass of a process-time probe, 0.3-1.6 s of CPU on a
# shared 2-core VM (figure-sweep: each sweep point once); fixed, so that
# every BENCH file times the same operations
PROBE_OPS = {"figure-sweep": 7, "wide-ofdm": 1, "verify-oracle": 100, "single-solve": 5000}
# a single pass over the operations read up to 1.7x its process's fastest
# when other load burst; the fastest of 5 spread ~5% across processes run
# back to back
PROBE_PASSES = 5
# run in a tree: import its engine and workloads, warm up, say so, then time
# one pass over the operations for each line read
_PROBE = """
import sys, time
sys.path[:0] = ["src", "perfbench"]
import workloads
workload = workloads.WORKLOADS[sys.argv[1]]
ops = int(sys.argv[2])
cfg = workload.config()
workload.warm_up(cfg)
print("ready", flush=True)
for _ in sys.stdin:
    start = time.process_time()
    for j in range(ops):
        workload.run(cfg, j)
    print((time.process_time() - start) / ops * 1e6, flush=True)
"""
# tokens that put no code on a line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest``: ``git archive REV | tar -x``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        status = archive.wait()
    if status != 0:
        raise SystemExit(f"git archive {rev} failed")


def code_lines(root: Path) -> int:
    """Lines of code in the ``.py`` files under ``root``, by ``tokenize``: a
    line counts when a token of a statement lies on it, so blank lines,
    comments and docstrings (a statement that is a string alone) do not."""
    rows = set()
    for path in sorted(root.rglob("*.py")):
        statement = []
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    rows.update((path, row) for tok in statement for row in range(tok.start[0], tok.end[0] + 1))
                statement = []
            elif token.type not in _NOT_CODE:
                statement.append(token)
    return len(rows)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its last JSON line, or a record of the
    crash when it printed none or outlived ``RUN_TIMEOUT_S``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        error = f"timed out after {RUN_TIMEOUT_S} s"
    else:
        for line in reversed(proc.stdout.splitlines()):
            if line.startswith("{"):
                return json.loads(line)
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return {"correct": False, "attempted": 0, "failed": None, "metrics": {}, "error": error}


def _reply(proc: subprocess.Popen, deadline: float, request: bool = True) -> str | None:
    """The next line ``proc`` prints, after one is sent to it if
    ``request``; None when it exits first or prints none by ``deadline``
    (a ``time.monotonic`` reading)."""
    try:
        if request:
            proc.stdin.write("\n")
            proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    except BrokenPipeError:
        return None
    return (proc.stdout.readline() or None) if ready else None


def probe_process_time(trees: dict[str, Path], order: tuple[str, ...], workload: str) -> dict[str, dict]:
    """CPU µs per operation of ``workload`` on each side, as a run record of
    one metric, ``us_per_op``: one fresh process per tree warms up, then
    the sides take turns in ``order``, one pass over operations
    ``0..PROBE_OPS[workload]-1`` each, so that pass k of both sides runs
    back to back under the same load; the fastest of ``PROBE_PASSES``
    counts. A side whose process fails, or that outlives ``RUN_TIMEOUT_S``
    with the other, gives a crash record, as in :func:`run_once`."""
    command = [sys.executable, "-c", _PROBE, workload, str(PROBE_OPS[workload])]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records, fastest = {}, {side: math.inf for side in order}
    with contextlib.ExitStack() as stack:
        procs, logs = {}, {}
        for side in order:
            logs[side] = stack.enter_context(tempfile.TemporaryFile())
            procs[side] = stack.enter_context(subprocess.Popen(
                command, cwd=trees[side], stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=logs[side],
                text=True))
            stack.callback(procs[side].kill)

        def crash(side: str) -> dict:
            try:
                procs[side].wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                return {"failed": None, "metrics": {}, "error": f"timed out after {RUN_TIMEOUT_S} s"}
            logs[side].seek(0)
            stderr = logs[side].read().decode(errors="replace").strip()
            return {"failed": None, "metrics": {}, "error": f"exit {procs[side].returncode}: {stderr[-500:]}"}

        # every warm-up ends before the first pass, so that no pass shares
        # the machine with one
        for side in order:
            if _reply(procs[side], deadline, request=False) is None:
                records[side] = crash(side)
        for _ in range(PROBE_PASSES):
            for side in order:
                if side in records:
                    continue
                line = _reply(procs[side], deadline)
                if line is None:
                    records[side] = crash(side)
                else:
                    fastest[side] = min(fastest[side], float(line))
    for side in order:
        records.setdefault(side, {"failed": 0, "metrics": {"us_per_op": {"value": fastest[side], "unit": "us"}}})
    return records


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, inclusive method; one value is all three."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def worse_past_bound(base: float, head: float, direction: str, bound: float) -> bool:
    """Whether ``head`` is worse than ``base`` in ``direction`` (``"higher"``
    or ``"lower"`` is better) by more than ``bound`` times ``|base|``."""
    worse = base - head if direction == "higher" else head - base
    return worse > bound * abs(base)


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Summary of one workload's (base run, head run) pairs.

    ``better`` maps each metric to ``"higher"`` or ``"lower"``. A metric is
    summarised over the pairs where both runs report it; the head wins a
    pair when its value is strictly better. A metric named in ``bounds``
    also gets ``worse_past_bound``: whether the head median is worse than
    the base median by more than that fraction of it; and ``unresolved``:
    whether the base quartiles lie further apart than that fraction of the
    base median, so that a move within the bound cannot be told from the
    base's own spread. ``failed`` lists each
    run's failed operations (None for a run that printed no result).
    """
    metrics = {}
    for name, direction in better.items():
        reported = [(b["metrics"][name], h["metrics"][name])
                    for b, h in pairs if name in b["metrics"] and name in h["metrics"]]
        if not reported:
            continue
        both = [(b["value"], h["value"]) for b, h in reported]
        if direction == "higher":
            wins = sum(h > b for b, h in both)
        else:
            wins = sum(h < b for b, h in both)
        base_q, head_q = quartiles([b for b, _ in both]), quartiles([h for _, h in both])
        metrics[name] = {
            "unit": reported[0][0]["unit"],
            "better": direction,
            "base": base_q,
            "head": head_q,
            "ratio": head_q["median"] / base_q["median"] if base_q["median"] else None,
            "wins": wins,
            "pairs": len(both),
        }
        if bounds and name in bounds:
            metrics[name]["worse_past_bound"] = worse_past_bound(
                base_q["median"], head_q["median"], direction, bounds[name])
            metrics[name]["unresolved"] = base_q["q3"] - base_q["q1"] > bounds[name] * abs(base_q["median"])
    return {
        "metrics": metrics,
        "failed": {"base": [b["failed"] for b, _ in pairs], "head": [h["failed"] for _, h in pairs]},
    }


def verdict(workloads: dict) -> list[str]:
    """Why the comparison fails, one line per reason, from the per-workload
    summaries of :func:`summarize`: a workload whose head runs all printed
    no result, and a metric whose head median is worse than the base's past
    its bound. An empty list passes; ``unresolved`` alone fails nothing."""
    reasons = []
    for workload, summary in workloads.items():
        if all(failed is None for failed in summary["failed"]["head"]):
            reasons.append(f"{workload}: no head run printed a result")
        for name, metric in summary["metrics"].items():
            if metric.get("worse_past_bound"):
                reasons.append(f"{workload}: {name} worse past its bound")
    return reasons


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    """The command line; ``workloads`` are BENCHMARK.json's names in its
    order, and ``args.workloads`` comes back as the chosen ones in that
    order, all of them by default."""
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD~1", help="base revision (default: HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="head revision (default: HEAD)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (default: 10)")
    parser.add_argument("--workload", action="append", dest="workloads", choices=workloads, metavar="NAME",
                        help="run only this workload; repeat for more (default: all of "
                        + ", ".join(workloads) + ")")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    chosen = args.workloads or workloads
    args.workloads = [name for name in workloads if name in chosen]
    return args


def merge_earlier(report: dict, earlier: dict | None) -> dict:
    """``report`` with the workloads of ``earlier`` that it did not rerun,
    when ``earlier`` compared the same revisions with the same pairs and run
    length; otherwise ``report`` as it is."""
    if earlier is None or any(earlier.get(key) != report[key] for key in ("revisions", "pairs", "seconds")):
        return report
    return {**report, "workloads": {**earlier["workloads"], **report["workloads"]}}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])

    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    sides = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    report = {
        "revisions": sides,
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [SEED_BASE + i for i in range(args.pairs)],
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version(),
                 "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, sha in sides.items():
            extract(sha, trees[side])
        report["src_code_lines"] = {side: code_lines(trees[side] / "src") for side in sides}
        print(f"src code lines: base {report['src_code_lines']['base']} head {report['src_code_lines']['head']}",
              flush=True)
        for workload in args.workloads:
            pairs, probes = [], []
            for i, seed in enumerate(report["seeds"]):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                runs = {side: run_once(trees[side], workload, seed, seconds) for side in order}
                cpu = probe_process_time(trees, order, workload)
                pairs.append((runs["base"], runs["head"]))
                probes.append((cpu["base"], cpu["head"]))
                tps = [runs[side]["metrics"].get("trials_per_s", {}).get("value") for side in ("base", "head")]
                us = [cpu[side]["metrics"].get("us_per_op", {}).get("value") for side in ("base", "head")]
                print(f"{workload} seed {seed}: trials_per_s base {tps[0]} head {tps[1]}; "
                      f"us_per_op base {us[0]} head {us[1]}", flush=True)
            summary = report["workloads"][workload] = summarize(pairs, better, bounds)
            summary["process_time"] = summarize(probes, {"us_per_op": "lower"})
            for name, metric in summary["metrics"].items():
                if metric["worse_past_bound"]:
                    print(f"{workload}: {name} worse past its bound {bounds[name]}: median "
                          f"{metric['base']['median']} -> {metric['head']['median']}", flush=True)
                if metric["unresolved"]:
                    print(f"{workload}: {name} unresolved: base quartiles {metric['base']['q1']}.."
                          f"{metric['base']['q3']} spread wider than its bound {bounds[name]}", flush=True)
    path = ROOT / f"BENCH_{sides['head'][:7]}.json"
    report = merge_earlier(report, json.loads(path.read_text()) if path.exists() else None)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.name}")
    reasons = verdict(report["workloads"])
    for reason in reasons:
        print(f"FAIL {reason}", flush=True)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
