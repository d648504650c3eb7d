#!/usr/bin/env python3
"""Compare the CLI's output bytes between two revisions.

    python3 scripts/cli_bytes.py [--base REV] [--head REV]

Both revisions are extracted with ``git archive REV | tar -x`` into a
temporary directory (``bench_pairs.extract``), so each side sees only
committed files. Every command of ``COMMANDS`` then runs once per tree as
``python3 -m swipt_relay.cli ...`` with ``PYTHONPATH=<tree>/src``, in a
fresh working directory that holds only the command's config file, written
from the dict literals below and not by either tree's code. The exit code,
stdout, stderr and every file the directory holds afterwards must be equal
byte for byte. One line per command is printed; the exit status is 1 when
any command differs, and 0 otherwise. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import extract

RUN_TIMEOUT_S = 600
_SIGMA = 1.2589254117941673  # 1 dBm in mW
DEFAULT_CONFIG = {
    "n_subcarriers": 4,
    "p_max_mw": 1000.0,
    "eta": 1.0,
    "d0": 1.0,
    "dr": 0.5,
    "alpha": 3.0,
    "taps": 4,
    "noise": {
        "sigma_ra_sq": _SIGMA,
        "sigma_rb_sq": _SIGMA,
        "sigma_da_sq": _SIGMA / 2.0,
        "sigma_db_sq": _SIGMA / 2.0,
    },
}
WIDE_CONFIG = {**DEFAULT_CONFIG, "n_subcarriers": 256, "taps": 16}
NO_HARVEST_CONFIG = {**DEFAULT_CONFIG, "eta": 0.0}
VERIFY_CONFIG = {**DEFAULT_CONFIG, "n_subcarriers": 6}
# the widest channel the one-channel solve runs on Python floats, and the
# narrowest it runs on NumPy arrays
FLOAT_BODY_CONFIG = {**DEFAULT_CONFIG, "n_subcarriers": 7}
ARRAY_BODY_CONFIG = {**DEFAULT_CONFIG, "n_subcarriers": 8}
# one subcarrier past the exhaustive pairing search's cap
UNVERIFIABLE_CONFIG = {**DEFAULT_CONFIG, "n_subcarriers": 9}
# refused with two faults, so the listing's order and layout are compared
INVALID_CONFIG = {**DEFAULT_CONFIG, "eta": 2.0, "dr": 1.5}
# an integral float count is taken, and a bool or a string is no number: the
# listing goes through the number rule
MISTYPED_CONFIG = {**DEFAULT_CONFIG, "taps": 4.0, "eta": True, "d0": "1"}
# (name, config, CLI arguments after the config path); a command writes its
# files into its working directory. Of the last nine, the first five fail, or
# print help, before any engine module loads, and the last four are refused by
# the engine, before or instead of any expensive work.
COMMANDS = [
    ("sweep-p-max", DEFAULT_CONFIG,
     ["sweep", "--variable", "p_max_dbm", "--values", "10..40:5", "--trials", "300", "-o", "out.csv"]),
    ("sweep-wide", WIDE_CONFIG,
     ["sweep", "--variable", "p_max_dbm", "--values", "10,30", "--trials", "20", "-o", "out.csv"]),
    ("sweep-eta-0", NO_HARVEST_CONFIG,
     ["sweep", "--variable", "p_max_dbm", "--values", "10,30", "--trials", "50", "-o", "out.csv"]),
    ("sweep-relay-position", DEFAULT_CONFIG,
     ["sweep", "--variable", "relay_position", "--values", "0.1..0.9:0.2", "--trials", "200", "-o", "out.csv"]),
    ("verify-n6", VERIFY_CONFIG, ["verify", "--seeds", "30", "-o", "report.json"]),
    *((f"solve-seed-{seed}", DEFAULT_CONFIG, ["solve", "--seed", str(seed)])
      for seed in (1, 2, 3, 2**40, 2**70)),
    ("solve-n7", FLOAT_BODY_CONFIG, ["solve", "--seed", "5"]),
    ("solve-n8", ARRAY_BODY_CONFIG, ["solve", "--seed", "5"]),
    ("solve-help", DEFAULT_CONFIG, ["solve", "--help"]),
    ("solve-invalid-config", INVALID_CONFIG, ["solve"]),
    ("solve-mistyped-config", MISTYPED_CONFIG, ["solve"]),
    ("sweep-unknown-policy", DEFAULT_CONFIG,
     ["sweep", "--variable", "p_max_dbm", "--values", "10", "--policies", "nope"]),
    ("solve-malformed-seed", DEFAULT_CONFIG, ["solve", "--seed", "x"]),
    ("solve-negative-seed", DEFAULT_CONFIG, ["solve", "--seed", "-1"]),
    ("sweep-zero-trials", DEFAULT_CONFIG,
     ["sweep", "--variable", "p_max_dbm", "--values", "10", "--trials", "0"]),
    ("verify-n9", UNVERIFIABLE_CONFIG, ["verify"]),
    ("verify-eta-0", NO_HARVEST_CONFIG, ["verify"]),
]


def run_command(tree: Path, workdir: Path, config: dict, args: list[str]) -> dict:
    """Run ``python3 -m swipt_relay.cli config.json ARGS`` from ``tree``'s
    sources in the new directory ``workdir``: the exit code, stdout,
    stderr, and the bytes of every file ``workdir`` then holds by name."""
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    command = [sys.executable, "-m", "swipt_relay.cli", args[0], "config.json", *args[1:]]
    try:
        proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": f"timed out after {RUN_TIMEOUT_S} s"}
    files = {path.relative_to(workdir).as_posix(): path.read_bytes()
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files}


def differences(base: dict, head: dict) -> list[str]:
    """What differs between two outcomes of :func:`run_command`, one entry
    per field or file; empty when they are byte-identical."""
    diffs = [key for key in ("exit", "stdout", "stderr") if base.get(key) != head.get(key)]
    base_files, head_files = base.get("files", {}), head.get("files", {})
    for name in sorted(base_files.keys() | head_files.keys()):
        if base_files.get(name) != head_files.get(name):
            diffs.append(f"file {name}")
    return diffs


def compare(trees: dict[str, Path], workroot: Path, commands=COMMANDS) -> list[str]:
    """Run every command on the ``base`` and ``head`` trees, print one line
    per command, and return a line for each command that differs."""
    failures = []
    for name, config, args in commands:
        outcomes = {side: run_command(tree, workroot / side / name, config, args) for side, tree in trees.items()}
        diffs = differences(outcomes["base"], outcomes["head"])
        line = f"{name}: exit {outcomes['head']['exit']}, " + (
            "byte-identical" if not diffs else "DIFFERS in " + ", ".join(diffs))
        print(line, flush=True)
        if diffs:
            failures.append(line)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD~1", help="base revision (default: HEAD~1)")
    parser.add_argument("--head", default="HEAD", help="head revision (default: HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        trees = {"base": Path(tmp) / "base-tree", "head": Path(tmp) / "head-tree"}
        extract(args.base, trees["base"])
        extract(args.head, trees["head"])
        failures = compare(trees, Path(tmp) / "runs")
    print(f"{len(COMMANDS) - len(failures)} of {len(COMMANDS)} commands byte-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
