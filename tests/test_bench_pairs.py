"""The pure summary of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"trials_per_s": "higher", "latency_p50_ms": "lower"}


def _probe(us_per_op):
    return {"failed": 0, "metrics": {"us_per_op": {"value": us_per_op, "unit": "us"}}}


def _probes(us_per_op):
    """A stand-in ``probe_process_time`` that reads ``us_per_op`` on every
    side."""
    return lambda trees, order, workload: {side: _probe(us_per_op) for side in order}


def _run(tps, p50, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "trials_per_s": {"value": tps, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"q1": 1.25, "median": 1.5, "q3": 1.75}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_medians_wins_and_failures():
    pairs = [
        (_run(100.0, 10.0), _run(120.0, 9.0)),
        (_run(110.0, 11.0), _run(105.0, 11.0, failed=2)),
        (_run(90.0, 12.0), _run(130.0, 8.0)),
        (_run(105.0, 10.5), _run(125.0, 9.5)),
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    tps = summary["metrics"]["trials_per_s"]
    assert tps["unit"] == "1/s" and tps["better"] == "higher"
    assert tps["base"] == {"q1": 97.5, "median": 102.5, "q3": 106.25}
    assert tps["head"] == {"q1": 116.25, "median": 122.5, "q3": 126.25}
    assert tps["ratio"] == pytest.approx(122.5 / 102.5)
    assert (tps["wins"], tps["pairs"]) == (3, 4)
    p50 = summary["metrics"]["latency_p50_ms"]
    # lower is better; the tie at 11.0 is no win
    assert (p50["wins"], p50["pairs"]) == (3, 4)
    assert p50["base"]["median"] == 10.75 and p50["head"]["median"] == 9.25
    assert summary["failed"] == {"base": [0, 0, 0, 0], "head": [0, 2, 0, 0]}


def test_summary_skips_a_run_without_result():
    crashed = {"correct": False, "attempted": 0, "failed": None, "metrics": {}, "error": "exit 1"}
    pairs = [(_run(100.0, 10.0), _run(120.0, 9.0)), (_run(110.0, 11.0), crashed)]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert summary["metrics"]["trials_per_s"]["pairs"] == 1
    assert summary["metrics"]["trials_per_s"]["base"]["median"] == 100.0
    assert summary["failed"]["head"] == [0, None]
    assert bench_pairs.summarize([(crashed, crashed)], BETTER)["metrics"] == {}


NAMES = ["figure-sweep", "wide-ofdm", "verify-oracle", "single-solve"]


def test_workload_option_repeats_and_keeps_the_benchmark_order():
    assert bench_pairs.parse_args([], NAMES).workloads == NAMES
    args = bench_pairs.parse_args(["--workload", "single-solve", "--workload", "figure-sweep"], NAMES)
    assert args.workloads == ["figure-sweep", "single-solve"]
    assert bench_pairs.parse_args(["--workload", "wide-ofdm"] * 2, NAMES).workloads == ["wide-ofdm"]


@pytest.mark.parametrize("argv", [["--workload", "no-such-workload"], ["--pairs", "0"]])
def test_bad_arguments_exit_with_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        bench_pairs.parse_args(argv, NAMES)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_a_rerun_workload_replaces_its_entry_and_keeps_the_rest():
    same = {"revisions": {"base": "a", "head": "b"}, "pairs": 10, "seconds": 10}
    earlier = {**same, "workloads": {"figure-sweep": "old", "wide-ofdm": "kept"}}
    rerun = {**same, "workloads": {"figure-sweep": "new"}}
    assert bench_pairs.merge_earlier(rerun, earlier)["workloads"] == {"figure-sweep": "new", "wide-ofdm": "kept"}
    # another comparison's entries are not mixed in
    for key, value in (("revisions", {"base": "a", "head": "c"}), ("pairs", 3), ("seconds", 5)):
        assert bench_pairs.merge_earlier({**rerun, key: value}, earlier)["workloads"] == {"figure-sweep": "new"}
    assert bench_pairs.merge_earlier(rerun, None) is rerun


def test_a_median_worse_past_its_bound_is_flagged():
    bounds = {"trials_per_s": 0.2, "latency_p50_ms": 0.25}
    # throughput 100 -> 79 is 21% worse; latency 10 -> 12.4 is 24% worse
    pairs = [(_run(100.0, 10.0), _run(79.0, 12.4))] * 3
    metrics = bench_pairs.summarize(pairs, BETTER, bounds)["metrics"]
    assert metrics["trials_per_s"]["worse_past_bound"] is True
    assert metrics["latency_p50_ms"]["worse_past_bound"] is False
    # better medians are never flagged, however far they move
    pairs = [(_run(100.0, 10.0), _run(300.0, 1.0))] * 3
    metrics = bench_pairs.summarize(pairs, BETTER, bounds)["metrics"]
    assert not metrics["trials_per_s"]["worse_past_bound"]
    assert not metrics["latency_p50_ms"]["worse_past_bound"]
    # a metric without a bound is not judged
    assert "worse_past_bound" not in bench_pairs.summarize(pairs, BETTER)["metrics"]["trials_per_s"]


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    bounds = {"trials_per_s": 0.2, "latency_p50_ms": 0.25}
    # throughput quartiles 85..115 are 30% of the median 100, wider than 0.2;
    # latency quartiles 9.5..10.5 are 10% of 10, inside 0.25
    base = [(60.0, 9.0), (85.0, 9.5), (100.0, 10.0), (115.0, 10.5), (140.0, 11.0)]
    pairs = [(_run(tps, p50), _run(tps, p50)) for tps, p50 in base]
    metrics = bench_pairs.summarize(pairs, BETTER, bounds)["metrics"]
    assert metrics["trials_per_s"]["base"] == {"q1": 85.0, "median": 100.0, "q3": 115.0}
    assert metrics["trials_per_s"]["unresolved"] is True
    assert metrics["latency_p50_ms"]["unresolved"] is False
    # a spread of exactly the bound still resolves; only the base is judged
    pairs = [(_run(tps, 10.0), _run(1000.0, 10.0)) for tps in (80.0, 90.0, 100.0, 110.0, 120.0)]
    assert bench_pairs.summarize(pairs, BETTER, bounds)["metrics"]["trials_per_s"]["unresolved"] is False
    # a metric without a bound is not judged
    assert "unresolved" not in bench_pairs.summarize(pairs, BETTER)["metrics"]["trials_per_s"]


@pytest.mark.parametrize(
    "base, head, direction, flagged",
    [
        (100.0, 80.0, "higher", False),  # exactly at the bound
        (100.0, 79.9, "higher", True),
        (10.0, 12.0, "lower", False),
        (10.0, 12.1, "lower", True),
        (0.0, 0.1, "lower", True),  # anything worse than a zero base
        (0.0, 0.0, "lower", False),
        (-10.0, -12.1, "higher", True),  # the bound scales with |base|
    ],
)
def test_worse_past_bound_is_relative_to_the_base_median(base, head, direction, flagged):
    assert bench_pairs.worse_past_bound(base, head, direction, 0.2) is flagged


def test_verdict_fails_on_a_worse_median_or_a_workload_without_head_results():
    bounds = {"trials_per_s": 0.2, "latency_p50_ms": 0.25}
    crashed = {"correct": False, "attempted": 0, "failed": None, "metrics": {}, "error": "exit 1"}
    flat = bench_pairs.summarize([(_run(100.0, 10.0), _run(99.0, 10.1))] * 3, BETTER, bounds)
    assert bench_pairs.verdict({"figure-sweep": flat, "single-solve": flat}) == []
    worse = bench_pairs.summarize([(_run(100.0, 10.0), _run(79.0, 10.0))] * 3, BETTER, bounds)
    assert bench_pairs.verdict({"figure-sweep": flat, "wide-ofdm": worse}) == [
        "wide-ofdm: trials_per_s worse past its bound"]
    dead = bench_pairs.summarize([(_run(100.0, 10.0), crashed)] * 3, BETTER, bounds)
    assert bench_pairs.verdict({"verify-oracle": dead}) == ["verify-oracle: no head run printed a result"]
    # one head run with a result is enough; a crashed base run fails nothing
    some = bench_pairs.summarize([(_run(100.0, 10.0), crashed), (crashed, _run(100.0, 10.0))], BETTER, bounds)
    assert bench_pairs.verdict({"single-solve": some}) == []


def test_verdict_passes_a_metric_that_is_only_unresolved():
    bounds = {"trials_per_s": 0.2, "latency_p50_ms": 0.25}
    base = (60.0, 85.0, 100.0, 115.0, 140.0)
    summary = bench_pairs.summarize([(_run(tps, 10.0), _run(tps, 10.0)) for tps in base], BETTER, bounds)
    assert summary["metrics"]["trials_per_s"]["unresolved"] is True
    assert bench_pairs.verdict({"figure-sweep": summary}) == []


def test_main_exits_1_on_a_failing_verdict_and_still_writes_the_summary(tmp_path, monkeypatch):
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "trials_per_s", "better": "higher", "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = {"base": _run(100.0, 10.0), "head": _run(70.0, 10.0)}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "a" * 40 if args[-1] == "HEAD~1" else "b" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: runs[tree.name])
    monkeypatch.setattr(bench_pairs, "probe_process_time", _probes(1.0))
    assert bench_pairs.main(["--pairs", "2"]) == 1
    report = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())
    assert report["workloads"]["w"]["metrics"]["trials_per_s"]["worse_past_bound"] is True
    runs["head"] = _run(100.0, 10.0)
    assert bench_pairs.main(["--pairs", "2"]) == 0


def test_main_records_the_code_lines_under_src_of_each_side(tmp_path, monkeypatch):
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "trials_per_s", "better": "higher", "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    sources = {
        # blank, comment and docstring lines do not count; the four lines of
        # the two statements do
        "a" * 40: (
            '"""Module docstring."""\n\n# a comment\nimport math\n\n\ndef f(x):\n'
            '    """A docstring\n    on two lines."""\n    return math.sqrt(\n        x)  # trailing\n'
        ),
        # an assigned string is code on every line it spans
        "b" * 40: 'X = """not a docstring:\nan assigned string"""\n',
    }

    def extract(rev, dest):
        (dest / "src" / "pkg").mkdir(parents=True)
        (dest / "src" / "pkg" / "m.py").write_text(sources[rev])
        (dest / "tests").mkdir()
        (dest / "tests" / "test_m.py").write_text("assert True\n")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "a" * 40 if args[-1] == "HEAD~1" else "b" * 40)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: _run(100.0, 10.0))
    monkeypatch.setattr(bench_pairs, "probe_process_time", _probes(1.0))
    assert bench_pairs.main(["--pairs", "1"]) == 0
    report = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())
    assert report["src_code_lines"] == {"base": 4, "head": 2}


@pytest.mark.parametrize("env_value, expected", [("1", True), ("", False), (None, False)])
def test_main_records_whether_bytecode_writing_is_off_in_the_runs(tmp_path, monkeypatch, env_value, expected):
    # setup_s depends on it: with bytecode writing off every probe compiles
    # each module it imports. The runs inherit the environment variable, not
    # this process's -B flag, so the field follows the variable alone: one of
    # the cases disagrees with sys.flags.dont_write_bytecode, whatever it is
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "trials_per_s", "better": "higher", "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    if env_value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", env_value)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "a" * 40 if args[-1] == "HEAD~1" else "b" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: _run(100.0, 10.0))
    monkeypatch.setattr(bench_pairs, "probe_process_time", _probes(1.0))
    assert bench_pairs.main(["--pairs", "1"]) == 0
    host = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())["host"]
    assert host["dont_write_bytecode"] is expected


_STUB_WORKLOADS = """
class Stub:
    def config(self):
        return "cfg"

    def warm_up(self, cfg):
        self.log("warm " + cfg)

    def run(self, cfg, j):
        if FAIL:
            raise RuntimeError("stub failure")
        sum(range(20000))  # some CPU time to measure
        self.log(str(j))

    def log(self, line):
        with open({log!r}, "a") as fh:
            fh.write(TREE + " " + line + "\\n")


TREE = {tree!r}
FAIL = {fail}
WORKLOADS = {{"w": Stub()}}
"""


@pytest.mark.parametrize("failing", [(), ("base",)], ids=["both-pass", "base-fails"])
def test_the_probes_of_both_trees_take_turns_after_both_warm_ups(tmp_path, monkeypatch, failing):
    log = tmp_path / "log.txt"
    trees = {side: tmp_path / side for side in ("base", "head")}
    for side, tree in trees.items():
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "workloads.py").write_text(
            _STUB_WORKLOADS.format(log=str(log), tree=side, fail=side in failing))
    monkeypatch.setattr(bench_pairs, "PROBE_OPS", {"w": 2})
    monkeypatch.setattr(bench_pairs, "PROBE_PASSES", 2)
    records = bench_pairs.probe_process_time(trees, ("head", "base"), "w")
    lines = log.read_text().splitlines()
    # the warm-ups run at once, in either order, and both end before a pass
    assert sorted(lines[:2]) == ["base warm cfg", "head warm cfg"]
    if failing:
        assert records["base"]["failed"] is None and records["base"]["metrics"] == {}
        assert "stub failure" in records["base"]["error"]
        # the other tree still runs all of its passes
        assert lines[2:] == ["head 0", "head 1"] * 2
    else:
        # pass k of the second side runs right after pass k of the first
        assert lines[2:] == ["head 0", "head 1", "base 0", "base 1"] * 2
    for side in set(trees) - set(failing):
        assert records[side]["failed"] == 0 and records[side]["metrics"]["us_per_op"]["value"] > 0.0


def test_main_records_a_process_time_block_per_workload(tmp_path, monkeypatch):
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}],
            "end_to_end": [{"name": "trials_per_s", "better": "higher", "bound": 0.2}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    cpu = {("base", "w"): 50.0, ("head", "w"): 40.0, ("base", "v"): 7.0, ("head", "v"): 7.0}
    probes = []

    def probe(trees, order, workload):
        probes.append((order, workload))
        return {side: _probe(cpu[side, workload]) for side in order}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "a" * 40 if args[-1] == "HEAD~1" else "b" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: _run(100.0, 10.0))
    monkeypatch.setattr(bench_pairs, "probe_process_time", probe)
    assert bench_pairs.main(["--pairs", "2"]) == 0
    # one probe of both trees per pair, in the pair's order of runs
    assert probes == [(("base", "head"), "w"), (("head", "base"), "w"),
                      (("base", "head"), "v"), (("head", "base"), "v")]
    workloads = json.loads((tmp_path / "BENCH_bbbbbbb.json").read_text())["workloads"]
    faster = workloads["w"]["process_time"]["metrics"]["us_per_op"]
    assert faster["better"] == "lower" and faster["unit"] == "us"
    assert (faster["ratio"], faster["wins"], faster["pairs"]) == (0.8, 2, 2)
    assert workloads["v"]["process_time"]["metrics"]["us_per_op"]["wins"] == 0
    # the probes are no benchmark metric: no bound judges them
    assert "worse_past_bound" not in faster
