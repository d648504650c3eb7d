"""The pure summary of scripts/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"trials_per_s": "higher", "latency_p50_ms": "lower"}


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
