"""Call counts per trial, in closed form.

The modules import each other's layer functions by name, so each count wraps
every binding a caller looks the function up through. The benchmark's traced
mode checks the same closed forms; an engine change that alters them fails
here first.
"""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import pytest

from swipt_relay import allocator, baselines, channel, montecarlo, oracle
from swipt_relay.baselines import PolicyId
from swipt_relay.montecarlo import SweepSpec, sweep

from conftest import make_cfg

# (owner, attribute) of every binding through which a layer function is
# looked up at call time, by the name its calls are counted under
BINDINGS = {
    "generate_channel": ((channel, "generate_channel"), (montecarlo, "generate_channel")),
    "waterfill": ((allocator, "waterfill"), (baselines, "waterfill"), (oracle, "waterfill")),
    "split_and_gain": ((allocator, "split_and_gain"), (baselines, "split_and_gain")),
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for name, owners in BINDINGS.items():
        for owner, attr in owners:
            original = getattr(owner, attr)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
    return counts


def test_sweep_call_counts(calls):
    cfg = make_cfg(n_subcarriers=4, taps=2)
    values, trials = (10.0, 30.0), 3
    sweep(cfg, SweepSpec("p_max_dbm", values, trials, seed=7, policies=tuple(PolicyId)))
    n_trials = len(values) * trials
    assert calls == {
        "generate_channel": n_trials,
        # proposed, opa-nopair and conventional water-fill; the uniform ones do not
        "waterfill": 3 * n_trials,
        # every policy but conventional splits each of the N pairs
        "split_and_gain": 4 * cfg.n_subcarriers * n_trials,
    }


# per trial and policy: waterfill calls, and split_and_gain calls per subcarrier
PER_TRIAL = {
    PolicyId.PROPOSED: (1, 1),
    PolicyId.OPA_NO_PAIRING: (1, 1),
    PolicyId.UNIFORM_WITH_PAIRING: (0, 1),
    PolicyId.UNIFORM_NO_PAIRING: (0, 1),
    PolicyId.CONVENTIONAL_NON_EH: (1, 0),
}


@pytest.mark.parametrize("policy", list(PolicyId), ids=lambda policy: policy.value)
def test_sweep_call_counts_per_policy(calls, policy):
    cfg = make_cfg(n_subcarriers=4, taps=2)
    values, trials = (10.0, 30.0), 3
    sweep(cfg, SweepSpec("p_max_dbm", values, trials, seed=7, policies=(policy,)))
    n_trials = len(values) * trials
    waterfills, splits = PER_TRIAL[policy]
    assert {name: calls[name] for name in BINDINGS} == {
        "generate_channel": n_trials,
        "waterfill": waterfills * n_trials,
        "split_and_gain": splits * cfg.n_subcarriers * n_trials,
    }


def test_verify_call_counts(calls):
    cfg = make_cfg(n_subcarriers=4, taps=4)
    report = oracle.verify(channel.generate_channel(cfg, 11), cfg)
    assert report.all_pass
    assert calls == {
        "generate_channel": 1,
        # N! candidate pairings, plus the proposed and opa-nopair solves
        "waterfill": math.factorial(cfg.n_subcarriers) + 2,
        # proposed, opa-nopair and both uniform rivals split N pairs each
        "split_and_gain": 4 * cfg.n_subcarriers,
    }


def test_benchmark_bindings_exist():
    """Every binding the benchmark's tracer replaces is a module or class
    attribute; a renamed or removed one fails its traced mode with a
    KeyError."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in spans.BINDINGS if attr not in owner.__dict__
    ]
    assert not missing
