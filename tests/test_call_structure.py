"""Call counts per trial, in closed form.

The modules import each other's layer functions by name, so each count wraps
every binding a caller looks the function up through. The closed forms of a
whole sweep and of ``verify`` are the ones the benchmark's traced mode
checks, taken from ``perfbench/workloads.py``; an engine change that alters
them fails here first.
"""

from collections import Counter

import pytest

from swipt_relay import channel, oracle
from swipt_relay.baselines import PolicyId
from swipt_relay.montecarlo import SweepSpec, _block_trials, sweep

from conftest import benchmark_bindings, benchmark_module, make_cfg

# (owner, attribute) of every binding through which a counted layer function
# is looked up at call time, by the name its calls are counted under: the
# benchmark's own bindings, so that one it adds is counted here too
_BENCHMARK = benchmark_bindings()
BINDINGS = {
    span.split(".")[1]: [(owner, attr) for owner, attr, name in _BENCHMARK if name == span]
    for span in ("channel.generate_channel", "allocator.waterfill", "allocator.split_and_gain")
}
_WORKLOADS = benchmark_module("workloads")


def _counts(workload, n_ops: int) -> dict[str, int]:
    """``workload.expected_calls(n_ops)``, keyed by the names of ``BINDINGS``."""
    return {span.split(".")[1]: count for span, count in workload.expected_calls(n_ops).items()}


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


# (N, trials per point): 3 trials fit in one block of run_trials, and a
# whole block and one more cross its boundary; the 3-trial cases keep the
# ids they had before the crossing ones were added
SWEEP_CASES = [(n, 3) for n in (4, 9)] + [(n, _block_trials(n) + 1) for n in (4, 9)]


@pytest.mark.parametrize(
    "n, trials", [pytest.param(n, t, id=str(n) if t == 3 else f"{n}-block+1-trials") for n, t in SWEEP_CASES]
)
def test_sweep_call_counts(calls, n, trials):
    cfg = make_cfg(n_subcarriers=n, taps=2)
    values = (10.0, 30.0)
    sweep(cfg, SweepSpec("p_max_dbm", values, trials, seed=7, policies=tuple(PolicyId)))
    # one benchmark operation per sweep point
    workload = _WORKLOADS.SweepWorkload("test", n, 2, values, trials, pool_size=len(values), oracle_samples=0)
    assert calls == _counts(workload, len(values))


# per trial and policy: waterfill calls, and split_and_gain calls per subcarrier
PER_TRIAL = {
    PolicyId.PROPOSED: (1, 1),
    PolicyId.OPA_NO_PAIRING: (1, 1),
    PolicyId.UNIFORM_WITH_PAIRING: (0, 1),
    PolicyId.UNIFORM_NO_PAIRING: (0, 1),
    PolicyId.CONVENTIONAL_NON_EH: (1, 0),
}


@pytest.mark.parametrize(
    "policy, n, trials",
    # the N=4, 3-trial cases keep the bare policy ids they had before N=9
    # and the crossing cases were added
    [
        pytest.param(p, n, t, id=p.value + ("" if n == 4 else f"-{n}") + ("" if t == 3 else "-block+1-trials"))
        for n, t in SWEEP_CASES for p in PolicyId
    ],
)
def test_sweep_call_counts_per_policy(calls, policy, n, trials):
    cfg = make_cfg(n_subcarriers=n, taps=2)
    values = (10.0, 30.0)
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
    assert calls == _counts(_WORKLOADS.VerifyWorkload("test", 4, 4, pool_size=1), 1)


def test_benchmark_bindings_exist():
    """Every binding the benchmark's tracer replaces is a module or class
    attribute; a renamed or removed one fails its traced mode with a
    KeyError."""
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in benchmark_bindings() if attr not in owner.__dict__
    ]
    assert not missing
