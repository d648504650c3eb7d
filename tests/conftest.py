import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swipt_relay
from swipt_relay.model import ConfigError, dbm_to_mw, default_config

# 1 dBm in linear milliwatts; the default receiver noise level
NOISE_1DBM = dbm_to_mw(1.0)

# Reference single-pair instance (h_sq = g_sq = 0.9, all noise 1 dBm, eta = 1):
# the equal-rate split solves 0.9*rho^2 + rho - 0.9 = 0, and at a 10 mW budget
# both mutual-information terms meet at the value below. Frozen from the
# bisection oracle.
REF_GAIN = 0.9
REF_RHO = 0.5884033489985556
REF_GAMMA = 0.2648237013788069
REF_RATE_10MW = 0.9335997298156259


def make_cfg(**overrides):
    return replace(default_config(), **overrides)


def config_faults(**overrides) -> list[str]:
    """The messages of the ``ConfigError`` that refuses to build
    ``make_cfg(**overrides)``, or [] if it builds."""
    try:
        make_cfg(**overrides)
    except ConfigError as exc:
        return exc.errors
    return []


def fresh_python(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this tree's
    package; a failure there fails the test with its traceback."""
    src = str(Path(swipt_relay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def benchmark_module(name: str):
    """The module ``perfbench/<name>.py``, loaded by path, as ``perfbench``
    is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_bindings():
    """``BINDINGS`` of ``perfbench/spans.py``: the (owner, attribute, span
    name) of every layer function the benchmark's tracer replaces."""
    return benchmark_module("spans").BINDINGS


# gains at the edges of the float range: zero, the smallest subnormal, a
# subnormal whose 1/gamma overflows, and one where gamma*P overflows
EDGE_GAINS = (0.0, 5e-324, 1e-310, 1e300)


def mixed_gains(seed: int, n: int) -> list[float]:
    """``n`` gains from ``seed``: about a quarter drawn from ``EDGE_GAINS``,
    the rest log-uniform over 1e-12..1e6. Drawing from one seed keeps wide
    vectors cheap for Hypothesis."""
    rng = np.random.default_rng(seed)
    edge = rng.choice(EDGE_GAINS, size=n)
    regular = 10.0 ** rng.uniform(-12.0, 6.0, size=n)
    return np.where(rng.random(n) < 0.25, edge, regular).tolist()


def assert_read_only(arr):
    """``arr`` refuses writes, and so does the array it views, if any."""
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = arr[0]
    # a view of a writable array would leave a back door through .base
    if arr.base is not None:
        assert not arr.base.flags.writeable


@pytest.fixture
def default_cfg():
    return default_config()


@pytest.fixture
def single_pair_cfg():
    """One subcarrier, one tap, 10 mW budget, default 1 dBm noise."""
    return make_cfg(n_subcarriers=1, taps=1, p_max=10.0)
