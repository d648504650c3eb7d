from dataclasses import replace

import numpy as np
import pytest

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
