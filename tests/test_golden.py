"""Per-trial rates of every policy against the pinned golden fixture, one
``solve_policy`` call at a time and through the sweep path's ``run_trials``.

The fixture was written by ``tests/make_golden.py`` before the exact
water-filling kernel replaced bisection, and its ``n256_taps16`` config before
the per-pair split moved to Python floats; the outputs are expected to stay
bit-identical. A deliberate change of these numbers is recorded in CHANGES.md
together with the regenerated fixture.
"""

import numpy as np
import pytest

from swipt_relay.montecarlo import run_trials

from make_golden import CONFIGS, GOLDEN_PATH, POLICIES, TRIALS, golden_rates


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {name: data[name] for name in data.files}


def test_golden_covers_every_policy_and_config(golden):
    assert list(golden["policies"]) == [policy.value for policy in POLICIES]
    assert set(golden) - {"policies"} == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rates_match_golden(golden, name):
    np.testing.assert_allclose(
        golden_rates(CONFIGS[name]), golden[name], rtol=1e-12, atol=0.0, equal_nan=True
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_trials_matches_golden(golden, name):
    """The sweep path scores every policy in one pass per trial; it must give
    each fixture rate bit for bit, with a dead (NaN) trial scored 0.0 and
    counted in ``dead_trials``."""
    batch = run_trials(CONFIGS[name], POLICIES, TRIALS, seed=0)
    for k, policy in enumerate(POLICIES):
        want = golden[name][:, k]
        dead = np.isnan(want)
        np.testing.assert_array_equal(batch.rates[policy], np.where(dead, 0.0, want))
        assert batch.dead_trials[policy] == np.count_nonzero(dead)
