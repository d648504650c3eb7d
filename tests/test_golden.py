"""Per-trial rates of every policy against the pinned golden fixture.

The fixture was written by ``tests/make_golden.py`` before the exact
water-filling kernel replaced bisection, and its ``n256_taps16`` config before
the per-pair split moved to Python floats; the outputs are expected to stay
bit-identical. A deliberate change of these numbers is recorded in CHANGES.md
together with the regenerated fixture.
"""

import numpy as np
import pytest

from make_golden import CONFIGS, GOLDEN_PATH, POLICIES, golden_rates


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
