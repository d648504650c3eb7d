"""Metamorphic relations: pairs of configs the model says must give the same
rates, checked bit for bit on ``run_trials`` at configs no fixture pins.

- Power-of-two scaling: multiplying ``p_max`` and all four noise powers by
  2**k leaves every SNR as it is. In floats the forward quality b scales by
  2**-k, the split rho_I keeps its bits, gamma scales by 2**-k and every
  power by 2**k, all exactly, so every rate of every policy keeps its bits.
- Harvest efficiency against destination noise: eta * 2**-j over the
  destination noise gives the same b = eta * g / sigma_d_sq as eta over
  that noise doubled j times, and b is all a harvesting policy reads of
  either. The conventional relay does not harvest, so it is left out.
- Relabelling subcarriers: permuting the incoming and the outgoing gains by
  one permutation leaves every policy the same pairs, so every rate up to
  the order in which it is summed (see the test).

A power of two scales a float without rounding only while the value stays a
normal float, so each relation is drawn over the range where every product
the engine forms does. The gains are exponential draws with mean
(1 + d)**-alpha, at least 2**-29 here, and lie in [2**-70, 2**10] but with
odds of about 2**-40 per gain.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipt_relay import (
    ChannelRealization,
    NoiseProfile,
    PolicyId,
    SystemConfig,
    default_config,
    generate_channel,
    run_trials,
    solve_policy,
)
from swipt_relay.model import dbm_to_mw

HARVESTING = tuple(policy for policy in PolicyId if policy is not PolicyId.CONVENTIONAL_NON_EH)
TRIALS = 8


def _powers_of_two(low: int, high: int):
    """Floats log-uniform over [2**low, 2**high]."""
    return st.floats(low, high).map(lambda e: 2.0**e)


@st.composite
def _configs(draw, power_exponents: int):
    """A valid config with N up to 16 and every noise power and ``p_max`` in
    [2**-e, 2**e] mW, e = ``power_exponents``. d0 <= 50 and alpha <= 5 keep
    the mean gain at 2**-29 or more, and eta is 0 or at least 2**-10."""
    n = draw(st.integers(1, 16))
    d0 = draw(st.floats(0.1, 50.0))
    powers = _powers_of_two(-power_exponents, power_exponents)
    return SystemConfig(
        n_subcarriers=n,
        p_max=draw(powers),
        eta=draw(st.just(0.0) | st.just(1.0) | st.floats(2.0**-10, 1.0)),
        d0=d0,
        dr=d0 * draw(st.floats(0.05, 0.95)),
        alpha=draw(st.floats(1.0, 5.0)),
        taps=draw(st.integers(1, min(n, 8))),
        noise=NoiseProfile(*(draw(powers) for _ in range(4))),
    )


def _assert_same_trials(cfg_a, cfg_b, policies, seed):
    a = run_trials(cfg_a, policies, TRIALS, seed)
    b = run_trials(cfg_b, policies, TRIALS, seed)
    for policy in policies:
        assert a.rates[policy].tobytes() == b.rates[policy].tobytes(), policy
    assert a.dead_trials == b.dead_trials


# Powers up to 2**±100 mW, scaled by up to 2**±100, so every power of
# either config lies within 2**±M mW, M = 200. Then b lies within
# [2**-281, 2**209], short of the 2**256 where the split changes form; the
# split's smallest product 4*b*b*s_ra*s_rb is 2**-960 or more and its
# largest 2**820 or less; and the conventional relay's slope product
# (h/s_ra)*(g/s_d) lies within 2**±541. The split's product is the first
# to leave the normal floats, past M ~ 215.
@settings(max_examples=150, deadline=None)
@given(
    cfg=_configs(power_exponents=100),
    k=st.integers(-100, 100).filter(lambda k: k != 0),
    seed=st.integers(0, 2**32),
)
def test_scaling_the_budget_and_every_noise_power_keeps_every_rate(cfg, k, seed):
    c = 2.0**k
    noise = cfg.noise
    scaled = replace(
        cfg,
        p_max=cfg.p_max * c,
        noise=NoiseProfile(noise.sigma_ra_sq * c, noise.sigma_rb_sq * c, noise.sigma_da_sq * c, noise.sigma_db_sq * c),
    )
    _assert_same_trials(cfg, scaled, tuple(PolicyId), seed)


# Only b has to be exact here: the split, the gains and the powers after it
# are the same operations on the same values. With eta * g >= 2**-80,
# destination noise up to 2**500 mW and j <= 10, eta * g * 2**-j and b stay
# at 2**-591 or more, so the powers can span almost the whole valid range.
@settings(max_examples=150, deadline=None)
@given(
    # at eta = 0 both sides are dead on every trial, which shows nothing
    cfg=_configs(power_exponents=500).filter(lambda cfg: cfg.eta > 0.0),
    j=st.integers(1, 10),
    seed=st.integers(0, 2**32),
)
def test_halving_eta_matches_doubling_the_destination_noise(cfg, j, seed):
    c = 2.0**j
    noisier = replace(cfg.noise, sigma_da_sq=cfg.noise.sigma_da_sq * c, sigma_db_sq=cfg.noise.sigma_db_sq * c)
    _assert_same_trials(replace(cfg, eta=cfg.eta / c), replace(cfg, noise=noisier), HARVESTING, seed)


def test_the_conventional_relay_sees_the_destination_noise_alone():
    """The relation leaves out the one policy that does not harvest: at the
    default config its rate drops on every trial when the destination noise
    doubles, whatever eta is."""
    cfg = default_config()
    noisier = replace(cfg.noise, sigma_da_sq=cfg.noise.sigma_da_sq * 2, sigma_db_sq=cfg.noise.sigma_db_sq * 2)
    policy = (PolicyId.CONVENTIONAL_NON_EH,)
    halved = run_trials(replace(cfg, eta=0.5), policy, 20, 3).rates[policy[0]]
    doubled = run_trials(replace(cfg, noise=noisier), policy, 20, 3).rates[policy[0]]
    assert np.all(doubled < halved)



@pytest.mark.parametrize("n", [1, 4, 6, 8, 16, 256])
def test_relabelling_the_subcarriers_moves_a_rate_by_its_summation_order_alone(n):
    """Permuting h_sq and g_sq by one permutation gives each policy the same
    pairs, with the same splits and gains: sorted pairing matches the same
    ranks, and the identity pairing the same indices. What moves is the
    order of the sums: water-filling's level sums the pairs' 1/gamma, and
    the total rate sums the pair rates. N terms summed in two orders differ
    by at most (N - 1) * 2**-52 of the sum of their magnitudes, so each
    policy's total may move by at most N * 2**-52 * sum(|pair_rates|).
    Drawn at 0, 30 and 60 dBm and eta 1 and 0.05, 20 seeds each."""
    for p_max_dbm, eta, seed in itertools.product((0.0, 30.0, 60.0), (1.0, 0.05), range(1, 21)):
        cfg = replace(default_config(), n_subcarriers=n, taps=min(n, 4), p_max=dbm_to_mw(p_max_dbm), eta=eta)
        chan = generate_channel(cfg, seed)
        perm = np.random.default_rng(seed).permutation(n)
        relabelled = ChannelRealization(chan.h_sq[perm], chan.g_sq[perm])
        for policy in PolicyId:
            result = solve_policy(policy, chan, cfg)
            moved = abs(solve_policy(policy, relabelled, cfg).total_rate - result.total_rate)
            bound = n * 2.0**-52 * float(np.abs(result.pair_rates).sum())
            assert moved <= bound, (policy, p_max_dbm, eta, seed, moved / bound)
