import numpy as np
import pytest

from swipt_relay import allocator, model, montecarlo
from swipt_relay.baselines import PolicyId, solve_policy
from swipt_relay.channel import generate_channel
from swipt_relay.allocator import NoUsablePairError, solve
from swipt_relay.model import ChannelRealization
from swipt_relay.montecarlo import (
    CSV_COLUMNS,
    POINT_SEED_STRIDE,
    SweepSpec,
    run_trials,
    sweep,
)

from conftest import make_cfg

ALL_POLICIES = tuple(PolicyId)
EH_POLICIES = (
    PolicyId.PROPOSED,
    PolicyId.OPA_NO_PAIRING,
    PolicyId.UNIFORM_WITH_PAIRING,
    PolicyId.UNIFORM_NO_PAIRING,
)


def test_single_trial_matches_direct_solve(default_cfg):
    batch = run_trials(default_cfg, [PolicyId.PROPOSED], trials=1, seed=9)
    direct = solve(generate_channel(default_cfg, 10), default_cfg).total_rate
    assert batch.rates[PolicyId.PROPOSED][0] == direct


def test_run_trials_deterministic(default_cfg):
    one = run_trials(default_cfg, ALL_POLICIES, trials=25, seed=4)
    two = run_trials(default_cfg, ALL_POLICIES, trials=25, seed=4)
    for policy in ALL_POLICIES:
        np.testing.assert_array_equal(one.rates[policy], two.rates[policy])


def test_common_random_numbers_across_policy_sets(default_cfg):
    """A policy's rate stream depends only on (cfg, seed), never on which
    other policies ride along: all policies see identical realizations."""
    alone = run_trials(default_cfg, [PolicyId.PROPOSED], trials=20, seed=5)
    together = run_trials(default_cfg, ALL_POLICIES, trials=20, seed=5)
    np.testing.assert_array_equal(
        alone.rates[PolicyId.PROPOSED], together.rates[PolicyId.PROPOSED]
    )


def test_mean_dominance_of_proposed(default_cfg):
    batch = run_trials(default_cfg, ALL_POLICIES, trials=300, seed=1)
    top = batch.rates[PolicyId.PROPOSED]
    for policy in EH_POLICIES[1:]:
        assert np.all(batch.rates[policy] <= top + 1e-9)
        assert batch.rates[policy].mean() <= top.mean()


def test_dead_trials_counted_when_harvesting_disabled():
    cfg = make_cfg(eta=0.0)
    batch = run_trials(cfg, ALL_POLICIES, trials=10, seed=3)
    # no harvesting: every EH policy that water-fills sees a dead channel
    assert batch.dead_trials[PolicyId.PROPOSED] == 10
    assert batch.dead_trials[PolicyId.OPA_NO_PAIRING] == 10
    assert np.all(batch.rates[PolicyId.PROPOSED] == 0.0)
    # uniform policies score zero without raising
    assert batch.dead_trials[PolicyId.UNIFORM_NO_PAIRING] == 0
    assert np.all(batch.rates[PolicyId.UNIFORM_NO_PAIRING] == 0.0)
    # the supplied relay does not harvest at all
    assert batch.dead_trials[PolicyId.CONVENTIONAL_NON_EH] == 0
    assert np.all(batch.rates[PolicyId.CONVENTIONAL_NON_EH] > 0.0)


@pytest.mark.parametrize("n", [4, 9])
@pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
def test_run_trials_match_solve_policy_across_blocks(monkeypatch, trials, n):
    """Whole and partial blocks of trials give each policy the bits of a
    per-trial solve_policy. Every 7th channel is dead, and each policy
    counts the trials it had to score as zero."""
    cfg = make_cfg(n_subcarriers=n, taps=2)

    def channel_of(cfg, seed):
        chan = generate_channel(cfg, seed)
        return ChannelRealization(chan.h_sq, np.zeros(n)) if seed % 7 == 0 else chan

    monkeypatch.setattr(montecarlo, "generate_channel", channel_of)
    batch = run_trials(cfg, ALL_POLICIES, trials, seed=11)
    for policy in ALL_POLICIES:
        want, dead = [], 0
        for seed in range(12, 12 + trials):
            try:
                want.append(solve_policy(policy, channel_of(cfg, seed), cfg).total_rate)
            except NoUsablePairError:
                want.append(0.0)
                dead += 1
        assert batch.rates[policy].tobytes() == np.array(want).tobytes()
        assert batch.dead_trials[policy] == dead
    assert batch.dead_trials[PolicyId.PROPOSED] == (trials + 4) // 7


def test_run_trials_rejects_an_invalid_config():
    with pytest.raises(ValueError, match=r"eta out of \[0,1\]"):
        run_trials(make_cfg(eta=5.0), ALL_POLICIES, trials=1, seed=1)


def test_run_trials_checks_policies_before_any_trial(default_cfg, monkeypatch):
    drawn = []
    monkeypatch.setattr(montecarlo, "generate_channel", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="unhandled policy"):
        run_trials(default_cfg, (PolicyId.PROPOSED, "proposed"), trials=3, seed=1)
    assert drawn == []


def test_run_trials_rejects_no_policies_before_any_trial(default_cfg, monkeypatch):
    drawn = []
    monkeypatch.setattr(montecarlo, "generate_channel", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="policies must be nonempty"):
        run_trials(default_cfg, (), trials=3, seed=1)
    assert drawn == []


def test_run_trials_evaluates_a_repeated_policy_once(default_cfg, monkeypatch):
    once = run_trials(default_cfg, (PolicyId.PROPOSED,), trials=4, seed=2)
    calls = []
    original = allocator.waterfill

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(allocator, "waterfill", counted)
    twice = run_trials(default_cfg, (PolicyId.PROPOSED, PolicyId.PROPOSED), trials=4, seed=2)
    assert len(calls) == 4
    assert list(twice.rates) == [PolicyId.PROPOSED]
    np.testing.assert_array_equal(twice.rates[PolicyId.PROPOSED], once.rates[PolicyId.PROPOSED])
    assert twice.dead_trials == once.dead_trials


def test_run_trials_rates_are_read_only(default_cfg):
    batch = run_trials(default_cfg, ALL_POLICIES, trials=3, seed=1)
    for rates in batch.rates.values():
        assert not rates.flags.writeable
        with pytest.raises(ValueError):
            rates.setflags(write=True)


def test_sweep_spec_validation():
    good = dict(
        variable="p_max_dbm", values=(10.0, 20.0), trials=2, seed=0, policies=(PolicyId.PROPOSED,)
    )
    SweepSpec(**good)
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "values": ()})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "values": (10.0, 10.0)})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "values": (20.0, 10.0)})
    SweepSpec(**{**good, "trials": POINT_SEED_STRIDE - 1})
    with pytest.raises(ValueError, match=f"below {POINT_SEED_STRIDE}"):
        SweepSpec(**{**good, "trials": POINT_SEED_STRIDE})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "variable": "bandwidth"})
    with pytest.raises(ValueError):
        SweepSpec(**{**good, "policies": ()})
    # a repeated policy would write the same CSV row twice
    with pytest.raises(ValueError, match="must not repeat"):
        SweepSpec(**{**good, "policies": (PolicyId.PROPOSED, PolicyId.PROPOSED)})
    # a policy name is not a policy; it would only fail at the first trial
    with pytest.raises(ValueError, match="unhandled policy"):
        SweepSpec(**{**good, "policies": ("proposed",)})
    # a NumPy integer is accepted and stored as a Python int for the CSV
    spec = SweepSpec(**{**good, "seed": np.int64(3)})
    assert spec.seed == 3 and type(spec.seed) is int


def test_single_point_sweep_matches_run_trials(default_cfg):
    spec = SweepSpec(
        variable="p_max_dbm",
        values=(20.0,),
        trials=40,
        seed=11,
        policies=(PolicyId.PROPOSED,),
    )
    result = sweep(default_cfg, spec)
    batch = run_trials(make_cfg(p_max=100.0), [PolicyId.PROPOSED], trials=40, seed=11)
    row = result.rows[0]
    assert row.mean_rate_bps_hz == float(batch.rates[PolicyId.PROPOSED].mean())
    assert row.std_rate == float(batch.rates[PolicyId.PROPOSED].std(ddof=1))
    assert row.trials == 40 and row.seed == 11 and row.sweep_value == 20.0


def test_sweep_point_seed_offset(default_cfg):
    spec = SweepSpec(
        variable="relay_position",
        values=(0.3, 0.6),
        trials=10,
        seed=7,
        policies=(PolicyId.PROPOSED,),
    )
    result = sweep(default_cfg, spec)
    second_point = run_trials(
        make_cfg(dr=0.6), [PolicyId.PROPOSED], trials=10, seed=7 + POINT_SEED_STRIDE
    )
    assert result.rows[1].mean_rate_bps_hz == float(
        second_point.rates[PolicyId.PROPOSED].mean()
    )


def test_sweep_rates_rise_with_budget(default_cfg):
    spec = SweepSpec(
        variable="p_max_dbm",
        values=(10.0, 20.0, 30.0, 40.0),
        trials=100,
        seed=3,
        policies=(PolicyId.PROPOSED,),
    )
    means = [row.mean_rate_bps_hz for row in sweep(default_cfg, spec).rows]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_sweep_csv_layout(default_cfg):
    spec = SweepSpec(
        variable="p_max_dbm",
        values=(10.0, 20.0),
        trials=5,
        seed=1,
        policies=(PolicyId.PROPOSED, PolicyId.CONVENTIONAL_NON_EH),
    )
    result = sweep(default_cfg, spec)
    text = result.to_csv()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4  # two points x two policies
    assert lines[1].startswith("p_max_dbm,10.0,proposed,")
    banner = result.to_csv(banner="tool 1.2.3")
    assert banner.splitlines()[0] == "# tool 1.2.3"
    assert banner.splitlines()[1:] == lines


def test_sweep_csv_is_reproducible(default_cfg):
    spec = SweepSpec(
        variable="relay_position",
        values=(0.2, 0.5, 0.8),
        trials=20,
        seed=12,
        policies=(PolicyId.PROPOSED, PolicyId.CONVENTIONAL_NON_EH),
    )
    assert sweep(default_cfg, spec).to_csv() == sweep(default_cfg, spec).to_csv()


def test_sweep_rejects_invalid_substituted_config(default_cfg):
    spec = SweepSpec(
        variable="relay_position",
        values=(0.5, 1.5),  # 1.5*d0 puts the relay beyond the destination
        trials=2,
        seed=1,
        policies=(PolicyId.PROPOSED,),
    )
    with pytest.raises(Exception, match="relay"):
        sweep(default_cfg, spec)


def test_sweep_validates_each_point_once(default_cfg, monkeypatch):
    """Each point is checked once, when its config is built; run_trials
    checks nothing again."""
    seen = []
    original = model.validate_config

    def counted(cfg):
        seen.append(cfg)
        return original(cfg)

    # the constructor looks the check up in its module at call time
    monkeypatch.setattr(model, "validate_config", counted)
    spec = SweepSpec(
        variable="p_max_dbm",
        values=(10.0, 20.0, 30.0),
        trials=2,
        seed=1,
        policies=(PolicyId.PROPOSED,),
    )
    sweep(default_cfg, spec)
    assert [cfg.p_max for cfg in seen] == pytest.approx([10.0, 100.0, 1000.0], rel=1e-15)


@pytest.mark.parametrize(
    "variable, values",
    [
        ("p_max_dbm", (10.0, 4000.0)),  # 4000 dBm overflows a float in mW
        ("relay_position", (0.5, 1.5)),  # the relay lies beyond the destination
    ],
)
def test_sweep_checks_every_point_before_any_trial(default_cfg, monkeypatch, variable, values):
    def sweep_error(values):
        spec = SweepSpec(variable=variable, values=values, trials=3, seed=1, policies=ALL_POLICIES)
        with pytest.raises(ValueError) as err:
            sweep(default_cfg, spec)
        return err

    alone = sweep_error(values[-1:])
    drawn = []
    monkeypatch.setattr(montecarlo, "generate_channel", lambda *args: drawn.append(args))
    together = sweep_error(values)
    assert drawn == []
    assert (together.type, str(together.value)) == (alone.type, str(alone.value))
