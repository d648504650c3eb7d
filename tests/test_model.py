import copy
import dataclasses
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swipt_relay.baselines import PolicyId, solve_policy
from swipt_relay.channel import generate_channel
from swipt_relay.model import (
    ChannelRealization,
    ConfigError,
    NoiseProfile,
    SubcarrierPairing,
    config_errors,
    config_from_dict,
    config_to_dict,
    dbm_to_mw,
    default_config,
    load_config,
    validate_config,
)

from conftest import make_cfg


def test_dbm_to_mw_reference_points():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == 1000.0
    assert dbm_to_mw(1.0) == pytest.approx(1.2589254117941673, rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dbm_to_mw_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        dbm_to_mw(bad)


def test_dbm_budget_overflow_is_a_config_error():
    with pytest.raises(ValueError, match="overflows"):
        dbm_to_mw(4000.0)
    data = config_to_dict(default_config())
    del data["p_max_mw"]
    data["p_max_dbm"] = 4000
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(data)
    assert excinfo.value.errors == ["p_max_dbm: 4000.0 dBm overflows a float in mW"]


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_dbm_to_mw_is_log_domain_homomorphism(a, b):
    assert dbm_to_mw(a + b) == pytest.approx(dbm_to_mw(a) * dbm_to_mw(b), rel=1e-12)


def test_default_config_is_valid_and_validation_idempotent():
    cfg = default_config()
    assert cfg.eta == 1.0 and cfg.n_subcarriers == 4
    assert validate_config(cfg) is cfg
    assert validate_config(validate_config(cfg)) is cfg


def test_eta_out_of_range_reported():
    cfg = make_cfg(eta=1.5)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(cfg)
    assert any("eta out of [0,1]" in err for err in excinfo.value.errors)


@pytest.mark.parametrize("dr", [0.0, 1.0, 1.5, -0.2])
def test_relay_position_bounds(dr):
    errors = config_errors(make_cfg(dr=dr))
    assert any("relay must lie strictly between" in err for err in errors)


def test_fewer_subcarriers_than_taps_reported():
    errors = config_errors(make_cfg(n_subcarriers=2, taps=4))
    assert errors == [
        "n_subcarriers (2) must be >= taps (4): the N-point DFT needs at least one point per tap"
    ]
    assert config_errors(make_cfg(n_subcarriers=4, taps=4)) == []
    with pytest.raises(ConfigError):
        validate_config(make_cfg(n_subcarriers=1, taps=2))


def test_all_violations_reported_together():
    cfg = make_cfg(
        eta=2.0,
        dr=5.0,
        p_max=-1.0,
        n_subcarriers=0,
        noise=NoiseProfile(-1.0, 1.0, 1.0, 1.0),
    )
    errors = config_errors(cfg)
    for needle in ("eta", "dr", "p_max", "n_subcarriers", "noise.sigma_ra_sq"):
        assert any(needle in err for err in errors), needle


@pytest.mark.parametrize(
    "field, value",
    [
        ("eta", "x"),
        ("dr", None),
        ("d0", "1"),
        ("alpha", [3.0]),
        # a bool is not a number here, as JSON true is not at load
        ("taps", True),
        ("n_subcarriers", True),
        ("eta", True),
        ("p_max", True),
        ("alpha", np.True_),
    ],
)
def test_mistyped_field_is_reported_not_raised(field, value):
    errors = config_errors(make_cfg(**{field: value}))
    assert errors and all(isinstance(err, str) for err in errors)
    assert any(field in err for err in errors), errors


def test_path_loss_overflow_reported():
    # (1 + 0.5)**2000 overflows a float, so the channel draw could not scale the taps
    errors = config_errors(make_cfg(alpha=2000.0))
    assert errors == [
        "alpha (2000.0): the source-relay path loss (1 + 0.5)**alpha overflows a float",
        "alpha (2000.0): the relay-destination path loss (1 + 0.5)**alpha overflows a float",
    ]
    # only the far hop overflows when the relay sits near the source
    errors = config_errors(make_cfg(alpha=1800.0, dr=0.01))
    assert errors == [
        "alpha (1800.0): the relay-destination path loss (1 + 0.99)**alpha overflows a float"
    ]
    assert config_errors(make_cfg(alpha=1000.0)) == []


def test_path_loss_times_taps_overflow_reported():
    # (1 + 0.5)**1750.09 fits a float but 4 times it does not: the channel
    # draw would divide the tap variance by inf and return an all-zero channel
    errors = config_errors(make_cfg(alpha=1750.09))
    assert errors == [
        "alpha (1750.09): the source-relay tap-variance divisor 4 * (1 + 0.5)**alpha "
        "overflows a float",
        "alpha (1750.09): the relay-destination tap-variance divisor 4 * (1 + 0.5)**alpha "
        "overflows a float",
    ]
    # with one tap the same exponent draws a usable channel
    cfg = make_cfg(alpha=1750.09, taps=1)
    assert config_errors(cfg) == []
    chan = generate_channel(cfg, 1)
    assert (chan.h_sq > 0.0).all() and (chan.g_sq > 0.0).all()


@given(
    st.floats(1e-6, 1e3),
    st.floats(1e-6, 1e3),
)
def test_noise_profile_destination_total_is_exact_sum(da, db):
    noise = NoiseProfile(1.0, 1.0, da, db)
    assert noise.sigma_d_sq == da + db


@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
def test_noise_profile_destination_total_is_set_once_and_kept(da, db):
    """``sigma_d_sq`` is the field sum, bit for bit, through replace, copy
    and pickle; it is read-only and not a field."""
    noise = NoiseProfile(1.0, 2.0, da, db)
    want = da + db
    assert noise.sigma_d_sq.hex() == want.hex()
    for again in (copy.copy(noise), copy.deepcopy(noise), pickle.loads(pickle.dumps(noise))):
        assert again == noise and again.sigma_d_sq.hex() == want.hex()
    changed = replace(noise, sigma_db_sq=2.0 * db)
    assert changed.sigma_d_sq == da + 2.0 * db
    with pytest.raises(dataclasses.FrozenInstanceError):
        noise.sigma_d_sq = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del noise.sigma_d_sq
    assert noise.sigma_d_sq.hex() == want.hex()


def test_noise_profile_destination_total_is_not_a_field():
    noise = default_config().noise
    assert [f.name for f in dataclasses.fields(noise)] == [
        "sigma_ra_sq", "sigma_rb_sq", "sigma_da_sq", "sigma_db_sq",
    ]
    assert "sigma_d_sq" not in repr(noise)
    assert "sigma_d_sq" not in json.dumps(config_to_dict(default_config()))
    assert hash(noise) == hash(NoiseProfile(*dataclasses.astuple(noise)))


def test_noise_profile_with_a_mistyped_field_is_reported_then_fails_on_use():
    """config_errors names the field; a solve that skips validation raises
    TypeError, as the destination sum itself would, rather than computing
    with a made-up noise power."""
    cfg = make_cfg(noise=NoiseProfile(1.0, 1.0, None, 1.0))
    assert config_errors(cfg) == ["noise.sigma_da_sq must be a positive, finite number"]
    chan = ChannelRealization([1.0, 0.5, 0.25, 2.0], [0.3, 0.7, 1.5, 0.1])
    for policy in PolicyId:
        with pytest.raises(TypeError):
            solve_policy(policy, chan, cfg)


def test_config_json_round_trip():
    cfg = default_config()
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_load_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(default_config())))
    assert load_config(path) == default_config()


def test_p_max_mw_wins_over_dbm():
    data = config_to_dict(default_config())
    data["p_max_mw"] = 5.0
    data["p_max_dbm"] = 30.0
    assert config_from_dict(data).p_max == 5.0


def test_p_max_dbm_alone_is_converted():
    data = config_to_dict(default_config())
    del data["p_max_mw"]
    data["p_max_dbm"] = 10.0
    assert config_from_dict(data).p_max == pytest.approx(10.0, rel=1e-15)


def test_unknown_and_missing_keys_rejected():
    data = config_to_dict(default_config())
    data["p_mx_mw"] = 3.0
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    del data["eta"]
    with pytest.raises(ConfigError, match="missing config keys"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    del data["noise"]["sigma_db_sq"]
    with pytest.raises(ConfigError, match="missing noise key"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("d0", "1", "d0 must be a number"),
        ("eta", None, "eta must be a number"),
        ("taps", 2.5, "taps must be an integer"),
        ("n_subcarriers", "4", "n_subcarriers must be an integer"),
        ("taps", math.inf, "taps must be an integer"),
        ("taps", math.nan, "taps must be an integer"),
    ],
)
def test_field_type_errors_are_reported(field, value, message):
    data = config_to_dict(default_config())
    data[field] = value
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(data)
    assert excinfo.value.errors == [message]


def test_field_type_errors_are_reported_with_the_rest():
    data = config_to_dict(default_config())
    data.update(d0="1", taps=2.5, p_max_mw="high")
    del data["noise"]["sigma_ra_sq"]
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(data)
    assert excinfo.value.errors == [
        "p_max_mw must be a number",
        "missing noise key: sigma_ra_sq",
        "d0 must be a number",
        "taps must be an integer",
    ]
    # integral floats are still accepted as integers
    data = config_to_dict(default_config())
    data["taps"] = 4.0
    assert config_from_dict(data).taps == 4


def test_pairing_must_be_permutation():
    SubcarrierPairing([2, 0, 1])
    with pytest.raises(ValueError):
        SubcarrierPairing([0, 0, 1])
    with pytest.raises(ValueError):
        SubcarrierPairing([1, 2, 3])


@pytest.mark.parametrize("perm", [[0.4, 1.2], [1.0, 0.0], np.array([1.0, 0.0]), [True, False]])
def test_pairing_rejects_a_perm_that_is_not_integers(perm):
    # a float or bool index would be truncated: [0.4, 1.2] read as [0, 1]
    with pytest.raises(ValueError, match="perm must hold integers"):
        SubcarrierPairing(perm)
    assert SubcarrierPairing(np.array([1, 0], dtype=np.int32)).perm.dtype == np.int64


@pytest.mark.parametrize("bools", [[True, False], [True, 2.0], [np.True_, 2.0], np.array([True, True])])
def test_channel_realization_rejects_bool_gains(bools):
    with pytest.raises(ValueError, match="h_sq entries must be numbers, not bools"):
        ChannelRealization(bools, [1.0, 2.0])
    with pytest.raises(ValueError, match="g_sq entries must be numbers, not bools"):
        ChannelRealization([1.0, 2.0], bools)


def test_channel_realization_invariants():
    chan = ChannelRealization([1.0, 2.0], [0.5, 0.0])
    assert chan.n_subcarriers == 2
    with pytest.raises(ValueError):
        chan.h_sq[0] = 9.0  # frozen storage
    with pytest.raises(ValueError):
        ChannelRealization([1.0, -2.0], [0.5, 0.1])
    with pytest.raises(ValueError):
        ChannelRealization([1.0, math.inf], [0.5, 0.1])
    with pytest.raises(ValueError):
        ChannelRealization([1.0, 2.0], [0.5])


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(Exception):
        cfg.eta = 0.5
    assert replace(cfg, eta=0.5).eta == 0.5
