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

from swipt_relay.allocator import SubcarrierPairing, solve
from swipt_relay.channel import ChannelRealization, generate_channel
from swipt_relay.model import (
    SWEEP_VARIABLES,
    ConfigError,
    NoiseProfile,
    PolicyId,
    SystemConfig,
    config_errors,
    config_from_dict,
    config_to_dict,
    dbm_to_mw,
    default_config,
    load_config,
    validate_config,
)
from swipt_relay.montecarlo import run_trials

from conftest import assert_read_only, config_faults, fresh_python, make_cfg


def test_dbm_to_mw_reference_points():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(30.0) == 1000.0
    assert dbm_to_mw(1.0) == pytest.approx(1.2589254117941673, rel=1e-15)


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


def test_fewer_subcarriers_than_taps_reported():
    errors = config_faults(n_subcarriers=2, taps=4)
    assert errors == [
        "n_subcarriers (2) must be >= taps (4): the N-point DFT needs at least one point per tap"
    ]
    assert config_errors(make_cfg(n_subcarriers=4, taps=4)) == []
    with pytest.raises(ConfigError):
        make_cfg(n_subcarriers=1, taps=2)


def test_all_violations_reported_together():
    errors = config_faults(
        eta=2.0,
        dr=5.0,
        p_max=-1.0,
        n_subcarriers=0,
        noise=NoiseProfile(-1.0, 1.0, 1.0, 1.0),
    )
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
    errors = config_faults(**{field: value})
    assert errors and all(isinstance(err, str) for err in errors)
    assert any(field in err for err in errors), errors


class _KindlessDtype:
    """A value with ``ndim == 0`` whose ``dtype`` has no ``kind``."""

    ndim = 0
    dtype = object()


@pytest.mark.parametrize(
    "field, value, error",
    [
        # NumPy derives timedelta64 from signedinteger, yet it is no count
        ("taps", np.timedelta64(4), "taps must be an integer >= 1"),
        ("taps", np.datetime64(4, "D"), "taps must be an integer >= 1"),
        ("p_max", np.array([10.0]), "p_max must be a positive, finite number"),
        ("p_max", _KindlessDtype(), "p_max must be a positive, finite number"),
    ],
)
def test_a_value_whose_dtype_kind_is_no_number_gets_the_range_message(field, value, error):
    assert config_faults(**{field: value}) == [error]


@pytest.mark.parametrize(
    "field, value",
    [
        ("eta", np.float32(1.0)),
        ("d0", np.float32(1.3)),
        ("alpha", np.float32(2.7)),
        ("p_max", np.int64(10)),
        ("p_max", np.array(10.0)),
    ],
)
def test_a_numpy_scalar_field_gives_the_float_result(field, value):
    """A NumPy real field, a 0-d array included, is stored as the Python
    float of its value, so float32 arithmetic never reaches the engine:
    solve and run_trials give the float's bits without a warning, and the
    config writes to JSON."""
    cfg = make_cfg(**{field: value})
    want = make_cfg(**{field: float(value)})
    assert type(getattr(cfg, field)) is float and cfg == want
    for seed in range(1, 6):
        got = solve(generate_channel(cfg, seed), cfg)
        assert got.total_rate.hex() == solve(generate_channel(want, seed), want).total_rate.hex()
    got, ref = run_trials(cfg, tuple(PolicyId), 20, 3), run_trials(want, tuple(PolicyId), 20, 3)
    assert all(got.rates[p].tobytes() == ref.rates[p].tobytes() for p in PolicyId)
    assert json.dumps(config_to_dict(cfg)) == json.dumps(config_to_dict(want))


@pytest.mark.parametrize("field, value", [("taps", np.uint8(200)), ("n_subcarriers", np.int64(256))])
def test_a_numpy_integer_field_is_stored_as_an_int(field, value):
    """A NumPy integer field is stored as the Python int of its value, so
    uint8 arithmetic never reaches the engine: a uint8 taps count of 200
    draws the channel of taps=200, where the draw's 2 * taps would wrap to
    144, and the config writes to JSON."""
    cfg = make_cfg(**{"n_subcarriers": 256, "taps": 200, field: value})
    want = make_cfg(n_subcarriers=256, taps=200)
    assert type(getattr(cfg, field)) is int and cfg == want
    got, ref = generate_channel(cfg, 1), generate_channel(want, 1)
    assert got.h_sq.tobytes() == ref.h_sq.tobytes() and got.g_sq.tobytes() == ref.g_sq.tobytes()
    assert json.dumps(config_to_dict(cfg)) == json.dumps(config_to_dict(want))


def test_a_numpy_scalar_noise_field_is_stored_as_a_float():
    noise = NoiseProfile(np.float32(1.5), np.float64(1.0), np.float32(0.25), np.int64(1))
    assert [type(getattr(noise, f.name)) for f in dataclasses.fields(noise)] == [float] * 4
    assert noise.sigma_d_sq == 1.25 and type(noise.sigma_d_sq) is float
    # Python ints and non-numbers stay as given, for the config to report
    kept = NoiseProfile(1, np.True_, "1", None)
    assert (kept.sigma_ra_sq, kept.sigma_rb_sq, kept.sigma_da_sq) == (1, np.True_, "1")
    assert type(kept.sigma_ra_sq) is int and type(kept.sigma_rb_sq) is np.bool_


def test_the_config_layer_runs_without_numpy(tmp_path):
    """The package and its config layer use the standard library alone: with
    NumPy's import blocked, a config loads, checks, converts and is refused
    with its listing, and the policy and sweep names read."""
    data = config_to_dict(make_cfg(n_subcarriers=6))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    bad = {**data, "eta": 2.0, "taps": 0}
    code = f"""
import sys
sys.modules["numpy"] = None
import swipt_relay as sr
from swipt_relay.model import SWEEP_VARIABLES, config_from_dict, config_to_dict
cfg = sr.validate_config(sr.load_config({str(path)!r}))
assert config_from_dict(config_to_dict(cfg)) == cfg and config_to_dict(cfg) == {data!r}
assert config_to_dict(sr.default_config()) == {config_to_dict(default_config())!r}
try:
    config_from_dict({bad!r})
except sr.ConfigError as exc:
    print(exc.errors)
print([policy.value for policy in sr.PolicyId], SWEEP_VARIABLES)
"""
    with pytest.raises(ConfigError) as refused:
        config_from_dict(bad)
    assert fresh_python(code).splitlines() == [
        str(refused.value.errors), f"{[policy.value for policy in PolicyId]} {SWEEP_VARIABLES}"]


def test_numpy_scalars_count_as_numbers_when_numpy_loads_after_the_package():
    # the number rule reads a value's dtype kind off the value and imports no
    # NumPy, so scalars made after the package loads get the verdicts of a
    # process that loaded NumPy first
    code = """
import sys
from dataclasses import replace
import swipt_relay as sr
print("numpy" in sys.modules)
import numpy as np
cfg = replace(sr.default_config(), p_max=np.float32(100.5), taps=np.uint8(4), n_subcarriers=np.int64(4))
print(type(cfg.p_max).__name__, cfg.p_max, type(cfg.taps).__name__, type(cfg.n_subcarriers).__name__)
for field in ("eta", "taps"):
    try:
        replace(cfg, **{field: np.bool_(True)})
    except sr.ConfigError as exc:
        print(exc.errors)
got, want = sr.generate_channel(cfg, np.int64(5)), sr.generate_channel(cfg, 5)
print(got.h_sq.tobytes() == want.h_sq.tobytes() and got.g_sq.tobytes() == want.g_sq.tobytes())
"""
    assert fresh_python(code).splitlines() == [
        "False",
        "float 100.5 int int",
        "['eta out of [0,1]']",
        "['taps must be an integer >= 1']",
        "True",
    ]


# configs that solve, verify and generate_channel took when they were
# checked in four places, each with the list it is now refused with
REFUSED_CONFIGS = [
    ({"eta": 2.0}, ["eta out of [0,1]"]),
    ({"dr": 1.5}, ["dr: relay must lie strictly between the source and the destination (0 < dr < d0)"]),
    ({"alpha": -3.0}, ["alpha must be a positive, finite number"]),
    ({"alpha": -2000.0}, ["alpha must be a positive, finite number"]),
    (
        {"alpha": 2000.0},
        [
            "alpha (2000.0): the source-relay path loss (1 + 0.5)**alpha overflows a float",
            "alpha (2000.0): the relay-destination path loss (1 + 0.5)**alpha overflows a float",
        ],
    ),
    (
        {"d0": math.inf},
        [
            "d0 must be a positive, finite number",
            "dr: relay must lie strictly between the source and the destination (0 < dr < d0)",
        ],
    ),
    ({"taps": 0}, ["taps must be an integer >= 1"]),
    (
        {"n_subcarriers": 3, "taps": 4},
        ["n_subcarriers (3) must be >= taps (4): the N-point DFT needs at least one point per tap"],
    ),
]


@pytest.mark.parametrize("overrides, errors", REFUSED_CONFIGS, ids=lambda v: str(v) if isinstance(v, dict) else "")
def test_an_invalid_config_cannot_be_built(overrides, errors):
    """The constructor, dataclasses.replace and the JSON form each refuse
    the config with the same list, so no invalid config reaches the engine."""
    cfg = default_config()
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)} | overrides
    data = config_to_dict(cfg) | overrides
    builds = (lambda: SystemConfig(**fields), lambda: replace(cfg, **overrides), lambda: config_from_dict(data))
    for build in builds:
        with pytest.raises(ConfigError) as excinfo:
            build()
        assert excinfo.value.errors == errors


def test_relay_noise_below_the_split_bound_is_refused():
    """Below 2**-511 mW, 4 * sigma_ra_sq * sigma_rb_sq leaves the normal
    floats and the split's root loses its precision; the destination noise
    has no such bound."""
    for noise in (1e-160, 5e-324, math.nextafter(2.0**-511, 0.0)):
        assert config_faults(noise=NoiseProfile(noise, noise, noise, noise)) == [
            f"noise.{name} ({noise}): below 2**-511 mW the split's term "
            "4 * sigma_ra_sq * sigma_rb_sq underflows a float"
            for name in ("sigma_ra_sq", "sigma_rb_sq")
        ]
    assert config_faults(noise=NoiseProfile(1.0, 1e-160, 1.0, 1.0)) == [
        "noise.sigma_rb_sq (1e-160): below 2**-511 mW the split's term "
        "4 * sigma_ra_sq * sigma_rb_sq underflows a float"
    ]
    assert config_faults(noise=NoiseProfile(2.0**-511, 2.0**-511, 5e-324, 5e-324)) == []


def test_path_loss_overflow_reported():
    # (1 + 0.5)**2000 overflows a float, so the channel draw could not scale the taps
    errors = config_faults(alpha=2000.0)
    assert errors == [
        "alpha (2000.0): the source-relay path loss (1 + 0.5)**alpha overflows a float",
        "alpha (2000.0): the relay-destination path loss (1 + 0.5)**alpha overflows a float",
    ]
    # only the far hop overflows when the relay sits near the source
    errors = config_faults(alpha=1800.0, dr=0.01)
    assert errors == [
        "alpha (1800.0): the relay-destination path loss (1 + 0.99)**alpha overflows a float"
    ]
    assert config_errors(make_cfg(alpha=1000.0)) == []


def test_path_loss_times_taps_overflow_reported():
    # (1 + 0.5)**1750.09 fits a float but 4 times it does not: the channel
    # draw would divide the tap variance by inf and return an all-zero channel
    errors = config_faults(alpha=1750.09)
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


def test_noise_profile_with_a_mistyped_field_is_reported_when_the_config_is_built():
    """A noise profile is not checked on its own: it builds, with no
    destination sum, and the config built around it names the field."""
    noise = NoiseProfile(1.0, 1.0, None, 1.0)
    assert noise.sigma_d_sq is None
    assert config_faults(noise=noise) == ["noise.sigma_da_sq must be a positive, finite number"]


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


_JSON = config_to_dict(default_config())


@pytest.mark.parametrize(
    "data, errors",
    [
        ([1, 2], ["config must be a JSON object"]),
        ({k: v for k, v in _JSON.items() if k != "p_max_mw"}, ["missing config keys: p_max_mw or p_max_dbm"]),
        (_JSON | {"noise": _JSON["noise"] | {"x": 1.0}}, ["unknown noise keys: x"]),
        (_JSON | {"noise": [1.0]}, ["noise must be an object"]),
    ],
    ids=["not-an-object", "no-budget", "unknown-noise-key", "noise-not-an-object"],
)
def test_config_from_dict_reports_the_json_form(data, errors):
    with pytest.raises(ConfigError) as excinfo:
        config_from_dict(data)
    assert excinfo.value.errors == errors


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
    with pytest.raises(ValueError, match="^channel needs at least one subcarrier$"):
        ChannelRealization([], [])


def test_a_result_keeps_values_out_of_range_for_verify_to_audit():
    """A result reads its values by the number rule but leaves their ranges
    open: NaN, ±inf, an int past the float range, a negative power and a
    split outside [0, 1] are kept, as new read-only float arrays and a
    Python float, for verify(result=...) to audit."""
    result = solve(generate_channel(default_config(), 1), default_config())
    powers = np.array([-1.0, math.inf, -math.inf, 0.0])
    given = {
        "rho_i": ([1.5, -0.5, math.nan, 10**400], [1.5, -0.5, math.nan, math.inf]),
        "powers": (powers, powers),
        "pair_rates": ([math.nan, -1.0, 0, np.float32(2.5)], [math.nan, -1.0, 0.0, 2.5]),
    }
    odd = replace(result, total_rate=-(10**400), **{name: values for name, (values, _) in given.items()})
    for name, (values, kept) in given.items():
        vec = getattr(odd, name)
        assert vec.dtype == np.float64 and vec is not values
        np.testing.assert_array_equal(vec, kept)
        assert_read_only(vec)
    assert odd.total_rate == -math.inf and type(odd.total_rate) is float
    assert math.isnan(replace(result, total_rate=math.nan).total_rate)


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(Exception):
        cfg.eta = 0.5
    assert replace(cfg, eta=0.5).eta == 0.5
