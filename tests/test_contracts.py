"""One table of the public API's numeric arguments.

Each row names an argument, an in-domain value, the ints and NumPy scalars
that must give that value's result, and the values the function must refuse
with the ``ValueError`` message its docstring documents. The values come
from one rule, ``model._real``: a bool, a string or ``None`` is not a
number, and an int past the float range is out of range, as NaN and ±inf
are. ``ConfigError`` and ``NoUsablePairError`` are ``ValueError``s.
"""

import dataclasses
import math
import re
import typing
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

import swipt_relay
from swipt_relay import (
    ChannelRealization,
    PolicyId,
    SubcarrierPairing,
    SweepSpec,
    dbm_to_mw,
    default_config,
    effective_gain,
    generate_channel,
    power_by_grid,
    rate_terms,
    rho_by_bisection,
    run_trials,
    solve,
    solve_uniform,
    sorted_pairing,
    sweep,
    verify,
    waterfill,
)

from conftest import make_cfg

CFG = default_config()
SINGLE = make_cfg(n_subcarriers=1, taps=1, p_max=10.0)
CHANNEL = generate_channel(CFG, 1)
PROPOSED = (PolicyId.PROPOSED,)

BIG = 10**400  # an int past the float range
NOT_NUMBERS = (True, np.True_, "1", None)
NOT_FINITE = (math.nan, math.inf, -math.inf, BIG, -BIG)
HOSTILE = NOT_FINITE + NOT_NUMBERS
# a nonnegative integer argument: only -BIG of the values past the float
# range lies outside its domain
NOT_COUNTS = (math.nan, math.inf, -math.inf, -BIG, 2.5, 2.0, *NOT_NUMBERS)

GAIN_MESSAGE = "h_sq and g_sq must be finite and nonnegative"
H_MESSAGE = "h_sq entries must be finite and nonnegative"
G_MESSAGE = "g_sq entries must be finite and nonnegative"
GAMMAS_MESSAGE = "gammas must be finite and nonnegative"
RHO_MESSAGE = "rho_i must lie in [0, 1]"
SEED_MESSAGE = "seed must be a nonnegative integer"
TRIALS_MESSAGE = "trials must be an integer >= 1"
RELAY_NOISE = ("sigma_ra_sq", "sigma_rb_sq")


class Arg(NamedTuple):
    call: Callable  # the function, with this argument as its one parameter
    value: object  # an in-domain value: a float where the argument is real
    same: tuple  # ints and NumPy scalars that must give ``value``'s result
    refused: dict  # ValueError message -> the values refused with it


def _scalars(value: float) -> tuple:
    """``value`` as a NumPy float of every width and, if it is integral, as
    an int and a NumPy int: each must give the float's result, so none can
    carry its own arithmetic into the engine."""
    floats = (np.float16(value), np.float32(value), np.float64(value), np.longdouble(value))
    return (int(value), np.int64(value), *floats) if value.is_integer() else floats


def _entries(first, values):
    """Two-entry vectors whose second entry is each of ``values``."""
    return tuple([first, value] for value in values)


def _gains(name, range_message, call, refused=None):
    """The row of the gain vector ``name``: an out-of-range entry is refused
    with ``range_message``, an entry that is not a number (a complex one
    included) with the message that names the vector, and the values of
    ``refused`` with their messages."""
    return Arg(
        call,
        [1.0, 2.0],
        ([1, 2], np.array([1, 2]), np.array([1.0, 2.0], np.float32), [np.int64(1), np.float32(2.0)]),
        {
            range_message: _entries(1.0, NOT_FINITE + (-1.0,)),
            f"{name} entries must be numbers, not bools or strings": (
                *_entries(1.0, NOT_NUMBERS),
                [True, False],
                [True, 2.0],
                [np.True_, 2.0],
                [1.0, 2.0 + 0.0j],
                ["1.5", "2"],
                np.array([True, True]),
                np.array(["1.0", "2.0"]),
            ),
            **(refused or {}),
        },
    )


def _config(field):
    return lambda value: solve(CHANNEL, make_cfg(**{field: value}))


def _noise(field):
    return lambda value: solve(CHANNEL, make_cfg(noise=replace(CFG.noise, **{field: value})))


def _sweep(**spec):
    fields = dict(variable="p_max_dbm", values=(10.0, 20.0), trials=2, seed=1, policies=PROPOSED) | spec
    return sweep(CFG, SweepSpec(**fields)).to_csv()


ARGS = {
    "dbm_to_mw(x_dbm)": Arg(dbm_to_mw, 30.0, _scalars(30.0), {"dBm value must be finite": HOSTILE}),
    "rate_terms(h_sq)": Arg(
        lambda v: rate_terms(v, 0.9, 0.5, 10.0, SINGLE),
        2.0,
        _scalars(2.0),
        {GAIN_MESSAGE: HOSTILE + (-1.0,)},
    ),
    "rate_terms(g_sq)": Arg(
        lambda v: rate_terms(0.9, v, 0.5, 10.0, SINGLE),
        2.0,
        _scalars(2.0),
        {GAIN_MESSAGE: HOSTILE + (-1.0,)},
    ),
    "rate_terms(rho_i)": Arg(
        lambda v: rate_terms(0.9, 0.9, v, 10.0, SINGLE),
        1.0,
        _scalars(1.0),
        {RHO_MESSAGE: HOSTILE + (-1.0, 1.5)},
    ),
    "rate_terms(p_mw)": Arg(
        lambda v: rate_terms(0.9, 0.9, 0.5, v, SINGLE),
        10.0,
        _scalars(10.0),
        {"power must be nonnegative": HOSTILE + (-1.0,)},
    ),
    "effective_gain(h_sq)": Arg(
        lambda v: effective_gain(v, 0.5, SINGLE),
        2.0,
        _scalars(2.0),
        {GAIN_MESSAGE: HOSTILE + (-1.0,)},
    ),
    "effective_gain(rho_i)": Arg(
        lambda v: effective_gain(0.9, v, SINGLE),
        1.0,
        _scalars(1.0),
        {RHO_MESSAGE: HOSTILE + (-1.0, 2.0)},
    ),
    "rho_by_bisection(g_sq)": Arg(
        lambda v: rho_by_bisection(v, SINGLE),
        2.0,
        _scalars(2.0),
        {GAIN_MESSAGE: HOSTILE + (-1.0,)},
    ),
    "rho_by_bisection(tol)": Arg(
        lambda v: rho_by_bisection(0.9, SINGLE, tol=v),
        0.5,
        _scalars(0.5),
        {"tol must lie in (0, 1)": HOSTILE + (-1.0, 0.0, 1.0)},
    ),
    "rho_by_bisection(p_mw)": Arg(
        lambda v: rho_by_bisection(0.9, SINGLE, p_mw=v),
        10.0,
        _scalars(10.0),
        {
            "p_mw must be positive": (math.nan, -math.inf, -BIG, -1.0, 0.0, *NOT_NUMBERS),
            # past the float range, the probe power fails in rate_terms
            "power must be nonnegative": (math.inf, BIG),
        },
    ),
    "sorted_pairing(h_sq)": _gains("h_sq", H_MESSAGE, lambda v: sorted_pairing(v, [1.0, 2.0])),
    "sorted_pairing(g_sq)": _gains("g_sq", G_MESSAGE, lambda v: sorted_pairing([1.0, 2.0], v)),
    "ChannelRealization(h_sq)": _gains("h_sq", H_MESSAGE, lambda v: ChannelRealization(v, [1.0, 2.0])),
    "ChannelRealization(g_sq)": _gains("g_sq", G_MESSAGE, lambda v: ChannelRealization([1.0, 2.0], v)),
    # below 8 gains waterfill runs on Python floats, from 8 up on arrays
    "waterfill(gammas)": _gains("gammas", GAMMAS_MESSAGE, lambda v: waterfill(v, 10.0)),
    "waterfill(gammas), N=9": _gains("gammas", GAMMAS_MESSAGE, lambda v: waterfill([0.5] * 7 + list(v), 10.0)),
    "waterfill(p_max)": Arg(
        lambda v: waterfill([1.0, 2.0], v),
        10.0,
        _scalars(10.0),
        {"p_max must be positive and finite": HOSTILE + (-1.0, 0.0)},
    ),
    "waterfill(p_max), N=9": Arg(
        lambda v: waterfill(np.linspace(1.0, 3.0, 9), v),
        10.0,
        _scalars(10.0),
        {"p_max must be positive and finite": HOSTILE + (-1.0, 0.0)},
    ),
    "power_by_grid(gammas)": _gains(
        "gammas",
        GAMMAS_MESSAGE,
        lambda v: power_by_grid(v, 10.0, 100),
        {"power_by_grid expects exactly two gains": ([1.0],)},
    ),
    "power_by_grid(p_max)": Arg(
        lambda v: power_by_grid([1.0, 2.0], v, 100),
        10.0,
        _scalars(10.0),
        {"p_max must be positive and finite": HOSTILE + (-1.0, 0.0)},
    ),
    "power_by_grid(resolution)": Arg(
        lambda v: power_by_grid([1.0, 2.0], 10.0, v),
        100,
        (np.int64(100), np.uint16(100)),
        {"resolution must be an int >= 1": (*NOT_COUNTS, -1, 0, 100.0, np.float64(100.0))},
    ),
    "SubcarrierPairing(perm)": Arg(
        SubcarrierPairing,
        [1, 0],
        (np.array([1, 0], np.int32), np.array([1, 0], np.uint8), [np.int64(1), 0]),
        {
            "perm must hold integers": (
                [0.4, 1.2],
                [1.0, 0.0],
                np.array([1.0, 0.0]),
                [math.nan, 0],
                [True, False],
                [True, 0],
                [0, np.True_],
                ["1", "0"],
                [None, 0],
                [BIG, 0],
            ),
        },
    ),
    "generate_channel(seed)": Arg(
        lambda v: generate_channel(CFG, v),
        5,
        (np.int64(5), np.uint32(5), np.uint8(5)),
        {SEED_MESSAGE: (*NOT_COUNTS, -1, 2.7, np.float64(1.0))},
    ),
    "run_trials(trials)": Arg(
        lambda v: run_trials(CFG, PROPOSED, v, 1),
        2,
        (np.int64(2), np.uint8(2)),
        {TRIALS_MESSAGE: (*NOT_COUNTS, -1, 0)},
    ),
    "run_trials(seed)": Arg(
        lambda v: run_trials(CFG, PROPOSED, 2, v),
        1,
        (np.int64(1), np.uint64(1)),
        {SEED_MESSAGE: (*NOT_COUNTS, -1)},
    ),
    "SweepSpec(values)": Arg(
        lambda v: _sweep(values=v),
        (10.0, 20.0),
        ((10, 20), (np.int64(10), np.float32(20.0)), np.array([10, 20])),
        {"values must be finite": tuple((10.0, value) for value in HOSTILE)},
    ),
    "SweepSpec(trials)": Arg(
        lambda v: _sweep(trials=v),
        2,
        (np.int64(2),),
        {
            TRIALS_MESSAGE: (*NOT_COUNTS, -1, 0),
            "trials must be below 1000000": (10**6, BIG),
        },
    ),
    "SweepSpec(seed)": Arg(
        lambda v: _sweep(seed=v),
        1,
        (np.int64(1), np.uint64(1)),
        {SEED_MESSAGE: (*NOT_COUNTS, -1)},
    ),
    "verify(tol)": Arg(
        lambda v: verify(CHANNEL, CFG, tol=v),
        1.0,
        _scalars(1.0),
        {"tolerance must be positive and finite": HOSTILE + (-1.0, 0.0)},
    ),
    "solve_uniform(use_pairing)": Arg(
        lambda v: solve_uniform(CHANNEL, CFG, v),
        True,
        (np.True_,),
        {"use_pairing must be a bool": ("no", "", None, 0, 1, 1.0, np.int64(1))},
    ),
    "solve_uniform(use_pairing=False)": Arg(
        lambda v: solve_uniform(CHANNEL, CFG, v), False, (np.False_,), {}
    ),
    # a config field is checked when the config is built, which raises
    # ConfigError
    "SystemConfig(n_subcarriers)": Arg(
        _config("n_subcarriers"),
        4,
        (np.int64(4),),
        {"n_subcarriers must be an integer >= 1": (*NOT_COUNTS, -1, 0, 4.0)},
    ),
    "SystemConfig(taps)": Arg(
        _config("taps"),
        4,
        (np.int64(4),),
        {
            "taps must be an integer >= 1": (*NOT_COUNTS, -1, 0, 4.0),
            "n_subcarriers (4) must be >= taps": (BIG,),
        },
    ),
    "SystemConfig(p_max)": Arg(
        _config("p_max"),
        10.0,
        _scalars(10.0),
        {"p_max must be a positive, finite number": HOSTILE + (-1.0, 0.0)},
    ),
    "SystemConfig(eta)": Arg(
        _config("eta"), 1.0, _scalars(1.0), {"eta out of [0,1]": HOSTILE + (-1.0, 1.5)}
    ),
    "SystemConfig(d0)": Arg(
        _config("d0"),
        1.0,
        _scalars(1.0),
        {"d0 must be a positive, finite number": HOSTILE + (-1.0, 0.0)},
    ),
    "SystemConfig(dr)": Arg(
        _config("dr"),
        0.5,
        _scalars(0.5),
        {"dr: relay must lie strictly between": HOSTILE + (-1.0, 0.0, 1.0, 1.5)},
    ),
    "SystemConfig(alpha)": Arg(
        _config("alpha"),
        3.0,
        _scalars(3.0),
        {"alpha must be a positive, finite number": HOSTILE + (-1.0, 0.0)},
    ),
    **{
        f"NoiseProfile({field})": Arg(
            _noise(field),
            0.5,
            _scalars(0.5),
            {
                f"noise.{field} must be a positive, finite number": HOSTILE + (-1.0, 0.0),
                # the split's root needs each relay noise power at 2**-511 mW or more
                **{
                    f"noise.{field} ({value}): below 2**-511 mW the split's term": (value,)
                    for value in ((5e-324, 1e-160) if field in RELAY_NOISE else ())
                },
            },
        )
        for field in ("sigma_ra_sq", "sigma_rb_sq", "sigma_da_sq", "sigma_db_sq")
    },
}


def _label(value) -> str:
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) == BIG:
        return "-10**400" if value < 0 else "10**400"
    if isinstance(value, np.ndarray):
        return f"array({_label(value.tolist())}, {value.dtype})"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_label(entry) for entry in value) + "]"
    return repr(value)


def _bits(value):
    """A form of a result that tells apart results which compare equal but
    differ in bits or type, such as 1 and 1.0, or a NumPy and a Python
    float."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(entry) for entry in value)
    if isinstance(value, dict):
        return tuple((_bits(key), _bits(entry)) for key, entry in value.items())
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, repr(value)


REFUSED = [
    pytest.param(name, value, message, id=f"{name}={_label(value)}")
    for name, arg in ARGS.items()
    for message, values in arg.refused.items()
    for value in values
]
SAME = [pytest.param(name, value, id=f"{name}={_label(value)}") for name, arg in ARGS.items() for value in arg.same]


@pytest.mark.parametrize("name, value, message", REFUSED)
def test_a_hostile_value_raises_the_documented_error(name, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ARGS[name].call(value)


@pytest.mark.parametrize("name, value", SAME)
def test_an_int_or_numpy_scalar_gives_the_float_result(name, value):
    arg = ARGS[name]
    assert _bits(arg.call(value)) == _bits(arg.call(arg.value))


# public names whose numeric fields are not checked, and why
UNCHECKED = {
    "AllocationResult": "verify(result=...) audits corrupted results on purpose",
    "TrialResult": "an output record, built only by run_trials",
}


def _holds_a_number(hint) -> bool:
    return hint in (int, float, bool) or any(_holds_a_number(arg) for arg in typing.get_args(hint))


def test_every_public_numeric_argument_has_a_row():
    """A parameter of a public function, or a field of a public dataclass,
    annotated as a number (or as a container of numbers) is checked here
    and nowhere else, so a new one needs a row."""
    rows = {re.match(r"\w+\(\w+", name)[0] + ")" for name in ARGS}
    numeric = {
        f"{name}({param})"
        for name in set(swipt_relay.__all__) - set(UNCHECKED)
        for param, hint in typing.get_type_hints(getattr(swipt_relay, name)).items()
        if param != "return" and _holds_a_number(hint)
    }
    assert numeric - rows == set()
