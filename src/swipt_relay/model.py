"""Configuration, the number rule, and the policy and sweep names, on the
standard library alone.

A :class:`SystemConfig` is checked once, when it is built: its constructor,
and so ``dataclasses.replace``, :func:`config_from_dict`,
:func:`load_config` and :func:`default_config`, raises :class:`ConfigError`
on a config that is not a physical link. The engine takes any config it is
given as valid.

Every power in this package is a linear milliwatt quantity; dBm appears only
at I/O boundaries and is converted once on the way in. Rates are bits/s/Hz
per subcarrier pair and include the 1/2 pre-log factor of two-slot
half-duplex relaying.

This module imports no NumPy, so loading a config runs none of it. The
number rule still reads a NumPy scalar as the number it is: a value with
``ndim == 0`` is a number when its ``dtype.kind`` is an int or a float kind,
read off the value itself. This module holds the rule for scalars
(``_is_int``, ``_is_real``, ``_real``) and the kinds. Its array half needs
NumPy, so it lives in ``channel``, the first engine layer: ``_real_array``
reads each entry through ``_real``, and ``_holds_non_real`` refuses an array
whose dtype kind is not one of ``_REAL_KINDS``. ``allocator`` reads vectors
through those two. The types that hold arrays live with the layer that
builds them: ``ChannelRealization`` in ``channel``, ``SubcarrierPairing``
and ``AllocationResult`` in ``allocator``. Every type of the package is a
frozen dataclass whose arrays are read-only: a write through an array
raises, so values are safe to share across threads. The flag is not a lock,
though: code that deliberately calls ``setflags(write=True)`` on an array
(or on the array it views) is not stopped.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ConfigError",
    "NoiseProfile",
    "PolicyId",
    "SWEEP_VARIABLES",
    "SystemConfig",
    "config_errors",
    "config_from_dict",
    "config_to_dict",
    "dbm_to_mw",
    "default_config",
    "load_config",
    "validate_config",
]

# the knobs a sweep can vary; the CLI's parser offers them as choices
SWEEP_VARIABLES = ("p_max_dbm", "relay_position")


class PolicyId(enum.Enum):
    """Allocation policies known to the sweep engine and the CLI."""

    PROPOSED = "proposed"
    OPA_NO_PAIRING = "opa-nopair"
    UNIFORM_WITH_PAIRING = "uniform-pair"
    UNIFORM_NO_PAIRING = "uniform-nopair"
    CONVENTIONAL_NON_EH = "conventional"

    @classmethod
    def from_name(cls, name: str) -> "PolicyId":
        for policy in cls:
            if policy.value == name:
                return policy
        valid = ", ".join(policy.value for policy in cls)
        raise ValueError(f"unknown policy '{name}'; valid policies: {valid}")


def dbm_to_mw(x_dbm: float) -> float:
    """Convert a dBm power to linear milliwatts: 10^(x/10), as a Python
    float. Raises ``ValueError`` unless ``x_dbm`` is a finite real number
    (see :func:`_real`: a bool, a string or ``None`` is not one) whose power
    fits a float."""
    x = _real(x_dbm)
    if not math.isfinite(x):
        raise ValueError("dBm value must be finite")
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        raise ValueError(f"{x} dBm overflows a float in mW") from None


class ConfigError(ValueError):
    """A configuration violated one or more invariants.

    ``errors`` holds the complete list of violations, one message per field.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class NoiseProfile:
    """Per-subcarrier receiver noise powers in mW.

    ``sigma_ra_sq``/``sigma_rb_sq`` are the antenna and signal-processing
    noise at the relay; ``sigma_da_sq``/``sigma_db_sq`` the same at the
    destination. Only their sum matters at the destination, exposed as
    ``sigma_d_sq``: a plain attribute set once at construction, since every
    per-pair split reads it, and not a field, so it takes no part in
    ``repr``, ``==``, ``hash`` or :func:`config_to_dict`.
    """

    sigma_ra_sq: float
    sigma_rb_sq: float
    sigma_da_sq: float
    sigma_db_sq: float

    def __post_init__(self):
        _python_scalars(self, _NOISE_KEYS, _is_real, _real)
        try:
            sigma_d_sq = self.sigma_da_sq + self.sigma_db_sq
        except (TypeError, OverflowError):
            # a mistyped field, or an int past the float range beside a
            # float: config_errors reports it by name, and any arithmetic on
            # None raises TypeError, as the sum did
            sigma_d_sq = None
        object.__setattr__(self, "sigma_d_sq", sigma_d_sq)


@dataclass(frozen=True)
class SystemConfig:
    """Static link parameters shared by every module.

    n_subcarriers: number of OFDM subcarriers N per hop.
    p_max: source transmit-power budget per frame, mW.
    eta: energy-harvesting efficiency, in [0, 1].
    d0: source-destination distance (the relay sits on this line).
    dr: source-relay distance, 0 < dr < d0.
    alpha: path-loss exponent.
    taps: channel impulse-response length L (requires N >= L).
    noise: receiver noise powers.

    Construction (``dataclasses.replace`` included) raises
    :class:`ConfigError` with the list :func:`config_errors` reports, so
    every config in existence is valid. A :class:`NoiseProfile` is not
    checked on its own: its faults are listed with the config's.
    """

    n_subcarriers: int
    p_max: float
    eta: float
    d0: float
    dr: float
    alpha: float
    taps: int
    noise: NoiseProfile

    def __post_init__(self):
        _python_scalars(self, ("p_max", "eta", "d0", "dr", "alpha"), _is_real, _real)
        _python_scalars(self, ("n_subcarriers", "taps"), _is_int, int)
        validate_config(self)


# the dtype kinds of a NumPy integer and of a NumPy real number; tuples, not
# strings, since "" in "iuf" is true
_INT_KINDS = ("i", "u")
_REAL_KINDS = ("i", "u", "f")


def _kind(value):
    """The dtype kind of a value with ``ndim == 0``, as a NumPy scalar or a
    0-d array has, read off the value itself; None for any other value, and
    for a ``dtype`` without a kind."""
    if getattr(value, "ndim", None) == 0:
        return getattr(getattr(value, "dtype", None), "kind", None)
    return None


def _is_int(value) -> bool:
    """Whether ``value`` is an integer: a Python int that is not a bool, or
    a NumPy scalar or 0-d array of an int dtype."""
    if isinstance(value, int):  # first: a seed is read once per channel
        return type(value) is not bool
    return _kind(value) in _INT_KINDS


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: a Python int that is not a bool, a
    Python float, or a NumPy scalar or 0-d array of an int or a float
    dtype; a string or a complex number is not one."""
    if isinstance(value, (int, float)):
        return type(value) is not bool
    return _kind(value) in _REAL_KINDS


def _real(value) -> float:
    """``value`` as a Python float if it is a real number (see
    :func:`_is_real`), an int past the float range as the infinity of its
    sign, and anything else as NaN, which fails every range check.

    With :func:`_is_int` and :func:`_is_real` this is the package's one rule
    for what counts as a number: a checked argument is read through it, so a
    mistyped one is reported with its range message rather than raised as
    ``TypeError`` or ``OverflowError``, or parsed from a string.
    """
    if not _is_real(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return math.inf if value > 0 else -math.inf


def _python_scalars(obj, names, accepts, convert) -> None:
    """Store each field ``names`` of the frozen dataclass ``obj`` that
    ``accepts`` takes and that is not exactly a Python int or float as
    ``convert`` of it: a real as the Python float of :func:`_real`, an
    integer as a Python int, so that no ``float32`` or ``uint8`` arithmetic
    reaches the engine. Python numbers and values ``accepts`` refuses stay
    as given, for :func:`config_errors` to report."""
    for name in names:
        if type(value := getattr(obj, name)) not in (int, float) and accepts(value):
            object.__setattr__(obj, name, convert(value))


# the smallest relay noise power the split keeps full precision at
_RELAY_NOISE_MIN = 2.0**-511


def _positive_finite(name: str, value, errors: list[str]) -> None:
    if not 0.0 < _real(value) < math.inf:
        errors.append(f"{name} must be a positive, finite number")


def config_errors(cfg: SystemConfig) -> list[str]:
    """Collect every invariant violation of ``cfg`` (empty list if valid),
    one message per field, the list a config is refused with when built."""
    errors: list[str] = []
    if not _is_int(cfg.n_subcarriers) or cfg.n_subcarriers < 1:
        errors.append("n_subcarriers must be an integer >= 1")
    taps_valid = _is_int(cfg.taps) and cfg.taps >= 1
    if not taps_valid:
        errors.append("taps must be an integer >= 1")
    elif _is_int(cfg.n_subcarriers) and 1 <= cfg.n_subcarriers < cfg.taps:
        errors.append(
            f"n_subcarriers ({cfg.n_subcarriers}) must be >= taps ({cfg.taps}): "
            "the N-point DFT needs at least one point per tap"
        )
    _positive_finite("p_max", cfg.p_max, errors)
    _positive_finite("alpha", cfg.alpha, errors)
    _positive_finite("d0", cfg.d0, errors)
    if not 0.0 <= _real(cfg.eta) <= 1.0:
        errors.append("eta out of [0,1]")
    if not 0.0 < _real(cfg.dr) < _real(cfg.d0) < math.inf:
        errors.append(
            "dr: relay must lie strictly between the source and the destination "
            "(0 < dr < d0)"
        )
    elif 0.0 < _real(cfg.alpha) < math.inf:
        # the channel draw divides each hop's tap variance by the product
        # taps * (1 + d)**alpha; where that is inf, every gain comes out 0
        for hop, distance in (("source-relay", cfg.dr), ("relay-destination", cfg.d0 - cfg.dr)):
            loss = product = math.inf
            try:
                loss = math.pow(1.0 + distance, cfg.alpha)
                product = int(cfg.taps) * loss if taps_valid else loss
            except OverflowError:
                pass
            if not math.isfinite(loss):
                errors.append(
                    f"alpha ({cfg.alpha}): the {hop} path loss (1 + {distance})**alpha "
                    "overflows a float"
                )
            elif not math.isfinite(product):
                errors.append(
                    f"alpha ({cfg.alpha}): the {hop} tap-variance divisor "
                    f"{cfg.taps} * (1 + {distance})**alpha overflows a float"
                )
    for field_name in _NOISE_KEYS:
        _positive_finite(f"noise.{field_name}", getattr(cfg.noise, field_name), errors)
    # the split's root adds 4 * sigma_ra_sq * sigma_rb_sq to a square, which
    # can underflow; the term stays a normal float, and so keeps the root's
    # precision, while each relay noise power is at least 2**-511 mW
    for field_name in ("sigma_ra_sq", "sigma_rb_sq"):
        value = _real(getattr(cfg.noise, field_name))
        if 0.0 < value < _RELAY_NOISE_MIN:
            errors.append(
                f"noise.{field_name} ({value}): below 2**-511 mW the split's term "
                "4 * sigma_ra_sq * sigma_rb_sq underflows a float"
            )
    return errors


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Return ``cfg`` unchanged if every invariant holds, else raise
    :class:`ConfigError` carrying the complete violation list. The
    constructor of :class:`SystemConfig` runs it, so a built config always
    passes."""
    errors = config_errors(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def default_config() -> SystemConfig:
    """Baseline setup used throughout the bundled experiments: N = 4
    subcarriers, 30 dBm budget, unit harvesting efficiency, 1 dBm receiver
    noise, path-loss exponent 3, 4 channel taps, unit source-destination
    distance with the relay at the midpoint."""
    sigma = dbm_to_mw(1.0)
    return SystemConfig(
        n_subcarriers=4,
        p_max=dbm_to_mw(30.0),
        eta=1.0,
        d0=1.0,
        dr=0.5,
        alpha=3.0,
        taps=4,
        noise=NoiseProfile(
            sigma_ra_sq=sigma,
            sigma_rb_sq=sigma,
            sigma_da_sq=sigma / 2.0,
            sigma_db_sq=sigma / 2.0,
        ),
    )


_NOISE_KEYS = ("sigma_ra_sq", "sigma_rb_sq", "sigma_da_sq", "sigma_db_sq")
_TOP_KEYS = {"n_subcarriers", "p_max_mw", "p_max_dbm", "eta", "d0", "dr", "alpha", "taps", "noise"}


def _as_int(name: str, value, errors: list[str]) -> int:
    # an integral float counts; is_integer() is False for inf and NaN, which
    # int() would raise on
    if _is_int(value) or _real(value).is_integer():
        return int(value)
    errors.append(f"{name} must be an integer")
    return 0


def _as_float(name: str, value, errors: list[str]) -> float:
    if not _is_real(value):
        errors.append(f"{name} must be a number")
    return _real(value)


_FIELD_TYPES = {
    "n_subcarriers": _as_int,
    "eta": _as_float,
    "d0": _as_float,
    "dr": _as_float,
    "alpha": _as_float,
    "taps": _as_int,
}


def config_from_dict(data: dict) -> SystemConfig:
    """Build a :class:`SystemConfig` from its JSON form.

    The power budget is accepted as ``p_max_mw`` or ``p_max_dbm``; when both
    are present the mW value wins. Unknown keys are rejected so typos cannot
    silently fall back to defaults. Raises :class:`ConfigError` listing
    every fault of the JSON form, or, once that reads, every invariant the
    built config violates, as its constructor does.
    """
    if not isinstance(data, dict):
        raise ConfigError(["config must be a JSON object"])
    errors: list[str] = []
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        errors.append(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted({*_FIELD_TYPES, "noise"} - set(data))
    if missing:
        errors.append(f"missing config keys: {', '.join(missing)}")
    if "p_max_mw" in data:
        p_max = _as_float("p_max_mw", data["p_max_mw"], errors)
    elif "p_max_dbm" in data:
        dbm = _as_float("p_max_dbm", data["p_max_dbm"], errors)
        p_max = math.nan
        if math.isfinite(dbm):
            try:
                p_max = dbm_to_mw(dbm)
            except ValueError as exc:
                errors.append(f"p_max_dbm: {exc}")
    else:
        errors.append("missing config keys: p_max_mw or p_max_dbm")
        p_max = math.nan
    noise_data = data.get("noise")
    noise_vals = {}
    if isinstance(noise_data, dict):
        bad = sorted(set(noise_data) - set(_NOISE_KEYS))
        if bad:
            errors.append(f"unknown noise keys: {', '.join(bad)}")
        for key in _NOISE_KEYS:
            if key in noise_data:
                noise_vals[key] = _as_float(f"noise.{key}", noise_data[key], errors)
            else:
                errors.append(f"missing noise key: {key}")
                noise_vals[key] = math.nan
    else:
        if "noise" in data:
            errors.append("noise must be an object")
        noise_vals = {key: math.nan for key in _NOISE_KEYS}
    fields = {
        key: convert(key, data[key], errors)
        for key, convert in _FIELD_TYPES.items()
        if key in data
    }
    if errors:
        raise ConfigError(errors)
    return SystemConfig(p_max=p_max, noise=NoiseProfile(**noise_vals), **fields)


def config_to_dict(cfg: SystemConfig) -> dict:
    return {
        "n_subcarriers": cfg.n_subcarriers,
        "p_max_mw": cfg.p_max,
        "eta": cfg.eta,
        "d0": cfg.d0,
        "dr": cfg.dr,
        "alpha": cfg.alpha,
        "taps": cfg.taps,
        "noise": {key: getattr(cfg.noise, key) for key in _NOISE_KEYS},
    }


def load_config(path: str | Path) -> SystemConfig:
    """Read a config JSON file and build the config it holds. I/O errors
    propagate as ``OSError``; malformed content, or a config that violates
    an invariant, raises :class:`ConfigError` (see :func:`config_from_dict`),
    and bytes that are not UTF-8-encoded JSON another ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return config_from_dict(data)
