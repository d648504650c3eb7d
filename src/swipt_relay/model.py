"""Domain types and configuration handling for the relay simulator.

A :class:`SystemConfig` is checked once, when it is built: its constructor,
and so ``dataclasses.replace``, :func:`config_from_dict`,
:func:`load_config` and :func:`default_config`, raises :class:`ConfigError`
on a config that is not a physical link. The engine takes any config it is
given as valid.

Every power in this package is a linear milliwatt quantity; dBm appears only
at I/O boundaries and is converted once on the way in. Rates are bits/s/Hz
per subcarrier pair and include the 1/2 pre-log factor of two-slot
half-duplex relaying. All types are frozen dataclasses whose arrays are
read-only: a write through an array raises, so values are safe to share
across threads. The flag is not a lock, though: code that deliberately calls
``setflags(write=True)`` on an array (or on the array it views) is not
stopped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "AllocationResult",
    "ChannelRealization",
    "ConfigError",
    "NoiseProfile",
    "SubcarrierPairing",
    "SystemConfig",
    "allocation_to_dict",
    "config_errors",
    "config_from_dict",
    "config_to_dict",
    "dbm_to_mw",
    "default_config",
    "load_config",
    "validate_config",
]


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
        _floats_for_numpy_reals(self, _NOISE_KEYS)
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
        _floats_for_numpy_reals(self, ("p_max", "eta", "d0", "dr", "alpha"))
        validate_config(self)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, Python or
    NumPy; a bool, a string or a complex number is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


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


def _floats_for_numpy_reals(obj, names) -> None:
    """Store each field ``names`` of the frozen dataclass ``obj`` that holds
    a NumPy real scalar as the Python float of its value (see
    :func:`_real`), so that a ``float32`` field cannot carry float32
    arithmetic into the engine. Python ints and non-numbers stay as given,
    for :func:`config_errors` to report."""
    for name in names:
        if isinstance(value := getattr(obj, name), np.generic) and _is_real(value):
            object.__setattr__(obj, name, _real(value))


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


def _frozen(cls, **fields):
    """Build the frozen dataclass ``cls`` around values the engine has just
    computed, skipping the copy and checks of its constructor.

    Each array field is made read-only in place. A view is as read-only as
    a constructed field only if the array it views is too: the engine marks
    such a base once, before it takes the views, which inherit the flag.
    Only for arrays no caller holds: input from outside goes through
    ``cls(...)``.
    """
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)
    return obj


def _holds_non_real(values) -> bool:
    """Whether ``values`` holds an entry that is not a real number, which
    ``np.array(values, dtype=float)`` would still convert: it takes a bool
    as 0 or 1 and parses a numeric string."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values.dtype.kind not in "iuf"
    return not all(_is_real(x) for x in np.array(values, dtype=object).ravel())


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a new float array, each entry read by :func:`_real`, so
    that an int past the float range reads as inf where a float cast would
    raise. Raises ``ValueError`` naming ``name`` on an entry that is not a
    real number (see :func:`_holds_non_real`)."""
    if _holds_non_real(values):
        raise ValueError(f"{name} entries must be numbers, not bools or strings")
    return np.array(np.frompyfunc(_real, 1, 1)(values), dtype=float)


@dataclass(frozen=True)
class ChannelRealization:
    """Squared channel-gain magnitudes per subcarrier for both hops."""

    h_sq: np.ndarray
    g_sq: np.ndarray

    def __post_init__(self):
        h = _real_array("h_sq", self.h_sq)
        g = _real_array("g_sq", self.g_sq)
        if h.ndim != 1 or g.ndim != 1 or h.shape != g.shape:
            raise ValueError("h_sq and g_sq must be equal-length vectors")
        if h.size == 0:
            raise ValueError("channel needs at least one subcarrier")
        for name, vec in (("h_sq", h), ("g_sq", g)):
            if not np.all(np.isfinite(vec)) or np.any(vec < 0):
                raise ValueError(f"{name} entries must be finite and nonnegative")
        h.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "h_sq", h)
        object.__setattr__(self, "g_sq", g)

    @property
    def n_subcarriers(self) -> int:
        return self.h_sq.size


@dataclass(frozen=True)
class SubcarrierPairing:
    """Matching of incoming to outgoing subcarriers: ``perm[i] = j`` means the
    stream decoded from subcarrier i is forwarded on subcarrier j. Being a
    permutation, it uses every incoming and outgoing subcarrier exactly once.
    """

    perm: np.ndarray

    def __post_init__(self):
        p = np.array(self.perm)
        # a float or bool index would be truncated to another permutation
        if p.dtype.kind not in "iu":
            raise ValueError(f"perm must hold integers, got dtype {p.dtype}")
        # np.array casts a bool among ints to an int, so the entries are
        # scanned as well
        if _holds_non_real(self.perm):
            raise ValueError("perm must hold integers, not bools")
        p = p.astype(np.int64, copy=False)
        if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError("perm must be a permutation of 0..N-1")
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)

    @property
    def n_subcarriers(self) -> int:
        return self.perm.size


@dataclass(frozen=True)
class AllocationResult:
    """One policy's full decision for one channel realization.

    ``rho_i[i]`` is the decode-side power-splitting fraction of incoming
    subcarrier i (the harvest fraction is its complement), ``powers[i]`` the
    power spent on pair i in mW, ``pair_rates[i]`` its end-to-end rate. For
    the conventional (non-harvesting) baseline ``powers`` carries the pooled
    source-plus-relay power of the pair and ``rho_i`` is fixed at 1.
    """

    pairing: SubcarrierPairing
    rho_i: np.ndarray
    powers: np.ndarray
    pair_rates: np.ndarray
    total_rate: float

    def __post_init__(self):
        for name in ("rho_i", "powers", "pair_rates"):
            vec = np.array(getattr(self, name), dtype=float)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)


def allocation_to_dict(result: AllocationResult) -> dict:
    """JSON-friendly view of an :class:`AllocationResult`."""
    return {
        "pairing": result.pairing.perm.tolist(),
        "rho_i": result.rho_i.tolist(),
        "powers": result.powers.tolist(),
        "pair_rates": result.pair_rates.tolist(),
        "total_rate": result.total_rate,
    }


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
