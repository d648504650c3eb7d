"""Resource-allocation simulator for a two-hop OFDM decode-and-forward link
whose relay powers itself by splitting the received signal between decoding
and energy harvesting.

``import swipt_relay`` loads ``model`` alone, with its public names: the
config type, the config functions and the policy names. ``model`` imports
the standard library alone, so loading a config runs neither NumPy nor
engine code. Each engine module (``allocator``, ``baselines``, ``channel``,
``montecarlo``, ``oracle``) loads on first use of its own name or of one of
its names here, through a module ``__getattr__`` (PEP 562), and its public
names are then bound here as an eager import would bind them. A process that solves one
channel so loads ``allocator`` and ``channel`` alone.
"""

import importlib

__version__ = "0.1.0"

# every public name, listed once under the module that defines it
_EXPORTS = {
    "allocator": ("AllocationResult", "NoUsablePairError", "SubcarrierPairing", "effective_gain", "rate_terms",
                  "solve", "sorted_pairing", "waterfill"),
    "baselines": ("solve_conventional", "solve_opa_no_pairing", "solve_policy", "solve_uniform"),
    "channel": ("ChannelRealization", "generate_channel"),
    "model": ("ConfigError", "NoiseProfile", "PolicyId", "SystemConfig", "dbm_to_mw", "default_config",
              "load_config", "validate_config"),
    "montecarlo": ("SweepResult", "SweepSpec", "TrialResult", "run_trials", "sweep"),
    "oracle": ("VerificationReport", "best_pairing_exhaustive", "verify"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def _load(module: str):
    """Import the submodule ``module`` and bind its public names here, as
    ``from .module import ...`` would."""
    loaded = importlib.import_module(f"{__name__}.{module}")
    globals().update((name, getattr(loaded, name)) for name in _EXPORTS[module])
    return loaded


_load("model")


def __getattr__(name: str):
    """Load the engine module ``name``, or the one that defines the public
    name ``name``, with all of its public names."""
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _load(module)
    return loaded if name == module else globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
