"""Resource-allocation simulator for a two-hop OFDM decode-and-forward link
whose relay powers itself by splitting the received signal between decoding
and energy harvesting."""

__version__ = "0.1.0"

from .allocator import (
    NoUsablePairError,
    effective_gain,
    optimal_rho,
    pair_rate,
    rate_terms,
    solve,
    sorted_pairing,
    waterfill,
)
from .baselines import (
    PolicyId,
    solve_conventional,
    solve_opa_no_pairing,
    solve_policy,
    solve_uniform,
)
from .channel import generate_channel
from .model import (
    AllocationResult,
    ChannelRealization,
    ConfigError,
    NoiseProfile,
    SubcarrierPairing,
    SystemConfig,
    dbm_to_mw,
    default_config,
    load_config,
    validate_config,
)
from .montecarlo import SweepResult, SweepSpec, TrialResult, run_trials, sweep
from .oracle import (
    VerificationReport,
    best_pairing_exhaustive,
    power_by_grid,
    rho_by_bisection,
    verify,
)

__all__ = [
    "AllocationResult",
    "ChannelRealization",
    "ConfigError",
    "NoUsablePairError",
    "NoiseProfile",
    "PolicyId",
    "SubcarrierPairing",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TrialResult",
    "VerificationReport",
    "best_pairing_exhaustive",
    "dbm_to_mw",
    "default_config",
    "effective_gain",
    "generate_channel",
    "load_config",
    "optimal_rho",
    "pair_rate",
    "power_by_grid",
    "rate_terms",
    "rho_by_bisection",
    "run_trials",
    "solve",
    "solve_conventional",
    "solve_opa_no_pairing",
    "solve_policy",
    "solve_uniform",
    "sorted_pairing",
    "sweep",
    "validate_config",
    "verify",
    "waterfill",
]
