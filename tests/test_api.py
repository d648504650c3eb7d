"""The public API: every exported name resolves, and the package exports
exactly the names below, so a removal or a stale export fails here."""

import importlib

import pytest

import swipt_relay

MODULES = ("allocator", "baselines", "channel", "cli", "model", "montecarlo", "oracle")

PACKAGE_API = {
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
}


def test_package_exports_exactly_the_public_api():
    assert set(swipt_relay.__all__) == PACKAGE_API
    assert len(swipt_relay.__all__) == len(PACKAGE_API)
    for name in swipt_relay.__all__:
        assert hasattr(swipt_relay, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"swipt_relay.{module_name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"
