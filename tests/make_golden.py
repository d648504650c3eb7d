"""Write ``tests/data/golden_rates.npz``: per-trial ``total_rate`` of every
policy on seeded channels, for the default config and a few edge configs.

    PYTHONPATH=src python tests/make_golden.py

The fixture pins the engine's outputs so a refactor can be checked against
them (``tests/test_golden.py``). A trial where a policy finds no usable pair
is stored as NaN. Regenerate it only for a deliberate change of output bits,
and record that change in CHANGES.md.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from swipt_relay.allocator import NoUsablePairError
from swipt_relay.baselines import PolicyId, solve_policy
from swipt_relay.channel import generate_channel
from swipt_relay.model import default_config

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rates.npz"
TRIALS = 200
POLICIES = tuple(PolicyId)

_BASE = default_config()
CONFIGS = {
    "default": _BASE,
    "n1_taps1": replace(_BASE, n_subcarriers=1, taps=1),
    "n8_taps8": replace(_BASE, n_subcarriers=8, taps=8),
    "eta_0.05": replace(_BASE, eta=0.05),
    "eta_0": replace(_BASE, eta=0.0),  # water-filled harvesting policies dead: NaN
    "pmax_1e-6mw": replace(_BASE, p_max=1e-6),
    "pmax_1e9mw": replace(_BASE, p_max=1e9),
    "relay_0.1d0": replace(_BASE, dr=0.1 * _BASE.d0),
    "relay_0.9d0": replace(_BASE, dr=0.9 * _BASE.d0),
    "n256_taps16": replace(_BASE, n_subcarriers=256, taps=16),  # the wide-OFDM size
}


def golden_rates(cfg) -> np.ndarray:
    """(TRIALS, len(POLICIES)) total rates on channel seeds 1..TRIALS."""
    out = np.empty((TRIALS, len(POLICIES)))
    for t in range(TRIALS):
        chan = generate_channel(cfg, t + 1)
        for k, policy in enumerate(POLICIES):
            try:
                out[t, k] = solve_policy(policy, chan, cfg).total_rate
            except NoUsablePairError:
                out[t, k] = np.nan
    return out


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        GOLDEN_PATH,
        policies=np.array([policy.value for policy in POLICIES]),
        **{name: golden_rates(cfg) for name, cfg in CONFIGS.items()},
    )
    print(f"wrote {GOLDEN_PATH}")
