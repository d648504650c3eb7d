"""Seeded generation of frequency-selective Rayleigh channels.

Each hop is modelled as an L-tap impulse response of i.i.d. circularly
symmetric complex Gaussian taps with per-tap variance 1/(L*(1+d)^alpha),
where d is the hop distance; subcarrier gains are the squared magnitudes of
the non-normalized N-point DFT of the taps, so the mean gain per subcarrier
is (1+d)^(-alpha).

Reproducibility contract: a realization is a pure function of (config, seed).
The master seed feeds a PCG64 SeedSequence whose first spawned child drives
the source-relay taps and whose second drives the relay-destination taps, so
the two hops never share a stream. Child k is built directly as
``SeedSequence(seed, spawn_key=(k,))``, which is the same stream as the k-th
child of ``SeedSequence(seed).spawn(2)``. Each tap consumes exactly two
standard normal variates (real part first, then imaginary).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .model import ChannelRealization, SystemConfig, _frozen

__all__ = ["generate_channel", "load_channel_file"]


def _check_seed(seed) -> int:
    """``seed`` as a Python int. A float or a bool is rejected rather than
    truncated, so no two distinct seeds name the same channel."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def generate_channel(cfg: SystemConfig, seed: int) -> ChannelRealization:
    """Deterministically realize both hops for one trial.

    Hop 1 taps are drawn at distance ``cfg.dr``, hop 2 at ``cfg.d0 - cfg.dr``,
    from child streams 0 and 1 of ``seed``. Both hops go through one FFT, and
    the gains ``|sum_l taps[l] * exp(-2j*pi*n*l/N)|**2`` are checked once.
    """
    seed = _check_seed(seed)
    n_taps = cfg.taps
    n_sub = cfg.n_subcarriers
    if n_taps < 1:
        raise ValueError("taps must be >= 1")
    # np.fft.fft would silently truncate the response to N taps
    if n_sub < n_taps:
        raise ValueError(f"n_subcarriers ({n_sub}) must be >= number of taps ({n_taps})")
    parts = np.empty((2, 2 * n_taps))
    for k, distance in enumerate((cfg.dr, cfg.d0 - cfg.dr)):
        if distance < 0:
            raise ValueError("hop distance must be >= 0")
        # real/imaginary parts each carry half of the per-tap variance
        std = math.sqrt(0.5 / (n_taps * (1.0 + distance) ** cfg.alpha))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        parts[k] = rng.standard_normal(2 * n_taps) * std
    gains = np.abs(np.fft.fft(parts.view(complex), n=n_sub, axis=-1)) ** 2
    # a squared magnitude is never negative, so finiteness is the whole check
    if not np.isfinite(gains).all():
        raise ValueError("h_sq and g_sq entries must be finite and nonnegative")
    return _frozen(ChannelRealization, h_sq=gains[0], g_sq=gains[1])


def load_channel_file(path: str | Path) -> ChannelRealization:
    """Read a fixed channel override: a JSON object with ``h_sq`` and ``g_sq``
    gain vectors. Used to pin exact instances in place of seeded generation."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) != {"h_sq", "g_sq"}:
        raise ValueError("channel file must be a JSON object with exactly h_sq and g_sq")
    return ChannelRealization(h_sq=data["h_sq"], g_sq=data["g_sq"])
