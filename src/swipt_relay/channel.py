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

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ChannelRealization, SystemConfig, _frozen

__all__ = [
    "TapSet",
    "draw_taps",
    "generate_channel",
    "load_channel_file",
    "read_channel_csv",
    "taps_to_subcarrier_gains",
    "write_channel_csv",
]


@dataclass(frozen=True)
class TapSet:
    """Time-domain impulse response of one hop."""

    taps: np.ndarray

    def __post_init__(self):
        t = np.array(self.taps, dtype=complex)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("taps must be a nonempty vector")
        if not np.all(np.isfinite(t)):
            raise ValueError("taps must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "taps", t)


def _tap_parts(rng: np.random.Generator, n_taps: int, distance: float, alpha: float) -> np.ndarray:
    """``2 * n_taps`` scaled normals from ``rng``, as (real, imaginary) pairs
    tap by tap: viewed as complex they are the hop's taps."""
    if n_taps < 1:
        raise ValueError("n_taps must be >= 1")
    if distance < 0:
        raise ValueError("distance must be >= 0")
    # real/imaginary parts each carry half of the per-tap variance
    std = math.sqrt(0.5 / (n_taps * (1.0 + distance) ** alpha))
    return rng.standard_normal(2 * n_taps) * std


def _subcarrier_gains(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Squared DFT magnitudes of each row of ``taps`` on N subcarriers."""
    n_taps = taps.shape[-1]
    # np.fft.fft would silently truncate the response to N taps
    if n_subcarriers < n_taps:
        raise ValueError(
            f"n_subcarriers ({n_subcarriers}) must be >= number of taps ({n_taps})"
        )
    return np.abs(np.fft.fft(taps, n=n_subcarriers, axis=-1)) ** 2


def draw_taps(rng: np.random.Generator, n_taps: int, distance: float, alpha: float) -> TapSet:
    """Draw one hop's impulse response from ``rng``.

    Consumes exactly ``2 * n_taps`` normal variates regardless of the
    parameter values, so streams stay aligned across configurations.
    """
    return TapSet(_tap_parts(rng, n_taps, distance, alpha).view(complex))


def taps_to_subcarrier_gains(taps: TapSet, n_subcarriers: int) -> np.ndarray:
    """Squared-magnitude frequency response on each of N subcarriers.

    ``gains[n] = |sum_l taps[l] * exp(-2j*pi*n*l/N)|**2`` for n = 0..N-1.
    """
    return _subcarrier_gains(taps.taps, n_subcarriers)


def generate_channel(cfg: SystemConfig, seed: int) -> ChannelRealization:
    """Deterministically realize both hops for one trial.

    Hop 1 taps are drawn at distance ``cfg.dr``, hop 2 at ``cfg.d0 - cfg.dr``,
    from disjoint child streams of ``seed``. The result is bit-identical to
    drawing each hop with :func:`draw_taps` from the spawned children and
    transforming it with :func:`taps_to_subcarrier_gains`, but both hops share
    one FFT and the gains are checked once, not wrapped per hop.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    seed = int(seed)
    parts = np.array([
        _tap_parts(
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,))),
            cfg.taps,
            distance,
            cfg.alpha,
        )
        for k, distance in enumerate((cfg.dr, cfg.d0 - cfg.dr))
    ])
    gains = _subcarrier_gains(parts.view(complex), cfg.n_subcarriers)
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


def write_channel_csv(path: str | Path, channels) -> None:
    """Dump realizations as rows of (trial, subcarrier, h_sq, g_sq); trials
    are numbered from 1 in the order given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "subcarrier", "h_sq", "g_sq"])
        for trial, chan in enumerate(channels, start=1):
            for n in range(chan.n_subcarriers):
                writer.writerow([trial, n, repr(float(chan.h_sq[n])), repr(float(chan.g_sq[n]))])


def read_channel_csv(path: str | Path) -> list[ChannelRealization]:
    """Inverse of :func:`write_channel_csv`."""
    per_trial: dict[int, list[tuple[int, float, float]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            per_trial.setdefault(int(row["trial"]), []).append(
                (int(row["subcarrier"]), float(row["h_sq"]), float(row["g_sq"]))
            )
    channels = []
    for trial in sorted(per_trial):
        rows = sorted(per_trial[trial])
        channels.append(
            ChannelRealization(
                h_sq=[r[1] for r in rows],
                g_sq=[r[2] for r in rows],
            )
        )
    return channels
