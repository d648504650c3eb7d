"""Seeded generation of frequency-selective Rayleigh channels.

Each hop is modelled as an L-tap impulse response of i.i.d. circularly
symmetric complex Gaussian taps with per-tap variance 1/(L*(1+d)^alpha),
where d is the hop distance; subcarrier gains are the squared magnitudes of
the non-normalized N-point DFT of the taps, so the mean gain per subcarrier
is (1+d)^(-alpha).

Reproducibility contract: a realization is a pure function of (config, seed).
Hop 1 (source-relay) draws from the stream of the first child of
``SeedSequence(seed).spawn(2)`` and hop 2 (relay-destination) from the
second, so the two hops never share a stream. Child k is
``SeedSequence(seed, spawn_key=(k,))``, whose entropy is the seed's w 32-bit
words, least significant first, zero-padded to 4, then k. NumPy's
``SeedSequence`` follows O'Neill's ``seed_seq_fe`` (PCG, HMC-CS-2014-0905):
it mixes the spawn word in only after every seed word, so both children
share the pool of ``SeedSequence(words)``, and child k's pool word d is that
pool's word d mixed with the (4w + d)-th ``hashmix`` of k. The pool is mixed
once per channel; the spawn-word mix and ``generate_state(4, np.uint64)``'s
output hash then run for both hops in one array expression, so the streams
are those of the spawned children bit for bit. Each tap consumes exactly two
standard normal variates (real part first, then imaginary).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .model import ChannelRealization, SystemConfig, _frozen, _is_int

__all__ = ["generate_channel", "load_channel_file"]

# SeedSequence's pool holds 4 uint32 words, and PCG64 asks it for 4 uint64
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# mix_entropy's hashmix: call c XORs its input with INIT_A * MULT_A**c,
# multiplies by INIT_A * MULT_A**(c + 1) (mod 2**32), then XORs the product
# with itself shifted right by 16; mix(x, y) is MIX_MULT_L*x - MIX_MULT_R*y
# (mod 2**32), shifted and XORed the same way. MIX_MULT_L multiplies the
# pool array, MIX_MULT_R is folded into the cached spawn terms.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), 0x4973F715
# generate_state's output hash: it cycles through the pool, and word i of
# its output is pool[i % 4] XOR INIT_B * MULT_B**i, times INIT_B *
# MULT_B**(i + 1) (mod 2**32), then XOR itself shifted right by 16
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH = [_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(2 * _POOL_SIZE + 1)]
# both hops' 8 output words as 4 rows of 4, each hop's pool taken twice, so a
# pool broadcasts along the rows; uint32 arrays wrap silently where uint32
# scalars would warn of overflow
_HASH_XOR = np.array(_HASH[:-1] * 2, np.uint32).reshape(4, _POOL_SIZE)
_HASH_MULT = np.array(_HASH[1:] * 2, np.uint32).reshape(4, _POOL_SIZE)
_XSHIFT = np.uint32(16)
# little-endian word pairs make each uint64, as generate_state reads them
_LE_U32, _LE_U64 = np.dtype("<u4"), np.dtype("<u8")


def _hashmix(value: int, call: int) -> int:
    """``mix_entropy``'s hashmix of ``value`` on its ``call``-th call (from 0)."""
    const = _INIT_A * pow(_MULT_A, call, 2**32)
    value = ((value ^ const) * const * _MULT_A) & _MASK32
    return value ^ (value >> 16)


@functools.cache
def _spawn_terms(n_words: int) -> np.ndarray:
    """``MIX_MULT_R * hashmix(k, 4w + d)`` for a seed of ``n_words`` (w >= 4)
    entropy words, laid out as the 16 output words of :func:`_hop_states`:
    hop k + 1 mixes in spawn word k, and its two rows hold pool words
    d = 0..3 each. The seed's words take the first 4w calls of ``hashmix``
    (4 to fill the pool, 12 to mix it, 4 per word past the fourth), so the
    spawn word's calls come next."""
    terms = [[_MIX_MULT_R * _hashmix(k, 4 * n_words + d) & _MASK32 for d in range(_POOL_SIZE)] for k in (0, 1)]
    terms = np.array([terms[0], terms[0], terms[1], terms[1]], np.uint32)
    terms.setflags(write=False)  # one cached array serves every caller
    return terms


def _check_seed(seed) -> int:
    """``seed`` as a Python int. A float or a bool is rejected rather than
    truncated, so no two distinct seeds name the same channel."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _hop_states(seed: int) -> np.ndarray:
    """The ``(2, 4)`` uint64 PCG64 seeds of hops 1 and 2: row k is
    ``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``."""
    n_words = max(-(-seed.bit_length() // 32), _POOL_SIZE)
    words = [(seed >> (32 * i)) & _MASK32 for i in range(n_words)]
    pool = np.random.SeedSequence(np.array(words, np.uint32)).pool
    # mix(pool[d], hashmix(k, .)) for both hops, then the output hash
    state = pool * _MIX_MULT_L - _spawn_terms(n_words)
    state ^= state >> _XSHIFT
    state ^= _HASH_XOR
    state *= _HASH_MULT
    state ^= state >> _XSHIFT
    return state.astype(_LE_U32, copy=False).view(_LE_U64).astype(np.uint64, copy=False).reshape(2, 4)


@functools.cache
def _fixed_state():
    """An ``ISeedSequence`` that hands PCG64 a precomputed state. Built on
    first use, so that importing the package leaves ``numpy.random`` out."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                asked = f"{n_words} {np.dtype(dtype)}"
                raise ValueError(f"holds exactly {_POOL_SIZE} uint64 words, asked for {asked}")
            return self.state

    return FixedState


def generate_channel(cfg: SystemConfig, seed: int) -> ChannelRealization:
    """Deterministically realize both hops for one trial.

    Hop 1 taps are drawn at distance ``cfg.dr``, hop 2 at ``cfg.d0 - cfg.dr``,
    from child streams 0 and 1 of ``seed``. Both hops go through one FFT into
    the gains ``|sum_l taps[l] * exp(-2j*pi*n*l/N)|**2``. The config needs no
    check here, as a built one is valid: it has 1 <= taps <= N, so no tap is
    truncated, both hop distances are positive, and each hop's tap-variance
    divisor is finite and at least 1, so every tap's std is at most
    sqrt(0.5) and every gain is finite. Raises ``ValueError`` unless
    ``seed`` is a nonnegative integer.
    """
    seed = _check_seed(seed)
    n_taps = cfg.taps
    parts = np.empty((2, 2 * n_taps))
    states = _hop_states(seed)
    fixed_state = _fixed_state()
    for k, distance in enumerate((cfg.dr, cfg.d0 - cfg.dr)):
        # real/imaginary parts each carry half of the per-tap variance
        std = math.sqrt(0.5 / (n_taps * (1.0 + distance) ** cfg.alpha))
        rng = np.random.Generator(np.random.PCG64(fixed_state(states[k])))
        rng.standard_normal(out=parts[k])
        parts[k] *= std
    gains = np.abs(np.fft.fft(parts.view(complex), n=cfg.n_subcarriers, axis=-1)) ** 2
    # marked once, before the two hop rows are taken as views of it
    gains.setflags(write=False)
    return _frozen(ChannelRealization, h_sq=gains[0], g_sq=gains[1])


def load_channel_file(path: str | Path) -> ChannelRealization:
    """Read a fixed channel override: a JSON object with ``h_sq`` and ``g_sq``
    gain vectors. Used to pin exact instances in place of seeded generation."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) != {"h_sq", "g_sq"}:
        raise ValueError("channel file must be a JSON object with exactly h_sq and g_sq")
    return ChannelRealization(h_sq=data["h_sq"], g_sq=data["g_sq"])
