"""Seeded, portable randomness for reproducible experiments.

The generator is SplitMix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): the state advances by a fixed
odd increment GAMMA and each output is a bijective finalizer (``_mix64_array``)
of the state. It is used here in counter-based form only; there is no
sequential generator object. Three properties this module leans on:

* the k-th output (from k = 0) of a generator seeded with s is
  ``mix64(s + (k+1)*GAMMA)``, so any block of outputs, of one seed or of an
  array of seeds, is one vectorized mixing (``_outputs``): the per-round and
  per-sample seeds are the first n outputs of a master seed
  (``stream_seeds``), drawn one block at a time (``stream_blocks``), and any
  execution order gives identical draws;
* every derived quantity (uniforms, normals, Haar samples) is a pure function
  of the seed, so concurrent use is race-free by construction;
* Box-Muller normals are computed as arrays, a block of generators at a time
  (``haar_states``), bit for bit equal to one at a time: mixing, products and
  ``sqrt`` are exact or correctly rounded in numpy, and log1p and
  ``cmath.rect``'s cos and sin come from libm, as numpy's SIMD ones may differ.

There is deliberately no module-level generator: all entropy enters through
explicit seeds.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# _mix64_array's operands as explicit np.uint64, built once (numpy 1.24 and NEP 50 alike)
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)
_MULT1_U64, _MULT2_U64 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def stream_seeds(master_seed: int, n: int) -> np.ndarray:
    """The first n outputs of SplitMix64(master_seed) as uint64: entry i, the seed of round or
    sample i, is its (i+1)-th output."""
    return _outputs(master_seed & MASK64, n)


def stream_blocks(master_seed: int, n: int, rows: int) -> Iterator[tuple[int, int, int]]:
    """(start, m, block seed) of each block of at most `rows` in a stream of n seeds.

    The generator's state after k outputs is master_seed + k*GAMMA (mod 2^64), so
    stream_seeds(block seed, m) is entries start .. start + m - 1 of
    stream_seeds(master_seed, n), bit for bit.
    """
    for start in range(0, n, rows):
        yield start, min(rows, n - start), master_seed + start * GAMMA


def first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """First uniform draw in [0, 1) of a SplitMix64 started at each seed."""
    return _unit(_outputs(seeds, 1)[..., 0])


def _unit(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from raw outputs: their top 53 bits."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _outputs(state, n: int) -> np.ndarray:
    """The next n raw outputs of generators at `state` (int or uint64 array), on a new last axis."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _mix64_array(np.asarray(state, dtype=np.uint64)[..., None] + idx * np.uint64(GAMMA))


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output finalizer, elementwise; uint64 arithmetic wraps mod 2^64."""
    z = z ^ (z >> _SHIFT30)
    z = z * _MULT1_U64
    z = z ^ (z >> _SHIFT27)
    z = z * _MULT2_U64
    return z ^ (z >> _SHIFT31)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Complex normals (..., m) from uniforms (..., 2m): each pair u1, u2 on the last axis gives
    x + iy = cmath.rect(r, 2 pi u2), r = sqrt(-2 log1p(-u1)), with log1p and rect's cos and sin
    from libm; at angle 0 rect's r and r * 0.0 are the products r cos 0 and r sin 0."""
    u1, u2 = u[..., 0::2], u[..., 1::2]
    r = np.sqrt(-2.0 * np.fromiter(map(math.log1p, (-u1).ravel().tolist()), np.float64, u1.size))
    z = map(cmath.rect, r.tolist(), (2.0 * math.pi * u2).ravel().tolist())
    return np.fromiter(z, np.complex128, r.size).reshape(u1.shape)


def haar_states(seeds: np.ndarray, dim: int) -> np.ndarray:
    """Haar-random unit vectors, a row per uint64 seed: row i holds x + iy from consecutive
    pairs of the first 2 dim Box-Muller normals of seeds[i]'s stream, divided by its
    tensor._row_norms norm, the kernel that normalizes every StateVector. All rows' uniforms
    come from one (n, 2 dim) mixing, their amplitudes from one _box_muller."""
    from .tensor import _row_norms

    v = _box_muller(_unit(_outputs(seeds, 2 * dim)))
    return v / _row_norms(v)[:, None]


def born_select(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Index selected by inverse CDF over `weights` (in index order), per uniform.

    weights need not be exactly normalized; each uniform is in [0, 1). Cells
    of zero weight are never selected; if rounding leaves a uniform beyond the
    final cumulative sum, the last cell of positive weight is chosen.
    """
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, uniforms * cdf[-1], side="right")
    return np.minimum(idx, np.max(np.nonzero(weights)))
