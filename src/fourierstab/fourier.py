"""Fourier analysis over the uniform Boolean cube {-1,+1}^n.

Function handles used throughout the package are vectorized: a handle maps
an (m, n) array with entries in {-1, +1} to an (m,) array of outputs.
Boolean-valued handles return exactly +-1; real-valued handles (for example
a sigmoid unit) may return anything in [-1, 1].

The cube for n <= 16 is built once per process and shared: exact sweeps hand
handles read-only views of it, so a handle must not write into its input
(doing so raises ValueError). Larger cubes are assembled chunk by chunk from
that cached block and are not kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError

DEFAULT_ENUMERATION_CAP = 22

# Monte-Carlo estimation refuses to draw more samples than exact enumeration
# at the default cap would visit.
MC_SAMPLE_CAP = 1 << DEFAULT_ENUMERATION_CAP

# Inputs are enumerated in chunks so the cap can be raised without
# materializing a 2^n-by-n matrix all at once.
_CHUNK_BITS = 16

# Monte-Carlo samples are drawn in chunks of at most this many cells (rows
# times n), so each chunk's arrays (about 128 KB) are reused from the heap.
# Arrays of megabytes go back to the OS when freed and are page-faulted in
# again on the next call; much smaller chunks cost more in per-chunk calls
# than they save.
_MC_CHUNK_CELLS = 1 << 14


@functools.cache
def _cube_block(b: int) -> np.ndarray:
    """The whole of {-1,+1}^b in canonical order, built once per process and
    read-only, for b <= _CHUNK_BITS (all of them together take about 16 MB)."""
    idx = np.arange(1 << b, dtype=np.int64)
    X = 1.0 - 2.0 * ((idx[:, None] >> np.arange(b, dtype=np.int64)[None, :]) & 1)
    X.flags.writeable = False
    return X


def cube_chunk(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the canonical enumeration of {-1,+1}^n.

    Row k has x_j = +1 when bit j of k is 0, so row 0 is the all-ones input.
    For n <= _CHUNK_BITS the rows are a read-only view of the cached cube
    (the cube itself when all rows are asked for). Above that the rows are a
    new array: the low _CHUNK_BITS columns repeat the cached cube, and the
    high columns hold the bits of k >> _CHUNK_BITS, constant within each run
    of 2^_CHUNK_BITS rows.
    """
    if n <= _CHUNK_BITS:
        block = _cube_block(n)
        return block if (start, stop) == (0, len(block)) else block[start:stop]
    low, mask = _cube_block(_CHUNK_BITS), (1 << _CHUNK_BITS) - 1
    high = np.arange(_CHUNK_BITS, n, dtype=np.int64)
    X = np.empty((stop - start, n))
    for s in (start, *range((start | mask) + 1, stop, mask + 1)):
        base, e = s & ~mask, min(stop, (s | mask) + 1)
        X[s - start : e - start, :_CHUNK_BITS] = low[s - base : e - base]
        X[s - start : e - start, _CHUNK_BITS:] = 1.0 - 2.0 * ((s >> high) & 1)
    return X


def enumerate_cube(n: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield the full cube as (m, n) chunks in canonical order."""
    if n > cap:
        raise CapacityError(f"n={n} exceeds enumeration cap {cap}")
    total = 1 << n
    step = min(total, 1 << _CHUNK_BITS)
    for start in range(0, total, step):
        yield cube_chunk(n, start, min(start + step, total))


@dataclass(frozen=True)
class ChowEstimate:
    """Degree-<=1 Fourier coefficients of a function on {-1,+1}^n.

    epsilon/delta describe the per-coefficient additive error budget when
    the coefficients were sampled; both are zero for exact enumeration.
    """

    n: int
    h_empty: float
    h_vec: np.ndarray
    mode: str  # "exact" or "mc"
    epsilon: float = 0.0
    delta: float = 0.0
    samples: int = 0

    def __post_init__(self):
        object.__setattr__(self, "h_vec", np.asarray(self.h_vec, dtype=np.float64))
        if self.h_vec.shape != (self.n,):
            raise DimensionError(
                f"h_vec has shape {self.h_vec.shape}, expected ({self.n},)"
            )
        if not (math.isfinite(self.h_empty) and np.isfinite(self.h_vec).all()):
            raise ValueError("non-finite coefficient")
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact" and (self.epsilon != 0.0 or self.samples != 0):
            raise ValueError("exact mode implies epsilon=0 and samples=0")


def parity(subset, x) -> float:
    """Product of the coordinates of x selected by subset; empty product is +1."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    out = 1.0
    for i in subset:
        if not 0 <= i < n:
            raise DimensionError(f"index {i} out of range for dimension {n}")
        out = out * x[..., i]
    return out


def mc_sample_count(n: int, epsilon: float, delta: float) -> int | float:
    """Hoeffding sample size with a union bound over the n+1 coefficients.

    math.inf when the size is too large for a float, as when epsilon**2
    underflows to 0 (epsilon below about 1e-162). An estimate is always within
    2 of a coefficient, so epsilon above 2 counts as 2 (and cannot overflow).
    """
    two_eps_sq = 2.0 * min(epsilon, 2.0) ** 2
    m = math.log(2.0 * (n + 1) / delta) / two_eps_sq if two_eps_sq else math.inf
    return math.ceil(m) if m < math.inf else math.inf


def cube_mean(g, n: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """E_x over the cube of a scalar or vector quantity, where g maps an (m, n)
    chunk of cube rows to the quantity's sum over that chunk."""
    total = 0.0
    for X in enumerate_cube(n, cap):
        total = total + g(X)
    return total / float(1 << n)


def _chow_sum(f, X) -> np.ndarray:
    """Sum over the rows x of X of f(x) * (1, x_1, ..., x_n)."""
    fx = np.asarray(f(X), dtype=np.float64)
    return np.concatenate(([fx.sum()], fx @ X))


def chow_exact(f, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> ChowEstimate:
    """Exact degree-<=1 coefficients by full enumeration (n <= cap)."""
    h = cube_mean(lambda X: _chow_sum(f, X), n, cap)
    return ChowEstimate(n=n, h_empty=float(h[0]), h_vec=h[1:], mode="exact")


def chow_mc(f, n: int, epsilon: float, delta: float, seed) -> ChowEstimate:
    """Monte-Carlo degree-<=1 coefficients.

    With probability >= 1-delta every coefficient estimate is within epsilon
    of the truth. Deterministic given the seed (an int or SeedSequence). The
    samples are drawn in chunks of at most _MC_CHUNK_CELLS cells (one row at
    least), so each chunk's arrays are reused from the heap instead of being
    faulted in afresh; the chunks consume the generator's stream exactly as
    one draw of all of them would.
    When the bound asks for more than MC_SAMPLE_CAP samples, CapacityError is
    raised before any is drawn.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = mc_sample_count(n, epsilon, delta)
    if m > MC_SAMPLE_CAP:
        raise CapacityError(
            f"epsilon={epsilon:g} needs {m:.3g} samples, over the sample cap {MC_SAMPLE_CAP}"
        )
    rng = np.random.default_rng(seed)
    total, step = 0.0, max(1, _MC_CHUNK_CELLS // max(n, 1))
    for start in range(0, m, step):
        total = total + _chow_sum(f, 1.0 - 2.0 * rng.integers(0, 2, size=(min(step, m - start), n)))
    h = total / m
    return ChowEstimate(
        n=n, h_empty=float(h[0]), h_vec=h[1:], mode="mc", epsilon=epsilon, delta=delta, samples=m
    )


def disagreement_exact(a, b, n: int) -> float:
    """Exact Pr_x[a(x) != b(x)] by enumeration."""
    return float(cube_mean(lambda X: np.count_nonzero(np.asarray(a(X)) != np.asarray(b(X))), n))


def influence(f, i: int, n: int) -> float:
    """Exact probability that flipping coordinate i changes f: the disagreement
    of f with f on inputs whose bit i is flipped."""
    if not 0 <= i < n:
        raise DimensionError(f"index {i} out of range for dimension {n}")
    flip = np.where(np.arange(n) == i, -1.0, 1.0)
    return disagreement_exact(f, lambda X: f(X * flip), n)


def plancherel_inner(f, g, n: int) -> float:
    """E_x f(x)g(x) by direct enumeration; oracle for the coefficient-side sum."""

    def dot(X):
        return np.asarray(f(X), dtype=np.float64) @ np.asarray(g(X), dtype=np.float64)

    return float(cube_mean(dot, n))


def chow_all(f, n: int, cap: int = 16) -> np.ndarray:
    """All 2^n Fourier coefficients, indexed by subset bitmask.

    Intended for small-n identity checks (Parseval, Plancherel); a fast
    Walsh-Hadamard transform of the truth table, O(n 2^n).
    """
    if n > cap:
        raise CapacityError(f"n={n} exceeds full-transform cap {cap}")
    c = np.concatenate([np.asarray(f(X), dtype=np.float64) for X in enumerate_cube(n, cap)])
    # chi_S(x_k) = (-1)^popcount(k & S) under the canonical bit encoding, so
    # each pass folds bit j of the input index into bit j of the subset index.
    for j in range(n):
        c = c.reshape(-1, 2, 1 << j)
        c = np.stack([c[:, 0] + c[:, 1], c[:, 0] - c[:, 1]], axis=1)
    return c.reshape(-1) / float(1 << n)


@dataclass(frozen=True)
class ExactChow:
    """Chow-parameter source backed by full enumeration."""

    cap: int = DEFAULT_ENUMERATION_CAP

    def estimate(self, f, n: int, key: int = 0) -> ChowEstimate:
        return chow_exact(f, n, cap=self.cap)


@dataclass(frozen=True)
class MonteCarloChow:
    """Chow-parameter source backed by seeded uniform sampling.

    Distinct keys (e.g. neuron indices) derive independent streams from the
    base seed, so estimates are reproducible regardless of evaluation order.
    """

    epsilon: float
    delta: float
    seed: int

    def estimate(self, f, n: int, key: int = 0) -> ChowEstimate:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        return chow_mc(f, n, self.epsilon, self.delta, ss)
