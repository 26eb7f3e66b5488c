"""Fourier analysis over the uniform Boolean cube {-1,+1}^n.

Function handles used throughout the package are vectorized: a handle maps
an (m, n) array with entries in {-1, +1} to an (m,) array of outputs.
Boolean-valued handles return exactly +-1; real-valued handles (for example
a sigmoid unit) may return anything in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError

DEFAULT_ENUMERATION_CAP = 22

# Inputs are enumerated in chunks so the cap can be raised without
# materializing a 2^n-by-n matrix all at once.
_CHUNK_BITS = 16


def cube_chunk(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the canonical enumeration of {-1,+1}^n.

    Row k has x_j = +1 when bit j of k is 0, so row 0 is the all-ones input.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return (1.0 - 2.0 * bits).astype(np.float64)


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


def mc_sample_count(n: int, epsilon: float, delta: float) -> int:
    """Hoeffding sample size with a union bound over the n+1 coefficients."""
    return math.ceil(math.log(2.0 * (n + 1) / delta) / (2.0 * epsilon**2))


def chow_exact(f, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> ChowEstimate:
    """Exact degree-<=1 coefficients by full enumeration (n <= cap)."""
    total = float(1 << n)
    s_empty = 0.0
    s_vec = np.zeros(n)
    for X in enumerate_cube(n, cap):
        fx = np.asarray(f(X), dtype=np.float64)
        s_empty += fx.sum()
        s_vec += fx @ X
    return ChowEstimate(n=n, h_empty=s_empty / total, h_vec=s_vec / total, mode="exact")


def chow_mc(f, n: int, epsilon: float, delta: float, seed) -> ChowEstimate:
    """Monte-Carlo degree-<=1 coefficients.

    With probability >= 1-delta every coefficient estimate is within epsilon
    of the truth. Deterministic given the seed (an int or SeedSequence).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = mc_sample_count(n, epsilon, delta)
    rng = np.random.default_rng(seed)
    X = (1.0 - 2.0 * rng.integers(0, 2, size=(m, n))).astype(np.float64)
    fx = np.asarray(f(X), dtype=np.float64)
    return ChowEstimate(
        n=n,
        h_empty=float(fx.mean()),
        h_vec=(fx @ X) / m,
        mode="mc",
        epsilon=epsilon,
        delta=delta,
        samples=m,
    )


def influence(f, i: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact probability that flipping coordinate i changes f."""
    if not 0 <= i < n:
        raise DimensionError(f"index {i} out of range for dimension {n}")
    changed = 0
    for X in enumerate_cube(n, cap):
        Xf = X.copy()
        Xf[:, i] = -Xf[:, i]
        changed += int(np.count_nonzero(np.asarray(f(X)) != np.asarray(f(Xf))))
    return changed / float(1 << n)


def plancherel_inner(f, g, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """E_x f(x)g(x) by direct enumeration; oracle for the coefficient-side sum."""
    total = 0.0
    for X in enumerate_cube(n, cap):
        total += float(np.asarray(f(X), dtype=np.float64) @ np.asarray(g(X), dtype=np.float64))
    return total / float(1 << n)


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
