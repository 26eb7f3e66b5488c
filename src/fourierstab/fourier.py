"""Fourier analysis over the uniform Boolean cube {-1,+1}^n.

Function handles used throughout the package are vectorized: a handle maps
an (m, n) array with entries in {-1, +1} to an (m,) array of outputs.
Boolean-valued handles return exactly +-1; real-valued handles (for example
a sigmoid unit) may return anything in [-1, 1].

Enumeration of the cube in canonical order and Monte-Carlo draws go in chunks
from one rule, _chunks, and visit at most ROW_CAP rows.

_integer_form writes a threshold unit's (w, theta) as integers times one power
of two: the one exact arithmetic for sign(x.w - theta). threshold_signs computes
a layer's sums from its weights, never taking them from a caller, and decides with
it each sum near 0, in a unit's handle, ThresholdHandle, and in network's sign
layers. Counting sums it over the two halves of the inputs, about 2^(n/2)
half-sums each, for a unit's exact Chow parameters, builds no cube row, and
refuses a unit only when a half has over ROW_CAP half-sums (n >= 45).

sign_pm1, with sign(0) = +1, is the package's one sign of a value that must be +-1,
and check_pm1 its one test that inputs, labels and band rows are exactly +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError

# The most rows one pass visits: the 2^22 rows of an enumerated cube (n <= 22), Monte-Carlo
# samples, or a counted half's half-sums (n <= 44). Counting an int64 unit takes 0.06-0.2 s
# and 24 MB at n = 38, 1-3.4 s and 192 MB at n = 44; on Python ints 1 s and 76 MB, 21 s and 600 MB.
ROW_CAP = 1 << 22

# Every pass goes in chunks of at most this many cells (rows times n), so each
# chunk's arrays (128 KB) are reused from the heap. Arrays of megabytes go back
# to the OS when freed and are page-faulted in again on the next call; much
# smaller chunks cost more in per-chunk calls than they save.
_CHUNK_CELLS = 1 << 14


def _chunks(m: int, n: int):
    """(start, stop) spans of rows 0..m in order, for enumeration and Monte-Carlo
    draws, each of at most _CHUNK_CELLS cells of n columns and of one row at least."""
    step = max(1, _CHUNK_CELLS // max(n, 1))
    return ((start, min(start + step, m)) for start in range(0, m, step))


def cube_chunk(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of the canonical enumeration of {-1,+1}^n, a new array.

    Row k has x_j = +1 when bit j of k is 0, so row 0 is the all-ones input.
    """
    k = np.arange(start, stop, dtype=np.int64)
    return 1.0 - 2.0 * ((k[:, None] >> np.arange(n, dtype=np.int64)) & 1)


def enumerate_cube(n: int):
    """The full cube as (m, n) chunks in canonical order; over ROW_CAP rows raise CapacityError at the call."""
    if 1 << n > ROW_CAP:
        raise CapacityError(f"n={n} has {1 << n} rows, over the cap of {ROW_CAP}")
    return (cube_chunk(n, start, stop) for start, stop in _chunks(1 << n, n))


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


def mc_sample_count(n: int, epsilon: float, delta: float) -> int | float:
    """Hoeffding sample size with a union bound over the n+1 coefficients.

    math.inf when the size is too large for a float, as when epsilon**2
    underflows to 0 (epsilon below about 1e-162). An estimate is always within
    2 of a coefficient, so epsilon above 2 counts as 2 (and cannot overflow).
    """
    two_eps_sq = 2.0 * min(epsilon, 2.0) ** 2
    m = math.log(2.0 * (n + 1) / delta) / two_eps_sq if two_eps_sq else math.inf
    return math.ceil(m) if m < math.inf else math.inf


def cube_mean(g, n: int):
    """E_x over the cube of a scalar or vector quantity, where g maps an (m, n)
    chunk of cube rows to the quantity's sum over that chunk."""
    total = 0.0
    for X in enumerate_cube(n):
        total = total + g(X)
    return total / float(1 << n)


def _chow_sum(f, X) -> np.ndarray:
    """Sum over the rows x of X of f(x) * (1, x_1, ..., x_n)."""
    fx = np.asarray(f(X), dtype=np.float64)
    return np.concatenate(([fx.sum()], fx @ X))


def sign_pm1(z: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(z) >= 0.0, 1.0, -1.0)


def check_pm1(a: np.ndarray, what: str) -> None:
    """Raise ValueError unless every entry of a is exactly +1 or -1."""
    if not np.all(np.abs(a) == 1.0):
        raise ValueError(f"{what} must be exactly +-1")


def _integer_form(w: np.ndarray, theta: float) -> tuple[list[int], int]:
    """Integers k and k_theta with w = k * 2^-e and theta = k_theta * 2^-e for one e:
    every float is an integer times a power of two."""
    ratios = [v.as_integer_ratio() for v in (*w.tolist(), float(theta))]
    scale = max(q for _, q in ratios)
    *k, k_theta = (p * (scale // q) for p, q in ratios)
    return k, k_theta


def threshold_signs(X: np.ndarray, W: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sign(x.W[j] - theta[j]), with sign(0) = +1, of each +-1 row x of X and each unit j
    of a layer: W is (k, n), theta is (k,), and the result is (m, k), or (k,) for one row.
    The sums S = X @ W.T - theta are computed here, and in any order of summation of the
    terms +-w_i and -theta their error is at most about (n+1)*eps/2*(||w||_1 + |theta|)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1),
    so outside the band 2(n+1)*eps*(||w||_1 + |theta|) the computed sign is the exact one.
    Within it the unit's integer form (k, k_theta) decides: the sign is that of the row
    times k minus k_theta in integers, int64 when sum |k| + |k_theta| < 2^63 and Python
    ints above, and a row that is not exactly +-1 fails check_pm1 with ValueError."""
    S = X @ W.T - theta
    out = sign_pm1(S)
    X2, S2, out2 = np.atleast_2d(X, S, out)  # one row: one-row views
    band = 2.0 * (W.shape[-1] + 1) * np.finfo(np.float64).eps * (np.abs(W).sum(axis=-1) + np.abs(theta))
    in_band = np.abs(S2) <= band
    for j in np.flatnonzero(in_band.any(axis=0)):
        k, k_theta = _integer_form(W[j], theta[j])
        r = np.flatnonzero(in_band[:, j])
        Xr = X2[r]
        check_pm1(Xr, "a row of a sum decided in integers")
        dtype = np.int64 if sum(map(abs, k)) + abs(k_theta) < 1 << 63 else object
        out2[r, j] = sign_pm1(Xr.astype(np.int64) @ np.array(k, dtype) - k_theta)
    return out


class ThresholdHandle:
    """The handle of h(x) = sign(x.w - theta), with sign(0) = +1, exact on
    every +-1 row by threshold_signs, so a row's label does not depend on the
    batch it is evaluated in; a row whose sum lies within threshold_signs' band
    and is not +-1 raises ValueError. chow_exact counts its coefficients from
    (w, theta) alone, never calling it. ||w||_1 + |theta| must be finite.
    """

    def __init__(self, w: np.ndarray, theta: float):
        self.w, self.theta = w, float(theta)

    def __call__(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != self.w.shape:
            raise DimensionError(f"rows of shape {X.shape} for a unit on {self.w.size} inputs")
        return threshold_signs(X, self.w[None], np.array([self.theta]))[..., 0]


def _threshold_chow_sums(f: ThresholdHandle, n: int) -> np.ndarray:
    """2^n times (h_empty, h_1, ..., h_n) of f by meet in the middle (Horowitz
    and Sahni, J. ACM 21(2), 1974): x splits into halves a (the first n//2
    coordinates) and b, and each a-half's label sum counts the b-halves whose
    partial sums lie on either side of theta - a.w_a in sorted order. Over the
    integer form of (w, theta) every sum is exact: in int64 when no half-sum or
    theta - a.w_a can reach 2^63 in magnitude, else in Python ints. No cube row is
    built, and a half of over ROW_CAP half-sums raises CapacityError before any sum."""
    if f.w.size != n:
        raise DimensionError(f"a unit on {f.w.size} inputs counted on {n}")
    na, nb = n // 2, n - n // 2
    if 1 << nb > ROW_CAP:
        raise CapacityError(f"n={n} needs {1 << nb} half-sums, over the cap of {ROW_CAP}")
    k, k_theta = _integer_form(f.w, f.theta)
    dtype = np.int64 if max(sum(map(abs, k[na:])), abs(k_theta) + sum(map(abs, k[:na]))) < 1 << 63 else object

    def half_sums(terms):  # in cube_chunk's row order: rows from 2^j on flip x_j
        s = np.zeros(1, dtype)
        for v in terms:
            s = np.add.outer(np.array((v, -v), dtype), s).ravel()
        return s

    sb = half_sums(k[na:])
    order = np.argsort(sb, kind="stable")
    # Pairs of a with the b-halves at sorted positions from hi on are the rows labelled +1.
    hi = np.searchsorted(sb[order], k_theta - half_sums(k[:na]))
    by_b = np.empty_like(order)
    by_b[order] = np.cumsum(np.bincount(hi, minlength=len(sb) + 1))[:-1]
    label_a, label_b = len(sb) - 2 * hi, 2 * by_b - len(hi)
    total = label_a.sum()  # and label_b's: each sums every row's label once

    def coordinate_sums(label, bits):  # x_j is -1 on the rows with bit j set
        return [total - 2 * label.reshape(-1, 2, 1 << j)[:, 1].sum() for j in range(bits)]

    return np.array([total, *coordinate_sums(label_a, na), *coordinate_sums(label_b, nb)])


def chow_exact(f, n: int) -> ChowEstimate:
    """Exact degree-<=1 coefficients: counted for a ThresholdHandle on n
    inputs, by full enumeration (at most ROW_CAP rows) for any other
    handle. Both sum integers, so both give the same bits."""
    if isinstance(f, ThresholdHandle):
        h = _threshold_chow_sums(f, n) / float(1 << n)
    else:
        h = cube_mean(lambda X: _chow_sum(f, X), n)
    return ChowEstimate(n=n, h_empty=float(h[0]), h_vec=h[1:], mode="exact")


def chow_mc(f, n: int, epsilon: float, delta: float, seed) -> ChowEstimate:
    """Monte-Carlo degree-<=1 coefficients.

    With probability >= 1-delta every coefficient estimate is within epsilon
    of the truth. Deterministic given the seed (an int or SeedSequence). The
    samples are drawn in _chunks, which consume the generator's stream exactly
    as one draw of all of them would.
    When the bound asks for more than ROW_CAP samples, CapacityError is
    raised before any is drawn.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    m = mc_sample_count(n, epsilon, delta)
    if m > ROW_CAP:
        raise CapacityError(
            f"epsilon={epsilon:g} needs {m:.3g} samples, over the sample cap {ROW_CAP}"
        )
    rng = np.random.default_rng(seed)
    total = 0.0
    for start, stop in _chunks(m, n):
        total = total + _chow_sum(f, 1.0 - 2.0 * rng.integers(0, 2, size=(stop - start, n)))
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


def chow_all(f, n: int) -> np.ndarray:
    """All 2^n Fourier coefficients, indexed by subset bitmask.

    Intended for small-n identity checks (Parseval, Plancherel); a fast
    Walsh-Hadamard transform of the truth table, O(n 2^n) in the one 2^n table
    and a half-table temporary, refused as enumerate_cube refuses n.
    """
    chunks, c = enumerate_cube(n), np.empty(1 << n)
    for X, (start, stop) in zip(chunks, _chunks(1 << n, n)):
        c[start:stop] = f(X)
    # chi_S(x_k) = (-1)^popcount(k & S) under the canonical bit encoding, so
    # each pass folds bit j of the input index into bit j of the subset index.
    half = np.empty(len(c) // 2)
    for j in range(n):
        v, a = c.reshape(-1, 2, 1 << j), half.reshape(-1, 1 << j)
        np.subtract(v[:, 0], v[:, 1], out=a)
        v[:, 0] += v[:, 1]
        v[:, 1] = a
    return np.divide(c, float(1 << n), out=c)


@dataclass(frozen=True)
class ExactChow:
    """Chow-parameter source backed by chow_exact."""

    def estimate(self, f, n: int, key: int = 0) -> ChowEstimate:
        return chow_exact(f, n)


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
