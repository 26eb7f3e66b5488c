"""Decorrelate approximately Gaussian real features and binarize them into
near-uniform +-1 vectors.

The eigendecomposition is numpy's eigh in a fixed order and sign; through LAPACK and
BLAS, its bytes are reproducible on one machine and BLAS build, not across CPU kernels.
Each check sits with the value it checks, so a loaded model is checked as a fitted one is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError
from .fourier import ROW_CAP, sign_pm1
from .network import floats, fmt_vec, parsing, read_document, write_document


def jacobi_eigh(C: np.ndarray):
    """(eigenvalues, eigenvectors) of a finite symmetric matrix by np.linalg.eigh,
    eigenvalues descending and each eigenvector's largest-magnitude entry positive.
    A non-finite matrix raises ValueError, where eigh would return NaN eigenvalues; so does
    one that is not exactly symmetric, whose upper triangle eigh ignores, and a decomposition
    that np.allclose finds not to give the matrix back (atol 1e-7 * max(1, max |A|))."""
    A = np.asarray(C, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix is not symmetric")
    eigvals, V = np.linalg.eigh(A)
    order = np.argsort(-eigvals, kind="stable")
    eigvals, V = eigvals[order], V[:, order]
    largest = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    V[:, largest < 0] *= -1.0
    if not np.allclose(V @ np.diag(eigvals) @ V.T, A, atol=1e-7 * np.max(np.abs(A), initial=1.0)):
        raise ValueError("eigendecomposition does not reconstruct the matrix")
    return eigvals, V


@dataclass(frozen=True)
class CovarianceModel:
    """A fit's mean, eigenvectors U (one per column) and eigenvalues D, but not its
    covariance, U diag(D) U.T. Shapes, finiteness and U.T @ U = I (np.allclose, atol
    1e-9) are checked as the model is built, so a loaded model is checked as a fitted one is."""

    mean: np.ndarray
    U: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        d = np.size(self.mean)
        for name, shape in (("mean", (d,)), ("U", (d, d)), ("D", (d,))):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise DimensionError(f"{name} has shape {a.shape}, expected {shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite value in {name}")
            object.__setattr__(self, name, a)
        with np.errstate(all="ignore"):  # a product that overflows is not the identity either
            if not np.allclose(self.U.T @ self.U, np.eye(d), atol=1e-9):
                raise ValueError("eigenvector matrix is not orthogonal")

    @property
    def d(self) -> int:
        return self.mean.size


def fit(samples: np.ndarray) -> CovarianceModel:
    """Mean, sample covariance, and its diagonalization, from an (m, d) matrix."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need an (m, d) matrix with m >= 2")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sample makes C non-finite, refused below
        mean = X.mean(axis=0)
        Xc = X - mean
        C = (Xc.T @ Xc) / (X.shape[0] - 1)
    if not np.isfinite(C).all():
        raise ValueError("the samples are not finite, or their covariance leaves the float range")
    D, U = jacobi_eigh(C)
    return CovarianceModel(mean=mean, U=U, D=D)


def binarize(model: CovarianceModel, x: np.ndarray) -> np.ndarray:
    """The sign of each coordinate of x - mean in the decorrelating basis U, with
    sign(0) = +1: over the fitted samples each coordinate's mean is 0 in exact
    arithmetic, so 0 is its threshold, and the mean itself maps to all +1.
    A non-finite coordinate, which has no sign to give, raises ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.d:
        raise DimensionError(f"input dimension {x.shape[-1]} != {model.d}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite coordinates")
    return sign_pm1((x - model.mean) @ model.U)


def chi_square_uniformity(bits: np.ndarray) -> tuple[float, int]:
    """Chi-square statistic of the 2^d cell counts against uniform, with the
    degrees of freedom; the caller supplies the critical value. Over ROW_CAP
    cells raise CapacityError before any count."""
    B = np.asarray(bits)
    m, d = B.shape
    if 1 << d > ROW_CAP:
        raise CapacityError(f"d={d} has {1 << d} cells, over the cap of {ROW_CAP}")
    cells = ((B > 0).astype(np.int64) << np.arange(d, dtype=np.int64)).sum(axis=1)
    counts = np.bincount(cells, minlength=1 << d).astype(np.float64)
    expected = m / float(1 << d)
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return stat, (1 << d) - 1


def save_covariance_model(model: CovarianceModel, path) -> None:
    fields = {"d": model.d, **{k: fmt_vec(getattr(model, k)) for k in ("mean", "D")}}
    fields.update((f"U.{j}", fmt_vec(row)) for j, row in enumerate(model.U))
    write_document(path, "covariance-model v1", fields)


def load_covariance_model(path) -> CovarianceModel:
    with parsing(path):
        kv = read_document(path, "covariance-model v1")
        mean, D = (floats(kv.pop(k)) for k in ("mean", "D"))
        U = np.array([floats(kv.pop(f"U.{j}")) for j in range(int(kv.pop("d")))])
        if kv:
            raise ValueError(f"unknown field(s) {sorted(kv)}")
        return CovarianceModel(mean=mean, U=U, D=D)
