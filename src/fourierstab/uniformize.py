"""Decorrelate approximately Gaussian real features and binarize them into
near-uniform +-1 vectors.

The eigendecomposition is a self-contained cyclic Jacobi sweep: dimensions
are small, and a fixed rotation schedule keeps the factorization bit-for-bit
reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SchemaError
from .network import floats, fmt_vec, read_document, write_document


def jacobi_eigh(C: np.ndarray):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations,
    at most 100 sweeps, until the off-diagonal norm is at most 1e-12.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and each eigenvector's largest-magnitude entry made positive.
    """
    A = np.array(C, dtype=np.float64)
    d = A.shape[0]
    if A.shape != (d, d):
        raise DimensionError("matrix must be square")
    V = np.eye(d)
    for _ in range(100):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2.0)
        if off <= 1e-12:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                # Classical Jacobi rotation annihilating A[p, q].
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
                V = V @ rot
    eigvals = np.diag(A).copy()
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    V = V[:, order]
    for j in range(d):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    return eigvals, V


@dataclass(frozen=True)
class CovarianceModel:
    mean: np.ndarray
    C: np.ndarray
    U: np.ndarray
    D: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        for name in ("mean", "C", "U", "D", "thresholds"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def d(self) -> int:
        return self.mean.size

    def validate(self) -> None:
        """Assert the symmetry/orthogonality/reconstruction invariants."""
        d = self.d
        if self.C.shape != (d, d) or self.U.shape != (d, d):
            raise DimensionError("inconsistent model shapes")
        if not np.allclose(self.C, self.C.T, atol=1e-9):
            raise ValueError("covariance is not symmetric")
        if not np.allclose(self.U.T @ self.U, np.eye(d), atol=1e-9):
            raise ValueError("eigenvector matrix is not orthogonal")
        recon = self.U @ np.diag(self.D) @ self.U.T
        scale = max(1.0, float(np.max(np.abs(self.C))))
        if not np.allclose(recon, self.C, atol=1e-7 * scale):
            raise ValueError("eigendecomposition does not reconstruct the covariance")


def fit(samples: np.ndarray) -> CovarianceModel:
    """Mean, sample covariance, and its diagonalization, from an (m, d) matrix."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need an (m, d) matrix with m >= 2")
    if not np.all(np.isfinite(X)):
        raise ValueError("samples contain non-finite entries")
    mean = X.mean(axis=0)
    Xc = X - mean
    C = (Xc.T @ Xc) / (X.shape[0] - 1)
    D, U = jacobi_eigh(C)
    proj = Xc @ U
    thresholds = proj.mean(axis=0)
    # The centered projections have exact mean zero; remove accumulation
    # noise so the >=-threshold tie rule fires at the boundary.
    scale = max(1.0, float(np.max(np.abs(proj)))) if proj.size else 1.0
    thresholds[np.abs(thresholds) < 1e-12 * scale] = 0.0
    return CovarianceModel(mean=mean, C=C, U=U, D=D, thresholds=thresholds)


def binarize(model: CovarianceModel, x: np.ndarray) -> np.ndarray:
    """Project onto the decorrelating basis and threshold each coordinate at
    its mean; ties map to +1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.d:
        raise DimensionError(f"input dimension {x.shape[-1]} != {model.d}")
    z = (x - model.mean) @ model.U
    return np.where(z >= model.thresholds, 1.0, -1.0)


def chi_square_uniformity(bits: np.ndarray) -> tuple[float, int]:
    """Chi-square statistic of the 2^d cell counts against uniform, with the
    degrees of freedom; the caller supplies the critical value."""
    B = np.asarray(bits)
    m, d = B.shape
    cells = ((B > 0).astype(np.int64) << np.arange(d, dtype=np.int64)).sum(axis=1)
    counts = np.bincount(cells, minlength=1 << d).astype(np.float64)
    expected = m / float(1 << d)
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return stat, (1 << d) - 1


def save_covariance_model(model: CovarianceModel, path) -> None:
    fields = {"d": model.d, **{k: fmt_vec(getattr(model, k)) for k in ("mean", "D", "thresholds")}}
    fields.update((f"U.{j}", fmt_vec(row)) for j, row in enumerate(model.U))
    write_document(path, "covariance-model v1", fields)


def load_covariance_model(path) -> CovarianceModel:
    kv = read_document(path, "covariance-model v1")
    try:
        mean, D, thresholds = (floats(kv[k]) for k in ("mean", "D", "thresholds"))
        U = np.array([floats(kv[f"U.{j}"]) for j in range(int(kv["d"]))])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed covariance model ({exc})") from exc
    if not all(np.isfinite(a).all() for a in (mean, D, thresholds, U)):
        raise SchemaError(f"{path}: non-finite value in covariance model")
    return CovarianceModel(mean=mean, C=U @ np.diag(D) @ U.T, U=U, D=D, thresholds=thresholds)
