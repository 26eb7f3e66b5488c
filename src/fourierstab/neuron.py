"""Linear-threshold neurons: lp geometry, weight stabilization, and
accuracy-loss bounds for the stabilized replacement.

Sign convention: sign(0) = +1 everywhere, so every neuron output is exactly
+-1 and enumeration oracles are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import DegenerateFunctionError, DimensionError
from .fourier import ChowEstimate, ThresholdHandle, cube_mean, disagreement_exact, sign_pm1  # noqa: F401  (re-exported)

# Best known Berry-Esseen constants, and the term rho = 4*pi*C1 / (3*sqrt(3)) of the p > 1 bound.
C0 = 0.47
C1 = 21.82
RHO = 4.0 * math.pi * C1 / (3.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class PNorm:
    """An attack norm p in [1, inf] together with its dual exponent q."""

    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def q(self) -> float:
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)


def norm(v: np.ndarray, p: float) -> float:
    """lp norm, handling p = inf. Where max|v_i|**p leaves the float range (the sum would underflow
    to 0 or overflow), it is max|v_i| times the norm of v / max|v_i|."""
    v = np.abs(np.asarray(v, dtype=np.float64))
    top = float(np.max(v)) if v.size else 0.0
    if math.isinf(p) or top == 0.0:
        return top
    scale = 1.0 if abs(p * math.log2(top)) < 900.0 else top
    return scale * float(np.sum((v / scale) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class LinearThresholdNeuron:
    """h(x) = sign(x . w - theta) on {-1,+1}^n."""

    w: np.ndarray
    theta: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 1:
            raise DimensionError("w must be a nonempty vector")
        if not np.any(w != 0.0):
            raise DegenerateFunctionError("zero weight vector: function is constant")
        with np.errstate(over="ignore"):
            reach = float(np.abs(w).sum()) + abs(self.theta)
        if not math.isfinite(reach):
            raise ValueError("non-finite weight or threshold, or ||w||_1 + |theta| overflows")

    @property
    def n(self) -> int:
        return self.w.size

    def handle(self) -> ThresholdHandle:
        """Vectorized +-1-valued function handle over (m, n) inputs, exact on
        every row, that carries (w, theta) for chow_exact."""
        return ThresholdHandle(self.w, self.theta)

    def normalized(self, p: PNorm) -> "LinearThresholdNeuron":
        """Scale (w, theta) to unit dual norm; the sign function is unchanged."""
        s = norm(self.w, p.q)
        return LinearThresholdNeuron(self.w / s, self.theta / s)


@dataclass(frozen=True)
class StabilizationResult:
    """Replacement weights w* with the closed-form objective value."""

    w_star: np.ndarray
    analytic_robustness: Optional[float]


def distance_lp(x, nrn: LinearThresholdNeuron, p: PNorm) -> float:
    """lp distance from x to the hyperplane {z : z . w = theta}."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (nrn.n,):
        raise DimensionError(f"x has shape {x.shape}, expected ({nrn.n},)")
    return abs(float(x @ nrn.w) - nrn.theta) / norm(nrn.w, p.q)


def robustness_exact(nrn: LinearThresholdNeuron, p: PNorm) -> float:
    """Mean lp distance to the decision boundary over the whole cube."""
    return float(cube_mean(lambda X: np.abs(X @ nrn.w - nrn.theta).sum(), nrn.n)) / norm(nrn.w, p.q)


def degree_one(chow: ChowEstimate, n: int) -> np.ndarray:
    """The degree-1 coefficients h_vec of a unit on n inputs. A wrong n raises
    DimensionError; a zero vector, whose unit is constant, DegenerateFunctionError."""
    if chow.n != n:
        raise DimensionError(f"chow dimension {chow.n} != unit dimension {n}")
    if not np.any(chow.h_vec != 0.0):
        raise DegenerateFunctionError("zero coefficient vector: function is constant")
    return chow.h_vec


def stabilized_weights(h_vec: np.ndarray, p: PNorm) -> np.ndarray:
    """Closed-form maximizer of the mean signed distance, from h_vec alone.

    For p = inf it places unit magnitude on the first coordinate of maximal
    |h_i| (the polytope-vertex maximizer).
    """
    h_vec = np.asarray(h_vec, dtype=np.float64)
    if not np.any(h_vec != 0.0):
        raise DegenerateFunctionError("zero coefficient vector: function is constant")
    if p.is_inf:
        w = np.zeros_like(h_vec)
        imax = int(np.argmax(np.abs(h_vec)))
        w[imax] = math.copysign(1.0, h_vec[imax])
        return w
    return np.sign(h_vec) * (np.abs(h_vec) / norm(h_vec, p.p)) ** (p.p - 1.0)


def stabilize(
    nrn: LinearThresholdNeuron, p: PNorm, chow: Optional[ChowEstimate], mu: float
) -> StabilizationResult:
    """Replacement weights for a neuron, plus the analytic objective value.

    For p = 1 the signs of the degree-1 coefficients equal the signs of the
    weights, so no coefficient estimate is needed; zero weights stay zero
    (the coordinate is irrelevant and any sign gives the same objective).
    For p > 1 a ChowEstimate is required. The analytic robustness
    ||h_vec||_p - h_empty*mu is reported whenever a ChowEstimate is given,
    whose h_vec degree_one checks.
    """
    if chow is None:
        if p.p != 1.0:
            raise ValueError("p > 1 requires a ChowEstimate")
        return StabilizationResult(w_star=np.sign(nrn.w), analytic_robustness=None)
    h_vec = degree_one(chow, nrn.n)
    w_star = np.sign(nrn.w) if p.p == 1.0 else stabilized_weights(h_vec, p)
    return StabilizationResult(w_star=w_star, analytic_robustness=norm(h_vec, p.p) - chow.h_empty * mu)


def alpha_mu(n: int, mu: float) -> float:
    """E|S - mu| for S = (n - 2k)/sqrt(n), k ~ Binomial(n, 1/2), the sum of n independent uniform +-1/sqrt(n)
    variables. Its weights C(n, k)/C(n, n//2), built from the mode by the ratios (n-k)/(k+1), never overflow."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n + 1, dtype=np.float64)
    up = np.cumprod((n - k[n // 2 : n]) / (k[n // 2 : n] + 1.0))  # k > n//2; C(n, k) = C(n, n-k) gives the rest
    weights = np.concatenate([up[::-1][: n // 2], [1.0], up])
    with np.errstate(over="ignore"):  # a mu near the float limit may give inf
        return float((weights / weights.sum()) @ np.abs((n - 2.0 * k) / math.sqrt(n) - mu))


def folded_gaussian_mean(mu: float) -> float:
    """E|N(mu, 1)| via the closed form; symmetric in mu."""
    phi_neg = 0.5 * math.erfc(mu / math.sqrt(2.0))  # Phi(-mu)
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * mu * mu) + mu * (1.0 - 2.0 * phi_neg)


@dataclass(frozen=True)
class AccuracyBoundReport:
    """Upper bound on disagreement between sign(l(x)-mu) and the original neuron.

    bound is stored raw (it may exceed 1); bound_clamped is the reporting
    convenience. epsilon_be is the Berry-Esseen epsilon max|w*_i|/sigma,
    which collapses to 1/sqrt(n) for p = 1.
    """

    mu: float
    gamma: float
    bound: float
    epsilon_be: float
    sigma: Optional[float] = None
    e_mu: Optional[float] = None
    alpha: Optional[float] = None
    rho: ClassVar[float] = RHO

    @property
    def bound_clamped(self) -> float:
        return min(self.bound, 1.0)


def accuracy_bound_p1(chow: ChowEstimate, n: int, mu: float) -> AccuracyBoundReport:
    """Disagreement bound for the p=1 stabilized comparison l(x) = x.w*/sqrt(n).

    mu is the threshold of the normalized comparison; a neuron bias theta
    corresponds to mu = theta/sqrt(n).
    """
    if chow.n != n:
        raise DimensionError(f"chow dimension {chow.n} != {n}")
    a = alpha_mu(n, mu)
    gamma = abs(norm(chow.h_vec, 1.0) / math.sqrt(n) - chow.h_empty * mu - a)
    bound = 1.5 * (C0 / math.sqrt(n) + math.sqrt(C0**2 / n + math.sqrt(2.0 / math.pi) * gamma))
    return AccuracyBoundReport(
        mu=mu,
        gamma=gamma,
        bound=bound,
        epsilon_be=1.0 / math.sqrt(n),
        alpha=a,
    )


def accuracy_bound_lp(chow: ChowEstimate, p: PNorm, mu: float) -> AccuracyBoundReport:
    """Disagreement bound for 1 < p < inf, with l(x) = x.w*/||w*||_2."""
    if not 1.0 < p.p < math.inf:
        raise ValueError("accuracy_bound_lp requires 1 < p < inf")
    w_star = stabilized_weights(chow.h_vec, p)
    sigma = norm(w_star, 2.0)
    eps = float(np.max(np.abs(w_star))) / sigma
    e_mu = folded_gaussian_mean(mu)
    gamma = abs(norm(chow.h_vec, p.p) / sigma - chow.h_empty * mu - e_mu)
    bound = 1.5 * (
        C0 * eps + math.sqrt((C0 * eps) ** 2 + math.sqrt(2.0 / math.pi) * (gamma + RHO * eps))
    )
    return AccuracyBoundReport(
        mu=mu,
        gamma=gamma,
        bound=bound,
        epsilon_be=eps,
        sigma=sigma,
        e_mu=e_mu,
    )
