import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import constant, dictator, ltf_units, majority3, random_ltf
from fourierstab.errors import DegenerateFunctionError, DimensionError
from fourierstab import fourier
from fourierstab.fourier import ChowEstimate, chow_exact, enumerate_cube
from fourierstab.network import Activation, BinaryMlp, fresh_mask
from fourierstab.neuron import (
    C0,
    C1,
    LinearThresholdNeuron,
    PNorm,
    accuracy_bound_lp,
    accuracy_bound_p1,
    alpha_mu,
    degree_one,
    disagreement_exact,
    distance_lp,
    folded_gaussian_mean,
    norm,
    robustness_exact,
    sign_pm1,
    stabilize,
)
from fourierstab.selection import delta_r

MAJ3 = LinearThresholdNeuron(np.array([1.0, 1.0, 1.0]), 0.0)


def cube(n):
    return np.concatenate(list(enumerate_cube(n)))


def projection_oracle(x, nrn, p):
    """Independent point-to-hyperplane distance: exact orthogonal projection
    for p=2, best single-coordinate move for p=1, uniform move for p=inf."""
    w, theta = nrn.w, nrn.theta
    resid = float(x @ w) - theta
    if p == 2.0:
        u = x - (resid / float(w @ w)) * w
        assert abs(float(u @ w) - theta) < 1e-9
        return float(np.linalg.norm(x - u))
    if p == 1.0:
        best = math.inf
        for i in range(len(w)):
            if w[i] != 0.0:
                best = min(best, abs(resid / w[i]))
        return best
    # p = inf: move every coordinate by the same magnitude against sign(w).
    t = resid / float(np.sum(np.abs(w)))
    u = x - t * np.sign(w)
    assert abs(float(u @ w) - theta) < 1e-9
    return float(np.max(np.abs(x - u)))


class TestPNorm:
    def test_duals(self):
        assert PNorm(1.0).q == math.inf
        assert PNorm(math.inf).q == 1.0
        assert PNorm(2.0).q == 2.0
        assert PNorm(3.0).q == pytest.approx(1.5)

    def test_duality_relation(self):
        for p in [1.0, 1.5, 2.0, 3.0, 10.0]:
            pn = PNorm(p)
            if math.isinf(pn.q):
                assert pn.p == 1.0
            else:
                assert 1.0 / pn.p + 1.0 / pn.q == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PNorm(0.5)


class TestNorm:
    def test_plain_sum_where_it_is_exact(self, rng):
        # Where |v_i| ** p stays in the normal float range, the norm is the plain sum's root.
        for p in (1.0, 1.5, 2.0, 3.0, 17.0):
            v = rng.normal(size=12) * 10.0 ** rng.uniform(-5, 5)
            assert norm(v, p) == float(np.sum(np.abs(v) ** p) ** (1.0 / p))

    @pytest.mark.parametrize("v, p, expected", [
        ([0.5, -0.25], 1e7, 0.5),      # the plain sum underflows to 0
        ([3.0, -4.0], 1e7, 4.0),       # the plain sum overflows to inf
        ([1e-200, 1e-200], 2.0, math.sqrt(2.0) * 1e-200),
        ([1e200, -1e200], 2.0, math.sqrt(2.0) * 1e200),
        ([0.0, 0.0], 1e300, 0.0),
    ])
    def test_extreme_exponents_and_magnitudes(self, v, p, expected):
        assert norm(np.array(v), p) == pytest.approx(expected, rel=1e-12)


class TestLinearThresholdNeuron:
    @pytest.mark.parametrize(
        "w, theta", [([math.nan, 1.0], 0.0), ([1.0, 1.0], math.inf)], ids=["nan-w", "inf-theta"]
    )
    def test_non_finite_rejected(self, w, theta):
        with pytest.raises(ValueError):
            LinearThresholdNeuron(np.array(w), theta)

    def test_zero_weight_vector_is_degenerate(self):
        with pytest.raises(DegenerateFunctionError, match="zero weight vector"):
            LinearThresholdNeuron(np.zeros(3), 0.5)

    def test_overflowing_reach_rejected(self):
        # Each weight is finite, but ||w||_1 + |theta|, a bound on every sum x.w - theta, is not.
        with pytest.raises(ValueError, match="overflows"):
            LinearThresholdNeuron(np.array([1e308, -1e308]), 0.0)
        with pytest.raises(ValueError, match="overflows"):
            LinearThresholdNeuron(np.array([1e308]), 1.7e308)


def fraction_labels(nrn, X):
    """sign(x.w - theta), sign(0) = +1, of each row in exact rational arithmetic."""
    w, theta = [Fraction(v) for v in nrn.w], Fraction(nrn.theta)
    return np.array([1.0 if sum(wi if xi > 0 else -wi for xi, wi in zip(x, w)) >= theta else -1.0 for x in X])


def integer_reach(nrn):
    """sum |k| + |k_theta| of the unit's integer form: below 2^53 every computed sum is exact."""
    k, k_theta = fourier._integer_form(nrn.w, nrn.theta)
    return sum(map(abs, k)) + abs(k_theta)


@pytest.mark.parametrize("refused, error, match", [
    (lambda: LinearThresholdNeuron(np.zeros(0), 0.0), DimensionError, "nonempty vector"),
    (lambda: LinearThresholdNeuron(np.ones((2, 2)), 0.0), DimensionError, "nonempty vector"),
    (lambda: alpha_mu(0, 0.5), ValueError, "n must be >= 1"),
    (lambda: accuracy_bound_p1(chow_exact(MAJ3.handle(), 3), 4, 0.0), DimensionError, "chow dimension 3 != 4"),
    (lambda: accuracy_bound_lp(chow_exact(MAJ3.handle(), 3), PNorm(1.0), 0.0), ValueError, "1 < p < inf"),
    (lambda: accuracy_bound_lp(chow_exact(MAJ3.handle(), 3), PNorm(math.inf), 0.0), ValueError, "1 < p < inf"),
], ids=["ltf-empty-w", "ltf-2d-w", "alpha_mu-n0", "bound_p1-n", "bound_lp-p1", "bound_lp-pinf"])
def test_refusals(refused, error, match):
    with pytest.raises(error, match=match):
        refused()


class TestExactLabels:
    """The handle labels every row with the exact sign of x.w - theta, whatever
    batch the row is evaluated in."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: ltf_units(n, "one-decimal")))
    def test_one_decimal_weights_match_fraction_enumeration(self, nrn):
        X = cube(nrn.n)
        labels = fraction_labels(nrn, X)
        np.testing.assert_array_equal(nrn.handle()(X), labels)
        est = chow_exact(nrn.handle(), nrn.n)
        assert est.h_empty == labels.sum() / len(X)
        np.testing.assert_array_equal(est.h_vec, labels @ X / len(X))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: ltf_units(n, "one-decimal")), st.booleans())
    def test_each_row_gets_its_batch_label_alone(self, nrn, flat):
        X = cube(nrn.n)
        h = nrn.handle()
        batch = h(X)
        alone = [h(x) if flat else h(x[None, :])[0] for x in X]
        assert alone == batch.tolist()
        np.testing.assert_array_equal(h(X[::-1]), batch[::-1])

    @pytest.mark.parametrize("w, theta", [([0.3, 0.2, -0.1], -0.6), ([-0.2, -0.5, -0.6, 0.7], -0.6)])
    def test_decimal_ties_that_blas_gets_wrong(self, w, theta):
        # In decimal, x.w = theta on one row. In floats, BLAS's sign of x.w - theta
        # is wrong there: inside the 2^n batch for the first unit, for the row
        # on its own for the second.
        nrn = LinearThresholdNeuron(np.array(w), theta)
        X = cube(nrn.n)
        exact = fraction_labels(nrn, X)
        blas = [sign_pm1(X @ nrn.w - nrn.theta), [sign_pm1(x @ nrn.w - nrn.theta) for x in X]]
        assert any((labels != exact).any() for labels in blas)
        assert integer_reach(nrn) >= 2**53  # the tie rows are decided in integers
        np.testing.assert_array_equal(nrn.handle()(X), exact)
        assert [nrn.handle()(x) for x in X] == exact.tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: ltf_units(n, "pm1")))
    def test_pm1_weights_with_integer_threshold_keep_their_labels(self, nrn):
        # Every sum is an integer, so BLAS is exact and no row needs deciding.
        X = cube(nrn.n)
        assert integer_reach(nrn) < 2**53
        labels = nrn.handle()(X)
        np.testing.assert_array_equal(labels, sign_pm1(X @ nrn.w - nrn.theta))
        np.testing.assert_array_equal(labels, fraction_labels(nrn, X))


class TestDistance:
    def test_p1(self):
        nrn = LinearThresholdNeuron(np.array([1.0, 1.0]), 0.0)
        assert distance_lp(np.array([1.0, 1.0]), nrn, PNorm(1.0)) == 2.0

    def test_p2(self):
        nrn = LinearThresholdNeuron(np.array([1.0, 1.0]), 0.0)
        assert distance_lp(np.array([1.0, 1.0]), nrn, PNorm(2.0)) == pytest.approx(math.sqrt(2.0))

    def test_on_hyperplane(self):
        nrn = LinearThresholdNeuron(np.array([1.0, 1.0]), 0.0)
        for p in [1.0, 2.0, math.inf]:
            assert distance_lp(np.array([1.0, -1.0]), nrn, PNorm(p)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            distance_lp(np.array([1.0]), MAJ3, PNorm(2.0))

    def test_matches_projection_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            nrn = random_ltf(rng, n)
            x = rng.normal(size=n)
            for p in [1.0, 2.0, math.inf]:
                closed = distance_lp(x, nrn, PNorm(p))
                assert closed == pytest.approx(projection_oracle(x, nrn, p), abs=1e-6)


def robustness_analytic(chow, nrn, p):
    """(sum_i w_i h_i - h_empty*theta)/||w||_q: the coefficient side of the mean lp
    distance to the boundary, robustness_exact's enumeration side when theta = 0."""
    h_vec = degree_one(chow, nrn.n)
    return (float(nrn.w @ h_vec) - chow.h_empty * nrn.theta) / norm(nrn.w, p.q)


class TestRobustness:
    def test_majority_exact(self):
        assert robustness_exact(MAJ3, PNorm(1.0)) == 1.5

    def test_two_coordinate_exact(self):
        nrn = LinearThresholdNeuron(np.array([1.0, 0.5]), 0.0)
        assert robustness_exact(nrn, PNorm(1.0)) == 1.0

    def test_single_coordinate(self):
        nrn = LinearThresholdNeuron(np.array([1.0]), 0.0)
        for p in [1.0, 2.0, math.inf]:
            assert robustness_exact(nrn, PNorm(p)) == 1.0

    def test_analytic_matches_exact_for_majority(self):
        est = chow_exact(MAJ3.handle(), 3)
        assert robustness_analytic(est, MAJ3, PNorm(1.0)) == 1.5

    def test_analytic_dictator(self):
        nrn = LinearThresholdNeuron(np.array([1.0]), 0.0)
        est = chow_exact(nrn.handle(), 1)
        assert robustness_analytic(est, nrn, PNorm(1.0)) == 1.0

    def test_degenerate_flagged(self):
        nrn = LinearThresholdNeuron(np.array([0.25]), 2.0)  # constant -1
        est = chow_exact(nrn.handle(), 1)
        with pytest.raises(DegenerateFunctionError, match="zero coefficient vector"):
            robustness_analytic(est, nrn, PNorm(1.0))

    def test_analytic_equals_exact_unbiased(self, rng):
        # At theta = 0 the mean distance equals the coefficient-side sum.
        for _ in range(10):
            n = int(rng.integers(2, 9))
            nrn = random_ltf(rng, n, with_bias=False)
            est = chow_exact(nrn.handle(), n)
            for p in [1.0, 2.0, math.inf]:
                assert robustness_analytic(est, nrn, PNorm(p)) == pytest.approx(
                    robustness_exact(nrn, PNorm(p)), abs=1e-12
                )


def _single_unit_delta_r(nrn, chow):
    net = BinaryMlp(nrn.w[None, :], np.array([-nrn.theta]), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1))
    return delta_r(net, 0, PNorm(2.0), chow)


@pytest.mark.parametrize(
    "call",
    [
        lambda nrn, chow: stabilize(nrn, PNorm(1.0), chow, mu=0.0),
        lambda nrn, chow: stabilize(nrn, PNorm(2.0), chow, mu=0.0),
        lambda nrn, chow: robustness_analytic(chow, nrn, PNorm(2.0)),
        _single_unit_delta_r,
    ],
    ids=["stabilize-p1", "stabilize-p2", "robustness_analytic", "delta_r"],
)
@pytest.mark.parametrize(
    "chow, error",
    [
        (ChowEstimate(2, 0.5, np.zeros(2), "exact"), DegenerateFunctionError),
        (ChowEstimate(3, 0.0, np.full(3, 0.5), "exact"), DimensionError),
    ],
    ids=["zero-h_vec", "wrong-n"],
)
def test_unit_coefficient_rule(call, chow, error):
    # Every function that reads a unit's degree-1 coefficients refuses a vector
    # of the wrong length and a zero one, whose unit is constant.
    with pytest.raises(error):
        call(LinearThresholdNeuron(np.array([1.0, 0.5]), 0.0), chow)


class TestSignAgreement:
    def test_lemma_over_random_ltfs(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            for i in range(n):
                if est.h_vec[i] != 0.0:
                    assert np.sign(est.h_vec[i]) == np.sign(nrn.w[i])


def enumeration_objective(nrn, v, mu):
    """E_x (x.v - mu) h(x) by full enumeration."""
    X = cube(nrn.n)
    h = nrn.handle()(X)
    return float(np.mean((X @ v - mu) * h))


class TestStabilize:
    def test_p1_sign_pattern(self):
        nrn = LinearThresholdNeuron(np.array([3.0, -2.0, 0.5]), 1.0)
        res = stabilize(nrn, PNorm(1.0), None, mu=1.0)
        np.testing.assert_array_equal(res.w_star, [1.0, -1.0, 1.0])

    def test_p1_zero_weight_stays_zero(self):
        nrn = LinearThresholdNeuron(np.array([2.0, 0.0]), 0.0)
        res = stabilize(nrn, PNorm(1.0), None, mu=0.0)
        np.testing.assert_array_equal(res.w_star, [1.0, 0.0])

    def test_p2_majority(self):
        est = chow_exact(MAJ3.handle(), 3)
        res = stabilize(MAJ3, PNorm(2.0), est, mu=0.0)
        np.testing.assert_allclose(res.w_star, np.ones(3) / math.sqrt(3.0), atol=1e-12)
        assert res.analytic_robustness == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_pinf_vertex(self):
        chow = ChowEstimate(2, 0.1, np.array([0.8, 0.1]), "exact")
        nrn = LinearThresholdNeuron(np.array([5.0, 0.2]), 0.0)
        res = stabilize(nrn, PNorm(math.inf), chow, mu=0.5)
        np.testing.assert_array_equal(res.w_star, [1.0, 0.0])
        assert res.analytic_robustness == pytest.approx(0.8 - 0.1 * 0.5)

    def test_pinf_tie_break_lowest_index(self):
        chow = ChowEstimate(3, 0.0, np.array([-0.5, 0.5, 0.1]), "exact")
        nrn = LinearThresholdNeuron(np.ones(3), 0.0)
        res = stabilize(nrn, PNorm(math.inf), chow, mu=0.0)
        np.testing.assert_array_equal(res.w_star, [-1.0, 0.0, 0.0])

    def test_degenerate_raises(self):
        chow = ChowEstimate(2, 1.0, np.zeros(2), "exact")
        nrn = LinearThresholdNeuron(np.ones(2), 0.0)
        with pytest.raises(DegenerateFunctionError):
            stabilize(nrn, PNorm(2.0), chow, mu=0.0)

    def test_dual_norm_constraints(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            res1 = stabilize(nrn, PNorm(1.0), est, mu=0.0)
            assert set(np.unique(np.abs(res1.w_star))) <= {0.0, 1.0}
            assert norm(res1.w_star, math.inf) == 1.0
            for p in [1.5, 2.0, 3.0]:
                res = stabilize(nrn, PNorm(p), est, mu=0.0)
                assert norm(res.w_star, PNorm(p).q) == pytest.approx(1.0, abs=1e-9)

    def test_optimality_against_enumeration(self, rng):
        """The closed form attains ||h_vec||_p - h_empty*mu and beats random
        feasible competitors (100 neurons x 4 norms x 200 competitors)."""
        for _ in range(100):
            n = int(rng.integers(3, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            for p in [1.0, 2.0, 3.0, math.inf]:
                pn = PNorm(p)
                mu = nrn.theta / norm(nrn.w, pn.q)
                res = stabilize(nrn, pn, est, mu=mu)
                obj = enumeration_objective(nrn, res.w_star, mu)
                assert obj == pytest.approx(res.analytic_robustness, abs=1e-9)
                V = rng.normal(size=(200, n))
                qexp = math.inf if p == 1.0 else pn.q
                scales = np.array([norm(v, qexp) for v in V])
                V = V / scales[:, None]
                comp = np.mean((cube(n) @ V.T - mu) * nrn.handle()(cube(n))[:, None], axis=0)
                assert np.all(comp <= obj + 1e-9)


class TestDominance:
    def test_stabilized_at_least_as_robust(self, rng):
        """Normalized original <= analytic value <= stabilized, all norms."""
        for _ in range(100):
            n = int(rng.integers(3, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            for p in [1.0, 2.0, math.inf]:
                pn = PNorm(p)
                tilde = nrn.normalized(pn)
                analytic = norm(est.h_vec, p) - est.h_empty * tilde.theta
                res = stabilize(nrn, pn, est, mu=tilde.theta)
                stab = LinearThresholdNeuron(res.w_star, tilde.theta)
                assert robustness_exact(tilde, pn) <= analytic + 1e-9
                assert analytic <= robustness_exact(stab, pn) + 1e-9


class TestAlphaMu:
    def test_n1_mu0(self):
        assert alpha_mu(1, 0.0) == 1.0

    def test_n2_mu0(self):
        assert alpha_mu(2, 0.0) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_n2_large_mu(self):
        assert alpha_mu(2, 10.0) == pytest.approx(10.0, abs=1e-12)

    def test_matches_direct_expectation(self):
        for n in range(1, 13):
            X = cube(n)
            s = X.sum(axis=1) / math.sqrt(n)
            for mu in [0.0, 0.5, 1.0, 10.0]:
                direct = float(np.mean(np.abs(s - mu)))
                assert alpha_mu(n, mu) == pytest.approx(direct, abs=1e-12)

    def test_matches_exact_fraction_sum(self):
        # sum_k C(n, k) |(n - 2k)/sqrt(n) - mu| / 2^n in exact arithmetic on the float sqrt(n) and mu.
        for n in range(1, 65):
            root = Fraction(math.sqrt(n))
            for mu in (0.0, 0.3, -1.0, 2.5, 1e3, -1e300):
                exact = sum(math.comb(n, k) * abs((n - 2 * k) / root - Fraction(mu)) for k in range(n + 1)) / 2**n
                assert alpha_mu(n, mu) == pytest.approx(float(exact), rel=1e-14)

    def test_large_n(self):
        # 2^n leaves the float range at n = 1024; alpha(0) tends to E|N(0,1)| as n grows.
        for n in (1100, 100_000):
            assert alpha_mu(n, 0.0) == pytest.approx(folded_gaussian_mean(0.0), rel=1e-3)
            assert alpha_mu(n, 1e6) == pytest.approx(1e6, rel=1e-14)

    def test_mu_at_the_float_limit_warns_nothing(self):
        # alpha(mu) = |mu| there; the weighted sum may round past the largest float to inf.
        for mu in (-1.78e308, sys.float_info.max):
            assert alpha_mu(16, mu) >= 1.78e308


class TestFoldedGaussianMean:
    def test_mu0(self):
        assert folded_gaussian_mean(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_large_mu(self):
        assert folded_gaussian_mean(10.0) == pytest.approx(10.0, abs=1e-12)

    def test_quadrature_oracle(self):
        for mu in [0.0, 0.3, 1.0, 2.5]:
            oracle, _ = quad(
                lambda z: abs(z) * math.exp(-0.5 * (z - mu) ** 2) / math.sqrt(2 * math.pi),
                -40,
                40,
            )
            assert folded_gaussian_mean(mu) == pytest.approx(oracle, abs=1e-9)

    def test_symmetric(self):
        for mu in [0.1, 1.0, 3.0]:
            assert folded_gaussian_mean(-mu) == pytest.approx(folded_gaussian_mean(mu), abs=1e-12)


class TestTailBound:
    def test_small_ball_probability(self, rng):
        """Exact Pr[|a.x - mu| <= u] <= u*sqrt(2/pi) + 2*C0*max|a_i| for
        unit-l2 weight vectors."""
        for _ in range(50):
            n = int(rng.integers(4, 13))
            a = rng.normal(size=n)
            a /= np.linalg.norm(a)
            eps = float(np.max(np.abs(a)))
            X = cube(n)
            proj = X @ a
            for mu in [0.0, 0.5, 1.0]:
                for u in [0.05, 0.1, 0.3, 0.5, 1.0]:
                    exact = float(np.mean(np.abs(proj - mu) <= u))
                    assert exact <= u * math.sqrt(2.0 / math.pi) + 2.0 * C0 * eps


class TestAccuracyBoundP1:
    def test_zero_gamma_collapses(self):
        chow = ChowEstimate(100, 0.0, np.zeros(100), "exact")
        # gamma = 0 requires matched terms; check the closed form directly.
        n = 100
        bound = 1.5 * (C0 / math.sqrt(n) + math.sqrt(C0**2 / n))
        assert bound == pytest.approx(3.0 * C0 / math.sqrt(n))
        assert bound == pytest.approx(0.141)

    def test_majority_gamma_near_zero(self):
        est = chow_exact(MAJ3.handle(), 3)
        rep = accuracy_bound_p1(est, 3, 0.0)
        assert rep.gamma == pytest.approx(0.0, abs=1e-12)

    def test_constants(self):
        est = chow_exact(MAJ3.handle(), 3)
        rep = accuracy_bound_p1(est, 3, 0.0)
        assert C0 == 0.47
        assert C1 == 21.82
        assert rep.rho == pytest.approx(4.0 * math.pi * 21.82 / (3.0 * math.sqrt(3.0)))

    def test_soundness(self, rng):
        """Exact disagreement between the normalized stabilized comparison and
        the original neuron never exceeds the bound."""
        for _ in range(100):
            n = int(rng.integers(8, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            w_star = np.sign(nrn.w)
            for mu in [0.0, nrn.theta / math.sqrt(n)]:
                rep = accuracy_bound_p1(est, n, mu)

                def ell_sign(X, w_star=w_star, mu=mu, n=n):
                    return sign_pm1(X @ w_star / math.sqrt(n) - mu)

                dis = disagreement_exact(ell_sign, nrn.handle(), n)
                assert dis <= rep.bound + 1e-12


class TestAccuracyBoundLp:
    def test_rho_value(self):
        est = chow_exact(MAJ3.handle(), 3)
        rep = accuracy_bound_lp(est, PNorm(2.0), 0.0)
        assert rep.rho == pytest.approx(52.77, abs=0.01)

    def test_dictator_gamma(self):
        chow = ChowEstimate(4, 0.0, np.array([1.0, 0.0, 0.0, 0.0]), "exact")
        rep = accuracy_bound_lp(chow, PNorm(2.0), 0.0)
        assert rep.gamma == pytest.approx(abs(1.0 - folded_gaussian_mean(0.0)), abs=1e-12)
        assert rep.gamma == pytest.approx(0.20212, abs=1e-5)

    def test_symmetric_coefficients_reduce(self):
        # Uniform h_vec at p=2: gamma = |sqrt(n)*c - h_empty*mu - E_mu|.
        n, c, h0, mu = 9, 0.2, 0.1, 0.3
        chow = ChowEstimate(n, h0, np.full(n, c), "exact")
        rep = accuracy_bound_lp(chow, PNorm(2.0), mu)
        expected = abs(math.sqrt(n) * c - h0 * mu - folded_gaussian_mean(mu))
        assert rep.gamma == pytest.approx(expected, abs=1e-12)
        assert rep.epsilon_be == pytest.approx(1.0 / math.sqrt(n), abs=1e-12)

    def test_large_p_is_reported(self):
        # |h_i| ** (p-1) underflows to 0 for every i at p = 5000; gamma = ||h||_p / sigma does not.
        chow = ChowEstimate(3, 0.0, np.array([0.5, -0.25, 0.25]), "exact")
        for p in (500.0, 5000.0, 1e7):
            assert accuracy_bound_lp(chow, PNorm(p), 0.0).gamma == pytest.approx(
                abs(0.5 - folded_gaussian_mean(0.0)), rel=1e-9)

    def test_soundness_p2(self, rng):
        for _ in range(100):
            n = int(rng.integers(8, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            res = stabilize(nrn, PNorm(2.0), est, mu=0.0)
            sigma = float(np.linalg.norm(res.w_star))
            for mu in [0.0, abs(nrn.theta) / math.sqrt(n)]:
                rep = accuracy_bound_lp(est, PNorm(2.0), mu)

                def ell_sign(X, w=res.w_star, sigma=sigma, mu=mu):
                    return sign_pm1(X @ w / sigma - mu)

                dis = disagreement_exact(ell_sign, nrn.handle(), n)
                assert dis <= rep.bound + 1e-12


class TestDisagreement:
    def test_identical(self):
        assert disagreement_exact(majority3, majority3, 3) == 0.0

    def test_opposite_constants(self):
        assert disagreement_exact(constant(1.0), constant(-1.0), 3) == 1.0

    def test_majority_vs_dictator(self):
        assert disagreement_exact(majority3, dictator(0), 3) == 0.25
