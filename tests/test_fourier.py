import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LTF_KINDS, constant, dictator, ltf_units, majority3, random_ltf
from fourierstab import fourier
from fourierstab.errors import CapacityError, DimensionError
from fourierstab.fourier import (
    ROW_CAP,
    ChowEstimate,
    ExactChow,
    MonteCarloChow,
    chow_all,
    chow_exact,
    chow_mc,
    cube_chunk,
    enumerate_cube,
    influence,
    mc_sample_count,
    threshold_signs,
)
from fourierstab.network import Activation, BinaryMlp, fresh_mask
from fourierstab.neuron import (
    LinearThresholdNeuron,
    PNorm,
    disagreement_exact,
    norm,
    robustness_exact,
)


class TestChowExact:
    def test_constant(self):
        est = chow_exact(constant(1.0), 3)
        assert est.h_empty == 1.0
        assert np.all(est.h_vec == 0.0)
        assert est.mode == "exact" and est.epsilon == 0.0 and est.samples == 0

    def test_majority3(self):
        est = chow_exact(majority3, 3)
        assert est.h_empty == 0.0
        np.testing.assert_allclose(est.h_vec, [0.5, 0.5, 0.5])

    def test_dictator(self):
        est = chow_exact(dictator(0), 2)
        assert est.h_empty == 0.0
        np.testing.assert_allclose(est.h_vec, [1.0, 0.0])

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            chow_exact(majority3, 23)

    def test_coefficients_bounded(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            est = chow_exact(random_ltf(rng, n).handle(), n)
            assert abs(est.h_empty) <= 1.0
            assert np.all(np.abs(est.h_vec) <= 1.0)


def enumerated(handle):
    """The same function as handle, without the (w, theta) that chow_exact counts from."""
    return lambda X: handle(X)


def same_bits(a, b):
    return a.h_vec.tobytes() == b.h_vec.tobytes() and np.float64(a.h_empty).tobytes() == np.float64(b.h_empty).tobytes()


class TestThresholdCounting:
    """chow_exact counts a threshold unit's coefficients by meet in the middle
    and gives the bits that enumerating its handle gives."""

    @pytest.mark.parametrize("kind", LTF_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_enumeration(self, n, kind, data):
        h = data.draw(ltf_units(n, kind)).handle()
        assert same_bits(chow_exact(h, n), chow_exact(enumerated(h), n))

    @pytest.mark.parametrize("n", [33, 39])
    def test_majority_in_closed_form(self, n):
        # An odd sum never ties: h_empty = 0, and h_i = Pr[the other n - 1 inputs tie],
        # C(n - 1, (n - 1)/2) / 2^(n - 1).
        est = chow_exact(LinearThresholdNeuron(np.ones(n), 0.0).handle(), n)
        assert est.h_empty == 0.0
        np.testing.assert_array_equal(est.h_vec, np.full(n, math.comb(n - 1, n // 2) / 2 ** (n - 1)))

    def test_capacity_error_before_any_half_cube(self, monkeypatch):
        # A half of 23 or more inputs has over 2^22 half-sums; the unit is refused
        # before its integer form, the first thing counting computes from it.
        monkeypatch.setattr(fourier, "_integer_form", lambda *a: pytest.fail("the integer form was computed"))
        for n in (45, 46, 64):
            with pytest.raises(CapacityError, match="half-sums, over the cap of 4194304"):
                chow_exact(LinearThresholdNeuron(np.ones(n), 0.5).handle(), n)

    @pytest.mark.parametrize("n", [28, 32])
    def test_tie_heavy_units_are_counted_without_labelling_a_row(self, n, monkeypatch):
        # The tiled unit has 11,218,944 sums within its tie band at n = 28, and
        # 168,331,566 at n = 32; counting reads only (w, theta).
        w, theta = np.resize([0.1, 0.2, 0.3, -0.6], n), 0.0
        h = LinearThresholdNeuron(w, theta).handle()
        monkeypatch.setattr(fourier.ThresholdHandle, "__call__", lambda self, X: pytest.fail("a row was labelled"))
        monkeypatch.setattr(fourier, "threshold_signs", lambda *a: pytest.fail("a sign was decided"))
        est = chow_exact(h, n)
        # Reference: the 4 weights each repeat n/4 times, so a row's exact sum depends
        # only on how many copies of each are +1, and h_i on its copy's count.
        reps, h_empty, h_class = n // 4, Fraction(0), [Fraction(0)] * 4
        for ups in itertools.product(range(reps + 1), repeat=4):
            rows = math.prod(math.comb(reps, u) for u in ups)
            label = 1 if sum(Fraction(v) * (2 * u - reps) for v, u in zip(w, ups)) >= Fraction(theta) else -1
            h_empty += rows * label
            h_class = [c + Fraction(rows * label * (2 * u - reps), reps) for c, u in zip(h_class, ups)]
        assert est.h_empty == h_empty / 2**n
        assert est.h_vec.tolist() == [float(h_class[i % 4] / 2**n) for i in range(n)]

    def test_half_sum_row_cap(self, monkeypatch):
        # The larger half of n inputs has 2^(n - n//2) half-sums: 32 at n = 10, 64 at n = 11.
        monkeypatch.setattr(fourier, "ROW_CAP", 32)
        chow_exact(LinearThresholdNeuron(np.ones(10), 0.5).handle(), 10)
        with pytest.raises(CapacityError, match="n=11 needs 64 half-sums, over the cap of 32"):
            chow_exact(LinearThresholdNeuron(np.ones(11), 0.5).handle(), 11)

    def test_rows_drawn_at_n16(self, monkeypatch):
        drawn = []

        def counting_chunk(n, start, stop):
            drawn.append(stop - start)
            return cube_chunk(n, start, stop)

        monkeypatch.setattr(fourier, "cube_chunk", counting_chunk)
        h = random_ltf(np.random.default_rng(7), 16).handle()
        calls = []
        monkeypatch.setattr(fourier.ThresholdHandle, "__call__", lambda self, X: calls.append(len(X)))
        counted = chow_exact(h, 16)
        assert drawn == [] and calls == []
        monkeypatch.undo()
        monkeypatch.setattr(fourier, "cube_chunk", counting_chunk)
        assert same_bits(counted, chow_exact(enumerated(h), 16))
        assert sum(drawn) == 1 << 16

    def test_tie_heavy_units_decide_their_band_pairs(self):
        # One-decimal weights whose decimal sums tie on many rows: every such row lies
        # in the handle's band, and counting decides it by an exact integer sum.
        nrn = LinearThresholdNeuron(np.tile([0.1, 0.2, 0.3, -0.6], 4), 0.0)
        X = cube_chunk(16, 0, 1 << 16)
        s = X @ nrn.w
        assert np.count_nonzero(np.abs(s) <= 2 * 17 * np.finfo(np.float64).eps * np.abs(nrn.w).sum()) > 1000
        h = nrn.handle()
        assert same_bits(chow_exact(h, 16), chow_exact(enumerated(h), 16))

    @pytest.mark.parametrize("n", [20, 22])
    def test_tie_heavy_units_give_enumerations_bits(self, n):
        h = LinearThresholdNeuron(np.resize([0.1, 0.2, 0.3, -0.6], n), 0.0).handle()
        assert same_bits(chow_exact(h, n), chow_exact(enumerated(h), n))

    @pytest.mark.parametrize("pair", [(), (2.0**40, -(2.0**40))], ids=["int64", "python-int"])
    def test_counting_memory_is_bounded(self, pair):
        # The tiled unit on 24 inputs, alone (int64 sums) or with a pair +-2^40 among
        # its weights (sums of more than 64 bits): two 4096-row half-cubes and their sums.
        w = np.concatenate((pair, np.resize([0.1, 0.2, 0.3, -0.6], 24 - len(pair))))
        h = LinearThresholdNeuron(w, 0.3).handle()
        tracemalloc.start()
        try:
            chow_exact(h, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_counting_builds_no_half_cube_matrix(self):
        # At n = 32 two 2^16-row half-cube matrices of +-1 floats took 24.6 MB; the
        # half-sums and their counts take under 4 MB.
        w = np.round(np.random.default_rng(32).normal(size=32) * 2**20) / 2**20
        tracemalloc.start()
        try:
            chow_exact(LinearThresholdNeuron(w, 0.25).handle(), 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    @pytest.mark.parametrize("w, theta", [
        ([2.0**62, -(2.0**62), 2.0**62, -(2.0**62)], 0.0),  # a half reaches 2^63: Python ints
        ([2.0**62, 2.0**62 - 2.0**10, -(2.0**62), 2.0**62 - 2.0**10], 0.0),  # halves reach 2^63 - 2^10: int64
        ([2.0**61, 2.0**61, 2.0**62, -(2.0**62) + 2.0**10], 2.0**62),  # theta - a.w_a reaches 2^63: Python ints
        ([2.0**61, 2.0**61 - 2.0**10, 2.0**62, -(2.0**62) + 2.0**10], -(2.0**62)),  # it reaches 2^63 - 2^10
    ])
    def test_sums_at_the_int64_boundary(self, w, theta):
        h = LinearThresholdNeuron(np.array(w), theta).handle()
        assert same_bits(chow_exact(h, 4), chow_exact(enumerated(h), 4))

    def test_band_is_computed_only_to_label_rows(self, monkeypatch):
        calls = []

        def counted(X, W, theta):
            calls.append(len(X))
            return threshold_signs(X, W, theta)

        monkeypatch.setattr(fourier, "threshold_signs", counted)
        h = LinearThresholdNeuron(np.resize([0.1, 0.2, 0.3, -0.6], 16), 0.0).handle()
        chow_exact(h, 16)
        assert calls == []
        est = chow_mc(h, 16, 0.02, 0.01, seed=3)  # the handle labels 10 chunks of samples
        assert len(calls) == 10 and sum(calls) == est.samples

    def test_width_must_be_n(self):
        h = LinearThresholdNeuron(np.ones(4), 0.5).handle()
        for n in (3, 5):
            with pytest.raises(DimensionError):
                chow_exact(h, n)
        for X in (np.ones((2, 3)), np.ones(5)):
            with pytest.raises(DimensionError):
                h(X)


# Kinds of float for the weights and threshold of one unit.
TERMS = {
    "integer": st.integers(-20, 20).map(float),
    "large-integer": st.integers(-(2**51), 2**51).map(float),  # sums on either side of 2^53
    "one-decimal": st.integers(-10, 10).map(lambda k: k / 10),
    "dyadic": st.builds(lambda m, e: m * 2.0**e, st.integers(-64, 64), st.integers(-60, 60)),
    "subnormal": st.integers(-1000, 1000).map(lambda k: k * 5e-324),
    "gaussian": st.floats(-1e300, 1e300, allow_subnormal=False).map(lambda v: v / 16),
}


def layers():
    """Up to 5 units on 1 to 9 inputs, as rows of n weights and a threshold of one kind of float."""
    def rows(n):
        row = st.sampled_from(sorted(TERMS)).flatmap(lambda kind: st.lists(TERMS[kind], min_size=n + 1, max_size=n + 1))
        return st.lists(row, min_size=1, max_size=5)

    return st.integers(1, 9).flatmap(rows)


def fraction_signs(X, W, theta):
    """sign(x.W[j] - theta[j]), sign(0) = +1, of each row x of X and unit j, in exact rationals."""
    units = [([Fraction(v) for v in w], Fraction(t)) for w, t in zip(W.tolist(), theta.tolist())]
    return [[1.0 if sum(w_i if x_i > 0 else -w_i for x_i, w_i in zip(x, w)) >= t else -1.0 for w, t in units]
            for x in X.tolist()]


class TestThresholdSigns:
    """threshold_signs gives each sum of a layer over the cube its exact sign, in a
    batch and row by row, whatever the kind of float."""

    @settings(max_examples=60, deadline=None)
    @given(layers())
    # sum |k| + |k_theta| of the integer form at 2^53 - 1 and 2^53 (the floats are exact;
    # integers decide) and at 2^63 - 2^10 and 2^63 (int64; Python ints), in integers and
    # in subnormals. Then decimal ties decided in int64 and beside a +-2^40 pair in Python ints.
    @example([[s * 2.0**52, s * (2.0**52 - 1), s * d] for s in (1.0, 5e-324) for d in (0.0, 1.0)])
    @example([[s * 2.0**62, s * (2.0**62 - 2.0**10), s * d] for s in (1.0, 5e-324) for d in (0.0, 2.0**10)])
    @example([[0.1, 0.2, 0.3, -0.6, 0.0], [2.0**40, -(2.0**40), 0.1, 0.2, 0.3]])
    def test_layers_get_fraction_exact_signs(self, rows):
        T = np.array(rows)
        W, theta = T[:, :-1], T[:, -1]
        X = cube_chunk(W.shape[1], 0, 1 << W.shape[1])
        exact = fraction_signs(X, W, theta)
        assert threshold_signs(X, W, theta).tolist() == exact
        assert [threshold_signs(x, W, theta).tolist() for x in X] == exact

    def test_a_band_row_that_is_not_pm1_raises(self):
        # 0.03 + 0.06 - 0.09 lies in the band; its rounded products are not the unit's terms.
        h = LinearThresholdNeuron(np.array([0.1, 0.2, 0.3]), 0.0).handle()
        assert h(np.array([1.0, 1.0, -1.0])) == 1.0
        with pytest.raises(ValueError, match="must be exactly \\+-1"):
            h(np.array([0.3, 0.3, -0.3]))

    def test_a_band_row_that_is_not_pm1_raises_whatever_the_integer_form(self):
        # The computed sum of the row is 0, in the band of both units, but the exact sums
        # are -1 and -2^-60: a float sign would be +1. The first unit's integers are small.
        row = np.array([1e16, -1.0, -1e16])
        for w in ([1.0, 1.0, 1.0], [1.0, 2.0**-60, 1.0]):
            net = BinaryMlp(np.array([w]), np.zeros(1), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1))
            for label in (LinearThresholdNeuron(np.array(w), 0.0).handle(), net.hidden):
                with pytest.raises(ValueError, match="must be exactly \\+-1"):
                    label(row)


class TestChowMc:
    def test_sample_size_formula(self):
        # ceil(ln(2*11/0.01) / (2*0.05^2)) = ceil(1539.24...) = 1540
        assert mc_sample_count(10, 0.05, 0.01) == 1540
        assert mc_sample_count(10, 0.05, 0.01) == math.ceil(
            math.log(2 * 11 / 0.01) / (2 * 0.05**2)
        )

    def test_constant_is_exactly_one(self):
        est = chow_mc(constant(1.0), 4, 0.1, 0.1, seed=7)
        assert est.h_empty == 1.0

    def test_close_to_exact_on_majority(self):
        exact = chow_exact(majority3, 3)
        est = chow_mc(majority3, 3, epsilon=0.05, delta=0.01, seed=11)
        assert abs(est.h_empty - exact.h_empty) <= 0.05
        assert np.all(np.abs(est.h_vec - exact.h_vec) <= 0.05)

    def test_reproducible(self):
        a = chow_mc(majority3, 3, 0.1, 0.1, seed=3)
        b = chow_mc(majority3, 3, 0.1, 0.1, seed=3)
        assert a.h_empty == b.h_empty
        assert np.array_equal(a.h_vec, b.h_vec)
        assert a.samples == b.samples

    def test_parseval_slack(self, rng):
        eps = 0.05
        for _ in range(5):
            n = int(rng.integers(2, 8))
            est = chow_mc(random_ltf(rng, n).handle(), n, eps, 0.01, seed=int(rng.integers(1 << 30)))
            total = est.h_empty**2 + float(np.sum(est.h_vec**2))
            assert total <= 1.0 + n * eps * (2.0 + eps)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            chow_mc(majority3, 3, -0.1, 0.1, seed=0)
        with pytest.raises(ValueError):
            chow_mc(majority3, 3, 0.1, 1.5, seed=0)
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError):
                chow_mc(majority3, 3, eps, 0.1, seed=0)

    def test_sample_cap_refuses_before_drawing(self):
        calls = 0

        def f(X):
            nonlocal calls
            calls += 1
            return majority3(X)

        assert mc_sample_count(3, 1e-9, 0.01) > ROW_CAP == 1 << 22
        # Below about 1e-162 epsilon**2 underflows; the count is then infinite.
        assert mc_sample_count(3, 1e-200, 0.01) == math.inf
        # Above about 1e154 it overflows; one sample meets the bound, as it does at 7.
        assert mc_sample_count(3, 1e300, 0.01) == mc_sample_count(3, 7.0, 0.01) == 1
        for eps in (1e-9, 1e-150, 1e-160, 1e-200, 5e-324):
            with pytest.raises(CapacityError) as exc:
                chow_mc(f, 3, eps, 0.01, seed=0)
            assert len(str(exc.value)) < 100
            with pytest.raises(CapacityError):
                MonteCarloChow(epsilon=eps, delta=0.01, seed=0).estimate(f, 3)
        assert calls == 0

    def test_bounded_chunks_replay_one_draw(self):
        largest = 0

        def f(X):  # OR-like LTF: h_empty = 0.5, h_vec = (0.5, 0.5)
            nonlocal largest
            largest = max(largest, X.shape[0])
            return np.where(X[:, 0] + 0.5 * X[:, 1] + 0.75 >= 0.0, 1.0, -1.0)

        m = mc_sample_count(2, 0.005, 0.01)
        est = chow_mc(f, 2, 0.005, 0.01, np.random.SeedSequence(entropy=9, spawn_key=(4,)))
        assert m > 1 << 16 and est.samples == m
        assert largest <= (1 << 14) // 2
        # Reference: every sample from one draw of the same stream.
        rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(4,)))
        X = (1.0 - 2.0 * rng.integers(0, 2, size=(m, 2))).astype(np.float64)
        fx = f(X)
        assert est.h_empty == float(fx.mean())
        np.testing.assert_array_equal(est.h_vec, (fx @ X) / m)

    def test_odd_width_chunks_replay_one_draw(self):
        # n = 17, an odd width: each chunk is an even number of rows (962, one
        # fewer than fit in 2^14 cells), so its cells fill whole 64-bit words.
        n, rows = 17, []
        f = random_ltf(np.random.default_rng(5), n).handle()

        def g(X):
            rows.append(X.shape[0])
            return f(X)

        est = chow_mc(g, n, 0.02, 0.01, seed=21)
        m = mc_sample_count(n, 0.02, 0.01)
        assert est.samples == m == sum(rows) and len(rows) >= 5
        assert max(rows) <= (1 << 14) // n
        rng = np.random.default_rng(21)
        X = 1.0 - 2.0 * rng.integers(0, 2, size=(m, n))
        fx = f(X)
        assert est.h_empty == float(fx.sum()) / m
        np.testing.assert_array_equal(est.h_vec, (fx @ X) / m)

    @pytest.mark.parametrize("n, epsilon, delta", [(3, 0.013, 0.01), (8193, 1.0, 0.5)])
    def test_chunks_are_whole_words_and_replay_one_draw(self, n, epsilon, delta):
        # n = 3 with an odd sample count: the last chunk ends inside a word.
        # n = 8193 > 2^13: two rows, over 2^14 cells, make a chunk.
        m = mc_sample_count(n, epsilon, delta)
        f, rows = random_ltf(np.random.default_rng(7), n).handle(), []

        def g(X):
            rows.append(X.shape[0])
            return f(X)

        est = chow_mc(g, n, epsilon, delta, seed=13)
        assert est.samples == m == sum(rows) and len(rows) >= 3
        assert all(r % 2 == 0 for r in rows[:-1]) and max(rows) == max(2, (1 << 14) // n // 2 * 2)
        assert (m * n % 2 == 1) == (n == 3)
        rng = np.random.default_rng(13)
        X = 1.0 - 2.0 * rng.integers(0, 2, size=(m, n))
        fx = f(X)
        assert est.h_empty == float(fx.sum()) / m
        np.testing.assert_array_equal(est.h_vec, (fx @ X) / m)

    def test_peak_memory_of_one_estimate(self):
        n = 32
        f = random_ltf(np.random.default_rng(6), n).handle()
        chow_mc(f, n, 0.1, 0.01, seed=0)
        tracemalloc.start()
        try:
            est = chow_mc(f, n, 0.005, 0.01, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.samples == 175897
        assert peak < 1 << 20


class TestInfluence:
    def test_dictator_relevant(self):
        assert influence(dictator(0), 0, 2) == 1.0

    def test_dictator_irrelevant(self):
        assert influence(dictator(0), 1, 2) == 0.0

    def test_majority3(self):
        assert influence(majority3, 0, 3) == 0.5

    def test_equals_abs_chow_for_ltfs(self, rng):
        # Sign functions are unate, so each influence is |h_i|.
        for _ in range(20):
            n = int(rng.integers(2, 10))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            for i in range(n):
                assert influence(nrn.handle(), i, n) == pytest.approx(abs(est.h_vec[i]), abs=1e-12)


def plancherel_inner(f, g, n):
    """E_x f(x)g(x) by enumeration of the cube: the function side of the Plancherel
    identity, which chow_all's coefficients give as sum_S f^(S) g^(S)."""

    def dot(X):
        return np.asarray(f(X), dtype=np.float64) @ np.asarray(g(X), dtype=np.float64)

    return float(fourier.cube_mean(dot, n))


class TestPlancherel:
    def test_self_inner_is_one(self):
        assert plancherel_inner(majority3, majority3, 3) == 1.0

    def test_majority_vs_dictator(self):
        assert plancherel_inner(majority3, dictator(0), 3) == 0.5

    def test_constants(self):
        assert plancherel_inner(constant(1.0), constant(-1.0), 3) == -1.0

    def test_matches_coefficient_sum(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = random_ltf(rng, n).handle()
            g = random_ltf(rng, n).handle()
            lhs = plancherel_inner(f, g, n)
            rhs = float(chow_all(f, n) @ chow_all(g, n))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestParseval:
    def test_random_boolean_functions(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            table = rng.choice([-1.0, 1.0], size=1 << n)

            def f(X, table=table, n=n):
                bits = (np.asarray(X) < 0).astype(np.int64)
                idx = (bits << np.arange(n, dtype=np.int64)).sum(axis=1)
                return table[idx]

            assert float(np.sum(chow_all(f, n) ** 2)) == pytest.approx(1.0, abs=1e-12)

    def test_random_ltfs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            f = random_ltf(rng, n).handle()
            assert float(np.sum(chow_all(f, n) ** 2)) == pytest.approx(1.0, abs=1e-12)


def chow_all_loop(f, n):
    """Reference: the per-subset sum chow_all replaced, chi_S(x_k) = (-1)^popcount(k & S)."""
    total = 1 << n
    fx = np.concatenate([np.asarray(f(X), dtype=np.float64) for X in enumerate_cube(n)])
    idx = np.arange(total, dtype=np.int64)
    coeffs = np.empty(total)
    for s in range(total):
        odd = np.zeros(total, dtype=np.int64)
        for b in range(n):
            odd ^= ((idx & s) >> b) & 1
        coeffs[s] = float(fx @ (1.0 - 2.0 * odd)) / total
    return coeffs


class TestChowAll:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_subset_loop(self, rng, n):
        table = rng.choice([-1.0, 1.0], size=1 << n)

        def boolean(X):
            bits = (np.asarray(X) < 0).astype(np.int64)
            return table[(bits << np.arange(n, dtype=np.int64)).sum(axis=1)]

        for f in (boolean, random_ltf(rng, n).handle(), majority3):
            np.testing.assert_array_equal(chow_all(f, n), chow_all_loop(f, n))
        w, b = rng.normal(size=n), rng.normal()
        real = lambda X: np.tanh(X @ w + b)
        np.testing.assert_allclose(chow_all(real, n), chow_all_loop(real, n), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_in_place_passes_give_the_stacked_passes_bits(self, rng, n):
        # Each in-place pass makes the same two float operations as a pass that
        # stacks a new table of sums and differences, so real-valued handles agree bit for bit.
        w, b = rng.normal(size=n), rng.normal()
        for real in (lambda X: np.tanh(X @ w + b), lambda X: 1.0 / (1.0 + np.exp(-(X @ w) - b))):
            c = np.concatenate([real(X) for X in enumerate_cube(n)])
            for j in range(n):
                c = c.reshape(-1, 2, 1 << j)
                c = np.stack([c[:, 0] + c[:, 1], c[:, 0] - c[:, 1]], axis=1)
            assert chow_all(real, n).tobytes() == (c.reshape(-1) / float(1 << n)).tobytes()

    def test_one_table_and_a_half(self):
        # At n = 20 the table is 8 MB; three tables at once took 24 MB.
        w = np.random.default_rng(4).normal(size=20)
        tracemalloc.start()
        try:
            chow_all(lambda X: np.tanh(X @ w + 0.25), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 << 20

    def test_cap(self, monkeypatch):
        # The row cap, 2^22, refuses n = 23 before any row is built; n = 17 is answered.
        monkeypatch.setattr(fourier, "cube_chunk", lambda *a: pytest.fail("a row was built"))
        with pytest.raises(CapacityError, match="8388608 rows, over the cap of 4194304"):
            chow_all(majority3, 23)
        monkeypatch.undo()
        # Majority of x_0, x_1, x_2 is (x_0 + x_1 + x_2 - x_0 x_1 x_2) / 2.
        c = chow_all(lambda X: majority3(X[:, :3]), 17)
        np.testing.assert_array_equal(np.flatnonzero(c), [0b001, 0b010, 0b100, 0b111])
        np.testing.assert_array_equal(c[[0b001, 0b010, 0b100, 0b111]], [0.5, 0.5, 0.5, -0.5])


class TestChowEstimate:
    @pytest.mark.parametrize(
        "h_empty, h_vec", [(math.nan, [0.5, 0.5]), (0.0, [0.5, math.nan])], ids=["h_empty", "h_vec"]
    )
    def test_non_finite_rejected(self, h_empty, h_vec):
        with pytest.raises(ValueError):
            ChowEstimate(2, h_empty, np.array(h_vec), "mc", epsilon=0.1, delta=0.1, samples=10)


@pytest.mark.parametrize("refused, error, match", [
    (lambda: ChowEstimate(3, 0.0, np.zeros(2), "exact"), DimensionError, r"h_vec has shape \(2,\), expected \(3,\)"),
    (lambda: ChowEstimate(2, 0.0, np.zeros(2), "sampled"), ValueError, "unknown mode 'sampled'"),
    (lambda: ChowEstimate(2, 0.0, np.zeros(2), "exact", epsilon=0.1), ValueError, "exact mode implies epsilon=0"),
    (lambda: influence(majority3, 3, 3), DimensionError, "index 3 out of range for dimension 3"),
], ids=["chow-h_vec-length", "chow-unknown-mode", "chow-exact-with-epsilon", "influence-index"])
def test_refusals(refused, error, match):
    with pytest.raises(error, match=match):
        refused()


class TestChowSources:
    def test_exact_source(self):
        est = ExactChow().estimate(majority3, 3)
        assert est.mode == "exact"
        np.testing.assert_allclose(est.h_vec, [0.5, 0.5, 0.5])

    def test_mc_source_key_streams(self):
        src = MonteCarloChow(epsilon=0.1, delta=0.1, seed=5)
        a1 = src.estimate(majority3, 3, key=0)
        a2 = src.estimate(majority3, 3, key=0)
        b = src.estimate(majority3, 3, key=1)
        assert np.array_equal(a1.h_vec, a2.h_vec)
        assert not np.array_equal(a1.h_vec, b.h_vec)


def test_cube_chunk_canonical_order():
    X = cube_chunk(2, 0, 4)
    np.testing.assert_array_equal(X, [[1, 1], [-1, 1], [1, -1], [-1, -1]])


def rows_by_bits(n, start, stop):
    """Reference: row k of the canonical order, one row at a time, x_j = +1
    iff bit j of k is 0."""
    return np.array([[-1.0 if k >> j & 1 else 1.0 for j in range(n)] for k in range(start, stop)])


class TestCubeChunk:
    @pytest.mark.parametrize("n", [1, 5, 16, 17, 18])
    def test_rows_follow_the_bit_definition(self, n):
        total = 1 << n
        spans = [(0, min(total, 1024)), (1, 2), (max(0, total - 5), total)]
        if n > 16:  # spans that cross 2^16 and 2^(n-1)
            spans += [(65530, 65542), (total // 2 - 3, total // 2 + 3)]
        # enumerate_cube's chunks: as many rows as fit in 2^14 cells, the last one the rest.
        sizes, start = [], 0
        for X in enumerate_cube(n):
            sizes.append(len(X))
            np.testing.assert_array_equal(X[0], rows_by_bits(n, start, start + 1)[0])
            start += len(X)
            np.testing.assert_array_equal(X[-1], rows_by_bits(n, start - 1, start)[0])
        step = (1 << 14) // n
        full, rest = divmod(total, step)
        assert sizes == [step] * full + ([rest] if rest else [])
        for start, stop in spans:
            X = cube_chunk(n, start, stop)
            assert X.dtype == np.float64 and X.flags.c_contiguous
            np.testing.assert_array_equal(X, rows_by_bits(n, start, stop))

    def test_enumeration_memory_is_bounded(self):
        # Chunks of 2^14 cells; the parent's 2^16-row chunks peaked at 30.6 MB here.
        w = np.random.default_rng(3).normal(size=20)
        tracemalloc.start()
        try:
            chow_exact(lambda X: np.tanh(X @ w), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sweeps_at_n17_equal_reference_sums(self, rng):
        n, size = 17, float(1 << 17)
        X = cube_chunk(n, 0, 1 << n)
        # Integer weights and a half-integer threshold keep every sum exact.
        a = LinearThresholdNeuron(rng.integers(-3, 4, size=n).astype(np.float64), 0.5)
        b = LinearThresholdNeuron(rng.integers(-3, 4, size=n).astype(np.float64), -1.5)
        f, g = a.handle(), b.handle()
        fx = f(X)
        est = chow_exact(f, n)
        assert est.h_empty == fx.sum() / size
        np.testing.assert_array_equal(est.h_vec, (fx @ X) / size)
        flip = np.where(np.arange(n) == 3, -1.0, 1.0)
        assert influence(f, 3, n) == np.count_nonzero(fx != f(X * flip)) / size
        p = PNorm(2.0)
        expected = float(np.abs(X @ a.w - a.theta).sum() / size) / norm(a.w, p.q)
        assert robustness_exact(a, p) == expected
        assert disagreement_exact(f, g, n) == np.count_nonzero(fx != g(X)) / size

    def test_handle_writing_into_its_input_does_not_change_the_next_estimate(self):
        def vandal(X):
            X[:, 0] = 1.0
            return X[:, 0]

        chow_exact(vandal, 3)
        est = chow_exact(dictator(0), 3)
        assert est.h_empty == 0.0
        np.testing.assert_array_equal(est.h_vec, [1.0, 0.0, 0.0])
