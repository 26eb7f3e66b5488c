import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fourierstab import attack
from fourierstab.attack import (
    _CHUNK_CELLS,
    _CHUNK_VARIANTS,
    AdvTrainConfig,
    AttackBudget,
    _impacts,
    adversarial_train,
    attack_curve,
    greedy_flips,
    jsma,
    jsma_maxloss_batch,
    robust_accuracy,
)
from fourierstab.errors import DimensionError
from fourierstab.network import (
    Activation,
    BinaryMlp,
    LabeledDataset,
    TrainConfig,
    fresh_mask,
    train_sgd,
)


def ltf_net(w, theta=0.0):
    w = np.asarray(w, dtype=np.float64)
    return BinaryMlp(w[None, :], np.array([-theta]), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1))


MAJ3_NET = ltf_net([1.0, 1.0, 1.0])


def random_mlp(rng, n, t=5, act=Activation.TANH):
    return BinaryMlp(
        rng.normal(size=(t, n)), rng.normal(scale=0.5, size=t), act, rng.normal(size=t), 0.1, fresh_mask(t)
    )


def greedy_reference(net, x, y, k, stop_on_change=True):
    """Scalar greedy loop on one row: (flips, changed) as the batched engine
    defines them, with every single-flip loss computed on its own."""
    x = np.array(x, dtype=np.float64)
    clean = float(net.predict(x[None, :])[0])
    loss = lambda z: float(np.logaddexp(0.0, -y * net.margin(z[None, :]))[0])
    flips, changed = [], 0
    for r in range(min(k, len(x))):
        base, impacts = loss(x), np.empty(len(x))
        for i in range(len(x)):
            z = x.copy()
            z[i] = -z[i]
            impacts[i] = loss(z) - base
        impacts[flips] = -np.inf
        flips.append(int(np.argmax(impacts)))
        x[flips[-1]] = -x[flips[-1]]
        if not changed and float(net.predict(x[None, :])[0]) != clean:
            changed = r + 1
            if stop_on_change:
                break
    return flips, changed


def impacts_reference(net, X, y):
    """Single-flip loss increases with every flipped row pushed through the
    whole network: the construction the rank-1 update replaces."""
    m, n = X.shape
    loss = lambda Z, labels: np.logaddexp(0.0, -labels * net.margin(Z))
    variants = np.repeat(X, n, axis=0)
    flat, cols = np.arange(m * n), np.tile(np.arange(n), m)
    variants[flat, cols] = -variants[flat, cols]
    return (loss(variants, np.repeat(y, n)) - np.repeat(loss(X, y), n)).reshape(m, n)


def min_flips_bruteforce(net, x, y, max_flips):
    """Smallest number of coordinate flips that changes the model's own
    prediction, by exhausting all subsets up to max_flips; None if impossible."""
    orig = float(net.predict(x[None, :])[0])
    n = len(x)
    for k in range(1, max_flips + 1):
        for subset in itertools.combinations(range(n), k):
            z = x.copy()
            z[list(subset)] = -z[list(subset)]
            if float(net.predict(z[None, :])[0]) != orig:
                return k
    return None


class TestBudget:
    def test_flip_conversion(self):
        assert AttackBudget(0.0).max_flips == 0
        assert AttackBudget(1.9).max_flips == 0
        assert AttackBudget(2.0).max_flips == 1
        assert AttackBudget(5.0).max_flips == 2
        assert AttackBudget(12.0).max_flips == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AttackBudget(-1.0)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            AttackBudget(eps)


class TestImpacts:
    @pytest.mark.parametrize("act", list(Activation))
    @pytest.mark.parametrize("n, t", [(1, 1), (3, 7), (16, 5), (33, 64)])
    def test_matches_flipped_forward(self, rng, act, n, t):
        net = random_mlp(rng, n, t=t, act=act)
        X = rng.choice([-1.0, 1.0], size=(40, n))
        y = rng.choice([-1.0, 1.0], size=40)
        np.testing.assert_allclose(_impacts(net, X, y), impacts_reference(net, X, y), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.LOGISTIC])
    def test_integer_weights_tie_bit_for_bit(self, rng, act):
        # Integer weights make every pre-activation exact, so each variant
        # reaches the activation with the same value a forward pass gives.
        W1 = rng.integers(-3, 4, size=(6, 9)).astype(np.float64)
        net = BinaryMlp(W1, rng.integers(-2, 3, size=6), act, rng.integers(-2, 3, size=6), 1.0, fresh_mask(6))
        X = rng.choice([-1.0, 1.0], size=(30, 9))
        y = rng.choice([-1.0, 1.0], size=30)
        np.testing.assert_array_equal(_impacts(net, X, y), impacts_reference(net, X, y))
        # Every coordinate plays the same part: all flips tie exactly, and
        # greedy takes them in index order.
        sym = BinaryMlp(np.array([[1.0] * 4, [2.0] * 4, [-1.0] * 4]), np.array([1.0, 0.0, -2.0]), act,
                        np.array([2.0, 1.0, -1.0]), 0.0, fresh_mask(3))
        x = np.ones((1, 4))
        impacts = _impacts(sym, x, np.ones(1))
        np.testing.assert_array_equal(impacts, impacts_reference(sym, x, np.ones(1)))
        assert np.all(impacts == impacts[0, 0])
        order, _ = greedy_flips(sym, x, np.ones(1), 4)
        assert list(order[0]) == [0, 1, 2, 3]

    @pytest.mark.parametrize("act", [Activation.LOGISTIC, Activation.TANH, Activation.RELU])
    def test_peak_memory_is_one_variant_buffer(self, rng, act):
        m, n, t = 64, 64, 128
        net = random_mlp(rng, n, t=t, act=act)
        X = rng.choice([-1.0, 1.0], size=(m, n))
        y = rng.choice([-1.0, 1.0], size=m)
        _impacts(net, X[:2], y[:2])
        tracemalloc.start()
        try:
            _impacts(net, X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * n * t * 8

    def test_non_pm1_input_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            greedy_flips(MAJ3_NET, np.array([[1.0, 0.5, 1.0]]), np.ones(1), 1)
        with pytest.raises(ValueError, match="exactly"):
            greedy_flips(MAJ3_NET, np.array([[1.0, 1.0, np.nan]]), np.ones(1), 1)


def row_impacts(net, x, y):
    """Loss increase from flipping each coordinate of the one row x with label y,
    by _impacts, the code every command's attack runs."""
    return _impacts(net, np.asarray(x, dtype=np.float64)[None, :], np.array([y]))[0]


class TestFlipImpact:
    def test_majority_symmetric_point(self):
        # With a graded activation every adversarial flip raises the loss.
        net = BinaryMlp(
            np.ones((1, 3)), np.zeros(1), Activation.TANH, np.ones(1), 0.0, fresh_mask(1)
        )
        impacts = row_impacts(net, np.array([1.0, 1.0, 1.0]), 1.0)
        assert impacts[0] == pytest.approx(impacts[1], abs=1e-12)
        assert impacts[1] == pytest.approx(impacts[2], abs=1e-12)
        assert np.all(impacts > 0.0)

    def test_helpful_flip_negative_impact(self):
        # x = (-1, 1, 1) with y = +1: flipping the -1 reduces the loss.
        net = BinaryMlp(
            np.ones((1, 3)), np.zeros(1), Activation.TANH, np.ones(1), 0.0, fresh_mask(1)
        )
        impacts = row_impacts(net, np.array([-1.0, 1.0, 1.0]), 1.0)
        assert impacts[0] < 0.0
        assert impacts[1] > 0.0 and impacts[2] > 0.0

    def test_sign_unit_single_flip_cannot_move_unanimous_majority(self):
        impacts = row_impacts(MAJ3_NET, np.array([1.0, 1.0, 1.0]), 1.0)
        np.testing.assert_array_equal(impacts, np.zeros(3))

    def test_matches_explicit_loss_difference(self, rng):
        w = rng.normal(size=5)
        net = ltf_net(w, theta=0.3)
        x = rng.choice([-1.0, 1.0], size=5)
        y = 1.0
        impacts = row_impacts(net, x, y)

        # Oracle via direct margin formula of the one-unit sign network:
        # hidden = sign(x.w - theta), score = hidden, loss = log1p(exp(-y*score)).
        def full_loss(z):
            h = 1.0 if float(z @ w) - 0.3 >= 0 else -1.0
            return math.log1p(math.exp(-y * h))

        base = full_loss(x)
        for i in range(5):
            z = x.copy()
            z[i] = -z[i]
            assert impacts[i] == pytest.approx(full_loss(z) - base, abs=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            greedy_flips(MAJ3_NET, np.array([[1.0, 1.0]]), np.ones(1), 1)


class TestJsma:
    def test_majority_needs_two_flips(self):
        x = np.array([1.0, 1.0, 1.0])
        assert not jsma(MAJ3_NET, x, 1.0, AttackBudget(2.0)).success
        out = jsma(MAJ3_NET, x, 1.0, AttackBudget(4.0))
        assert out.success
        assert len(out.flips) == 2
        assert out.l1_cost == 4.0
        assert out.final_label == -1.0

    def test_zero_budget_never_succeeds(self, rng):
        net = ltf_net(rng.normal(size=6))
        x = rng.choice([-1.0, 1.0], size=6)
        out = jsma(net, x, 1.0, AttackBudget(0.0))
        assert not out.success and out.flips == () and out.l1_cost == 0.0

    def test_no_coordinate_reflipped(self, rng):
        for _ in range(20):
            net = ltf_net(rng.normal(size=8), theta=float(rng.normal()))
            x = rng.choice([-1.0, 1.0], size=8)
            out = jsma(net, x, float(rng.choice([-1.0, 1.0])), AttackBudget(16.0))
            assert len(set(out.flips)) == len(out.flips)

    def test_success_monotone_in_budget(self, rng):
        for _ in range(20):
            net = ltf_net(rng.normal(size=7), theta=float(rng.normal() * 0.5))
            x = rng.choice([-1.0, 1.0], size=7)
            y = float(net.predict(x[None, :])[0])
            succeeded = False
            for eps in [0.0, 2.0, 4.0, 6.0, 8.0, 14.0]:
                out = jsma(net, x, y, AttackBudget(eps))
                assert out.success or not succeeded
                succeeded = succeeded or out.success

    def test_sound_against_bruteforce(self, rng):
        """Greedy success implies a flip set of that size exists; greedy never
        succeeds where exhaustive search says it is impossible."""
        gaps = 0
        trials = 0
        for _ in range(40):
            n = int(rng.integers(4, 9))
            net = ltf_net(rng.normal(size=n), theta=float(rng.normal() * 0.5))
            x = rng.choice([-1.0, 1.0], size=n)
            y = float(net.predict(x[None, :])[0])
            for eps in [2.0, 4.0, 6.0]:
                budget = AttackBudget(eps)
                exact = min_flips_bruteforce(net, x, y, budget.max_flips)
                out = jsma(net, x, y, budget)
                trials += 1
                if out.success:
                    assert exact is not None
                    assert len(out.flips) >= exact
                elif exact is not None:
                    gaps += 1  # greedy suboptimality; reported, not asserted
        assert gaps <= trials  # always true; the gap rate is informational

    def test_budget_beyond_n_never_reflips(self):
        # sign(x1 + x2 + x3 + 10) is constant: every flip has zero impact and
        # no flip changes the label, so the attack runs out of coordinates.
        net = ltf_net([1.0, 1.0, 1.0], theta=-10.0)
        out = jsma(net, np.array([1.0, 1.0, 1.0]), 1.0, AttackBudget(10.0))
        assert not out.success
        assert out.flips == (0, 1, 2)
        assert out.l1_cost == 6.0 <= 2 * net.n

    def test_tie_break_lowest_index(self):
        out = jsma(MAJ3_NET, np.array([1.0, 1.0, 1.0]), 1.0, AttackBudget(4.0))
        assert out.flips == (0, 1)


class TestGreedyFlips:
    @pytest.mark.parametrize("given", [True, False])  # clean given, or None
    def test_matches_scalar_reference_across_chunks(self, rng, given):
        n = 8
        m = _CHUNK_VARIANTS // n + 37  # more rows than one chunk holds
        for act in (Activation.TANH, Activation.LOGISTIC, Activation.SIGN, Activation.RELU):
            net = random_mlp(rng, n, act=act)
            X = rng.choice([-1.0, 1.0], size=(m, n))
            y = rng.choice([-1.0, 1.0], size=m)
            order, changed = greedy_flips(net, X, y, 5, net.predict(X) if given else None)
            assert order.shape == (m, 5)
            for i in range(m):
                # Without clean every row takes the reference's full path.
                flips, first = greedy_reference(net, X[i], y[i], 5, stop_on_change=given)
                assert list(order[i][: len(flips)]) == flips
                assert np.all(order[i][len(flips) :] == -1)
                assert changed[i] == (first if given else 0)

    def test_rounds_capped_at_n(self, rng):
        net = random_mlp(rng, 4)
        order, _ = greedy_flips(net, rng.choice([-1.0, 1.0], size=(6, 4)), np.ones(6), 9)
        assert order.shape == (6, 4)
        assert all(sorted(row) == [0, 1, 2, 3] for row in order)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            greedy_flips(MAJ3_NET, np.ones((2, 4)), np.ones(2), 1)

    @pytest.mark.parametrize("labels", [np.ones(1), np.ones(3), np.ones((2, 1))])
    def test_label_shape_checked(self, labels):
        with pytest.raises(DimensionError, match="y has shape"):
            greedy_flips(MAJ3_NET, np.ones((2, 3)), labels, 1)

    @pytest.mark.parametrize("clean", [np.ones(1), np.ones(3), np.ones((2, 1))])
    def test_clean_shape_checked(self, clean):
        with pytest.raises(DimensionError, match="clean has shape"):
            greedy_flips(MAJ3_NET, np.ones((2, 3)), np.ones(2), 1, clean)

    def test_forward_passes_outside_impacts(self, rng, monkeypatch):
        """Every prediction goes through BinaryMlp.hidden and _impacts does not:
        max-loss training predicts nothing, jsma once plus once per round."""
        calls = []
        hidden = BinaryMlp.hidden
        monkeypatch.setattr(BinaryMlp, "hidden", lambda net, X: calls.append(len(X)) or hidden(net, X))
        net = random_mlp(rng, 8)
        X = rng.choice([-1.0, 1.0], size=(40, 8))
        y = rng.choice([-1.0, 1.0], size=40)
        for k in (0, 3, 8):
            jsma_maxloss_batch(net, X, y, k)
        assert calls == []
        rounds = []
        for x, label in zip(X, y):
            calls.clear()
            out = jsma(net, x, label, AttackBudget(8.0))
            assert len(calls) == 1 + len(out.flips)
            rounds.append(len(out.flips))
        assert 4 in rounds and min(rounds) < 4  # rows that stop early and rows that use the budget


class TestParallelBlocks:
    """greedy_flips' row blocks on several threads; attack._WORKERS sets how many."""

    N = 8
    M = 4 * (_CHUNK_VARIANTS // N) + 37  # five blocks

    def problem(self, rng):
        net = random_mlp(rng, self.N)
        X = rng.choice([-1.0, 1.0], size=(self.M, self.N))
        return net, X, rng.choice([-1.0, 1.0], size=self.M), net.predict(X)

    def threads_of_impacts(self, monkeypatch):
        """Patch _impacts to record (thread, np.geterr()) of every call."""
        seen, impacts = [], attack._impacts
        monkeypatch.setattr(attack, "_impacts", lambda *a: seen.append((threading.current_thread(), np.geterr())) or impacts(*a))
        return seen

    @pytest.mark.parametrize("workers", [3, 16])  # 16: more threads than CPUs
    def test_outputs_do_not_depend_on_worker_count(self, rng, monkeypatch, workers):
        net, X, y, clean = self.problem(rng)
        seen = self.threads_of_impacts(monkeypatch)
        monkeypatch.setattr(attack, "_WORKERS", 1)
        expected = [greedy_flips(net, X, y, 6, c) for c in (clean, None)]
        serial_calls = len(seen)
        seen.clear()
        monkeypatch.setattr(attack, "_WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [greedy_flips(net, X, y, 6, c) for c in (clean, None)]
        finally:
            sys.setswitchinterval(interval)
        started = min(workers, 5) - 1  # threads a call starts besides the caller's
        assert len({thread for thread, _ in seen}) == 1 + 2 * started
        assert len(seen) == serial_calls  # each block runs once
        for (order, changed), (want_order, want_changed) in zip(got, expected):
            assert order.tobytes() == want_order.tobytes()
            assert changed.tobytes() == want_changed.tobytes()

    def test_every_block_sees_the_callers_errstate(self, rng, monkeypatch):
        net, X, y, clean = self.problem(rng)
        monkeypatch.setattr(attack, "_WORKERS", 3)
        seen = self.threads_of_impacts(monkeypatch)
        with np.errstate(all="raise"):
            caller = np.geterr()
            greedy_flips(net, X, y, 3, clean)
        assert len({thread for thread, _ in seen}) == 3
        assert all(state == caller for _, state in seen)

    def test_exception_in_a_worker_reaches_the_caller(self, rng, monkeypatch):
        net, X, y, clean = self.problem(rng)
        monkeypatch.setattr(attack, "_WORKERS", 3)
        impacts = attack._impacts

        def fail_off_the_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ArithmeticError("in a worker")
            return impacts(*args)

        monkeypatch.setattr(attack, "_impacts", fail_off_the_main_thread)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="in a worker"):
            greedy_flips(net, X, y, 3, clean)
        assert threading.active_count() == before

    def test_one_block_starts_no_thread(self, rng, monkeypatch):
        net = random_mlp(rng, self.N)
        X = rng.choice([-1.0, 1.0], size=(_CHUNK_VARIANTS // self.N, self.N))
        monkeypatch.setattr(attack, "_WORKERS", 3)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        greedy_flips(net, X, np.ones(len(X)), 3)
        assert started == []

    def test_peak_memory_is_one_variant_buffer_per_worker(self, rng, monkeypatch):
        n, t, workers = 64, 128, 3
        step = _CHUNK_VARIANTS // n
        net = random_mlp(rng, n, t=t)
        X = rng.choice([-1.0, 1.0], size=(4 * step, n))
        y = rng.choice([-1.0, 1.0], size=len(X))
        monkeypatch.setattr(attack, "_WORKERS", workers)
        greedy_flips(net, X[:2], y[:2], 1)
        tracemalloc.start()
        try:
            greedy_flips(net, X, y, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * 1.25 * step * n * t * 8

    def test_a_wide_model_gets_fewer_rows_per_block(self, rng, monkeypatch):
        # At t = 4096 a block of _CHUNK_VARIANTS // n rows would hold a 128 MiB variant
        # buffer, so it is cut to _CHUNK_CELLS cells. Its (rows, t) pre-activations add 1/n.
        n, t = 8, 4096
        net = random_mlp(rng, n, t=t)
        X = rng.choice([-1.0, 1.0], size=(_CHUNK_VARIANTS // n, n))
        y = rng.choice([-1.0, 1.0], size=len(X))
        monkeypatch.setattr(attack, "_WORKERS", 1)
        greedy_flips(net, X[:2], y[:2], 1)
        tracemalloc.start()
        try:
            greedy_flips(net, X, y, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * _CHUNK_CELLS * 8


class TestJsmaMaxloss:
    def test_flips_exactly_k(self, rng):
        net = ltf_net(rng.normal(size=6))
        x = rng.choice([-1.0, 1.0], size=6)
        for k in range(0, 7):
            z = jsma_maxloss_batch(net, x[None, :], [1.0], k)[0]
            assert int(np.sum(z != x)) == min(k, 6)

    def test_k_beyond_n_caps(self, rng):
        net = ltf_net(rng.normal(size=4))
        x = rng.choice([-1.0, 1.0], size=4)
        z = jsma_maxloss_batch(net, x[None, :], [1.0], 10)[0]
        np.testing.assert_array_equal(z, -x)

    def test_increases_loss_on_confident_point(self):
        x = np.array([1.0, 1.0, 1.0])
        z = jsma_maxloss_batch(MAJ3_NET, x[None, :], [1.0], 2)[0]
        assert float(MAJ3_NET.predict(z[None, :])[0]) == -1.0

    def test_batch_matches_scalar(self, rng):
        net = ltf_net(rng.normal(size=8), theta=0.2)
        X = rng.choice([-1.0, 1.0], size=(32, 8))
        y = rng.choice([-1.0, 1.0], size=32)
        for k in [0, 1, 3, 8]:
            Z = jsma_maxloss_batch(net, X, y, k)
            for i in range(32):
                flips, _ = greedy_reference(net, X[i], y[i], k, stop_on_change=False)
                expected = X[i].copy()
                expected[flips] = -expected[flips]
                np.testing.assert_array_equal(Z[i], expected)


class TestRobustAccuracy:
    def test_zero_budget_equals_clean(self, rng):
        net = ltf_net(rng.normal(size=6))
        X = rng.choice([-1.0, 1.0], size=(50, 6))
        y = rng.choice([-1.0, 1.0], size=50)
        data = LabeledDataset(X, y)
        clean = float(np.mean(net.predict(X) == y))
        assert robust_accuracy(net, data, AttackBudget(0.0)) == clean

    def test_monotone_in_epsilon(self, rng):
        net = ltf_net(rng.normal(size=8))
        X = rng.choice([-1.0, 1.0], size=(40, 8))
        data = LabeledDataset(X, net.predict(X))
        vals = [robust_accuracy(net, data, AttackBudget(e)) for e in [0.0, 2.0, 4.0, 8.0, 16.0]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_misclassified_points_never_robust(self):
        X = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
        data = LabeledDataset(X, np.array([-1.0, -1.0]))  # first label is wrong
        assert robust_accuracy(MAJ3_NET, data, AttackBudget(0.0)) == 0.5

    def test_majority_fully_robust_at_one_flip(self, rng):
        X = rng.choice([-1.0, 1.0], size=(30, 3))
        data = LabeledDataset(X, MAJ3_NET.predict(X))
        # Points with margin 3 survive one flip; unanimous points are 1/4.
        ra = robust_accuracy(MAJ3_NET, data, AttackBudget(2.0))
        unanimous = float(np.mean(np.abs(X.sum(axis=1)) == 3))
        assert ra == pytest.approx(unanimous)


class TestAttackCurve:
    def test_columns_consistent(self, rng):
        net = ltf_net(rng.normal(size=6))
        X = rng.choice([-1.0, 1.0], size=(30, 6))
        data = LabeledDataset(X, net.predict(X))
        curve = attack_curve(net, data, [0.0, 4.0, 12.0])
        assert [row[0] for row in curve] == [0.0, 4.0, 12.0]
        assert all(row[1] == 1.0 for row in curve)  # self-labeled: clean = 1
        for eps, clean, robust, cost in curve:
            if not math.isnan(cost):
                assert 2.0 <= cost <= eps

    def test_matches_reference_run_per_epsilon(self, rng):
        net = random_mlp(rng, 7, t=6)
        X = rng.choice([-1.0, 1.0], size=(60, 7))
        data = LabeledDataset(X, rng.choice([-1.0, 1.0], size=60))
        correct = net.predict(X) == data.y
        assert 0 < correct.sum() < 60
        epsilons = [6.0, 0.0, 3.0, 12.0, 20.0]
        curve = attack_curve(net, data, epsilons)
        for (eps, clean, robust, cost), e in zip(curve, epsilons):
            k = AttackBudget(e).max_flips
            costs = [2.0 * greedy_reference(net, X[i], data.y[i], k)[1] for i in np.flatnonzero(correct)]
            broken = [c for c in costs if c > 0.0]
            assert eps == e and clean == correct.mean()
            assert robust == (len(costs) - len(broken)) / 60
            assert robust == robust_accuracy(net, data, AttackBudget(e))
            if broken:
                assert cost == pytest.approx(np.mean(broken), abs=1e-12)
            else:
                assert math.isnan(cost)


class TestAdversarialTraining:
    def test_zero_epsilon_matches_plain_training(self, rng):
        X = rng.choice([-1.0, 1.0], size=(64, 6))
        y = np.sign(X[:, 0] + X[:, 1] + X[:, 2] + 0.5)
        data = LabeledDataset(X, y)
        cfg = TrainConfig(4, Activation.LOGISTIC, 8, 0.5, 16, seed=5)
        plain = train_sgd(data, cfg)
        adv = adversarial_train(data, cfg, AdvTrainConfig(epochs=8, epsilon_l1=0.0))
        np.testing.assert_array_equal(adv.W1, plain.W1)
        np.testing.assert_array_equal(adv.W2, plain.W2)
        assert adv.b2 == plain.b2

    def test_deterministic(self, rng):
        X = rng.choice([-1.0, 1.0], size=(64, 6))
        y = np.sign(X[:, 0] + X[:, 1] + X[:, 2] + 0.5)
        data = LabeledDataset(X, y)
        cfg = TrainConfig(4, Activation.LOGISTIC, 4, 0.5, 16, seed=5)
        a = adversarial_train(data, cfg, AdvTrainConfig(4, 4.0))
        b = adversarial_train(data, cfg, AdvTrainConfig(4, 4.0))
        np.testing.assert_array_equal(a.W1, b.W1)

    def test_non_finite_epsilon_rejected(self, rng):
        X = rng.choice([-1.0, 1.0], size=(16, 4))
        data = LabeledDataset(X, np.sign(X.sum(axis=1) + 0.5))
        cfg = TrainConfig(2, Activation.LOGISTIC, 1, 0.5, 8, seed=9)
        for eps in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                adversarial_train(data, cfg, AdvTrainConfig(1, eps))

    def test_lineage_records_regime(self, rng):
        X = rng.choice([-1.0, 1.0], size=(32, 4))
        data = LabeledDataset(X, np.sign(X.sum(axis=1) + 0.5))
        cfg = TrainConfig(2, Activation.LOGISTIC, 2, 0.5, 16, seed=9)
        adv = adversarial_train(data, cfg, AdvTrainConfig(2, 4.0))
        assert adv.seed_lineage.startswith("train:seed=9")
        assert "adv:" in adv.seed_lineage
