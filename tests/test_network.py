import math
import re
import string
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import LTF_KINDS, ltf_units
from fourierstab.errors import DegenerateFunctionError, DimensionError, SchemaError
from fourierstab.fourier import _CHUNK_CELLS, ExactChow, cube_chunk, threshold_signs
from fourierstab.network import (
    Activation,
    BinaryMlp,
    LabeledDataset,
    TrainConfig,
    _logistic_loss_grad,
    accuracy,
    first_layer_ltf,
    fresh_mask,
    load_dataset,
    load_model,
    read_document,
    save_dataset,
    save_model,
    stabilize_subset,
    train_sgd,
    write_lines,
)
from fourierstab.neuron import PNorm, norm, robustness_exact, sign_pm1


def small_net(act=Activation.SIGN):
    """Width-2 network: unit 0 = majority-ish, unit 1 = negated dictator."""
    W1 = np.array([[1.0, 1.0, 1.0], [-2.0, 0.0, 0.0]])
    b1 = np.array([0.0, 0.5])
    W2 = np.array([1.0, 0.5])
    return BinaryMlp(W1, b1, act, W2, -0.25, fresh_mask(2))


def random_dataset(rng, m=64, n=8):
    X = rng.choice([-1.0, 1.0], size=(m, n))
    y = np.sign(X[:, 0] + X[:, 1] + X[:, 2] + 0.5)
    return LabeledDataset(X, y)


class TestForward:
    """The forward pass: margin and predict."""

    def test_sign_net_by_hand(self):
        net = small_net()
        # x = (1,1,1): unit0 -> +1, unit1 -> sign(-2+0.5) = -1.
        X = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
        np.testing.assert_allclose(net.margin(X), [1.0 - 0.5 - 0.25, -1.0 + 0.5 - 0.25])
        assert net.predict(X).tolist() == [1.0, -1.0]

    def test_logistic_midpoint(self):
        # Zero weights: logistic hidden outputs 0.5 each; score = b2, and the margin is b2 - 0.5.
        net = BinaryMlp(
            np.zeros((2, 3)), np.zeros(2), Activation.LOGISTIC, np.zeros(2), 0.5, fresh_mask(2)
        )
        x = np.array([[1.0, 1.0, 1.0]])
        assert net.margin(x).tolist() == [0.0]
        assert net.predict(x).tolist() == [1.0]  # margin = 0.5 - 0.5 = 0 -> +1
        net2 = BinaryMlp(
            np.zeros((2, 3)), np.zeros(2), Activation.LOGISTIC, np.zeros(2), 0.49, fresh_mask(2)
        )
        assert net2.predict(x).tolist() == [-1.0]

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            small_net().predict(np.array([[1.0, 1.0]]))

    def test_predict_matches_forward(self, rng):
        # A batch and each of its rows alone get the same labels, the signs of their margins.
        net = small_net(Activation.TANH)
        X = rng.choice([-1.0, 1.0], size=(20, 3))
        labels = net.predict(X)
        assert labels.tolist() == sign_pm1(net.margin(X)).tolist()
        for x, lbl in zip(X, labels):
            assert net.predict(x[None, :]).tolist() == [lbl]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sign_net_output_is_the_exact_sign_of_its_head(self, data):
        # With sign units the head A.W2 + b2 is a sum of +-W2_j and b2; in decimal
        # it ties at 0 on some rows, where BLAS's sign of the float sum may err.
        net = data.draw(one_decimal_sign_nets())
        X = cube_chunk(net.n, 0, 1 << net.n)
        A = [[exact_sign([*(x * w), b]) for w, b in zip(net.W1, net.b1)] for x in X]
        np.testing.assert_array_equal(net.predict(X), [exact_sign([*(a * net.W2), net.b2]) for a in np.array(A)])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sign_net_labels_each_row_alone_as_in_its_batch(self, data):
        net = data.draw(one_decimal_sign_nets())
        X = cube_chunk(net.n, 0, 1 << net.n)
        batch = net.predict(X)
        assert [net.predict(x) for x in X] == [net.predict(x[None])[0] for x in X] == batch.tolist()

    def test_sign_net_predicts_each_layers_threshold_signs(self):
        net = BinaryMlp(np.resize([0.1, 0.2, 0.3, -0.6], (3, 8)), np.array([0.0, 0.1, -0.3]), Activation.SIGN,
                        np.array([0.1, 0.2, -0.3]), 0.0, fresh_mask(3))
        X = cube_chunk(8, 0, 1 << 8)
        first, second = net.predict(X), net.predict(X[:7])
        A = threshold_signs(X, net.W1, -net.b1)
        expected = threshold_signs(A, net.W2[None], np.array([-net.b2]))[:, 0]
        assert first.tobytes() == expected.tobytes() and second.tobytes() == expected[:7].tobytes()


def exact_sign(terms):
    """The sign of the exact sum of float terms, with sign(0) = +1."""
    return 1.0 if sum(map(Fraction, terms)) >= 0 else -1.0


def one_decimal_sign_nets():
    """Sign networks on n <= 8 inputs with one-decimal weights and biases in both layers."""
    tenths = st.integers(-10, 10).map(lambda k: k / 10)

    def nets(n, t):
        vectors = st.lists(tenths, min_size=t * (n + 2) + 1, max_size=t * (n + 2) + 1).map(np.array)
        return vectors.map(lambda v: BinaryMlp(v[: t * n].reshape(t, n), v[t * n : t * n + t], Activation.SIGN,
                                               v[t * n + t : -1], float(v[-1]), fresh_mask(t)))

    return st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(lambda nt: nets(*nt))


class TestBinaryMlp:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["W1", "b1", "W2", "b2"])
    def test_rejects_non_finite_weights(self, field, bad):
        net = small_net()
        value = bad
        if field != "b2":
            value = getattr(net, field).copy()
            value.flat[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            replace(net, **{field: value})

    def test_rejects_weights_whose_forward_pass_can_overflow(self):
        # relu passes a unit's whole reach, ||W1_j||_1 + |b1_j| = 4e200, to the
        # output layer; the bounded activations pass at most 1.
        W1, W2 = np.full((2, 4), 1e200), np.full(2, 1e200)
        for act in (Activation.SIGN, Activation.LOGISTIC, Activation.TANH):
            net = BinaryMlp(W1, np.zeros(2), act, W2, 0.0, fresh_mask(2))
            assert np.all(np.isfinite(net.margin(np.ones((1, 4)))))
        with pytest.raises(ValueError, match="non-finite"):
            BinaryMlp(W1, np.zeros(2), Activation.RELU, W2, 0.0, fresh_mask(2))
        # A unit's reach, or the sum of |W2|, overflows whatever the activation.
        for W1, b1, W2 in ((np.full((2, 4), 1e308), np.ones(2), np.ones(2)),
                           (np.full((2, 4), 1e307), np.full(2, 1.7e308), np.ones(2)),
                           (np.ones((2, 4)), np.ones(2), np.full(2, 1e308))):
            with pytest.raises(ValueError, match="non-finite"):
                BinaryMlp(W1, b1, Activation.TANH, W2, 1.0, fresh_mask(2))


class TestActivation:
    def test_midpoints(self):
        assert Activation.LOGISTIC.midpoint == 0.5
        for a in (Activation.SIGN, Activation.TANH, Activation.RELU):
            assert a.midpoint == 0.0

    def test_derivatives_numeric(self):
        z = np.linspace(-2.0, 2.0, 41) + 0.013  # avoid the relu kink at 0
        eps = 1e-6
        for a in (Activation.LOGISTIC, Activation.TANH, Activation.RELU):
            num = (a.apply(z + eps) - a.apply(z - eps)) / (2 * eps)
            ana = a.derivative(a.apply(z))
            np.testing.assert_allclose(ana, num, atol=1e-6)

    def test_sign_has_no_derivative(self):
        with pytest.raises(ValueError, match="sign activation has no usable derivative"):
            Activation.SIGN.derivative(np.ones(2))

    def test_logistic_saturates_without_warning(self):
        # exp(1000) overflows to inf, and 1 / (1 + inf) is the logistic's rounded value 0;
        # tier-1 turns a RuntimeWarning into an error.
        z = np.array([-1000.0, 0.0, 1000.0])
        np.testing.assert_array_equal(Activation.LOGISTIC.apply(z), [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(_logistic_loss_grad(z, np.ones(3)), [-1.0, -0.5, -0.0])


def apply_reference(act, z):
    """Each activation as one expression, each step a new array."""
    if act is Activation.SIGN:
        return sign_pm1(z)
    if act is Activation.LOGISTIC:
        return 1.0 / (1.0 + np.exp(-z))
    if act is Activation.TANH:
        return np.tanh(z)
    return np.maximum(z, 0.0)


def random_net(rng, act, t, n):
    return BinaryMlp(
        rng.normal(size=(t, n)), rng.normal(size=t), act, rng.normal(size=t), 0.1, fresh_mask(t)
    )


class TestHidden:
    @pytest.mark.parametrize("act", list(Activation))
    def test_matches_reference_expression(self, rng, act):
        net = random_net(rng, act, 40, 24)
        # Scaled so logistic and tanh also meet saturated and overflowing inputs.
        X = rng.choice([-1.0, 1.0], size=(300, 24)) * 200.0
        X[:5] = rng.choice([-1.0, 1.0], size=(5, 24))
        with np.errstate(over="ignore"):
            for x in (X, X[7]):  # a batch, and one input (a vector-matrix product)
                np.testing.assert_array_equal(
                    net.hidden(x), apply_reference(act, x @ net.W1.T + net.b1)
                )
            assert net.hidden(X[7]).shape == (40,)

    @pytest.mark.parametrize("act", list(Activation))
    def test_apply_without_out_leaves_input(self, rng, act):
        z = rng.normal(size=(50, 7)) * 5.0
        before = z.copy()
        np.testing.assert_array_equal(act.apply(z), apply_reference(act, before))
        np.testing.assert_array_equal(z, before)

    @pytest.mark.parametrize("act", [Activation.LOGISTIC, Activation.TANH, Activation.RELU])
    def test_one_buffer_per_forward_pass(self, rng, act):
        m, t, n = 4096, 128, 64
        net = random_net(rng, act, t, n)
        X = rng.choice([-1.0, 1.0], size=(m, n))
        net.hidden(X[:8])
        tracemalloc.start()
        try:
            H = net.hidden(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.nbytes == m * t * 8
        assert peak <= 1.25 * H.nbytes


class TestLabeledDataset:
    def test_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[0.5, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[1.0, 1.0]]), np.array([0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            LabeledDataset(np.ones((3, 2)), np.ones(2))


class TestTraining:
    def test_deterministic(self, rng):
        data = random_dataset(rng)
        cfg = TrainConfig(4, Activation.LOGISTIC, 5, 0.5, 16, seed=7)
        a = train_sgd(data, cfg)
        b = train_sgd(data, cfg)
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)
        np.testing.assert_array_equal(a.b1, b.b1)
        assert a.b2 == b.b2
        assert a.seed_lineage == "train:seed=7"

    def test_seed_changes_model(self, rng):
        data = random_dataset(rng)
        cfg = TrainConfig(4, Activation.LOGISTIC, 5, 0.5, 16, seed=7)
        other = train_sgd(data, TrainConfig(4, Activation.LOGISTIC, 5, 0.5, 16, seed=8))
        assert not np.array_equal(train_sgd(data, cfg).W1, other.W1)

    def test_learns_separable_data(self, rng):
        data = random_dataset(rng, m=128)
        cfg = TrainConfig(8, Activation.LOGISTIC, 60, 0.5, 16, seed=3)
        net = train_sgd(data, cfg)
        assert accuracy(net, data) >= 0.95

    def test_sign_activation_snapped(self, rng):
        data = random_dataset(rng, m=128)
        net = train_sgd(data, TrainConfig(8, Activation.SIGN, 40, 0.5, 16, seed=3))
        assert net.act is Activation.SIGN
        hidden = net.hidden(data.X)
        assert set(np.unique(hidden)) <= {-1.0, 1.0}
        assert accuracy(net, data) >= 0.9


class TestFirstLayerLtf:
    def test_sign_convention(self):
        net = small_net()
        ltf = first_layer_ltf(net, 1)
        np.testing.assert_array_equal(ltf.w, [-2.0, 0.0, 0.0])
        assert ltf.theta == -0.5

    def test_agrees_with_hidden_unit(self, rng):
        net = small_net()
        X = rng.choice([-1.0, 1.0], size=(16, 3))
        hidden = net.hidden(X)
        for j in range(net.t):
            np.testing.assert_array_equal(first_layer_ltf(net, j).handle()(X), hidden[:, j])

    def test_tie_row_takes_the_exact_sign(self):
        # In floats 0.6 - 0.3 - 0.2 - 0.1 is -2.8e-17 exactly, and BLAS's sum rounds to 0 or above.
        net = BinaryMlp(np.array([[0.3, 0.2, -0.1]]), np.array([0.6]), Activation.SIGN, np.ones(1), 0.0,
                        fresh_mask(1))
        x = np.array([-1.0, -1.0, 1.0])
        assert net.hidden(x)[0] == net.hidden(x[None])[0, 0] == -1.0
        assert first_layer_ltf(net, 0).handle()(x[None])[0] == -1.0

    @pytest.mark.parametrize("kind", LTF_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_sign_net_labels_the_cube_as_its_handle(self, kind, data):
        n = data.draw(st.integers(1, 10))
        nrn = data.draw(ltf_units(n, kind))
        net = BinaryMlp(nrn.w[None, :], np.array([-nrn.theta]), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1))
        X = cube_chunk(n, 0, 1 << n)
        np.testing.assert_array_equal(net.hidden(X)[:, 0], first_layer_ltf(net, 0).handle()(X))

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            first_layer_ltf(small_net(), 2)

    def test_zero_row_is_degenerate(self):
        net = replace(small_net(), W1=np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(DegenerateFunctionError):
            first_layer_ltf(net, 1)


class TestStabilizeSubset:
    def test_only_selected_rows_change(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(6, Activation.SIGN, 10, 0.5, 16, seed=2))
        out = stabilize_subset(net, [1, 4], PNorm(1.0))
        for j in range(net.t):
            if j in (1, 4):
                np.testing.assert_array_equal(out.W1[j], np.sign(net.W1[j]))
                assert out.stabilized_mask[j]
            else:
                np.testing.assert_array_equal(out.W1[j], net.W1[j])
                assert not out.stabilized_mask[j]
        np.testing.assert_array_equal(out.b1, net.b1)
        np.testing.assert_array_equal(out.W2, net.W2)

    def test_original_untouched(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 5, 0.5, 16, seed=2))
        before = net.W1.copy()
        stabilize_subset(net, range(net.t), PNorm(1.0))
        np.testing.assert_array_equal(net.W1, before)

    def test_idempotent_p1(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 5, 0.5, 16, seed=2))
        once = stabilize_subset(net, range(net.t), PNorm(1.0))
        twice = stabilize_subset(once, range(net.t), PNorm(1.0))
        np.testing.assert_array_equal(once.W1, twice.W1)
        np.testing.assert_array_equal(once.b1, twice.b1)

    def test_p2_needs_chow_source(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 5, 0.5, 16, seed=2))
        with pytest.raises(ValueError):
            stabilize_subset(net, [0], PNorm(2.0))

    def test_unknown_rescale_mode_is_refused(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 5, 0.5, 16, seed=2))
        with pytest.raises(ValueError, match="'bogus'"):
            stabilize_subset(net, [0], PNorm(2.0), ExactChow(), rescale="bogus")

    def test_p2_rows_unit_q_norm(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 5, 0.5, 16, seed=2))
        out = stabilize_subset(net, range(net.t), PNorm(2.0), ExactChow())
        for j in range(net.t):
            assert norm(out.W1[j], 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_rescale_match_qnorm_preserves_prediction_threshold(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 5, 0.5, 16, seed=2))
        out = stabilize_subset(net, [0], PNorm(1.0), rescale="match-qnorm")
        scale = norm(net.W1[0], math.inf)
        np.testing.assert_allclose(out.W1[0], np.sign(net.W1[0]) * scale)
        assert out.b1[0] == pytest.approx(net.b1[0] * scale)

    def test_zero_row_skipped_with_warning(self):
        net = BinaryMlp(
            np.array([[0.0, 0.0], [1.0, -1.0]]),
            np.zeros(2),
            Activation.SIGN,
            np.ones(2),
            0.0,
            fresh_mask(2),
        )
        with pytest.warns(UserWarning):
            out = stabilize_subset(net, [0, 1], PNorm(1.0))
        np.testing.assert_array_equal(out.W1[0], [0.0, 0.0])
        assert not out.stabilized_mask[0]
        assert out.stabilized_mask[1]

    def test_robustness_never_decreases(self, rng):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(4, Activation.SIGN, 10, 0.5, 16, seed=5))
        out = stabilize_subset(net, range(net.t), PNorm(1.0))
        for j in range(net.t):
            before = first_layer_ltf(net, j).normalized(PNorm(1.0))
            after = first_layer_ltf(out, j)
            after = after.normalized(PNorm(1.0))
            assert robustness_exact(after, PNorm(1.0)) >= robustness_exact(before, PNorm(1.0)) - 1e-9


class TestAccuracy:
    def test_perfect_teacher(self, rng):
        X = rng.choice([-1.0, 1.0], size=(32, 3))
        net = small_net()
        data = LabeledDataset(X, net.predict(X))
        assert accuracy(net, data) == 1.0

    def test_flipped_labels(self, rng):
        X = rng.choice([-1.0, 1.0], size=(32, 3))
        net = small_net()
        data = LabeledDataset(X, -net.predict(X))
        assert accuracy(net, data) == 0.0

    def test_dimension_mismatch(self, rng):
        data = random_dataset(rng, n=5)
        with pytest.raises(DimensionError):
            accuracy(small_net(), data)


class TestSerialization:
    def test_model_round_trip_exact(self, rng, tmp_path):
        data = random_dataset(rng)
        net = train_sgd(data, TrainConfig(5, Activation.LOGISTIC, 3, 0.5, 16, seed=11))
        net = stabilize_subset(net, [2], PNorm(1.0))
        path = tmp_path / "model.txt"
        save_model(net, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.W1, net.W1)
        np.testing.assert_array_equal(back.b1, net.b1)
        np.testing.assert_array_equal(back.W2, net.W2)
        assert back.b2 == net.b2
        assert back.act is net.act
        np.testing.assert_array_equal(back.stabilized_mask, net.stabilized_mask)
        assert back.seed_lineage == net.seed_lineage

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, ["old"])

        def lines():
            yield "first"
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_lines(path, lines(), header="# config: x")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        write_lines(path, ["new"])
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_write_follows_symlink(self, tmp_path):
        target = tmp_path / "target.txt"
        write_lines(target, ["old"])
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_lines(link, ["new"])
        assert link.is_symlink() and target.read_text() == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]

    def test_model_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(SchemaError):
            load_model(path)

    def test_document_field_given_twice_is_schema_error(self, tmp_path):
        # Which of two W1.0 lines is the row cannot be told, so the document is refused.
        path = tmp_path / "model.txt"
        save_model(BinaryMlp(np.ones((1, 2)), np.zeros(1), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1)), path)
        path.write_text(path.read_text() + "W1.0=9,9\n")
        for read in (lambda p: read_document(p, "binary-mlp v1"), load_model):
            with pytest.raises(SchemaError, match="given twice"):
                read(path)

    @pytest.mark.parametrize("line", ["W1.7=", "bogus=", "bogus", "# a comment"])
    def test_model_field_not_read_is_schema_error(self, tmp_path, line):
        path = tmp_path / "model.txt"
        save_model(BinaryMlp(np.ones((1, 2)), np.zeros(1), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1)), path)
        load_model(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(SchemaError, match="unknown field"):
            load_model(path)

    def test_dataset_round_trip(self, rng, tmp_path):
        data = random_dataset(rng)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.y, data.y)

    def test_dataset_header_format(self, rng, tmp_path):
        data = random_dataset(rng, m=2, n=3)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n=3"
        assert all(c in ("+1", "-1") for c in lines[1].split(","))
        assert len(lines[1].split(",")) == 4

    @pytest.mark.parametrize("header", [None, "# config: cmd=golden seed=0"])
    def test_model_golden_bytes(self, tmp_path, header):
        net = BinaryMlp(
            W1=np.array([[0.5, -1.25, 1.0 / 3.0], [2.0, 0.0, -0.1]]),
            b1=np.array([0.25, -1.0]),
            act=Activation.TANH,
            W2=np.array([1.5, -0.75]),
            b2=0.125,
            stabilized_mask=np.array([True, False]),
            seed_lineage="train:seed=3",
        )
        path = tmp_path / "model.txt"
        save_model(net, path, header)
        body = (
            "# binary-mlp v1\n"
            "n=3\n"
            "t=2\n"
            "activation=tanh\n"
            "seed_lineage=train:seed=3\n"
            "b2=0.125\n"
            "W2=1.5,-0.75\n"
            "b1=0.25,-1\n"
            "stabilized_mask=1,0\n"
            "W1.0=0.5,-1.25,0.33333333333333331\n"
            "W1.1=2,0,-0.10000000000000001\n"
        )
        assert path.read_bytes() == (body if header is None else f"{header}\n{body}").encode()

    def test_dataset_golden_bytes(self, tmp_path):
        data = LabeledDataset(np.array([[1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]]), np.array([1.0, -1.0]))
        path = tmp_path / "data.csv"
        save_dataset(data, path, "# config: cmd=golden")
        assert path.read_bytes() == b"# config: cmd=golden\nn=3\n+1,-1,+1,+1\n-1,-1,+1,-1\n"

    @staticmethod
    def rendered_rows(ds):
        """The per-row rendering the block writer replaced, kept as its oracle."""
        return [",".join(["+1" if v > 0 else "-1" for v in x.tolist() + [label]]) for x, label in zip(ds.X, ds.y)]

    @pytest.mark.parametrize("header", [None, "# config: cmd=blocks"])
    @pytest.mark.parametrize("n", [1, 2, 24, (1 << 14) - 1, 1 << 14])
    def test_dataset_blocks_match_per_row_rendering(self, rng, tmp_path, n, header):
        # Rows per block of 2^14 cells; from n + 1 >= 2^14 cells on a block is one row.
        assert _CHUNK_CELLS == 1 << 14
        step = max(1, _CHUNK_CELLS // (n + 1))
        path = tmp_path / "data.csv"
        for m in sorted({m for m in (1, step - 1, step, step + 1, 3 * step) if m >= 1}):
            ds = LabeledDataset(rng.choice([-1.0, 1.0], size=(m, n)), rng.choice([-1.0, 1.0], size=m))
            save_dataset(ds, path, header)
            lines = ([] if header is None else [header]) + [f"n={n}"] + self.rendered_rows(ds)
            assert path.read_bytes() == "".join(ln + "\n" for ln in lines).encode()

    @pytest.mark.parametrize("m", [20000, 200000])
    def test_dataset_writer_memory_does_not_grow_with_rows(self, rng, tmp_path, m):
        ds = LabeledDataset(rng.choice([-1.0, 1.0], size=(m, 24)), rng.choice([-1.0, 1.0], size=m))
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        tracemalloc.start()
        try:
            save_dataset(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == len("n=24\n") + m * 25 * 3
        assert peak < 1 << 20

    def test_dataset_schema_errors(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("m=3\n+1,+1,-1\n")
        with pytest.raises(SchemaError):
            load_dataset(p)
        p.write_text("n=2\n+1,+1\n")
        with pytest.raises(SchemaError):
            load_dataset(p)  # missing label column
        p.write_text("n=2\n+1,x,+1\n")
        with pytest.raises(SchemaError):
            load_dataset(p)

    def test_dataset_header_must_be_an_integer(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("n=2.5\n+1,+1,-1\n")
        with pytest.raises(SchemaError, match="'2.5'") as info:
            load_dataset(p)
        assert str(info.value).startswith(f"{p}: ") and str(info.value).count(str(p)) == 1

    def test_model_shape_must_match_header(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(small_net(), path)
        path.write_text(path.read_text().replace("\nn=3\n", "\nn=4\n"))
        with pytest.raises(SchemaError, match=re.escape("W1 shape (2, 3) != (2, 4)")):
            load_model(path)

    def test_late_non_utf8_byte_names_the_file_once(self, tmp_path):
        # The text is decoded 8 KiB at a time, so a bad byte past the first 8 KiB is met inside
        # np.loadtxt; read_table's parsing block names the file, and load_dataset's passes that on.
        p = tmp_path / "d.csv"
        p.write_bytes(b"n=2\n" + b"+1,-1,+1\n" * 2000 + b"+1,\xff,+1\n")
        with pytest.raises(SchemaError) as info:
            load_dataset(p)
        assert str(info.value).startswith(f"{p}: not a text file") and str(info.value).count(str(p)) == 1


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Config lines the CLI writes; None is a library caller's headerless file.
_HEADERS = st.sampled_from([None, "# config: cmd=train data=d seed=0"])
# Tokens that replace one saved value: near-valid numbers, non-finite
# spellings, and arbitrary printable text, including separators and newlines.
_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "0", "1", "2", "-1", "0.5", "1_0", "9" * 30]),
    st.text(alphabet=string.printable, max_size=8),
)


@st.composite
def binary_mlps(draw):
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    floats = lambda size: np.array(draw(st.lists(_FINITE, min_size=size, max_size=size)))
    try:
        return BinaryMlp(
            W1=floats(t * n).reshape(t, n),
            b1=floats(t),
            act=draw(st.sampled_from(Activation)),
            W2=floats(t),
            b2=draw(_FINITE),
            stabilized_mask=draw(st.lists(st.booleans(), min_size=t, max_size=t)),
            seed_lineage=draw(st.text(alphabet=string.printable.replace("\n", "").replace("\r", ""))),
        )
    except ValueError:  # finite weights whose forward pass can overflow are no model (about 1 draw in 11)
        assume(False)


@st.composite
def pm1_datasets(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pm1 = lambda size: np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size)))
    return LabeledDataset(pm1(m * n).reshape(m, n), pm1(m))


class TestSerializationProperties:
    @settings(max_examples=60, deadline=None)
    @given(net=binary_mlps(), header=_HEADERS)
    def test_model_round_trip_is_exact(self, tmp_path_factory, net, header):
        path = tmp_path_factory.getbasetemp() / "round-trip.txt"
        save_model(net, path, header)
        back = load_model(path)
        for name in ("W1", "b1", "W2", "stabilized_mask"):
            a, b = getattr(back, name), getattr(net, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.float64(back.b2).tobytes() == np.float64(net.b2).tobytes()
        assert (back.act, back.seed_lineage) == (net.act, net.seed_lineage)
        assert path.read_text().splitlines()[0] == (header or "# binary-mlp v1")

    @settings(max_examples=200, deadline=None)
    @given(net=binary_mlps(), header=_HEADERS, data=st.data())
    def test_corrupted_value_loads_valid_or_is_schema_error(self, tmp_path_factory, net, header, data):
        path = tmp_path_factory.getbasetemp() / "corrupted.txt"
        save_model(net, path, header)
        text = path.read_text()
        # A value runs from a '=' or ',' to the next ',' or line end.
        start, stop = data.draw(st.sampled_from([m.span() for m in re.finditer(r"(?<=[=,])[^,\n]*", text)]))
        path.write_text(text[:start] + data.draw(_TOKENS) + text[stop:])
        try:
            back = load_model(path)
        except SchemaError:
            return
        assert all(np.isfinite(a).all() for a in (back.W1, back.b1, back.W2)) and math.isfinite(back.b2)
        assert back.b1.shape == back.W2.shape == back.stabilized_mask.shape == (back.t,)

    @settings(max_examples=200, deadline=None)
    @given(ds=pm1_datasets(), header=_HEADERS, data=st.data())
    def test_corrupted_dataset_loads_valid_or_is_schema_error(self, tmp_path_factory, ds, header, data):
        path = tmp_path_factory.getbasetemp() / "corrupted.csv"
        save_dataset(ds, path, header)
        back = load_dataset(path)
        assert back.X.tobytes() == ds.X.tobytes() and back.y.tobytes() == ds.y.tobytes()
        assert back.X.flags.c_contiguous and back.y.flags.c_contiguous
        text = path.read_text()
        # One cell, or one whole line (the header lines included), gets a token or a non-UTF-8 byte.
        spans = [m.span() for pattern in (r"[^,\n]+", r"(?m)^.*$") for m in re.finditer(pattern, text)]
        start, stop = data.draw(st.sampled_from(spans))
        path.write_text(text[:start] + data.draw(st.one_of(_TOKENS, st.just("\udcff"))) + text[stop:],
                        errors="surrogateescape")
        try:
            back = load_dataset(path)
        except SchemaError:
            return
        assert back.X.ndim == 2 and back.y.shape == (back.m,)
        assert np.all(np.abs(back.X) == 1.0) and np.all(np.abs(back.y) == 1.0)
        assert back.X.flags.c_contiguous and back.y.flags.c_contiguous
