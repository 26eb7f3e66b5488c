import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fourierstab.errors import DegenerateFunctionError
from fourierstab.fourier import ChowEstimate, ExactChow, MonteCarloChow, chow_exact
from fourierstab.network import (
    RESCALE_MODES,
    Activation,
    BinaryMlp,
    LabeledDataset,
    TrainConfig,
    accuracy,
    first_layer_ltf,
    fresh_mask,
    stabilize_subset,
    train_sgd,
    unit_chow,
    with_stabilized_rows,
)
from fourierstab import selection
from fourierstab.neuron import PNorm
from fourierstab.selection import (
    SelectionConfig,
    SelectionStep,
    delta_r,
    gmb,
    gmb_fast,
    gmbc,
    trace_to_csv,
)


def single_unit_net(w, theta=0.0):
    w = np.asarray(w, dtype=np.float64)
    return BinaryMlp(w[None, :], np.array([-theta]), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1))


def teacher_dataset(net, rng, m=128):
    X = rng.choice([-1.0, 1.0], size=(m, net.n))
    return LabeledDataset(X, net.predict(X), split="validation")


def trained_net(rng, t=8, n=8, m=256, seed=3):
    X = rng.choice([-1.0, 1.0], size=(m, n))
    y = np.sign(X[:, :3].sum(axis=1) + 0.5)
    data = LabeledDataset(X, y)
    return train_sgd(data, TrainConfig(t, Activation.SIGN, 30, 0.5, 32, seed=seed)), data


def random_net(rng, t, n):
    """A tanh net with Gaussian weights, whose units stabilization changes a lot."""
    return BinaryMlp(rng.normal(size=(t, n)), rng.normal(size=t), Activation.TANH, rng.normal(size=t), 0.0,
                     fresh_mask(t))


def cfg_p1(beta, **kw):
    return SelectionConfig(beta=beta, p=PNorm(1.0), chow_source=ExactChow(), **kw)


class TestDeltaR:
    def test_already_stabilized_is_zero(self):
        net = single_unit_net([1.0, 1.0, 1.0])
        chow = chow_exact(first_layer_ltf(net, 0).handle(), 3)
        assert delta_r(net, 0, PNorm(1.0), chow) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_majority_is_zero(self):
        net = single_unit_net([2.0, 2.0, 2.0])
        chow = chow_exact(first_layer_ltf(net, 0).handle(), 3)
        assert delta_r(net, 0, PNorm(1.0), chow) == pytest.approx(0.0, abs=1e-12)

    def test_dictatorship_weights_are_already_optimal(self):
        # sign(x1 + 0.1 x2 + 0.1 x3) is the first dictatorship, which already
        # attains the best sign-pattern objective, so the proxy gain is zero.
        net = single_unit_net([1.0, 0.1, 0.1])
        chow = chow_exact(first_layer_ltf(net, 0).handle(), 3)
        np.testing.assert_array_equal(chow.h_vec, [1.0, 0.0, 0.0])
        assert delta_r(net, 0, PNorm(1.0), chow) == pytest.approx(0.0, abs=1e-12)

    def test_dominated_coordinates_gain(self):
        # sign(x1 + 0.9 x2 + 0.9 x3) = Maj3, so h_vec = (0.5, 0.5, 0.5) and
        # the gain is 1.5 - 0.5*(1 + 0.9 + 0.9) = 0.1.
        net = single_unit_net([1.0, 0.9, 0.9])
        chow = chow_exact(first_layer_ltf(net, 0).handle(), 3)
        assert delta_r(net, 0, PNorm(1.0), chow) == pytest.approx(0.1, abs=1e-12)

    def test_degenerate_unit_zero_with_warning(self):
        # delta_r raises; selection turns that into the trace warning
        # (test_degenerate_unit_is_left_out_with_warning).
        net = single_unit_net([0.25], theta=2.0)  # constant -1
        chow = chow_exact(first_layer_ltf(net, 0).handle(), 1)
        with pytest.raises(DegenerateFunctionError, match="zero coefficient vector"):
            delta_r(net, 0, PNorm(1.0), chow)

    def test_nonnegative_with_exact_chow(self, rng):
        net, _ = trained_net(rng)
        for j in range(net.t):
            chow = chow_exact(first_layer_ltf(net, j).handle(), net.n)
            for p in [1.0, 2.0, math.inf]:
                assert delta_r(net, j, PNorm(p), chow) >= -1e-9


class ZeroChowForUnit1:
    """Exact Chow parameters, except a zero coefficient vector for unit 1."""

    def estimate(self, f, n, key=0):
        est = ExactChow().estimate(f, n)
        return ChowEstimate(n, est.h_empty, np.zeros(n), "exact") if key == 1 else est


@pytest.mark.parametrize("algo", [gmb, gmb_fast, gmbc])
@pytest.mark.parametrize(
    "case, reason", [("zero-row", "zero weight vector"), ("zero-chow", "zero coefficient vector")]
)
def test_degenerate_unit_is_left_out_with_warning(rng, algo, case, reason):
    net, _ = trained_net(rng, t=3)
    source = ExactChow()
    if case == "zero-row":
        W1 = net.W1.copy()
        W1[1] = 0.0
        net = BinaryMlp(W1, net.b1, net.act, net.W2, net.b2, net.stabilized_mask)
    else:
        source = ZeroChowForUnit1()
    val = teacher_dataset(net, rng)
    cfg = SelectionConfig(beta=0.0, p=PNorm(2.0), chow_source=source)
    model, trace = algo(net, val, cfg)
    assert any(w.startswith(f"unit 1 is degenerate ({reason}") for w in trace.warnings)
    assert 1 not in trace.order and 1 not in trace.accepted
    assert sorted(trace.accepted) == [0, 2]
    assert len(trace.accepted) == model.stabilized_mask.sum()
    assert list(model.stabilized_mask) == [True, False, True]


class CountingChow:
    """A Chow source that records the key of every estimate it serves."""

    def __init__(self, inner):
        self.inner, self.keys = inner, []

    def estimate(self, f, n, key=0):
        self.keys.append(key)
        return self.inner.estimate(f, n, key=key)


def test_constant_unit_with_a_nonzero_row_at_p1(rng):
    # Unit 1, w = (0.1, 0.1, 0.1) and theta = 5, is constant -1: its coefficient vector
    # is zero though its row is not. At p = 1 stabilize_subset needs no estimate and
    # stabilizes it without a warning (warnings are errors here); gmb estimates every
    # unit and leaves it out.
    net = BinaryMlp(np.array([[1.0, -1.0, 0.5], [0.1, 0.1, 0.1]]), np.array([0.0, -5.0]), Activation.SIGN,
                    np.ones(2), 0.0, fresh_mask(2))
    source = CountingChow(ExactChow())
    stabilized = stabilize_subset(net, [0, 1], PNorm(1.0), source)
    assert source.keys == [] and list(stabilized.stabilized_mask) == [True, True]
    np.testing.assert_array_equal(stabilized.W1[1], [1.0, 1.0, 1.0])
    model, trace = gmb(net, teacher_dataset(net, rng), SelectionConfig(beta=0.0, p=PNorm(1.0), chow_source=source))
    assert sorted(source.keys) == [0, 1]
    assert trace.warnings == ["unit 1 is degenerate (zero coefficient vector: function is constant); delta_r = 0, left out"]
    assert 1 not in trace.order and list(model.stabilized_mask) == [True, False]


def oracle_csv(net, val, cfg, trace, source, algo):
    """trace_to_csv of trace with every number rebuilt from prefix models that
    stabilize_subset builds from source, as selection used to build them."""
    prefixes = [stabilize_subset(net, trace.accepted[:k], cfg.p, source, rescale=cfg.rescale)
                for k in range(len(trace.steps) + 1)]
    accs = [accuracy(model, val) for model in prefixes]
    nan = float("nan")
    steps = []
    for k, step in enumerate(trace.steps, 1):
        gain = delta_r(net, step.index, cfg.p, unit_chow(net, step.index, source))
        if algo is gmb_fast:  # accuracies only at the prefix lengths the search tried
            after = nan if math.isnan(step.accuracy_after) else accs[k]
            steps.append(SelectionStep(step.index, gain, nan, nan, after))
            continue
        raw = accs[k - 1] - accs[k]
        clamped = max(raw, cfg.resolved_a_bar(val.m)) if algo is gmbc else nan
        steps.append(SelectionStep(step.index, gain, raw, clamped, accs[k]))
    return prefixes[-1], trace_to_csv(dataclasses.replace(trace, steps=steps))


@pytest.mark.parametrize("inner", [ExactChow(), MonteCarloChow(0.2, 0.01, seed=5)], ids=["exact", "mc"])
@pytest.mark.parametrize(
    "algo, verify", [(gmb, None), (gmb_fast, False), (gmb_fast, True), (gmbc, None)],
    ids=["gmb", "gmb_fast", "gmb_fast-verify", "gmbc"],
)
def test_each_unit_is_estimated_once(rng, inner, algo, verify):
    net = random_net(rng, 8, 8)
    val = teacher_dataset(net, rng)
    kwargs = {} if verify is None else {"verify": verify}
    sizes = set()
    for beta, rescale in itertools.product((0.0, 0.9, 0.95, 0.97), RESCALE_MODES):
        source = CountingChow(inner)
        cfg = SelectionConfig(beta=beta, p=PNorm(2.0), chow_source=source, rescale=rescale)
        model, trace = algo(net, val, cfg, **kwargs)
        assert sorted(source.keys) == list(range(net.t))
        sizes.add(len(trace.accepted))
        oracle, lines = oracle_csv(net, val, cfg, trace, inner, algo)
        for attr in ("W1", "b1", "stabilized_mask"):
            np.testing.assert_array_equal(getattr(model, attr), getattr(oracle, attr))
        assert trace_to_csv(trace) == lines
    assert len(sizes) > 1  # some floor rejects a unit that another accepts


@pytest.mark.parametrize("algo", [gmbc, functools.partial(gmb_fast, verify=True)], ids=["gmbc", "gmb_fast-verify"])
def test_peak_memory_is_a_few_models(rng, monkeypatch, algo):
    # The stabilized rows, the current model and a candidate are about 3.4 copies of W1 here;
    # keeping one model per candidate held about 130.
    t, n = 128, 256
    net = random_net(rng, t, n)
    val = teacher_dataset(net, rng, m=4)
    monkeypatch.setattr(selection, "accuracy", lambda model, data: 1.0)
    cfg = SelectionConfig(beta=0.5, p=PNorm(2.0), chow_source=MonteCarloChow(1.0, 0.5, seed=0))
    tracemalloc.start()
    try:
        model, trace = algo(net, val, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.accepted) == t and model.stabilized_mask.all()
    assert peak < 5 * net.W1.nbytes


class TestGmb:
    def test_accepted_is_prefix_of_order(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        for beta in [0.5, 0.8, 0.95, 1.0]:
            _, trace = gmb(net, val, cfg_p1(beta))
            assert trace.accepted == trace.order[: len(trace.accepted)]

    def test_matches_exhaustive_prefix_scan(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        for beta in [0.7, 0.85, 0.95]:
            model, trace = gmb(net, val, cfg_p1(beta))
            # Independent scan with identical stop-at-first-violation rule.
            expected = []
            current = net
            for j in trace.order:
                cand = stabilize_subset(current, [j], PNorm(1.0), ExactChow())
                if accuracy(cand, val) < beta:
                    break
                expected.append(j)
                current = cand
            assert trace.accepted == expected
            np.testing.assert_array_equal(model.W1, current.W1)

    def test_beta_zero_takes_everything(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        _, trace = gmb(net, val, cfg_p1(0.0))
        assert sorted(trace.accepted) == list(range(net.t))

    def test_infeasible_clean_accuracy_gives_empty_set(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        flipped = LabeledDataset(val.X, -val.y, split="validation")
        model, trace = gmb(net, flipped, cfg_p1(0.9))
        assert trace.accepted == []
        assert trace.warnings
        np.testing.assert_array_equal(model.W1, net.W1)

    def test_proxy_additivity(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        _, trace = gmb(net, val, cfg_p1(0.8))
        total = 0.0
        for j in trace.accepted:
            chow = chow_exact(first_layer_ltf(net, j).handle(), net.n)
            total += delta_r(net, j, PNorm(1.0), chow)
        assert trace.proxy_total == pytest.approx(total, abs=1e-12)


class TestGmbFast:
    def test_matches_gmb_when_monotone(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        for beta in [0.6, 0.8, 0.9]:
            _, slow = gmb(net, val, cfg_p1(beta))
            fast_model, fast = gmb_fast(net, val, cfg_p1(beta))
            prefix_accs = [
                accuracy(stabilize_subset(net, slow.order[:i], PNorm(1.0), ExactChow()), val)
                for i in range(net.t + 1)
            ]
            if all(a >= b for a, b in zip(prefix_accs, prefix_accs[1:])):
                assert fast.accepted == slow.accepted
                slow_model = stabilize_subset(net, slow.accepted, PNorm(1.0), ExactChow())
                np.testing.assert_array_equal(fast_model.W1, slow_model.W1)

    def test_eval_count_t16(self, rng):
        net, _ = trained_net(rng, t=16)
        val = teacher_dataset(net, rng)
        _, trace = gmb_fast(net, val, cfg_p1(0.8))
        assert trace.accuracy_evaluations == 5  # ceil(log2(17))

    def test_eval_count_t32(self, rng):
        net, _ = trained_net(rng, t=32)
        val = teacher_dataset(net, rng)
        _, trace = gmb_fast(net, val, cfg_p1(0.8))
        assert trace.accuracy_evaluations == 6  # ceil(log2(33))

    @pytest.mark.parametrize("t", [64, 256])
    def test_eval_count_large(self, rng, t):
        net, _ = trained_net(rng, t=t)
        val = teacher_dataset(net, rng, m=64)
        _, trace = gmb_fast(net, val, cfg_p1(0.8))
        assert trace.accuracy_evaluations <= math.ceil(math.log2(t + 1)) + 1

    def test_verify_mode_counts_and_result_unchanged(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        plain_model, plain = gmb_fast(net, val, cfg_p1(0.8))
        model, trace = gmb_fast(net, val, cfg_p1(0.8), verify=True)
        assert trace.accepted == plain.accepted
        np.testing.assert_array_equal(model.W1, plain_model.W1)
        assert trace.accuracy_evaluations == plain.accuracy_evaluations
        assert trace.verification_evaluations <= max(len(trace.accepted) - 1, 0)

    def test_builds_each_prefix_model_once(self, rng, monkeypatch):
        # The returned model is the searched prefix's model, not a rebuild.
        net, _ = trained_net(rng, t=16)
        val = teacher_dataset(net, rng)
        calls = []

        def counting(base, rows):
            calls.append(sorted(rows))
            return with_stabilized_rows(base, rows)

        monkeypatch.setattr(selection, "with_stabilized_rows", counting)
        for verify in (False, True):
            calls.clear()
            model, trace = gmb_fast(net, val, cfg_p1(0.8), verify=verify)
            assert trace.accepted and trace.verification_evaluations >= verify
            assert len(calls) == trace.accuracy_evaluations + trace.verification_evaluations
            np.testing.assert_array_equal(
                model.W1, stabilize_subset(net, trace.accepted, PNorm(1.0), ExactChow()).W1
            )

    def test_verify_warns_when_accuracy_is_not_monotone(self, rng, monkeypatch):
        # Accuracy by the number of stabilized units: prefix 1 falls below beta, prefix 2 recovers.
        net, _ = trained_net(rng, t=3)
        val = teacher_dataset(net, rng)
        by_count = {0: 1.0, 1: 0.5, 2: 0.9, 3: 0.4}
        monkeypatch.setattr(selection, "accuracy", lambda model, data: by_count[int(model.stabilized_mask.sum())])
        _, plain = gmb_fast(net, val, cfg_p1(0.8))
        _, trace = gmb_fast(net, val, cfg_p1(0.8), verify=True)
        assert len(trace.accepted) == len(plain.accepted) == 2 and not plain.warnings
        assert trace.verification_evaluations == 1
        assert trace.warnings == ["monotonicity violated: prefixes [1] fall below beta although prefix 2 "
                                  "(accuracy 0.900000) does not"]

    def test_empty_when_nothing_feasible(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        flipped = LabeledDataset(val.X, -val.y, split="validation")
        model, trace = gmb_fast(net, flipped, cfg_p1(0.9))
        assert trace.accepted == []
        assert trace.warnings
        np.testing.assert_array_equal(model.W1, net.W1)


def two_unit_ratio_net():
    """Unit 0 drives the output; unit 1 is disconnected (zero head weight),
    so stabilizing unit 1 never costs accuracy."""
    W1 = np.array([[3.0, 1.0, 1.0, 1.0], [1.0, 0.8, 0.8, 0.8]])
    b1 = np.zeros(2)
    W2 = np.array([1.0, 0.0])
    return BinaryMlp(W1, b1, Activation.SIGN, W2, 0.0, fresh_mask(2))


@pytest.mark.parametrize("beta", [1.5, -0.5, math.nan])
def test_beta_outside_unit_interval_is_refused(beta):
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
        cfg_p1(beta)


class TestGmbc:
    @pytest.mark.parametrize("a_bar", [0.0, -1.0, math.inf, math.nan])
    def test_a_bar_must_be_finite_and_positive(self, a_bar):
        with pytest.raises(ValueError, match="a_bar"):
            cfg_p1(0.5, a_bar=a_bar)

    def test_ratio_orders_cheap_unit_first(self, rng):
        net = two_unit_ratio_net()
        X = rng.choice([-1.0, 1.0], size=(200, 4))
        val = LabeledDataset(X, net.predict(X), split="validation")
        _, trace = gmbc(net, val, cfg_p1(0.5))
        # Unit 1 has zero accuracy cost (clamped to a_bar), hence the larger
        # gain-per-cost ratio even with a smaller raw gain; it goes first.
        assert trace.accepted[0] == 1
        step = trace.steps[0]
        assert step.delta_a_raw == 0.0
        assert step.delta_a_clamped == pytest.approx(1.0 / (4.0 * val.m))

    def test_synthetic_ratio_oracle(self, rng):
        # Hand construction: gain(A)=1 with cost 0.1, gain(B)=0.5 with cost
        # 0.01 -> ratios 10 vs 50, B first. Realized with the clamp by giving
        # B a zero cost and an explicit a_bar = 0.01.
        net = two_unit_ratio_net()
        X = rng.choice([-1.0, 1.0], size=(200, 4))
        val = LabeledDataset(X, net.predict(X), split="validation")
        chow0 = chow_exact(first_layer_ltf(net, 0).handle(), 4)
        chow1 = chow_exact(first_layer_ltf(net, 1).handle(), 4)
        gain0 = delta_r(net, 0, PNorm(1.0), chow0)
        gain1 = delta_r(net, 1, PNorm(1.0), chow1)
        cost0 = accuracy(net, val) - accuracy(
            stabilize_subset(net, [0], PNorm(1.0), ExactChow()), val
        )
        a_bar = 0.01
        ratio0 = gain0 / max(cost0, a_bar)
        ratio1 = gain1 / a_bar  # zero raw cost, clamped
        assert ratio1 > ratio0
        _, trace = gmbc(net, val, cfg_p1(0.5, a_bar=a_bar))
        assert trace.accepted[0] == 1

    def test_negative_cost_clamped(self, rng):
        # Validation labels follow the stabilized unit, so stabilizing raises
        # accuracy: the raw marginal cost is negative and must clamp to a_bar.
        net = two_unit_ratio_net()
        X = rng.choice([-1.0, 1.0], size=(200, 4))
        target = stabilize_subset(net, [0], PNorm(1.0), ExactChow())
        labels = target.predict(X)
        mismatched = labels != net.predict(X)
        assert mismatched.any()
        val = LabeledDataset(X, labels, split="validation")
        _, trace = gmbc(net, val, cfg_p1(0.5))
        step0 = next(s for s in trace.steps if s.index == 0)
        assert step0.delta_a_raw < 0.0
        assert step0.delta_a_clamped == pytest.approx(1.0 / (4.0 * val.m))

    def test_violating_unit_skipped_not_terminal(self, rng):
        net = two_unit_ratio_net()
        X = rng.choice([-1.0, 1.0], size=(200, 4))
        val = LabeledDataset(X, net.predict(X), split="validation")
        # beta = 1.0: unit 0 flips some predictions and is rejected; unit 1
        # is free and must still be accepted afterwards.
        model, trace = gmbc(net, val, cfg_p1(1.0))
        assert trace.accepted == [1]
        assert 0 in trace.order
        assert model.stabilized_mask[1] and not model.stabilized_mask[0]

    def test_infeasible_clean_accuracy_gives_empty_set(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        flipped = LabeledDataset(val.X, -val.y, split="validation")
        model, trace = gmbc(net, flipped, cfg_p1(0.9))
        assert trace.accepted == [] and trace.order == [] and trace.accuracy_evaluations == 1
        assert len(trace.warnings) == 1 and trace.warnings[0].startswith("clean accuracy")
        np.testing.assert_array_equal(model.W1, net.W1)

    def test_warns_when_every_candidate_violates_beta(self, rng, monkeypatch):
        net, _ = trained_net(rng, t=4)
        val = teacher_dataset(net, rng)
        monkeypatch.setattr(selection, "accuracy", lambda model, data: 0.5 if model.stabilized_mask.any() else 1.0)
        model, trace = gmbc(net, val, cfg_p1(0.9))
        assert trace.accepted == [] and sorted(trace.order) == [0, 1, 2, 3]
        assert trace.warnings == ["every candidate violates beta=0.9; S is empty"]
        np.testing.assert_array_equal(model.W1, net.W1)

    def test_respects_beta(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        for beta in [0.7, 0.9]:
            model, trace = gmbc(net, val, cfg_p1(beta))
            assert accuracy(model, val) >= beta
            for step in trace.steps:
                assert step.accuracy_after >= beta

    def test_proxy_additivity(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        _, trace = gmbc(net, val, cfg_p1(0.8))
        total = 0.0
        for j in trace.accepted:
            chow = chow_exact(first_layer_ltf(net, j).handle(), net.n)
            total += delta_r(net, j, PNorm(1.0), chow)
        assert trace.proxy_total == pytest.approx(total, abs=1e-12)


class TestTraceCsv:
    def test_shape_and_summary(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        flipped = LabeledDataset(val.X, -val.y, split="validation")
        runs = [
            gmb(net, val, cfg_p1(0.8)),
            gmb_fast(net, val, cfg_p1(0.8), verify=True),
            gmb(net, flipped, cfg_p1(0.9)),  # infeasible: records a warning
        ]
        assert any(trace.warnings for _, trace in runs)
        for _, trace in runs:
            lines = trace_to_csv(trace)
            assert lines[0].startswith("index,delta_r,")
            assert len(lines) == len(trace.steps) + len(trace.warnings) + 2
            warned = lines[1 + len(trace.steps) : -1]
            assert warned == [f"# warning: {w}" for w in trace.warnings]
            assert lines[-1].startswith("# summary ")
            # Every summary token is one key=value pair.
            fields = dict(kv.split("=") for kv in lines[-1].split()[2:])
            assert int(fields["accepted"]) == len(trace.accepted)
            assert int(fields["accuracy_evaluations"]) == trace.accuracy_evaluations
            assert int(fields["verification_evaluations"]) == trace.verification_evaluations
            assert int(fields["warnings"]) == len(trace.warnings)

    def test_cumulative_column_is_running_sum(self, rng):
        net, _ = trained_net(rng)
        val = teacher_dataset(net, rng)
        _, trace = gmb(net, val, cfg_p1(0.8))
        rows = [ln.split(",") for ln in trace_to_csv(trace)[1:-1]]
        cum = 0.0
        for row in rows:
            cum += float(row[1])
            assert float(row[5]) == pytest.approx(cum, abs=1e-12)
