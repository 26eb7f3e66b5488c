"""End-to-end acceptance gate.

Each test is one numbered criterion; tests/conftest.py prints a one-line
PASS/FAIL verdict per criterion when the suite runs. Shared heavyweight
artifacts (the planted task and its trained network) are module-scoped.
"""

import itertools
import math

import numpy as np
import pytest

from conftest import random_ltf
from fourierstab.attack import (
    AdvTrainConfig,
    AttackBudget,
    adversarial_train,
    jsma,
    robust_accuracy,
)
from fourierstab.fourier import MonteCarloChow, chow_all, chow_exact, enumerate_cube, influence
from fourierstab.network import (
    Activation,
    BinaryMlp,
    LabeledDataset,
    TrainConfig,
    accuracy,
    fresh_mask,
    stabilize_subset,
    train_sgd,
)
from fourierstab.neuron import (
    C0,
    C1,
    LinearThresholdNeuron,
    PNorm,
    accuracy_bound_lp,
    accuracy_bound_p1,
    alpha_mu,
    disagreement_exact,
    distance_lp,
    norm,
    robustness_exact,
    sign_pm1,
    stabilize,
)
from fourierstab.selection import SelectionConfig, gmb, gmb_fast, gmbc
from fourierstab.cli import main as cli_main


def cube(n):
    return np.concatenate(list(enumerate_cube(n)))


def truth_table_handle(table, n):
    def f(X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        idx = ((X < 0).astype(np.int64) << np.arange(n, dtype=np.int64)).sum(axis=1)
        return table[idx]

    return f


class TestCriterion01Parseval:
    def test_criterion_01(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            X = cube(n)
            ta = rng.choice([-1.0, 1.0], size=1 << n)
            tb = rng.choice([-1.0, 1.0], size=1 << n)
            fa = truth_table_handle(ta, n)
            fb = truth_table_handle(tb, n)
            ca, cb = chow_all(fa, n), chow_all(fb, n)
            assert float(ca @ cb) == pytest.approx(float(np.mean(fa(X) * fb(X))), abs=1e-12)
            assert float(ca @ ca) == pytest.approx(1.0, abs=1e-12)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            f = random_ltf(rng, n).handle()
            c = chow_all(f, n)
            assert float(c @ c) == pytest.approx(1.0, abs=1e-12)


class TestCriterion02SignAndInfluence:
    def test_criterion_02(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            nrn = random_ltf(rng, n, zero_free=True)
            est = chow_exact(nrn.handle(), n)
            for i in range(n):
                if est.h_vec[i] != 0.0:
                    assert np.sign(est.h_vec[i]) == np.sign(nrn.w[i])
                assert abs(est.h_vec[i]) == pytest.approx(
                    influence(nrn.handle(), i, n), abs=1e-12
                )


class TestCriterion03Distance:
    def test_criterion_03(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            nrn = random_ltf(rng, n)
            x = rng.normal(size=n)
            resid = float(x @ nrn.w) - nrn.theta
            # Independent projection oracles per norm.
            oracle2 = float(np.linalg.norm((resid / float(nrn.w @ nrn.w)) * nrn.w))
            oracle1 = min(abs(resid / wi) for wi in nrn.w if wi != 0.0)
            oracle_inf = abs(resid) / float(np.sum(np.abs(nrn.w)))
            assert distance_lp(x, nrn, PNorm(1.0)) == pytest.approx(oracle1, abs=1e-6)
            assert distance_lp(x, nrn, PNorm(2.0)) == pytest.approx(oracle2, abs=1e-6)
            assert distance_lp(x, nrn, PNorm(math.inf)) == pytest.approx(oracle_inf, abs=1e-6)


class TestCriterion04StabilizationOptimality:
    def test_criterion_04(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            X = cube(n)
            h = nrn.handle()(X)
            for p in [1.0, 2.0, 3.0, math.inf]:
                pn = PNorm(p)
                mu = nrn.theta / norm(nrn.w, pn.q)
                res = stabilize(nrn, pn, est, mu=mu)
                obj = float(np.mean((X @ res.w_star - mu) * h))
                assert obj == pytest.approx(norm(est.h_vec, p) - est.h_empty * mu, abs=1e-9)
                V = rng.normal(size=(1000, n))
                qexp = math.inf if p == 1.0 else pn.q
                V /= np.array([norm(v, qexp) for v in V])[:, None]
                comp = np.mean((X @ V.T - mu) * h[:, None], axis=0)
                assert np.all(comp <= obj + 1e-9)


class TestCriterion05Dominance:
    def test_criterion_05(self):
        rng = np.random.default_rng(105)
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


class TestCriterion06AlphaAndP1Bound:
    def test_criterion_06(self):
        for n in range(1, 13):
            s = cube(n).sum(axis=1) / math.sqrt(n)
            for mu in [0.0, 0.5, 1.0, 10.0]:
                direct = float(np.mean(np.abs(s - mu)))
                assert alpha_mu(n, mu) == pytest.approx(direct, abs=1e-12)
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(8, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            w_star = np.sign(nrn.w)
            for mu in [0.0, nrn.theta / math.sqrt(n)]:
                rep = accuracy_bound_p1(est, n, mu)
                ell = lambda X, w=w_star, m=mu, nn=n: sign_pm1(X @ w / math.sqrt(nn) - m)
                assert disagreement_exact(ell, nrn.handle(), n) <= rep.bound + 1e-12


class TestCriterion07TailBound:
    def test_criterion_07(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            a = rng.normal(size=n)
            a /= np.linalg.norm(a)
            eps = float(np.max(np.abs(a)))
            proj = cube(n) @ a
            for mu in [0.0, 0.5, 1.0]:
                for u in [0.05, 0.1, 0.3, 0.5, 1.0]:
                    exact = float(np.mean(np.abs(proj - mu) <= u))
                    assert exact <= u * math.sqrt(2.0 / math.pi) + 2.0 * C0 * eps


class TestCriterion08P2Bound:
    def test_criterion_08(self):
        rho = 4.0 * math.pi * C1 / (3.0 * math.sqrt(3.0))
        assert rho == pytest.approx(52.77, abs=0.01)
        rng = np.random.default_rng(108)
        for _ in range(100):
            n = int(rng.integers(8, 13))
            nrn = random_ltf(rng, n)
            est = chow_exact(nrn.handle(), n)
            res = stabilize(nrn, PNorm(2.0), est, mu=0.0)
            sigma = float(np.linalg.norm(res.w_star))
            for mu in [0.0, abs(nrn.theta) / math.sqrt(n)]:
                rep = accuracy_bound_lp(est, PNorm(2.0), mu)
                assert rep.rho == pytest.approx(rho, abs=1e-9)
                ell = lambda X, w=res.w_star, s=sigma, m=mu: sign_pm1(X @ w / s - m)
                assert disagreement_exact(ell, nrn.handle(), n) <= rep.bound + 1e-12


class TestCriterion09JsmaSoundness:
    def test_criterion_09(self):
        rng = np.random.default_rng(109)
        gaps = trials = 0
        for _ in range(40):
            n = int(rng.integers(5, 13))
            w = rng.normal(size=n)
            theta = float(rng.normal() * 0.5)
            net = BinaryMlp(
                w[None, :], np.array([-theta]), Activation.SIGN, np.ones(1), 0.0, fresh_mask(1)
            )
            x = rng.choice([-1.0, 1.0], size=n)
            y = float(net.predict(x[None, :])[0])
            for eps in [2.0, 4.0, 6.0, 8.0]:
                budget = AttackBudget(eps)
                exact = None
                for k in range(1, budget.max_flips + 1):
                    for subset in itertools.combinations(range(n), k):
                        z = x.copy()
                        z[list(subset)] = -z[list(subset)]
                        if float(net.predict(z[None, :])[0]) != y:
                            exact = k
                            break
                    if exact is not None:
                        break
                out = jsma(net, x, y, budget)
                trials += 1
                if out.success:
                    assert exact is not None, "greedy succeeded where brute force proves impossibility"
                elif exact is not None:
                    gaps += 1
        print(f"  greedy suboptimality rate: {gaps}/{trials} = {gaps / trials:.4f}")


# --- shared planted task for criteria 10-12 ----------------------------------

N, T, M_TRAIN, M_VAL, M_TEST = 24, 32, 4000, 500, 500
DATA_SEED, TRAIN_SEED = 1, 1
EPS_GRID = [4.0, 8.0, 12.0]
CHOW = MonteCarloChow(epsilon=0.05, delta=0.01, seed=0)


@pytest.fixture(scope="module")
def planted_task():
    rng = np.random.default_rng(DATA_SEED)
    total = M_TRAIN + M_VAL + M_TEST
    X = (1.0 - 2.0 * rng.integers(0, 2, size=(total, N))).astype(np.float64)
    W1 = rng.normal(size=(8, N))
    b1 = rng.normal(scale=0.5, size=8)
    W2 = rng.normal(size=8)
    y = np.where(np.tanh(X @ W1.T + b1) @ W2 >= 0.0, 1.0, -1.0)
    train = LabeledDataset(X[:M_TRAIN], y[:M_TRAIN])
    val = LabeledDataset(X[M_TRAIN : M_TRAIN + M_VAL], y[M_TRAIN : M_TRAIN + M_VAL], split="validation")
    test = LabeledDataset(X[M_TRAIN + M_VAL :], y[M_TRAIN + M_VAL :], split="test")
    return train, val, test


TRAIN_CFG = TrainConfig(
    width=T, activation=Activation.LOGISTIC, epochs=20, learning_rate=0.5,
    batch_size=64, seed=TRAIN_SEED,
)


@pytest.fixture(scope="module")
def baseline_net(planted_task):
    train, _, _ = planted_task
    return train_sgd(train, TRAIN_CFG)


class TestCriterion10Selection:
    def test_criterion_10(self, planted_task, baseline_net):
        _, val, _ = planted_task
        net = baseline_net
        beta = accuracy(net, val) - 0.02
        cfg = SelectionConfig(beta=beta, p=PNorm(1.0), chow_source=CHOW)
        _, slow = gmb(net, val, cfg)
        _, fast = gmb_fast(net, val, cfg)
        assert fast.accuracy_evaluations <= math.ceil(math.log2(T + 1))  # = 6 at t=32
        prefix_accs = [
            accuracy(stabilize_subset(net, slow.order[:i], PNorm(1.0), CHOW), val)
            for i in range(T + 1)
        ]
        monotone = all(a >= b for a, b in zip(prefix_accs, prefix_accs[1:]))
        if monotone:
            assert fast.accepted == slow.accepted
        # GMBC clamp: unit 1 is disconnected from the head, and the labels
        # follow the stabilized unit 0, so unit 0 has negative raw cost.
        W1 = np.array([[3.0, 1.0, 1.0, 1.0], [1.0, 0.8, 0.8, 0.8]])
        two = BinaryMlp(W1, np.zeros(2), Activation.SIGN, np.array([1.0, 0.0]), 0.0, fresh_mask(2))
        rng = np.random.default_rng(110)
        Xs = rng.choice([-1.0, 1.0], size=(200, 4))
        target = stabilize_subset(two, [0], PNorm(1.0), CHOW)
        vds = LabeledDataset(Xs, target.predict(Xs), split="validation")
        _, trace = gmbc(two, vds, SelectionConfig(beta=0.5, p=PNorm(1.0), chow_source=CHOW))
        step0 = next(s for s in trace.steps if s.index == 0)
        assert step0.delta_a_raw < 0.0
        assert step0.delta_a_clamped == pytest.approx(1.0 / (4.0 * vds.m))
        assert math.isfinite(step0.delta_r / step0.delta_a_clamped)


class TestCriterion11StabilizationTrend:
    def test_criterion_11(self, planted_task, baseline_net):
        _, val, test = planted_task
        net = baseline_net
        beta = accuracy(net, val) - 0.02
        stab, trace = gmb(net, val, SelectionConfig(beta=beta, p=PNorm(1.0), chow_source=CHOW))
        assert trace.accepted, "selection accepted no units"
        strictly_better = False
        for eps in EPS_GRID:
            budget = AttackBudget(eps)
            rb = robust_accuracy(net, test, budget)
            rs = robust_accuracy(stab, test, budget)
            print(f"  eps={eps:g}: baseline robust={rb:.3f}, stabilized robust={rs:.3f}")
            assert rs >= rb, f"stabilization reduced robust accuracy at eps={eps}"
            strictly_better = strictly_better or rs > rb
        assert strictly_better, "no strict robustness improvement at any grid point"


class TestCriterion12AdversarialTrainingComposition:
    def test_criterion_12(self, planted_task):
        train, val, test = planted_task
        net = adversarial_train(train, TRAIN_CFG, AdvTrainConfig(epochs=2, epsilon_l1=20.0))
        beta = accuracy(net, val) - 0.02
        stab, _ = gmb(net, val, SelectionConfig(beta=beta, p=PNorm(1.0), chow_source=CHOW))
        for eps in EPS_GRID:
            budget = AttackBudget(eps)
            rb = robust_accuracy(net, test, budget)
            rs = robust_accuracy(stab, test, budget)
            print(f"  eps={eps:g}: adv-trained robust={rb:.3f}, +stabilization robust={rs:.3f}")
            assert rs >= rb - 0.01, f"stabilization cost more than 0.01 robust accuracy at eps={eps}"


class TestCriterion13Uniformize:
    def test_criterion_13(self):
        from scipy.stats import chi2

        from fourierstab.uniformize import binarize, chi_square_uniformity, fit

        d, m, trials = 5, 100000, 100
        crit = chi2.ppf(0.99, (1 << d) - 1)
        rejections = 0
        for seed in range(trials):
            local = np.random.default_rng(1300 + seed)
            A = local.normal(size=(d, d))
            X = local.normal(size=(m, d)) @ A.T + local.normal(size=d)
            bits = binarize(fit(X), X)
            stat, _ = chi_square_uniformity(bits)
            if stat > crit:
                rejections += 1
        print(f"  chi-square rejections at alpha=0.01: {rejections}/{trials}")
        assert trials - rejections >= 95


class TestCriterion14Determinism:
    def test_criterion_14(self, tmp_path):
        def run(*argv):
            assert cli_main([str(a) for a in argv]) == 0

        outputs = {}
        root = tmp_path / "run"
        root.mkdir()

        def pipeline(tag):
            prefix = root / "data"
            run("gen-data", "--kind", "planted-mlp", "--n", 8, "--train", 200,
                "--val", 100, "--test", 100, "--seed", 5, "--out", prefix)
            model = root / "model.txt"
            run("train", "--data", prefix, "--width", 6, "--epochs", 8, "--seed", 6,
                "--out", model)
            adv = root / "adv.txt"
            run("adv-train", "--data", prefix, "--width", 6, "--epochs", 8, "--seed", 6,
                "--at-epochs", 2, "--at-epsilon", 4.0, "--out", adv)
            chow = root / "chow.csv"
            run("chow", "--model", model, "--unit", 0, "--chow-mode", "mc",
                "--chow-seed", 3, "--out", chow)
            stab = root / "stab.txt"
            run("stabilize", "--model", model, "--units", "all", "--p", "1", "--out", stab)
            sel_model, sel_trace = root / "sel.txt", root / "trace.csv"
            run("select", "--model", model, "--data", prefix, "--algorithm", "gmbc",
                "--beta", 0.6, "--out-model", sel_model, "--out-trace", sel_trace)
            att = root / "attack.csv"
            run("attack", "--model", model, "--data", prefix, "--split", "test",
                "--epsilon", 4.0, "--out", att)
            curve = root / "curve.csv"
            run("eval", "--model", model, "--data", prefix, "--epsilons", "0,4,8",
                "--out", curve)
            bounds = root / "bounds.csv"
            run("bounds", "--model", model, "--unit", 0, "--p", "2", "--mus", "0,0.2",
                "--out", bounds)
            files = [f"data.{s}.csv" for s in ("train", "validation", "test")]
            files += ["model.txt", "adv.txt", "chow.csv", "stab.txt", "sel.txt",
                      "trace.csv", "attack.csv", "curve.csv", "bounds.csv"]
            outputs[tag] = {f: (root / f).read_bytes() for f in files}

        pipeline("first")
        pipeline("second")
        assert outputs["first"] == outputs["second"]
