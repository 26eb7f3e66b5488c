import numpy as np
import pytest
from hypothesis import strategies as st

from fourierstab.neuron import LinearThresholdNeuron


def majority3(X):
    X = np.asarray(X, dtype=np.float64)
    return np.where(X.sum(axis=1) >= 0.0, 1.0, -1.0)


def dictator(i):
    def f(X):
        return np.asarray(X, dtype=np.float64)[:, i]

    return f


def constant(c):
    def f(X):
        return np.full(np.asarray(X).shape[0], float(c))

    return f


def random_ltf(rng, n, zero_free=True, with_bias=True):
    """A random neuron with no zero weights (generic position)."""
    while True:
        w = rng.normal(size=n)
        if not zero_free or np.all(np.abs(w) > 1e-3):
            break
    theta = rng.normal(scale=0.5) if with_bias else 0.0
    return LinearThresholdNeuron(w, theta)


def ltf_units(n, kind):
    """Hypothesis strategy for threshold units on n inputs: Gaussian weights and
    threshold, one-decimal weights and threshold (sums that are ties in decimal
    land within a rounding error of 0), the weights (0.1, 0.2, 0.3, -0.6) tiled
    to n, permuted and sign-flipped, with a one-decimal threshold (such ties on
    a large share of the cube), the same with a pair +-2^40 among the weights
    (which cancel on half the cube, and whose exact sums need more than 64
    bits), or +-1 weights with an integer threshold (exact sums, ties wherever
    x.w = theta)."""
    tenths = st.integers(-10, 10).map(lambda k: k / 10)
    if kind == "gaussian":
        return st.integers(0, 2**32 - 1).map(np.random.default_rng).map(
            lambda g: LinearThresholdNeuron(g.normal(size=n), float(g.normal(scale=0.5))))
    if kind == "one-decimal":
        weights = st.lists(tenths, min_size=n, max_size=n).filter(any)
        return st.builds(LinearThresholdNeuron, weights.map(np.array), tenths)
    if kind in ("tiled", "cancelling"):
        tiled = np.resize([0.1, 0.2, 0.3, -0.6], n)
        if kind == "cancelling":
            tiled[:2] = [2.0**40, -(2.0**40)][:n]
        flips = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
        weights = st.builds(lambda order, flip: tiled[order] * flip, st.permutations(range(n)), flips)
        return st.builds(LinearThresholdNeuron, weights, tenths)
    if kind == "pm1":
        weights = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
        return st.builds(LinearThresholdNeuron, weights.map(np.array), st.integers(-n - 1, n + 1).map(float))
    raise ValueError(kind)


LTF_KINDS = ("gaussian", "one-decimal", "tiled", "cancelling", "pm1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_CRITERION_DESCRIPTIONS = {
    1: "coefficient-side inner products and Parseval sums match enumeration",
    2: "coefficient signs follow weights; |h_i| equals influence",
    3: "closed-form point-to-boundary distance matches projection oracles",
    4: "stabilized weights attain the analytic optimum and beat competitors",
    5: "normalized original <= analytic value <= stabilized robustness",
    6: "alpha(mu) matches direct expectation; p=1 bound is sound",
    7: "small-ball tail probabilities respect the C0 bound",
    8: "p=2 bound is sound; rho matches its closed form",
    9: "greedy attack never succeeds where brute force proves impossibility",
    10: "fast prefix search matches greedy selection within its eval budget",
    11: "stabilization does not hurt and strictly helps robust accuracy",
    12: "stabilization after adversarial training costs <= 0.01 robust accuracy",
    13: "binarized Gaussian features pass the chi-square uniformity gate",
    14: "every CLI command reproduces byte-identical outputs",
}


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per numbered acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    import re

    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    verdict = "PASS" if report.passed else "FAIL"
    desc = _CRITERION_DESCRIPTIONS.get(num, "")
    print(f"\nCRITERION {num:02d} {verdict}: {desc}")
