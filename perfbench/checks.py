"""Output checks that use only numpy and the benchmark's own readers.

Nothing here imports fourierstab: models, datasets and reports are parsed
from the files a command wrote, and predictions, Chow coefficients and
stabilized rows are recomputed independently, so a wrong answer from the
program cannot also fool its own check.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# name -> (activation, midpoint subtracted from the score before taking the sign)
_ACTIVATIONS = {
    "logistic": (lambda z: 1.0 / (1.0 + np.exp(-z)), 0.5),
    "tanh": (np.tanh, 0.0),
    "relu": (lambda z: np.maximum(z, 0.0), 0.0),
    "sign": (lambda z: np.where(z >= 0.0, 1.0, -1.0), 0.0),
}


class CheckError(Exception):
    """An output is missing, unparsable or wrong."""


@dataclass(frozen=True)
class Model:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: float
    act: str
    mask: np.ndarray

    @property
    def t(self) -> int:
        return self.W1.shape[0]

    @property
    def n(self) -> int:
        return self.W1.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Same operations, in the same order, as the program's forward pass."""
        fn, mid = _ACTIVATIONS[self.act]
        margin = fn(X @ self.W1.T + self.b1) @ self.W2 + self.b2 - mid
        return np.where(margin >= 0.0, 1.0, -1.0)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == y))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _body(path: Path) -> list[str]:
    """Lines of a CLI output without its '# config:' provenance header."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path}: cannot read ({exc})") from exc
    if not lines or not lines[0].startswith("# config: cmd="):
        raise CheckError(f"{path}: missing '# config:' header")
    return lines[1:]


def read_model(path: Path) -> Model:
    body = _body(path)
    if not body or body[0] != "# binary-mlp v1":
        raise CheckError(f"{path}: not a binary-mlp document")
    kv = dict(ln.partition("=")[::2] for ln in body[1:] if ln)
    try:
        t, n = int(kv["t"]), int(kv["n"])
        vec = lambda key: np.array(kv[key].split(","), dtype=np.float64)
        model = Model(
            W1=np.array([vec(f"W1.{j}") for j in range(t)]).reshape(t, n),
            b1=vec("b1"),
            W2=vec("W2"),
            b2=float(kv["b2"]),
            act=kv["activation"],
            mask=np.array([c == "1" for c in kv["stabilized_mask"].split(",")]),
        )
    except (KeyError, ValueError) as exc:
        raise CheckError(f"{path}: malformed model ({exc})") from exc
    if model.act not in _ACTIVATIONS or model.b1.shape != (t,) or model.W2.shape != (t,):
        raise CheckError(f"{path}: inconsistent model")
    if model.mask.shape != (t,) or not all(np.all(np.isfinite(a)) for a in (model.W1, model.b1, model.W2)):
        raise CheckError(f"{path}: inconsistent or non-finite model")
    return model


def read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    body = _body(path)
    if not body or not body[0].startswith("n="):
        raise CheckError(f"{path}: missing 'n=' header")
    n = int(body[0][2:])
    try:
        data = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckError(f"{path}: unparsable rows ({exc})") from exc
    if data.shape[1] != n + 1 or not np.all(np.abs(data) == 1.0):
        raise CheckError(f"{path}: expected {n + 1} columns of +-1")
    return data[:, :n], data[:, n]


def read_table(path: Path, header: str) -> list[list[str]]:
    """Rows of a CSV report; '#' lines after the column header are skipped."""
    body = _body(path)
    if not body or body[0] != header:
        raise CheckError(f"{path}: expected column header {header!r}")
    return [ln.split(",") for ln in body[1:] if ln and not ln.startswith("#")]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- independent reference for Chow coefficients and stabilization ----------


def cube(n: int) -> np.ndarray:
    """All of {-1,+1}^n, one row per point."""
    idx = np.arange(1 << n, dtype=np.int64)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


def _lp(v: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(v)))
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _dual(p: float) -> float:
    return math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)


def unit_chow_exact(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """(h_empty, h) of every first-layer unit by full enumeration."""
    X = cube(model.n)
    F = np.stack([np.where(X @ model.W1[j] + model.b1[j] >= 0.0, 1.0, -1.0) for j in range(model.t)])
    return F.mean(axis=1), (F @ X) / X.shape[0]


def unit_chow_mc(model: Model, epsilon: float, delta: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(h_empty, h) of every unit from the per-unit sampling streams that
    `--chow-mode mc` documents: SeedSequence(seed, spawn_key=(unit,))."""
    m = math.ceil(math.log(2.0 * (model.n + 1) / delta) / (2.0 * epsilon**2))
    h_empty, h = np.empty(model.t), np.empty((model.t, model.n))
    for j in range(model.t):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        X = (1.0 - 2.0 * rng.integers(0, 2, size=(m, model.n))).astype(np.float64)
        f = np.where(X @ model.W1[j] + model.b1[j] >= 0.0, 1.0, -1.0)
        h_empty[j], h[j] = f.mean(), (f @ X) / m
    return h_empty, h


def stabilized_rows(model: Model, h: np.ndarray, p: float) -> np.ndarray:
    """The closed-form replacement row of every unit; a degenerate unit
    (zero coefficient vector, p > 1) keeps its row."""
    rows = model.W1.copy()
    for j in range(model.t):
        if p == 1.0:
            rows[j] = np.sign(model.W1[j])
        elif np.any(h[j] != 0.0):
            if math.isinf(p):
                rows[j] = 0.0
                i = int(np.argmax(np.abs(h[j])))
                rows[j, i] = math.copysign(1.0, h[j, i])
            else:
                rows[j] = np.sign(h[j]) * (np.abs(h[j]) / _lp(h[j], p)) ** (p - 1.0)
    return rows


def gain_order(model: Model, h: np.ndarray, p: float) -> np.ndarray:
    """Units by descending proxy gain ||h||_p - w.h/||w||_q, ties by index."""
    gains = np.array(
        [
            _lp(h[j], p) - float(model.W1[j] @ h[j]) / _lp(model.W1[j], _dual(p)) if np.any(h[j] != 0.0) else 0.0
            for j in range(model.t)
        ]
    )
    return np.lexsort((np.arange(model.t), -gains))


def prefix_accuracies(model: Model, rows: np.ndarray, order, X, y) -> np.ndarray:
    """Validation accuracy with the first i units of `order` replaced, i = 0..t."""
    accs = [model.accuracy(X, y)]
    W1 = model.W1.copy()
    for j in order:
        W1[j] = rows[j]
        accs.append(Model(W1, model.b1, model.W2, model.b2, model.act, model.mask).accuracy(X, y))
    return np.array(accs)


def pinned_beta(accs: np.ndarray, target: int) -> tuple[float, int] | None:
    """A floor under which greedy-by-gain keeps exactly k units, k as close
    to `target` as the accuracy curve allows; None when no prefix ever
    falls below all shorter ones (then no floor binds)."""
    run_min = np.minimum.accumulate(accs)
    stops = [k for k in range(len(accs) - 1) if accs[k + 1] < run_min[k]]
    if not stops:
        return None
    k = min(stops, key=lambda s: (abs(s - target), s))
    return float((accs[k + 1] + run_min[k]) / 2.0), k


# --- per-command checks -------------------------------------------------------


def check_dataset(prefix: Path, splits: dict[str, int], n: int) -> None:
    for split, rows in splits.items():
        X, _ = read_dataset(Path(f"{prefix}.{split}.csv"))
        require(X.shape == (rows, n), f"{prefix}.{split}.csv: shape {X.shape} != ({rows}, {n})")


def check_uniformized(prefix: Path, rows: int, d: int) -> None:
    X, _ = read_dataset(Path(f"{prefix}.train.csv"))
    require(X.shape == (rows, d), f"{prefix}.train.csv: shape {X.shape} != ({rows}, {d})")
    # Thresholding each decorrelated coordinate at its mean halves a Gaussian.
    worst = float(np.max(np.abs(X.mean(axis=0))))
    require(worst <= 5.0 / math.sqrt(rows), f"uniformized bits are unbalanced (|mean| {worst:.4f})")
    lines = Path(f"{prefix}.covmodel.txt").read_text().splitlines()
    require(lines[:2] == ["# covariance-model v1", f"d={d}"], "malformed covariance model")
    kv = dict(ln.partition("=")[::2] for ln in lines[2:])
    U = np.array([kv[f"U.{j}"].split(",") for j in range(d)], dtype=np.float64)
    require(np.allclose(U.T @ U, np.eye(d), atol=1e-9), "eigenvector matrix is not orthogonal")


def check_trained(model_path: Path, data_prefix: Path, width: int, stdout: str) -> Model:
    model = read_model(model_path)
    X, y = read_dataset(Path(f"{data_prefix}.train.csv"))
    require(model.W1.shape == (width, X.shape[1]), f"model shape {model.W1.shape}")
    require(not model.mask.any(), "a freshly trained model has stabilized units")
    printed = float(stdout.split("train accuracy ")[1].split(";")[0])
    own = model.accuracy(X, y)
    require(abs(printed - own) <= 5e-7, f"printed train accuracy {printed} != recomputed {own}")
    return model


def check_stabilized(out: Model, base: Model, rows: np.ndarray) -> None:
    """Stabilized units carry the reference rows, the rest are untouched."""
    require(out.W1.shape == base.W1.shape, "stabilized model changed shape")
    for arr, ref, what in ((out.b1, base.b1, "b1"), (out.W2, base.W2, "W2")):
        require(np.array_equal(arr, ref), f"{what} changed")
    require(out.b2 == base.b2 and out.act == base.act, "head changed")
    m = out.mask
    require(np.array_equal(out.W1[~m], base.W1[~m]), "an unstabilized unit changed")
    require(np.allclose(out.W1[m], rows[m], rtol=1e-12, atol=1e-15), "a stabilized row differs from the closed form")


def check_selected(model_path, trace_path, base: Model, rows, val, beta: float, stdout: str, keep=None) -> Model:
    out = read_model(Path(model_path))
    check_stabilized(out, base, rows)
    acc = out.accuracy(*val)
    require(acc >= beta, f"selected model accuracy {acc} < beta {beta}")
    summary = [ln for ln in Path(trace_path).read_text().splitlines() if ln.startswith("# summary ")]
    require(len(summary) == 1, "trace has no summary line")
    fields = dict(kv.split("=") for kv in summary[0].split()[2:])
    accepted = int(fields["accepted"])
    require(accepted == int(out.mask.sum()), f"trace accepted {accepted} != stabilized units {int(out.mask.sum())}")
    require(f"accepted {accepted}/{base.t} units" in stdout, "printed accepted count differs from the trace")
    if keep is not None:
        require(accepted == keep, f"accepted {accepted} units, the replayed gain order predicts {keep}")
    return out


def check_chow(path: Path, h_empty: float, h: np.ndarray) -> None:
    table = read_table(path, "coefficient,value")
    values = np.array([float(r[1]) for r in table])
    require(values.shape == (h.size + 1,), "wrong number of coefficients")
    require(np.allclose(values, np.concatenate([[h_empty], h]), rtol=0.0, atol=1e-12), "coefficients differ from enumeration")


def check_bounds(path: Path, mus: int) -> None:
    table = read_table(path, "mu,gamma,bound,bound_clamped,epsilon_be,sigma,e_mu,alpha")
    require(len(table) == mus, f"expected {mus} bound rows, got {len(table)}")
    for row in table:
        mu, gamma, bound, clamped, eps = (float(v) for v in row[:5])
        require(all(math.isfinite(v) for v in (mu, gamma, bound, clamped, eps)), "non-finite bound")
        require(gamma >= 0.0 and bound >= 0.0 and clamped == min(bound, 1.0), f"inconsistent bound row {row}")


def check_eval(path: Path, model: Model, test, epsilons: list[float]) -> None:
    table = read_table(path, "epsilon,clean_accuracy,robust_accuracy,mean_l1_cost_success")
    require([float(r[0]) for r in table] == epsilons, "epsilon grid differs")
    clean = model.accuracy(*test)
    previous = clean
    for eps, c, r, _ in ((float(v) for v in row) for row in table):
        require(c == clean, f"clean accuracy {c} != recomputed {clean}")
        require(r <= previous, f"robust accuracy rises to {r} at epsilon {eps:g}")
        require(eps >= 2.0 or r == clean, "robust accuracy without a flip budget differs from clean")
        previous = r


def check_attack(path: Path, model: Model, test, epsilon: float) -> None:
    X, y = test
    table = read_table(path, "example,true_label,clean_label,success,l1_cost,flips")
    require(len(table) == X.shape[0], "attack table has the wrong number of rows")
    clean = model.predict(X)
    budget = int(math.floor(epsilon / 2.0))
    flipped, last_undone = X.copy(), X.copy()
    success = np.zeros(len(table), dtype=bool)
    for i, (ex, true, label, ok, cost, flips) in enumerate(table):
        f = [int(v) for v in flips.split(";")] if flips else []
        require(int(ex) == i and float(true) == y[i] and float(label) == clean[i], f"row {i}: labels differ")
        require(float(cost) == 2.0 * len(f) <= epsilon, f"row {i}: l1_cost {cost} for {len(f)} flips")
        require(len(set(f)) == len(f), f"row {i}: a coordinate is flipped twice")
        success[i] = ok == "1"
        require(success[i] or len(f) == min(budget, X.shape[1]), f"row {i}: failed before the budget ran out")
        flipped[i, f] *= -1.0
        last_undone[i, f[:-1]] *= -1.0
    after = model.predict(flipped)
    require(np.all((after != clean) == success), "replaying the flips disagrees with the success column")
    before_last = model.predict(last_undone[success])
    require(np.all(before_last == clean[success]), "an attack kept flipping after the label changed")
