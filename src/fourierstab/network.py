"""Two-layer fully-connected network over +-1 inputs.

The first layer is the unit of stabilization: unit j realizes the
linear-threshold function with w = W1[j] and theta = -b1[j]. The prediction
statistic, the margin, is the output layer's score minus the activation
midpoint (0.5 for logistic, 0 otherwise), so label = sign(margin) with
sign(0) = +1. Every evaluation of a network goes through BinaryMlp's
preactivation and head, except train_sgd's steps, which work on raw arrays.
"""

from __future__ import annotations

import enum
import itertools
import os
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

import numpy as np

from .errors import DegenerateFunctionError, DimensionError, SchemaError
from .fourier import ChowEstimate, ExactChow, MonteCarloChow
from .neuron import LinearThresholdNeuron, PNorm, norm, sign_pm1, stabilize

ChowSource = Union[ExactChow, MonteCarloChow]


class Activation(enum.Enum):
    SIGN = "sign"
    LOGISTIC = "logistic"
    TANH = "tanh"
    RELU = "relu"

    def apply(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The activation of the array z. With out (numpy's ufunc convention;
        it may be z itself) the result is written there without full-size
        temporaries; sign ignores out."""
        if self is Activation.SIGN:
            return sign_pm1(z)
        if self is Activation.LOGISTIC:
            # 1 / (1 + exp(-z)), one operation at a time in one buffer.
            out = np.negative(z, out=out)
            np.exp(out, out=out)
            out += 1.0
            return np.divide(1.0, out, out=out)
        if self is Activation.TANH:
            return np.tanh(z, out=out)
        return np.maximum(z, 0.0, out=out)

    def derivative(self, a: np.ndarray) -> np.ndarray:
        """d act/dz at the z whose activation is a (sign has none); for relu,
        a > 0 exactly when z > 0."""
        if self is Activation.LOGISTIC:
            return a * (1.0 - a)
        if self is Activation.TANH:
            return 1.0 - a * a
        if self is Activation.RELU:
            return (a > 0.0).astype(np.float64)
        raise ValueError("sign activation has no usable derivative")

    @property
    def midpoint(self) -> float:
        return 0.5 if self is Activation.LOGISTIC else 0.0


@dataclass(frozen=True)
class BinaryMlp:
    W1: np.ndarray  # (t, n)
    b1: np.ndarray  # (t,)
    act: Activation
    W2: np.ndarray  # (t,)
    b2: float
    stabilized_mask: np.ndarray  # (t,) bool
    seed_lineage: str = ""

    def __post_init__(self):
        W1 = np.asarray(self.W1, dtype=np.float64)
        object.__setattr__(self, "W1", W1)
        object.__setattr__(self, "b1", np.asarray(self.b1, dtype=np.float64))
        object.__setattr__(self, "W2", np.asarray(self.W2, dtype=np.float64))
        object.__setattr__(self, "stabilized_mask", np.asarray(self.stabilized_mask, dtype=bool))
        t, n = W1.shape
        if self.b1.shape != (t,) or self.W2.shape != (t,) or self.stabilized_mask.shape != (t,):
            raise DimensionError("inconsistent layer shapes")
        if not all(np.isfinite(a).all() for a in (W1, self.b1, self.W2, self.b2)):
            raise ValueError("non-finite weight")

    @property
    def n(self) -> int:
        return self.W1.shape[1]

    @property
    def t(self) -> int:
        return self.W1.shape[0]

    def preactivation(self, X: np.ndarray) -> np.ndarray:
        """X @ W1.T + b1 in the matmul's own result, which the caller may
        overwrite: fresh multi-megabyte temporaries per forward pass would
        otherwise dominate the greedy attack."""
        Z = X @ self.W1.T
        Z += self.b1
        return Z

    def hidden(self, X: np.ndarray) -> np.ndarray:
        """Hidden activations, for a batch or one input, in the pre-activations' buffer."""
        Z = self.preactivation(X)
        return self.act.apply(Z, out=Z)

    def head(self, A: np.ndarray) -> np.ndarray:
        """Margin of hidden activations A: A @ W2 + b2 minus the activation midpoint."""
        return A @ self.W2 + self.b2 - self.act.midpoint

    def margin(self, X: np.ndarray) -> np.ndarray:
        """The head of the hidden activations; label = sign(margin)."""
        return self.head(self.hidden(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.n:
            raise DimensionError(f"input dimension {X.shape[-1]} != {self.n}")
        return sign_pm1(self.margin(X))


def fresh_mask(t: int) -> np.ndarray:
    return np.zeros(t, dtype=bool)


def check_pm1(a: np.ndarray, what: str) -> None:
    """Raise ValueError unless every entry of a is exactly +1 or -1."""
    if not np.all(np.abs(a) == 1.0):
        raise ValueError(f"{what} must be exactly +-1")


@dataclass(frozen=True)
class LabeledDataset:
    X: np.ndarray  # (m, n) entries in {-1, +1}
    y: np.ndarray  # (m,) labels in {-1, +1}
    split: str = "train"

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("X must be a nonempty matrix")
        if y.shape != (X.shape[0],):
            raise DimensionError("label count does not match example count")
        check_pm1(X, "features")
        check_pm1(y, "labels")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    width: int
    activation: Activation
    epochs: int
    learning_rate: float
    batch_size: int
    seed: int


def _logistic_loss_grad(margin: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d/d margin of log(1 + exp(-y*margin))."""
    return -y / (1.0 + np.exp(y * margin))


def train_sgd(data: LabeledDataset, cfg: TrainConfig, perturb=None) -> BinaryMlp:
    """Logistic-loss SGD with backpropagation; deterministic given cfg.seed.

    Sign activation is trained through a tanh surrogate and snapped to sign
    after the last step. perturb, when given, maps (net, Xb, yb) to a
    replacement batch before each gradient step (adversarial training hook).
    """
    if data.m < 1:
        raise ValueError("training split is empty")
    n, t = data.n, cfg.width
    rng = np.random.default_rng(cfg.seed)
    W1 = rng.normal(0.0, 1.0 / np.sqrt(n), size=(t, n))
    b1 = np.zeros(t)
    W2 = rng.normal(0.0, 1.0 / np.sqrt(t), size=t)
    b2 = 0.0
    act = Activation.TANH if cfg.activation is Activation.SIGN else cfg.activation
    mid = act.midpoint
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        order = rng.permutation(data.m)
        for start in range(0, data.m, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            Xb, yb = data.X[sel], data.y[sel]
            if perturb is not None:
                net = BinaryMlp(W1, b1, act, W2, b2, fresh_mask(t))
                Xb = perturb(net, Xb, yb)
            B = Xb.shape[0]
            A = act.apply(Xb @ W1.T + b1)
            g = _logistic_loss_grad(A @ W2 + b2 - mid, yb)
            dZ = (g[:, None] * W2[None, :]) * act.derivative(A)
            W2 = W2 - lr * (g @ A) / B
            b2 = b2 - lr * float(g.mean())
            W1 = W1 - lr * (dZ.T @ Xb) / B
            b1 = b1 - lr * dZ.mean(axis=0)
    return BinaryMlp(
        W1=W1,
        b1=b1,
        act=cfg.activation,
        W2=W2,
        b2=b2,
        stabilized_mask=fresh_mask(t),
        seed_lineage=f"train:seed={cfg.seed}",
    )


def first_layer_ltf(net: BinaryMlp, j: int) -> LinearThresholdNeuron:
    """Unit j as a linear-threshold function: w = W1[j], theta = -b1[j]; a zero row is degenerate."""
    if not 0 <= j < net.t:
        raise DimensionError(f"unit index {j} out of range for width {net.t}")
    return LinearThresholdNeuron(net.W1[j].copy(), -float(net.b1[j]))


def unit_chow(net: BinaryMlp, j: int, source: ChowSource) -> ChowEstimate:
    """The Chow parameters of unit j from source, keyed by j, so that a
    Monte-Carlo source draws unit j's own stream in every command."""
    return source.estimate(first_layer_ltf(net, j).handle(), net.n, key=j)


# stabilize_subset's rescale modes; the first is the default.
RESCALE_MODES = ("none", "match-qnorm")


def stabilize_subset(
    net: BinaryMlp,
    S: Iterable[int],
    p: PNorm,
    chow_source: Optional[ChowSource] = None,
    rescale: str = "none",
) -> BinaryMlp:
    """Replace the weights of the first-layer units in S by their stabilized
    analogs; biases are untouched under rescale="none".

    rescale="match-qnorm" multiplies each replacement (w*, theta) by the
    original ||w||_q so the pre-activation scale is preserved for saturating
    activations. Degenerate units (zero row or zero coefficient vector) are
    skipped with a warning.
    """
    if rescale not in RESCALE_MODES:
        raise ValueError(f"unknown rescale mode {rescale!r}")
    if p.p != 1.0 and chow_source is None:
        raise ValueError("p > 1 stabilization requires a chow_source")
    W1 = net.W1.copy()
    b1 = net.b1.copy()
    mask = net.stabilized_mask.copy()
    for j in sorted(set(int(j) for j in S)):
        try:
            ltf = first_layer_ltf(net, j)
            chow = None if p.p == 1.0 else unit_chow(net, j, chow_source)
            res = stabilize(ltf, p, chow, mu=ltf.theta)
        except DegenerateFunctionError as exc:
            warnings.warn(f"unit {j} is degenerate ({exc}); skipped")
            continue
        scale = norm(ltf.w, p.q) if rescale == "match-qnorm" else 1.0
        W1[j] = res.w_star * scale
        b1[j] = -ltf.theta * scale
        mask[j] = True
    return replace(net, W1=W1, b1=b1, stabilized_mask=mask)


def accuracy(net: BinaryMlp, data: LabeledDataset) -> float:
    if data.n != net.n:
        raise DimensionError(f"dataset dimension {data.n} != model dimension {net.n}")
    return float(np.mean(net.predict(data.X) == data.y))


# --- text format -------------------------------------------------------------
# Every file the package writes: an optional first line (the CLI's '# config:'),
# then the body. A document is a '# <tag>' line and key=value lines; vectors are
# comma-separated, and 17 significant digits read every float64 back exactly.

_FMT = "%.17g"


def fmt_vec(v) -> str:
    """A number, or the numbers of a vector joined by commas, at 17 significant digits."""
    return ",".join(_FMT % x for x in np.asarray(v, dtype=np.float64).ravel())


def floats(text: str) -> np.ndarray:
    """The numbers of a comma-separated vector field; a bad cell raises ValueError."""
    return np.array([float(x) for x in text.split(",")])


def write_lines(path, lines: Iterable[str], header: Optional[str] = None) -> None:
    """Write each line followed by a newline, after header when given; every
    file the package writes is written here. The text goes to a temporary file
    in the same directory that replaces path once complete, so an exception
    leaves the old file, or none. A symlink at path is followed, so its target
    is replaced; an existing file gets the permissions of a new one."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            if header is not None:
                fh.write(header + "\n")
            fh.writelines(ln + "\n" for ln in lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_document(path, tag: str, fields: dict, header: Optional[str] = None) -> None:
    """A '# <tag>' line, then one key=value line per field in order."""
    write_lines(path, [f"# {tag}", *(f"{k}={v}" for k, v in fields.items())], header)


def read_lines(path):
    """Yield a text file's lines without newlines, after the leading '# config:'
    provenance lines that CLI outputs carry; bytes that are not text raise SchemaError."""
    try:
        with open(path) as fh:
            lines = (ln.rstrip("\n") for ln in fh)
            yield from itertools.dropwhile(lambda ln: ln.startswith("# config:"), lines)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file ({exc})") from exc


def read_document(path, tag: str) -> dict:
    """The fields of a document written by write_document with this tag."""
    lines = list(read_lines(path))
    if not lines or lines[0] != f"# {tag}":
        raise SchemaError(f"{path}: missing '# {tag}' header")
    return dict(ln.partition("=")[::2] for ln in lines[1:] if ln)


def save_model(net: BinaryMlp, path, header: Optional[str] = None) -> None:
    """The 'binary-mlp v1' document of net; header, when given, is the first line."""
    fields = {"n": net.n, "t": net.t, "activation": net.act.value, "seed_lineage": net.seed_lineage}
    fields.update((k, fmt_vec(getattr(net, k))) for k in ("b2", "W2", "b1"))
    fields["stabilized_mask"] = ",".join("1" if b else "0" for b in net.stabilized_mask)
    fields.update((f"W1.{j}", fmt_vec(row)) for j, row in enumerate(net.W1))
    write_document(path, "binary-mlp v1", fields, header)


def load_model(path) -> BinaryMlp:
    kv = read_document(path, "binary-mlp v1")
    try:
        n, t = int(kv["n"]), int(kv["t"])
        act = Activation(kv["activation"])
        b2, W2, b1 = float(kv["b2"]), floats(kv["W2"]), floats(kv["b1"])
        mask = np.array([{"0": False, "1": True}[c] for c in kv["stabilized_mask"].split(",")])
        W1 = np.array([floats(kv[f"W1.{j}"]) for j in range(t)])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model document ({exc})") from exc
    if W1.shape != (t, n):
        raise SchemaError(f"{path}: W1 shape {W1.shape} != ({t}, {n})")
    try:
        return BinaryMlp(W1, b1, act, W2, b2, mask, seed_lineage=kv.get("seed_lineage", ""))
    except ValueError as exc:
        raise SchemaError(f"{path}: invalid model ({exc})") from exc


def save_dataset(ds: LabeledDataset, path, header: Optional[str] = None) -> None:
    """CSV after an optional header line: 'n=<n>', then n +-1 feature columns and one label column."""
    rows = (",".join(["+1" if v > 0 else "-1" for v in x.tolist() + [label]]) for x, label in zip(ds.X, ds.y))
    write_lines(path, itertools.chain([f"n={ds.n}"], rows), header)


def load_dataset(path, split: str = "train") -> LabeledDataset:
    lines = read_lines(path)
    header = next(lines, "").strip()
    if not header.startswith("n="):
        raise SchemaError(f"{path}: expected 'n=<n>' header, got {header!r}")
    try:
        n = int(header[2:])
    except ValueError as exc:
        raise SchemaError(f"{path}: bad header {header!r}") from exc
    rows, labels = [], []
    for lineno, ln in enumerate(lines, start=2):
        ln = ln.strip()
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != n + 1:
            raise SchemaError(f"{path}:{lineno}: expected {n + 1} columns, got {len(cells)}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: non-numeric cell") from exc
        rows.append(vals[:n])
        labels.append(vals[n])
    if not rows:
        raise SchemaError(f"{path}: dataset has no examples")
    try:
        return LabeledDataset(np.array(rows), np.array(labels), split=split)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
