"""Greedy bit-flip evasion attack on +-1 inputs and the training loop that
hardens against it.

Impact is measured by one-flip forward evaluation of the logistic loss rather
than a gradient saliency map: models here are small enough that the forward
version is cheap, and it sidesteps the gradient-vs-discrete mismatch. Flipping
x_i adds -2*x_i*W1[:, i] to every unit's pre-activation, so a variant's
pre-activations are the row's own plus one column of W1, not a matmul of the
flipped row; they can differ from that matmul in the last bits. Whether a
flip changes the prediction is still decided by a forward pass of the
flipped row. A bit flip costs FLIP_L1_COST = 2 in l1, so a budget epsilon
allows floor(epsilon/2) flips.

The greedy attack splits its rows into blocks that share nothing and runs them
on every CPU of the process's affinity mask, one thread a CPU; each block's
arithmetic is the same on any thread, so results do not depend on the CPU
count, and memory is one block's variant buffer per thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError
from .fourier import check_pm1
from .network import BinaryMlp, LabeledDataset, TrainConfig, train_sgd

# The l1 distance between two +-1 vectors that differ in one coordinate.
FLIP_L1_COST = 2.0


@dataclass(frozen=True)
class AttackBudget:
    epsilon_l1: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon_l1) and self.epsilon_l1 >= 0.0):
            raise ValueError(f"epsilon_l1 must be finite and >= 0, got {self.epsilon_l1}")

    @property
    def max_flips(self) -> int:
        return int(math.floor(self.epsilon_l1 / FLIP_L1_COST))


@dataclass(frozen=True)
class AttackOutcome:
    success: bool
    flips: tuple[int, ...]
    l1_cost: float
    final_label: float


# Single-flip variants evaluated per chunk of rows: a chunk holds
# _CHUNK_VARIANTS // n rows, so peak memory stays bounded whatever the batch.
_CHUNK_VARIANTS = 4096

# Threads that run greedy_flips' row blocks: the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _on_every_cpu(fn, items) -> None:
    """Call fn(item) for every item of a sequence; calls on different items must
    share nothing that needs a lock.

    The calling thread and w - 1 started threads, w = min(_WORKERS, len(items)),
    take the items round-robin; with one item no thread starts. Each started
    thread runs in a copy of the caller's context, where numpy keeps its errstate.
    An exception in any of them is raised here once all have finished.
    """
    w = max(1, min(_WORKERS, len(items)))
    errors = []

    def work(share) -> None:
        try:
            for item in share:
                fn(item)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, items[i::w])) for i in range(1, w)]
    for thread in threads:
        thread.start()
    work(items[0::w])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _impacts(net: BinaryMlp, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Loss increase from flipping each single coordinate of each +-1 row of X.

    Every unit's pre-activation in every single-flip variant is the row's own
    P = net.preactivation(X) plus -2*x_i*W1[:, i], taken from a (2n, t) table
    by the sign of x_i: one (m, n, t) buffer, filled, shifted by P and
    activated in place. Both margins come from net.head.
    """
    m, n = X.shape
    P = net.preactivation(X)
    W = 2.0 * net.W1.T
    V = np.take(np.concatenate([-W, W]), np.arange(n) + n * (X < 0.0), axis=0)
    V += P[:, None, :]
    V = net.act.apply(V, out=V)
    variant = net.head(V.reshape(m * n, net.t)).reshape(m, n)
    base = net.head(net.act.apply(P, out=P))
    return np.logaddexp(0.0, -y[:, None] * variant) - np.logaddexp(0.0, -y * base)[:, None]


def flip_impact(net: BinaryMlp, x, y: float) -> np.ndarray:
    """Loss increase from flipping each single coordinate of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.n,):
        raise DimensionError(f"x has shape {x.shape}, expected ({net.n},)")
    check_pm1(x, "features")
    return _impacts(net, x[None, :], np.array([y], dtype=np.float64))[0]


def greedy_flips(net: BinaryMlp, X, y, k: int, clean=None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy highest-impact bit-flip path of every row of X against labels y.

    Each round flips, in every row, the not yet flipped coordinate whose
    single flip raises the loss most, ties toward the lowest index, for
    min(k, n) rounds; a path to k flips serves every smaller budget. Returns
    (order, changed): order[i] is row i's flip sequence, padded with -1 once
    the row stops. Given clean, the +-1 predictions of X's rows, row i stops
    at the first flip after which its prediction differs from clean[i], and
    changed[i] is that flip's number, 0 if none; without it changed is all 0.
    Blocks of _CHUNK_VARIANTS // n rows run in parallel on every CPU of the
    affinity mask, each with its own variant buffer of about 8 * _CHUNK_VARIANTS
    * t bytes; the outputs are the same on any number of CPUs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.n:
        raise DimensionError(f"X has shape {X.shape}, expected (m, {net.n})")
    check_pm1(X, "features")
    m, n = X.shape
    clean = None if clean is None else np.asarray(clean, dtype=np.float64)
    for name, a in (("y", y), ("clean", clean)):
        if a is not None and a.shape != (m,):
            raise DimensionError(f"{name} has shape {a.shape}, expected ({m},)")
    rounds = max(0, min(k, n))
    order = np.full((m, rounds), -1, dtype=np.intp)
    changed = np.zeros(m, dtype=np.intp)
    step = max(1, _CHUNK_VARIANTS // n)

    def block(lo: int) -> None:
        Z, yc = X[lo : lo + step].copy(), y[lo : lo + step]
        flipped = np.zeros(Z.shape, dtype=bool)
        live = np.arange(len(Z))
        for r in range(rounds):
            impacts = _impacts(net, Z[live], yc[live])
            impacts[flipped[live]] = -np.inf
            best = np.argmax(impacts, axis=1)
            Z[live, best] = -Z[live, best]
            flipped[live, best] = True
            order[lo + live, r] = best
            if clean is not None:
                first = net.predict(Z[live]) != clean[lo + live]
                changed[lo + live[first]] = r + 1
                live = live[~first]
                if not live.size:
                    return

    _on_every_cpu(block, range(0, m, step))
    return order, changed


def jsma(net: BinaryMlp, x, y: float, budget: AttackBudget) -> AttackOutcome:
    """Greedy highest-impact bit flipping until the model's own prediction
    changes or the budget is exhausted; coordinates are never re-flipped,
    ties break toward the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    clean = net.predict(x[None, :])
    order, changed = greedy_flips(net, x[None, :], [y], budget.max_flips, clean)
    flips = order[0][order[0] >= 0]
    label = -float(clean[0]) if changed[0] else float(clean[0])
    return AttackOutcome(bool(changed[0]), tuple(int(i) for i in flips), FLIP_L1_COST * len(flips), label)


def jsma_maxloss_batch(net: BinaryMlp, X: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Flip exactly min(k, n) coordinates of every row in greedy impact
    order, regardless of misclassification; returns the perturbed inputs."""
    order, _ = greedy_flips(net, X, y, k)
    Z = np.array(X, dtype=np.float64)
    np.put_along_axis(Z, order, -np.take_along_axis(Z, order, axis=1), axis=1)
    return Z


def robust_accuracy(net: BinaryMlp, data: LabeledDataset, budget: AttackBudget) -> float:
    """Fraction of examples both correctly classified clean and unbroken by
    the greedy attack within budget."""
    return attack_curve(net, data, [budget.epsilon_l1])[0][2]


def attack_curve(net: BinaryMlp, data: LabeledDataset, epsilons) -> list[tuple[float, float, float, float]]:
    """Per-epsilon (epsilon, clean accuracy, robust accuracy, mean l1 cost of
    successful attacks; nan when none succeed).

    One greedy run on the correctly classified examples, up to the largest
    budget, gives every epsilon: a row is broken within a budget iff its
    label changes within that many flips.
    """
    budgets = [AttackBudget(float(eps)) for eps in epsilons]
    correct = net.predict(data.X) == data.y
    k = max((b.max_flips for b in budgets), default=0)
    _, changed = greedy_flips(net, data.X[correct], data.y[correct], k, data.y[correct])
    clean = float(np.mean(correct))
    out = []
    for b in budgets:
        broken = (changed > 0) & (changed <= b.max_flips)
        robust = (int(np.sum(correct)) - int(np.sum(broken))) / data.m
        mean_cost = float(np.mean(FLIP_L1_COST * changed[broken])) if broken.any() else float("nan")
        out.append((b.epsilon_l1, clean, robust, mean_cost))
    return out


@dataclass(frozen=True)
class AdvTrainConfig:
    epochs: int
    epsilon_l1: float


def adversarial_train(data: LabeledDataset, cfg: TrainConfig, at_cfg: AdvTrainConfig) -> BinaryMlp:
    """SGD from scratch for at_cfg.epochs epochs, which replace cfg.epochs, where every batch is
    replaced by its budgeted loss-maximizing perturbation against the current model; deterministic
    given cfg.seed. With epsilon_l1 = 0 the trajectory is train_sgd's for at_cfg.epochs epochs.
    """
    k = AttackBudget(at_cfg.epsilon_l1).max_flips

    def perturb(net: BinaryMlp, Xb: np.ndarray, yb: np.ndarray) -> np.ndarray:
        return jsma_maxloss_batch(net, Xb, yb, k)

    net = train_sgd(data, replace(cfg, epochs=at_cfg.epochs), perturb=perturb)
    lineage = f"{net.seed_lineage};adv:epochs={at_cfg.epochs},epsilon={at_cfg.epsilon_l1:g}"
    return replace(net, seed_lineage=lineage)
