"""Choose which first-layer units to stabilize: maximize the additive
robustness proxy subject to an accuracy floor beta on a validation split.

The proxy gain of a unit is computed on dual-norm-normalized weights so the
per-neuron dominance argument applies; it is independent of which other
units are already stabilized, so the greedy order is fixed up front for GMB
and only the accuracy side is adaptive.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError
from .fourier import ChowEstimate
from .network import (
    BinaryMlp,
    ChowSource,
    LabeledDataset,
    accuracy,
    first_layer_ltf,
    stabilize_subset,
)
from .neuron import PNorm, norm


@dataclass(frozen=True)
class SelectionConfig:
    beta: float
    p: PNorm
    chow_source: ChowSource
    a_bar: Optional[float] = None  # default 1/(4m) at run time
    rescale: str = "none"

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.a_bar is not None and self.a_bar <= 0.0:
            raise ValueError("a_bar must be positive")

    def resolved_a_bar(self, m: int) -> float:
        # Half the smallest representable accuracy step on m examples.
        return self.a_bar if self.a_bar is not None else 1.0 / (4.0 * m)


@dataclass
class SelectionStep:
    index: int
    delta_r: float
    delta_a_raw: float
    delta_a_clamped: float
    accuracy_after: float


@dataclass
class SelectionTrace:
    order: list[int] = field(default_factory=list)
    accepted: list[int] = field(default_factory=list)
    steps: list[SelectionStep] = field(default_factory=list)
    accuracy_evaluations: int = 0
    verification_evaluations: int = 0
    proxy_total: float = 0.0
    warnings: list[str] = field(default_factory=list)


def delta_r(net: BinaryMlp, j: int, p: PNorm, chow: ChowEstimate) -> float:
    """Proxy robustness gain ||h_vec||_p - (w/||w||_q).h_vec for unit j.

    Bias terms cancel between the stabilized and original analytic values.
    Degenerate units contribute zero gain.
    """
    ltf = first_layer_ltf(net, j)
    if chow.n != net.n:
        raise DimensionError(f"chow dimension {chow.n} != model dimension {net.n}")
    if not np.any(chow.h_vec != 0.0):
        warnings.warn(f"unit {j} has a zero coefficient vector; delta_r = 0")
        return 0.0
    qn = norm(ltf.w, p.q)
    return norm(chow.h_vec, p.p) - float(ltf.w @ chow.h_vec) / qn


def _unit_gains(net: BinaryMlp, cfg: SelectionConfig) -> np.ndarray:
    gains = np.zeros(net.t)
    for j in range(net.t):
        ltf = first_layer_ltf(net, j)
        chow = cfg.chow_source.estimate(ltf.handle(), net.n, key=j)
        gains[j] = delta_r(net, j, cfg.p, chow)
    return gains


def _gain_order(gains: np.ndarray) -> list[int]:
    """Indices by descending gain, ties broken by ascending index."""
    return list(np.lexsort((np.arange(gains.size), -gains)))


def gmb(
    net: BinaryMlp, val: LabeledDataset, cfg: SelectionConfig
) -> tuple[BinaryMlp, SelectionTrace]:
    """Stabilize units in fixed descending-gain order, stopping before the
    first unit whose inclusion drops validation accuracy below beta."""
    trace = SelectionTrace()
    gains = _unit_gains(net, cfg)
    order = _gain_order(gains)
    trace.order = list(order)
    current = net
    acc = accuracy(current, val)
    trace.accuracy_evaluations += 1
    if acc < cfg.beta:
        trace.warnings.append(f"clean accuracy {acc:.6f} is below beta={cfg.beta}; S is empty")
        return current, trace
    for j in order:
        candidate = stabilize_subset(current, [j], cfg.p, cfg.chow_source, rescale=cfg.rescale)
        cand_acc = accuracy(candidate, val)
        trace.accuracy_evaluations += 1
        if cand_acc < cfg.beta:
            break
        trace.steps.append(SelectionStep(j, float(gains[j]), acc - cand_acc, float("nan"), cand_acc))
        trace.accepted.append(j)
        trace.proxy_total += float(gains[j])
        current, acc = candidate, cand_acc
    return current, trace


def gmb_fast(
    net: BinaryMlp,
    val: LabeledDataset,
    cfg: SelectionConfig,
    verify: bool = False,
) -> tuple[BinaryMlp, SelectionTrace]:
    """Binary search for the longest feasible prefix of the gain order.

    Assumes accuracy is monotone non-increasing in prefix length; uses at
    most ceil(log2(t+1)) accuracy evaluations. verify=True re-checks every
    shorter prefix afterwards (extra evaluations counted separately) and
    attaches a warning when the monotonicity assumption is violated; the
    search result is kept either way.
    """
    trace = SelectionTrace()
    gains = _unit_gains(net, cfg)
    order = _gain_order(gains)
    trace.order = list(order)
    cache: dict[int, float] = {}

    def prefix_acc(i: int) -> float:
        if i not in cache:
            model = stabilize_subset(net, order[:i], cfg.p, cfg.chow_source, rescale=cfg.rescale)
            cache[i] = accuracy(model, val)
            trace.accuracy_evaluations += 1
        return cache[i]

    lo, hi = 0, net.t
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if prefix_acc(mid) >= cfg.beta:
            lo = mid
        else:
            hi = mid - 1
    if lo == 0:
        trace.warnings.append(f"no feasible nonempty prefix at beta={cfg.beta}; S is empty")
        return net, trace
    final_acc = cache[lo]
    for rank, j in enumerate(order[:lo]):
        acc_after = cache.get(rank + 1, float("nan"))
        trace.steps.append(SelectionStep(j, float(gains[j]), float("nan"), float("nan"), acc_after))
        trace.accepted.append(j)
        trace.proxy_total += float(gains[j])
    if verify:
        for i in range(1, lo):
            if i in cache:
                continue
            model = stabilize_subset(net, order[:i], cfg.p, cfg.chow_source, rescale=cfg.rescale)
            cache[i] = accuracy(model, val)
            trace.verification_evaluations += 1
        bad = [i for i in range(1, lo) if cache[i] < cfg.beta]
        if bad:
            trace.warnings.append(
                f"monotonicity violated: prefixes {bad} fall below beta although prefix {lo} "
                f"(accuracy {final_acc:.6f}) does not"
            )
    model = stabilize_subset(net, order[:lo], cfg.p, cfg.chow_source, rescale=cfg.rescale)
    return model, trace


def gmbc(
    net: BinaryMlp, val: LabeledDataset, cfg: SelectionConfig
) -> tuple[BinaryMlp, SelectionTrace]:
    """Greedy gain-per-unit-cost selection with lazy re-evaluation.

    Each round picks argmax gain / max(marginal accuracy drop, a_bar); a
    candidate whose inclusion violates beta becomes permanently ineligible
    (skipped, not terminal). Marginal drops are recomputed lazily: a popped
    entry computed against a stale set is refreshed and pushed back, which
    is exact under the monotone-cost heuristic and a good approximation
    otherwise.
    """
    trace = SelectionTrace()
    gains = _unit_gains(net, cfg)
    a_bar = cfg.resolved_a_bar(val.m)
    current = net
    acc = accuracy(current, val)
    trace.accuracy_evaluations += 1
    if acc < cfg.beta:
        trace.warnings.append(f"clean accuracy {acc:.6f} is below beta={cfg.beta}; S is empty")
        return current, trace

    def evaluate(j: int):
        candidate = stabilize_subset(current, [j], cfg.p, cfg.chow_source, rescale=cfg.rescale)
        cand_acc = accuracy(candidate, val)
        raw = acc - cand_acc
        ratio = float(gains[j]) / max(raw, a_bar)
        return candidate, cand_acc, raw, ratio

    round_no = 0
    heap: list[tuple[float, int, int]] = []  # (-ratio, unit, round evaluated)
    evaluated: dict[int, tuple] = {}
    for j in range(net.t):
        cand = evaluate(j)
        trace.accuracy_evaluations += 1
        evaluated[j] = cand
        heapq.heappush(heap, (-cand[3], j, round_no))
    while heap:
        neg_ratio, j, rnd = heapq.heappop(heap)
        if rnd != round_no:
            cand = evaluate(j)
            trace.accuracy_evaluations += 1
            evaluated[j] = cand
            heapq.heappush(heap, (-cand[3], j, round_no))
            continue
        candidate, cand_acc, raw, ratio = evaluated[j]
        trace.order.append(j)
        if cand_acc < cfg.beta:
            continue  # permanently ineligible; entry is never re-pushed
        trace.steps.append(SelectionStep(j, float(gains[j]), raw, max(raw, a_bar), cand_acc))
        trace.accepted.append(j)
        trace.proxy_total += float(gains[j])
        current, acc = candidate, cand_acc
        round_no += 1
    if not trace.accepted:
        trace.warnings.append(f"every candidate violates beta={cfg.beta}; S is empty")
    return current, trace


def trace_to_csv(trace: SelectionTrace) -> str:
    """One record per accepted step, one '# warning: ' line per warning, and a
    summary line of space-separated key=value tokens."""
    lines = ["index,delta_r,delta_a_raw,delta_a_clamped,accuracy_after,cumulative_proxy"]
    cum = 0.0
    for step in trace.steps:
        cum += step.delta_r
        lines.append(
            f"{step.index},{step.delta_r:.17g},{step.delta_a_raw:.17g},"
            f"{step.delta_a_clamped:.17g},{step.accuracy_after:.17g},{cum:.17g}"
        )
    lines += [f"# warning: {w}" for w in trace.warnings]
    lines.append(
        f"# summary accepted={len(trace.accepted)} proxy_total={trace.proxy_total:.17g} "
        f"accuracy_evaluations={trace.accuracy_evaluations} "
        f"verification_evaluations={trace.verification_evaluations} warnings={len(trace.warnings)}"
    )
    return "\n".join(lines) + "\n"
