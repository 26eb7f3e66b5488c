"""Choose which first-layer units to stabilize: maximize the additive
robustness proxy subject to an accuracy floor beta on a validation split.

The proxy gain of a unit is computed on dual-norm-normalized weights so the
per-neuron dominance argument applies; it is independent of which other
units are already stabilized, so the greedy order is fixed up front for GMB
and only the accuracy side is adaptive.

Every unit of the original network is estimated once, in the gain pass: a
selection over t units makes t Chow estimates, and each unit's gain and
stabilized row come from its one estimate. Candidates are built by writing
those rows into a copy of a base model, so no Chow source is consulted
afterwards, and gmbc holds one model at a time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateFunctionError, DimensionError
from .fourier import ChowEstimate
from .network import (
    BinaryMlp,
    ChowSource,
    LabeledDataset,
    accuracy,
    first_layer_ltf,
    fmt_vec,
    stabilized_row,
    unit_chow,
    with_stabilized_rows,
)
from .neuron import PNorm, degree_one, norm


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
        if self.a_bar is not None and not (math.isfinite(self.a_bar) and self.a_bar > 0.0):
            raise ValueError(f"a_bar must be finite and positive, got {self.a_bar}")

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
    steps: list[SelectionStep] = field(default_factory=list)  # one per accepted unit, in order
    accuracy_evaluations: int = 0
    verification_evaluations: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> list[int]:
        return [step.index for step in self.steps]

    @property
    def running_proxy(self) -> list[float]:
        """0.0, then the steps' delta_r summed left to right in acceptance order."""
        return list(itertools.accumulate((step.delta_r for step in self.steps), initial=0.0))

    @property
    def proxy_total(self) -> float:
        """The steps' delta_r summed in acceptance order, as the trace CSV's cumulative column."""
        return self.running_proxy[-1]


def delta_r(net: BinaryMlp, j: int, p: PNorm, chow: ChowEstimate) -> float:
    """Proxy robustness gain ||h_vec||_p - (w/||w||_q).h_vec for unit j.

    Bias terms cancel between the stabilized and original analytic values.
    A degenerate unit raises DegenerateFunctionError.
    """
    ltf = first_layer_ltf(net, j)
    h_vec = degree_one(chow, net.n)
    return norm(h_vec, p.p) - float(ltf.w @ h_vec) / norm(ltf.w, p.q)


Rows = dict[int, tuple[np.ndarray, float]]  # unit -> its stabilized (row, bias)


def _unit_gains(net: BinaryMlp, val: LabeledDataset, cfg: SelectionConfig) -> tuple[SelectionTrace, np.ndarray, Rows]:
    """A new trace, each unit's delta_r, and the stabilized (row, bias) of each unit selection
    may stabilize, both from the unit's one Chow estimate; val's width is checked before any.

    A degenerate unit (a zero row or a zero coefficient vector) gains 0 and is
    left out, with a trace warning. stabilize_subset at p = 1 estimates nothing and
    skips only a zero row, so it stabilizes a constant unit whose row is not zero.
    """
    if val.n != net.n:
        raise DimensionError(f"dataset dimension {val.n} != model dimension {net.n}")
    trace = SelectionTrace()
    gains = np.zeros(net.t)
    rows: Rows = {}
    for j in range(net.t):
        try:
            chow = unit_chow(net, j, cfg.chow_source)
            gains[j] = delta_r(net, j, cfg.p, chow)
            rows[j] = stabilized_row(net, j, cfg.p, chow, cfg.rescale)
        except DegenerateFunctionError as exc:
            trace.warnings.append(f"unit {j} is degenerate ({exc}); delta_r = 0, left out")
    return trace, gains, rows


def _gain_order(gains: np.ndarray, eligible: Rows) -> list[int]:
    """Eligible indices by descending gain, ties broken by ascending index."""
    return sorted(eligible, key=lambda j: (-gains[j], j))


def _try(base: BinaryMlp, units, rows: Rows, val: LabeledDataset) -> tuple[BinaryMlp, float]:
    """base with the rows of units written in; the candidate model and its validation accuracy."""
    model = with_stabilized_rows(base, {j: rows[j] for j in units})
    return model, accuracy(model, val)


def _clean_accuracy(
    net: BinaryMlp, val: LabeledDataset, cfg: SelectionConfig, trace: SelectionTrace
) -> Optional[float]:
    """Counted accuracy of net, or None with a warning when it is below beta."""
    acc = accuracy(net, val)
    trace.accuracy_evaluations += 1
    if acc < cfg.beta:
        trace.warnings.append(f"clean accuracy {acc:.6f} is below beta={cfg.beta}; S is empty")
        return None
    return acc


def gmb(
    net: BinaryMlp, val: LabeledDataset, cfg: SelectionConfig
) -> tuple[BinaryMlp, SelectionTrace]:
    """Stabilize units in fixed descending-gain order, stopping before the
    first unit whose inclusion drops validation accuracy below beta."""
    trace, gains, rows = _unit_gains(net, val, cfg)
    trace.order = _gain_order(gains, rows)
    current, acc = net, _clean_accuracy(net, val, cfg, trace)
    if acc is None:
        return current, trace
    for j in trace.order:
        candidate, cand_acc = _try(current, [j], rows, val)
        trace.accuracy_evaluations += 1
        if cand_acc < cfg.beta:
            break
        trace.steps.append(SelectionStep(j, float(gains[j]), acc - cand_acc, float("nan"), cand_acc))
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
    search result is kept either way. Only the model of the longest
    feasible prefix found so far is kept.
    """
    trace, gains, rows = _unit_gains(net, val, cfg)
    order = trace.order = _gain_order(gains, rows)
    prefix_acc: dict[int, float] = {}  # prefix length -> accuracy
    model, lo, hi = net, 0, len(order)
    while lo < hi:
        mid = (lo + hi + 1) // 2  # never a length tried before: lo < mid <= hi
        candidate, prefix_acc[mid] = _try(net, order[:mid], rows, val)
        trace.accuracy_evaluations += 1
        if prefix_acc[mid] >= cfg.beta:
            model, lo = candidate, mid
        else:
            hi = mid - 1
    if lo == 0:
        trace.warnings.append(f"no feasible nonempty prefix at beta={cfg.beta}; S is empty")
        return net, trace
    final_acc = prefix_acc[lo]
    for rank, j in enumerate(order[:lo]):
        acc_after = prefix_acc.get(rank + 1, float("nan"))
        trace.steps.append(SelectionStep(j, float(gains[j]), float("nan"), float("nan"), acc_after))
    if verify:
        for i in range(1, lo):
            if i not in prefix_acc:
                prefix_acc[i] = _try(net, order[:i], rows, val)[1]
                trace.verification_evaluations += 1
        bad = [i for i in range(1, lo) if prefix_acc[i] < cfg.beta]
        if bad:
            trace.warnings.append(
                f"monotonicity violated: prefixes {bad} fall below beta although prefix {lo} "
                f"(accuracy {final_acc:.6f}) does not"
            )
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
    otherwise. The heap keeps accuracies, not models: an entry is accepted
    only in the round it was evaluated in, so writing the unit's row into
    the current model then rebuilds the same candidate.
    """
    trace, gains, rows = _unit_gains(net, val, cfg)
    a_bar = cfg.resolved_a_bar(val.m)
    current, acc = net, _clean_accuracy(net, val, cfg, trace)
    if acc is None:
        return current, trace
    round_no = 0
    heap: list[tuple] = []  # (-ratio, unit, round evaluated, accuracy); one per unit

    def push(j: int) -> None:
        cand_acc = _try(current, [j], rows, val)[1]
        trace.accuracy_evaluations += 1
        ratio = float(gains[j]) / max(acc - cand_acc, a_bar)
        heapq.heappush(heap, (-ratio, j, round_no, cand_acc))

    for j in rows:
        push(j)
    while heap:
        _, j, rnd, cand_acc = heapq.heappop(heap)
        if rnd != round_no:
            push(j)
            continue
        trace.order.append(j)
        if cand_acc < cfg.beta:
            continue  # permanently ineligible; entry is never re-pushed
        raw = acc - cand_acc
        trace.steps.append(SelectionStep(j, float(gains[j]), raw, max(raw, a_bar), cand_acc))
        current, acc = with_stabilized_rows(current, {j: rows[j]}), cand_acc
        round_no += 1
    if not trace.accepted:
        trace.warnings.append(f"every candidate violates beta={cfg.beta}; S is empty")
    return current, trace


def trace_to_csv(trace: SelectionTrace) -> list[str]:
    """The lines of the trace CSV: one record per accepted step, one
    '# warning: ' line per warning, and a summary line of space-separated
    key=value tokens."""
    lines = ["index,delta_r,delta_a_raw,delta_a_clamped,accuracy_after,cumulative_proxy"]
    for step, cum in zip(trace.steps, trace.running_proxy[1:]):
        values = (step.delta_r, step.delta_a_raw, step.delta_a_clamped, step.accuracy_after, cum)
        lines.append(f"{step.index},{fmt_vec(values)}")
    lines += [f"# warning: {w}" for w in trace.warnings]
    lines.append(
        f"# summary accepted={len(trace.accepted)} proxy_total={fmt_vec(trace.proxy_total)} "
        f"accuracy_evaluations={trace.accuracy_evaluations} "
        f"verification_evaluations={trace.verification_evaluations} warnings={len(trace.warnings)}"
    )
    return lines
