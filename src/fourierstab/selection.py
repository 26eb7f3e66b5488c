"""Choose which first-layer units to stabilize: maximize the additive
robustness proxy subject to an accuracy floor beta on a validation split.

The proxy gain of a unit is computed on dual-norm-normalized weights so the
per-neuron dominance argument applies; it is independent of which other
units are already stabilized, so the greedy order is fixed up front for GMB
and only the accuracy side is adaptive.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateFunctionError
from .fourier import ChowEstimate
from .network import (
    BinaryMlp,
    ChowSource,
    LabeledDataset,
    accuracy,
    first_layer_ltf,
    fmt_vec,
    stabilize_subset,
    unit_chow,
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


def _unit_gains(net: BinaryMlp, cfg: SelectionConfig, trace: SelectionTrace) -> tuple[np.ndarray, list[int]]:
    """delta_r of every unit, and the units that selection may stabilize.

    A degenerate unit (a zero row or a zero coefficient vector) is one that
    stabilize_subset skips: it gains 0 and is left out, with a trace warning.
    """
    gains = np.zeros(net.t)
    eligible = []
    for j in range(net.t):
        try:
            gains[j] = delta_r(net, j, cfg.p, unit_chow(net, j, cfg.chow_source))
        except DegenerateFunctionError as exc:
            trace.warnings.append(f"unit {j} is degenerate ({exc}); delta_r = 0, left out")
            continue
        eligible.append(j)
    return gains, eligible


def _gain_order(gains: np.ndarray, eligible: list[int]) -> list[int]:
    """Eligible indices by descending gain, ties broken by ascending index."""
    return sorted(eligible, key=lambda j: (-gains[j], j))


def _try(base: BinaryMlp, units, val: LabeledDataset, cfg: SelectionConfig) -> tuple[BinaryMlp, float]:
    """Stabilize units of base; the candidate model and its validation accuracy."""
    model = stabilize_subset(base, units, cfg.p, cfg.chow_source, rescale=cfg.rescale)
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
    trace = SelectionTrace()
    gains, eligible = _unit_gains(net, cfg, trace)
    trace.order = _gain_order(gains, eligible)
    current, acc = net, _clean_accuracy(net, val, cfg, trace)
    if acc is None:
        return current, trace
    for j in trace.order:
        candidate, cand_acc = _try(current, [j], val, cfg)
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
    search result is kept either way.
    """
    trace = SelectionTrace()
    gains, eligible = _unit_gains(net, cfg, trace)
    order = trace.order = _gain_order(gains, eligible)
    prefix: dict[int, tuple[BinaryMlp, float]] = {}  # length -> (model, accuracy)
    lo, hi = 0, len(order)
    while lo < hi:
        mid = (lo + hi + 1) // 2  # never a length tried before: lo < mid <= hi
        prefix[mid] = _try(net, order[:mid], val, cfg)
        trace.accuracy_evaluations += 1
        if prefix[mid][1] >= cfg.beta:
            lo = mid
        else:
            hi = mid - 1
    if lo == 0:
        trace.warnings.append(f"no feasible nonempty prefix at beta={cfg.beta}; S is empty")
        return net, trace
    model, final_acc = prefix[lo]
    for rank, j in enumerate(order[:lo]):
        acc_after = prefix[rank + 1][1] if rank + 1 in prefix else float("nan")
        trace.steps.append(SelectionStep(j, float(gains[j]), float("nan"), float("nan"), acc_after))
    if verify:
        for i in range(1, lo):
            if i not in prefix:
                prefix[i] = _try(net, order[:i], val, cfg)
                trace.verification_evaluations += 1
        bad = [i for i in range(1, lo) if prefix[i][1] < cfg.beta]
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
    otherwise.
    """
    trace = SelectionTrace()
    gains, eligible = _unit_gains(net, cfg, trace)
    a_bar = cfg.resolved_a_bar(val.m)
    current, acc = net, _clean_accuracy(net, val, cfg, trace)
    if acc is None:
        return current, trace
    round_no = 0
    heap: list[tuple] = []  # (-ratio, unit, round evaluated, model, accuracy); one per unit

    def push(j: int) -> None:
        candidate, cand_acc = _try(current, [j], val, cfg)
        trace.accuracy_evaluations += 1
        ratio = float(gains[j]) / max(acc - cand_acc, a_bar)
        heapq.heappush(heap, (-ratio, j, round_no, candidate, cand_acc))

    for j in eligible:
        push(j)
    while heap:
        _, j, rnd, candidate, cand_acc = heapq.heappop(heap)
        if rnd != round_no:
            push(j)
            continue
        trace.order.append(j)
        if cand_acc < cfg.beta:
            continue  # permanently ineligible; entry is never re-pushed
        raw = acc - cand_acc
        trace.steps.append(SelectionStep(j, float(gains[j]), raw, max(raw, a_bar), cand_acc))
        current, acc = candidate, cand_acc
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
