"""Span recorder for the traced pass, installed from outside the program.

`install` wraps public functions of fourierstab's modules. Modules bind
each other's functions by name (`from .network import accuracy`), so a
wrapper replaces every binding of the original object in every loaded
fourierstab module, not only the defining one. `BinaryMlp.hidden`,
`LinearThresholdNeuron.handle` and `cube_chunk` are counted but get no
span: they run tens of thousands of times per command and a span each
would distort the self time of their callers.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    command: int  # id of the CLI command that caused it


class Recorder:
    """Keeps spans and counters in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.command = -1
        self.unit_keys: set = set()  # (command, unit) pairs whose Chow coefficients were estimated
        self.longest_path: dict = {}  # (command, model, example) -> most greedy rounds in one attack
        self.selection_units = 0

    def span(self, name: str, fn, after=None):
        """Wrap fn so every call records a span; after(recorder, result, args, kwargs) adds counts."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(rec.spans)
            rec.spans.append(Span(name, 0.0, 0.0, rec.stack[-1] if rec.stack else None, rec.command))
            rec.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                rec.spans[index].start, rec.spans[index].end = start, end
            if after is not None:
                after(rec, result, args, kwargs)
            return result

        return wrapper

    def run_command(self, command: int, fn):
        """Run one CLI command under a root 'cli' span."""
        self.command = command
        return self.span("cli", fn)()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls are synchronous on one thread, so children never overlap."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def inside(self, index: int, name: str) -> bool:
        """Whether span `index` runs within a span called `name`."""
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


# --- counters attached to wrapped functions ---------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _chow(rec: Recorder, est, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    rec.unit_keys.add((rec.command, getattr(f, "__perfbench_unit__", id(f))))
    if est.mode == "mc":
        rec.counts["fourier.chow_mc.samples"] += est.samples


def _stabilize_subset(rec, result, args, kwargs):
    rec.counts["network.stabilize_subset.units"] += len(set(int(j) for j in _arg(args, kwargs, 1, "S")))


def _selection(rec, result, args, kwargs):
    rec.counts["selection.accuracy_evaluations"] += result[1].accuracy_evaluations
    rec.selection_units += _arg(args, kwargs, 0, "net").t


def _jsma(rec, outcome, args, kwargs):
    rounds = len(outcome.flips)
    rec.counts["attack.flip_rounds"] += rounds
    net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
    key = (rec.command, id(net), x.tobytes())
    rec.longest_path[key] = max(rec.longest_path.get(key, 0), rounds)


def _maxloss(rec, result, args, kwargs):
    rec.counts["attack.maxloss_batch.rows"] += len(_arg(args, kwargs, 1, "X"))


def _train_sgd(rec, result, args, kwargs):
    data, cfg = _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "cfg")
    rec.counts["network.train_sgd.examples"] += data.m * cfg.epochs


def _io(path_index):
    def after(rec, result, args, kwargs):
        rec.counts["network.io.bytes"] += os.path.getsize(args[path_index] if len(args) > path_index else kwargs["path"])

    return after


# (span name, module, attribute, counter)
TARGETS = [
    ("fourier.chow_exact", "fourier", "chow_exact", _chow),
    ("fourier.chow_mc", "fourier", "chow_mc", _chow),
    ("network.stabilize_subset", "network", "stabilize_subset", _stabilize_subset),
    ("neuron.stabilize", "neuron", "stabilize", None),
    ("network.accuracy", "network", "accuracy", None),
    ("selection", "selection", "gmb", _selection),
    ("selection", "selection", "gmb_fast", _selection),
    ("selection", "selection", "gmbc", _selection),
    ("attack.jsma", "attack", "jsma", _jsma),
    ("attack.maxloss_batch", "attack", "jsma_maxloss_batch", _maxloss),
    ("network.train_sgd", "network", "train_sgd", _train_sgd),
    ("uniformize.jacobi_eigh", "uniformize", "jacobi_eigh", None),
    ("uniformize.fit", "uniformize", "fit", None),
    ("uniformize.binarize", "uniformize", "binarize", None),
    ("network.io", "network", "save_model", _io(1)),
    ("network.io", "network", "save_dataset", _io(1)),
    ("network.io", "network", "load_model", _io(0)),
    ("network.io", "network", "load_dataset", _io(0)),
    ("network.io", "uniformize", "save_covariance_model", _io(1)),
]


def _rebind(package: str, original, replacement, undo: list) -> None:
    """Replace every module-level binding of `original` in the package."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


def install(rec: Recorder, package: str = "fourierstab"):
    """Wrap the traced functions; returns a callable that restores them."""
    mods = {name: sys.modules[f"{package}.{name}"] for name in ("fourier", "network", "neuron", "selection", "attack", "uniformize")}
    undo: list = []
    for name, mod, attr, after in TARGETS:
        original = getattr(mods[mod], attr)
        _rebind(package, original, rec.span(name, original, after), undo)

    original_chunk = mods["fourier"].cube_chunk

    def cube_chunk(n, start, stop):
        rec.counts["fourier.cube_rows"] += stop - start
        return original_chunk(n, start, stop)

    _rebind(package, original_chunk, cube_chunk, undo)

    mlp = mods["network"].BinaryMlp
    original_hidden = mlp.hidden

    def hidden(self, X):
        rec.counts["network.forward_rows"] += X.shape[0] if X.ndim == 2 else 1
        return original_hidden(self, X)

    ltf = mods["neuron"].LinearThresholdNeuron
    original_handle = ltf.handle

    def handle(self):
        h = original_handle(self)
        h.__perfbench_unit__ = (self.w.tobytes(), float(self.theta))
        return h

    for cls, attr, value in ((mlp, "hidden", hidden), (ltf, "handle", handle)):
        undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, value)

    def uninstall():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return uninstall


# --- per-layer metrics --------------------------------------------------------

COUNT_METRICS = (
    "fourier.cube_rows",
    "fourier.chow_mc.samples",
    "network.stabilize_subset.units",
    "network.forward_rows",
    "selection.accuracy_evaluations",
    "attack.flip_rounds",
    "attack.maxloss_batch.rows",
    "network.train_sgd.examples",
    "network.io.bytes",
)
CALL_METRICS = (
    "fourier.chow_exact",
    "fourier.chow_mc",
    "network.stabilize_subset",
    "neuron.stabilize",
    "network.accuracy",
    "attack.jsma",
)
SELF_METRICS = (
    "fourier.chow_exact",
    "fourier.chow_mc",
    "network.stabilize_subset",
    "neuron.stabilize",
    "network.accuracy",
    "selection",
    "attack.jsma",
    "attack.maxloss_batch",
    "network.train_sgd",
    "uniformize.jacobi_eigh",
    "uniformize.fit",
    "uniformize.binarize",
    "network.io",
    "cli",
)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Counts and self times summed over the pass (self times in seconds)."""
    own = rec.self_times()
    calls = Counter(s.name for s in rec.spans)
    self_s = defaultdict(float)
    for s, t in zip(rec.spans, own):
        self_s[s.name] += t
    chow = [i for i, s in enumerate(rec.spans) if s.name in ("fourier.chow_exact", "fourier.chow_mc")]
    estimates = len(chow)
    rounds = rec.counts["attack.flip_rounds"]
    out = {name: float(rec.counts[name]) for name in COUNT_METRICS}
    out.update({f"{name}.calls": float(calls[name]) for name in CALL_METRICS})
    out.update({f"{name}.self_s": self_s[name] for name in SELF_METRICS})
    out["fourier.chow.unique_ratio"] = len(rec.unit_keys) / estimates if estimates else 0.0
    in_selection = sum(1 for i in chow if rec.inside(i, "selection"))
    out["selection.chow_per_unit"] = in_selection / rec.selection_units if rec.selection_units else 0.0
    out["attack.round_reuse_ratio"] = sum(rec.longest_path.values()) / rounds if rounds else 0.0
    return out


def stage_self_times(rec: Recorder, stage_of: dict[int, str]) -> dict[str, dict[str, float]]:
    """Self time per span name, grouped by the stage of the command that caused it."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, t in zip(rec.spans, rec.self_times()):
        out[stage_of[s.command]][s.name] += t
    return {stage: dict(names) for stage, names in out.items()}
