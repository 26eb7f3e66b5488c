"""Command-line workbench.

Every output file begins with a single '# config:' header line that records
the subcommand and every parsed argument except the output paths, so
re-running a command with the same flags reproduces the file byte for byte.
Each argument is one key=value token: a value holding whitespace, a quote or
a backslash is written shell-quoted, so shlex.split reads it back as one token.
The one exception is the covariance model of 'gen-data --kind uniformize'
(*.covmodel.txt), whose first line is its own '# covariance-model v1' tag.
Files are written through network's text-format helpers, so machine-readable
numbers carry 17 significant digits; human-readable tables on stdout use 6.

Exit codes: 0 success; 2 bad parameters, from argparse when a flag is outside
its domain, an output's directory is missing or an output path is a
directory, before any work; otherwise main maps the exception a command
raises through the table _EXIT_CODES: 3 missing file, 4 schema mismatch,
5 dimension mismatch, 6 capacity exceeded, 7 degenerate unit, 2 any other
ValueError.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys

import numpy as np

from . import selection, uniformize
from .attack import FLIP_L1_COST, AdvTrainConfig, AttackBudget, adversarial_train, attack_curve, greedy_flips
from .errors import CapacityError, DegenerateFunctionError, DimensionError, SchemaError
from .fourier import DEFAULT_ENUMERATION_CAP, ExactChow, MonteCarloChow
from .network import (
    RESCALE_MODES,
    Activation,
    BinaryMlp,
    LabeledDataset,
    TrainConfig,
    accuracy,
    first_layer_ltf,
    fmt_vec,
    fresh_mask,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    stabilize_subset,
    train_sgd,
    unit_chow,
    write_lines,
)
from .neuron import LinearThresholdNeuron, PNorm, accuracy_bound_lp, accuracy_bound_p1, sign_pm1

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_DIMENSION = 5
EXIT_CAPACITY = 6
EXIT_DEGENERATE = 7

# The exit code of an exception a command raises: the first class that matches,
# so the ValueError subclasses come before ValueError itself.
_EXIT_CODES = (
    (FileNotFoundError, EXIT_MISSING_FILE),
    (SchemaError, EXIT_SCHEMA),
    (DimensionError, EXIT_DIMENSION),
    (CapacityError, EXIT_CAPACITY),
    (DegenerateFunctionError, EXIT_DEGENERATE),
    (ValueError, EXIT_PARAMS),
)

# gen-data refuses to draw more matrix cells than this (examples x n, or
# teacher_width x n), or to uniformize a larger input (rows x d): load_dataset
# makes a Python float of every cell. train refuses a wider first layer (width x n).
CELL_CAP = 1 << 24

# gen-data --kind uniformize refuses more input columns d than this: on a 2-core
# Xeon, jacobi_eigh took 0.04 s at d=24, 0.26 s at d=48, 0.89 s at d=64, 4.7 s at d=96.
UNIFORMIZE_DIM_CAP = 64


# The output flags. With the dispatch entries they are not configuration, so
# the same flags with another output path give the same bytes.
_OUTPUTS = ("out", "out_model", "out_trace")
_NOT_CONFIG = frozenset(("command", "fn", *_OUTPUTS))


def _output_paths(args) -> list[tuple[str, str]]:
    """(flag, path) of every file the command writes, in the order it writes
    them; gen-data's --out is a prefix of its files."""
    if args.command != "gen-data":
        return [(f"--{dest.replace('_', '-')}", getattr(args, dest)) for dest in _OUTPUTS if dest in vars(args)]
    names = ["train.csv", "covmodel.txt"] if args.kind == "uniformize" else ["train.csv", "validation.csv", "test.csv"]
    return [("--out", f"{args.out}.{name}") for name in names]


def _config_value(v) -> str:
    text = str(v)
    return shlex.quote(text) if any(c.isspace() or c in "'\"\\" for c in text) else text


def _config_header(args: argparse.Namespace) -> str:
    parts = [f"cmd={args.command}"]
    parts += [f"{k}={_config_value(v)}" for k, v in sorted(vars(args).items()) if k not in _NOT_CONFIG]
    return "# config: " + " ".join(parts)


def _number(convert=float, lo=-math.inf, hi=math.inf, lo_open=False, hi_open=False):
    """argparse type of a finite number, read by convert (float or int), from lo
    to hi; an open end excludes its bound, and an infinite bound is never reached."""
    interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open or math.isinf(hi) else ']'}"
    rule = f"at least {lo:g}" if math.isinf(hi) and not lo_open else f"in {interval}"

    def number(text: str):
        try:
            v = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not -math.inf < v < math.inf:
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if not (lo < v if lo_open else lo <= v) or not (v < hi if hi_open else v <= hi):
            raise argparse.ArgumentTypeError(f"must be {rule}: {text!r}")
        return v

    return number


def _numbers(text: str) -> str:
    """argparse type of a comma-separated list of finite numbers, kept as given
    so the config header records it unchanged."""
    number = _number()
    for part in text.split(",") if text else ():
        number(part)
    return text


def _p_norm(text: str) -> str:
    """argparse type of a norm p in [1, inf], kept as given for the config header."""
    try:
        PNorm(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number in [1, inf]: {text!r}") from None
    return text


def _chow_source(args):
    if args.chow_mode == "exact":
        return ExactChow(cap=args.cap)
    return MonteCarloChow(epsilon=args.chow_epsilon, delta=args.chow_delta, seed=args.chow_seed)


def _add_chow_flags(sp):
    sp.add_argument("--chow-mode", choices=["exact", "mc"], default="exact")
    sp.add_argument("--chow-epsilon", type=_number(float, 0.0, lo_open=True), default=0.05)
    sp.add_argument("--chow-delta", type=_number(float, 0.0, 1.0, lo_open=True, hi_open=True), default=0.01)
    sp.add_argument("--chow-seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)


def _load_split(prefix: str, split: str) -> LabeledDataset:
    return load_dataset(f"{prefix}.{split}.csv", split=split)


# --- gen-data ---------------------------------------------------------------


def _teacher_labels(kind: str, X: np.ndarray, rng: np.random.Generator, teacher_width: int):
    n = X.shape[1]
    if kind == "planted-ltf":
        return LinearThresholdNeuron(rng.normal(size=n), 0.0).handle()(X)
    if kind == "planted-mlp":
        W1 = rng.normal(size=(teacher_width, n))
        b1 = rng.normal(scale=0.5, size=teacher_width)
        W2 = rng.normal(size=teacher_width)
        return BinaryMlp(W1, b1, Activation.TANH, W2, 0.0, fresh_mask(teacher_width)).predict(X)
    if kind == "noisy-majority":
        return sign_pm1(X.sum(axis=1))
    raise ValueError(f"unknown kind {kind!r}")


def cmd_gen_data(args) -> None:
    if args.kind == "uniformize":
        return _gen_data_uniformize(args)
    sizes = {"train": args.train, "validation": args.val, "test": args.test}
    total = sum(sizes.values())
    cells = max(total, args.teacher_width) * args.n
    if cells > CELL_CAP:
        raise CapacityError(f"gen-data would draw {cells} cells, over the cap of {CELL_CAP}")
    rng = np.random.default_rng(args.seed)
    X = (1.0 - 2.0 * rng.integers(0, 2, size=(total, args.n))).astype(np.float64)
    y = _teacher_labels(args.kind, X, rng, args.teacher_width)
    if args.noise > 0.0:
        flip = rng.random(total) < args.noise
        y = np.where(flip, -y, y)
    start = 0
    for (split, m), (_, path) in zip(sizes.items(), _output_paths(args)):
        ds = LabeledDataset(X[start : start + m], y[start : start + m], split=split)
        save_dataset(ds, path, _config_header(args))
        start += m
    print(f"wrote {args.out}.{{train,validation,test}}.csv ({total} examples, n={args.n})")


def _gen_data_uniformize(args) -> None:
    raw = np.loadtxt(args.input, delimiter=",", ndmin=2)
    if raw.shape[1] > UNIFORMIZE_DIM_CAP or raw.size > CELL_CAP:
        raise CapacityError(f"uniformize input is {raw.shape[0]}x{raw.shape[1]}, over the cap of "
                            f"{UNIFORMIZE_DIM_CAP} columns or {CELL_CAP} cells")
    if args.labels:
        labels = np.loadtxt(args.labels, ndmin=1)
        if labels.shape[0] != raw.shape[0]:
            raise DimensionError("label count does not match input rows")
    else:
        labels = np.ones(raw.shape[0])
    model = uniformize.fit(raw)
    model.validate()
    bits = uniformize.binarize(model, raw)
    (_, path), (_, cov_path) = _output_paths(args)
    save_dataset(LabeledDataset(bits, sign_pm1(labels), split="train"), path, _config_header(args))
    uniformize.save_covariance_model(model, cov_path)
    print(f"wrote {path} and {cov_path} (d={model.d}, m={raw.shape[0]})")


# --- training ----------------------------------------------------------------


def cmd_train(args) -> None:
    """train, and adv-train, which trains on each batch's greedy attack instead."""
    data = _load_split(args.data, "train")
    cells = args.width * data.n
    if cells > CELL_CAP:
        raise CapacityError(f"{args.command} would draw {cells} weights, over the cap of {CELL_CAP}")
    cfg = TrainConfig(width=args.width, activation=Activation(args.activation), epochs=args.epochs,
                      learning_rate=args.lr, batch_size=args.batch_size, seed=args.seed)
    if args.command == "adv-train":
        net = adversarial_train(data, cfg, AdvTrainConfig(epochs=args.at_epochs, epsilon_l1=args.at_epsilon))
    else:
        net = train_sgd(data, cfg)
    save_model(net, args.out, _config_header(args))
    print(f"train accuracy {accuracy(net, data):.6f}; model -> {args.out}")


# --- analysis ----------------------------------------------------------------


def cmd_chow(args) -> None:
    net = load_model(args.model)
    est = unit_chow(net, args.unit, _chow_source(args))
    lines = ["coefficient,value", "empty," + fmt_vec(est.h_empty)]
    lines += [f"{i},{fmt_vec(v)}" for i, v in enumerate(est.h_vec)]
    lines.append(f"# mode={est.mode} samples={est.samples} epsilon={est.epsilon} delta={est.delta}")
    write_lines(args.out, lines, _config_header(args))
    print(f"unit {args.unit}: h_empty={est.h_empty:.6f}, ||h||_1={np.abs(est.h_vec).sum():.6f}")


def cmd_stabilize(args) -> None:
    net = load_model(args.model)
    units = range(net.t) if args.units == "all" else [int(u) for u in args.units.split(",")]
    out = stabilize_subset(net, units, PNorm(float(args.p)), _chow_source(args), rescale=args.rescale)
    save_model(out, args.out, _config_header(args))
    changed = int(np.sum(out.stabilized_mask & ~net.stabilized_mask))
    print(f"stabilized {changed} unit(s) at p={args.p}; model -> {args.out}")


def cmd_select(args) -> None:
    net = load_model(args.model)
    val = _load_split(args.data, "validation")
    cfg = selection.SelectionConfig(
        beta=args.beta,
        p=PNorm(float(args.p)),
        chow_source=_chow_source(args),
        a_bar=args.a_bar,
        rescale=args.rescale,
    )
    algo = {"gmb": selection.gmb, "gmbc": selection.gmbc, "gmb-fast": selection.gmb_fast}[
        args.algorithm
    ]
    model, trace = algo(net, val, cfg)
    header = _config_header(args)
    save_model(model, args.out_model, header)
    write_lines(args.out_trace, selection.trace_to_csv(trace), header)
    for w in trace.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"accepted {len(trace.accepted)}/{net.t} units, proxy_total={trace.proxy_total:.6f}, "
        f"accuracy_evaluations={trace.accuracy_evaluations}"
    )


def cmd_attack(args) -> None:
    net = load_model(args.model)
    data = _load_split(args.data, args.split)
    budget = AttackBudget(args.epsilon)
    lines = ["example,true_label,clean_label,success,l1_cost,flips"]
    preds = net.predict(data.X)
    order, changed = greedy_flips(net, data.X, data.y, budget.max_flips, stop_on_change=True)
    for i, (path, success) in enumerate(zip(order, changed > 0)):
        flips = path[path >= 0]
        lines.append(
            f"{i},{int(data.y[i])},{int(preds[i])},{int(success)},"
            f"{fmt_vec(FLIP_L1_COST * len(flips))},{';'.join(str(f) for f in flips)}"
        )
    write_lines(args.out, lines, _config_header(args))
    n_success = int(np.count_nonzero(changed))
    print(f"attacked {data.m} examples at epsilon={args.epsilon:g}: {n_success} successes")


def cmd_eval(args) -> None:
    net = load_model(args.model)
    data = _load_split(args.data, args.split)
    epsilons = [float(e) for e in args.epsilons.split(",")]
    rows = attack_curve(net, data, epsilons)
    lines = ["epsilon,clean_accuracy,robust_accuracy,mean_l1_cost_success", *map(fmt_vec, rows)]
    write_lines(args.out, lines, _config_header(args))
    for eps, clean, robust, cost in rows:
        print(f"epsilon={eps:g} clean={clean:.6f} robust={robust:.6f} mean_cost={cost:.6f}")


def cmd_bounds(args) -> None:
    net = load_model(args.model)
    ltf = first_layer_ltf(net, args.unit)
    p = PNorm(float(args.p))
    est = unit_chow(net, args.unit, _chow_source(args))
    if args.mus:
        mus = [float(m) for m in args.mus.split(",")]
    else:
        # Default grid around the normalized bias theta/sqrt(n).
        base = ltf.theta / math.sqrt(net.n)
        mus = [0.0, base / 2.0, base, 2.0 * base]
    lines = ["mu,gamma,bound,bound_clamped,epsilon_be,sigma,e_mu,alpha"]
    reps = []
    for mu in mus:
        rep = accuracy_bound_p1(est, net.n, mu) if p.p == 1.0 else accuracy_bound_lp(est, p, mu)
        # sigma, e_mu and alpha are None where the bound for this p has no such term.
        values = (rep.gamma, rep.bound, rep.bound_clamped, rep.epsilon_be, rep.sigma, rep.e_mu, rep.alpha)
        if not all(v is None or math.isfinite(v) for v in values):
            raise ValueError(f"mu={mu:g} gives a non-finite bound report")
        lines.append(fmt_vec([mu] + [math.nan if v is None else v for v in values]))
        reps.append(rep)
    write_lines(args.out, lines, _config_header(args))
    for rep in reps:
        print(f"mu={rep.mu:.6g} gamma={rep.gamma:.6g} bound={rep.bound:.6g}")


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fourierstab",
        description="Weight stabilization workbench for binary-input networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="generate synthetic +-1 datasets")
    sp.add_argument("--kind", choices=["planted-ltf", "planted-mlp", "noisy-majority", "uniformize"], required=True)
    sp.add_argument("--n", type=_number(int, 1), default=20)
    sp.add_argument("--train", type=_number(int, 1), default=1000)
    sp.add_argument("--val", type=_number(int, 1), default=500)
    sp.add_argument("--test", type=_number(int, 1), default=500)
    sp.add_argument("--noise", type=_number(float, 0.0, 1.0), default=0.0)
    sp.add_argument("--teacher-width", type=_number(int, 1), default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--input", help="real-valued CSV matrix (uniformize only)")
    sp.add_argument("--labels", help="optional +-1 label file, one per row (uniformize only)")
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.set_defaults(fn=cmd_gen_data)

    for name in ("train", "adv-train"):
        sp = sub.add_parser(name)
        sp.add_argument("--data", required=True, help="dataset path prefix")
        sp.add_argument("--width", type=_number(int, 1), default=32)
        sp.add_argument("--activation", choices=[a.value for a in Activation], default="logistic")
        sp.add_argument("--epochs", type=_number(int, 0), default=20)
        sp.add_argument("--lr", type=_number(float, 0.0), default=0.5)
        sp.add_argument("--batch-size", type=_number(int, 1), default=64)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True)
        if name == "adv-train":
            sp.add_argument("--at-epochs", type=_number(int, 0), default=2)
            sp.add_argument("--at-epsilon", type=_number(float, 0.0), default=20.0)
        sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("chow", help="degree-<=1 coefficients of a first-layer unit")
    sp.add_argument("--model", required=True)
    sp.add_argument("--unit", type=int, required=True)
    _add_chow_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_chow)

    sp = sub.add_parser("stabilize", help="replace unit weights by stabilized analogs")
    sp.add_argument("--model", required=True)
    sp.add_argument("--units", default="all", help="'all' or comma-separated indices")
    sp.add_argument("--p", type=_p_norm, default="1")
    sp.add_argument("--rescale", choices=RESCALE_MODES, default=RESCALE_MODES[0])
    _add_chow_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_stabilize)

    sp = sub.add_parser("select", help="choose a unit subset under an accuracy floor")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True, help="dataset path prefix (validation split used)")
    sp.add_argument("--algorithm", choices=["gmb", "gmbc", "gmb-fast"], default="gmb")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--a-bar", type=_number(float, 0.0, lo_open=True), default=None)
    sp.add_argument("--p", type=_p_norm, default="1")
    sp.add_argument("--rescale", choices=RESCALE_MODES, default=RESCALE_MODES[0])
    _add_chow_flags(sp)
    sp.add_argument("--out-model", required=True)
    sp.add_argument("--out-trace", required=True)
    sp.set_defaults(fn=cmd_select)

    sp = sub.add_parser("attack", help="greedy bit-flip attack on each example")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--epsilon", type=_number(float), required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_attack)

    sp = sub.add_parser("eval", help="robust-accuracy curve over an epsilon grid")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--epsilons", type=_numbers, required=True, help="comma-separated l1 budgets")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("bounds", help="accuracy-loss bound report over a mu grid")
    sp.add_argument("--model", required=True)
    sp.add_argument("--unit", type=int, required=True)
    sp.add_argument("--p", type=_p_norm, default="1")
    sp.add_argument("--mus", type=_numbers, default="", help="comma-separated mu grid (default: multiples of theta/sqrt(n))")
    _add_chow_flags(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_bounds)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, path in _output_paths(args):
        directory = os.path.dirname(path) or "."
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            parser.error(f"argument {flag}: no writable directory {directory!r}")
        if os.path.isdir(path):
            parser.error(f"argument {flag}: is a directory: {path!r}")
    try:
        args.fn(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
        missing = "missing file: " if code == EXIT_MISSING_FILE else ""
        print(f"error: {missing}{exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
