"""The three workloads: what each sets up, which CLI commands one measured
pass runs, and how each command's outputs are checked.

A workload is a pair of generators. Each yields `Command`s; the runner
executes a command before it asks for the next one, so a generator can
read what earlier commands wrote (for example to pin beta against the
model just trained). Paths in argv are relative to the work directory the
commands run in, so `# config:` headers, and with them the output bytes,
do not depend on where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import checks


@dataclass(frozen=True)
class Command:
    label: str  # unique within a pass
    stage: str  # gen_data, train, adv_train, select, eval or attack
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[str], None]  # receives the command's stdout; raises checks.CheckError


@dataclass
class Context:
    workdir: Path
    seed: int
    size: dict
    facts: dict = field(default_factory=dict)  # beta values and kept counts, for provenance
    ref: dict = field(default_factory=dict)  # reference values the checks compare against

    def path(self, name: str) -> Path:
        return self.workdir / name


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]  # stages long enough (about 1 s or more) to get a metric
    sizes: dict  # "full" and "tiny"
    setup: Callable[[Context], Iterator[Command]]
    commands: Callable[[Context], Iterator[Command]]


def _gen_data(ctx: Context, out: str, n: int, train: int, val: int, test: int) -> Command:
    splits = {"train": train, "validation": val, "test": test}
    return Command(
        "gen-data",
        "gen_data",
        ("gen-data", "--kind", "planted-mlp", "--n", str(n), "--train", str(train), "--val", str(val),
         "--test", str(test), "--seed", str(ctx.seed), "--out", out),
        tuple(f"{out}.{s}.csv" for s in splits),
        lambda stdout: checks.check_dataset(ctx.path(out), splits, n),
    )


def _train(ctx: Context, data: str, out: str, flags: tuple[str, ...], label="train", cmd="train", stage="train") -> Command:
    width = int(flags[flags.index("--width") + 1])
    return Command(
        label,
        stage,
        (cmd, "--data", data, *flags, "--seed", str(ctx.seed), "--out", out),
        (out,),
        lambda stdout: checks.check_trained(ctx.path(out), ctx.path(data), width, stdout),
    )


def _select(ctx, label, base, rows, val, beta, algorithm, p, chow_flags, keep=None) -> Command:
    out = f"{label}.model.txt"
    trace = f"{label}.trace.csv"
    return Command(
        label,
        "select",
        ("select", "--model", "model.txt", "--data", "data", "--algorithm", algorithm, "--beta", repr(beta),
         "--p", p, *chow_flags, "--out-model", out, "--out-trace", trace),
        (out, trace),
        lambda stdout: checks.check_selected(ctx.path(out), ctx.path(trace), base, rows, val, beta, stdout, keep),
    )


def _stabilize_all(ctx: Context, base, rows, p: str, chow_flags: tuple[str, ...] = ()) -> Command:
    def check(stdout):
        out = checks.read_model(ctx.path("stabilized.txt"))
        checks.require(out.mask.all(), "not every unit was stabilized")
        checks.check_stabilized(out, base, rows)

    return Command(f"stabilize-p{p}", "select",
                   ("stabilize", "--model", "model.txt", "--units", "all", "--p", p, *chow_flags, "--out", "stabilized.txt"),
                   ("stabilized.txt",), check)


def _eval(ctx: Context, label: str, model_file: str) -> Command:
    out, grid = f"{label}.csv", ctx.size["epsilons"]
    return Command(
        label,
        "eval",
        ("eval", "--model", model_file, "--data", "data", "--epsilons", grid, "--out", out),
        (out,),
        lambda stdout: checks.check_eval(ctx.path(out), checks.read_model(ctx.path(model_file)),
                                         checks.read_dataset(ctx.path("data.test.csv")), [float(e) for e in grid.split(",")]),
    )


def _pin(ctx: Context, key: str, base, rows, order, val) -> tuple[float, int | None]:
    """Beta at which greedy-by-gain keeps about half the units; falls back
    to one validation example below clean accuracy if no prefix binds."""
    accs = checks.prefix_accuracies(base, rows, order, *val)
    pinned = checks.pinned_beta(accs, base.t // 2)
    beta, keep = pinned if pinned else (float(accs[0] - 1.0 / val[1].size), None)
    ctx.facts[key] = {"beta": beta, "clean_accuracy": float(accs[0]), "gmb_keeps": keep}
    return beta, keep


# Monte-Carlo settings passed explicitly, so the reference replays the same streams.
MC_DELTA = 0.01
MC_SEED = 0


def _mc_flags(ctx: Context) -> tuple[str, ...]:
    return ("--chow-mode", "mc", "--chow-epsilon", str(ctx.size["chow_epsilon"]),
            "--chow-delta", str(MC_DELTA), "--chow-seed", str(MC_SEED))


# --- select-exact: exact Chow enumeration dominates ---------------------------


def select_exact_setup(ctx: Context) -> Iterator[Command]:
    s = ctx.size
    yield _gen_data(ctx, "data", s["n"], s["train"], s["val"], s["test"])
    yield _train(ctx, "data", "model.txt", ("--width", str(s["width"]), "--activation", "logistic", "--epochs", str(s["epochs"])))
    base = checks.read_model(ctx.path("model.txt"))
    val = checks.read_dataset(ctx.path("data.validation.csv"))
    h_empty, h = checks.unit_chow_exact(base)
    ctx.ref.update({"base": base, "val": val, "h_empty": h_empty, "h": h})
    for p in (2.0, 1.0):
        rows = checks.stabilized_rows(base, h, p)
        beta, keep = _pin(ctx, f"p{p:g}", base, rows, checks.gain_order(base, h, p), val)
        ctx.ref[p] = (rows, beta, keep)


def select_exact_commands(ctx: Context) -> Iterator[Command]:
    ref = ctx.ref
    base, val = ref["base"], ref["val"]
    exact = ("--chow-mode", "exact")
    rows2, beta2, keep2 = ref[2.0]
    yield _select(ctx, "select-gmb-p2", base, rows2, val, beta2, "gmb", "2", exact, keep2)
    yield _select(ctx, "select-gmb-fast-p2", base, rows2, val, beta2, "gmb-fast", "2", exact)
    yield _select(ctx, "select-gmbc-p2", base, rows2, val, beta2, "gmbc", "2", exact)
    rows1, beta1, keep1 = ref[1.0]
    yield _select(ctx, "select-gmb-p1", base, rows1, val, beta1, "gmb", "1", exact, keep1)
    yield _stabilize_all(ctx, base, rows2, "2", exact)
    unit = ctx.seed % base.t
    yield Command("chow", "select", ("chow", "--model", "model.txt", "--unit", str(unit), "--chow-mode", "exact", "--out", "chow.csv"),
                  ("chow.csv",), lambda stdout: checks.check_chow(ctx.path("chow.csv"), ref["h_empty"][unit], ref["h"][unit]))
    yield Command("bounds", "select", ("bounds", "--model", "model.txt", "--unit", str(unit), "--p", "2", "--chow-mode", "exact", "--out", "bounds.csv"),
                  ("bounds.csv",), lambda stdout: checks.check_bounds(ctx.path("bounds.csv"), 4))


# --- robust-eval: the greedy attack dominates ---------------------------------


def robust_eval_setup(ctx: Context) -> Iterator[Command]:
    s = ctx.size
    yield _gen_data(ctx, "data", s["n"], s["train"], s["val"], s["test"])
    yield _train(ctx, "data", "model.txt", ("--width", str(s["width"]), "--epochs", str(s["epochs"])))


def robust_eval_commands(ctx: Context) -> Iterator[Command]:
    s = ctx.size
    base = checks.read_model(ctx.path("model.txt"))
    yield _eval(ctx, "eval-base", "model.txt")
    yield _stabilize_all(ctx, base, checks.stabilized_rows(base, None, 1.0), "1")
    yield _eval(ctx, "eval-stabilized", "stabilized.txt")
    for label, model_file in (("attack-base", "model.txt"), ("attack-stabilized", "stabilized.txt")):
        out, eps = f"{label}.csv", s["attack_epsilon"]
        yield Command(label, "attack", ("attack", "--model", model_file, "--data", "data", "--epsilon", str(eps), "--out", out), (out,),
                      lambda stdout, out=out, model_file=model_file: checks.check_attack(
                          ctx.path(out), checks.read_model(ctx.path(model_file)), checks.read_dataset(ctx.path("data.test.csv")), float(eps)))


# --- train-mc: SGD, batched max-loss attack and Monte-Carlo Chow ------------


def train_mc_setup(ctx: Context) -> Iterator[Command]:
    s = ctx.size
    rng = np.random.default_rng([ctx.seed, 24])
    d = s["raw_d"]
    raw = rng.normal(size=(s["raw_rows"], d)) @ rng.normal(size=(d, d))  # correlated Gaussian features
    labels = np.where(raw @ rng.normal(size=d) >= 0.0, 1, -1)
    np.savetxt(ctx.path("raw.csv"), raw, delimiter=",", fmt="%.17g")
    np.savetxt(ctx.path("labels.txt"), labels, fmt="%d")
    yield from ()


def train_mc_commands(ctx: Context) -> Iterator[Command]:
    s = ctx.size
    yield _gen_data(ctx, "data", s["n"], s["train"], s["val"], s["test"])
    yield Command("gen-data-uniformize", "gen_data",
                  ("gen-data", "--kind", "uniformize", "--input", "raw.csv", "--labels", "labels.txt", "--seed", str(ctx.seed), "--out", "uniform"),
                  ("uniform.train.csv", "uniform.covmodel.txt"),
                  lambda stdout: checks.check_uniformized(ctx.path("uniform"), s["raw_rows"], s["raw_d"]))
    net = ("--width", str(s["width"]), "--activation", "tanh")
    yield _train(ctx, "data", "model.txt", (*net, "--epochs", str(s["epochs"])))
    # adv-train trains for --at-epochs epochs only; --epochs is ignored.
    yield _train(ctx, "data", "adv.txt", (*net, "--at-epochs", str(s["at_epochs"]), "--at-epsilon", str(s["at_epsilon"])),
                 label="adv-train", cmd="adv-train", stage="adv_train")
    base = checks.read_model(ctx.path("model.txt"))
    val = checks.read_dataset(ctx.path("data.validation.csv"))
    _, h = checks.unit_chow_mc(base, s["chow_epsilon"], MC_DELTA, MC_SEED)
    for label, algorithm, p, pflag in (("select-gmbc-p2", "gmbc", 2.0, "2"), ("select-gmb-fast-pinf", "gmb-fast", np.inf, "inf")):
        rows = checks.stabilized_rows(base, h, p)
        beta, _ = _pin(ctx, label, base, rows, checks.gain_order(base, h, p), val)
        yield _select(ctx, label, base, rows, val, beta, algorithm, pflag, _mc_flags(ctx))
    yield _eval(ctx, "eval-selected", "select-gmbc-p2.model.txt")
    yield _eval(ctx, "eval-adv", "adv.txt")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-exact",
            ("select",),
            {
                "full": dict(n=16, train=4000, val=1000, test=1000, width=48, epochs=20),
                "tiny": dict(n=8, train=300, val=200, test=100, width=8, epochs=3),
            },
            select_exact_setup,
            select_exact_commands,
        ),
        Workload(
            "robust-eval",
            ("eval", "attack"),
            {
                "full": dict(n=64, train=4000, val=1000, test=1000, width=128, epochs=20, epsilons="0,2,4,6,8,12,16", attack_epsilon=8),
                "tiny": dict(n=12, train=300, val=100, test=100, width=8, epochs=3, epsilons="0,2,4,8", attack_epsilon=4),
            },
            robust_eval_setup,
            robust_eval_commands,
        ),
        Workload(
            "train-mc",
            ("gen_data", "train", "adv_train", "select", "eval"),
            {
                "full": dict(raw_rows=20000, raw_d=24, n=32, train=6000, val=500, test=500, width=64, epochs=40,
                             at_epochs=8, at_epsilon=4, chow_epsilon=0.02, epsilons="0,2,4,6"),
                "tiny": dict(raw_rows=400, raw_d=5, n=10, train=300, val=100, test=100, width=8, epochs=3,
                             at_epochs=1, at_epsilon=4, chow_epsilon=0.2, epsilons="0,2,4"),
            },
            train_mc_setup,
            train_mc_commands,
        ),
    )
}
