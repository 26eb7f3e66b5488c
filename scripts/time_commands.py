"""Time each command of a benchmark workload in two checkouts, in pairs.

Usage: python scripts/time_commands.py OLD NEW --workload W [--seed S] [--pairs K]

Each side gets its own temporary work directory, where the workload's set-up
runs with that side's `src`. Then K passes run: in each, the i-th command of
both sides runs back to back, each as a `python -m fourierstab.cli` child with
BLAS on one thread, and the side that goes first alternates from pass to pass.
The commands come from NEW's `perfbench/workloads.py`, which is imported and not
changed; a command's outputs are checked as the benchmark checks them. For each
command it prints OLD's median wall time and quartiles, NEW's median, and the
number of passes in which NEW was faster, then the same for the pass sums.
It exits 1 if a command fails or if the two sides' argv differ.

Close pairs resolve what a whole benchmark run cannot: two sides measured a
second apart share the machine's state, while runs minutes apart do not.
"""

from __future__ import annotations

import os

# Pinned before numpy loads (the workloads import it), here and in every child.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter


class Failed(Exception):
    pass


def run(side: Path, cmd, ctx) -> float:
    """Run cmd as a child with side's src in ctx's work directory, check it, and return its wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    start = perf_counter()
    done = subprocess.run([sys.executable, "-m", "fourierstab.cli", *cmd.argv], cwd=ctx.workdir, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    seconds = perf_counter() - start
    if done.returncode != 0:
        raise Failed(f"{side}: {cmd.label} exited {done.returncode}\n{done.stderr.strip()[-400:]}")
    try:
        cmd.check(done.stdout)
    except Exception as exc:  # any failure to read or verify an output fails the command
        raise Failed(f"{side}: {cmd.label}: {type(exc).__name__}: {exc}") from exc
    return seconds


def one_pass(sides, contexts, workload, old_first: bool) -> dict:
    """Seconds of each command of one pass, by label, as (old, new)."""
    generators = [workload.commands(ctx) for ctx in contexts]
    times = {}
    while True:
        cmds = [next(gen, None) for gen in generators]
        if cmds == [None, None]:
            return times
        if None in cmds or cmds[0].argv != cmds[1].argv:
            raise Failed("the two sides' commands differ: " + " | ".join(
                "(none)" if c is None else " ".join(c.argv) for c in cmds))
        order = (0, 1) if old_first else (1, 0)
        seconds = {i: run(sides[i], cmds[i], contexts[i]) for i in order}
        times[cmds[0].label] = (seconds[0], seconds[1])


def summary(label: str, old: list, new: list) -> str:
    q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else old * 3
    wins = sum(b < a for a, b in zip(old, new))
    return (f"{label:24s} old {statistics.median(old):8.4f} s (q1 {q1:.4f}, q3 {q3:.4f})"
            f"  new {statistics.median(new):8.4f} s  new faster {wins}/{len(old)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--pairs", type=int, default=10, help="passes of both sides")
    args = ap.parse_args(argv)
    sides = (args.old.resolve(), args.new.resolve())
    sys.path.insert(0, str(sides[1] / "perfbench"))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS or args.pairs < 1:
        ap.error(f"--workload is one of {', '.join(WORKLOADS)}, and --pairs is at least 1")
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="time-commands-") as tmp:
        contexts = [Context(Path(tmp) / name, args.seed, workload.sizes["full"]) for name in ("old", "new")]
        passes = []
        try:
            for side, ctx in zip(sides, contexts):
                ctx.workdir.mkdir()
                for cmd in workload.setup(ctx):
                    run(side, cmd, ctx)
            for k in range(args.pairs):
                passes.append(one_pass(sides, contexts, workload, old_first=k % 2 == 0))
        except Failed as exc:
            print(f"FAILED {exc}", file=sys.stderr)
            return 1
    for label in passes[0]:
        print(summary(label, *zip(*(p[label] for p in passes))))
    print(summary("sum", *([sum(t[i] for t in p.values()) for p in passes] for i in (0, 1))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
