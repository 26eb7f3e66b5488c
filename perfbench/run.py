"""fourierstab benchmark: drives the CLI pipeline on seeded inputs.

    python3 perfbench/run.py --workload select-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/fourierstab`. With
`--trace 0` every command runs as its own child process, one at a time,
and the end-to-end metrics are reported. With `--trace 1` the same
commands run in this process through `fourierstab.cli.main`, once plain
and once with span wrappers installed, and the per-layer metrics are
reported. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads (the imports below load it), here and in every child process.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse
import contextlib
import itertools
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, Command, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 120
END_TO_END = ("pipeline_s", "setup_s", "peak_rss_mb")
UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "chow_per_unit": "ratio"}


@dataclass
class Executed:
    label: str
    stage: str
    seconds: float
    rss_mb: float  # 0 for commands run in this process
    problem: str | None
    hashes: dict


@dataclass
class Tally:
    """Every command attempted in the run, and the ones that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    first_hashes: dict = field(default_factory=dict)

    def record(self, ex: Executed, where: str) -> None:
        self.attempted += 1
        problem = ex.problem
        known = self.first_hashes.setdefault(ex.label, ex.hashes)
        if problem is None and known != ex.hashes:
            problem = "output bytes differ from the first run of this command"
        if problem is not None:
            self.failures.append(f"{where} {ex.label}: {problem}")


# --- running one command --------------------------------------------------------


def run_child(cmd: Command, ctx: Context):
    """One CLI command as a child process; returns code, wall seconds, peak RSS, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=ctx.workdir) as out, tempfile.TemporaryFile(dir=ctx.workdir) as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fourierstab.cli", *cmd.argv], cwd=ctx.workdir, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)  # a hung command fails; the run still ends
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KiB on Linux.
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, out.read().decode(), err.read().decode()


def in_process(cli_main, recorder: tracing.Recorder | None, command_id=None):
    def run(cmd: Command, ctx: Context):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(ctx.workdir)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                call = lambda: cli_main(list(cmd.argv))
                try:
                    code = recorder.run_command(command_id(), call) if recorder else call()
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash in the program is a failed command, not a crashed benchmark
                    traceback.print_exc(file=err)
                    code = 1
        finally:
            seconds = perf_counter() - start
            os.chdir(cwd)
        return code, seconds, 0.0, out.getvalue(), err.getvalue()

    return run


def execute(cmd: Command, ctx: Context, runner) -> Executed:
    code, seconds, rss_mb, stdout, stderr = runner(cmd, ctx)
    problem = None
    if code != 0:
        problem = f"exit code {code}: {stderr.strip()[-400:]}"
    else:
        missing = [o for o in cmd.outputs if not ctx.path(o).is_file()]
        try:
            checks.require(not missing, f"missing outputs {missing}")
            cmd.check(stdout)
        except Exception as exc:  # any failure to parse or verify an output fails the command
            problem = f"{type(exc).__name__}: {exc}"
    hashes = {o: checks.sha256(ctx.path(o)) for o in cmd.outputs if ctx.path(o).is_file()}
    return Executed(cmd.label, cmd.stage, seconds, rss_mb, problem, hashes)


def drive(commands, ctx: Context, runner, tally: Tally, where: str) -> list[Executed] | None:
    """Run a workload generator to the end; None once anything fails."""
    done = []
    try:
        for cmd in commands:
            ex = execute(cmd, ctx, runner)
            before = len(tally.failures)
            tally.record(ex, where)
            done.append(ex)
            if len(tally.failures) > before:
                return None
    except Exception as exc:  # the workload could not read what an earlier command wrote
        tally.attempted += 1
        tally.failures.append(f"{where}: {type(exc).__name__}: {exc}")
        return None
    return done


# --- a run ------------------------------------------------------------------------


def fresh(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def set_up(wl, ctx: Context, tally: Tally) -> list[float] | None:
    """Run the workload's set-up SETUP_REPEATS times; returns the wall times."""
    times = []
    for _ in range(SETUP_REPEATS):
        fresh(ctx.workdir)
        ctx.facts.clear()
        ctx.ref.clear()
        start = perf_counter()
        if drive(wl.setup(ctx), ctx, run_child, tally, "setup") is None:
            return None
        times.append(perf_counter() - start)
    return times


def passes(seconds: float, one_pass):
    """Call one_pass() until the next one would end after `seconds`; at least once."""
    start, walls = perf_counter(), []
    while True:
        t0 = perf_counter()
        if not one_pass():
            return
        walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return


def untraced(wl, ctx: Context, seconds: float, tally: Tally) -> dict:
    results = []

    def one_pass():
        done = drive(wl.commands(ctx), ctx, run_child, tally, f"pass {len(results) + 1}")
        if done is not None:
            results.append(done)
        return done is not None

    passes(seconds, one_pass)
    if not results:
        return {}
    samples = {
        "pipeline_s": [sum(ex.seconds for ex in done) for done in results],
        "peak_rss_mb": [max(ex.rss_mb for ex in done) for done in results],
    }
    for stage in wl.stages:
        samples[f"{stage}_s"] = [sum(ex.seconds for ex in done if ex.stage == stage) for done in results]
    return samples


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fourierstab.cli

    if Path(fourierstab.cli.__file__).resolve().parent != SRC / "fourierstab":
        raise SystemExit(f"fourierstab was imported from {fourierstab.cli.__file__}, not {SRC}")
    return fourierstab.cli.main


def traced(wl, ctx: Context, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Pairs of in-process passes, plain then traced; returns per-layer
    samples and the self time per stage of the first traced pass."""
    cli_main = import_program()
    samples: dict = {}
    by_stage: dict = {}

    def one_pass():
        n = len(samples.get("trace.overhead_s", [])) + 1
        plain = drive(wl.commands(ctx), ctx, in_process(cli_main, None), tally, f"plain pass {n}")
        if plain is None:
            return False
        rec = tracing.Recorder()
        ids = itertools.count()
        uninstall = tracing.install(rec)
        try:
            done = drive(wl.commands(ctx), ctx, in_process(cli_main, rec, lambda: next(ids)), tally, f"traced pass {n}")
        finally:
            uninstall()
        if done is None:
            return False
        metrics = tracing.layer_metrics(rec)
        metrics["trace.overhead_s"] = sum(ex.seconds for ex in done) - sum(ex.seconds for ex in plain)
        counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
        if samples and counts != {k: samples[k][0] for k in counts}:
            tally.failures.append(f"traced pass {n}: counts differ from traced pass 1")
        for k, v in metrics.items():
            samples.setdefault(k, []).append(v)
        if not by_stage:
            by_stage.update(tracing.stage_self_times(rec, {i: ex.stage for i, ex in enumerate(done)}))
        return True

    passes(seconds, one_pass)
    return samples, by_stage


# --- reporting ----------------------------------------------------------------------


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def provenance(args, wl, ctx: Context) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fourierstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name,
        "seed": args.seed,
        "size": args.size,
        "sizes": wl.sizes[args.size],
        "beta": ctx.facts,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
    }


def describe(name: str, values: list, unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"{name:34s} {statistics.median(values):12.6g} {unit:5s} median of {len(values)}  (q1 {q[0]:.6g}, q3 {q[2]:.6g})"


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure for about this long")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny is for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (SRC / "fourierstab" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'fourierstab' / 'cli.py'} is missing", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    ctx = Context(HERE / ".work" / f"{wl.name}-{'traced' if args.trace else 'untraced'}", args.seed, wl.sizes[args.size])
    tally = Tally()
    samples: dict = {}
    try:
        setup_times = set_up(wl, ctx, tally)
        if setup_times is not None:
            if args.trace:
                samples, by_stage = traced(wl, ctx, args.seconds, tally)
            else:
                samples = {"setup_s": setup_times, **untraced(wl, ctx, args.seconds, tally)}
        print("provenance " + json.dumps(provenance(args, wl, ctx), sort_keys=True))
        for label, hashes in tally.first_hashes.items():
            for name, digest in hashes.items():
                print(f"sha256 {digest}  {label}: {name}")
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    for problem in tally.failures:
        print(f"FAILED {problem}")
    print(f"failed_ratio {len(tally.failures) / max(tally.attempted, 1):.6g} ({len(tally.failures)} of {tally.attempted} commands)")
    metrics = {}
    for name in sorted(samples):
        unit = unit_of(name)
        print(describe(name, samples[name], unit))
        if (name in END_TO_END) != bool(args.trace):
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    if args.trace and samples:
        for stage, names in sorted(by_stage.items()):
            top = sorted(names.items(), key=lambda kv: -kv[1])[:4]
            print(f"self time in {stage}_s: " + ", ".join(f"{k} {v:.4g} s" for k, v in top))
    failed = len(tally.failures)
    print(json.dumps({"correct": failed == 0, "attempted": max(tally.attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
