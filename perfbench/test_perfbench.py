"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> tuple[list[str], dict]:
    res = bench(workload, trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    lines, last = result(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    for stage in WORKLOADS[workload].stages:
        assert any(line.startswith(f"{stage}_s ") for line in lines), stage
    assert any(line.startswith("failed_ratio 0 ") for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [result(workload, 1)[1] for _ in range(2)]
    for last in runs:
        assert last["correct"]
        assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in last["metrics"].items() if v["unit"] != "s"} for last in runs]
    assert counts[0] == counts[1]


def test_gmb_exact_estimates_every_tried_unit_twice(tmp_path):
    """gmb at p=2 estimates every unit once for its gain and every tried
    unit once more when it stabilizes it: t + accuracy_evaluations - 1."""
    wl = WORKLOADS["select-exact"]
    ctx = Context(tmp_path / "work", 5, wl.sizes["tiny"])
    tally = run.Tally()
    assert run.set_up(wl, ctx, tally) is not None, tally.failures
    cli_main = run.import_program()
    rec = tracing.Recorder()
    ids = itertools.count()
    uninstall = tracing.install(rec)
    try:
        done = run.drive(wl.commands(ctx), ctx, run.in_process(cli_main, rec, lambda: next(ids)), tally, "traced")
    finally:
        uninstall()
    assert done is not None, tally.failures
    gmb = next(i for i, ex in enumerate(done) if ex.label == "select-gmb-p2")
    calls = sum(1 for s in rec.spans if s.command == gmb and s.name == "fourier.chow_exact")
    summary = ctx.path("select-gmb-p2.trace.csv").read_text().split("# summary ")[1]
    evaluations = int(summary.split("accuracy_evaluations=")[1].split()[0])
    assert calls == ctx.ref["base"].t + evaluations - 1


def test_self_time_excludes_child_spans():
    rec = tracing.Recorder()
    inner = rec.span("inner", lambda: time.sleep(0.01))
    outer = rec.span("outer", lambda: [inner(), inner(), time.sleep(0.01)])
    rec.run_command(0, outer)
    own = rec.self_times()
    names = [s.name for s in rec.spans]
    assert names == ["cli", "outer", "inner", "inner"]
    assert math.isclose(sum(own), rec.spans[0].end - rec.spans[0].start, rel_tol=1e-9)
    duration = [s.end - s.start for s in rec.spans]
    assert own[2] == duration[2] >= 0.01
    assert own[1] == pytest.approx(duration[1] - duration[2] - duration[3], abs=1e-12)
    assert own[1] >= 0.01


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
    res = bench("train-mc", 0, cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
