"""Compare the benchmark's outputs and traced counts between two checkouts.

Usage: python scripts/same_outputs.py OLD NEW [--seeds 101,102]

For each workload in NEW's BENCHMARK.json and each seed, runs the benchmark
command there with `--workload W --seed S --seconds 0 --trace 1` in both
checkouts, one run at a time. It prints every output `sha256` line and every
per-layer metric whose unit is `count` that differs between them, or that one
side has and the other lacks, and the number of failed commands if that differs.
It exits 1 if anything differs, 0 if nothing does.
A run that exits non-zero stops the comparison with exit 2. The benchmark is
run as it is; nothing under perfbench/ is imported or changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, command: list, workload: str, seed: int) -> tuple[dict, dict]:
    """The sha256 of each output, by 'command: file', and the traced counts of one run."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{checkout}: {' '.join(argv)} exited {done.returncode}\n{done.stderr}", file=sys.stderr)
        sys.exit(2)
    lines = done.stdout.splitlines()
    hashes = {}
    for ln in lines:  # sha256 <digest>  <command>: <file>
        if ln.startswith("sha256 "):
            digest, output = ln.removeprefix("sha256 ").split("  ", 1)
            hashes[output] = digest
    result = json.loads(lines[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return hashes, {**counts, "failed commands": result["failed"]}


def differences(old: dict, new: dict) -> list[str]:
    return [f"{k}: {old.get(k, 'missing')} -> {new.get(k, 'missing')}"
            for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seeds", default="101,102", help="comma-separated seeds")
    args = ap.parse_args(argv)
    bench = json.loads((args.new / "BENCHMARK.json").read_text())
    differ = False
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (int(s) for s in args.seeds.split(",")):
            (old_hashes, old_counts), (new_hashes, new_counts) = (
                run(side, bench["command"], workload, seed) for side in (args.old, args.new))
            found = [f"sha256 {d}" for d in differences(old_hashes, new_hashes)]
            found += [f"count {d}" for d in differences(old_counts, new_counts)]
            print(f"{workload} seed {seed}: {len(new_hashes)} outputs, {len(found)} differences")
            for line in found:
                print(f"  {line}")
            differ = differ or bool(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
