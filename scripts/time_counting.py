"""Time exact Chow counting of threshold units, the work behind every exact-mode command.

Usage: PYTHONPATH=src python scripts/time_counting.py [--sizes 16,32,38,44] [--repeats 5]

Each case is one fixed unit on n inputs, counted by fourier.chow_exact:
  grid        Gaussian weights and threshold (rng seed n) rounded to multiples of 2^-20,
              whose integer sums fit int64;
  tiled       the one-decimal weights (0.1, 0.2, 0.3, -0.6) tiled to n, threshold 0,
              whose sums tie on a large share of the cube (int64);
  python-int  the same Gaussian draw unrounded, with its first two weights set to
              +2^40 and -2^40: over the weights' common power of two the pair
              needs more than 64 bits, so the sums are Python ints.
For each case it prints the integer type of the sums, the best and the median of the
repeats in ms, the tracemalloc peak of one more call in MB, and the first 16 hex digits
of the sha256 of the coefficients' bytes, so two checkouts can be compared bit for bit.
A unit that chow_exact refuses prints the CapacityError message instead.
Time and memory depend on the machine; the digests do not.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import time
import tracemalloc

import numpy as np

from fourierstab import fourier
from fourierstab.errors import CapacityError
from fourierstab.neuron import LinearThresholdNeuron


def units(n: int):
    g = np.random.default_rng(n)
    w, theta = g.normal(size=n), float(g.normal(scale=0.5))
    yield "grid", LinearThresholdNeuron(np.round(w * 2**20) / 2**20, round(theta * 2**20) / 2**20)
    yield "tiled", LinearThresholdNeuron(np.resize([0.1, 0.2, 0.3, -0.6], n), 0.0)
    w[:2] = 2.0**40, -(2.0**40)
    yield "python-int", LinearThresholdNeuron(w, theta)


def digest(est) -> str:
    return hashlib.sha256(np.float64(est.h_empty).tobytes() + est.h_vec.tobytes()).hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,38,44", help="comma-separated input counts")
    ap.add_argument("--repeats", type=int, default=5, help="timed calls per case")
    args = ap.parse_args()
    print(f"{'n':>3} {'unit':<11} {'sums':<10} {'best_ms':>9} {'median_ms':>10} {'peak_mb':>8}  digest")
    for n in map(int, args.sizes.split(",")):
        for name, nrn in units(n):
            h = nrn.handle()
            k, k_theta = fourier._integer_form(h.w, h.theta)
            na = n // 2  # counting's rule: int64 when no half-sum or theta - a.w_a reaches 2^63
            reach = max(sum(map(abs, k[na:])), abs(k_theta) + sum(map(abs, k[:na])))
            sums = "int64" if reach < 1 << 63 else "python-int"
            times = []
            try:
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    est = fourier.chow_exact(h, n)
                    times.append(1e3 * (time.perf_counter() - t0))
            except CapacityError as e:
                print(f"{n:>3} {name:<11} {sums:<10} refused: {e}")
                continue
            tracemalloc.start()
            try:
                fourier.chow_exact(h, n)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            print(f"{n:>3} {name:<11} {sums:<10} {min(times):>9.2f} {statistics.median(times):>10.2f}"
                  f" {peak:>8.1f}  {digest(est)}", flush=True)


if __name__ == "__main__":
    main()
