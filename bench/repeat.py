"""Run the benchmark on several seeds and summarize each metric.

    python3 bench/repeat.py --workload NAME [--seeds 0-9] [--seconds 10]

Runs `bench/run.py` untraced once per seed, one run at a time, with one
BLAS and OpenMP thread, and prints for each metric the median of the
runs and the distance between their first and third quartiles as a
share of the median (Python's `statistics.quantiles(values, n=4)`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args(argv)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(
                metric["value"])
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        print(f"{name:40s} median {med:.6g} {unit:10s} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
