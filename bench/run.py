"""Run one workload of the bipx benchmark and print its result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a bipx checkout. bipx is imported from the
checkout's `src/`, and its CLI runs as `python -m bipx.cli` on the same
path; without `src/bipx` the run stops with exit code 2. Inputs are drawn
from --seed; cached inputs go to `.bench_cache/`, outputs and traces to
`.bench_out/`. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("search-large", "simulate-large", "ordering-small",
                  "pipeline-cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "bipx" / "__init__.py").is_file():
        print(f"error: no bipx sources at {src}; run the benchmark from the "
              "root of a bipx checkout", file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads; children inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bipx
    if Path(bipx.__file__).resolve().parent != (src / "bipx").resolve():
        print(f"error: imported bipx from {bipx.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    tracer = spans.Tracer(enabled=args.trace == 1)
    run = workloads.Run(args.seed, args.seconds, tracer, str(out_dir),
                        str(ROOT / ".bench_cache"), env)
    try:
        workloads.check_mse_form(run)
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if run.rounds_done == 0:
        print("error: every round failed", file=sys.stderr)
        return 1

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("figures " + json.dumps(run.figures))
    if tracer.enabled:
        tracer.write(out_root / f"trace-{args.workload}-seed{args.seed}.json")
        print("end-to-end under tracing "
              + json.dumps(run.end_to_end_metrics()))
        metrics = run.layer_metrics()
    else:
        metrics = run.end_to_end_metrics()
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
