#!/usr/bin/env python3
"""bioie benchmark: training and inference throughput, set-up time and
memory on two seeded synthetic workloads, with a traced per-layer
breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh worker process (worker.py) so that its
peak memory is its own and no warm state carries over. The BLAS thread
count is pinned in the worker's environment before numpy loads. The
last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; with `--workload all` the metric
names are prefixed by the workload. The exit code is non-zero when a
worker fails to produce a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_small", "train_long")
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(workload: str, args) -> dict | None:
    """Run one workload; echo its output and return its result object,
    or None when it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"{workload}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one timed epoch (for the smoke test)")
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_worker(name, args)
        if result is None:
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
