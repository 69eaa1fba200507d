"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs in a child process that
imports gkpstab from the checkout's src/, with the BLAS thread count capped
at the cores this process may use. The child's result (the last line of its
standard output) is printed as the last line here. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Result files go to perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decay", "qec", "logical-ops-400")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gkpstab", "__init__.py")):
        print(f"error: no gkpstab sources under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = src
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), cores)))
        except (KeyError, ValueError):
            env[var] = str(cores)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", os.path.join(HERE, "out")]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload {args.workload} exited with {child.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"error: malformed result {lines[-1]!r}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
