"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a child process (worker.py) whose environment pins
the BLAS/OpenMP thread count, so an inherited setting cannot change the
figures, and whose peak resident set is read when it ends. This process
imports neither numpy nor the package.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics setup_s, op_s_p50 and peak_rss_mb. With
``--trace 1`` the package's inter-module calls are wrapped in spans, the
spans are written to bench/out/<workload>-seed<N>.trace.json, and the
last line carries the per-layer metrics instead. Lines before it give the
operation times and the behaviour fingerprint. The exit code is not 0,
and no result line is printed, when the workload cannot run.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("index-series", "tune-saddle", "large-lattice", "cli-io")
# One BLAS thread: on a shared two-core host a second thread made the
# large-lattice fit both faster and far less repeatable.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in THREAD_VARIABLES})
    # Compile the package afresh in every run, so that no run pays for
    # writing bytecode the next ones read, and the checkout stays clean.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, work, trace_file):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--result", os.path.join(work, "result.json")]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: worker exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{args.workload}: worker exited {proc.returncode}",
              file=sys.stderr)
        return None
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_file = os.path.join(
            HERE, "out", f"{args.workload}-seed{args.seed}.trace.json")
    os.makedirs(work)
    try:
        res = run_worker(args, work, trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res is None:
        return 1
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    times = res["op_times"]
    op_s_p50 = statistics.median(times)
    for msg in res["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(times)} operations, "
          f"op times {' '.join(f'{t:.4f}' for t in times)} s, "
          f"set-up {res['setup_s']:.4f} s, "
          f"BLAS threads {BLAS_THREADS}")
    print(f"fingerprint {json.dumps(res['fingerprint'], sort_keys=True)}")
    if args.trace:
        print(f"traced op_s_p50 {op_s_p50:.4f} s; spans in {trace_file}")
        metrics = res["per_layer"]
    else:
        metrics = {"setup_s": {"value": res["setup_s"], "unit": "s"},
                   "op_s_p50": {"value": op_s_p50, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": res["wrong"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
