"""Run one workload in this process and write its figures as JSON.

Started by run.py, which sets the BLAS thread count in this process's
environment and reads its peak resident set when it ends. Set-up time
counts from the first line of this file: importing the package, making
the inputs and one untimed warm-up operation. Then whole operations run
while one more is expected to end within ``--seconds``, each timed on
its own and checked.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    """Import twdglm from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import twdglm
    end = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(twdglm.__file__))) \
            != SRC:
        raise ImportError(f"twdglm imported from {twdglm.__file__}, "
                          f"not from {SRC}")
    return start, end


def run(args) -> dict:
    import_start, import_end = import_package()
    import spans
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.spans.append(["package.import", import_start, import_end, -1,
                             "setup", 0])
        spans.install(tracer)
    workload = WORKLOADS[args.workload](spans.entry_points(tracer),
                                        args.seed, args.work)
    workload.setup()
    if tracer:
        tracer.op = "warmup"
    workload.operation()
    setup_s = time.perf_counter() - T0

    times, fingerprints, problems = [], [], []
    failed = wrong = 0
    loop_start = time.perf_counter()
    while True:
        k = len(times)
        if tracer:
            tracer.op = k
        # Every operation starts from the same collector state, so a
        # collection left pending by the previous one cannot land in it.
        gc.collect()
        start = time.perf_counter()
        try:
            out = workload.operation()
        except Exception:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - start)
            failed += 1
            traceback.print_exc()
        else:
            times.append(time.perf_counter() - start)
            fp = workload.fingerprint(out)
            bad = workload.check(out)
            if fingerprints and fp != fingerprints[0]:
                bad.append(f"fingerprint {fp} differs from the first "
                           f"operation's {fingerprints[0]}")
            fingerprints.append(fp)
            if bad:
                failed += 1
                wrong += 1
                problems += [f"operation {k}: {msg}" for msg in bad]
        # Start another operation only if one of median length still
        # ends inside the run, so a run never outlasts --seconds by most
        # of a long operation.
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(times) > args.seconds:
            break

    result = {"setup_s": setup_s, "op_times": times, "attempted": len(times),
              "failed": failed, "wrong": wrong, "problems": problems,
              "fingerprint": fingerprints[0] if fingerprints else None}
    if tracer:
        ops = list(range(len(times)))
        result["per_layer"] = spans.layer_metrics(tracer.spans, ops)
        tracer.write(args.trace_file, {
            "workload": args.workload, "seed": args.seed,
            "op_times": times, "per_layer": result["per_layer"]})
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", dest="trace_file", default=None)
    args = parser.parse_args()
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
