"""Compare the per-layer metrics of two traced runs.

    python3 bench/compare.py BEFORE.trace.json AFTER.trace.json

Each file is one written by ``run.py --trace 1``. For every per-layer
metric the table gives both values, the change, and the change as a
share of the BEFORE value, which is the base of that ratio. Per-layer
figures are medians over one run's operations, so two runs of one
workload compare operation for operation. The step-acceptance ratio is
printed with its base, the solve attempts, on both sides.
"""

import argparse
import json
import statistics
import sys

from spans import metric_directions


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value, unit):
    if unit == "count":
        return f"{value:.0f}"
    return f"{value:.6g}"


def table(before, after) -> list[str]:
    dirs = metric_directions()
    lines = [f"workload {before['workload']} (seed {before['seed']}) -> "
             f"{after['workload']} (seed {after['seed']})",
             f"traced op_s_p50 {statistics.median(before['op_times']):.4f} s"
             f" over {len(before['op_times'])} ops -> "
             f"{statistics.median(after['op_times']):.4f} s over "
             f"{len(after['op_times'])} ops",
             f"{'metric':32} {'unit':6} {'better':6} {'before':>12} "
             f"{'after':>12} {'delta':>12} {'delta/before':>13}"]
    for metric, (unit, better) in dirs.items():
        a = before["per_layer"][metric]["value"]
        b = after["per_layer"][metric]["value"]
        share = f"{(b - a) / a:+.2%}" if a else "n/a (base 0)"
        lines.append(f"{metric:32} {unit:6} {better:6} {_fmt(a, unit):>12} "
                     f"{_fmt(b, unit):>12} {_fmt(b - a, unit):>12} "
                     f"{share:>13}")
        if metric == "optimizer.step_accept_ratio":
            base = "optimizer.solve_attempts"
            lines.append(f"{'  base: ' + base:32} {'count':6} {'':6} "
                         f"{before['per_layer'][base]['value']:>12.0f} "
                         f"{after['per_layer'][base]['value']:>12.0f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    print("\n".join(table(load(args.before), load(args.after))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
