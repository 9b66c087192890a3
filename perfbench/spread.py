"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload drill --seeds 1 2 3 4 5 --seconds 20

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for every end-to-end metric its median and the distance between the
first and third quartile as a share of the median (what the bounds in
``BENCHMARK.json`` are checked against), plus each run's wall time and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(_HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        wall = time.perf_counter() - started
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("  " + "  ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        ), flush=True)

    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:28s} median {median:12.4f}  iqr/median {spread:7.3f}  "
              f"min {min(series):.4f}  max {max(series):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
