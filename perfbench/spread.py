"""Run the benchmark once per seed and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload suite --seeds 1-10 --seconds 20 [--trace 0]

Runs are sequential, one fresh interpreter each. The spread is the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, the figure the benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    ok = all(r["correct"] and not r["failed"] for r in results)
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
        else:
            spread = 0.0
        print(f"{args.workload} {name}: median {median:.6g} {first['unit']}, spread {spread:.3f}, "
              f"values {[round(v, 6) for v in values]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
