"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Runs ``run.py`` once per seed (run_seconds from BENCHMARK.json) and prints,
per metric, the median and the quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    lo, hi = map(int, args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [*bench["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode} correct "
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}"
                  for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:32s} median {med:10.4g}  spread {spread:6.3f}  "
              f"bound {bounds.get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
