"""Summarise the run results in perfbench/out/ per workload and metric.

    python3 perfbench/summarize.py                    # print the table
    python3 perfbench/summarize.py --write   # also save perfbench/baseline.json

For every workload and run kind it reports, over the seeds found, each
metric's median, quartiles (``statistics.quantiles(n=4)``) and spread
(interquartile distance over the median), plus the trial counts of every
run and the environment stamp of the first one.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def load_runs() -> dict:
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "*.seed*.trace*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def summarise(results: list) -> dict:
    metrics = {}
    for name, value in results[0]["metrics"].items():
        values = [r["metrics"].get(name) for r in results]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            continue
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        metrics[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return {
        "seeds": [r["seed"] for r in results],
        "seconds": results[0]["seconds"],
        "commit": results[0].get("commit"),
        "attempted_per_run": [r["attempted"] for r in results],
        "correct": all(r["correct"] for r in results),
        "environment": results[0]["environment"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="save as perfbench/baseline.json")
    args = parser.parse_args(argv)
    runs = load_runs()
    if not runs:
        print(f"no results under {OUT_DIR}", file=sys.stderr)
        return 1
    summary = {}
    for (workload, trace), results in sorted(runs.items()):
        entry = summarise(results)
        summary[f"{workload}.trace{trace}"] = entry
        print(f"{workload} trace={trace} runs={len(results)} correct={entry['correct']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:34s} median {m['median']:<12.6g} spread {m['spread']:.4f}")
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
