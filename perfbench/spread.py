"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload paper-fleet --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one at a time, and prints for each metric
the median and the interquartile range as a share of the median (quartiles
as ``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound from ``BENCHMARK.json``.  ``--out`` also writes every run's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None, help="JSON file for all runs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **{k: v["value"]
                                      for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v:.4g}" for k, v in runs[-1].items() if k != "seed"), flush=True)

    summary = {}
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "iqr_share": (q3 - q1) / med, "bound": bound}
        print(f"{name:22s} median {med:12.5g}  spread {(q3 - q1) / med:7.2%}"
              f"  bound {bound:.0%}  {'ok' if (q3 - q1) / med < bound / 3 else 'WIDE'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
