"""Measure how steady the benchmark is across seeds.

Runs ``perfbench/run.py`` once per (seed, workload), the workloads
interleaved inside each seed so host-wide drift spreads over all of them,
and reports, for every end-to-end metric, the distance between the first and
third quartile of the per-run values as a share of their median::

    python3 perfbench/steady.py --seeds 1-10 --seconds 15 --out perfbench/spread.json

Each run is a separate process started and waited for in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One benchmark run; its final JSON line plus its host line."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    host = next(line for line in lines if line.startswith("# host "))
    return dict(json.loads(lines[-1]), host=json.loads(host[len("# host "):]))


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median, as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="pts-eager,pts-trickle,hpts-ckpt,greedy-shards2")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", help="write every run and the spreads here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for seed in _seeds(args.seeds):
        for workload in workloads:
            result = run_once(workload, seed, args.seconds)
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {workload} correct={result['correct']} {values}",
                  flush=True)
    spreads = {
        workload: {
            name: spread([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        for workload, results in runs.items()
    }
    for workload, metrics in spreads.items():
        for name, s in metrics.items():
            print(f"{workload:16s} {name:14s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs, "spreads": spreads}, handle, indent=1,
                      sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
