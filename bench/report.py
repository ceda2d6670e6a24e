"""Run every workload and print one row per workload.

    python3 bench/report.py                      # seed 1, end-to-end metrics
    python3 bench/report.py --trace 1            # per-layer metrics instead
    python3 bench/report.py --seeds 1-10 --json runs.json

Each (workload, seed) is one ``run.py`` process.  With several seeds a row
holds the median of each metric and the spread (interquartile range over
median) is printed under it; ``--json`` also stores every run's values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _spread(values):
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every run's result and details here")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for seed in args.seeds:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            argv[0] = sys.executable
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs[workload].append({"seed": seed, "details": details, "result": result})

    summary = summarize(runs, metrics)
    header = ["workload", "correct", "attempted", "failed"]
    header += [f"{m['name']} [{m['unit']}]" for m in metrics]
    print("\t".join(header))
    for workload, row in summary.items():
        cells = [workload, str(row["correct"]), str(row["attempted"]), str(row["failed"])]
        print("\t".join(cells + [f"{row['median'][m['name']]:.6g}" for m in metrics]))
        if len(args.seeds) > 1:
            print("\t".join(["spread", "", "", ""] + [f"{row['spread'][m['name']]:.3f}" for m in metrics]))
    if args.json:
        out = {"seconds": spec["run_seconds"], "seeds": args.seeds, "summary": summary, "runs": runs}
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def summarize(runs, metrics) -> dict:
    """Per workload: totals, and each metric's median and spread over seeds."""
    summary = {}
    for workload, rs in runs.items():
        values = {m["name"]: [r["result"]["metrics"][m["name"]]["value"] for r in rs] for m in metrics}
        summary[workload] = {
            "correct": all(r["result"]["correct"] for r in rs),
            "attempted": sum(r["result"]["attempted"] for r in rs),
            "failed": sum(r["result"]["failed"] for r in rs),
            "median": {k: statistics.median(v) for k, v in values.items()},
            "spread": {k: _spread(v) for k, v in values.items()},
        }
    return summary


if __name__ == "__main__":
    sys.exit(main())
