#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric by name.

For each workload and metric it prints the median over the seeds, with its
unit, and the spread: the distance between the first and third quartiles as
a share of the median (quartiles as ``statistics.quantiles(values, n=4)``
gives them), next to the metric's bound.  It also prints the fail ratio.

    python3 perfbench/summary.py                       # every workload, seed 1
    python3 perfbench/summary.py --seeds 1-10 --workloads sweep certify
    python3 perfbench/summary.py --trace 1             # per-layer metrics
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads:
        values: dict = {}
        units: dict = {}
        attempted = failed = 0
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                ok = False
                sys.stdout.write(proc.stdout)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: seeds {args.seeds}, fail_ratio {failed / max(attempted, 1):.4g} "
              f"({failed}/{attempted})")
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"  {name:44s} {med:12.6g} {units[name]:14s}"
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                line += f" spread {(q[2] - q[0]) / abs(med):.3f}"
            if bounds.get(name) is not None:
                line += f" bound {bounds[name]}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
