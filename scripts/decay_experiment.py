#!/usr/bin/env python3
"""Residual decay of greedy vs global approximation on a seeded random signal.

Writes a plot-ready CSV (n, residual_greedy, residual_global) and prints the
table.  Example:

    python scripts/decay_experiment.py --family bergman --param 1.0 --n-max 6
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from nbestkernel import OptimizerConfig, SpaceSpec, afd_decay_sweep, as_element, residual_decay_sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="hardy", choices=["hardy", "bergman", "weighted_hardy"])
    ap.add_argument("--param", type=float, default=0.0, help="alpha or beta exponent")
    ap.add_argument("--degree", type=int, default=12, help="degree of the random signal")
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="decay_experiment.csv")
    args = ap.parse_args(argv)

    spec = SpaceSpec(args.family, args.param)
    rng = np.random.default_rng(args.seed)
    f = as_element(
        spec, rng.standard_normal(args.degree + 1) + 1j * rng.standard_normal(args.degree + 1)
    )
    cfg = OptimizerConfig(seed=args.seed)
    global_results = residual_decay_sweep(spec, f, args.n_max, cfg)
    greedy_results = afd_decay_sweep(spec, f, args.n_max, cfg)

    rows = [
        (n, greedy_results[n].residual, global_results[n].residual)
        for n in range(args.n_max + 1)
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "residual_greedy", "residual_global"])
        writer.writerows(rows)

    print(f"{spec.label()}  signal degree {args.degree}  seed {args.seed}")
    print(f"{'n':>3} {'greedy':>14} {'global':>14}")
    for n, g, b in rows:
        print(f"{n:>3} {g:>14.6e} {b:>14.6e}")
    print(f"table written to {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
