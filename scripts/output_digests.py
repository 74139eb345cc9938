#!/usr/bin/env python3
"""sha256 digests of every output file of a fixed set of CLI tasks, as JSON.

The tasks are every ``configs/*.json``, every task of the benchmark's
``sweep``, ``multistart`` and ``stochastic`` workloads at the given seeds
(built by ``perfbench/workloads.py``, which is only imported), and the edge
cases in ``EDGE``.  Each task runs through ``cli.parse_config`` and
``cli.run_task`` from this checkout's ``src`` on one BLAS thread, so two
checkouts whose programs write the same bytes print the same digests.  Run it
in each checkout and compare the two files:

    python3 scripts/output_digests.py --seeds 1 2 3 101 > digests.json

With ``--residuals`` it prints, in place of the digests, residual / norm of
every result (``<task>/<result file>``) and of every decay row
(``<task>/<decay file>/<n>``), so that two checkouts whose bytes differ can be
compared by the quality of their approximations.

With ``--compare A.json B.json`` it reads two such files instead of running
anything.  For digest files it prints how many files are identical and how
many differ, and lists those that differ or appear in one file only.  For
``--residuals`` files it prints, per group (the first part of each label:
``configs``, ``sweep``, ...), how many rows B has worse and better than A by
more than 1e-9 relative, and the mean residual / norm of each, then lists
each worse row as ``worse: <label> <A> <B>``.  The exit status is 1 when a
file differs or a row is worse, else 0:

    python3 scripts/output_digests.py --compare parent.json change.json

A copy of this file placed in a checkout's ``scripts/`` runs that checkout's
program.
"""

import os

# Before numpy loads: the BLAS thread count can change rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nbestkernel import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOADS = ("sweep", "multistart", "stochastic")

_SPACE = {"family": "bergman", "param": 1.0, "degree": 64, "radius_cap": 0.5}
_SIGNAL = {"coefficients": [[1.0, 0.0], [0.5, 0.25], [-0.3, 0.0], [0.1, -0.2]]}
_ENSEMBLE = {
    "random": {
        "kind": "kernel_mix",
        "atoms": [{"a": [0.3, 0.1], "c": [1.0, 0.0]}, {"a": [-0.2, 0.3], "c": [0.8, 0.4]}],
        "M": 8,
        "seed": 2,
    }
}
_OPTIMIZER = {"multistart": 2, "grid_density": 8, "max_iter": 40, "seed": 1}
_WEAK = 1e-7
_STRONG = 2.0**300


def _scaled(pairs, factor):
    return [[factor * re, factor * im] for re, im in pairs]


def _scaled_tasks(name, factor):
    """The afd, nbest and stochastic edge tasks on ``_SIGNAL`` and the
    ``_ENSEMBLE`` atoms, their coefficients scaled by ``factor``."""
    signal = {"coefficients": _scaled(_SIGNAL["coefficients"], factor)}
    atoms = [{**atom, "c": _scaled([atom["c"]], factor)[0]} for atom in _ENSEMBLE["random"]["atoms"]]
    return {
        f"afd-{name}": ("afd", signal, 2),
        f"nbest-{name}": ("nbest", signal, 2),
        f"stochastic-{name}": ("stochastic", {"random": {**_ENSEMBLE["random"], "atoms": atoms}}, 2),
    }


# Paths the configs and workloads leave out: zero nodes, a zero signal, greedy
# at one n, a stochastic task on one function (M = 1), and weak and strong
# signals, whose coefficients are scaled by _WEAK and by _STRONG.  _STRONG is
# a power of 2, so a strong signal is an exact multiple of the unscaled one.
EDGE = {
    "afd-n0": ("afd", _SIGNAL, 0),
    "afd-n2": ("afd", _SIGNAL, 2),
    "nbest-n0": ("nbest", _SIGNAL, 0),
    "nbest-zero-signal": ("nbest", {"coefficients": [[0.0, 0.0]]}, 2),
    "stochastic-n0": ("stochastic", _ENSEMBLE, 0),
    "stochastic-single-function": ("stochastic", _SIGNAL, 2),
    **_scaled_tasks("weak", _WEAK),
    **_scaled_tasks("strong", _STRONG),
}


def tasks(seeds):
    """(label, config text) of every task."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        yield f"configs/{path.stem}", path.read_text()
    for name in WORKLOADS:
        for seed in seeds:
            for task in workloads.build(name, seed):
                yield f"{name}/{seed}/{task.id}", task.text
    for label, (task, signal, n) in EDGE.items():
        config = {"task": task, "space": _SPACE, "signal": signal, "n": n, "optimizer": _OPTIMIZER}
        yield f"edge/{label}", json.dumps(config)


def relative_residuals(label: str, out: Path) -> dict:
    """residual / norm of the task's result and of each row of its decay
    table; verify reports and zero signals have none."""
    ratios = {}
    for path in sorted(out.glob("*.json")):
        result = json.loads(path.read_text())
        norm = result.get("norm", result.get("bochner_norm"))
        if not norm:
            continue
        residual = result.get("residual", result.get("expected_residual"))
        ratios[f"{label}/{path.name}"] = residual / norm
        for table in sorted(out.glob("*.csv")):
            with table.open() as rows:
                for row in csv.DictReader(rows):
                    ratios[f"{label}/{table.name}/{row['n']}"] = float(row["residual"]) / norm
    return ratios


def _worse(x: float, y: float) -> bool:
    """Whether residual / norm ``y`` is worse than ``x`` by more than 1e-9
    relative."""
    return y - x > 1e-9 * max(x, y)


def compare(a: dict, b: dict) -> int:
    """Print how the outputs of ``b`` differ from those of ``a``; 1 when a
    digest differs or a residual row is worse."""
    only = sorted(set(a) ^ set(b))
    for label in only:
        print(f"only in {'A' if label in a else 'B'}: {label}")
    shared = sorted(set(a) & set(b))
    if all(isinstance(a[k], str) for k in shared):
        differ = [k for k in shared if a[k] != b[k]]
        print(f"{len(shared) - len(differ)} identical, {len(differ)} differing")
        for label in differ:
            print(f"differs: {label}")
        return int(bool(differ or only))
    groups: dict = {}
    for label in shared:
        groups.setdefault(label.split("/")[0], []).append((a[label], b[label]))
    worse = [k for k in shared if _worse(a[k], b[k])]
    print("group rows worse better mean_A mean_B")
    for name, rows in sorted(groups.items()):
        n_worse = sum(_worse(x, y) for x, y in rows)
        better = sum(_worse(y, x) for x, y in rows)
        mean_a, mean_b = (sum(r[i] for r in rows) / len(rows) for i in (0, 1))
        print(f"{name} {len(rows)} {n_worse} {better} {mean_a:.6e} {mean_b:.6e}")
    for label in worse:
        print(f"worse: {label} {a[label]!r} {b[label]!r}")
    return int(bool(worse or only))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 101])
    ap.add_argument("--residuals", action="store_true",
                    help="print residual / norm of every result and decay row instead of digests")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two digest or residual files instead of running the tasks")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        return compare(a, b)
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, text) in enumerate(tasks(args.seeds)):
            out = Path(tmp) / str(i)
            cli.run_task(cli.parse_config(text), out)
            if args.residuals:
                report.update(relative_residuals(label, out))
                continue
            for path in sorted(out.iterdir()):
                report[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
