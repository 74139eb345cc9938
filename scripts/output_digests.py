#!/usr/bin/env python3
"""sha256 digests of every output file of a fixed set of CLI tasks, as JSON.

The tasks are every ``configs/*.json``, every task of the benchmark's
``sweep``, ``multistart``, ``stochastic`` and ``certify`` workloads at the
given seeds (built by ``perfbench/workloads.py``, which is only imported;
``certify`` is the verify battery over the ten spaces of
``scripts/certify_spaces.py``), and the edge
cases in ``EDGE``, among them ensembles that end in a partial row block, a
search on degree 40, where the Gram path's kernel rows have length 32 or
41, signals on both sides of the n-best search's exact path (exact kernel
mixes, which it certifies, and the same mix plus a polynomial of 1e-9 of
its norm, which it declines), n-best decay sweeps that run past the
capture of an exact mix and of a single kernel, and searches for more nodes
than a degree-2 space has coefficients.  Each task runs through
``cli.parse_config`` and ``cli.run_task`` from this checkout's ``src`` on one
BLAS thread, so two checkouts whose programs write the same bytes print the
same digests.  A task that raises is recorded under its label as ``error:
<exception type>``, and the other tasks still run.  Run it in each checkout
and compare the two files:

    python3 scripts/output_digests.py --seeds 1 2 3 101 > digests.json

With ``--groups G...`` it runs only the tasks of the named groups, the first
part of each label (``configs``, ``edge``, ``sweep``, ``multistart``,
``stochastic``, ``certify``; default: all), e.g. the residual rows of the
sweep alone:

    python3 scripts/output_digests.py --residuals --groups sweep --seeds 1 2 3

With ``--residuals`` it prints, in place of the digests, residual / norm of
every result (``<task>/<result file>``) and of every decay row
(``<task>/<decay file>/<n>``), so that two checkouts whose bytes differ can be
compared by the quality of their approximations.

With ``--without-trace`` each ``result.json`` is digested with its ``trace``
key removed (the rest re-serialized as the program writes it), while decay
tables and verify reports are digested as they are, so that a change that
moves only traces shows that every approximation kept its bytes:

    python3 scripts/output_digests.py --without-trace --against HEAD

With ``--compare A.json B.json`` it reads two such files instead of running
anything.  For digest files it prints how many files are identical and how
many differ, and lists those that differ or appear in one file only; a
task that raised in either file differs unless it raised alike in both, and
is listed once, by its label.  For
``--residuals`` files it prints, per group (the first part of each label:
``configs``, ``sweep``, ...), how many rows B has worse and better than A by
more than 1e-9 relative, and the mean and the worst (largest) residual /
norm of each, so that a mean cannot hide a loss on one task, then lists
each worse row as ``worse: <label> <A> <B>``, and each task that raised in
either file as ``differs: <label>``.  The exit status is 1 when a file
differs, a task raised in one file only or a row is worse, else 0:

    python3 scripts/output_digests.py --compare parent.json change.json

A copy of this file placed in a checkout's ``scripts/`` runs that checkout's
program.  With ``--against REV`` (default ``HEAD``) it runs the tasks here
and, with such a copy, in a temporary ``git worktree`` of REV, removes the
worktree, and prints the ``--compare`` result of REV's file (A) against this
checkout's (B), so that the byte-identity of a change in progress is one
offline command:

    python3 scripts/output_digests.py --against HEAD --seeds 1 2 3 101
"""

import os

# Before numpy loads: the BLAS thread count can change rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from nbestkernel import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOADS = ("sweep", "multistart", "stochastic", "certify")
GROUPS = ("configs", *WORKLOADS, "edge")

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
_TINY_SCALE = 2.0**-500


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
# at one n, a stochastic task on one function (M = 1), and weak, strong and
# tiny signals, whose coefficients are scaled by _WEAK, _STRONG and
# _TINY_SCALE.  _STRONG and _TINY_SCALE are powers of 2, so those signals are
# exact multiples of the unscaled one.  A tiny signal's squared norm, about
# 2**-1000, is near the smallest that the engine's norm check accepts, so its
# residuals' small entries reach the subnormal range, where flushing and
# underflow meet.
# The "partial-block" ensembles have M = 100, which the engine's passes over
# all realizations take as a full block of 64 rows and a partial one of 36
# (the workloads' M = 256 and the other edge ensembles' M = 8 fill their
# blocks): a rank-1 one, a full-rank one on _WIDE_SPACE, where M <= N + 1 and
# the search runs on the ensemble itself, and one of rank N + 1 < M on
# _SPACE, which compression deflates.  On _SHORT_SPACE (degree 40) the Gram
# path's kernel rows have length 32 or N + 1 = 41, the top of its ladder of
# row lengths; a node near the atom at radius 0.85 needs all 41 and one near
# the other atom 32.
_WIDE_SPACE = {**_SPACE, "degree": 128}
_SHORT_SPACE = {"family": "weighted_hardy", "param": 2.0, "degree": 40, "radius_cap": 0.9}
_NEAR_CAP = {
    "kernel_mix": [{"a": [0.6, 0.6], "c": [1.0, 0.0]}, {"a": [-0.2, 0.1], "c": [0.5, 0.3]}]
}
# The exact path's edge cases on _SPACE: a mix with an order-2 atom at 0.9
# of the radius cap, which the path certifies; the same mix plus a fixed
# polynomial of 1e-9 of its norm, which it declines; and one order-3 atom.
_EXACT_MIX = [
    {"a": [0.45, 0.0], "c": [1.0, 0.0], "order": 2},
    {"a": [-0.1, 0.2], "c": [0.5, 0.3]},
]


def _mix_plus_polynomial():
    config = {"task": "nbest", "space": _SPACE, "signal": {"kernel_mix": _EXACT_MIX}, "n": 3}
    task = cli.parse_config(json.dumps(config))
    mix = task.signal.coeffs
    poly = np.zeros_like(mix)
    poly[:13] = [complex(math.cos(k), math.sin(3 * k)) for k in range(13)]
    weights = task.space.weights
    poly *= 1e-9 * math.sqrt(np.sum(weights * np.abs(mix) ** 2) / np.sum(weights * np.abs(poly) ** 2))
    return {"coefficients": [[z.real, z.imag] for z in (mix + poly).tolist()]}


# A degree-2 space has N + 1 = 3 coefficients; n-best searches for n >= N + 2
# nodes there end at the 3 nodes that capture the signal.
_TINY_SPACE = {"family": "hardy", "degree": 2, "radius_cap": 0.05}
_TINY_SIGNAL = {"coefficients": [[1.0, 0.0], [0.5, 0.0], [0.2, 0.1]]}
_TINY_ENSEMBLE = {"random": {"kind": "decaying_gaussian", "gamma": 1.0, "M": 6, "seed": 1}}

_PARTIAL_BLOCK_M = 100
_GAUSSIAN = {"kind": "decaying_gaussian", "gamma": 1.0, "M": _PARTIAL_BLOCK_M, "seed": 3}
EDGE = {
    "afd-n0": ("afd", _SIGNAL, 0),
    "afd-n2": ("afd", _SIGNAL, 2),
    "nbest-n0": ("nbest", _SIGNAL, 0),
    "nbest-zero-signal": ("nbest", {"coefficients": [[0.0, 0.0]]}, 2),
    "stochastic-n0": ("stochastic", _ENSEMBLE, 0),
    "stochastic-single-function": ("stochastic", _SIGNAL, 2),
    **_scaled_tasks("weak", _WEAK),
    **_scaled_tasks("strong", _STRONG),
    **_scaled_tasks("tiny", _TINY_SCALE),
    "stochastic-rank1-partial-block": (
        "stochastic", {"random": {**_ENSEMBLE["random"], "M": _PARTIAL_BLOCK_M}}, 2
    ),
    "stochastic-fullrank-partial-block": ("stochastic", {"random": _GAUSSIAN}, 2),
    "stochastic-deflated-partial-block": ("stochastic", {"random": _GAUSSIAN}, 2),
    "nbest-degree40-near-cap": ("nbest", _NEAR_CAP, 2),
    "nbest-exact-mix-near-cap": ("nbest", {"kernel_mix": _EXACT_MIX}, 3),
    "nbest-exact-mix-plus-polynomial": ("nbest", _mix_plus_polynomial(), 3),
    "nbest-order3-atom": ("nbest", {"kernel_mix": [{"a": [-0.2, -0.3], "c": [0.8, -0.6], "order": 3}]}, 3),
    "nbest-sweep-past-exact-mix": ("nbest", {"kernel_mix": _EXACT_MIX}, 4),
    "nbest-sweep-past-single-kernel": ("nbest", {"kernel_mix": [{"a": [0.3, 0.2], "c": [1.0, 0.0]}]}, 3),
    "nbest-more-nodes-than-coefficients": ("nbest", _TINY_SIGNAL, 4),
    "nbest-sweep-more-nodes-than-coefficients": ("nbest", _TINY_SIGNAL, 4),
    "stochastic-more-nodes-than-coefficients": ("stochastic", _TINY_ENSEMBLE, 5),
}
# The space of each edge task that does not run on _SPACE.
EDGE_SPACES = {
    "stochastic-fullrank-partial-block": _WIDE_SPACE,
    "nbest-degree40-near-cap": _SHORT_SPACE,
    "nbest-more-nodes-than-coefficients": _TINY_SPACE,
    "nbest-sweep-more-nodes-than-coefficients": _TINY_SPACE,
    "stochastic-more-nodes-than-coefficients": _TINY_SPACE,
}
# The edge tasks that run as decay sweeps to their n: every row past the
# signal's capture keeps the captured tuple.
EDGE_SWEEPS = {
    "nbest-sweep-past-exact-mix",
    "nbest-sweep-past-single-kernel",
    "nbest-sweep-more-nodes-than-coefficients",
}


def tasks(seeds, groups=GROUPS):
    """(label, config text) of every task of the named groups."""
    if "configs" in groups:
        for path in sorted((ROOT / "configs").glob("*.json")):
            yield f"configs/{path.stem}", path.read_text()
    for name in WORKLOADS:
        if name not in groups:
            continue
        for seed in seeds:
            for task in workloads.build(name, seed):
                yield f"{name}/{seed}/{task.id}", task.text
    if "edge" not in groups:
        return
    for label, (task, signal, n) in EDGE.items():
        space = EDGE_SPACES.get(label, _SPACE)
        config = {"task": task, "space": space, "signal": signal, "n": n, "optimizer": _OPTIMIZER}
        if label in EDGE_SWEEPS:
            config["n_max"] = n
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


def _raised(a: dict, b: dict) -> list:
    """The labels of the tasks that raised in ``a`` or ``b`` and do not
    match: a task that raised is one ``error:`` entry under its label, and
    one that ran has an entry per output under it.  Every entry of a task
    that raised in either is removed from both."""
    labels = sorted({k for d in (a, b) for k, v in d.items() if str(v).startswith("error: ")})
    differ = []
    for label in labels:
        sides = []
        for d in (a, b):
            keys = [k for k in d if k == label or k.startswith(label + "/")]
            sides.append({k: d.pop(k) for k in keys})
        if sides[0] != sides[1]:
            differ.append(label)
    return differ


def compare(a: dict, b: dict) -> int:
    """Print how the outputs of ``b`` differ from those of ``a``; 1 when a
    digest differs, a task raised in one of them only or a residual row is
    worse."""
    a, b = dict(a), dict(b)
    raised = _raised(a, b)
    only = sorted(set(a) ^ set(b))
    for label in only:
        print(f"only in {'A' if label in a else 'B'}: {label}")
    shared = sorted(set(a) & set(b))
    if all(isinstance(a[k], str) for k in shared):
        changed = [k for k in shared if a[k] != b[k]]
        print(f"{len(shared) - len(changed)} identical, {len(changed) + len(raised)} differing")
        for label in sorted(changed + raised):
            print(f"differs: {label}")
        return int(bool(changed or raised or only))
    groups: dict = {}
    for label in shared:
        groups.setdefault(label.split("/")[0], []).append((a[label], b[label]))
    worse = [k for k in shared if _worse(a[k], b[k])]
    print("group rows worse better mean_A mean_B worst_A worst_B")
    for name, rows in sorted(groups.items()):
        n_worse = sum(_worse(x, y) for x, y in rows)
        better = sum(_worse(y, x) for x, y in rows)
        mean_a, mean_b = (sum(r[i] for r in rows) / len(rows) for i in (0, 1))
        worst_a, worst_b = (max(r[i] for r in rows) for i in (0, 1))
        print(f"{name} {len(rows)} {n_worse} {better} "
              f"{mean_a:.6e} {mean_b:.6e} {worst_a:.6e} {worst_b:.6e}")
    for label in worse:
        print(f"worse: {label} {a[label]!r} {b[label]!r}")
    for label in raised:
        print(f"differs: {label}")
    return int(bool(worse or only or raised))


def run_at(rev: str, args: list) -> dict:
    """The report that a copy of this script prints with ``args`` in a
    temporary ``git worktree`` of ``rev``, which is removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        if subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev]).returncode:
            sys.exit(f"no worktree of {rev!r}")
        try:
            copy = tree / "scripts" / Path(__file__).name
            copy.parent.mkdir(exist_ok=True)
            shutil.copyfile(__file__, copy)
            run = subprocess.run([sys.executable, str(copy), *args], capture_output=True, text=True)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    if run.returncode:
        sys.exit(f"the tasks failed at {rev}:\n{run.stderr}")
    return json.loads(run.stdout)


def digest(file: Path, without_trace: bool) -> str:
    """sha256 of the file, or with ``without_trace`` of a result's JSON
    without its ``trace`` key, written with the program's own settings."""
    data = file.read_bytes()
    if without_trace and file.suffix == ".json":
        result = json.loads(data)
        if result.pop("trace", None) is not None:
            data = (json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def report(seeds, groups, residuals: bool, without_trace: bool = False) -> dict:
    """The digests, or with ``residuals`` the residual rows, of the tasks."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, text) in enumerate(tasks(seeds, groups)):
            path = Path(tmp) / str(i)
            try:
                cli.run_task(cli.parse_config(text), path)
            except Exception as exc:  # recorded, so that the other tasks still run
                print(f"{label}:", file=sys.stderr)
                traceback.print_exc()
                out[label] = f"error: {type(exc).__name__}"
                continue
            if residuals:
                out.update(relative_residuals(label, path))
                continue
            for file in sorted(path.iterdir()):
                out[f"{label}/{file.name}"] = digest(file, without_trace)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 101])
    ap.add_argument("--groups", nargs="+", choices=GROUPS, default=GROUPS, metavar="G",
                    help=f"run only the tasks of these groups (default: all of {' '.join(GROUPS)})")
    ap.add_argument("--residuals", action="store_true",
                    help="print residual / norm of every result and decay row instead of digests")
    ap.add_argument("--without-trace", action="store_true",
                    help="digest each result.json without its trace key")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two digest or residual files instead of running the tasks")
    ap.add_argument("--against", nargs="?", const="HEAD", metavar="REV",
                    help="run the tasks here and in a temporary worktree of REV (default HEAD) "
                    "and compare REV's outputs (A) with these (B)")
    args = ap.parse_args(argv)
    if args.compare:
        if args.against:
            ap.error("--compare and --against exclude each other")
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        return compare(a, b)
    here = report(args.seeds, args.groups, args.residuals, args.without_trace)
    if args.against:
        flags = ["--seeds", *map(str, args.seeds), "--groups", *args.groups]
        flags += ["--residuals"] * args.residuals + ["--without-trace"] * args.without_trace
        return compare(run_at(args.against, flags), here)
    json.dump(here, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # stdout closed early, as by ``| head``
        # Point stdout at devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
