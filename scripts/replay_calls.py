#!/usr/bin/env python3
"""Replay one function's recorded calls on two checkouts, alternating.

Every call of FUNCTION, written ``module:qualname`` within ``nbestkernel``
(``engine:_descend``, ``engine:_Bundle._gram_captured``,
``spaces:_kernel_rows``), is recorded over one in-process pass of each
named benchmark workload (``perfbench/workloads.py``, which is only
imported; default ``sweep`` and ``stochastic``), run through
``cli.parse_config`` and ``cli.run_task`` by checkout A's program.  The
calls are then replayed ``REPEATS`` (61) times on A's function and on
checkout B's, alternating which side goes first, and each replay of all the
calls is timed.  Both replays run on the objects that A's program passed, so B's
function must read them as A's does; it is meant for a copy of A in which
one branch of that function is changed.  During a side's replays its
function replaces A's wherever A's program looks it up, so the calls it
makes to itself run the same side.

A call's arguments are kept as they were when it was made: arrays that can
be written are copied.  A function or method passed as an argument (the
objective that ``_descend`` evaluates) is not run again: each call of it
returns, in order, copies of what it returned while recording, so the
replay times the function's own work.  Before timing, each side replays
the calls once and the two sides' results must be equal, NaN to NaN, or the
script stops with exit status 1; ``bitwise`` in its output tells whether
they also agree bit for bit (``-0.0`` is equal to ``0.0`` but not the same
bits).

It prints one JSON object: the calls recorded per workload, every replay's
seconds per side, their medians, and in how many of the 61 alternations A
was faster, with the one-sided sign-test p-value of that count (0.0004 at
44 of 61).  For example, whether a shortcut in ``_descend`` pays for itself,
against a copy without it in ``../reverted`` (one with a ``src/``):

    python3 scripts/replay_calls.py engine:_descend --b ../reverted --seed 5519

Replays run on one BLAS thread; run nothing else on the machine meanwhile.
"""

import os

# Before numpy loads: the BLAS thread count can change rounding and timing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
from perfbench import workloads  # noqa: E402

REPEATS = 61


def load(src: Path, name: str):
    """The ``nbestkernel`` package under ``src``, imported as ``name``."""
    where = src / "nbestkernel"
    spec = importlib.util.spec_from_file_location(
        name, where / "__init__.py", submodule_search_locations=[str(where)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def resolve(package, function: str):
    """(owner, attribute name, function) of ``module:qualname`` in the package."""
    module, _, qualname = function.partition(":")
    owner = importlib.import_module(f"{package.__name__}.{module}")
    *path, leaf = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def lookups(package, owner, leaf: str, fn) -> list:
    """Every (owner, name) through which the package reaches ``fn``: its own
    attribute and, for a module-level function, each module that imported it."""
    found = [(owner, leaf)]
    if inspect.ismodule(owner):
        for name, module in list(sys.modules.items()):
            if name.startswith(package.__name__ + ".") and module is not owner:
                if getattr(module, leaf, None) is fn:
                    found.append((module, leaf))
    return found


class Canned:
    """A callable argument: records what it returns, then returns copies of
    those results in the same order on each replay (``at`` rewinds it)."""

    def __init__(self, fn):
        self.fn, self.returns, self.at = fn, [], 0

    def record(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        self.returns.append(fresh(out))
        return out

    def __call__(self, *args, **kwargs):
        self.at += 1
        return fresh(self.returns[self.at - 1])


def fresh(value):
    """``value`` with every array copied, inside tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (tuple, list)):
        items = [fresh(v) for v in value]
        return type(value)(*items) if hasattr(value, "_fields") else type(value)(items)
    if isinstance(value, dict):
        return {k: fresh(v) for k, v in value.items()}
    return value


def prepare(value, canned: list):
    """(what the live call receives, what the replay receives) for one
    argument: a writeable array is copied for the replay, and a function or
    method becomes a ``Canned`` one that records its returns."""
    if isinstance(value, np.ndarray):
        return value, value.copy() if value.flags.writeable else value
    if inspect.isfunction(value) or inspect.ismethod(value):
        canned.append(Canned(value))
        return canned[-1].record, canned[-1]
    if isinstance(value, (tuple, list)):
        pairs = [prepare(v, canned) for v in value]
        if hasattr(value, "_fields"):
            return tuple(type(value)(*side) for side in zip(*pairs)) if pairs else (value, value)
        return tuple(type(value)(side) for side in zip(*pairs)) if pairs else (value, type(value)())
    if isinstance(value, dict):
        pairs = {k: prepare(v, canned) for k, v in value.items()}
        return {k: p[0] for k, p in pairs.items()}, {k: p[1] for k, p in pairs.items()}
    return value, value


def record(package, function: str, names: list, seed: int) -> tuple[list, dict]:
    """The calls (args, kwargs, canned arguments) of the function over one
    pass of each named workload, and their count per workload."""
    owner, leaf, original = resolve(package, function)
    places = lookups(package, owner, leaf, original)
    cli = importlib.import_module(f"{package.__name__}.cli")
    calls: list = []
    depth = [0]

    def recorder(*args, **kwargs):
        if depth[0]:  # a call the function makes to itself is part of its own
            return original(*args, **kwargs)
        canned: list = []
        live, kept = prepare((args, kwargs), canned)
        depth[0] += 1
        try:
            return original(*live[0], **live[1])
        finally:
            depth[0] -= 1
            calls.append((*kept, canned))

    counts = {}
    for place, name in places:
        setattr(place, name, recorder)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                start = len(calls)
                for i, task in enumerate(workloads.build(name, seed)):
                    cli.run_task(cli.parse_config(task.text), Path(tmp) / f"{name}-{i}")
                counts[name] = len(calls) - start
    finally:
        for place, name in places:
            setattr(place, name, original)
    return calls, counts


def replay(calls: list, fn, places: list, keep: bool = False):
    """Seconds to run every call on ``fn``, installed at ``places`` meanwhile,
    and with ``keep`` the results."""
    originals = [getattr(place, name) for place, name in places]
    for place, name in places:
        setattr(place, name, fn)
    results = [] if keep else None
    gc.collect()
    try:
        start = perf_counter()
        for args, kwargs, canned in calls:
            for c in canned:
                c.at = 0
            out = fn(*args, **kwargs)
            if keep:
                results.append(out)
        seconds = perf_counter() - start
    finally:
        for (place, name), original in zip(places, originals):
            setattr(place, name, original)
    return seconds, results


def same(a, b, bitwise: bool) -> bool:
    """Whether two results are equal (NaN equal to NaN), or with ``bitwise``
    the same bits, recursing into containers and the attributes of objects."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        return a.tobytes() == b.tobytes() if bitwise else np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float):
        return (a.hex() == b.hex() if bitwise else a == b) or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same(x, y, bitwise) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], bitwise) for k in a)
    if hasattr(a, "__dict__") and hasattr(b, "__dict__"):
        return type(a).__name__ == type(b).__name__ and same(vars(a), vars(b), bitwise)
    return type(a) is type(b) and a == b


def sign_test(wins: int, n: int) -> float:
    """One-sided p-value of at least ``wins`` of ``n`` fair coin tosses."""
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("function", help="module:qualname within nbestkernel, e.g. engine:_descend")
    ap.add_argument("--a", type=Path, default=ROOT, help="checkout that records and is A (default: this one)")
    ap.add_argument("--b", type=Path, required=True, help="checkout whose function is B")
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                    default=["sweep", "stochastic"])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    side_a = load(args.a.resolve() / "src", "nbestkernel")
    side_b = load(args.b.resolve() / "src", "_replay_b")
    owner, leaf, fn_a = resolve(side_a, args.function)
    fn_b = resolve(side_b, args.function)[2]
    places = lookups(side_a, owner, leaf, fn_a)
    calls, counts = record(side_a, args.function, args.workloads, args.seed)
    checked = [replay(calls, fn, places, keep=True)[1] for fn in (fn_a, fn_b)]
    for i, (x, y) in enumerate(zip(*checked)):
        if not same(x, y, bitwise=False):
            sys.exit(f"call {i}: A and B return different results")
    bitwise = all(same(x, y, bitwise=True) for x, y in zip(*checked))
    del checked
    for fn in (fn_a, fn_b):  # warm both sides
        replay(calls, fn, places)
    times: dict = {"a": [], "b": []}
    for i in range(REPEATS):
        for side in ("ab" if i % 2 == 0 else "ba"):
            times[side].append(replay(calls, fn_a if side == "a" else fn_b, places)[0])
    wins = sum(x < y for x, y in zip(times["a"], times["b"]))
    median = {side: statistics.median(runs) for side, runs in times.items()}
    out = {
        "function": args.function,
        "a": str(args.a),
        "b": str(args.b),
        "seed": args.seed,
        "calls": counts,
        "bitwise": bitwise,
        "repeats": REPEATS,
        "median_s": median,
        "b_minus_a_ms": round(1e3 * (median["b"] - median["a"]), 3),
        "a_faster_in": wins,
        "sign_test_p": sign_test(wins, REPEATS),
        "seconds": {side: [round(t, 6) for t in runs] for side, runs in times.items()},
    }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
