"""Span tracer installed from outside the program, and the per-layer metrics.

Every wrapped name lives in ``WRAPS``: a function one module calls, looked up
as an attribute of the calling module (or of a class in it), and the span name
its calls are recorded under.  Installing the tracer replaces those attributes
with recording wrappers; ``uninstall`` puts the originals back.  A name that
no longer exists is skipped with a warning, and the metrics that need it are
reported absent with the reason.

A span is ``[name, start, end, parent, task, info, nested]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``task`` the id of the
task being run, ``info`` what the wrap's probe extracted from the call, and
``nested`` whether a span of the same name was already open.  Spans stay in
memory and ``write`` saves them when the run ends.
"""

from __future__ import annotations

import inspect
import statistics
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _gram_schmidt_probe(bound, result):
    system, degraded = result if isinstance(result, tuple) else (result, False)
    return len(system), system.basis.shape[1], bool(degraded)


def _kernel_matrix_probe(bound, result):
    return int(result.shape[0])


def _local_search_probe(bound, result):
    args = bound.arguments
    orders = args.get("orders")
    key = (
        np.asarray(args["x0"], dtype=np.float64).tobytes(),
        tuple(args.get("prefix", ())),
        None if orders is None else tuple(orders),
    )
    points, value = result
    return key, orders is not None, tuple(points), float(value)


def _minimize_probe(bound, result):
    return bound.arguments.get("method"), int(result.nfev), int(result.nit), float(result.fun)


def _ensemble_probe(bound, result):
    return len(next(iter(bound.arguments.values())))


def _battery_probe(bound, result):
    return sum(not report.passed for report in result)


VERIFY_CHECKS = (
    "check_norm_blowup",
    "estimate_pointwise_bound",
    "check_zero_property",
    "check_remainder_growth_bound",
    "check_boundary_vanishing",
    "check_bounded_kernel_limit",
    "check_zero_space_factorization",
)

# (calling module, attribute, span name, probe)
WRAPS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run_task", "cli.run_task", None),
    ("cli", "_dump_json", "cli.result.write", None),
    ("cli", "as_element", "spaces.as_element", None),
    ("cli", "generate_ensemble", "stochastic.generate_ensemble", None),
    ("cli", "afd_greedy", "engine.afd_greedy", None),
    ("cli", "nbest", "engine.nbest", None),
    ("cli", "residual_decay_sweep", "engine.residual_decay_sweep", None),
    ("cli", "stochastic_nbest", "stochastic.nbest", _ensemble_probe),
    ("cli", "battery", "verify.battery", _battery_probe),
    ("stochastic", "_nbest_points", "engine.stage.multistart", None),
    ("stochastic", "multiple_kernel", "spaces.multiple_kernel", None),
    ("engine", "_nbest_points", "engine.stage.multistart", None),
    ("engine", "_greedy_points", "engine.stage.greedy", None),
    ("engine", "_extend_greedily", "engine.stage.extend", None),
    ("engine", "_Bundle.finalize", "engine.stage.finalize", None),
    ("engine", "_Bundle.captured", "engine.objective", None),
    ("engine", "_local_search", "engine.local_search", _local_search_probe),
    ("engine", "minimize", "engine.minimize", _minimize_probe),
    ("engine", "_grid_increments", "engine.grid_increments", None),
    ("engine", "_gram_schmidt_impl", "orthosystem.gram_schmidt", _gram_schmidt_probe),
    ("engine", "kernel_matrix", "spaces.kernel_matrix", _kernel_matrix_probe),
    ("engine", "ParamTuple", "spaces.ParamTuple", None),
    ("engine", "_check_member", "spaces.check_member", None),
    ("orthosystem", "multiple_kernel", "spaces.multiple_kernel", None),
    ("orthosystem", "ParamTuple", "spaces.ParamTuple", None),
    ("orthosystem", "kernel", "spaces.kernel", None),
    ("orthosystem", "evaluate", "spaces.evaluate", None),
    ("orthosystem", "norm", "spaces.norm", None),
    ("orthosystem", "_check_member", "spaces.check_member", None),
    ("verify", "gram_schmidt", "orthosystem.gram_schmidt", _gram_schmidt_probe),
    ("verify", "project", "orthosystem.project", None),
    ("verify", "iterated_remainder", "orthosystem.iterated_remainder", None),
    ("verify", "zero_space_kernel", "orthosystem.zero_space_kernel", None),
    ("verify", "evaluate_blaschke", "orthosystem.evaluate_blaschke", None),
    ("verify", "_div_geometric", "orthosystem.div_geometric", None),
    ("verify", "_mul_shift", "orthosystem.mul_shift", None),
    ("verify", "bvc_profile", "engine.bvc_profile", None),
    ("verify", "ParamTuple", "spaces.ParamTuple", None),
    ("verify", "kernel", "spaces.kernel", None),
    ("verify", "evaluate", "spaces.evaluate", None),
    ("verify", "derivative_at", "spaces.derivative_at", None),
    ("verify", "norm", "spaces.norm", None),
    ("verify", "as_element", "spaces.as_element", None),
    *(("verify", check, f"verify.{check}", None) for check in VERIFY_CHECKS),
)

STAGES = ("greedy", "extend", "multistart", "merge_polish", "finalize")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.task = None
        self.installed: set = set()
        self.absent: dict = {}  # span name or metric -> reason
        self._stack: list = []
        self._open: Counter = Counter()
        self._restore: list = []

    def install(self, modules: dict) -> None:
        for module, attr, name, probe in WRAPS:
            owner = modules.get(module)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                reason = f"{module}.{attr} not found"
                warnings.warn(f"tracer: {reason}; its metrics are absent", stacklevel=2)
                self.absent.setdefault(name, reason)
                continue
            setattr(owner, leaf, self._wrap(original, name, probe))
            self._restore.append((owner, leaf, original))
            self.installed.add(name)
        for name in self.installed:
            self.absent.pop(name, None)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, probe):
        spans, stack, open_names = self.spans, self._stack, self._open
        signature = inspect.signature(fn) if probe is not None else None
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, None, open_names[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_names[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_names[name] -= 1
                stack.pop()
            if probe is not None:
                try:
                    span[5] = probe(signature.bind(*args, **kwargs), result)
                except (TypeError, AttributeError, KeyError, ValueError, IndexError) as exc:
                    tracer.absent.setdefault(f"{name} probe", f"{type(exc).__name__}: {exc}")
            return result

        return traced

    def write(self, path: Path) -> None:
        """Save spans as CSV: name,start,end,parent,task."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("name,start,end,parent,task\n")
            for name, start, end, parent, task, _, _ in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{task}\n")


def _flops(vectors: int, n1: int) -> int:
    """Computed MGS flop count: per vector k, two passes of k projections
    (inner product and update, 8 real flops per complex multiply-add each)
    plus two weighted norms."""
    return sum(n1 * (32 * k + 12) for k in range(vectors))


def _distinct(points_list, tol: float = 1e-3) -> int:
    """Number of distinct end points; searches capped by max_iter stop short
    of their optimum, so ends within ``tol`` count as one optimum."""
    reps: list = []
    for pts in points_list:
        key = np.sort_complex(np.asarray(pts, dtype=np.complex128))
        if not any(r.shape == key.shape and np.max(np.abs(r - key)) <= tol for r in reps):
            reps.append(key)
    return len(reps)


def layer_metrics(spans: list, first: int, last: int, scale: float = 1.0) -> dict:
    """Per-layer metrics of the spans with index in [first, last); times are
    multiplied by ``scale``."""
    child = defaultdict(float)
    for i in range(first, last):
        s = spans[i]
        if s[3] >= first:
            child[s[3]] += s[2] - s[1]
    calls: Counter = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i in range(first, last):
        name, start, end = spans[i][:3]
        calls[name] += 1
        if not spans[i][6]:
            total[name] += end - start
        self_s[name] += end - start - child[i]

    def stage_of(i):
        name, info = spans[i][0], spans[i][5]
        if name == "engine.local_search" and info is not None and info[1]:
            return "merge_polish"
        if name.startswith("engine.stage."):
            return name[len("engine.stage."):]
        return None

    stage_total = defaultdict(float)
    for i in range(first, last):
        stage = stage_of(i)
        if stage is None:
            continue
        dur = spans[i][2] - spans[i][1]
        stage_total[stage] += dur
        p = spans[i][3]
        while p >= first and stage_of(p) is None:
            p = spans[p][3]
        if p >= first:
            stage_total[stage_of(p)] -= dur

    out = {}
    for name in ("spaces.multiple_kernel", "spaces.kernel_matrix", "spaces.ParamTuple",
                 "orthosystem.gram_schmidt", "engine.objective", "engine.grid_increments",
                 "engine.local_search"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    for name in ("orthosystem.gram_schmidt", "engine.objective"):
        out[f"{name}.self_s"] = self_s[name]
    for name in ("orthosystem.project", "orthosystem.iterated_remainder",
                 "orthosystem.zero_space_kernel", "stochastic.nbest", "verify.battery",
                 "cli.parse_config", "cli.run_task"):
        out[f"{name}.s"] = total[name]
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = total[f"verify.{check}"]
    out["cli.result.write_s"] = total["cli.result.write"]

    info = defaultdict(list)
    for i in range(first, last):
        if spans[i][5] is not None:
            info[spans[i][0]].append((i, spans[i][5]))
    out["spaces.kernel_matrix.rows"] = sum(rows for _, rows in info["spaces.kernel_matrix"])
    gs = [v for _, v in info["orthosystem.gram_schmidt"]]
    out["orthosystem.gram_schmidt.vectors"] = sum(v for v, _, _ in gs)
    out["orthosystem.gram_schmidt.flops"] = sum(_flops(v, n1) for v, n1, _ in gs)
    out["orthosystem.gram_schmidt.degraded"] = sum(d for _, _, d in gs)

    searches = info["engine.local_search"]
    seen: set = set()
    repeated = 0
    for i, (key, _, _, _) in searches:
        key = (spans[i][4], key)
        repeated += key in seen
        seen.add(key)
    out["engine.local_search.repeated"] = repeated
    starts = defaultdict(list)
    for i, (_, merge, points, _) in searches:
        parent = spans[i][3]
        if not merge and parent >= first and spans[parent][0] == "engine.stage.multistart":
            starts[parent].append(points)
    n_starts = sum(len(v) for v in starts.values())
    out["engine.multistart.distinct_ratio"] = (
        sum(_distinct(v) for v in starts.values()) / n_starts if n_starts else 0.0
    )

    runs = {"Nelder-Mead": [], "L-BFGS-B": []}
    for i, (method, nfev, nit, fun) in info["engine.minimize"]:
        if method in runs:
            runs[method].append((i, nfev, nit, fun))
    for label, method in (("nelder_mead", "Nelder-Mead"), ("polish", "L-BFGS-B")):
        out[f"engine.{label}.nfev"] = sum(r[1] for r in runs[method])
        out[f"engine.{label}.nit"] = sum(r[2] for r in runs[method])
        out[f"engine.{label}.s"] = sum(spans[r[0]][2] - spans[r[0]][1] for r in runs[method])
    # A polish improves when it beats the Nelder-Mead result of its search.
    last_nm = {}
    improved = 0
    for i, (method, _, _, fun) in sorted(info["engine.minimize"]):
        if method == "Nelder-Mead":
            last_nm[spans[i][3]] = fun
        elif method == "L-BFGS-B":
            improved += fun < last_nm.get(spans[i][3], fun)
    polishes = len(runs["L-BFGS-B"])
    out["engine.polish.improved_ratio"] = improved / polishes if polishes else 0.0
    for stage in STAGES:
        out[f"engine.stage.{stage}.self_s"] = stage_total[stage]

    out["stochastic.realizations"] = sum(m for _, m in info["stochastic.nbest"])
    out["verify.checks.failed"] = sum(f for _, f in info["verify.battery"])
    for key in out:
        if key.endswith((".s", "_s")):
            out[key] *= scale
    return out


# What each metric is derived from: span names, and "<span> probe" where it
# needs what a wrap's probe extracts.  Metrics not listed use the span named
# by the metric without its last component.
_NEEDS = {
    "spaces.kernel_matrix.rows": ("spaces.kernel_matrix probe",),
    "orthosystem.gram_schmidt.vectors": ("orthosystem.gram_schmidt probe",),
    "orthosystem.gram_schmidt.flops": ("orthosystem.gram_schmidt probe",),
    "orthosystem.gram_schmidt.degraded": ("orthosystem.gram_schmidt probe",),
    "engine.local_search.repeated": ("engine.local_search probe",),
    "engine.multistart.distinct_ratio": ("engine.local_search probe", "engine.stage.multistart"),
    "engine.stage.merge_polish.self_s": ("engine.local_search probe",),
    "stochastic.realizations": ("stochastic.nbest probe",),
    "verify.checks.failed": ("verify.battery probe",),
    "cli.result.write_s": ("cli.result.write",),
    "cli.result.bytes": (),
    "engine.residual_rel": (),
    "trace.overhead_s": (),
}


def needed(metric: str) -> tuple:
    if metric in _NEEDS:
        needs = _NEEDS[metric]
    elif metric.startswith(("engine.nelder_mead.", "engine.polish.")):
        needs = ("engine.minimize probe",)
    else:
        needs = (metric.rsplit(".", 1)[0],)
    return tuple(n for need in needs for n in (need, need.removesuffix(" probe")))


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
