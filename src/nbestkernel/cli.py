"""Batch front end: JSON task configs in, result JSON / decay CSV / report JSON out.

One config describes one task.  Complex numbers are [re, im] pairs everywhere.
Identical configs produce byte-identical outputs; there are no timestamps and
all randomness is seeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, DivergenceRiskError, DomainError
from .spaces import DEFAULT_DEGREE, AnalyticFunction, SpaceSpec, _jsonify, as_element
from .engine import (
    ApproximationResult,
    OptimizerConfig,
    _check_norm,
    afd_decay_sweep,
    afd_greedy,
    nbest,
    residual_decay_sweep,
)
from .stochastic import Ensemble, _bundle, generate_ensemble, kernel_mix, stochastic_nbest
from .verify import battery

_TASKS = ("afd", "nbest", "stochastic", "verify")

# Size limits, checked before anything is allocated: the space degree N, and
# the M * (N + 1) complex entries of an ensemble's coefficient matrix (2**24,
# 256 MiB per copy; the search holds a few copies).  The same budget bounds
# the search grid's kernel rows (under grid_density**2 * (N + 1) entries) and
# the lanes of one n-best search: multistart + 2 starts, each with n kernel
# rows and a 2n x 2n inverse Hessian.
_MAX_DEGREE = 1 << 16
_MAX_ENSEMBLE_ENTRIES = 1 << 24

# Output files by config key, with their default names.
_OUTPUT_NAMES = {"result": "result.json", "decay": "decay.csv", "report": "report.json"}

@dataclass
class TaskConfig:
    task: str
    space: SpaceSpec
    signal: object  # AnalyticFunction | Ensemble | None (verify)
    n: int = 0
    n_max: int | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output: dict = field(default_factory=dict)


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _expect_mapping(obj, path: str, allowed: set, required: set) -> dict:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in allowed:
            _fail(f"{path}/{key}", "unknown field")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required field {key!r}")
    return obj


def _complex_pair(v, path: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        _fail(path, "expected a [re, im] number pair")
    return complex(_number(v[0], f"{path}/0"), _number(v[1], f"{path}/1"))


def _positive_int(v, path: str, minimum: int = 0, maximum: int | None = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        _fail(path, f"expected an integer >= {minimum}")
    if maximum is not None and v > maximum:
        _fail(path, f"expected an integer <= {maximum}")
    return v


def _check_ensemble_size(m: int, path: str, spec: SpaceSpec) -> None:
    limit = _MAX_ENSEMBLE_ENTRIES // (spec.max_degree + 1)
    if m > limit:
        _fail(
            path,
            f"{m} realizations exceed the {limit} that fit in {_MAX_ENSEMBLE_ENTRIES} "
            f"coefficients at degree {spec.max_degree}",
        )


def _check_search_size(opt: OptimizerConfig, spec: SpaceSpec, n: int, n_path: str) -> None:
    budget, n1 = _MAX_ENSEMBLE_ENTRIES, spec.max_degree + 1
    if opt.grid_density**2 * n1 > budget:
        _fail(
            "/optimizer/grid_density",
            f"a grid of {opt.grid_density}**2 points exceeds {budget} kernel row entries "
            f"at degree {spec.max_degree}",
        )
    for lanes, path in ((2, n_path), (opt.multistart + 2, "/optimizer/multistart")):
        if lanes * n * (n1 + 4 * n) > budget:
            _fail(
                path,
                f"{lanes} search lanes of {n} nodes exceed {budget} entries "
                f"at degree {spec.max_degree}",
            )


def _number(v, path: str) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        _fail(path, "expected a number")
    try:
        x = float(v)
    except OverflowError:
        _fail(path, "number out of floating-point range")
    if not math.isfinite(x):
        _fail(path, "expected a finite number")
    return x


def _parse_space(obj, path: str) -> SpaceSpec:
    obj = _expect_mapping(obj, path, {"family", "param", "degree", "radius_cap"}, {"family"})
    family = obj["family"]
    if family not in ("hardy", "bergman", "weighted_hardy"):
        _fail(f"{path}/family", f"unknown family {family!r}")
    param = _number(obj.get("param", 0.0), f"{path}/param")
    if family == "bergman" and param <= -1.0:
        _fail(f"{path}/param", "bergman exponent must exceed -1")
    degree = _positive_int(
        obj.get("degree", DEFAULT_DEGREE), f"{path}/degree", minimum=1, maximum=_MAX_DEGREE
    )
    kwargs = {}
    if "radius_cap" in obj:
        kwargs["radius_cap"] = _number(obj["radius_cap"], f"{path}/radius_cap")
        if not 0.0 < kwargs["radius_cap"] < 1.0:
            _fail(f"{path}/radius_cap", "radius_cap must lie in (0, 1)")
    try:
        return SpaceSpec(family, param, degree, **kwargs)
    except DomainError as exc:  # the truncation at radius_cap
        _fail(path, str(exc))
    except ValueError as exc:  # the weights of param
        _fail(f"{path}/param", str(exc))


def _parse_atoms(items, path: str, spec: SpaceSpec) -> list[tuple[complex, complex, int]]:
    if not isinstance(items, list) or not items:
        _fail(path, "expected a non-empty list of kernel atoms")
    atoms = []
    for i, item in enumerate(items):
        item = _expect_mapping(item, f"{path}/{i}", {"a", "c", "order"}, {"a", "c"})
        a = _complex_pair(item["a"], f"{path}/{i}/a")
        if abs(a) >= 1.0:
            _fail(f"{path}/{i}/a", "kernel parameter must lie in the open unit disc")
        c = _complex_pair(item["c"], f"{path}/{i}/c")
        order = _positive_int(item.get("order", 1), f"{path}/{i}/order", minimum=1)
        if order > spec.max_degree:
            _fail(f"{path}/{i}/order", "order exceeds the space degree")
        atoms.append((a, c, order))
    return atoms


def _checked_norm(signal, spec: SpaceSpec, path: str):
    """``signal``, if the engine accepts its squared norm (``_check_norm``).
    A random ensemble is checked where it is generated.  An ensemble keeps
    the norms of this check, which its search reads (``Ensemble``)."""
    rows = signal if isinstance(signal, Ensemble) else Ensemble.from_functions(spec, [signal])
    try:
        _check_norm(_bundle(rows))
    except DomainError as exc:
        _fail(path, str(exc))
    return signal


def _as_signal(f: AnalyticFunction, spec: SpaceSpec, single: bool):
    """``f``, or for a stochastic task the ensemble of ``f`` alone."""
    return f if single else Ensemble.from_functions(spec, [f])


def _parse_coefficients(pairs, path: str, spec: SpaceSpec) -> AnalyticFunction:
    """The function whose coefficients are the list at ``path``: a non-empty
    list of at most N + 1 [re, im] pairs."""
    if not isinstance(pairs, list) or not pairs:
        _fail(path, "expected a non-empty list of [re, im] pairs")
    values = [_complex_pair(p, f"{path}/{i}") for i, p in enumerate(pairs)]
    if len(values) > spec.max_degree + 1:
        _fail(path, "more coefficients than the space degree allows")
    return as_element(spec, values)


def _parse_signal(obj, path: str, spec: SpaceSpec, single: bool):
    """The signal at ``path``; with ``single`` only a single function is accepted."""
    obj = _expect_mapping(
        obj, path, {"coefficients", "kernel_mix", "random", "realizations", "weights"}, set()
    )
    forms = [k for k in ("coefficients", "kernel_mix", "random", "realizations") if k in obj]
    if len(forms) != 1:
        _fail(path, "exactly one of coefficients, kernel_mix, random, realizations is required")
    form = forms[0]
    if single and form in ("random", "realizations"):
        _fail(path, "afd and nbest tasks need a single-function signal")
    if "weights" in obj and form != "realizations":
        _fail(f"{path}/weights", "weights apply only to explicit realizations")
    if form == "coefficients":
        f = _parse_coefficients(obj["coefficients"], f"{path}/coefficients", spec)
        return _checked_norm(_as_signal(f, spec, single), spec, path)
    if form == "kernel_mix":
        atoms = _parse_atoms(obj["kernel_mix"], f"{path}/kernel_mix", spec)
        return _checked_norm(_as_signal(kernel_mix(spec, atoms), spec, single), spec, path)
    if form == "realizations":
        rows = obj["realizations"]
        if not isinstance(rows, list) or not rows:
            _fail(f"{path}/realizations", "expected a non-empty list of coefficient lists")
        _check_ensemble_size(len(rows), f"{path}/realizations", spec)
        funcs = [_parse_coefficients(row, f"{path}/realizations/{i}", spec) for i, row in enumerate(rows)]
        weights = None
        if "weights" in obj:
            w = obj["weights"]
            if not isinstance(w, list) or len(w) != len(funcs):
                _fail(f"{path}/weights", "expected one weight per realization")
            weights = [_number(x, f"{path}/weights/{i}") for i, x in enumerate(w)]
        try:
            ensemble = Ensemble.from_functions(spec, funcs, weights)
        except ValueError as exc:  # only the weights can be refused
            _fail(f"{path}/weights", str(exc))
        return _checked_norm(ensemble, spec, path)
    rnd = _expect_mapping(
        obj["random"],
        f"{path}/random",
        {"kind", "gamma", "M", "seed", "atoms", "xi"},
        {"kind", "M", "seed"},
    )
    kind = rnd["kind"]
    m = _positive_int(rnd["M"], f"{path}/random/M", minimum=1)
    _check_ensemble_size(m, f"{path}/random/M", spec)
    seed = _positive_int(rnd["seed"], f"{path}/random/seed", minimum=0)
    if kind == "decaying_gaussian":
        if "gamma" not in rnd:
            _fail(f"{path}/random", "missing required field 'gamma'")
        params = {"gamma": _number(rnd["gamma"], f"{path}/random/gamma")}
    elif kind == "kernel_mix":
        if "atoms" not in rnd:
            _fail(f"{path}/random", "missing required field 'atoms'")
        params = {"atoms": _parse_atoms(rnd["atoms"], f"{path}/random/atoms", spec)}
        if "xi" in rnd:
            if rnd["xi"] not in ("ones", "complex_normal"):
                _fail(f"{path}/random/xi", "expected 'ones' or 'complex_normal'")
            params["xi"] = rnd["xi"]
    else:
        _fail(f"{path}/random/kind", f"unknown random signal kind {kind!r}")
    try:
        return generate_ensemble(spec, kind, params, m, seed)
    except DivergenceRiskError as exc:
        _fail(f"{path}/random/gamma", str(exc))
    except ValueError as exc:
        _fail(f"{path}/random", str(exc))


def _parse_optimizer(obj, path: str) -> OptimizerConfig:
    """The optimizer block, whose keys and their kinds (an integer or a
    number, by the default's type) are ``OptimizerConfig``'s fields.  Each
    field is checked alone, the others at their defaults, so that a range
    error points at its field."""
    kinds = {f.name: type(f.default) for f in fields(OptimizerConfig)}
    obj = _expect_mapping(obj, path, set(kinds), set())
    kwargs = {}
    for key, value in obj.items():
        if kinds[key] is int:
            kwargs[key] = _positive_int(value, f"{path}/{key}", minimum=0)
        else:
            kwargs[key] = _number(value, f"{path}/{key}")
        try:
            OptimizerConfig(**{key: kwargs[key]})
        except ValueError as exc:
            _fail(f"{path}/{key}", str(exc))
    return OptimizerConfig(**kwargs)


def parse_config(text: str) -> TaskConfig:
    """Parse and validate a task config; diagnostics carry the offending path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"/: invalid JSON ({exc})") from exc
    raw = _expect_mapping(
        raw, "", {"task", "space", "signal", "n", "n_max", "optimizer", "output"}, {"space", "task"}
    )
    task = raw["task"]
    if task not in _TASKS:
        _fail("/task", f"unknown task {task!r}")
    spec = _parse_space(raw["space"], "/space")
    signal = None
    if task == "verify":
        if "signal" in raw:
            _fail("/signal", "verify tasks take no signal")
    else:
        if "signal" not in raw:
            _fail("", "missing required field 'signal'")
        signal = _parse_signal(raw["signal"], "/signal", spec, single=task != "stochastic")
    n = _positive_int(raw.get("n", 0), "/n", minimum=0)
    n_max = None
    if "n_max" in raw:
        n_max = _positive_int(raw["n_max"], "/n_max", minimum=1)
        if task in ("stochastic", "verify"):
            _fail("/n_max", "decay sweeps are only defined for afd and nbest tasks")
    optimizer = _parse_optimizer(raw.get("optimizer", {}), "/optimizer")
    if n_max is None:
        _check_search_size(optimizer, spec, n, "/n")
    else:
        _check_search_size(optimizer, spec, n_max, "/n_max")
    output = _expect_mapping(raw.get("output", {}), "/output", set(_OUTPUT_NAMES), set())
    files = {name: key for key, name in _OUTPUT_NAMES.items() if key not in output}
    for key, value in output.items():
        if not isinstance(value, str) or not value:
            _fail(f"/output/{key}", "expected a non-empty file name")
        if "/" in value or "\\" in value or value in (".", ".."):  # every output stays in --out
            _fail(f"/output/{key}", "expected a file name without a directory part")
        if value in files:
            _fail(f"/output/{key}", f"names the same file as /output/{files[value]}")
        files[value] = key
    return TaskConfig(task, spec, signal, n, n_max, optimizer, dict(output))


# -- serialization -------------------------------------------------------------


def _space_block(spec: SpaceSpec) -> dict:
    return {"family": spec.family, "param": spec.param, "degree": spec.max_degree}


def _result_payload(cfg: TaskConfig, res: ApproximationResult, n: int, seed: int) -> dict:
    payload = {
        "task": cfg.task,
        "method": res.method,
        "space": _space_block(cfg.space),
        "n": n,
        "parameters": res.params.points,
        "multiplicities": list(res.params.orders),
        "seed": seed,
        "trace": res.trace,
        "degraded": res.degraded,
    }
    if cfg.task == "stochastic":
        payload.update(
            realizations=len(res.coefficients),
            bochner_norm=res.bochner_norm,
            expected_energy=res.expected_energy,
            expected_residual=res.expected_residual,
            coefficients=res.coefficients,
        )
    else:
        payload.update(
            norm=res.norm,
            energy=res.energy,
            residual=res.residual,
            coefficients=res.coefficients,
        )
    return payload


def emit_decay_table(results) -> str:
    """CSV text with header n,residual,energy and one row per node count."""
    lines = ["n,residual,energy"]
    for n, res in enumerate(results):
        lines.append(f"{n},{res.residual!r},{res.energy!r}")
    return "\n".join(lines) + "\n"


def _dump_json(payload, path: Path) -> None:
    path.write_text(json.dumps(_jsonify(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


def run_task(cfg: TaskConfig, out_dir: Path, seed: int | None = None) -> int:
    """Execute one task and write its artifacts; returns the exit status."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    optimizer = cfg.optimizer
    if seed is not None:
        optimizer = OptimizerConfig(**{**optimizer.__dict__, "seed": seed})
    names = {**_OUTPUT_NAMES, **cfg.output}
    result_path, decay_path, report_path = (out_dir / names[k] for k in ("result", "decay", "report"))

    if cfg.task == "verify":
        reports = battery(cfg.space, seed=optimizer.seed)
        payload = {
            "task": "verify",
            "space": _space_block(cfg.space),
            "seed": optimizer.seed,
            "checks": [r.to_dict() for r in reports],
            "all_passed": all(r.passed for r in reports),
        }
        _dump_json(payload, report_path)
        return 0 if payload["all_passed"] else 2

    signal = cfg.signal
    if cfg.task == "stochastic":
        res = stochastic_nbest(signal, cfg.n, optimizer)
    elif cfg.n_max is not None:
        if cfg.task == "afd":
            results = afd_decay_sweep(cfg.space, signal, cfg.n_max, optimizer)
        else:
            results = residual_decay_sweep(cfg.space, signal, cfg.n_max, optimizer)
        decay_path.write_text(emit_decay_table(results))
        res = results[-1]
    else:
        engine = afd_greedy if cfg.task == "afd" else nbest
        res = engine(cfg.space, signal, cfg.n, optimizer)
    n = cfg.n if cfg.n_max is None else cfg.n_max
    _dump_json(_result_payload(cfg, res, n, optimizer.seed), result_path)
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as ``/optimizer/seed``."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nbestkernel",
        description="Greedy / n-best kernel approximation tasks from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("afd", "greedy approximation"),
        ("nbest", "global n-best approximation"),
        ("stochastic", "shared-node approximation of a random ensemble"),
        ("verify", "run the numerical certification battery"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="task config JSON path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's 2 for a usage error; 2 here means a failed check
        return 1 if exc.code else 0
    try:
        cfg = parse_config(Path(args.config).read_text())
        if cfg.task != args.command:
            raise ConfigError(
                f"/task: config declares {cfg.task!r} but the {args.command!r} subcommand was invoked"
            )
        return run_task(cfg, Path(args.out), seed=args.seed)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
