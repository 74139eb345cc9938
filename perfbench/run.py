#!/usr/bin/env python3
"""Closed-loop benchmark of the nbestkernel CLI entry points.

One process generates a workload's task configs from the seed as JSON text and
feeds them, one task at a time, through ``cli.parse_config`` and
``cli.run_task`` from the checkout's ``src``.  A pass runs every task once;
passes repeat the same tasks until ``--seconds`` is spent (at least two), and
every output is checked by the oracle and hashed so that any difference
between passes, or from an earlier run of the same seed and sources, counts
as a failure.

Times are reported at reference speed.  The machine's speed drifts by a
fifth or more over tens of seconds (shared host), so between tasks and
between set-up probes the run times ``reference_work``, a fixed computation
in this file in the program's style, and scales each raw time by
``REF_SECONDS`` over the median of the reference times taken just before and
just after it.  Raw times are printed too.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, untraced.
``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Everything the run writes
goes under ``.perfbench/`` in the checkout.
"""

import os

# Before numpy loads: one BLAS thread (at most nproc) for a single closed-loop
# client on small matrices, so thread scheduling adds no noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_PASSES = 2
SETUP_REPEATS = 3
REF_SAMPLES = 3  # reference timings between tasks and between set-up probes
# Typical time of reference_work() on a 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4) when the host is quiet.
REF_SECONDS = 0.02

# Per-layer metrics that count work; they must repeat exactly between passes
# and between runs of the same seed.
EXACT_SUFFIXES = (".calls", ".nfev", ".nit", ".vectors", ".flops", ".degraded", ".rows",
                  ".repeated", "_ratio", ".realizations", ".failed", ".bytes")


def environment() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference_work() -> float:
    """Time a fixed computation shaped like one objective evaluation loop:
    kernel rows, a two-pass weighted Gram-Schmidt on 1025 complex
    coefficients, and small Python objects."""
    import numpy as np

    start = perf_counter()
    rng = np.random.default_rng(0)
    ks = np.arange(1025)
    w = 1.0 / (1.0 + ks)
    for _ in range(40):
        pts = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
        rows = np.conj(pts)[:, None] ** ks[None, :]
        basis = np.zeros_like(rows)
        for k in range(3):
            v = rows[k].copy()
            for _ in range(2):
                v -= ((w * v) @ basis[:k].conj().T) @ basis[:k]
            basis[k] = v / np.sqrt(np.sum(w * np.abs(v) ** 2))
        json.dumps({"points": [[float(p.real), float(p.imag)] for p in pts]})
    return perf_counter() - start


def sample_reference() -> list:
    return [reference_work() for _ in range(REF_SAMPLES)]


def at_reference_speed(raw: list, refs: list) -> list:
    """Scale raw[i] by the reference times taken before (refs[i]) and after
    (refs[i + 1]) it."""
    return [t * REF_SECONDS / statistics.median(refs[i] + refs[i + 1]) for i, t in enumerate(raw)]


def measure_setup(texts: list, work: Path) -> tuple[float, float]:
    """Median over fresh interpreters of import plus parse of every config,
    raw and at reference speed."""
    configs = work / "configs.json"
    configs.write_text(json.dumps(texts))
    times = []
    refs = [sample_reference()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(configs)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
        refs.append(sample_reference())
    return statistics.median(times), statistics.median(at_reference_speed(times, refs))


class Pass:
    def __init__(self):
        self.durations: dict = {}  # raw seconds
        self.scaled: dict = {}  # seconds at reference speed
        self.outcomes: dict = {}
        self.digests: dict = {}
        self.failures: dict = {}
        self.parsed: dict = {}
        self.bytes = 0

    @property
    def raw_wall(self) -> float:
        return sum(self.durations.values())

    @property
    def wall(self) -> float:
        return sum(self.scaled.values())


def run_pass(cli, tasks, texts, out_root: Path, tracer=None, tag="") -> Pass:
    p = Pass()
    refs = [sample_reference()]
    for task, text in zip(tasks, texts):
        out = out_root / task.id
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.task = f"{tag}{task.id}"
        start = perf_counter()
        try:
            status = cli.run_task(cli.parse_config(text), out)
        except Exception as exc:  # a task that raises fails; the loop goes on
            p.durations[task.id] = perf_counter() - start
            p.outcomes[task.id] = f"{type(exc).__name__}: {exc}"
            refs.append(sample_reference())
            continue
        p.durations[task.id] = perf_counter() - start
        refs.append(sample_reference())
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()}
        p.outcomes[task.id] = (status, files)
        p.bytes += sum(len(data) for data in files.values())
        h = hashlib.sha256()
        for name, data in files.items():
            h.update(name.encode() + b"\0" + data)
        p.digests[task.id] = h.hexdigest()
    p.scaled = dict(zip(p.durations, at_reference_speed(list(p.durations.values()), refs)))
    p.failures, p.parsed = oracle.check_pass(tasks, p.outcomes)
    return p


def residual_rel(tasks, p: Pass) -> float:
    ratios = [oracle.residual_ratio(t, p.parsed[t.id]) for t in tasks if t.id in p.parsed]
    ratios = [r for r in ratios if r is not None]
    return statistics.fmean(ratios) if ratios else 0.0


def check_record(path: Path, digests: dict, counts: dict) -> list:
    """Compare with the record of an earlier run of this seed and sources;
    returns the task ids and count names that differ, and updates the record."""
    record = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k, v in digests.items() if record.get("digests", {}).get(k, v) != v]
    differ += [k for k, v in counts.items() if record.get("counts", {}).get(k, v) != v]
    record.setdefault("digests", {}).update(digests)
    record.setdefault("counts", {}).update(counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nbestkernel" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tasks = workloads.build(args.workload, args.seed)
    texts = [t.text for t in tasks]
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    setup_raw, setup_s = (None, None) if args.trace else measure_setup(texts, work)

    sys.path.insert(0, str(SRC))
    from nbestkernel import cli, engine, orthosystem, stochastic, verify

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: nbestkernel imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "engine": engine, "orthosystem": orthosystem,
               "stochastic": stochastic, "verify": verify}

    out_root = work / "out"
    for i, text in enumerate(workloads.warmup(tasks)):
        cli.run_task(cli.parse_config(text), work / "warmup" / str(i))
    start = perf_counter()
    untraced = [run_pass(cli, tasks, texts, out_root)]
    traced: list = []
    raw: dict = {}
    absent: dict = {}
    if not args.trace:
        while len(untraced) < MIN_PASSES or (
            perf_counter() - start + statistics.median(p.raw_wall for p in untraced) <= args.seconds
        ):
            untraced.append(run_pass(cli, tasks, texts, out_root))
        raw = {
            "wall_s": statistics.median(p.raw_wall for p in untraced),
            "task_s.p50": statistics.median(d for p in untraced for d in p.durations.values()),
            "setup_s": setup_raw,
        }
        values = {
            "wall_s": statistics.median(p.wall for p in untraced),
            "task_s.p50": statistics.median(d for p in untraced for d in p.scaled.values()),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(modules)
        bounds = []
        try:
            while not traced or (
                perf_counter() - start + statistics.median(p.raw_wall for p in traced)
                <= args.seconds
            ):
                first = len(tracer.spans)
                traced.append(
                    run_pass(cli, tasks, texts, out_root, tracer, f"p{len(traced)}.")
                )
                bounds.append((first, len(tracer.spans)))
        finally:
            tracer.uninstall()
        tracer.write(work / "trace.csv")
        per_pass = []
        for p, (first, last) in zip(traced, bounds):
            m = tracing.layer_metrics(tracer.spans, first, last, p.wall / p.raw_wall)
            m["cli.result.bytes"] = p.bytes
            m["engine.residual_rel"] = residual_rel(tasks, p)
            per_pass.append(m)
        for m in per_pass[1:]:
            for k, v in m.items():
                if k.endswith(EXACT_SUFFIXES) and v != per_pass[0][k]:
                    traced[-1].failures.setdefault("counts", f"{k} differs between traced passes")
        values = tracing.median_metrics(per_pass)
        values["trace.overhead_s"] = statistics.median(p.wall for p in traced) - untraced[0].wall
        for metric in list(values):
            missing = [n for n in tracing.needed(metric) if n in tracer.absent]
            if missing:
                absent[metric] = tracer.absent[missing[0]]
                del values[metric]

    passes = untraced + traced
    reference = passes[0].digests
    for i, p in enumerate(passes[1:], start=2):
        for task_id, digest in p.digests.items():
            if reference.get(task_id) != digest:
                p.failures.setdefault(task_id, f"output differs from pass 1 in pass {i}")
    counts = {k: v for k, v in values.items() if args.trace and k.endswith(EXACT_SUFFIXES)}
    record = WORK / "records" / f"{args.workload}-{args.seed}-{source_digest()}.json"
    for key in check_record(record, reference, counts):
        passes[0].failures.setdefault(key, "differs from an earlier run with this seed")

    attempted = sum(len(p.durations) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            absent.setdefault(m["name"], "not measured")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes of {len(tasks)} tasks; "
          f"{attempted} task samples")
    for name, value in values.items():
        unit = metrics[name]["unit"] if name in metrics else "s (printed only)"
        extra = f" (raw {raw[name]:.6g} s)" if name in raw else ""
        print(f"  {name} {value:.6g} {unit}{extra}")
    for name, reason in sorted(absent.items()):
        print(f"  absent {name}: {reason}")
    print(f"  fail_ratio {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    for i, p in enumerate(passes, start=1):
        for task_id, reason in sorted(p.failures.items()):
            print(f"  FAIL pass {i} {task_id}: {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / f"run-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "seed": args.seed, "absent": absent, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
