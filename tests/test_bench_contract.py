"""The benchmark's tracer still finds and probes every name it wraps.

``perfbench/tracer.py`` wraps program functions by module attribute.  When a
wrapped name is deleted, renamed or re-signed, the metrics that need it drop
out of the benchmark's result line, or read zero.  This runs small CLI tasks
under the tracer and checks that every wrapped name is found, that nothing is
reported absent and that the probes see what the per-layer metrics are
computed from.
"""

import importlib.util
import json
import warnings
from pathlib import Path

from nbestkernel import cli, engine, orthosystem, stochastic, verify

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {
    "cli": cli,
    "engine": engine,
    "orthosystem": orthosystem,
    "stochastic": stochastic,
    "verify": verify,
}
SPACE = {"family": "hardy", "degree": 64, "radius_cap": 0.5}
OPTIMIZER = {"multistart": 2, "grid_density": 8, "max_iter": 40, "seed": 1}
TASKS = {
    "sweep": {
        "task": "nbest",
        "space": SPACE,
        "signal": {"coefficients": [[1.0, 0.0], [0.5, -0.3], [-0.4, 0.2], [0.3, 0.1], [0.2, 0.0]]},
        "n_max": 2,
        "optimizer": OPTIMIZER,
    },
    "stochastic": {
        "task": "stochastic",
        "space": SPACE,
        "signal": {
            "random": {
                "kind": "kernel_mix",
                "atoms": [{"a": [0.3, 0.1], "c": [1.0, 0.0]}, {"a": [-0.2, 0.3], "c": [0.8, 0.4]}],
                "M": 8,
                "seed": 2,
            }
        },
        "n": 2,
        "optimizer": OPTIMIZER,
    },
    "verify": {"task": "verify", "space": SPACE},
}
# Spans the tasks above must record: the stages, the searches and the layers
# whose counts the per-layer metrics report.
SPANS = {
    "cli.parse_config",
    "cli.run_task",
    "engine.residual_decay_sweep",
    "engine.stage.greedy",
    "engine.stage.extend",
    "engine.stage.multistart",
    "engine.stage.finalize",
    "engine.objective",
    "engine.local_search",
    "engine.minimize",
    "engine.grid_increments",
    "spaces.kernel_matrix",
    "spaces.multiple_kernel",
    "orthosystem.gram_schmidt",
    "stochastic.nbest",
    "verify.battery",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_probes_every_wrapped_name(tmp_path):
    tracer = _load_tracer().Tracer()
    with warnings.catch_warnings(record=True) as missing:
        warnings.simplefilter("always")
        tracer.install(MODULES)
    try:
        for name, config in TASKS.items():
            cli.run_task(cli.parse_config(json.dumps(config)), tmp_path / name)
    finally:
        tracer.uninstall()
    # A name missing from one module is not reported absent when another
    # module's wrap records the same span, but its calls go uncounted.
    assert [str(w.message) for w in missing] == []
    assert tracer.absent == {}
    assert SPANS <= {span[0] for span in tracer.spans}

    info = {}
    for name, *_, probed, _ in tracer.spans:
        if probed is not None:
            info.setdefault(name, []).append(probed)
    # The polish metrics count only minimize calls whose method is named.
    assert {method for method, *_ in info["engine.minimize"]} == {"L-BFGS-B"}
    # Search keys carry the start, the fixed prefix and the merge orders.
    keys = [key for key, *_ in info["engine.local_search"]]
    assert all(x0 for x0, _, _ in keys)
    assert any(prefix for _, prefix, _ in keys)
    assert any(orders is not None for _, _, orders in keys)

    # The multistart lanes evaluate the objective on the Gram path through
    # ``_Bundle.captured`` directly, not inside a single local search: such a
    # span has the multistart stage as its nearest engine ancestor and, unlike
    # the MGS recomputation of a reported point, no Gram-Schmidt child.
    def nearest_engine_ancestor(i):
        while tracer.spans[i][3] >= 0:
            i = tracer.spans[i][3]
            if tracer.spans[i][0].startswith("engine."):
                return tracer.spans[i][0]
        return None

    mgs_parents = {span[3] for span in tracer.spans if span[0] == "orthosystem.gram_schmidt"}
    assert any(
        span[0] == "engine.objective"
        and i not in mgs_parents
        and nearest_engine_ancestor(i) == "engine.stage.multistart"
        for i, span in enumerate(tracer.spans)
    )
