import json

import pytest

from nbestkernel import ConfigError, Ensemble, OptimizerConfig, ParamTuple, afd_greedy, energy, norm
from nbestkernel import cli
from nbestkernel.cli import (
    TaskConfig,
    _dump_json,
    _result_payload,
    emit_decay_table,
    main,
    parse_config,
    run_task,
)

SMALL_SPACE = {"family": "hardy", "degree": 256, "radius_cap": 0.9}

NBEST_CFG = {
    "task": "nbest",
    "space": SMALL_SPACE,
    "signal": {
        "kernel_mix": [
            {"a": [0.3, 0.0], "c": [2.0, 0.0]},
            {"a": [0.0, -0.5], "c": [1.0, 0.0]},
        ]
    },
    "n": 2,
    "optimizer": {"multistart": 4, "grid_density": 16, "seed": 11},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_parse_minimal_config_defaults():
    cfg = parse_config(
        json.dumps(
            {
                "task": "afd",
                "space": {"family": "hardy"},
                "signal": {"coefficients": [[1.0, 0.0], [0.5, 0.0]]},
                "n": 1,
            }
        )
    )
    assert isinstance(cfg, TaskConfig)
    assert cfg.space.max_degree == 1024
    assert cfg.optimizer.delta == 0.05
    assert cfg.optimizer.seed == 0


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda c: c["space"].update(param=-2.0, family="bergman"), "/space"),
        (
            lambda c: c["signal"]["kernel_mix"][0].update(a=[1.2, 0.0]),
            "/signal/kernel_mix/0/a",
        ),
        (lambda c: c.update(surprise=1), "/surprise"),
        (lambda c: c["optimizer"].update(unknown_knob=2), "/optimizer/unknown_knob"),
        (lambda c: c.update(n=-1), "/n"),
    ],
)
def test_parse_rejections_carry_paths(mutate, fragment):
    cfg = json.loads(json.dumps(NBEST_CFG))
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(cfg))
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda c: c["space"].update(param=float("nan")), "/space/param"),
        (lambda c: c["space"].update(radius_cap=float("inf")), "/space/radius_cap"),
        (
            lambda c: c["signal"]["kernel_mix"][0].update(a=[float("nan"), 0.0]),
            "/signal/kernel_mix/0/a/0",
        ),
        (
            lambda c: c["signal"]["kernel_mix"][1].update(c=[0.0, float("-inf")]),
            "/signal/kernel_mix/1/c/1",
        ),
        (lambda c: c["optimizer"].update(ftol=float("nan")), "/optimizer/ftol"),
        (lambda c: c["optimizer"].update(merge_tol=10**400), "/optimizer/merge_tol"),
    ],
)
def test_parse_rejects_non_finite_numbers(mutate, fragment):
    cfg = json.loads(json.dumps(NBEST_CFG))
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(cfg))
    assert fragment in str(err.value)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
@pytest.mark.parametrize(
    "task,signal",
    [
        ("afd", lambda c: {"coefficients": [[c, 0.0], [0.0, c]]}),
        ("nbest", lambda c: {"kernel_mix": [{"a": [0.3, 0.0], "c": [c, 0.0]}]}),
        ("stochastic", lambda c: {"realizations": [[[c, 0.0]], [[0.0, c]]]}),
    ],
    ids=["coefficients", "kernel_mix", "realizations"],
)
def test_signal_norms_outside_the_normal_range_exit_with_the_signal_pointer(
    tmp_path, capsys, task, signal, scale
):
    """A squared norm that overflows, or underflows to 0, is refused at
    /signal; nothing is run or written."""
    cfg = {"task": task, "space": {"family": "hardy", "degree": 64, "radius_cap": 0.5},
           "signal": signal(scale), "n": 1}
    with pytest.raises(ConfigError, match="^/signal: squared signal norm"):
        parse_config(json.dumps(cfg))
    path = _write(tmp_path, "cfg.json", cfg)
    assert main([task, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: /signal: squared signal norm")
    assert not (tmp_path / "result.json").exists()
    cfg["signal"] = signal(1e-150)  # still a normal squared norm
    assert parse_config(json.dumps(cfg)).signal is not None


def test_random_ensembles_outside_the_normal_range_are_refused():
    atoms = [{"a": [0.3, 0.0], "c": [1e-200, 0.0]}]
    signal = {"random": {"kind": "kernel_mix", "atoms": atoms, "M": 4, "seed": 1}}
    payload = {"task": "stochastic", "space": {"family": "hardy", "degree": 64, "radius_cap": 0.5},
               "signal": signal}
    with pytest.raises(ConfigError, match="^/signal/random: squared signal norm"):
        parse_config(json.dumps(payload))


def test_non_finite_space_param_exits_with_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(NBEST_CFG))
    cfg["space"] = {"family": "hardy", "param": float("nan")}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["nbest", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "/space/param" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "knob,value",
    [
        ("ftol", -1.0),
        ("ftol", 0.0),
        ("merge_tol", -1e-9),
        ("delta", float("inf")),
        ("delta", 0.5e-2),
        ("grid_density", 2),
        ("max_iter", 0),
        ("seed", -1),
    ],
)
def test_optimizer_config_rejects_bad_floats(knob, value):
    """Range errors point at their field.  The retired ``ftol`` accepts no
    value at all: the library refuses the keyword, the config the field."""
    with pytest.raises(TypeError if knob == "ftol" else ValueError):
        OptimizerConfig(**{knob: value})
    if value == value and abs(value) != float("inf"):
        cfg = json.loads(json.dumps(NBEST_CFG))
        cfg["optimizer"][knob] = value
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(cfg))
        assert str(err.value).startswith(f"/optimizer/{knob}: ")


def test_dump_json_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        _dump_json({"energy": float("nan")}, tmp_path / "out.json")


def test_parse_rejects_two_signal_forms():
    cfg = json.loads(json.dumps(NBEST_CFG))
    cfg["signal"]["coefficients"] = [[1.0, 0.0]]
    with pytest.raises(ConfigError):
        parse_config(json.dumps(cfg))


def test_parse_invalid_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_nbest_task_round_trip(tmp_path):
    path = _write(tmp_path, "cfg.json", NBEST_CFG)
    cfg = parse_config(path.read_text())
    status = run_task(cfg, tmp_path)
    assert status == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["residual"] <= 1e-6 * payload["norm"]
    # re-evaluate the reported parameters from scratch
    pts = tuple(complex(re, im) for re, im in payload["parameters"])
    recomputed = energy(cfg.space, cfg.signal, ParamTuple(pts, radius_cap=0.9))
    assert recomputed == pytest.approx(payload["energy"], abs=1e-10 * max(payload["norm"] ** 2, 1))


def test_result_json_deterministic(tmp_path):
    path = _write(tmp_path, "cfg.json", NBEST_CFG)
    cfg = parse_config(path.read_text())
    run_task(cfg, tmp_path / "a")
    run_task(cfg, tmp_path / "b")
    assert (tmp_path / "a/result.json").read_bytes() == (tmp_path / "b/result.json").read_bytes()


def test_seed_override_changes_payload_seed(tmp_path):
    path = _write(tmp_path, "cfg.json", NBEST_CFG)
    cfg = parse_config(path.read_text())
    run_task(cfg, tmp_path, seed=99)
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["seed"] == 99


def test_afd_zero_nodes_reports_signal_norm(tmp_path):
    cfg_payload = {
        "task": "afd",
        "space": SMALL_SPACE,
        "signal": {"kernel_mix": [{"a": [0.4, 0.0], "c": [1.0, 0.0]}]},
        "n": 0,
    }
    path = _write(tmp_path, "cfg.json", cfg_payload)
    cfg = parse_config(path.read_text())
    assert run_task(cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["energy"] == 0.0
    assert payload["residual"] == pytest.approx(norm(cfg.space, cfg.signal), rel=1e-12)


def test_decay_sweep_writes_table(tmp_path):
    cfg_payload = dict(NBEST_CFG)
    cfg_payload["n_max"] = 4
    path = _write(tmp_path, "cfg.json", cfg_payload)
    cfg = parse_config(path.read_text())
    assert run_task(cfg, tmp_path) == 0
    lines = (tmp_path / "decay.csv").read_text().strip().splitlines()
    assert lines[0] == "n,residual,energy"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
    residuals = [float(r[1]) for r in rows]
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-9
    # two-kernel signal: captured exactly from n = 2 on
    assert max(residuals[2:]) <= 1e-6 * float(rows[0][1])


AFD_SWEEP_SIGNALS = {
    "hardy": {"coefficients": [[1.0, 0.5], [-0.3, 0.2], [0.25, 0.0], [0.0, -0.4], [0.1, 0.1]]},
    "bergman": {"coefficients": [[0.2, -0.1], [0.8, 0.0], [-0.5, 0.3], [0.05, 0.2]]},
    "weighted_hardy": {"coefficients": [[0.5, 0.5], [0.0, 1.0], [0.3, -0.2], [-0.6, 0.0]]},
}


@pytest.mark.parametrize(
    "family,signal",
    [(f, s) for f, s in AFD_SWEEP_SIGNALS.items()]
    # a single kernel: captured by the first node, so greedy stops before n_max
    + [("bergman", {"kernel_mix": [{"a": [0.3, -0.2], "c": [1.0, 0.0]}]})],
)
def test_afd_decay_sweep_matches_per_n_loop(tmp_path, family, signal):
    space = dict(SMALL_SPACE, family=family)
    if family != "hardy":
        space["param"] = 0.5
    cfg = parse_config(
        json.dumps(
            {
                "task": "afd",
                "space": space,
                "signal": signal,
                "n_max": 4,
                "optimizer": {"grid_density": 12, "max_iter": 60},
            }
        )
    )
    assert run_task(cfg, tmp_path / "sweep") == 0
    per_n = [afd_greedy(cfg.space, cfg.signal, n, cfg.optimizer) for n in range(5)]
    ref = tmp_path / "per_n"
    ref.mkdir()
    (ref / "decay.csv").write_text(emit_decay_table(per_n))
    _dump_json(_result_payload(cfg, per_n[-1], 4, cfg.optimizer.seed), ref / "result.json")
    for name in ("decay.csv", "result.json"):
        assert (tmp_path / "sweep" / name).read_bytes() == (ref / name).read_bytes()
    if "kernel_mix" in signal:
        assert len(per_n[-1].params) < 4


def test_nbest_trace_records_search_counts(tmp_path):
    cfg = parse_config(json.dumps(NBEST_CFG))
    assert run_task(cfg, tmp_path) == 0
    trace = json.loads((tmp_path / "result.json").read_text())["trace"]
    searches = [t for t in trace if t["stage"] in ("local", "merge-polish")]
    assert searches
    for entry in searches:
        assert "nelder_mead_nfev" not in entry
        assert entry["polish_nfev"] >= 1
        assert isinstance(entry["polish_message"], str)
        assert "mgs_fallbacks" not in entry
        assert not any("time" in key for key in entry)
        if entry["stage"] == "merge-polish":
            assert trace[entry["merged_from"]]["stage"] in ("greedy", "local")


def test_emit_decay_table_shape():
    class Row:
        def __init__(self, residual, energy):
            self.residual = residual
            self.energy = energy

    text = emit_decay_table([Row(1.0, 0.0), Row(0.25, 0.9375)])
    assert text.splitlines()[0] == "n,residual,energy"
    assert text.splitlines()[1].startswith("0,1.0")


def test_stochastic_task(tmp_path):
    cfg_payload = {
        "task": "stochastic",
        "space": SMALL_SPACE,
        "signal": {
            "random": {
                "kind": "kernel_mix",
                "atoms": [{"a": [0.3, 0.0], "c": [1.0, 0.0]}, {"a": [-0.4, 0.0], "c": [1.0, 0.0]}],
                "M": 8,
                "seed": 7,
            }
        },
        "n": 2,
        "optimizer": {"multistart": 3, "grid_density": 16, "seed": 2},
    }
    path = _write(tmp_path, "cfg.json", cfg_payload)
    cfg = parse_config(path.read_text())
    assert isinstance(cfg.signal, Ensemble)
    assert run_task(cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["realizations"] == 8
    assert payload["expected_residual"] <= 1e-6 * payload["bochner_norm"]
    assert len(payload["coefficients"]) == 8


def test_stochastic_accepts_explicit_realizations(tmp_path):
    cfg_payload = {
        "task": "stochastic",
        "space": SMALL_SPACE,
        "signal": {
            "realizations": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 1.0], [0.25, 0.0]]],
            "weights": [0.25, 0.75],
        },
        "n": 1,
        "optimizer": {"multistart": 2, "grid_density": 8, "seed": 0},
    }
    path = _write(tmp_path, "cfg.json", cfg_payload)
    cfg = parse_config(path.read_text())
    assert run_task(cfg, tmp_path) == 0


def test_afd_rejects_ensemble_signal(tmp_path, capsys):
    signals = (
        {"random": {"kind": "decaying_gaussian", "gamma": 2.0, "M": 4, "seed": 1}},
        {"realizations": [[[1.0, 0.0]], [[0.0, 1.0]]]},
    )
    for task in ("afd", "nbest"):
        for signal in signals:
            cfg_payload = {"task": task, "space": SMALL_SPACE, "signal": signal, "n": 1}
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(cfg_payload))
            assert str(err.value).startswith("/signal: ")
            path = _write(tmp_path, "cfg.json", cfg_payload)
            assert main([task, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
            assert "/signal: " in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


def test_verify_task_exit_codes(tmp_path):
    ok = parse_config(json.dumps({"task": "verify", "space": {"family": "hardy"}}))
    assert run_task(ok, tmp_path / "good") == 0
    report = json.loads((tmp_path / "good/report.json").read_text())
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])
    # the weighted family honestly fails the rim-decay flag
    bad = parse_config(
        json.dumps({"task": "verify", "space": {"family": "weighted_hardy", "param": 1.0}})
    )
    assert run_task(bad, tmp_path / "bad") == 2
    report = json.loads((tmp_path / "bad/report.json").read_text())
    failed = [c["check"] for c in report["checks"] if not c["passed"]]
    assert failed == ["boundary-vanishing"]


def test_main_subcommand_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", NBEST_CFG)
    code = main(["afd", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "subcommand" in capsys.readouterr().err


def test_main_end_to_end(tmp_path):
    path = _write(tmp_path, "cfg.json", NBEST_CFG)
    code = main(["nbest", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "knob,value", [("xtol", 1e-8), ("workers", 1), ("polish", True), ("fd_step", 1e-5), ("ftol", 1e-12)]
)
def test_retired_optimizer_knobs_are_unknown_fields(tmp_path, capsys, knob, value):
    cfg = json.loads(json.dumps(NBEST_CFG))
    cfg["optimizer"][knob] = value
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["nbest", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert f"/optimizer/{knob}: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_main_refuses_the_threads_flag(tmp_path, capsys):
    path = _write(tmp_path, "cfg.json", NBEST_CFG)
    assert main(["nbest", "--config", str(path), "--out", str(tmp_path), "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_main_exit_status_of_usage_errors_and_help(tmp_path, capsys):
    """A usage error exits with 1, as every other error does, so that 2 means
    only a failed verify check; --help exits with 0.  A negative ``--seed`` is
    a usage error, whether or not the task draws a random start."""
    assert main([]) == 1
    assert main(["nbest"]) == 1
    assert "--config" in capsys.readouterr().err
    for config in (NBEST_CFG, {**NBEST_CFG, "n": 0}):
        path = _write(tmp_path, "cfg.json", config)
        assert main(["nbest", "--config", str(path), "--out", str(tmp_path), "--seed", "-3"]) == 1
        assert "--seed: expected a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()
    with pytest.raises(ValueError, match="^seed "):
        run_task(parse_config(json.dumps(NBEST_CFG)), tmp_path, seed=-3)
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


@pytest.mark.parametrize(
    "output,key,message",
    [
        ({"result": "../escaped.json"}, "result", "without a directory part"),
        ({"decay": "/abs/x.csv"}, "decay", "without a directory part"),
        ({"report": "sub\\report.json"}, "report", "without a directory part"),
        ({"result": ".."}, "result", "without a directory part"),
        ({"decay": "."}, "decay", "without a directory part"),
        ({"result": "same", "decay": "same"}, "decay", "the same file as /output/result"),
        ({"decay": "result.json"}, "decay", "the same file as /output/result"),
    ],
)
def test_output_names_stay_in_the_output_directory(tmp_path, capsys, output, key, message):
    """An output name is one path component, and no two outputs, defaults
    included, name one file; otherwise nothing is written."""
    cfg = {**NBEST_CFG, "n_max": 2, "output": output}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(cfg))
    assert str(err.value).startswith(f"/output/{key}: ") and message in str(err.value)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "run" / "out"
    assert main(["nbest", "--config", str(path), "--out", str(out)]) == 1
    assert f"/output/{key}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "escaped.json").exists()


def test_output_names_are_honoured(tmp_path):
    cfg = {**NBEST_CFG, "n_max": 1, "output": {"result": "r.json", "decay": "result.json"}}
    assert run_task(parse_config(json.dumps(cfg)), tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "result.json"]
    assert (tmp_path / "result.json").read_text().startswith("n,residual,energy\n")


def test_main_missing_config(tmp_path, capsys):
    code = main(["nbest", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# -- size limits ------------------------------------------------------------------

MIX_ATOMS = [{"a": [0.3, 0.0], "c": [1.0, 0.0]}]


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the size check")


@pytest.mark.parametrize(
    "space,signal,fragment",
    [
        ({"family": "hardy", "degree": 10**9}, {"coefficients": [[1.0, 0.0]]}, "/space/degree"),
        ({"family": "hardy", "degree": 65537}, {"coefficients": [[1.0, 0.0]]}, "/space/degree"),
        (
            {"family": "hardy"},
            {"random": {"kind": "kernel_mix", "atoms": MIX_ATOMS, "M": 10**8, "seed": 1}},
            "/signal/random/M",
        ),
        (
            {"family": "hardy"},
            {"random": {"kind": "decaying_gaussian", "gamma": 2.0, "M": 16369, "seed": 1}},
            "/signal/random/M",
        ),
        ({"family": "hardy"}, {"realizations": [[[1.0, 0.0]]] * 16369}, "/signal/realizations"),
    ],
)
def test_parse_rejects_oversized_inputs_before_allocating(monkeypatch, space, signal, fragment):
    # 16368 = 2**24 // 1025 realizations fit at the default degree 1024
    monkeypatch.setattr(cli, "generate_ensemble", _refuse)
    monkeypatch.setattr(cli, "as_element", _refuse)
    if fragment == "/space/degree":
        monkeypatch.setattr(cli, "SpaceSpec", _refuse)
    payload = {"task": "stochastic", "space": space, "signal": signal, "n": 1}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert fragment in str(err.value)


def test_parse_admits_ensembles_up_to_the_limit(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "generate_ensemble", lambda spec, kind, p, m, seed: sizes.append(m))
    for m in (10240, 16368):
        signal = {"random": {"kind": "kernel_mix", "atoms": MIX_ATOMS, "M": m, "seed": 1}}
        payload = {"task": "stochastic", "space": {"family": "hardy"}, "signal": signal}
        parse_config(json.dumps(payload))
    assert sizes == [10240, 16368]


def test_main_reports_oversized_ensemble_with_its_pointer(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "generate_ensemble", _refuse)
    signal = {"random": {"kind": "kernel_mix", "atoms": MIX_ATOMS, "M": 10**8, "seed": 1}}
    payload = {"task": "stochastic", "space": {"family": "hardy"}, "signal": signal, "n": 2}
    path = _write(tmp_path, "cfg.json", payload)
    assert main(["stochastic", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "/signal/random/M" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "change,fragment",
    [
        ({"optimizer": {"grid_density": 128}}, "/optimizer/grid_density"),
        ({"optimizer": {"grid_density": 10**9}}, "/optimizer/grid_density"),
        ({"n": 10**6}, "/n"),
        ({"n_max": 2000}, "/n_max"),
        ({"optimizer": {"multistart": 10**9}}, "/optimizer/multistart"),
        ({"n": 600, "optimizer": {"multistart": 20}}, "/optimizer/multistart"),
    ],
)
def test_parse_rejects_oversized_searches(change, fragment):
    # at degree 1024 a grid of 127**2 points fits in 2**24 entries, 128**2 does
    # not; two lanes of 2000 nodes do not fit, nor 22 lanes of 600
    payload = {**NBEST_CFG, "space": {"family": "hardy"}, **change}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert str(err.value).startswith(f"{fragment}: ")


def test_parse_admits_searches_up_to_the_limit():
    for change in ({"optimizer": {"grid_density": 127}}, {"n": 600, "optimizer": {"multistart": 2}}):
        cfg = parse_config(json.dumps({**NBEST_CFG, "space": {"family": "hardy"}, **change}))
        assert cfg.n == change.get("n", 2)


def test_main_reports_oversized_search_with_its_pointer(tmp_path, capsys):
    payload = {**NBEST_CFG, "optimizer": {"grid_density": 10**9}}
    path = _write(tmp_path, "cfg.json", payload)
    assert main(["nbest", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "/optimizer/grid_density" in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_cli_import_loads_no_scipy():
    """A fresh `import nbestkernel.cli` loads no scipy module: scipy's
    optimizer and special functions alone took several times numpy's import
    time and memory, which every task pays at start-up."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nbestkernel

    src = str(Path(nbestkernel.__file__).resolve().parent.parent)
    code = "import sys, nbestkernel.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
