"""Per-task correctness oracle.

``check_pass`` judges every task of one pass from the files it wrote and its
exit status, and returns the reasons each failing task failed.  A task fails
when any of these does not hold:

* every output parses as strict JSON (a bare NaN or Infinity is a failure);
* energy + residual**2 = norm**2 within 1e-8 relative, on the result and on
  every row of a decay table;
* the decay table's residual column is nonincreasing within 1e-9;
* an nbest sweep captures at least the afd energy of the same signal at
  every n;
* exact-recovery tasks leave residual <= 1e-6 * norm, with nodes within 1e-4
  of the atoms and matching multiplicities;
* a verify task fails exactly its expected checks, and exits with 2 if it
  fails any and with 0 otherwise.
"""

from __future__ import annotations

import csv
import io
import json

PYTHAGORAS_TOL = 1e-8
MONOTONE_TOL = 1e-9
DOMINANCE_TOL = 1e-9
RECOVERY_RESIDUAL = 1e-6
RECOVERY_NODE = 1e-4


class OracleError(Exception):
    pass


def _reject_constant(name):
    raise OracleError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _pythagoras(energy: float, residual: float, norm: float, where: str) -> None:
    gap = abs(energy + residual**2 - norm**2)
    _need(gap <= PYTHAGORAS_TOL * max(norm**2, 1e-300), f"{where}: energy split off by {gap:.3e}")


def _decay_rows(data: bytes):
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    _need(header == ["n", "residual", "energy"], f"decay header {header}")
    return [(int(n), float(r), float(e)) for n, r, e in reader]


def _structure(result: dict) -> list[tuple[complex, int]]:
    """Distinct nodes with their multiplicities, from a result's node list."""
    nodes: list[list] = []
    for (re, im), order in zip(result["parameters"], result["multiplicities"]):
        p = complex(re, im)
        if order == 1 or not nodes:
            nodes.append([p, order])
        else:
            # A repeated node sits within the merge tolerance of its first copy.
            nearest = min(nodes, key=lambda node: abs(node[0] - p))
            nearest[1] = max(nearest[1], order)
    return [(p, o) for p, o in nodes]


def _recovered(task, result: dict, residual: float, norm: float) -> None:
    _need(
        residual <= RECOVERY_RESIDUAL * norm,
        f"residual/norm {residual / norm:.3e} above {RECOVERY_RESIDUAL}",
    )
    nodes = _structure(result)
    _need(len(nodes) == len(task.atoms), f"{len(nodes)} distinct nodes for {len(task.atoms)} atoms")
    for atom, order in task.atoms:
        close = [o for p, o in nodes if abs(p - atom) <= RECOVERY_NODE]
        _need(close == [order], f"atom {atom:.6f} of order {order} recovered as {close}")


def _result_file(task, files: dict) -> bytes:
    name = task.config.get("output", {}).get("result", "result.json")
    _need(name in files, f"missing {name}")
    return files[name]


def _check_single(task, status: int, files: dict) -> dict:
    _need(status == 0, f"exit status {status}")
    result = strict_json(_result_file(task, files))
    _pythagoras(result["energy"], result["residual"], result["norm"], "result")
    if "n_max" in task.config:
        rows = _decay_rows(files.get("decay.csv", b""))
        _need([n for n, _, _ in rows] == list(range(task.config["n_max"] + 1)), "decay rows")
        for n, residual, energy in rows:
            _pythagoras(energy, residual, result["norm"], f"decay row {n}")
        for (n, a, _), (_, b, _) in zip(rows, rows[1:]):
            _need(b <= a + MONOTONE_TOL, f"residual rises after n={n}: {a!r} -> {b!r}")
        result["decay"] = rows
    if task.atoms:
        _recovered(task, result, result["residual"], result["norm"])
    return result


def _check_stochastic(task, status: int, files: dict) -> dict:
    _need(status == 0, f"exit status {status}")
    result = strict_json(_result_file(task, files))
    norm = result["bochner_norm"]
    _pythagoras(result["expected_energy"], result["expected_residual"], norm, "result")
    rows = result["coefficients"]
    m = task.config["signal"]["random"]["M"]
    _need(len(rows) == m and all(len(r) == len(result["parameters"]) for r in rows), "coefficient shape")
    if task.atoms:
        _recovered(task, result, result["expected_residual"], norm)
    return result


def _check_verify(task, status: int, files: dict) -> dict:
    name = task.config.get("output", {}).get("report", "report.json")
    _need(name in files, f"missing {name}")
    report = strict_json(files[name])
    failing = sorted(c["check"] for c in report["checks"] if not c["passed"])
    _need(failing == sorted(task.expect_failing), f"failing checks {failing}")
    _need(status == (2 if failing else 0), f"exit status {status}")
    return report


def check_task(task, status: int, files: dict) -> dict:
    """Judge one task's outputs; returns the parsed result or raises OracleError."""
    if task.kind == "verify":
        return _check_verify(task, status, files)
    if task.kind == "stochastic":
        return _check_stochastic(task, status, files)
    return _check_single(task, status, files)


def check_pass(tasks, outcomes: dict) -> tuple[dict, dict]:
    """Reasons for failure by task id, and parsed results, for one pass.

    ``outcomes`` maps task id to ``(status, files)``, or to an exception
    message string when the task raised.
    """
    failures: dict = {}
    parsed: dict = {}
    for task in tasks:
        outcome = outcomes.get(task.id)
        if isinstance(outcome, str) or outcome is None:
            failures[task.id] = outcome or "not run"
            continue
        try:
            parsed[task.id] = check_task(task, *outcome)
        except (OracleError, KeyError, ValueError, TypeError, StopIteration) as exc:
            failures[task.id] = f"{type(exc).__name__}: {exc}"
    by_group: dict = {}
    for task in tasks:
        if task.group and task.id in parsed:
            by_group.setdefault(task.group, {})[task.kind] = (task, parsed[task.id])
    for pair in by_group.values():
        if "afd" not in pair or "nbest" not in pair:
            continue
        nbest_task, nbest = pair["nbest"]
        _, afd = pair["afd"]
        floor = DOMINANCE_TOL * max(nbest["norm"] ** 2, 1.0)
        for (n, _, e_best), (_, _, e_afd) in zip(nbest["decay"], afd["decay"]):
            if e_best < e_afd - floor:
                failures[nbest_task.id] = f"nbest energy {e_best!r} below afd {e_afd!r} at n={n}"
                break
    return failures, parsed


def residual_ratio(task, result: dict) -> float | None:
    """residual / norm at the task's final n, for approximation tasks."""
    if task.kind == "verify":
        return None
    if task.kind == "stochastic":
        return result["expected_residual"] / result["bochner_norm"]
    return result["residual"] / result["norm"]
