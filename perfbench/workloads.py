"""Seeded task configs for each benchmark workload.

A workload is a list of ``Task`` objects.  Each task carries the JSON config
text that the program sees and the facts the oracle needs to judge the task's
outputs.  Only the standard-library ``random`` module draws the inputs, so a
seed gives the same config bytes on every machine and numpy version.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field

FAMILIES = (
    {"family": "hardy"},
    {"family": "bergman", "param": 1.0},
    {"family": "weighted_hardy", "param": 0.5},
)

# The ten spaces of scripts/certify_spaces.py.
CERTIFY_SPACES = (
    {"family": "hardy"},
    {"family": "bergman", "param": 0.0},
    {"family": "bergman", "param": 1.0},
    {"family": "bergman", "param": 2.5},
    {"family": "weighted_hardy", "param": 0.25},
    {"family": "weighted_hardy", "param": 0.5},
    {"family": "weighted_hardy", "param": 1.0},
    {"family": "weighted_hardy", "param": 1.5},
    {"family": "weighted_hardy", "param": 2.0},
    {"family": "weighted_hardy", "param": 3.0},
)

# The rim-decay clause cannot hold for these exponents (README, "Known
# limitation"): their verify tasks exit 2 with exactly this check failing.
KNOWN_RED = {("weighted_hardy", 0.25), ("weighted_hardy", 0.5), ("weighted_hardy", 1.0)}
KNOWN_RED_CHECK = "boundary-vanishing"

# Sizes of each workload.  They set how much work one pass holds; see
# README.md for how they were chosen.
SWEEP_SIGNALS_PER_FAMILY = 2
SWEEP_DEGREE = 12
SWEEP_N_MAX = 3
SWEEP_OPTIMIZER = {"multistart": 2, "grid_density": 12, "max_iter": 40}

# Per family: the order-2 atom, the order-1 atom and its weight.
MULTISTART_ATOMS = (
    (-0.0519 + 0.4153j, 0.1198 + 0.0125j, 1.0),
    (0.23 - 0.52j, 0.06 - 0.08j, 0.8),
    (0.21 + 0.42j, -0.51 - 0.14j, 1.6),
)
MULTISTART_OPTIMIZER = {"multistart": 8, "grid_density": 12, "max_iter": 60, "seed": 0}

STOCHASTIC_ATOMS = ((0.3 + 0.1j, -0.35 - 0.2j), 0.8 + 0.4j)
STOCHASTIC_FULL_RANK_SEED = 1
STOCHASTIC_M = 256
STOCHASTIC_N = 2
STOCHASTIC_OPTIMIZER = {"multistart": 4, "grid_density": 12, "max_iter": 200, "seed": 0}


@dataclass
class Task:
    """One config and what its outputs must satisfy."""

    id: str
    kind: str  # "afd", "nbest", "multistart", "stochastic" or "verify"
    config: dict
    atoms: list = field(default_factory=list)  # exact recovery targets (a, order)
    group: str = ""  # afd and nbest tasks of one sweep signal share a group
    expect_failing: tuple = ()  # verify checks that must fail

    @property
    def text(self) -> str:
        return json.dumps(self.config, sort_keys=True)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _family_tag(space: dict) -> str:
    return space["family"] + (f"{space['param']:g}" if "param" in space else "")


def sweep(seed: int) -> list[Task]:
    """Decay sweeps of random degree-12 polynomials, each run as afd and nbest."""
    rng = random.Random(seed)
    tasks = []
    for space in FAMILIES:
        for i in range(SWEEP_SIGNALS_PER_FAMILY):
            coeffs = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(SWEEP_DEGREE + 1)]
            optimizer = {**SWEEP_OPTIMIZER, "seed": rng.randrange(1 << 16)}
            group = f"{_family_tag(space)}-{i}"
            for task in ("afd", "nbest"):
                config = {
                    "task": task,
                    "space": space,
                    "signal": {"coefficients": coeffs},
                    "n_max": SWEEP_N_MAX,
                    "optimizer": optimizer,
                }
                tasks.append(Task(f"{group}-{task}", task, config, group=group))
    return tasks


def multistart(seed: int) -> list[Task]:
    """Single-n global search on kernel mixes with one order-2 atom.

    The atoms are fixed per family and the seed turns the whole signal by a
    unit phase.  Captured energy ignores that phase, so every seed poses the
    same search with different input and output bytes: which starts land
    where depends chaotically on the atoms, and moving them would make the
    pass time vary from seed to seed by more than any bound.
    """
    rng = random.Random(seed)
    tasks = []
    for space, (double, single, weight) in zip(FAMILIES, MULTISTART_ATOMS):
        phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        atoms = [(double, 2), (single, 1)]
        config = {
            "task": "nbest",
            "space": space,
            "signal": {
                "kernel_mix": [
                    {"a": _pair(double), "c": _pair(phase), "order": 2},
                    {"a": _pair(single), "c": _pair(weight * phase), "order": 1},
                ]
            },
            "n": sum(order for _, order in atoms),
            "optimizer": MULTISTART_OPTIMIZER,
        }
        tasks.append(Task(_family_tag(space), "multistart", config, atoms=atoms))
    return tasks


def stochastic(seed: int) -> list[Task]:
    """Shared-node search on a rank-1 and a full-rank ensemble.

    The seed draws the rank-1 ensemble's realizations: random multiples of
    one fixed kernel mix, so the seed scales the expected energy without
    moving its optima.  The full-rank ensemble is fixed, because a new draw
    moves the landscape and with it the search cost, by more than a bound.
    """
    rng = random.Random(seed)
    (a1, a2), weight = STOCHASTIC_ATOMS
    rank1 = {
        "task": "stochastic",
        "space": {"family": "hardy"},
        "signal": {
            "random": {
                "kind": "kernel_mix",
                "atoms": [{"a": _pair(a1), "c": [1.0, 0.0]}, {"a": _pair(a2), "c": _pair(weight)}],
                "M": STOCHASTIC_M,
                "seed": rng.randrange(1 << 16),
            }
        },
        "n": STOCHASTIC_N,
        "optimizer": STOCHASTIC_OPTIMIZER,
    }
    full = {
        "task": "stochastic",
        "space": {"family": "hardy"},
        "signal": {
            "random": {
                "kind": "decaying_gaussian",
                "gamma": 1.0,
                "M": STOCHASTIC_M,
                "seed": STOCHASTIC_FULL_RANK_SEED,
            }
        },
        "n": STOCHASTIC_N,
        "optimizer": STOCHASTIC_OPTIMIZER,
    }
    return [
        Task("rank1-kernel_mix", "stochastic", rank1, atoms=[(a1, 1), (a2, 1)]),
        Task("fullrank-decaying_gaussian", "stochastic", full),
    ]


def certify(seed: int) -> list[Task]:
    """The certification battery over the ten standard spaces."""
    rng = random.Random(seed)
    tasks = []
    for space in CERTIFY_SPACES:
        config = {"task": "verify", "space": space, "optimizer": {"seed": rng.randrange(1 << 16)}}
        red = (space["family"], space.get("param")) in KNOWN_RED
        tasks.append(
            Task(
                _family_tag(space),
                "verify",
                config,
                expect_failing=(KNOWN_RED_CHECK,) if red else (),
            )
        )
    return tasks


def warmup(tasks: list[Task]) -> list[str]:
    """Cheap configs, one per task kind, that load what the first call of each
    code path loads lazily, so the timed passes run warm."""
    texts = {}
    for task in tasks:
        config = dict(task.config)
        if task.kind != "verify":
            config["optimizer"] = {"multistart": 1, "grid_density": 4, "max_iter": 2}
            config.update({"n_max": 1} if "n_max" in config else {"n": 1})
        texts.setdefault(task.kind, json.dumps(config, sort_keys=True))
    return list(texts.values())


WORKLOADS = {"sweep": sweep, "multistart": multistart, "stochastic": stochastic, "certify": certify}


def build(name: str, seed: int) -> list[Task]:
    return WORKLOADS[name](seed)
