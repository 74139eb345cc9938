"""Random signals as finite weighted ensembles and their shared-node n-best fit.

The probability space is discretized by sample averaging: an ensemble holds M
realizations with weights summing to one, the expected captured energy is the
weighted sum of per-realization energies, and the search runs over a single
node tuple shared by all realizations.

The search is the engines' one pipeline (``engine._run``), of which a single
signal is the case M = 1.  The energy is quadratic in the realizations, so
the pipeline searches on an exact rank-r factor of the ensemble
(r <= min(M, N+1); r = 1 for random multiples of one function) and its cost
does not grow with M.  The per-realization coefficients, the expected energy
and the residual of the chosen tuple are computed from all M realizations.

An ensemble holds one M x (N+1) coefficient array.  ``generate_ensemble``
writes its draws straight into it, and every pass over all realizations
(norms, compression, the final coefficients and residual) streams through it
a block of rows at a time, so the memory beyond that array is the M x r
factor, the M x n coefficients and block-sized temporaries; greedy reads
each prefix's coefficients and forms no residual array.  A full-rank
ensemble adds its rank screen's M x M Gram matrix and Cholesky factor.
The norms take one pass per ensemble: its norm check and its search read
the same ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceRiskError, ShapeMismatchError
from .engine import (
    _RANK_BLOCK,
    ApproximationResult,
    OptimizerConfig,
    _Bundle,
    _check_norm,
    _energy,
    _row_norms_sq,
    _run,
)
from .spaces import AnalyticFunction, ParamTuple, SpaceSpec, multiple_kernel

# perfbench/tracer.py times the multistart stage under this name.
from .engine import _nbest_points  # noqa: F401


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted finite family of realizations sharing one space.

    The ensemble keeps ``matrix`` read-only.  A matrix that is already
    read-only and owns its memory, as ``generate_ensemble``'s is, is taken
    as it is; any other is copied, so a caller writing to its own array
    later leaves the ensemble unchanged.
    """

    spec: SpaceSpec
    matrix: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] < 1:
            raise ShapeMismatchError("ensemble needs a (M, N+1) realization matrix with M >= 1")
        if m.shape[1] != self.spec.max_degree + 1:
            raise ShapeMismatchError(
                f"realization length {m.shape[1]} does not match space degree "
                f"{self.spec.max_degree}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite realization coefficient")
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (m.shape[0],) or np.any(p < 0.0):
            raise ValueError("weights must be non-negative, one per realization")
        with np.errstate(over="ignore"):  # an infinite sum is refused too
            total = float(np.sum(p))
        if abs(total - 1.0) > 1e-12:
            raise ValueError("weights must sum to one within 1e-12")
        if m.flags.writeable or m.base is not None:
            m = m.copy()
        p = p.copy()
        m.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_functions(cls, spec, functions, weights=None) -> "Ensemble":
        functions = list(functions)
        mat = np.stack([f.coeffs for f in functions])
        mat.setflags(write=False)  # a fresh array, which the ensemble takes as it is
        if weights is None:
            weights = np.full(len(functions), 1.0 / len(functions))
        return cls(spec, mat, np.asarray(weights, dtype=np.float64))

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def realizations(self) -> list[AnalyticFunction]:
        return [AnalyticFunction(row) for row in self.matrix]

    @cached_property
    def _norms_sq(self) -> np.ndarray:
        """Each realization's squared space norm, read-only: the one pass
        over the matrix that every bundle of the ensemble reads (``_bundle``),
        the norm check of ``generate_ensemble`` and the CLI included."""
        norms = _row_norms_sq(self.spec, self.matrix)
        norms.setflags(write=False)
        return norms


# A stochastic result is the engines' result, whose expected_energy,
# expected_residual and bochner_norm name its energy, residual and norm.
StochasticResult = ApproximationResult


def _bundle(e: Ensemble) -> _Bundle:
    return _Bundle(e.spec, e.matrix, e.probs, norms_sq=e._norms_sq)


def bochner_norm(e: Ensemble) -> float:
    """Square root of the expected squared space norm."""
    return math.sqrt(max(_bundle(e).total_sq, 0.0))


def stochastic_energy(e: Ensemble, params: ParamTuple) -> float:
    """Expected captured energy of the shared tuple across realizations, by
    modified Gram-Schmidt."""
    return _energy(_bundle(e), params)


def stochastic_nbest(
    e: Ensemble, n: int, config: OptimizerConfig | None = None
) -> ApproximationResult:
    """Maximize expected captured energy over one shared node tuple.

    The search runs on the ensemble's exact low-rank factor; the trace opens
    with a ``compress`` entry giving M and the rank r it ran on, and the
    coefficients have one row per realization.  A factor of rank at most n
    that is an exact kernel mix ends at its certified Prony tuple before
    greedy runs, with the trace ``compress``, ``exact``, ``select``.
    """
    return _run(_bundle(e), n, config, "stochastic_nbest", sweep=False)[0]


def kernel_mix(spec: SpaceSpec, atoms) -> AnalyticFunction:
    """The sum of ``c`` times the order-``order`` kernel at ``a`` over the
    ``(a, c, order)`` atoms."""
    coeffs = np.zeros(spec.max_degree + 1, dtype=np.complex128)
    for a, c, order in atoms:
        coeffs += complex(c) * multiple_kernel(spec, complex(a), int(order)).coeffs
    return AnalyticFunction(coeffs)


def generate_ensemble(
    spec: SpaceSpec, kind: str, params: dict, m: int, seed: int
) -> Ensemble:
    """Deterministic test-signal generators.

    ``kernel_mix`` scales a fixed kernel combination by one random factor per
    realization; ``decaying_gaussian`` draws coefficient k with independent
    real and imaginary parts, each N(0, (1+k)**(-2 gamma)), so the expected
    squared modulus of a coefficient is 2 (1+k)**(-2 gamma).  An ensemble
    whose squared Bochner norm the engines refuse (``_check_norm``) raises
    ``DomainError``.
    """
    if m < 1:
        raise ValueError("ensemble size must be at least 1")
    rng = np.random.default_rng(seed)
    n1 = spec.max_degree + 1
    if kind == "kernel_mix":
        base = kernel_mix(spec, params["atoms"]).coeffs
        scheme = params.get("xi", "complex_normal")
        if scheme == "ones":
            xi = np.ones(m, dtype=np.complex128)
        elif scheme == "complex_normal":
            xi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        else:
            raise ValueError(f"unknown scale scheme {scheme!r}")
        mat = xi[:, None] * base[None, :]
    elif kind == "decaying_gaussian":
        gamma = float(params["gamma"])
        if spec.family == "hardy":
            beta_eff = 0.0
        elif spec.family == "weighted_hardy":
            beta_eff = spec.param
        else:
            beta_eff = -(1.0 + spec.param)
        if gamma <= (1.0 + beta_eff) / 2.0:
            raise DivergenceRiskError(
                f"decay exponent {gamma} risks a divergent norm; need "
                f"gamma > {(1.0 + beta_eff) / 2.0:g} for this space"
            )
        sd = (1.0 + np.arange(n1)) ** (-gamma)
        # All real parts are drawn first, row by row, then all imaginary
        # parts, each block of rows into one float buffer and scaled into
        # place: the stream and the values of ``sd * (re + 1j * im)``.
        mat = np.empty((m, n1), dtype=np.complex128)
        draws = np.empty((_RANK_BLOCK, n1))
        for part in (mat.real, mat.imag):
            for start in range(0, m, _RANK_BLOCK):
                block = draws[: min(_RANK_BLOCK, m - start)]
                rng.standard_normal(out=block)
                np.multiply(sd, block, out=part[start : start + _RANK_BLOCK])
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    mat.setflags(write=False)
    e = Ensemble(spec, mat, np.full(m, 1.0 / m))
    _check_norm(_bundle(e))
    return e
