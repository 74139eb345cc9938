"""Orthonormal systems built from kernel tuples, and the operators around them.

Gram-Schmidt bases of (possibly repeated) kernels, orthogonal projections,
finite Blaschke products, the Takenaka-Malmquist rational basis of the
classical space, reduced remainders (generalized backward shifts) and kernels
of zero subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditioningError,
    DeflationError,
    DegenerateQueryError,
    DomainError,
    SingularityError,
    UnsupportedSpaceError,
)
from .spaces import (
    AnalyticFunction,
    ParamTuple,
    SpaceSpec,
    _check_member,
    evaluate,
    kernel,
    multiple_kernel,
    norm,
)

EPS_DEGENERATE = 1e-10


@dataclass(frozen=True, eq=False)
class OrthonormalSystem:
    """Orthonormal basis of the span of the tuple's (multiple) kernels.

    ``basis`` holds one coefficient row per vector; ``residual_norms`` are the
    Gram-Schmidt denominators, useful as conditioning diagnostics.
    """

    spec: SpaceSpec
    params: ParamTuple
    basis: np.ndarray
    residual_norms: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.residual_norms.setflags(write=False)

    def __len__(self) -> int:
        return self.basis.shape[0]

    @property
    def functions(self) -> list[AnalyticFunction]:
        return [AnalyticFunction(row) for row in self.basis]


def _gram_schmidt_impl(
    spec: SpaceSpec,
    params: ParamTuple,
    eps_degenerate: float,
    allow_partial: bool,
) -> tuple[OrthonormalSystem, bool]:
    if len(params) and max(abs(p) for p in params.points) > spec.radius_cap + 1e-12:
        raise DomainError("node radius exceeds the truncation-safe cap of the space")
    w = spec.weights
    n1 = spec.max_degree + 1
    basis = np.zeros((len(params), n1), dtype=np.complex128)
    resid = np.zeros(len(params))
    for k, (center, order) in enumerate(zip(params.centers, params.orders)):
        v = multiple_kernel(spec, center, order).coeffs.copy()
        scale = math.sqrt(float(np.sum(w * np.abs(v) ** 2)))
        # Modified Gram-Schmidt plus one full reorthogonalization pass;
        # kernels of nearby nodes are nearly parallel and a single pass leaks.
        for _ in range(2):
            if k:
                proj = (w * v) @ basis[:k].conj().T
                v -= proj @ basis[:k]
        r = math.sqrt(float(np.sum(w * np.abs(v) ** 2)))
        if r <= eps_degenerate * scale:
            if allow_partial:
                prefix = ParamTuple(params.points[:k], params.merge_tol, params.radius_cap)
                return (
                    OrthonormalSystem(spec, prefix, basis[:k].copy(), resid[:k].copy()),
                    True,
                )
            raise ConditioningError(
                f"kernel system is numerically degenerate at node index {k} "
                f"(residual {r:.3e} against scale {scale:.3e})",
                index=k,
            )
        basis[k] = v / r
        resid[k] = r
    return OrthonormalSystem(spec, params, basis, resid), False


def gram_schmidt(
    spec: SpaceSpec, params: ParamTuple, eps_degenerate: float = EPS_DEGENERATE
) -> OrthonormalSystem:
    """Orthonormalize the tuple's kernels; repeated nodes enter through
    higher-order kernels so the span always includes derivative directions.

    Raises
    ------
    ConditioningError
        If some residual norm falls below ``eps_degenerate`` relative to the
        incoming kernel norm; the offending node index is attached.
    """
    system, _ = _gram_schmidt_impl(spec, params, eps_degenerate, allow_partial=False)
    return system


class Projection(NamedTuple):
    coeffs: np.ndarray
    projection: AnalyticFunction
    remainder: AnalyticFunction


def project(f: AnalyticFunction, system: OrthonormalSystem) -> Projection:
    """Split ``f`` into its component in the system's span and the remainder."""
    _check_member(system.spec, f)
    w = system.spec.weights
    coeffs = (w * f.coeffs) @ system.basis.conj().T
    p = coeffs @ system.basis if len(system) else np.zeros_like(f.coeffs)
    return Projection(coeffs, AnalyticFunction(p), AnalyticFunction(f.coeffs - p))


# -- Blaschke products -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    """Finite product of disc automorphism factors (z - a) / (1 - conj(a) z).

    Zeros come from a node tuple; merged nodes contribute true multiple zeros
    at their representative.
    """

    zeros: ParamTuple

    def __call__(self, z):
        return evaluate_blaschke(self, z)


def evaluate_blaschke(b: BlaschkeProduct, z):
    zs = np.asarray(z, dtype=np.complex128)
    out = np.ones_like(zs)
    for a in b.zeros.centers:
        den = 1.0 - np.conj(a) * zs
        if np.any(np.abs(den) < 1e-14):
            raise SingularityError(f"evaluation within 1e-14 of the pole of the factor at {a}")
        out = out * (zs - a) / den
    if zs.ndim == 0:
        return complex(out)
    return out


# -- coefficient-series helpers ----------------------------------------------


def _mul_shift(c: np.ndarray, a: complex) -> np.ndarray:
    """Coefficients of (z - a) f truncated to the same length."""
    out = np.empty_like(c)
    out[0] = -a * c[0]
    out[1:] = c[:-1] - a * c[1:]
    return out


def _mul_one_minus(c: np.ndarray, abar: complex) -> np.ndarray:
    """Coefficients of (1 - abar z) f truncated to the same length."""
    out = c.copy()
    out[1:] -= abar * c[:-1]
    return out


def _div_geometric(c: np.ndarray, abar: complex) -> np.ndarray:
    """Coefficients of f / (1 - abar z): the recurrence y_k = c_k + abar y_{k-1},
    i.e. y_k = sum_{i <= k} abar**(k-i) c_i, as a doubling scan.  After the
    step of span d each y_k sums its terms from the last 2d inputs, so
    ceil(log2 N) vectorized steps replace a loop over the N coefficients."""
    y = np.array(c, dtype=np.complex128)
    span, power = 1, complex(abar)
    while span < y.size:
        y[span:] += power * y[:-span]
        span, power = 2 * span, power * power
    return y


def _deflate(c: np.ndarray, a: complex) -> tuple[np.ndarray, complex]:
    """Synthetic division by (z - a): quotient (top-padded) and remainder.

    The reversed quotient is the reversed series divided by (1 - a z).
    """
    q = np.zeros_like(c)
    q[: c.size - 1] = _div_geometric(c[:0:-1], a)[::-1]
    rem = c[0] + a * q[0]
    return q, complex(rem)


# -- Takenaka-Malmquist basis (classical space only) --------------------------


def tm_basis(spec: SpaceSpec, params: ParamTuple) -> OrthonormalSystem:
    """Rational orthonormal basis e_{a_m} phi_{a_1..a_{m-1}} as coefficient rows.

    Each member agrees with the Gram-Schmidt vector of the same tuple up to a
    unimodular constant.  Only defined for the unweighted family, where
    multiplication by a Blaschke factor is an isometry.
    """
    if spec.family != "hardy":
        raise UnsupportedSpaceError("the rational orthogonal basis requires the hardy family")
    n1 = spec.max_degree + 1
    rows = np.zeros((len(params), n1), dtype=np.complex128)
    phi = np.zeros(n1, dtype=np.complex128)
    phi[0] = 1.0
    for k, a in enumerate(params.centers):
        rows[k] = math.sqrt(1.0 - abs(a) ** 2) * _div_geometric(phi, np.conj(a))
        phi = _div_geometric(_mul_shift(phi, a), np.conj(a))
    return OrthonormalSystem(spec, params, rows, np.ones(len(params)))


# -- reduced remainders and zero spaces ---------------------------------------


def reduced_remainder(
    spec: SpaceSpec, f: AnalyticFunction, a: complex, check_tol: float = 1e-8
) -> AnalyticFunction:
    """One step of the generalized backward shift: (f - <f,E_a>E_a) / phi_a.

    The numerator vanishes at ``a`` by construction, so the Blaschke factor is
    divided out by exact deflation at the zero followed by multiplication with
    ``(1 - conj(a) z)``; the result stays a series of the same degree.

    Raises
    ------
    DeflationError
        If the projected remainder fails to vanish at ``a`` within
        ``check_tol * max(1, ||f||)``, which signals truncation or
        conditioning trouble upstream.
    """
    a = complex(a)
    single = ParamTuple((a,), radius_cap=spec.radius_cap)
    system = gram_schmidt(spec, single)
    qf = project(f, system).remainder
    val = evaluate(qf, a)
    if abs(val) > check_tol * max(1.0, norm(spec, f)):
        raise DeflationError(
            f"remainder at node {a} is {abs(val):.3e}, too large to deflate safely"
        )
    quotient, _ = _deflate(qf.coeffs, a)
    return AnalyticFunction(_mul_one_minus(quotient, np.conj(a)))


def iterated_remainder(
    spec: SpaceSpec, f: AnalyticFunction, params: ParamTuple, check_tol: float = 1e-8
) -> AnalyticFunction:
    """Compose single-node reductions left to right over the tuple.

    Equals the full remainder of the tuple divided by its Blaschke product;
    the empty tuple returns ``f`` unchanged.
    """
    g = f
    for center in params.centers:
        g = reduced_remainder(spec, g, center, check_tol)
    return g


def zero_space_kernel(spec: SpaceSpec, zeros: ParamTuple, w: complex) -> AnalyticFunction:
    """Reproducing kernel at ``w`` of the subspace vanishing on ``zeros``.

    Computed as the projection remainder of the plain kernel at ``w`` against
    the zero tuple's kernel system; it vanishes on the zero set (with
    multiplicity) and reproduces f(w) for functions that vanish there.
    """
    w = complex(w)
    if len(zeros) and min(abs(w - c) for c in zeros.centers) <= zeros.merge_tol:
        raise DegenerateQueryError(
            "query point coincides with a zero of the space within merge tolerance"
        )
    kw = kernel(spec, w)
    if not len(zeros):
        return kw
    system = gram_schmidt(spec, zeros)
    return project(kw, system).remainder
