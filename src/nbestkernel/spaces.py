"""Coefficient-space model of weighted holomorphic function spaces on the unit disc.

A space is determined by a positive weight sequence ``W(k)`` on Taylor
coefficients; functions are truncated series ``c_0 .. c_N`` and every inner
product reduces to a weighted l2 sum, so reproducing identities are exact for
polynomials of degree at most ``N``.  Three families are supported:

* ``hardy``            -- ``W(k) = 1``
* ``weighted_hardy``   -- ``W(k) = (1 + k)**beta`` (beta = 1 is the Dirichlet case)
* ``bergman``          -- ``W(k) = Gamma(k+1) Gamma(2+alpha) / Gamma(k+2+alpha)``,
  the exact coefficient norms of the kernel ``1 / (1 - conj(a) z)**(2+alpha)``

The point-evaluation kernel at ``a`` has coefficients ``conj(a)**k / W(k)``;
its derivative in the conjugated parameter gives the higher-order kernels used
when a node repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeError, DomainError, ShapeMismatchError

DEFAULT_DEGREE = 1024
DEFAULT_RADIUS_CAP = 0.99
DEFAULT_MERGE_TOL = 1e-7
DEFAULT_TRUNCATION_TOL = 1e-5

_FAMILIES = ("hardy", "bergman", "weighted_hardy")


def _weight_values(family: str, param: float, count: int) -> np.ndarray:
    """Weights W(0) .. W(count - 1)."""
    ks = np.arange(count, dtype=np.float64)
    if family == "hardy":
        return np.ones_like(ks)
    if family == "weighted_hardy":
        return (1.0 + ks) ** param
    # W(0) = 1 and W(k) / W(k-1) = k / (k + 1 + alpha): every factor is below
    # 1, so the product stays finite for large k and alpha, with one rounding
    # per factor.
    ratios = ks / (ks + 1.0 + param)
    ratios[0] = 1.0
    return np.cumprod(ratios)


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """A weighted coefficient space truncated at ``max_degree``.

    Parameters
    ----------
    family : str
        One of ``"hardy"``, ``"bergman"``, ``"weighted_hardy"``.
    param : float
        Bergman exponent alpha (> -1) or weighted-Hardy exponent beta;
        ignored for the Hardy family.
    max_degree : int
        Truncation degree N; coefficient arrays have length ``N + 1``.
    radius_cap : float
        Largest node radius the truncation is certified for.  The
        constructor rejects ``(max_degree, radius_cap)`` pairs whose
        dropped kernel tail exceeds ``truncation_tol`` relative to the
        kernel norm at the cap.
    """

    family: str
    param: float = 0.0
    max_degree: int = DEFAULT_DEGREE
    radius_cap: float = DEFAULT_RADIUS_CAP
    truncation_tol: float = DEFAULT_TRUNCATION_TOL
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown space family {self.family!r}")
        if self.family == "bergman" and self.param <= -1.0:
            raise DomainError("bergman exponent must exceed -1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be at least 1")
        if not 0.0 < self.radius_cap < 1.0:
            raise ValueError("radius_cap must lie in (0, 1)")
        w = _weight_values(self.family, self.param, self.max_degree + 1)
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weight sequence must be finite and positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        rel = self.truncation_tail(self.radius_cap) / self.kernel_norm_sq(self.radius_cap)
        if not rel <= self.truncation_tol:
            raise DomainError(
                f"degree {self.max_degree} cannot represent kernels at radius "
                f"{self.radius_cap}: relative tail {rel:.3e} exceeds "
                f"{self.truncation_tol:.1e}; raise max_degree or lower radius_cap"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def hardy(cls, max_degree: int = DEFAULT_DEGREE, **kwargs) -> "SpaceSpec":
        return cls("hardy", 0.0, max_degree, **kwargs)

    @classmethod
    def bergman(cls, alpha: float, max_degree: int = DEFAULT_DEGREE, **kwargs) -> "SpaceSpec":
        return cls("bergman", float(alpha), max_degree, **kwargs)

    @classmethod
    def weighted_hardy(cls, beta: float, max_degree: int = DEFAULT_DEGREE, **kwargs) -> "SpaceSpec":
        return cls("weighted_hardy", float(beta), max_degree, **kwargs)

    # -- derived quantities -------------------------------------------------

    def weight_beyond(self, k: int) -> float:
        """Weight W(k) for arbitrary k, including indices beyond the cache."""
        return float(_weight_values(self.family, self.param, k + 1)[-1])

    def kernel_norm_sq(self, r):
        """Truncated squared kernel norm sum r**(2k) / W(k) at radius ``r``
        (scalar or array)."""
        q = np.asarray(r, dtype=float) ** 2
        norms = np.sum(q[..., None] ** np.arange(self.max_degree + 1) / self.weights, axis=-1)
        return float(norms) if q.ndim == 0 else norms

    def truncation_tail(self, r: float) -> float:
        """Geometric upper bound for the dropped tail sum_{k>N} r**(2k) / W(k)."""
        n1 = self.max_degree + 1
        w1 = self.weight_beyond(n1)
        # Term ratio r^2 W(k)/W(k+1) is monotone toward r^2 in all families,
        # so its supremum over k >= N+1 is attained at the first index.
        q = r * r * max(1.0, w1 / self.weight_beyond(n1 + 1))
        if q >= 1.0:
            return math.inf
        lead = r ** (2 * n1) / w1
        return lead / (1.0 - q)

    def label(self) -> str:
        if self.family == "hardy":
            return f"hardy(N={self.max_degree})"
        name = "alpha" if self.family == "bergman" else "beta"
        return f"{self.family}({name}={self.param:g}, N={self.max_degree})"


@dataclass(frozen=True, eq=False)
class AnalyticFunction:
    """Truncated Taylor series ``c_0 .. c_N`` of a function on the disc."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 1:
            raise ShapeMismatchError("coefficients must form a non-empty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __add__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        self._match(other)
        return AnalyticFunction(self.coeffs + other.coeffs)

    def __sub__(self, other: "AnalyticFunction") -> "AnalyticFunction":
        self._match(other)
        return AnalyticFunction(self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "AnalyticFunction":
        return AnalyticFunction(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AnalyticFunction":
        return AnalyticFunction(-self.coeffs)

    def _match(self, other: "AnalyticFunction") -> None:
        if self.degree != other.degree:
            raise ShapeMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )


def as_element(spec: SpaceSpec, values) -> AnalyticFunction:
    """Lift a (possibly short) coefficient sequence into the space of ``spec``."""
    c = np.asarray(values, dtype=np.complex128)
    if c.ndim != 1:
        raise ShapeMismatchError("coefficients must form a 1-d sequence")
    if c.size > spec.max_degree + 1:
        raise DegreeError(
            f"sequence of degree {c.size - 1} exceeds truncation degree {spec.max_degree}"
        )
    out = np.zeros(spec.max_degree + 1, dtype=np.complex128)
    out[: c.size] = c
    return AnalyticFunction(out)


def zero_function(spec: SpaceSpec) -> AnalyticFunction:
    return AnalyticFunction(np.zeros(spec.max_degree + 1, dtype=np.complex128))


def _check_member(spec: SpaceSpec, f: AnalyticFunction) -> None:
    if f.degree != spec.max_degree:
        raise ShapeMismatchError(
            f"function degree {f.degree} does not match space degree {spec.max_degree}"
        )


def weight(spec: SpaceSpec, k: int) -> float:
    """Coefficient weight W(k)."""
    if not 0 <= k <= spec.max_degree:
        raise DegreeError(f"coefficient index {k} out of range 0..{spec.max_degree}")
    return float(spec.weights[k])


def inner_product(spec: SpaceSpec, f: AnalyticFunction, g: AnalyticFunction) -> complex:
    """Weighted l2 pairing sum W(k) c_k conj(d_k); conjugate-linear in ``g``."""
    _check_member(spec, f)
    _check_member(spec, g)
    return complex(np.sum(spec.weights * f.coeffs * np.conj(g.coeffs)))


def norm_sq(spec: SpaceSpec, f: AnalyticFunction) -> float:
    _check_member(spec, f)
    return float(np.sum(spec.weights * np.abs(f.coeffs) ** 2))


def norm(spec: SpaceSpec, f: AnalyticFunction) -> float:
    return math.sqrt(norm_sq(spec, f))


def kernel(spec: SpaceSpec, a: complex) -> AnalyticFunction:
    """Point-evaluation kernel at ``a``: pairing any f against it returns f(a)."""
    return AnalyticFunction(kernel_matrix(spec, [complex(a)])[0])


def kernel_matrix(spec: SpaceSpec, points: np.ndarray) -> np.ndarray:
    """Rows of kernel coefficients for many parameters at once."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    radius = float(np.max(np.abs(pts), initial=0.0))
    if not radius < 1.0:  # a NaN radius fails too
        raise DomainError(f"kernel parameter must lie in the open unit disc, got |a|={radius:.6g}")
    m = np.empty((pts.size, spec.max_degree + 1), dtype=np.complex128)
    m[:, 0] = 1.0
    if spec.max_degree >= 1:
        m[:, 1:] = np.conj(pts)[:, None]
        np.cumprod(m[:, 1:], axis=1, out=m[:, 1:])
    m /= spec.weights
    return m


def _falling_factorial(max_degree: int, lag: int) -> np.ndarray:
    """k (k-1) ... (k-lag+1) for k = lag .. max_degree."""
    ks = np.arange(lag, max_degree + 1, dtype=np.float64)
    out = np.ones_like(ks)
    for j in range(lag):
        out *= ks - j
    return out


def multiple_kernel(spec: SpaceSpec, a: complex, order: int) -> AnalyticFunction:
    """Derivative of the kernel in the conjugated parameter, order - 1 times.

    Pairing f against the order-l kernel returns the derivative
    ``f^(l-1)(a)``; order 1 is the plain kernel.  Coefficients are
    ``k (k-1) ... (k-order+2) conj(a)**(k-order+1) / W(k)`` for
    ``k >= order - 1`` and zero below.
    """
    a = complex(a)
    if not np.isfinite(a) or abs(a) >= 1.0:
        raise DomainError(f"kernel parameter must lie in the open unit disc, got |a|={abs(a):.6g}")
    if order < 1:
        raise DegreeError("kernel order must be at least 1")
    if order > spec.max_degree:
        raise DegreeError(f"kernel order {order} exceeds truncation degree {spec.max_degree}")
    if order == 1:
        return kernel(spec, a)
    l = order - 1
    coeffs = np.zeros(spec.max_degree + 1, dtype=np.complex128)
    powers = np.conj(a) ** np.arange(spec.max_degree + 1 - l)
    coeffs[l:] = _falling_factorial(spec.max_degree, l) * powers / spec.weights[l:]
    return AnalyticFunction(coeffs)


def evaluate(f: AnalyticFunction, z):
    """Horner evaluation of the truncated series at ``z`` (scalar or array)."""
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValueError("non-finite evaluation point")
    vals = np.polynomial.polynomial.polyval(zs, f.coeffs)
    if zs.ndim == 0:
        return complex(vals)
    return vals


def derivative_at(f: AnalyticFunction, z, m: int):
    """m-th derivative of the truncated series at ``z``; m = 0 is plain evaluation."""
    if m < 0:
        raise DegreeError("derivative order must be non-negative")
    if m > f.degree:
        raise DegreeError(f"derivative order {m} exceeds degree {f.degree}")
    if m == 0:
        return evaluate(f, z)
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValueError("non-finite evaluation point")
    dc = np.polynomial.polynomial.polyder(f.coeffs, m)
    vals = np.polynomial.polynomial.polyval(zs, dc)
    if zs.ndim == 0:
        return complex(vals)
    return vals


@dataclass(frozen=True, eq=False)
class ParamTuple:
    """Ordered tuple of approximation nodes in the open disc.

    Nodes closer than ``merge_tol`` to an earlier node collapse onto that
    node's representative and raise its multiplicity instead of producing a
    nearly dependent kernel pair.  ``centers[i]`` is the representative used
    for node ``i`` and ``orders[i]`` its multiplicity count so far, scanning
    left to right.
    """

    points: tuple
    merge_tol: float = DEFAULT_MERGE_TOL
    radius_cap: float = DEFAULT_RADIUS_CAP
    centers: tuple = field(init=False, repr=False)
    orders: tuple = field(init=False, repr=False)

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        for i, p in enumerate(pts):
            if not np.isfinite(p):
                raise DomainError(f"node {i} is not finite")
            if abs(p) > self.radius_cap + 1e-12:
                raise DomainError(
                    f"node {i} has radius {abs(p):.6g} beyond the cap {self.radius_cap}"
                )
        reps: list[complex] = []
        counts: list[int] = []
        centers: list[complex] = []
        orders: list[int] = []
        for p in pts:
            for gi, rep in enumerate(reps):
                if abs(p - rep) <= self.merge_tol:
                    counts[gi] += 1
                    centers.append(rep)
                    orders.append(counts[gi])
                    break
            else:
                reps.append(p)
                counts.append(1)
                centers.append(p)
                orders.append(1)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "centers", tuple(centers))
        object.__setattr__(self, "orders", tuple(orders))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def extended(self, a: complex) -> "ParamTuple":
        return ParamTuple(self.points + (complex(a),), self.merge_tol, self.radius_cap)

    def node_structure(self) -> list[tuple[complex, int]]:
        """Distinct representatives with their final multiplicities, in order."""
        out: list[tuple[complex, int]] = []
        seen: dict[complex, int] = {}
        for c, o in zip(self.centers, self.orders):
            if c in seen:
                out[seen[c]] = (c, max(out[seen[c]][1], o))
            else:
                seen[c] = len(out)
                out.append((c, o))
        return out

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.complex128)


def _jsonify(obj):
    """Plain JSON types for nested numpy and Python scalars; complex becomes [re, im]."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(np.real(obj)), float(np.imag(obj))]
    return obj
