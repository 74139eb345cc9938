"""Numerical certification of the hypotheses the approximation theory rests on.

Each check produces a :class:`ConditionReport` with the grids used, the
measured quantities, the asserted bound and a pass flag.  Reports are
deterministic functions of (space, grid, seed) and serialize to plain JSON.

Checked facts: kernel norms grow strictly toward the rim (and match the
closed forms where one exists), the normalized kernel modulus is uniformly
bounded by a family constant, projection remainders vanish at their nodes to
full multiplicity, reduced remainders of a bounded function stay bounded by
``M (1 + C)**k``, the normalized kernel pairing dies toward the rim, smooth
weighted families (beta > 1) have kernels with a finite rim limit, and the
classical zero-space kernel factors through its Blaschke product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedSpaceError
from .spaces import (
    AnalyticFunction,
    ParamTuple,
    SpaceSpec,
    _check_member,
    _jsonify,
    as_element,
    derivative_at,  # noqa: F401  (perfbench/tracer.py wraps verify.derivative_at)
    evaluate,  # noqa: F401  (perfbench/tracer.py wraps verify.evaluate)
    kernel,
    norm,
)
from .orthosystem import (
    BlaschkeProduct,
    _div_geometric,
    _mul_shift,
    evaluate_blaschke,
    gram_schmidt,
    iterated_remainder,
    project,
    zero_space_kernel,
)

BOUNDARY_ANGLES = 512
INTERIOR_GRID = (64, 64)
DEFAULT_RADII = (0.5, 0.9, 0.99, 0.999)
# Euler-Maclaurin summation of zeta: terms below _ZETA_CUT are summed, and the
# tail from it carries the corrections B_2 .. B_14 / (2j)!.
_ZETA_CUT = 16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


@dataclass
class ConditionReport:
    """Outcome of one numerical check."""

    space: str
    check: str
    grid: str
    measured: dict
    bound: float | None
    passed: bool
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "check": self.check,
            "grid": self.grid,
            "measured": _jsonify(self.measured),
            "bound": None if self.bound is None else float(self.bound),
            "passed": bool(self.passed),
            "notes": self.notes,
        }


def family_pointwise_bound(spec: SpaceSpec) -> float:
    """Asserted uniform bound for sup |K_a(z)| / ||K_a||**2 by family.

    2 for the classical family, 2**(2+alpha) for the Bergman family.  For
    weighted Hardy exponents in (0, 1] the integral-comparison estimate gives
    4 away from the origin; 4.5 covers the unquantified small-radius range.
    Non-positive exponents match the Bergman-equivalent bound, and exponents
    above 1 have rim-bounded kernels dominated by the zeta value.
    """
    if spec.family == "hardy":
        return 2.0
    if spec.family == "bergman":
        return 2.0 ** (2.0 + spec.param)
    beta = spec.param
    if beta <= 0.0:
        return 2.0 ** (1.0 - beta)
    if beta <= 1.0:
        return 4.5
    return _zeta(beta)


def _zeta(s: float) -> float:
    """Riemann zeta of s > 1: sum k**-s for k < 16, and the tail from 16 by
    Euler-Maclaurin with 7 Bernoulli terms.  The first dropped term,
    B_16 / 16! s (s+1) ... (s+14) 16**(-s-15), is below 1e-19 of the sum
    at every s > 1."""
    n = _ZETA_CUT
    terms = [k**-s for k in range(1, n)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n**-s]
    rising = s  # s (s+1) ... (s+2j-2)
    for j, b in enumerate(_BERNOULLI, start=1):
        terms.append(b / math.factorial(2 * j) * rising * n ** (1.0 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(terms)


def _circle_values(coeffs: np.ndarray, radii, n_angles: int) -> np.ndarray:
    """Series values at r exp(2 pi i j / n_angles), one row per radius r.

    On equally spaced angles the truncated series is a DFT: the scaled
    coefficients c_k r**k are folded modulo ``n_angles`` and each row is one
    inverse FFT.
    """
    radii = np.asarray(radii, dtype=float)
    folds = -(-coeffs.size // n_angles)
    folded = np.zeros((radii.size, folds * n_angles), dtype=np.complex128)
    folded[:, : coeffs.size] = coeffs * radii[:, None] ** np.arange(coeffs.size)
    return np.fft.ifft(folded.reshape(radii.size, folds, n_angles).sum(axis=1), axis=1) * n_angles


def _boundary_sup(f: AnalyticFunction, n_angles: int = BOUNDARY_ANGLES) -> float:
    return float(np.max(np.abs(_circle_values(f.coeffs, [1.0], n_angles))))


def bvc_profile(
    spec: SpaceSpec, f: AnalyticFunction, radii, n_angles: int = 256
) -> list[tuple[float, float]]:
    """Per-radius angular supremum of the normalized kernel pairing |<f, E_a>|.

    Certifies how fast captured energy dies toward the rim; used to justify
    the compact search radius.
    """
    _check_member(spec, f)
    radii = [float(r) for r in radii]
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise DomainError(f"profile radius must lie in [0, 1), got {r}")
    sups = np.abs(_circle_values(f.coeffs, radii, n_angles)).max(axis=1)
    sups /= np.sqrt(spec.kernel_norm_sq(radii))
    return [(r, float(s)) for r, s in zip(radii, sups)]


def check_norm_blowup(spec: SpaceSpec, radii=DEFAULT_RADII) -> ConditionReport:
    """Kernel norms grow strictly with the radius; closed forms are matched
    for the classical and Bergman families within the truncation allowance."""
    radii = [float(r) for r in radii]
    norms = spec.kernel_norm_sq(radii).tolist()
    growing = all(b > a for a, b in zip(norms, norms[1:]))
    closed_ok = True
    closed = []
    for r, measured in zip(radii, norms):
        if spec.family == "hardy":
            ref = 1.0 / (1.0 - r * r)
        elif spec.family == "bergman":
            ref = (1.0 - r * r) ** -(2.0 + spec.param)
        else:
            closed.append(None)
            continue
        closed.append(ref)
        # The tail bound is sharp for the unweighted family, so give the
        # comparison a hair of float headroom on top of it.
        allowance = spec.truncation_tail(r) / ref * (1.0 + 1e-6) + 1e-9
        closed_ok = closed_ok and abs(measured - ref) <= allowance * ref
    return ConditionReport(
        space=spec.label(),
        check="norm-blowup",
        grid=f"radii {radii}",
        measured={"norm_sq": norms, "closed_form": closed},
        bound=None,
        passed=bool(growing and closed_ok),
        notes="strict growth" + ("; closed form matched" if spec.family != "weighted_hardy" else ""),
    )


def estimate_pointwise_bound(
    spec: SpaceSpec,
    grid_density: int = INTERIOR_GRID[0],
    n_angles: int = BOUNDARY_ANGLES,
    max_radius: float = 0.999,
) -> ConditionReport:
    """Grid supremum of |K_a(z)| / ||K_a||**2 against the family constant.

    The kernel value depends on a and z only through conj(a) z, so sweeping
    parameter radii r and points on the circle |zeta| = r covers the full
    (a, z) grid with z in the closed disc exactly.
    """
    radii = np.linspace(0.0, max_radius, grid_density)
    sups = np.abs(_circle_values(1.0 / spec.weights, radii, n_angles)).max(axis=1)
    sups /= spec.kernel_norm_sq(radii)
    best = int(np.argmax(sups))  # the first radius attaining the maximum
    sup, arg = float(sups[best]), float(radii[best])
    bound = family_pointwise_bound(spec)
    return ConditionReport(
        space=spec.label(),
        check="pointwise-bound",
        grid=f"{grid_density} radii in [0, {max_radius}] x {n_angles} angles "
        "(rotation-reduced, z over the closed disc)",
        measured={"sup": sup, "at_radius": arg},
        bound=bound,
        passed=bool(sup <= bound * (1.0 + 1e-6)),
    )


def _derivatives_at(f: AnalyticFunction, z: complex, count: int) -> np.ndarray:
    """f, f', ..., f^(count-1) at ``z``: order m is the dot product of the
    coefficients scaled by k (k-1) ... (k-m+1) with one table of powers."""
    coeffs = f.coeffs.astype(np.complex128)
    powers = np.cumprod(np.append(1.0, np.full(coeffs.size - 1, complex(z))))
    out = np.empty(count, dtype=np.complex128)
    for m in range(count):
        out[m] = coeffs[m:] @ powers[: coeffs.size - m]
        coeffs *= np.arange(coeffs.size) - m
    return out


def check_zero_property(
    spec: SpaceSpec, f: AnalyticFunction, params: ParamTuple, tol_factor: float = 1e-9
) -> ConditionReport:
    """The projection remainder vanishes at every node to full multiplicity."""
    system = gram_schmidt(spec, params)
    qf = project(f, system).remainder
    scale = norm(spec, f)
    values = []
    for center, order in params.node_structure():
        values.extend(np.abs(_derivatives_at(qf, center, order)).tolist())
    worst = max(values, default=0.0)
    return ConditionReport(
        space=spec.label(),
        check="zero-property",
        grid=f"nodes {[(c.real, c.imag) for c, _ in params.node_structure()]}",
        measured={"derivative_moduli": values, "worst": worst, "signal_norm": scale},
        bound=tol_factor * scale,
        passed=bool(worst <= tol_factor * max(scale, 1e-300)),
    )


def check_remainder_growth_bound(
    spec: SpaceSpec, f: AnalyticFunction, params: ParamTuple
) -> ConditionReport:
    """Boundary sup of the iterated reduced remainder stays below M (1+C)**k."""
    m_sup = _boundary_sup(f)
    g = iterated_remainder(spec, f, params)
    g_sup = _boundary_sup(g)
    c = family_pointwise_bound(spec)
    bound = m_sup * (1.0 + c) ** len(params) * (1.0 + 1e-6)
    return ConditionReport(
        space=spec.label(),
        check="remainder-growth",
        grid=f"{BOUNDARY_ANGLES} boundary angles, {len(params)} reductions",
        measured={"signal_sup": m_sup, "remainder_sup": g_sup, "constant": c},
        bound=bound,
        passed=bool(g_sup <= bound),
    )


def check_boundary_vanishing(
    spec: SpaceSpec, f: AnalyticFunction, radii=DEFAULT_RADII
) -> ConditionReport:
    """Profile of sup_angle |<f, E_a>| per radius: decreasing past its peak,
    with the outermost value at most 5% of the interior grid maximum."""
    profile = bvc_profile(spec, f, radii)
    values = [v for _, v in profile]
    peak = int(np.argmax(values))
    decreasing = all(values[i] > values[i + 1] for i in range(peak, len(values) - 1))
    interior_radii = np.linspace(0.0, 0.99, INTERIOR_GRID[0])
    interior = max(v for _, v in bvc_profile(spec, f, interior_radii, INTERIOR_GRID[1]))
    ratio = values[-1] / interior if interior > 0 else math.inf
    # By maximum modulus the outermost profile value is at least this floor.
    floor = abs(complex(f.coeffs[0])) / math.sqrt(spec.kernel_norm_sq(profile[-1][0]))
    return ConditionReport(
        space=spec.label(),
        check="boundary-vanishing",
        grid=f"profile radii {list(radii)}; interior polar "
        f"{INTERIOR_GRID[0]}x{INTERIOR_GRID[1]} up to 0.99",
        measured={"profile": values, "interior_max": interior, "rim_ratio": ratio,
                  "rim_floor": floor},
        bound=0.05,
        passed=bool(decreasing and ratio <= 0.05),
        notes="rim ratio compares the outermost profile value to the interior maximum; "
        "rim floor |f(0)| / ||K_r|| bounds that value from below",
    )


def check_bounded_kernel_limit(spec: SpaceSpec, radius: float = 0.9999) -> ConditionReport:
    """For weighted exponents above 1 the kernel norm has a finite rim limit;
    the norm at the probe radius must sit within 1% of the truncated limit."""
    if spec.family != "weighted_hardy" or spec.param <= 1.0:
        raise UnsupportedSpaceError("finite rim limit requires weighted_hardy with beta > 1")
    measured = spec.kernel_norm_sq(radius)
    limit = float(np.sum(1.0 / spec.weights))
    return ConditionReport(
        space=spec.label(),
        check="bounded-kernel-limit",
        grid=f"single radius {radius}",
        measured={"norm_sq": measured, "series_limit": limit, "zeta": _zeta(spec.param)},
        bound=0.01,
        passed=bool(abs(measured - limit) <= 0.01 * limit),
        notes="bound is the allowed relative gap to the truncated series limit",
    )


def check_zero_space_factorization(
    spec: SpaceSpec, zeros: ParamTuple, w: complex, n_grid: int = 64
) -> ConditionReport:
    """Classical-family identity: the zero-space kernel equals the plain kernel
    times the Blaschke product of the zeros on both arguments."""
    if spec.family != "hardy":
        raise UnsupportedSpaceError("zero-space factorization oracle requires the hardy family")
    w = complex(w)
    kz = zero_space_kernel(spec, zeros, w)
    phi = BlaschkeProduct(zeros)
    ref = kernel(spec, w).coeffs * np.conj(evaluate_blaschke(phi, w))
    for a in zeros.centers:
        ref = _div_geometric(_mul_shift(ref, a), np.conj(a))
    diff = norm(spec, AnalyticFunction(kz.coeffs - ref))
    kw_norm = norm(spec, kernel(spec, w))
    kz_norm = norm(spec, kz)
    return ConditionReport(
        space=spec.label(),
        check="zero-space-factorization",
        grid=f"zeros {[(c.real, c.imag) for c in zeros.centers]}, query {w}",
        measured={
            "factorization_residual": diff,
            "zero_space_norm": kz_norm,
            "kernel_norm": kw_norm,
            "norm_contraction": kz_norm <= kw_norm * (1.0 + 1e-12),
        },
        bound=1e-9 * kw_norm,
        passed=bool(diff <= 1e-9 * kw_norm and kz_norm <= kw_norm * (1.0 + 1e-12)),
    )


def _battery_signal(spec: SpaceSpec, rng: np.random.Generator, degree: int = 16) -> AnalyticFunction:
    c = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) / (
        1.0 + np.arange(degree + 1)
    )
    return as_element(spec, c)


def battery(spec: SpaceSpec, seed: int = 0) -> list[ConditionReport]:
    """Default certification battery for one space."""
    rng = np.random.default_rng(seed)
    f = _battery_signal(spec, rng)
    reports = [
        check_norm_blowup(spec),
        estimate_pointwise_bound(spec),
        check_zero_property(spec, f, ParamTuple((0.2, -0.3))),
        check_zero_property(spec, f, ParamTuple((0.3, 0.3))),
        check_remainder_growth_bound(spec, f, ParamTuple((0.2, -0.4j, 0.5))),
    ]
    # Weighted exponents above 1 have rim-bounded kernels, so the pairing
    # cannot vanish toward the rim; the finite-limit check replaces it there.
    if not (spec.family == "weighted_hardy" and spec.param > 1.0):
        reports.append(check_boundary_vanishing(spec, as_element(spec, [1.0])))
    if spec.family == "hardy":
        for zeros in (ParamTuple((0.3,)), ParamTuple((0.3, 0.3)), ParamTuple((0.2, -0.4j))):
            reports.append(check_zero_space_factorization(spec, zeros, 0.5))
    if spec.family == "weighted_hardy" and spec.param > 1.0:
        reports.append(check_bounded_kernel_limit(spec))
    return reports
