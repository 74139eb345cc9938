import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbestkernel import (
    AnalyticFunction,
    BlaschkeProduct,
    ConditioningError,
    DeflationError,
    DegenerateQueryError,
    ParamTuple,
    SingularityError,
    SpaceSpec,
    UnsupportedSpaceError,
    as_element,
    derivative_at,
    evaluate,
    evaluate_blaschke,
    gram_schmidt,
    inner_product,
    iterated_remainder,
    kernel,
    multiple_kernel,
    norm,
    norm_sq,
    project,
    reduced_remainder,
    tm_basis,
    zero_space_kernel,
)
from nbestkernel.verify import family_pointwise_bound


def _random_signal(spec, seed, degree=20):
    rng = np.random.default_rng(seed)
    return as_element(spec, rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def _gram_matrix(spec, system):
    return (system.basis * spec.weights) @ system.basis.conj().T


def test_gram_schmidt_single_origin(hardy):
    system = gram_schmidt(hardy, ParamTuple((0.0,)))
    assert system.basis[0][0] == 1.0
    assert np.all(system.basis[0][1:] == 0.0)


def test_gram_schmidt_orthonormal(hardy):
    system = gram_schmidt(hardy, ParamTuple((0.0, 0.5)))
    g = _gram_matrix(hardy, system)
    assert abs(g[0, 1]) <= 1e-12
    assert np.abs(g - np.eye(2)).max() <= 1e-12


def test_gram_schmidt_close_nodes_stay_orthonormal(hardy):
    system = gram_schmidt(hardy, ParamTuple((0.5, 0.5 + 2e-5)))
    g = _gram_matrix(hardy, system)
    assert np.abs(g - np.eye(2)).max() <= 1e-9


def test_gram_schmidt_repeated_node_matches_gram_solve(hardy):
    params = ParamTuple((0.3, 0.3))
    system = gram_schmidt(hardy, params)
    f = _random_signal(hardy, 1)
    proj = project(f, system)
    # oracle: normal equations on the raw kernel pair
    v = np.stack(
        [kernel(hardy, 0.3).coeffs, multiple_kernel(hardy, 0.3, 2).coeffs]
    )
    w = hardy.weights
    gram = (v * w) @ v.conj().T
    rhs = (w * f.coeffs) @ v.conj().T
    x = np.linalg.solve(gram.T, rhs)
    oracle = x @ v
    assert np.abs(oracle - proj.projection.coeffs).max() <= 1e-12
    # the second vector pairs f with a combination of f(0.3) and f'(0.3)
    c2 = inner_product(hardy, f, AnalyticFunction(system.basis[1]))
    a_val, da_val = evaluate(f, 0.3), derivative_at(f, 0.3, 1)
    expansion, *_ = np.linalg.lstsq(v.T, system.basis[1], rcond=None)
    assert c2 == pytest.approx(
        np.conj(expansion[0]) * a_val + np.conj(expansion[1]) * da_val, abs=1e-10
    )


def test_gram_schmidt_degenerate_raises_with_index(hardy):
    params = ParamTuple((0.3, 0.3 + 1e-11), merge_tol=1e-12)
    with pytest.raises(ConditioningError) as exc:
        gram_schmidt(hardy, params)
    assert exc.value.index == 1


def test_project_own_basis_vector(hardy):
    system = gram_schmidt(hardy, ParamTuple((0.2, -0.4)))
    e1 = AnalyticFunction(system.basis[0])
    proj = project(e1, system)
    assert proj.coeffs[0] == pytest.approx(1.0, abs=1e-13)
    assert abs(proj.coeffs[1]) <= 1e-13
    assert norm(hardy, proj.remainder) <= 1e-12


def test_project_orthogonal_signal(hardy):
    system = gram_schmidt(hardy, ParamTuple((0.0,)))
    z2 = as_element(hardy, [0, 0, 1])
    proj = project(z2, system)
    assert np.abs(proj.coeffs).max() <= 1e-14
    assert norm_sq(hardy, proj.projection) <= 1e-28


def test_project_kernel_in_own_span(hardy):
    f = kernel(hardy, 0.4)
    system = gram_schmidt(hardy, ParamTuple((0.4,)))
    assert norm(hardy, project(f, system).remainder) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_projection_pythagoras(seed):
    spec = SpaceSpec.hardy(max_degree=128, radius_cap=0.8)
    rng = np.random.default_rng(seed)
    f = as_element(spec, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    pts = 0.7 * np.sqrt(rng.uniform(size=3)) * np.exp(2j * np.pi * rng.uniform(size=3))
    system = gram_schmidt(spec, ParamTuple(tuple(pts), radius_cap=0.8))
    proj = project(f, system)
    total = norm_sq(spec, f)
    split = norm_sq(spec, proj.projection) + norm_sq(spec, proj.remainder)
    assert split == pytest.approx(total, rel=1e-10)
    # Parseval: captured energy equals the projection norm
    assert float(np.sum(np.abs(proj.coeffs) ** 2)) == pytest.approx(
        norm_sq(spec, proj.projection), rel=1e-10
    )


def test_projection_permutation_invariant(hardy):
    f = _random_signal(hardy, 7)
    base = ParamTuple((0.2, -0.4, 0.3j))
    shuffled = ParamTuple((0.3j, 0.2, -0.4))
    p1 = project(f, gram_schmidt(hardy, base)).projection
    p2 = project(f, gram_schmidt(hardy, shuffled)).projection
    assert np.abs(p1.coeffs - p2.coeffs).max() <= 1e-9


def test_projection_permutation_invariant_with_multiplicity(hardy):
    f = _random_signal(hardy, 8)
    p1 = project(f, gram_schmidt(hardy, ParamTuple((0.3, 0.5, 0.3)))).projection
    p2 = project(f, gram_schmidt(hardy, ParamTuple((0.5, 0.3, 0.3)))).projection
    assert np.abs(p1.coeffs - p2.coeffs).max() <= 1e-9


# -- Blaschke products ---------------------------------------------------------


def test_blaschke_single_zero_at_origin():
    b = BlaschkeProduct(ParamTuple((0.0,)))
    for z in (0.3, -0.8j, 0.5 + 0.5j):
        assert evaluate_blaschke(b, z) == pytest.approx(z, abs=1e-15)


def test_blaschke_unimodular_on_circle():
    b = BlaschkeProduct(ParamTuple((0.5, -0.3j, 0.2 + 0.6j)))
    grid = np.exp(2j * np.pi * np.arange(256) / 256)
    vals = evaluate_blaschke(b, grid)
    assert np.abs(np.abs(vals) - 1.0).max() <= 1e-12


def test_blaschke_vanishes_at_zeros():
    b = BlaschkeProduct(ParamTuple((0.5, -0.5)))
    assert evaluate_blaschke(b, 0.5) == 0.0
    assert evaluate_blaschke(b, -0.5) == 0.0


def test_blaschke_pole_guard():
    b = BlaschkeProduct(ParamTuple((0.5,)))
    with pytest.raises(SingularityError):
        evaluate_blaschke(b, 2.0)


# -- Takenaka-Malmquist basis --------------------------------------------------


def test_tm_origin_is_constant(hardy):
    system = tm_basis(hardy, ParamTuple((0.0,)))
    assert system.basis[0][0] == 1.0
    assert np.all(system.basis[0][1:] == 0.0)


def test_tm_first_member_is_normalized_kernel(hardy):
    system = tm_basis(hardy, ParamTuple((0.5,)))
    b1 = AnalyticFunction(system.basis[0])
    assert norm(hardy, b1) == pytest.approx(1.0, abs=1e-12)
    e = kernel(hardy, 0.5)
    scale = math.sqrt(1.0 - 0.25)
    assert np.abs(b1.coeffs - scale * e.coeffs).max() <= 1e-14


@pytest.mark.parametrize(
    "points",
    [
        (0.3, 0.6),
        (0.3, 0.3),
        (0.2 - 0.4j, 0.5j, -0.3),
        (0.99 * np.exp(1j), 0.98, -0.97j),  # near the radius cap
        (0.95, 0.951),
    ],
)
def test_tm_agrees_with_gram_schmidt_up_to_phase(hardy, points):
    params = ParamTuple(points)
    tm = tm_basis(hardy, params)
    gs = gram_schmidt(hardy, params)
    w = hardy.weights
    for i in range(len(params)):
        ip = complex(np.sum(w * tm.basis[i] * np.conj(gs.basis[i])))
        assert abs(ip) == pytest.approx(1.0, abs=1e-9)


def test_tm_requires_hardy(bergman0):
    with pytest.raises(UnsupportedSpaceError):
        tm_basis(bergman0, ParamTuple((0.3,)))


# -- reduced remainders --------------------------------------------------------


def test_reduced_remainder_of_z_at_origin(hardy):
    r = reduced_remainder(hardy, as_element(hardy, [0, 1]), 0.0)
    assert r.coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(r.coeffs[1:]).max() <= 1e-14


def test_reduced_remainder_annihilates_own_kernel(hardy):
    r = reduced_remainder(hardy, kernel(hardy, 0.5), 0.5)
    assert norm(hardy, r) <= 1e-10


def test_reduced_remainder_twice_on_z_squared(hardy):
    z2 = as_element(hardy, [0, 0, 1])
    r = reduced_remainder(hardy, reduced_remainder(hardy, z2, 0.0), 0.0)
    assert r.coeffs[0] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(r.coeffs[1:]).max() <= 1e-13


def test_reduced_remainder_guard_trips_on_impossible_tolerance(hardy):
    f = _random_signal(hardy, 5)
    with pytest.raises(DeflationError):
        reduced_remainder(hardy, f, 0.4, check_tol=1e-300)


def test_iterated_remainder_empty_tuple_is_identity(hardy):
    f = _random_signal(hardy, 2)
    g = iterated_remainder(hardy, f, ParamTuple(()))
    assert np.array_equal(f.coeffs, g.coeffs)


def test_iterated_remainder_z_squared(hardy):
    g = iterated_remainder(hardy, as_element(hardy, [0, 0, 1]), ParamTuple((0.0, 0.0)))
    assert g.coeffs[0] == pytest.approx(1.0, abs=1e-13)


def _quotient_form(spec, f, params):
    """Independent right-hand side: project once, then divide out each factor
    with numpy's polynomial division."""
    qf = project(f, gram_schmidt(spec, params)).remainder.coeffs
    for a in params.centers:
        quot, rem = np.polynomial.polynomial.polydiv(qf, np.array([-a, 1.0]))
        assert np.abs(rem).max() <= 1e-8
        full = np.zeros_like(qf)
        full[: quot.size] = quot
        shifted = np.zeros_like(full)
        shifted[1:] = full[:-1]
        qf = full - np.conj(a) * shifted
    return qf


@pytest.mark.parametrize("seed", range(4))
def test_iterated_remainder_matches_quotient_form(hardy, seed):
    rng = np.random.default_rng(seed)
    f = _random_signal(hardy, seed + 100, degree=14)
    k = int(rng.integers(1, 5))
    pts = 0.8 * np.sqrt(rng.uniform(size=k)) * np.exp(2j * np.pi * rng.uniform(size=k))
    params = ParamTuple(tuple(pts))
    lhs = iterated_remainder(hardy, f, params)
    rhs = _quotient_form(hardy, f, params)
    assert np.abs(lhs.coeffs - rhs).max() <= 1e-9


# -- zero spaces ---------------------------------------------------------------


def test_zero_space_kernel_empty_is_kernel(hardy):
    kz = zero_space_kernel(hardy, ParamTuple(()), 0.5)
    assert np.array_equal(kz.coeffs, kernel(hardy, 0.5).coeffs)


def test_zero_space_kernel_vanishes_on_zeros(hardy):
    kz = zero_space_kernel(hardy, ParamTuple((0.3,)), 0.5)
    assert abs(evaluate(kz, 0.3)) <= 1e-10
    kz2 = zero_space_kernel(hardy, ParamTuple((0.3, 0.3)), 0.5)
    assert abs(evaluate(kz2, 0.3)) <= 1e-10
    assert abs(derivative_at(kz2, 0.3, 1)) <= 1e-9


def test_zero_space_kernel_reproduces_on_subspace(hardy):
    zeros = ParamTuple((0.3, -0.2j))
    kz = zero_space_kernel(hardy, zeros, 0.5)
    f = _random_signal(hardy, 11)
    fz = project(f, gram_schmidt(hardy, zeros)).remainder  # vanishes on zeros
    assert inner_product(hardy, fz, kz) == pytest.approx(evaluate(fz, 0.5), abs=1e-10)


def test_zero_space_kernel_blaschke_factorization(hardy):
    from nbestkernel.orthosystem import _div_geometric, _mul_shift

    zeros = ParamTuple((0.3,))
    w = 0.5
    kz = zero_space_kernel(hardy, zeros, w)
    phi = BlaschkeProduct(zeros)
    ref = kernel(hardy, w).coeffs * np.conj(evaluate_blaschke(phi, w))
    for a in zeros.centers:
        ref = _div_geometric(_mul_shift(ref, a), np.conj(a))
    grid = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
    lhs = evaluate(kz, grid)
    rhs = evaluate(AnalyticFunction(ref), grid)
    assert np.abs(lhs - rhs).max() <= 1e-9
    assert norm(hardy, kz) <= norm(hardy, kernel(hardy, w)) * (1 + 1e-12)


def test_zero_space_kernel_degenerate_query(hardy):
    with pytest.raises(DegenerateQueryError):
        zero_space_kernel(hardy, ParamTuple((0.3,)), 0.3 + 1e-9)


# -- extremal and growth facts --------------------------------------------------


@pytest.mark.parametrize("family,param", [("hardy", 0.0), ("bergman", 1.0), ("weighted_hardy", 0.5)])
def test_pointwise_extremal_property(family, param):
    spec = SpaceSpec(family, param)
    rng = np.random.default_rng(17)
    a = 0.6 - 0.3j
    peak = evaluate(kernel(spec, a), a).real
    for _ in range(25):
        f = as_element(spec, rng.standard_normal(24) + 1j * rng.standard_normal(24))
        f = (1.0 / norm(spec, f)) * f
        assert abs(evaluate(f, a)) ** 2 <= peak * (1 + 1e-9)
    e = (1.0 / norm(spec, kernel(spec, a))) * kernel(spec, a)
    assert abs(evaluate(e, a)) ** 2 == pytest.approx(peak, rel=1e-12)


def test_zero_property_with_doubled_node(hardy):
    f = _random_signal(hardy, 23)
    params = ParamTuple((0.3, 0.3, -0.4))
    qf = project(f, gram_schmidt(hardy, params)).remainder
    scale = norm(hardy, f)
    assert abs(evaluate(qf, 0.3)) <= 1e-9 * scale
    assert abs(derivative_at(qf, 0.3, 1)) <= 1e-9 * scale
    assert abs(evaluate(qf, -0.4)) <= 1e-9 * scale


@pytest.mark.parametrize("family,param", [("hardy", 0.0), ("bergman", 0.0)])
def test_reduced_remainder_boundary_growth(family, param):
    spec = SpaceSpec(family, param)
    rng = np.random.default_rng(29)
    f = as_element(spec, rng.standard_normal(18) + 1j * rng.standard_normal(18))
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    m = float(np.max(np.abs(evaluate(f, circle))))
    params = ParamTuple((0.2, -0.4j, 0.5))
    g = iterated_remainder(spec, f, params)
    g_sup = float(np.max(np.abs(evaluate(g, circle))))
    c = family_pointwise_bound(spec)
    assert g_sup <= m * (1 + c) ** len(params) * (1 + 1e-6)


# -- geometric division and deflation ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 1100),
    radius=st.one_of(st.just(0.0), st.just(0.99), st.floats(0.0, 0.99)),
    angle=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_geometric_recurrence_matches_lfilter(size, radius, angle, seed):
    """_div_geometric and _deflate against scipy's IIR filter, the reference the
    recurrence replaced, for node radii up to the default radius cap."""
    from scipy.signal import lfilter

    from nbestkernel.orthosystem import _deflate, _div_geometric

    def ref(c, x):
        return lfilter([1.0 + 0j], [1.0 + 0j, -x], c)

    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / (1.0 + np.arange(size))
    a = radius * np.exp(1j * angle)
    # error scale: the recurrence applied to |c| with |a|
    scale = ref(np.abs(c), abs(a)).real
    got = _div_geometric(c, np.conj(a))
    assert np.all(np.abs(got - ref(c, np.conj(a))) <= 1e-14 * scale)

    # synthetic division by (z - a) is Horner's scheme run on the reversed series
    rev = c[:0:-1]
    q, rem = _deflate(c, a)
    assert np.all(np.abs(q[:-1] - ref(rev, a)[::-1]) <= 1e-14 * ref(np.abs(rev), abs(a)).real[::-1])
    assert q[-1] == 0
    horner_scale = np.polynomial.polynomial.polyval(abs(a), np.abs(c))
    assert abs(rem - np.polynomial.polynomial.polyval(a, c)) <= 1e-14 * horner_scale
