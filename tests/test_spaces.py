import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nbestkernel import (
    AnalyticFunction,
    DegreeError,
    DomainError,
    ParamTuple,
    ShapeMismatchError,
    SpaceSpec,
    as_element,
    derivative_at,
    evaluate,
    inner_product,
    kernel,
    kernel_matrix,
    multiple_kernel,
    norm,
    norm_sq,
    weight,
)
from nbestkernel.spaces import _falling_factorial, _kernel_powers, _kernel_rows


def test_weight_examples(hardy, dirichlet, bergman0):
    assert weight(hardy, 5) == 1.0
    assert weight(dirichlet, 3) == 4.0
    assert weight(bergman0, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_bergman_weight_matches_area_integral():
    # || z^k ||^2 = (1+alpha) * integral_0^1 t^k (1-t)^alpha dt
    for alpha in (0.0, 1.0, 2.5):
        spec = SpaceSpec.bergman(alpha)
        for k in (0, 2, 7):
            oracle, _ = quad(lambda t: (1 + alpha) * t**k * (1 - t) ** alpha, 0.0, 1.0)
            assert weight(spec, k) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize(
    "alpha, closed_form",
    [(0.0, lambda k: 1.0 / (k + 1.0)), (1.0, lambda k: 2.0 / ((k + 1.0) * (k + 2.0)))],
)
def test_bergman_weights_match_closed_forms(alpha, closed_form):
    spec = SpaceSpec.bergman(alpha)
    ks = np.arange(spec.max_degree + 1, dtype=np.float64)
    np.testing.assert_allclose(spec.weights, closed_form(ks), rtol=1e-14, atol=0.0)
    n = spec.max_degree
    assert spec.weight_beyond(n + 2) == pytest.approx(closed_form(n + 2.0), rel=1e-14)


@pytest.mark.parametrize("alpha", [-0.5, 0.3, 2.5, 3.5, 17.25])
def test_bergman_weights_match_log_gamma_form(alpha):
    from scipy.special import gammaln

    spec = SpaceSpec.bergman(alpha, radius_cap=0.9)
    ks = np.arange(spec.max_degree + 1, dtype=np.float64)
    reference = np.exp(gammaln(ks + 1.0) + gammaln(2.0 + alpha) - gammaln(ks + 2.0 + alpha))
    np.testing.assert_allclose(spec.weights, reference, rtol=1e-11, atol=0.0)


def test_weight_out_of_range(hardy):
    with pytest.raises(DegreeError):
        weight(hardy, hardy.max_degree + 1)
    with pytest.raises(DegreeError):
        weight(hardy, -1)


@pytest.mark.parametrize(
    "spec",
    [
        SpaceSpec.hardy(max_degree=256, radius_cap=0.8),
        SpaceSpec.bergman(2.5, max_degree=256, radius_cap=0.8),
        SpaceSpec.weighted_hardy(3.0, max_degree=256, radius_cap=0.8),
        SpaceSpec.weighted_hardy(-2.0, max_degree=256, radius_cap=0.8),
    ],
)
def test_weight_root_growth(spec):
    n = spec.max_degree
    assert abs(weight(spec, n) ** (1.0 / n) - 1.0) < 0.1
    assert np.all(spec.weights > 0.0)


def test_bergman_exponent_validation():
    with pytest.raises(DomainError):
        SpaceSpec.bergman(-2.0)


def test_inner_product_examples(hardy, dirichlet):
    f = as_element(hardy, [1, 1])
    g = as_element(hardy, [0, 1])
    assert inner_product(hardy, f, g) == 1.0
    z = as_element(dirichlet, [0, 1])
    assert inner_product(dirichlet, z, z) == 2.0
    k5 = kernel(hardy, 0.5)
    assert inner_product(hardy, k5, k5) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_inner_product_degree_mismatch(hardy, hardy_small):
    f = as_element(hardy, [1.0])
    g = as_element(hardy_small, [1.0])
    with pytest.raises(ShapeMismatchError):
        inner_product(hardy, f, g)


@settings(max_examples=40, deadline=None)
@given(
    s=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**16),
)
def test_inner_product_sesquilinear(s, seed):
    spec = SpaceSpec.hardy(max_degree=128, radius_cap=0.8)
    rng = np.random.default_rng(seed)
    f = as_element(spec, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    g = as_element(spec, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    lhs = inner_product(spec, g, f)
    assert lhs == pytest.approx(np.conj(inner_product(spec, f, g)), abs=1e-12)
    assert inner_product(spec, s * f, g) == pytest.approx(s * inner_product(spec, f, g), abs=1e-10)
    assert inner_product(spec, f, s * g) == pytest.approx(
        np.conj(s) * inner_product(spec, f, g), abs=1e-10
    )


def test_kernel_at_zero_is_constant(hardy):
    k0 = kernel(hardy, 0.0)
    assert k0.coeffs[0] == 1.0
    assert np.all(k0.coeffs[1:] == 0.0)


def test_kernel_diagonal_examples(hardy, bergman0, dirichlet):
    assert evaluate(kernel(bergman0, 0.5), 0.5) == pytest.approx(16.0 / 9.0, rel=1e-14)
    # closed-form series sum against an explicit partial sum
    closed = -math.log(1.0 - 0.25) / 0.25
    partial = sum(0.25**k / (k + 1) for k in range(200))
    assert evaluate(kernel(dirichlet, 0.5), 0.5) == pytest.approx(closed, rel=1e-13)
    assert closed == pytest.approx(partial, rel=1e-13)
    assert evaluate(kernel(hardy, 0.5), 0.8) == pytest.approx(1.0 / 0.6, rel=1e-14)


def test_kernel_rejects_boundary(hardy):
    with pytest.raises(DomainError):
        kernel(hardy, 1.0)
    with pytest.raises(DomainError):
        kernel(hardy, 0.8 + 0.7j)
    # kernel_matrix agrees, row by row, and rejects non-finite parameters too
    for bad in (1.0, 0.8 + 0.7j, math.nan, complex(0.1, math.inf)):
        with pytest.raises(DomainError):
            kernel_matrix(hardy, [0.2, bad])
        with pytest.raises(DomainError):
            kernel(hardy, bad)
    assert np.array_equal(kernel_matrix(hardy, [0.3j])[0], kernel(hardy, 0.3j).coeffs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), family=st.sampled_from(["hardy", "bergman", "weighted_hardy"]))
def test_reproducing_property(seed, family):
    param = {"hardy": 0.0, "bergman": 1.0, "weighted_hardy": 0.5}[family]
    spec = SpaceSpec(family, param, max_degree=256, radius_cap=0.96)
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, spec.max_degree // 2))
    f = as_element(spec, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    a = 0.95 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    err = abs(inner_product(spec, f, kernel(spec, a)) - evaluate(f, a))
    assert err <= 1e-10 * norm(spec, f)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), order=st.sampled_from([2, 3]))
def test_derivative_reproducing_property(seed, order):
    spec = SpaceSpec.hardy(max_degree=256, radius_cap=0.96)
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(order, spec.max_degree // 2))
    f = as_element(spec, rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    a = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    err = abs(inner_product(spec, f, multiple_kernel(spec, a, order)) - derivative_at(f, a, order - 1))
    assert err <= 1e-8 * norm(spec, f)


def test_multiple_kernel_order_one_is_kernel(bergman0):
    a = 0.4 - 0.2j
    assert np.array_equal(multiple_kernel(bergman0, a, 1).coeffs, kernel(bergman0, a).coeffs)


def test_multiple_kernel_at_origin_order_two(hardy):
    mk = multiple_kernel(hardy, 0.0, 2)
    expected = np.zeros(hardy.max_degree + 1, dtype=complex)
    expected[1] = 1.0
    assert np.array_equal(mk.coeffs, expected)


def test_multiple_kernel_pairs_with_derivative(hardy):
    f = as_element(hardy, [0, 0, 1])  # z^2
    val = inner_product(hardy, f, multiple_kernel(hardy, 0.3, 2))
    assert val == pytest.approx(0.6, abs=1e-12)
    # finite-difference oracle for f'(0.3)
    h = 1e-6
    fd = (evaluate(f, 0.3 + h) - evaluate(f, 0.3 - h)) / (2 * h)
    assert val == pytest.approx(fd, abs=1e-8)


def test_multiple_kernel_order_errors(hardy_small):
    with pytest.raises(DegreeError):
        multiple_kernel(hardy_small, 0.3, hardy_small.max_degree + 1)
    with pytest.raises(DegreeError):
        multiple_kernel(hardy_small, 0.3, 0)


_ROW_SPACES = {
    "hardy": SpaceSpec.hardy(),
    "bergman": SpaceSpec.bergman(1.0),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5),
}


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(_ROW_SPACES)),
    order=st.integers(1, 3),
    fraction=st.floats(0.0, 1.0),
    angle=st.floats(0.0, 2.0 * math.pi),
)
@example(family="hardy", order=3, fraction=1.0, angle=0.3)
@example(family="bergman", order=2, fraction=1.0, angle=2.0)
@example(family="weighted_hardy", order=1, fraction=1.0, angle=-1.0)
@example(family="bergman", order=3, fraction=0.0, angle=0.0)
def test_search_kernel_rows_match_reference(family, order, fraction, angle):
    """The search's kernel rows (block powers, flushed) against the MGS
    reference's (``kernel_matrix``'s running product for order 1,
    ``multiple_kernel``'s per-entry powers above): within 1e-12 of each
    row's largest entry, up to the radius cap.  A row cut to 32 entries is
    the full row's prefix bit for bit, and the cached falling factorial
    that every row reads is read-only."""
    spec = _ROW_SPACES[family]
    c = fraction * spec.radius_cap * complex(math.cos(angle), math.sin(angle))
    n1 = spec.max_degree + 1
    rows = _kernel_rows(_kernel_powers([c], n1), (order,), spec.max_degree)[0]
    ref = multiple_kernel(spec, c, order).coeffs
    assert np.max(np.abs(rows / spec.weights - ref)) <= 1e-12 * np.max(np.abs(ref))
    cut = _kernel_rows(_kernel_powers([c], 32), (order,), spec.max_degree)[0]
    assert np.array_equal(cut, rows[:32])
    assert not _falling_factorial(spec.max_degree, order - 1).flags.writeable


def test_evaluate_examples(hardy):
    assert evaluate(as_element(hardy, [1, 1]), 0.0) == 1.0
    assert evaluate(as_element(hardy, [0, 0, 0, 1]), 1j) == pytest.approx(-1j, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 1100),
    radius=st.floats(0.0, 2.5),
    shape=st.sampled_from([(), (7,), (3, 4)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1100, radius=2.5, shape=(3, 4), seed=0)  # polyval overflows at some points
@example(size=1025, radius=1.0, shape=(7,), seed=1)
@example(size=33, radius=2.5, shape=(), seed=2)  # one coefficient past a block
def test_evaluate_matches_horner(size, radius, shape, seed):
    """The blocked evaluation agrees with Horner's polyval within 1e-12 of
    sum |c_k| |z|**k, and is finite wherever polyval is."""
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / (1.0 + np.arange(size))
    z = radius * rng.uniform(0.0, 1.0, shape) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, shape))
    with np.errstate(over="ignore", invalid="ignore"):
        got = evaluate(AnalyticFunction(c), z)
        ref = np.polynomial.polynomial.polyval(z, c)
        scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(c))
    assert np.shape(got) == shape
    assert isinstance(got, complex) if shape == () else got.dtype == np.complex128
    finite = np.isfinite(ref)
    assert np.all(np.isfinite(np.asarray(got)[finite]))
    assert np.all(np.abs(got - ref)[finite] <= 1e-12 * scale[finite])


def test_derivative_examples(hardy):
    f = as_element(hardy, [0, 0, 1])
    assert derivative_at(f, 0.3, 1) == pytest.approx(0.6, abs=1e-15)
    k5 = kernel(hardy, 0.5)
    assert derivative_at(k5, 0.0, 1) == pytest.approx(0.5, abs=1e-12)
    h = 1e-6
    fd = (evaluate(k5, 0.0 + h) - evaluate(k5, 0.0 - h)) / (2 * h)
    assert derivative_at(k5, 0.0, 1) == pytest.approx(fd, abs=1e-9)
    z = 0.2 - 0.1j
    assert derivative_at(f, z, 0) == evaluate(f, z)
    with pytest.raises(DegreeError):
        derivative_at(f, 0.0, hardy.max_degree + 1)


def test_norm_positivity(hardy):
    rng = np.random.default_rng(3)
    f = as_element(hardy, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    assert norm_sq(hardy, f) > 0.0
    zero = as_element(hardy, [0.0])
    assert norm_sq(hardy, zero) == 0.0


@pytest.mark.parametrize("family,param", [("hardy", 0.0), ("bergman", 2.5), ("weighted_hardy", 0.5)])
def test_kernel_norm_identity(family, param):
    spec = SpaceSpec(family, param)
    for a in (0.3, 0.7j, -0.6 + 0.5j, 0.95):
        k = kernel(spec, a)
        lhs = inner_product(spec, k, k).real
        rhs = evaluate(k, a).real
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_truncation_honesty_guard():
    with pytest.raises(DomainError):
        SpaceSpec.hardy(max_degree=64)
    spec = SpaceSpec.hardy(max_degree=64, radius_cap=0.7)
    assert spec.kernel_norm_sq(0.7) == pytest.approx(1.0 / (1.0 - 0.49), rel=1e-9)


@pytest.mark.parametrize("family,param", [("hardy", 0.0), ("bergman", 1.0), ("weighted_hardy", 0.5)])
def test_kernel_norm_sq_of_an_array_is_that_of_each_radius(family, param):
    spec = SpaceSpec(family, param)
    radii = np.linspace(0.0, 0.999, 64)
    norms = spec.kernel_norm_sq(radii)
    assert norms.shape == radii.shape
    assert norms.tolist() == [spec.kernel_norm_sq(r) for r in radii]
    assert isinstance(spec.kernel_norm_sq(0.5), float)


@pytest.mark.parametrize(
    "family,param",
    [("hardy", 0.0), ("bergman", 0.0), ("bergman", 2.5), ("weighted_hardy", 0.25), ("weighted_hardy", 3.0)],
)
def test_kernel_norm_sq_matches_the_power_formula(family, param):
    spec = SpaceSpec(family, param)
    radii = np.append(np.linspace(0.0, 0.999, 64), [0.9995, 0.9999])
    ref = [np.sum(np.power(r * r, np.arange(spec.max_degree + 1)) / spec.weights) for r in radii]
    np.testing.assert_allclose(spec.kernel_norm_sq(radii), ref, rtol=1e-12, atol=0.0)


def test_non_finite_coefficients_rejected():
    with pytest.raises(ValueError):
        AnalyticFunction(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        AnalyticFunction(np.array([1.0, np.inf * 1j]))


def test_param_tuple_merging_and_orders():
    t = ParamTuple((0.3, 0.3 + 1e-9, -0.5, 0.3 - 1e-9))
    assert t.orders == (1, 2, 1, 3)
    assert t.centers[1] == t.centers[0] == 0.3
    assert t.node_structure() == [(0.3 + 0j, 3), (-0.5 + 0j, 1)]


def test_param_tuple_radius_guard():
    with pytest.raises(DomainError):
        ParamTuple((0.995,))
    ParamTuple((0.995,), radius_cap=0.999)  # explicit cap widening is allowed


def test_param_tuple_left_to_right_multiplicity():
    t = ParamTuple((0.2, 0.5, 0.2))
    assert t.orders == (1, 1, 2)
    assert 1 <= min(t.orders) and max(o for o in t.orders) <= len(t)
