import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbestkernel import (
    ConditionReport,
    DomainError,
    ParamTuple,
    SpaceSpec,
    UnsupportedSpaceError,
    as_element,
    battery,
    bvc_profile,
    check_bounded_kernel_limit,
    check_boundary_vanishing,
    check_norm_blowup,
    check_remainder_growth_bound,
    check_zero_property,
    check_zero_space_factorization,
    derivative_at,
    estimate_pointwise_bound,
    family_pointwise_bound,
    kernel,
    multiple_kernel,
)
from nbestkernel import spaces, verify
from nbestkernel.verify import _circle_values, _derivatives_at, _zeta


def _random_signal(spec, seed, degree=16):
    rng = np.random.default_rng(seed)
    return as_element(spec, rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def test_norm_blowup_hardy_values(hardy):
    rep = check_norm_blowup(hardy)
    assert rep.passed
    assert rep.measured["norm_sq"][1] == pytest.approx(1 / (1 - 0.81), rel=1e-12)


def test_norm_blowup_bergman_value(bergman0):
    rep = check_norm_blowup(bergman0)
    assert rep.passed
    assert rep.measured["norm_sq"][1] == pytest.approx((1 / 0.19) ** 2, rel=1e-12)


def test_norm_blowup_weighted_growth(dirichlet):
    rep = check_norm_blowup(dirichlet)
    assert rep.passed
    vals = rep.measured["norm_sq"]
    assert vals == sorted(vals)


@pytest.mark.parametrize(
    "spec,bound",
    [
        (SpaceSpec.hardy(), 2.0),
        (SpaceSpec.bergman(0.0), 4.0),
        (SpaceSpec.bergman(1.0), 8.0),
        (SpaceSpec.bergman(2.5), 2.0**4.5),
        (SpaceSpec.weighted_hardy(0.25), 4.5),
        (SpaceSpec.weighted_hardy(0.5), 4.5),
        (SpaceSpec.weighted_hardy(1.0), 4.5),
    ],
)
def test_pointwise_bound_families(spec, bound):
    rep = estimate_pointwise_bound(spec)
    assert rep.bound == pytest.approx(bound)
    assert rep.passed
    assert rep.measured["sup"] <= bound * (1 + 1e-6)


def test_pointwise_bound_hardy_approaches_two(hardy):
    rep = estimate_pointwise_bound(hardy)
    assert rep.measured["sup"] == pytest.approx(1.99, abs=0.02)
    assert rep.measured["at_radius"] > 0.9


def test_family_bound_negative_beta_matches_bergman():
    assert family_pointwise_bound(SpaceSpec.weighted_hardy(-2.0, radius_cap=0.9)) == 8.0


def test_zero_property_distinct_and_doubled(hardy):
    f = _random_signal(hardy, 1)
    assert check_zero_property(hardy, f, ParamTuple((0.2, -0.3))).passed
    assert check_zero_property(hardy, f, ParamTuple((0.3, 0.3))).passed


@pytest.mark.parametrize(
    "spec",
    [SpaceSpec.hardy(), SpaceSpec.bergman(1.0), SpaceSpec.weighted_hardy(0.5)],
    ids=lambda spec: spec.family,
)
def test_derivatives_at_match_derivative_at(spec):
    """Every order up to 3 from one table of powers, against polyder and a
    Horner polyval per order, on full-length series out to radius 0.95."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, z = 0.95 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        f = kernel(spec, a) + 0.5 * multiple_kernel(spec, -0.4j, 2) + _random_signal(spec, 5, 8)
        values = _derivatives_at(f, z, 4)
        for m in range(4):
            assert values[m] == pytest.approx(derivative_at(f, z, m), rel=1e-12)


def test_zero_property_span_member(hardy):
    from nbestkernel import kernel

    f = kernel(hardy, 0.4)
    rep = check_zero_property(hardy, f, ParamTuple((0.4,)))
    assert rep.passed
    assert rep.measured["worst"] <= 1e-12


def test_remainder_growth_bound_families():
    for spec in (SpaceSpec.hardy(), SpaceSpec.bergman(0.0)):
        f = _random_signal(spec, 2)
        rep = check_remainder_growth_bound(spec, f, ParamTuple((0.2, -0.4j, 0.5)))
        assert rep.passed
        k = 3
        c = family_pointwise_bound(spec)
        assert rep.bound == pytest.approx(rep.measured["signal_sup"] * (1 + c) ** k * (1 + 1e-6))


def test_remainder_growth_zero_reductions_is_signal_sup(hardy):
    f = _random_signal(hardy, 4)
    rep = check_remainder_growth_bound(hardy, f, ParamTuple(()))
    assert rep.passed
    assert rep.measured["remainder_sup"] == pytest.approx(rep.measured["signal_sup"], rel=1e-12)


def test_boundary_vanishing_hardy_and_bergman(hardy, bergman0):
    one_h = as_element(hardy, [1.0])
    rep = check_boundary_vanishing(hardy, one_h)
    assert rep.passed
    assert rep.measured["profile"][0] == pytest.approx(math.sqrt(0.75), abs=1e-10)
    rep_b = check_boundary_vanishing(bergman0, as_element(bergman0, [1.0]))
    assert rep_b.passed
    assert rep_b.measured["rim_ratio"] < 0.01


def test_boundary_vanishing_weighted_rim_ratio_exceeds_threshold(dirichlet):
    # The Dirichlet-type norm grows only logarithmically, so the rim value at
    # r = 0.999 is still about 40% of the interior maximum; the 5% flag is
    # honestly red while the decreasing-tail observation holds.
    rep = check_boundary_vanishing(dirichlet, as_element(dirichlet, [1.0]))
    assert not rep.passed
    vals = rep.measured["profile"]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert rep.measured["rim_ratio"] > 0.05
    # For f = 1 the profile is exactly the analytic floor 1 / ||K_r||, so the
    # red flag is a property of the norm's growth, not of the angular grid.
    assert rep.measured["rim_floor"] == pytest.approx(vals[-1], rel=1e-12)
    assert rep.measured["rim_floor"] / rep.measured["interior_max"] > 0.05


@pytest.mark.parametrize("spec", [SpaceSpec.hardy(), SpaceSpec.bergman(1.0), SpaceSpec.weighted_hardy(0.5)])
def test_boundary_vanishing_rim_floor_is_lower_bound(spec):
    f = _random_signal(spec, 6)
    rep = check_boundary_vanishing(spec, f)
    floor = abs(f.coeffs[0]) / math.sqrt(spec.kernel_norm_sq(0.999))
    assert rep.measured["rim_floor"] == pytest.approx(floor, rel=1e-15)
    assert floor <= rep.measured["profile"][-1]


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 1100),
    n_angles=st.integers(1, 600),
    radii=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=1025, n_angles=512, radii=[0.0, 0.5, 1.0], seed=0)  # longer than n_angles
@example(size=100, n_angles=512, radii=[0.0, 0.999, 1.0], seed=1)  # shorter than n_angles
@example(size=1025, n_angles=100, radii=[0.0, 0.9, 1.0], seed=2)  # n_angles does not divide N+1
def test_circle_values_match_horner(size, n_angles, radii, seed):
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / (1.0 + np.arange(size))
    got = _circle_values(c, radii, n_angles)
    assert got.shape == (len(radii), n_angles)
    angles = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    for r, row in zip(radii, got):
        ref = np.polynomial.polynomial.polyval(r * angles, c)
        scale = np.polynomial.polynomial.polyval(r, np.abs(c))
        assert np.max(np.abs(row - ref)) <= 1e-12 * scale


def test_report_to_dict_plain_types():
    rep = ConditionReport(
        space="s",
        check="c",
        grid="g",
        measured={
            "values": (np.float64(0.5), 1.0),
            "count": np.int64(3),
            "ok": np.bool_(True),
            "closed_form": [None, np.float32(0.25)],
            "radii": np.array([0.5, 2.0]),
            "rows": np.array([[1 + 2j, 3.0]]),
        },
        bound=np.float64(2.0),
        passed=np.bool_(False),
    )
    assert json.dumps(rep.to_dict(), sort_keys=True) == (
        '{"bound": 2.0, "check": "c", "grid": "g", "measured": {"closed_form": [null, 0.25], '
        '"count": 3, "ok": true, "radii": [0.5, 2.0], "rows": [[[1.0, 2.0], [3.0, 0.0]]], '
        '"values": [0.5, 1.0]}, "notes": "", "passed": false, "space": "s"}'
    )


def test_bounded_kernel_limit_values():
    rep2 = check_bounded_kernel_limit(SpaceSpec.weighted_hardy(2.0))
    assert rep2.passed
    assert rep2.measured["norm_sq"] == pytest.approx(math.pi**2 / 6, rel=0.01)
    rep3 = check_bounded_kernel_limit(SpaceSpec.weighted_hardy(3.0))
    assert rep3.passed
    assert rep3.measured["norm_sq"] == pytest.approx(1.2020569, rel=0.01)
    rep15 = check_bounded_kernel_limit(SpaceSpec.weighted_hardy(1.5))
    assert rep15.passed


def test_bounded_kernel_limit_monotone_in_beta():
    small = check_bounded_kernel_limit(SpaceSpec.weighted_hardy(1.0001)).measured["norm_sq"]
    two = check_bounded_kernel_limit(SpaceSpec.weighted_hardy(2.0)).measured["norm_sq"]
    assert math.isfinite(small)
    assert small > two


def test_bounded_kernel_limit_requires_smooth_regime(hardy):
    with pytest.raises(UnsupportedSpaceError):
        check_bounded_kernel_limit(hardy)
    with pytest.raises(UnsupportedSpaceError):
        check_bounded_kernel_limit(SpaceSpec.weighted_hardy(0.5))


@pytest.mark.parametrize("zeros", [(0.3,), (0.3, 0.3), (0.2, -0.4j)])
def test_zero_space_factorization_cases(hardy, zeros):
    rep = check_zero_space_factorization(hardy, ParamTuple(zeros), 0.5)
    assert rep.passed
    assert rep.measured["factorization_residual"] <= 1e-9


def test_zero_space_factorization_empty(hardy):
    rep = check_zero_space_factorization(hardy, ParamTuple(()), 0.5)
    assert rep.passed
    assert rep.measured["factorization_residual"] <= 1e-12


def test_zero_space_factorization_requires_hardy(bergman0):
    with pytest.raises(UnsupportedSpaceError):
        check_zero_space_factorization(bergman0, ParamTuple((0.3,)), 0.5)


def test_battery_hardy_all_pass(hardy):
    reports = battery(hardy)
    assert all(r.passed for r in reports)
    names = [r.check for r in reports]
    assert "boundary-vanishing" in names
    assert names.count("zero-space-factorization") == 3


def test_battery_bergman_all_pass():
    for alpha in (0.0, 1.0, 2.5):
        reports = battery(SpaceSpec.bergman(alpha))
        assert all(r.passed for r in reports), [
            (r.check, r.passed) for r in reports if not r.passed
        ]


def test_battery_weighted_only_rim_ratio_fails():
    for beta in (0.25, 0.5, 1.0):
        reports = battery(SpaceSpec.weighted_hardy(beta))
        failing = [r.check for r in reports if not r.passed]
        assert failing == ["boundary-vanishing"]


def test_battery_smooth_regime_swaps_rim_check():
    reports = battery(SpaceSpec.weighted_hardy(2.0))
    names = [r.check for r in reports]
    assert "boundary-vanishing" not in names
    assert "bounded-kernel-limit" in names
    assert all(r.passed for r in reports)


def test_battery_deterministic_and_serializable(hardy):
    a = [r.to_dict() for r in battery(hardy, seed=5)]
    b = [r.to_dict() for r in battery(hardy, seed=5)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    json.dumps(a)  # plain types only


def test_zeta_matches_scipy():
    from scipy.special import zeta

    betas = np.concatenate([1.0 + np.logspace(-8, 0, 40), np.linspace(1.0001, 60.0, 400)])
    for beta in betas:
        assert _zeta(float(beta)) == pytest.approx(float(zeta(beta)), rel=1e-14, abs=0.0)


# The ten spaces of scripts/certify_spaces.py.
CERTIFY_SPACES = [
    ("hardy", 0.0),
    *(("bergman", alpha) for alpha in (0.0, 1.0, 2.5)),
    *(("weighted_hardy", beta) for beta in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)),
]


def test_battery_flags_match_scipy_special_functions(monkeypatch):
    """Every check passes or fails as it does with scipy's log-gamma Bergman
    weights and scipy's zeta."""
    from scipy.special import gammaln, zeta

    def flags():
        specs = [SpaceSpec(family, param) for family, param in CERTIFY_SPACES]
        return [(s.label(), r.check, r.passed) for s in specs for r in battery(s)]

    ours = flags()
    inhouse_weights = spaces._weight_values

    def gammaln_weights(family, param, count):
        if family != "bergman":
            return inhouse_weights(family, param, count)
        ks = np.arange(count, dtype=np.float64)
        return np.exp(gammaln(ks + 1.0) + gammaln(2.0 + param) - gammaln(ks + 2.0 + param))

    monkeypatch.setattr(spaces, "_weight_values", gammaln_weights)
    monkeypatch.setattr(verify, "_zeta", lambda s: float(zeta(s)))
    assert flags() == ours
    failing = {(label, check) for label, check, passed in ours if not passed}
    assert {check for _, check in failing} == {"boundary-vanishing"}
    assert len(failing) == 3


def _assert_reports_match(ours, ref, rel):
    """Equal flags, strings and shapes; every float within ``rel``."""
    if isinstance(ours, dict):
        assert ours.keys() == ref.keys()
        for key in ours:
            _assert_reports_match(ours[key], ref[key], rel)
    elif isinstance(ours, list):
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            _assert_reports_match(a, b, rel)
    elif isinstance(ours, float):
        assert ours == pytest.approx(ref, rel=rel, abs=0.0)
    else:
        assert ours == ref


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_battery_matches_power_and_horner_references(monkeypatch, seed):
    """The battery reads the same flags, and numbers within 1e-12, when its
    tables of powers are per-entry ``**`` and its series values Horner's
    polyval."""

    def reports():
        specs = [SpaceSpec(family, param) for family, param in CERTIFY_SPACES]
        return [r.to_dict() for s in specs for r in battery(s, seed)]

    ours = reports()

    def power_table(z, length):
        return z[:, None] ** np.arange(length)

    def series_at(coeffs, z):
        vals = np.polynomial.polynomial.polyval(np.asarray(z, dtype=np.complex128), coeffs)
        return complex(vals) if np.ndim(vals) == 0 else vals

    monkeypatch.setattr(spaces, "_power_table", power_table)
    monkeypatch.setattr(verify, "_power_table", power_table)
    monkeypatch.setattr(spaces, "_series_at", series_at)
    _assert_reports_match(ours, reports(), rel=1e-12)


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda spec: check_norm_blowup(spec, radii=(0.5, 1.5)), id="norm-blowup-1.5"),
        pytest.param(lambda spec: check_norm_blowup(spec, radii=(0.5, 1.0)), id="norm-blowup-1"),
        pytest.param(lambda spec: check_norm_blowup(spec, radii=(-0.5, 0.5)), id="norm-blowup-negative"),
        pytest.param(lambda spec: check_norm_blowup(spec, radii=(0.5, math.nan)), id="norm-blowup-nan"),
        pytest.param(lambda spec: estimate_pointwise_bound(spec, max_radius=1.5), id="pointwise-1.5"),
        pytest.param(lambda spec: estimate_pointwise_bound(spec, max_radius=1.0), id="pointwise-1"),
        pytest.param(
            lambda spec: check_boundary_vanishing(spec, as_element(spec, [1.0]), radii=(0.5, 1.0)),
            id="boundary-vanishing-1",
        ),
        pytest.param(lambda spec: bvc_profile(spec, as_element(spec, [1.0]), (0.5, 1.2)), id="profile-1.2"),
    ],
)
def test_checks_reject_radii_outside_the_disc(check):
    with pytest.raises(DomainError):
        check(SpaceSpec.bergman(1.0))


@pytest.mark.parametrize("radius", [1.0, 1.5, math.nan])
def test_bounded_kernel_limit_rejects_radii_outside_the_disc(radius):
    with pytest.raises(DomainError):
        check_bounded_kernel_limit(SpaceSpec.weighted_hardy(2.0), radius=radius)
