"""The Gram/Cholesky objective and the greedy span objective against the
modified Gram-Schmidt reference, and the search domain: the points those
evaluations accept."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbestkernel import (
    DegenerateTupleWarning,
    OptimizerConfig,
    ParamTuple,
    SpaceSpec,
    as_element,
    energy,
    generate_ensemble,
    kernel,
    stochastic_energy,
)
from nbestkernel import engine
from nbestkernel.engine import (
    _PIVOT_FLOOR,
    _as_x,
    _Bundle,
    _greedy_points,
    _Objective,
    _reflected_points,
)
from nbestkernel.orthosystem import _gram_schmidt_impl
from nbestkernel.spaces import _falling_factorial, _kernel_powers, _kernel_rows

SPACES = {
    "hardy": SpaceSpec.hardy(),
    "bergman": SpaceSpec.bergman(1.0),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5),
}


def _signal(spec, seed):
    rng = np.random.default_rng(seed)
    poly = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    return as_element(spec, poly) + kernel(spec, 0.5 - 0.3j) + kernel(spec, -0.7j)


def _mgs_value(bundle, params):
    """The MGS energy exactly as the reference path computes it."""
    system, _ = _gram_schmidt_impl(bundle.spec, params, eps_degenerate=1e-10, allow_partial=True)
    c = (bundle.matrix * bundle.spec.weights) @ system.basis.conj().T
    return float(bundle.probs @ np.sum(np.abs(c) ** 2, axis=1))


def _capture(bundle, params, owners=None):
    """The capture of the one tuple ``params`` as a batch of one; by default
    each position moves as a node of its own."""
    if owners is None:
        owners = np.arange(len(params.centers))
    return bundle.captured(np.array([params.centers]), params.orders, owners)


def _gram_value(bundle, params):
    """The tuple's Gram value; NaN where the Gram path fails."""
    return float(_capture(bundle, params).value[0])


def _negated_energy(objective):
    """The objective's function through each point's own tuple."""
    return lambda x: -_gram_value(objective.bundle, objective.params(x))


def _no_mgs(*args, **kwargs):
    raise AssertionError("MGS ran")


def _outside(value, grad) -> bool:
    """Whether an objective value and gradient are those of a point outside
    the search domain: +inf and zero."""
    return bool(np.all(value == np.inf) and not np.any(grad))


def _min_pivot_ratio(bundle, params):
    spec = bundle.spec
    rows = _kernel_rows(_kernel_powers(params.centers, spec.max_degree + 1), params.orders, spec.max_degree)
    gram = (rows.conj() * bundle.inv_weights) @ rows.T
    chol = np.linalg.cholesky(gram)
    return float(np.min(chol.diagonal().real / np.sqrt(gram.diagonal().real)))


def _central_differences(fun, x, h=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return out


def _five_point_differences(fun, x, h):
    """Central differences with error O(h**4), for gradients of nodes close
    to a prefix node, where the energy is flat and two-point differences
    drown in rounding before their truncation error is small."""
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        near = fun(x + step) - fun(x - step)
        far = fun(x + 2 * step) - fun(x - 2 * step)
        out[i] = (8.0 * near - far) / (12.0 * h)
    return out


# -- agreement ------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(SPACES)),
    order=st.integers(1, 3),
    radii=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3),
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
    seed=st.integers(0, 1000),
)
def test_gram_matches_mgs_on_separated_nodes(family, order, radii, angles, seed):
    spec = SPACES[family]
    pts = [r * np.exp(1j * t) for r, t in zip(radii, angles)]
    # keep distinct nodes at least 0.25 apart, so the Gram path is well conditioned
    distinct = []
    for p in pts:
        if all(abs(p - q) >= 0.25 for q in distinct):
            distinct.append(complex(p))
    params = ParamTuple(tuple([distinct[0]] * order + distinct[1:]))
    bundle = _Bundle.single(spec, _signal(spec, seed))
    fast = _capture(bundle, params)
    assert not fast.failed[0]
    ref = _mgs_value(bundle, params)
    assert abs(fast.value[0] - ref) <= 1e-10 * ref


def test_gram_matches_mgs_on_ensembles():
    spec = SPACES["bergman"]
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.5}, 16, seed=3)
    bundle = _Bundle(spec, ens.matrix, ens.probs)
    params = ParamTuple((0.1 + 0.2j, 0.1 + 0.2j, -0.6, 0.4j))
    fast = _capture(bundle, params)
    assert not fast.failed[0]
    assert fast.value[0] == pytest.approx(_mgs_value(bundle, params), rel=1e-10)


# -- search domain ------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(SPACES))
def test_pivot_floor_switches_to_mgs(family, monkeypatch):
    """Over separations from 1e-1 to 1e-9 a pair is evaluated on the Gram
    path within 1e-7 of MGS, merges into one order-2 node, or falls below
    the pivot floor; such a tuple lies outside the search domain, with no
    MGS evaluation."""
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
    spec = SPACES[family]
    bundle = _Bundle.single(spec, _signal(spec, 1))
    a = 0.3 + 0.1j
    merge_tol = 1e-7
    objective = _Objective(bundle, OptimizerConfig(merge_tol=merge_tol), 2)
    seen = set()
    for sep in (1e-1, 1e-2, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6, 3e-7, 1e-8, 1e-9):
        params = ParamTuple((a, a + sep), merge_tol)
        cap = _capture(bundle, params)
        ref = _mgs_value(bundle, params)
        if sep <= merge_tol:
            # merged into one node of order 2: well conditioned again
            assert params.orders == (1, 2)
            assert not cap.failed[0]
            assert cap.value[0] == pytest.approx(ref, rel=1e-10)
        elif _min_pivot_ratio(bundle, params) < _PIVOT_FLOOR:
            # the tuple fails, and lies outside the search domain
            assert cap.failed[0]
            assert _outside(*objective.value_and_grad(_as_x(params.points)))
        else:
            assert not cap.failed[0]
            assert cap.value[0] == pytest.approx(ref, rel=1e-7)
        seen.add("merged" if sep <= merge_tol else "failed" if cap.failed[0] else "gram")
    assert seen == {"gram", "failed", "merged"}


def test_requested_mgs_equals_reference():
    spec = SPACES["hardy"]
    bundle = _Bundle.single(spec, _signal(spec, 2))
    params = ParamTuple((0.2, -0.4j, 0.7 + 0.1j))
    read = bundle.read(params)
    value, degraded = read.energy, read.degraded
    assert not degraded
    assert value == _mgs_value(bundle, params)


def test_merged_moving_nodes_fall_back_to_mgs_differences(monkeypatch):
    """Moving nodes that merge lie outside the search domain: the search
    never moves nodes that its tuple would not keep apart."""
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
    spec = SPACES["hardy"]
    bundle = _Bundle.single(spec, _signal(spec, 4))
    cfg = OptimizerConfig()
    x = _as_x([0.3 + 0.2j, 0.3 + 0.2j + 1e-9])
    objective = _Objective(bundle, cfg, 2)
    assert objective.params(x).orders == (1, 2)
    assert _outside(*objective.value_and_grad(x))


# -- gradient -----------------------------------------------------------------------


GRADIENT_CASES = {
    "plain": ((), [0.3 - 0.2j, -0.5j, 0.6 + 0.3j], None),
    "prefix": ((0.5, -0.2 + 0.4j), [-0.3 + 0.2j], None),
    "orders": ((), [0.3 - 0.4j, -0.5 + 0.1j], (2, 1)),
    "clamped": ((), [0.97 + 0.1j, 0.2 - 0.9j, -0.3j], None),
}


@pytest.mark.parametrize("family", sorted(SPACES))
@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_analytic_gradient_matches_central_differences(family, case):
    spec = SPACES[family]
    bundle = _Bundle.single(spec, _signal(spec, 5))
    prefix, pts, orders = GRADIENT_CASES[case]
    x = _as_x(pts)
    cfg = OptimizerConfig()
    objective = _Objective(bundle, cfg, len(pts), bundle.make_tuple(prefix, cfg) if prefix else (), orders)
    value, grad = objective.value_and_grad(x)
    assert value == pytest.approx(_negated_energy(objective)(x), rel=1e-14)
    fd = _central_differences(_negated_energy(objective), x)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_overshooting_node_is_mirrored():
    spec = SPACES["bergman"]
    bundle = _Bundle.single(spec, _signal(spec, 6))
    objective = _Objective(bundle, OptimizerConfig(), 1)
    u = np.exp(0.05j)
    outside, inside = (_as_x([(objective.radius + s * 0.03) * u]) for s in (1, -1))
    value_out, grad_out = objective.value_and_grad(outside)
    value_in, grad_in = objective.value_and_grad(inside)
    assert value_out == pytest.approx(value_in, rel=1e-14)
    # the radial slope outside is the mirrored slope inside, so a search that
    # overshoots the circle is led back instead of stalling on a flat shelf
    radial = _as_x([u])
    assert abs(grad_in @ radial) > 1e-3 * np.linalg.norm(grad_in)
    assert grad_out @ radial == pytest.approx(-(grad_in @ radial), rel=1e-9)


def test_ensemble_gradient_matches_central_differences():
    spec = SPACES["hardy"]
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.5}, 8, seed=1)
    bundle = _Bundle(spec, ens.matrix, ens.probs)
    x = _as_x([0.2 + 0.3j, -0.6j])
    objective = _Objective(bundle, OptimizerConfig(), 2)
    _, grad = objective.value_and_grad(x)
    fd = _central_differences(_negated_energy(objective), x)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


# -- degeneracy ---------------------------------------------------------------------


def test_degenerate_tuple_still_warns():
    spec = SPACES["hardy"]
    f = _signal(spec, 7)
    bad = ParamTuple((0.3, 0.3 + 1e-12), merge_tol=1e-14)
    with pytest.warns(DegenerateTupleWarning):
        val = energy(spec, f, bad)
    assert val == energy(spec, f, ParamTuple((0.3,)))
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.5}, 4, seed=2)
    with pytest.warns(DegenerateTupleWarning):
        stochastic_energy(ens, bad)


def test_ill_conditioned_tuple_is_exact_without_warning():
    spec = SPACES["hardy"]
    f = _signal(spec, 8)
    close = ParamTuple((0.3, 0.3 + 1e-6), merge_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateTupleWarning)
        val = energy(spec, f, close)
    assert val == _mgs_value(_Bundle.single(spec, f), close)


# -- batches ------------------------------------------------------------------------


def _lane_objective(bundle, count, prefix=()):
    """An objective whose merge tolerance lets a test build merged lanes."""
    cfg = OptimizerConfig(merge_tol=1e-7)
    return _Objective(bundle, cfg, count, bundle.make_tuple(prefix, cfg) if prefix else ())


def _ensemble_bundle(spec, m):
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.5}, m, seed=5)
    return _Bundle(spec, ens.matrix, ens.probs)


BATCH_LANES = {
    "plain": [0.3 - 0.2j, -0.5j],
    "other": [-0.1 + 0.6j, 0.45 + 0.05j],
    "mirrored": [(0.95 + 0.02) * np.exp(0.3j), 0.2 + 0.1j],
    "merged": [0.3 + 0.2j, 0.3 + 0.2j + 1e-9],
    "pivot_floor": [0.4 - 0.1j, 0.4 - 0.1j + 2e-5],
}


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_batched_gram_matches_single_tuples(family, m, monkeypatch):
    """B tuples in one ``captured`` batch: each row's value and gradient is the
    single tuple's, bit for bit at M = 1 and within 1e-13 relative at M = 16,
    and a tuple below the pivot floor fails alone, and lies outside the
    search domain."""
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
    spec = SPACES[family]
    bundle = _Bundle.single(spec, _signal(spec, 9)) if m == 1 else _ensemble_bundle(spec, m)
    prefix = (0.1 - 0.4j,)
    tuples = [ParamTuple(prefix + tuple(BATCH_LANES[k])) for k in ("plain", "other", "pivot_floor")]
    assert _min_pivot_ratio(bundle, tuples[2]) < _PIVOT_FLOOR
    owners = np.arange(3)
    cap = bundle.captured(np.array([p.centers for p in tuples]), tuples[0].orders, owners)
    assert cap.failed.tolist() == [False, False, True]
    for row, params in enumerate(tuples):
        want = _capture(bundle, params, owners)
        assert cap.failed[row] == want.failed[0]
        if not want.failed[0]:
            if m == 1:
                assert cap.value[row] == want.value[0]
                assert np.array_equal(cap.grad[row], want.grad[0])
            assert cap.value[row] == pytest.approx(want.value[0], rel=1e-13)
            scale = np.max(np.abs(want.grad[0]))
            assert np.max(np.abs(cap.grad[row] - want.grad[0])) <= 1e-13 * scale
        else:
            assert np.isnan(cap.value[row]) and np.isnan(want.value[0])
            objective = _Objective(bundle, OptimizerConfig(), len(params))
            assert _outside(*objective.value_and_grad(_as_x(params.points)))


@pytest.mark.parametrize("m", [1, 16])
def test_objective_lanes_match_single_points_and_do_not_depend_on_the_batch(m, monkeypatch):
    """The objective at a stack of lane points: each row equals the point
    evaluated alone, whatever the batch size, order and company, including a
    mirrored node, and merged nodes and a tuple below the pivot floor, which
    lie outside the search domain."""
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
    spec = SPACES["hardy"]
    bundle = _Bundle.single(spec, _signal(spec, 10)) if m == 1 else _ensemble_bundle(spec, m)
    names = sorted(BATCH_LANES)
    xs = np.array([_as_x(BATCH_LANES[k]) for k in names])
    single = _lane_objective(bundle, 2)
    alone = [single.value_and_grad(x) for x in xs]
    for name, x, (value, grad) in zip(names, xs, alone):
        if name in ("merged", "pivot_floor"):
            assert _outside(value, grad)
        else:
            assert -value == pytest.approx(_gram_value(bundle, single.params(x)), rel=1e-13)
            assert np.all(np.isfinite(grad))
    for order in (range(len(names)), [4, 2, 0], [1, 3], [3]):
        order = list(order)
        values, grads = _lane_objective(bundle, 2).value_and_grad(xs[order])
        for row, lane in enumerate(order):
            assert values[row] == alone[lane][0]
            assert np.array_equal(grads[row], alone[lane][1])


def _no_gram(*args, **kwargs):
    raise AssertionError("a Gram matrix was formed")


def test_objective_batch_with_a_fixed_prefix_matches_single_points(monkeypatch):
    """With a fixed prefix the objective runs on the prefix's span and forms
    no Gram matrix; each row of a batch equals the point evaluated alone,
    whatever the batch's order and company, and a node that merges with a
    fixed node lies outside the search domain.  Only the prefix's span runs
    MGS, once, and the bundle keeps it."""
    monkeypatch.setattr(_Bundle, "_gram_captured", _no_gram)
    spec = SPACES["bergman"]
    bundle = _Bundle.single(spec, _signal(spec, 11))
    prefix = (0.5, -0.2 + 0.4j, -0.2 + 0.4j + 1e-9)
    _lane_objective(bundle, 1, prefix)  # the prefix's span runs MGS once
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
    xs = np.array([_as_x([p]) for p in (-0.3 + 0.2j, 0.5 + 1e-9, 0.97 * np.exp(2j))])
    alone = [_lane_objective(bundle, 1, prefix).value_and_grad(x) for x in xs]
    # the second lane's node merges with a fixed node
    assert [_outside(*lane) for lane in alone] == [False, True, False]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2], [2]):
        objective = _lane_objective(bundle, 1, prefix)
        assert objective.span is not None
        values, grads = objective.value_and_grad(xs[order])
        for row, lane in enumerate(order):
            assert values[row] == alone[lane][0]
            assert np.array_equal(grads[row], alone[lane][1])


# -- greedy span ----------------------------------------------------------------------


SPAN_PREFIXES = {
    "0": (),
    "1": (0.5,),
    "2": (0.5, -0.2 + 0.4j),
    "3": (0.1 - 0.4j, 0.6 + 0.2j, -0.7j),
    "order2": (0.5, -0.2 + 0.4j, -0.2 + 0.4j + 1e-9),  # its last node merges: order 2
}
SPAN_NODES = (0.3 - 0.2j, -0.6 + 0.1j, 0.95j)


def _span_bundle(spec, m):
    """A single signal, or the rank-3 factor of an M = 16 kernel-mix ensemble."""
    if m == 1:
        return _Bundle.single(spec, _signal(spec, 12))
    atoms = [(0.3, 1.0, 1), (-0.4 + 0.2j, 1.0, 2), (0.6j, 0.5, 1)]
    ens = generate_ensemble(spec, "kernel_mix", {"atoms": atoms}, m, seed=7)
    factor = _Bundle(spec, ens.matrix, ens.probs).compressed()
    assert len(factor.probs) < m
    return factor


def _on_span(bundle, prefix, a, cfg):
    """The prefix's read and the capture of one node appended to it."""
    span = bundle.read(bundle.make_tuple(prefix, cfg))
    return span, bundle.captured(np.array([[a]]), (1,), np.array([0]), span=span)


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("prefix", sorted(SPAN_PREFIXES))
@pytest.mark.parametrize("family", sorted(SPACES))
def test_span_energy_matches_mgs(family, prefix, m):
    """A greedy step's energy on its prefix's span is the MGS energy of the
    extended tuple within 1e-12 relative, also for a node just outside the
    merge tolerance of a prefix node."""
    spec = SPACES[family]
    bundle = _span_bundle(spec, m)
    cfg = OptimizerConfig()
    prefix = SPAN_PREFIXES[prefix]
    nodes = SPAN_NODES + tuple(p + 1.5 * cfg.merge_tol for p in prefix[:1])
    for a in nodes:
        span, cap = _on_span(bundle, prefix, a, cfg)
        assert not cap.failed[0]
        read = bundle.read(bundle.make_tuple(prefix, cfg).extended(a))
        ref, degraded = read.energy, read.degraded
        assert not degraded
        assert abs(cap.value[0] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_span_gradient_matches_central_differences(family, m):
    """The span gradient against five-point central differences of MGS
    values, for nodes split from a prefix node (an order-2 one included) by
    1e-1 to 1e-3 and for a free node."""
    spec = SPACES[family]
    bundle = _span_bundle(spec, m)
    prefix = SPAN_PREFIXES["order2"]
    splits = [s * e for s in (1e-1, 1e-2, 1e-3) for e in (1, 1j)]
    nodes = [0.3 - 0.2j] + [c + split for c in prefix[:2] for split in splits]
    for a in nodes:
        objective = _Objective(bundle, OptimizerConfig(), 1, bundle.make_tuple(prefix, OptimizerConfig()))
        x = _as_x([a])
        value, grad = objective.value_and_grad(x)

        def mgs(x):
            return -bundle.read(objective.params(x)).energy

        # A node 1e-3 from an order-2 node makes both values good to about
        # 5e-12 only (against a 40-digit reference), hence 1e-10 here.
        assert value == pytest.approx(mgs(x), rel=1e-10)
        fd = _five_point_differences(mgs, x, h=1e-4)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


NEAR_CAPTURE_PREFIX = SPAN_PREFIXES["2"]
EPS = np.finfo(np.float64).eps


def _near_capture_bundle(spec, m, level):
    """A bundle whose signals leave ``level`` of their norm outside the span
    of ``NEAR_CAPTURE_PREFIX``: kernel mixes on its nodes plus a multiple of
    one polynomial, a single signal or the rank-3 factor of M = 16 of them."""
    rng = np.random.default_rng(m)
    kernels = [kernel(spec, a).coeffs for a in NEAR_CAPTURE_PREFIX]
    weights = np.array([[1.0, 0.7, 1.0]])
    if m > 1:
        weights = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    poly = as_element(spec, rng.standard_normal(9) + 1j * rng.standard_normal(9)).coeffs
    mix = weights[:, :2] @ np.array(kernels)
    rest = weights[:, 2:] * poly
    probs = np.full(m, 1.0 / m)
    cfg = OptimizerConfig()
    left = _Bundle(spec, rest, probs).finalize(ParamTuple(NEAR_CAPTURE_PREFIX, cfg.merge_tol, spec.radius_cap))[3]
    scale = level * np.sqrt(_Bundle(spec, mix, probs).total_sq) / left
    bundle = _Bundle(spec, mix + scale * rest, probs)
    residual = bundle.finalize(bundle.make_tuple(NEAR_CAPTURE_PREFIX, cfg))[3]
    assert 0.5 * level <= residual / np.sqrt(bundle.total_sq) <= 2.0 * level
    if m == 1:
        return bundle
    factor = bundle.compressed()
    assert len(factor.probs) == 3
    return factor


def _increment(bundle, prefix, a):
    """The energy that node ``a`` adds to ``prefix``, from the explicit
    two-pass residual ``R`` of the signals and kernel part ``u`` outside the
    prefix's basis: ``sum_m p_m |<R_m, u>|^2 / ||u||^2``."""
    w = bundle.spec.weights
    basis = bundle.read(bundle.make_tuple(prefix, OptimizerConfig())).basis

    def outside(rows):
        for _ in range(2):
            rows = rows - ((rows * w) @ basis.conj().T) @ basis
        return rows

    u = outside(kernel(bundle.spec, a).coeffs[None])[0]
    pairs = outside(bundle.matrix) @ (w * u).conj()
    return float(bundle.probs @ np.abs(pairs) ** 2) / float(np.sum(w * np.abs(u) ** 2))


@pytest.mark.parametrize("level", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_span_near_capture_matches_mgs_and_central_differences(family, m, level):
    """Where the prefix leaves only ``level`` of the norm, ``||R|| <<
    ||f||``, a greedy step's energy is the MGS energy of the extended tuple
    within 1e-12 of the total energy, and its gradient matches five-point
    central differences of the explicit increment ``_increment``, for free
    nodes and nodes 1e-2 from a prefix node.  Pairings with the residual
    formed as ``<f_m, v> - sum_j C_mj <Q_j, v>`` carry rounding of eps
    ``||f||``, so the gradient loses about ``||f|| / ||R|| = 1 / level`` in
    relative accuracy: it is held to ``1e-6 + 1e4 eps / level`` (up to 1.3e3
    eps / level in these cases).  The energy's own rounding, eps times the
    prefix energy, stays far above that loss at every level."""
    spec = SPACES[family]
    bundle = _near_capture_bundle(spec, m, level)
    cfg = OptimizerConfig()
    prefix = NEAR_CAPTURE_PREFIX
    nodes = SPAN_NODES[:2] + (prefix[0] + 1e-2, prefix[1] + 1e-2j)
    for a in nodes:
        _, cap = _on_span(bundle, prefix, a, cfg)
        assert not cap.failed[0]
        ref = bundle.read(bundle.make_tuple(prefix, cfg).extended(a)).energy
        assert abs(cap.value[0] - ref) <= 1e-12 * bundle.total_sq
        objective = _Objective(bundle, cfg, 1, bundle.make_tuple(prefix, cfg))
        x = _as_x([a])
        _, grad = objective.value_and_grad(x)

        def increment(x):
            return -objective.gain * _increment(bundle, prefix, complex(x[0], x[1]))

        fd = _five_point_differences(increment, x, h=1e-4)
        assert np.max(np.abs(grad - fd)) <= (1e-6 + 1e4 * EPS / level) * np.max(np.abs(fd))


def _span_objective(bundle, cfg, prefix, a):
    """The search objective's value and gradient at one node appended to
    ``prefix``; only building the prefix's span may run MGS."""
    objective = _Objective(bundle, cfg, 1, bundle.make_tuple(prefix, cfg))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
        return objective.value_and_grad(_as_x([a]))


def test_span_node_inside_the_merge_tolerance_takes_mgs():
    """A node within the merge tolerance of a prefix node lies outside the
    search domain."""
    spec = SPACES["hardy"]
    bundle = _Bundle.single(spec, _signal(spec, 13))
    cfg = OptimizerConfig()
    prefix = SPAN_PREFIXES["2"]
    a = prefix[1] + 0.5 * cfg.merge_tol
    assert bundle.make_tuple(prefix + (a,), cfg).orders == (1, 1, 2)
    assert _outside(*_span_objective(bundle, cfg, prefix, a))


@pytest.mark.parametrize("family", sorted(SPACES))
def test_span_reports_degradation_exactly_when_mgs_does(family):
    """A node whose kernel lies nearly in the prefix's span fails by MGS's
    own test, ``||u|| <= 1e-10 ||K||``, exactly when MGS degrades, and then
    lies outside the search domain."""
    spec = SPACES[family]
    bundle = _Bundle.single(spec, _signal(spec, 14))
    cfg = OptimizerConfig(merge_tol=1e-15)
    prefix = SPAN_PREFIXES["2"]
    seen = set()
    for sep in (1e-6, 1e-8, 1e-9, 3e-10, 1e-10, 3e-11, 1e-11, 1e-12):
        span, cap = _on_span(bundle, prefix, prefix[1] + sep, cfg)
        read = bundle.read(bundle.make_tuple(prefix, cfg).extended(prefix[1] + sep))
        ref, degraded = read.energy, read.degraded
        assert bool(cap.failed[0]) == degraded
        if degraded:
            assert _outside(*_span_objective(bundle, cfg, prefix, prefix[1] + sep))
        else:
            assert abs(cap.value[0] - ref) <= 1e-9 * ref
        seen.add(degraded)
    assert seen == {True, False}
    # A degenerate prefix node ends the span's basis; every node then fails.
    degenerate = (prefix[1], prefix[1] + 1e-12)
    span, cap = _on_span(bundle, degenerate, SPAN_NODES[0], cfg)
    assert span.degraded and len(span.basis) == 1
    assert bundle.read(bundle.make_tuple(degenerate, cfg).extended(SPAN_NODES[0])).degraded
    assert cap.failed[0]
    assert _outside(*_span_objective(bundle, cfg, degenerate, SPAN_NODES[0]))


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_finalize_keeps_pythagoras_on_a_degraded_tuple(family, m):
    """A pair split by 1e-12, below MGS's resolution but above the merge
    tolerance, degrades the tuple: ``finalize`` trims the params to the basis
    of its span, and the energy and residual it reports still add up to the
    norm, on the tuple that MGS keeps."""
    spec = SPACES[family]
    bundle = _Bundle.single(spec, _signal(spec, 18)) if m == 1 else _ensemble_bundle(spec, m)
    cfg = OptimizerConfig(merge_tol=1e-15)
    a = -0.2 + 0.4j
    params, coeffs, cap, residual, degraded = bundle.finalize(bundle.make_tuple((0.5, a, a + 1e-12), cfg))
    assert degraded
    assert params.points == (0.5, a)
    span = bundle.read(params)
    assert len(params) == len(span.basis) and coeffs.shape == (m, len(params))
    assert abs(cap + residual**2 - bundle.total_sq) <= 1e-12 * bundle.total_sq
    ref = bundle.read(params).energy
    assert abs(span.energy - ref) <= 1e-14 * ref
    assert cap == span.energy


def _arrays(value):
    """The arrays in ``value``, a dict, tuple or list of them included."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


def test_greedy_keeps_no_array_as_large_as_the_signals_on_the_bundle(monkeypatch):
    """Greedy forms no Gram matrix, and after it no value kept on the bundle
    holds an array as large as the signals' matrix: a step reads its prefix's
    ``_Read`` and keeps no residual.  M = 128 realizations exceed the grid's
    points, so the grid's arrays are smaller too."""
    monkeypatch.setattr(_Bundle, "_gram_captured", _no_gram)
    spec = SPACES["weighted_hardy"]
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.5}, 128, seed=15)
    bundle = _Bundle(spec, ens.matrix, ens.probs)
    names = set(vars(bundle))
    steps: list = []
    assert len(_greedy_points(bundle, 3, OptimizerConfig(grid_density=12, max_iter=40), steps)) == 3
    assert len(steps) == 3
    assert set(vars(bundle)) == names
    kept = [a for name, value in vars(bundle).items() if name != "matrix" for a in _arrays(value)]
    assert any(a.shape == (128, 3) for a in kept)  # the 3-node tuple's coefficients
    assert max(a.size for a in kept) < bundle.matrix.size


# -- no MGS in the search ----------------------------------------------------------------


def test_captured_marks_failed_rows_without_mgs(monkeypatch):
    """``captured`` never calls MGS: a batch row below the pivot floor and a
    span row whose kernel lies in the span come back failed, with NaN
    values, next to rows that hold."""
    spec = SPACES["hardy"]
    bundle = _Bundle.single(spec, _signal(spec, 16))
    cfg = OptimizerConfig(merge_tol=1e-15)
    prefix = SPAN_PREFIXES["2"]
    tuples = [ParamTuple(prefix + tuple(BATCH_LANES[k])) for k in ("plain", "pivot_floor")]
    assert _min_pivot_ratio(bundle, tuples[1]) < _PIVOT_FLOOR
    near = prefix[1] + 1e-12
    assert bundle.read(bundle.make_tuple(prefix + (near,), cfg)).degraded
    span = bundle.read(bundle.make_tuple(prefix, cfg))
    degenerate = bundle.read(bundle.make_tuple((prefix[1], near), cfg))
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)

    cap = bundle.captured(np.array([p.centers for p in tuples]), tuples[0].orders, np.arange(4))
    assert cap.failed.tolist() == [False, True]
    assert np.isfinite(cap.value[0]) and np.isnan(cap.value[1])
    on_span = np.array([[SPAN_NODES[0]], [near]])
    cap = bundle.captured(on_span, (1,), np.array([0]), span=span)
    assert cap.failed.tolist() == [False, True]
    assert np.isfinite(cap.value[0]) and np.isnan(cap.value[1])
    cap = bundle.captured(on_span, (1,), np.array([0]), span=degenerate)
    assert cap.failed.tolist() == [True, True]


@pytest.mark.parametrize("m", [1, 16])
def test_objective_falls_back_to_the_mgs_reference_in_one_place(m, monkeypatch):
    """No search point runs MGS: merged, below-floor and span-degenerate
    lanes lie outside the search domain, and plain and mirrored lanes keep
    the batch's values, next to them in one stack."""
    spec = SPACES["hardy"]
    bundle = _Bundle.single(spec, _signal(spec, 17)) if m == 1 else _ensemble_bundle(spec, m)
    cfg = OptimizerConfig(merge_tol=1e-15)
    prefix = SPAN_PREFIXES["2"]
    on_span = _Objective(bundle, cfg, 1, bundle.make_tuple(prefix, cfg))  # the prefix's span runs MGS once
    monkeypatch.setattr(engine, "_gram_schmidt_impl", _no_mgs)
    names = ["plain", "mirrored", "merged", "pivot_floor"]
    xs = np.array([_as_x(BATCH_LANES[k]) for k in names])
    objective = _lane_objective(bundle, 2)
    values, grads = objective.value_and_grad(xs)
    batch = bundle.captured(_reflected_points(xs, objective.radius)[0], (1, 1), objective.owners)
    for lane, name in enumerate(names):
        if name in ("merged", "pivot_floor"):
            assert _outside(values[lane], grads[lane])
        else:
            assert not batch.failed[lane] and values[lane] == -batch.value[lane]
            assert np.all(np.isfinite(grads[lane])) and np.any(grads[lane])
    # a node on the span of its prefix, next to one off it
    xs = np.array([_as_x([SPAN_NODES[0]]), _as_x([prefix[1] + 1e-12])])
    values, grads = on_span.value_and_grad(xs)
    cap = bundle.captured(np.array([[SPAN_NODES[0]]]), (1,), np.array([0]), span=on_span.span)
    assert values[0] == -cap.value[0]
    assert _outside(values[1], grads[1])


# -- kernel row lengths ---------------------------------------------------------


def _full_length(self, centers, orders):
    return np.full(len(centers), self.spec.max_degree + 1)


# Decay exponents just above each family's divergence bound
# (``generate_ensemble``): coefficients decay so slowly that a pairing's tail
# beyond a short row reaches its last bits.
HEAVY_TAILS = {"hardy": 0.6, "bergman": 0.0, "weighted_hardy": 0.85}


def _random_batch(rng, bundle, merged):
    """2-9 tuples of three nodes, or with ``merged`` of two nodes of which
    the first has order 2, at radii in [0.05, 0.95]: half of them uniform,
    half just inside a radius at which a row length stops sufficing, where a
    row's dropped tail is largest."""
    count = int(rng.integers(2, 10))
    n = 2 if merged else 3
    orders, owners = ((1, 2, 1), np.array([0, 0, 1])) if merged else ((1, 1, 1), np.arange(3))
    weights = bundle.spec.weights.tobytes()
    reached = sorted({o + step for o in orders for step in (0, 1)})  # each order and the next
    limits = np.concatenate([engine._order_reach(weights, o) for o in reached])
    limits = limits[(limits >= 0.05) & (limits <= 0.95)]
    radii = rng.uniform(0.05, 0.95, (count, n))
    edge = rng.uniform(size=(count, n)) < 0.5
    radii[edge] = rng.choice(limits, edge.sum()) * (1.0 - 1e-9 * rng.uniform(size=edge.sum()))
    centers = radii * np.exp(2j * np.pi * rng.uniform(size=(count, n)))
    return (np.repeat(centers, [2, 1], axis=1) if merged else centers), orders, owners


@pytest.mark.parametrize("m", [1, 16, 256])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_batches_of_mixed_row_lengths_match_single_tuples(family, m):
    """Random batches whose tuples need kernel rows of different lengths, on
    signals with slowly decaying coefficients: each row's value, gradient
    and ``failed`` flag are the tuple's own, evaluated alone, bit for bit,
    with and without a merged order-2 node.  (Evaluating a batch at its
    longest length instead moves the last bits of some gradients.)"""
    spec = SPACES[family]
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": HEAVY_TAILS[family]}, m, seed=7)
    bundle = _Bundle(spec, ens.matrix, ens.probs)
    rng = np.random.default_rng(m + len(family))
    mixed = 0
    for trial in range(24):
        centers, orders, owners = _random_batch(rng, bundle, merged=trial % 2 == 1)
        lengths = bundle._row_lengths(centers, orders)
        mixed += len(set(lengths.tolist())) > 1
        cap = bundle.captured(centers, orders, owners)
        for row in range(len(centers)):
            alone = bundle.captured(centers[row : row + 1], orders, owners)
            assert cap.failed[row] == alone.failed[0]
            assert np.array_equal(cap.value[row : row + 1], alone.value, equal_nan=True)
            assert np.array_equal(cap.grad[row], alone.grad[0])
    assert mixed >= 12


def _reference_gram_captured(bundle, centers, orders, owners):
    """The Gram path in its explicit form, the reference for the bits of
    ``_Bundle._gram_captured``: every node's rows formed one at a time, both
    conjugate products formed as written, each length group's products
    written into preallocated arrays, and the gradient scattered into zeros
    by ``np.add.at``."""
    count, n = centers.shape
    length = bundle._row_lengths(centers, orders)
    top = int(length.max())
    degree = bundle.spec.max_degree
    powers = _kernel_powers(centers.ravel(), top).reshape(count, n, top)

    def rows_of(pw, ords):
        rows = np.zeros_like(pw)
        for i, o in enumerate(ords):
            rows[:, i, o - 1 :] = pw[:, i, : top - o + 1] * _falling_factorial(degree, o - 1)[: top - o + 1]
        return rows

    rows = rows_of(powers, orders)
    nxt = rows_of(powers, [o + 1 for o in orders])
    m = len(bundle.matrix)
    gram, pairs, cross, pairs_nxt = (
        np.empty((count, *shape), dtype=np.complex128) for shape in ((n, n), (m, n), (n, n), (m, n))
    )
    sizes = sorted(set(length.tolist()))
    for size in sizes:
        group = slice(None) if len(sizes) == 1 else length == size
        cut = rows[group, :, :size]
        cut_conj = cut.conj()
        nxt_conj_t = nxt[group, :, :size].conj().transpose(0, 2, 1)
        inv_w, signals = bundle.inv_weights[:size], bundle.matrix[:, :size]
        gram[group] = (cut_conj * inv_w) @ cut.transpose(0, 2, 1)
        pairs[group] = signals @ cut_conj.transpose(0, 2, 1)
        cross[group] = (cut * inv_w) @ nxt_conj_t
        pairs_nxt[group] = signals @ nxt_conj_t
    chol = engine._cholesky(gram)
    floor = _PIVOT_FLOOR * np.sqrt(gram.diagonal(axis1=1, axis2=2).real)
    ok = (chol.diagonal(axis1=1, axis2=2).real >= floor).all(axis=1)
    value = np.full(count, np.nan)
    grad = np.zeros((count, owners.max() + 1), dtype=np.complex128)
    if not ok.any():
        return value, grad, ~ok
    chol, pairs, cross, pairs_nxt = chol[ok], pairs[ok], cross[ok], pairs_nxt[ok]
    y = np.linalg.solve(chol, pairs.transpose(0, 2, 1))
    value[ok] = engine._rowdot(np.sum(np.abs(y) ** 2, axis=1), bundle.probs)
    x = np.linalg.solve(chol.conj().transpose(0, 2, 1), y)
    resid_pairs = pairs_nxt - x.transpose(0, 2, 1) @ cross
    per_row = np.sum(bundle.probs[:, None] * x.transpose(0, 2, 1).conj() * resid_pairs, axis=1)
    part = np.zeros((len(y), grad.shape[1]), dtype=np.complex128)
    np.add.at(part, (slice(None), owners), per_row)
    grad[ok] = part
    return value, grad, ~ok


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes: NaNs of one payload and the signs of zeros
    count."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Tuple structures of the Gram path: (orders, owners) with each node moving
# alone, and a merged order-2 node.
GRAM_STRUCTURES = {
    "distinct": ((1, 1, 1), np.arange(3)),
    "merged": ((1, 2, 1), np.array([0, 0, 1])),
}


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_gram_path_matches_its_explicit_form_bit_for_bit(family, m):
    """Values, gradients and failure masks of ``_gram_captured`` against
    the explicit form (``_reference_gram_captured``), byte for byte, on
    batches of mixed row lengths for distinct and merged owners, on
    batches whose tuples partly or all fail the pivot floor, and at a node
    on the origin of a constant signal, whose gradient is an exact zero
    that the scatter into zeros leaves +0."""
    spec = SPACES[family]
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": HEAVY_TAILS[family]}, m, seed=9)
    bundle = _Bundle(spec, ens.matrix, ens.probs)
    rng = np.random.default_rng(m + 3 * len(family))
    batches = []
    for name, (orders, owners) in GRAM_STRUCTURES.items():
        for _ in range(4):
            centers = _random_batch(rng, bundle, merged=name == "merged")[0]
            batches.append((centers, orders, owners))
        close = centers.copy()
        close[::2, -1] = close[::2, 0] + 1e-9  # a node next to another: below the pivot floor
        batches += [(close, orders, owners), (close[::2], orders, owners)]
    mixed = failed = 0
    for centers, orders, owners in batches:
        got = bundle._gram_captured(centers, orders, owners)
        want = _reference_gram_captured(bundle, centers, orders, owners)
        assert all(_same_bits(a, b) for a, b in zip(got, want))
        mixed += len(set(bundle._row_lengths(centers, orders).tolist())) > 1
        failed += int(want[2].sum())
    assert mixed >= 8 and failed >= 6
    constant = _Bundle.single(spec, as_element(spec, [1.0]))
    for orders, owners in GRAM_STRUCTURES.values():
        centers = np.array([[0.0, 0.5, -0.4j]])
        if len(set(owners.tolist())) < 3:
            centers = np.array([[0.0, 0.0, -0.4j]])
        got = constant._gram_captured(centers, orders, owners)
        want = _reference_gram_captured(constant, centers, orders, owners)
        assert all(_same_bits(a, b) for a, b in zip(got, want))
        assert want[1][0, 0] == 0.0 and not np.signbit(want[1][0, 0].real)


def _split_tuple(a, order, split, third):
    """A node of ``order`` at ``a = r exp(0.4i)``, a node ``split`` closer
    to the origin on its ray (none when ``split`` is None) and a third node;
    owners give each node its own moving index."""
    pts = [a] * order + ([] if split is None else [a - split * np.exp(0.4j)]) + [third]
    params = ParamTuple(tuple(pts), merge_tol=0.0)
    owners = np.repeat(np.arange(len(params.orders) - order + 1), [order] + [1] * (len(params.orders) - order))
    return params, owners


SPLITS = [None, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
DIFF_RADII = [0.0, 0.2, 0.45, 0.7, 0.85, 0.95, 0.99]


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("family", sorted(SPACES))
def test_cut_rows_match_full_rows_and_mgs(family, m, monkeypatch):
    """Kernel rows cut to each tuple's length against full-length rows and
    MGS, for orders 1-3, radii up to the cap and splits 1e-1 to 1e-7: the
    same ``failed`` flag; values within 1e-15 relative of the full rows' and
    no farther from MGS than theirs by more than that; gradients within
    1e-13 of their largest component without a split and 1e-11 with one,
    on signals with slowly decaying coefficients."""
    spec = SPACES[family]
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": HEAVY_TAILS[family]}, m, seed=8)
    bundle = _Bundle(spec, ens.matrix, ens.probs)
    held = 0
    cut_lengths = set()
    for order in (1, 2, 3):
        for r in DIFF_RADII:
            a = r * np.exp(0.4j)
            third = -0.5 * a + 0.3j if r else 0.3j
            for split in SPLITS:
                params, owners = _split_tuple(a, order, split, third)
                centers = np.array([params.centers])
                cut_lengths.update(bundle._row_lengths(centers, params.orders).tolist())
                cut = bundle.captured(centers, params.orders, owners)
                with monkeypatch.context() as patch:
                    patch.setattr(_Bundle, "_row_lengths", _full_length)
                    full = bundle.captured(centers, params.orders, owners)
                assert cut.failed[0] == full.failed[0]
                if cut.failed[0]:
                    continue
                held += 1
                value, want = cut.value[0], full.value[0]
                assert abs(value - want) <= 1e-15 * want
                ref = _mgs_value(bundle, params)
                assert abs(value - ref) <= abs(want - ref) + 1e-15 * ref
                tol = 1e-13 if split is None else 1e-11
                scale = np.max(np.abs(full.grad[0]))
                assert np.max(np.abs(cut.grad[0] - full.grad[0])) <= tol * scale
    assert len(cut_lengths) >= 4  # short, middle and full lengths were all met
    assert held >= 60


def _relative_tail(spec, order, r, length):
    """The part of the order-``order`` kernel row's squared norm at radius r
    from entry ``length`` on."""
    lag = order - 1
    k = np.arange(lag, spec.max_degree + 1)
    terms = _falling_factorial(spec.max_degree, lag) ** 2 * r ** (2.0 * (k - lag)) / spec.weights[lag:]
    return terms[length - lag :].sum() / terms.sum() if length > lag else 1.0


def _custom_weights(spec):
    """``spec`` with a weight sequence of no family, whose term ratios
    wander up and down and jump by 1e10 at three entries beyond a short
    length, which only the largest ratio beyond a length bounds."""
    ks = np.arange(spec.max_degree + 1)
    weights = (1.0 + ks) ** -0.5 * np.exp(0.4 * np.sin(ks))
    weights[[40, 100, 300]] *= 1e-10
    weights.setflags(write=False)
    object.__setattr__(spec, "weights", weights)
    return spec


@pytest.mark.parametrize(
    "spec",
    [
        SPACES["hardy"],
        SPACES["bergman"],
        SPACES["weighted_hardy"],
        SpaceSpec.weighted_hardy(2.0, max_degree=40, radius_cap=0.9),
        SpaceSpec.hardy(max_degree=20, radius_cap=0.5),
        _custom_weights(SpaceSpec.hardy(radius_cap=0.9)),
    ],
    ids=["hardy", "bergman", "weighted_hardy", "degree40", "degree20", "custom"],
)
def test_row_length_rule_is_sound(spec):
    """At the length a node is given, for each order 1-3 and the next
    order, the true tail of every kernel row is at most eps**2 of
    its squared norm: at radius 0, at each length's own limiting radius and
    around it, and up to the cap.  A degree below 32 keeps every row whole,
    and no length is longer than N + 1."""
    bundle = _Bundle.single(spec, as_element(spec, [1.0]))
    n1 = spec.max_degree + 1
    eps_sq = np.finfo(np.float64).eps ** 2
    for order in (1, 2, 3):
        orders = (order,)
        reach = engine._order_reach(spec.weights.tobytes(), order) if n1 > 32 else ()  # no lengths below N + 1
        limits = [x for x in reach if x >= 0.0]
        radii = {0.0, spec.radius_cap, *np.linspace(0.0, spec.radius_cap, 23)}
        radii |= {x * f for x in limits for f in (1.0, 1.0 - 1e-9, 1.0 + 1e-9)}
        radii = sorted(r for r in radii if r <= spec.radius_cap)
        lengths = bundle._row_lengths(np.array(radii)[:, None], orders)
        assert lengths.max() <= n1
        if spec.max_degree < 32:
            assert set(lengths.tolist()) == {n1}
        assert lengths[0] == min(32, n1)  # radius 0
        for r, length in zip(radii, lengths.tolist()):
            for o in (order, order + 1):
                assert _relative_tail(spec, o, r, length) <= eps_sq, (o, r, length)


def test_row_length_radii_are_found_once_per_space():
    """Bundles of one space share each order's limiting radii, found by one
    bisection per order, while a space of other weights but the same family,
    exponent and degree gets radii of its own."""
    engine._order_reach.cache_clear()
    spec = SpaceSpec.bergman(2.0)
    first, second = (_Bundle.single(spec, _signal(spec, seed)) for seed in (1, 2))
    other = _custom_weights(SpaceSpec.bergman(2.0))
    custom = _Bundle.single(other, _signal(other, 3))
    for bundle in (first, second, custom):
        bundle._row_lengths(np.zeros((1, 2)), (1, 1))
    assert engine._order_reach.cache_info().misses == 4  # orders 1 and 2 of two spaces
    reach = [engine._order_reach(b.spec.weights.tobytes(), 1) for b in (first, second, custom)]
    assert reach[0] is reach[1] and not np.array_equal(reach[0], reach[2])
