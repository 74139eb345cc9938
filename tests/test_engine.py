import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from nbestkernel import (
    DegenerateTupleWarning,
    OptimizerConfig,
    ParamTuple,
    SpaceSpec,
    afd_decay_sweep,
    afd_greedy,
    as_element,
    bvc_profile,
    energy,
    evaluate,
    gram_schmidt,
    kernel,
    kernel_matrix,
    multiple_kernel,
    nbest,
    norm,
    norm_sq,
    residual_decay_sweep,
    zero_function,
)
from nbestkernel import engine as engine_module
from nbestkernel.engine import (
    _as_x,
    _Bundle,
    _descend,
    _direction,
    _greedy_points,
    _grid_increments,
    _lane_searches,
    _local_search,
    _merge_polish,
    _nbest_points,
    _search_grid,
    minimize,
)
from nbestkernel.errors import DomainError
from nbestkernel.stochastic import Ensemble, kernel_mix, stochastic_nbest

FAST = OptimizerConfig(grid_density=16, multistart=4, max_iter=800, seed=3)


def _random_signal(spec, seed, degree=10):
    rng = np.random.default_rng(seed)
    return as_element(spec, rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


# -- energy ---------------------------------------------------------------------


def test_energy_of_normalized_kernel(hardy):
    a = 0.4 - 0.2j
    f = (1.0 / norm(hardy, kernel(hardy, a))) * kernel(hardy, a)
    assert energy(hardy, f, ParamTuple((a,))) == pytest.approx(1.0, rel=1e-12)


def test_energy_kernel_against_origin(hardy):
    f = kernel(hardy, 0.5)
    assert energy(hardy, f, ParamTuple((0.0,))) == pytest.approx(1.0, rel=1e-12)


def test_energy_monotone_under_extension(hardy):
    rng = np.random.default_rng(4)
    f = _random_signal(hardy, 4)
    for _ in range(5):
        a, b = 0.8 * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        small = energy(hardy, f, ParamTuple((a,)))
        big = energy(hardy, f, ParamTuple((a, b)))
        assert big >= small - 1e-12


def test_energy_permutation_invariant(hardy):
    f = _random_signal(hardy, 5)
    pts = (0.2, -0.5j, 0.4 + 0.3j)
    vals = {
        energy(hardy, f, ParamTuple(perm))
        for perm in [pts, pts[::-1], (pts[1], pts[0], pts[2])]
    }
    assert max(vals) - min(vals) <= 1e-9


def test_energy_degenerate_prefix_warns(hardy):
    f = _random_signal(hardy, 6)
    bad = ParamTuple((0.3, 0.3 + 1e-11), merge_tol=1e-12)
    with pytest.warns(DegenerateTupleWarning):
        val = energy(hardy, f, bad)
    assert val == pytest.approx(energy(hardy, f, ParamTuple((0.3,))), rel=1e-12)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(delta=0.001)
    with pytest.raises(ValueError):
        OptimizerConfig(grid_density=2)
    for field, value in (("multistart", -1), ("max_iter", 0), ("seed", -1), ("merge_tol", -1e-9)):
        with pytest.raises(ValueError, match=f"^{field} "):
            OptimizerConfig(**{field: value})


# -- greedy engine ----------------------------------------------------------------


def test_afd_single_kernel_recovery(hardy):
    f = kernel(hardy, 0.4)
    res = afd_greedy(hardy, f, 1)
    assert abs(res.params.points[0] - 0.4) <= 1e-4
    assert res.residual <= 1e-8
    assert res.method == "afd"
    assert len(res.trace) == 1


def test_afd_zero_signal(hardy):
    res = afd_greedy(hardy, zero_function(hardy), 3)
    assert len(res.params) == 0
    assert res.energy == 0.0
    assert res.residual == 0.0


def test_afd_n_zero(hardy):
    f = kernel(hardy, 0.3)
    res = afd_greedy(hardy, f, 0)
    assert res.residual == pytest.approx(norm(hardy, f), rel=1e-12)
    assert res.energy == 0.0


def _greedy_selection_oracle(spec, f, n):
    """Independent sequential maximizer: dense radial/angular scan plus a
    1-d polish in each coordinate direction via scipy's scalar minimizer.

    Each scan row of 128 angles is scored at once: the captured energy of
    the chosen nodes plus a candidate is the energy on the chosen nodes'
    orthonormal basis plus that of the candidate kernel's normalized
    remainder after two Gram-Schmidt passes against the basis."""
    from nbestkernel import kernel_matrix, project

    def captured(points):
        return float(np.sum(np.abs(project(f, gram_schmidt(spec, ParamTuple(tuple(points)))).coeffs) ** 2))

    w = spec.weights
    thetas = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    pts: list[complex] = []
    for _ in range(n):
        basis = gram_schmidt(spec, ParamTuple(tuple(pts))).basis
        fixed = float(np.sum(np.abs((w * f.coeffs) @ basis.conj().T) ** 2))
        scan, vals = [], []
        for r in np.linspace(0.0, 0.95, 96):
            cands = r * math.e ** (1j * thetas)
            v = kernel_matrix(spec, cands)
            for _ in range(2):
                v -= ((w * v) @ basis.conj().T) @ basis
            norms = np.sqrt(np.sum(w * np.abs(v) ** 2, axis=1))
            scan.append(cands)
            vals.append(fixed + np.abs((w * f.coeffs) @ v.conj().T) ** 2 / norms**2)
        # the first scan point of highest energy, in scan order
        best = int(np.argmax(np.concatenate(vals)))
        best_pt = complex(np.concatenate(scan)[best])
        best_val = captured(pts + [best_pt])

        def through(t, d):
            a = best_pt + t * d
            if abs(a) > 0.95:
                a *= 0.95 / abs(a)
            return -captured(pts + [a])

        for d in (1.0, 1j):
            t = minimize_scalar(through, args=(d,), bounds=(-0.02, 0.02), method="bounded").x
            if -through(t, d) > best_val:
                best_pt = best_pt + t * d
                best_val = -through(0.0, d)
        pts.append(best_pt)
    return pts, captured(pts)


def test_afd_two_kernel_mix_matches_selection_oracle(hardy):
    # Greedy is genuinely suboptimal on this signal; its residual is large and
    # must match an independent implementation of the same selection rule,
    # while the global engine drives the residual to zero.
    f = kernel(hardy, 0.3) + kernel(hardy, -0.5)
    res = afd_greedy(hardy, f, 2)
    pts, oracle_energy = _greedy_selection_oracle(hardy, f, 2)
    oracle_residual = math.sqrt(max(norm_sq(hardy, f) - oracle_energy, 0.0))
    assert res.residual == pytest.approx(oracle_residual, rel=1e-4)
    assert res.residual == pytest.approx(0.276268, abs=2e-4)
    assert sorted(p.real for p in res.params.points) == pytest.approx(
        sorted(p.real for p in pts), abs=1e-3
    )
    best = nbest(hardy, f, 2, FAST)
    assert best.residual <= 1e-6 * best.norm
    assert best.energy >= res.energy - 1e-9


# -- global engine ----------------------------------------------------------------


def test_nbest_single_kernel(hardy):
    b = 0.35 + 0.2j
    f = kernel(hardy, b)
    res = nbest(hardy, f, 1, FAST)
    assert abs(res.params.points[0] - b) <= 1e-5
    assert res.energy == pytest.approx(norm_sq(hardy, f), rel=1e-10)
    # greedy captures the kernel exactly and is named the winner
    assert res.trace == [res.trace[0], {"stage": "select", "winner": 0, "from": "greedy"}]


def test_nbest_dominates_greedy(hardy):
    for seed in range(3):
        f = _random_signal(hardy, 30 + seed)
        greedy = afd_greedy(hardy, f, 2, FAST)
        best = nbest(hardy, f, 2, FAST)
        assert best.energy >= greedy.energy - 1e-9


def test_nbest_exact_span_with_multiple_kernel(hardy):
    f = kernel(hardy, 0.3) + multiple_kernel(hardy, 0.3, 2)
    res = nbest(hardy, f, 2, FAST)
    assert res.residual <= 1e-6 * res.norm


def test_nbest_exact_span_weighted_family():
    spec = SpaceSpec.weighted_hardy(0.5)
    f = kernel(spec, 0.2) + kernel(spec, 0.6)
    res = nbest(spec, f, 2, FAST)
    assert res.residual <= 1e-6 * res.norm
    pts = sorted(p.real for p in res.params.points)
    assert pts == pytest.approx([0.2, 0.6], abs=1e-4)


def test_nbest_pythagoras_and_dominance_bergman():
    spec = SpaceSpec.bergman(0.0)
    f = _random_signal(spec, 77)
    res = nbest(spec, f, 2, FAST)
    assert res.energy + res.residual**2 == pytest.approx(res.norm**2, rel=1e-8)


MERGE_SPACES = {
    "hardy": SpaceSpec.hardy(),
    "bergman": SpaceSpec.bergman(1.0),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5),
}
DOUBLE_NODE, SINGLE_NODE = 0.05 + 0.5j, -0.28 + 0.61j


def _double_node_signal(spec):
    """K^2_a + K_b + 0.7 K_a: its best three-node tuple has a double node."""
    return (
        multiple_kernel(spec, DOUBLE_NODE, 2)
        + kernel(spec, SINGLE_NODE)
        + 0.7 * kernel(spec, DOUBLE_NODE)
    )


@pytest.mark.parametrize("family", sorted(MERGE_SPACES))
@pytest.mark.parametrize("seed", [0, 1])
def test_nbest_recovers_double_node(family, seed):
    spec = MERGE_SPACES[family]
    cfg = OptimizerConfig(multistart=8, grid_density=12, max_iter=60, seed=seed)
    res = nbest(spec, _double_node_signal(spec), 3, cfg)
    assert res.residual <= 1e-6 * res.norm


@pytest.mark.parametrize("family", sorted(MERGE_SPACES))
def test_sweep_past_a_double_node_keeps_its_residuals_nonincreasing(family):
    """The n = 4 warm start extends the 3-node result, whose double node it
    carries as two coincident nodes: that start lies outside the search
    domain, so its lane stops at once with its start's MGS energy, and the
    residual column still does not increase."""
    spec = MERGE_SPACES[family]
    cfg = OptimizerConfig(multistart=8, grid_density=12, max_iter=60)
    results = residual_decay_sweep(spec, _double_node_signal(spec), 4, cfg)
    residuals = [r.residual for r in results]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert all(r.residual <= 1e-6 * r.norm for r in results[3:])
    assert 2 in results[3].params.orders
    assert any(
        entry["stage"] == "local" and entry["polish_nfev"] == 1
        and entry["polish_message"].startswith("ABNORMAL")
        for entry in results[4].trace
    )


def test_merge_polish_merges_a_pair_of_any_separation():
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, _double_node_signal(spec))
    cfg = OptimizerConfig(max_iter=60)
    split = (SINGLE_NODE, DOUBLE_NODE - 0.015, DOUBLE_NODE + 0.015)
    worse = (SINGLE_NODE, DOUBLE_NODE, 0.0)
    candidates = [
        (pts, bundle._mgs_captured(bundle.make_tuple(pts, cfg))[0], k)
        for k, pts in enumerate((worse, split))
    ]
    assert candidates[0][1] < candidates[1][1] < bundle.total_sq
    trace = [{"stage": "local"}, {"stage": "local"}]
    _merge_polish(bundle, cfg, candidates, trace)
    # the best candidate's pair, 0.03 apart, became one order-2 node
    assert trace[-1]["stage"] == "merge-polish"
    assert trace[-1]["merged_from"] == 1
    merged_pts, _, entry = candidates[-1]
    assert entry == len(trace) - 1
    params, _, _, residual, _ = bundle.finalize(merged_pts, cfg)
    assert sorted(params.orders) == [1, 1, 2]
    assert residual <= 1e-6 * math.sqrt(bundle.total_sq)


def test_multistart_skips_a_warm_start_equal_to_the_greedy_tuple():
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, _random_signal(spec, 31))
    cfg = OptimizerConfig(grid_density=12, multistart=2, max_iter=40, seed=5)
    steps: list = []
    greedy_pts = _greedy_points(bundle, 2, cfg, steps)
    trace: list = []
    warm_trace: list = []
    plain = _nbest_points(bundle, 2, cfg, trace, (greedy_pts, steps))
    warmed = _nbest_points(bundle, 2, cfg, warm_trace, (greedy_pts, steps), [tuple(greedy_pts)])
    # one search from the greedy tuple, one from each multistart seed
    assert sum(e["stage"] == "local" for e in warm_trace) == 1 + cfg.multistart
    assert warmed == plain and warm_trace == trace


def test_merge_polish_skips_exact_capture():
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, kernel(spec, 0.2) + kernel(spec, 0.5j))
    cfg = OptimizerConfig()
    pts = (0.2, 0.5j)
    candidates = [(pts, bundle._mgs_captured(bundle.make_tuple(pts, cfg))[0], 0)]
    trace = [{"stage": "local"}]
    _merge_polish(bundle, cfg, candidates, trace)
    assert len(candidates) == 1 and len(trace) == 1


def test_nbest_deterministic(hardy):
    f = _random_signal(hardy, 55)
    r1 = nbest(hardy, f, 2, FAST)
    r2 = nbest(hardy, f, 2, FAST)
    assert r1.params.points == r2.params.points
    assert r1.energy == r2.energy
    assert r1.residual == r2.residual


def test_energy_continuous_at_node_merging(hardy):
    f = _random_signal(hardy, 12)
    a = 0.25 + 0.1j
    merged = energy(hardy, f, ParamTuple((a, a)))
    eps_vals = (1e-3, 1e-4, 1e-5)
    split = [energy(hardy, f, ParamTuple((a, a + e))) for e in eps_vals]
    # linear Richardson step from the two smallest separations
    extrapolated = split[2] + (split[2] - split[1]) / 9.0
    assert extrapolated == pytest.approx(merged, rel=1e-4)


# -- rim profile -------------------------------------------------------------------


def test_bvc_profile_constant_signal(hardy):
    prof = bvc_profile(hardy, as_element(hardy, [1.0]), (0.5, 0.9, 0.99))
    for r, v in prof:
        assert v == pytest.approx(math.sqrt(1 - r * r), abs=1e-10)


def test_bvc_profile_at_origin(hardy):
    f = _random_signal(hardy, 9)
    [(r, v)] = bvc_profile(hardy, f, (0.0,))
    assert r == 0.0
    assert v == pytest.approx(abs(evaluate(f, 0.0)), rel=1e-12)


def test_bvc_profile_cauchy_schwarz(hardy):
    f = as_element(hardy, [0.4, 0.3, -0.2, 0.1j])
    circle = np.exp(2j * np.pi * np.arange(512) / 512)
    sup = float(np.max(np.abs(evaluate(f, circle))))
    # exact constant well inside, computed-norm bound at the rim
    [(_, v9)] = bvc_profile(hardy, f, (0.9,))
    assert v9 <= sup * math.sqrt(1 - 0.81) * (1 + 1e-9)
    [(_, v999)] = bvc_profile(hardy, f, (0.999,))
    assert v999 <= sup / math.sqrt(hardy.kernel_norm_sq(0.999)) * (1 + 1e-9)


def test_bvc_profile_rejects_rim(hardy):
    with pytest.raises(DomainError):
        bvc_profile(hardy, as_element(hardy, [1.0]), (1.0,))


# -- decay sweep -------------------------------------------------------------------


def test_residual_decay_sweep_exact_span(hardy):
    f = kernel(hardy, 0.2) + kernel(hardy, -0.4)
    results = residual_decay_sweep(hardy, f, 4, FAST)
    assert len(results) == 5
    assert results[0].residual == pytest.approx(norm(hardy, f), rel=1e-12)
    residuals = [r.residual for r in results]
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-9
    for r in results[2:]:
        assert r.residual <= 1e-6 * r.norm


# -- shared greedy run ---------------------------------------------------------------

SWEEP_CFG = OptimizerConfig(grid_density=12, multistart=2, max_iter=40, seed=5)


@pytest.mark.parametrize("family", sorted(MERGE_SPACES))
def test_greedy_from_a_prefix_of_its_run_repeats_the_run(family):
    spec = MERGE_SPACES[family]
    bundle = _Bundle.single(spec, _random_signal(spec, 21))
    n = 3
    pts = _greedy_points(bundle, n, SWEEP_CFG, [])
    assert len(pts) == n
    for k in range(n):
        assert _greedy_points(bundle, n, SWEEP_CFG, [], prefix=pts[:k]) == pts
    # a prefix from elsewhere stays fixed, and steps count from its end
    steps: list = []
    assert _greedy_points(bundle, 2, SWEEP_CFG, steps, prefix=[0.1j])[0] == 0.1j
    assert [s["step"] for s in steps] == [2]


@pytest.mark.parametrize("family", sorted(MERGE_SPACES))
def test_residual_sweep_searches_from_prefixes_of_one_greedy_run(family):
    spec = MERGE_SPACES[family]
    f = _random_signal(spec, 22)
    n_max = 3
    steps = afd_decay_sweep(spec, f, n_max, SWEEP_CFG)[n_max].trace
    assert len(steps) == n_max
    for n, res in enumerate(residual_decay_sweep(spec, f, n_max, SWEEP_CFG)[1:], start=1):
        greedy = res.trace[0]
        assert greedy["stage"] == "greedy"
        assert greedy["steps"] == steps[:n]
        assert greedy["energy"] == steps[n - 1]["energy"]


@pytest.mark.parametrize("sweep", [afd_decay_sweep, residual_decay_sweep])
def test_sweep_rejects_negative_node_count(sweep):
    spec = SpaceSpec.hardy(64, radius_cap=0.5)
    with pytest.raises(ValueError, match="node count must be non-negative"):
        sweep(spec, _random_signal(spec, 23), -2)


# -- optimizer --------------------------------------------------------------------

BOX = [(-1.0, 1.0)] * 2
TIGHT = {"maxiter": 200, "ftol": 1e-15, "gtol": 1e-12}


def _bounded_quadratic(points=None):
    """0.5 (x - c)^T A (x - c) with c outside the box; the minimizer over
    [-1, 1]^2 is (1, 0.6), with the first bound active."""
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([2.0, 0.1])

    def fun(x):
        if points is not None:
            points.append(np.array(x))
        r = x - c
        return 0.5 * r @ a @ r, a @ r

    return fun


def test_minimize_converges_to_an_active_bound():
    res = minimize(_bounded_quadratic(), np.array([-0.5, -0.9]), method="L-BFGS-B",
                   bounds=BOX, options=TIGHT)
    assert res.x == pytest.approx([1.0, 0.6], abs=1e-12)
    assert res.x[0] == 1.0
    assert res.message.startswith("CONVERGENCE")
    assert res.nit >= 1 and res.nfev >= res.nit
    assert res.fun == pytest.approx(_bounded_quadratic()(res.x)[0], abs=1e-15)


def test_minimize_keeps_every_iterate_in_the_box():
    points: list = []
    minimize(_bounded_quadratic(points), np.array([0.9, -0.99]), method="L-BFGS-B",
             bounds=BOX, options=TIGHT)
    pts = np.array(points)
    assert len(pts) > 2
    assert np.all(pts >= -1.0) and np.all(pts <= 1.0)


def test_minimize_first_step_stops_halfway_to_the_box():
    """Without curvature pairs a step that would leave the box stops halfway
    to it; later steps may end on the bound."""
    points: list = []
    c = np.array([10.0, 0.0])

    def fun(x):
        points.append(np.array(x))
        return 0.5 * (x - c) @ (x - c), x - c

    res = minimize(fun, np.zeros(2), method="L-BFGS-B", bounds=BOX, options=TIGHT)
    assert np.array_equal(points[1], [0.5, 0.0])
    assert np.array_equal(res.x, [1.0, 0.0])


def _rosenbrock(x):
    u, v = x
    return (1.0 - u) ** 2 + 100.0 * (v - u * u) ** 2, np.array(
        [-2.0 * (1.0 - u) - 400.0 * u * (v - u * u), 200.0 * (v - u * u)]
    )


@pytest.mark.parametrize("maxiter", [1, 3, 7])
def test_minimize_honours_maxiter(maxiter):
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), method="L-BFGS-B",
                   bounds=[(-2.0, 2.0)] * 2, options={**TIGHT, "maxiter": maxiter})
    assert res.nit == maxiter
    assert res.message.startswith("STOP")


def test_minimize_solves_rosenbrock():
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), method="L-BFGS-B",
                   bounds=[(-2.0, 2.0)] * 2, options=TIGHT)
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-7)
    assert res.nit < 100


def test_minimize_reports_abnormal_on_inconsistent_gradient():
    def wrong_sign(x):
        value, grad = _bounded_quadratic()(x)
        return value, -grad

    res = minimize(wrong_sign, np.array([0.2, 0.3]), method="L-BFGS-B",
                   bounds=BOX, options=TIGHT)
    assert res.message.startswith("ABNORMAL")
    assert res.nit == 0
    assert np.array_equal(res.x, [0.2, 0.3])


def test_direction_with_held_coordinates_is_the_reduced_newton_step():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5))
    h = m @ m.T + 5.0 * np.eye(5)
    g = rng.standard_normal(5)
    free = np.array([True, False, True, True, False])
    d = _direction(h, g, free)
    b = np.linalg.inv(h)
    assert np.array_equal(d[~free], [0.0, 0.0])
    assert d[free] == pytest.approx(np.linalg.solve(b[np.ix_(free, free)], -g[free]), rel=1e-12)
    assert np.array_equal(_direction(h, g, np.ones(5, dtype=bool)), -(h @ g))


def test_minimize_reaches_the_minimizer_on_a_face_with_a_held_coordinate():
    """0.5 (x - c)^T A (x - c) in 3-D with c beyond the face x_0 = 1: started
    on that face, the first coordinate stays held, so every step after the
    first takes the Schur-complement step of the other two."""
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.8], [0.5, 0.8, 2.0]])
    c = np.array([3.0, 0.2, -0.1])
    points: list = []

    def fun(x):
        points.append(np.array(x))
        return 0.5 * (x - c) @ a @ (x - c), a @ (x - c)

    res = minimize(fun, np.array([1.0, -0.5, 0.6]), method="L-BFGS-B",
                   bounds=[(-1.0, 1.0)] * 3, options=TIGHT)
    face = c[1:] - np.linalg.solve(a[1:, 1:], a[1:, 0] * (1.0 - c[0]))
    assert res.message.startswith("CONVERGENCE")
    assert res.nit >= 2
    assert all(p[0] == 1.0 for p in points)
    assert res.x[1:] == pytest.approx(face, abs=1e-10)


def test_minimize_with_every_coordinate_held_stops_at_once():
    calls: list = []

    def fun(x):
        calls.append(x)
        return -x[0] + x[1] - x[2], np.array([-1.0, 1.0, -1.0])

    res = minimize(fun, np.array([1.0, -1.0, 1.0]), method="L-BFGS-B",
                   bounds=[(-1.0, 1.0)] * 3, options=TIGHT)
    assert res.message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    assert res.nit == 0 and res.nfev == 1 and len(calls) == 1
    assert np.array_equal(res.x, [1.0, -1.0, 1.0])


def test_minimize_ill_conditioned_quadratic_reaches_gtol():
    """Condition number 1e4 in 6-D, minimizer inside the box: the projected
    gradient falls below gtol within 60 iterations."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag(np.logspace(0.0, 4.0, 6)) @ q.T
    c = rng.uniform(-0.5, 0.5, 6)

    def fun(x):
        return 0.5 * (x - c) @ a @ (x - c), a @ (x - c)

    res = minimize(fun, np.zeros(6), method="L-BFGS-B", bounds=[(-1.0, 1.0)] * 6,
                   options={**TIGHT, "gtol": 1e-8})
    assert res.message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    assert res.nit <= 60
    assert res.x == pytest.approx(c, abs=1e-8)


def test_minimize_accepts_only_its_own_method():
    with pytest.raises(ValueError, match="unsupported method"):
        minimize(_rosenbrock, np.zeros(2), method="Nelder-Mead", bounds=BOX, options=TIGHT)


# -- lockstep lanes ------------------------------------------------------------------


def test_grid_increments_from_the_cached_grid_equal_those_from_its_rows():
    """The search grid caches its rows times the weights, conjugated and
    transposed, and the rows' norms.  Increments from it, scored on the
    span's residual, match the explicit formula that projects each kernel row
    off the basis within 1e-9 relative, also at a grid node whose kernel is
    nearly in the span (there the denominator ``||K_g||^2 - sum_j
    |<K_g, Q_j>|^2`` loses about eps ||K_g||^2 / ||u_g||^2, 1e-10 at a
    separation of 1e-3), and agree on which nodes are scored at all."""
    spec = MERGE_SPACES["bergman"]
    bundle = _Bundle.single(spec, _random_signal(spec, 34))
    grid = _search_grid(bundle, SWEEP_CFG)
    assert _search_grid(bundle, SWEEP_CFG) is grid
    rows = kernel_matrix(spec, grid.points)
    w = spec.weights
    raw = np.real(np.sum(w * np.abs(rows) ** 2, axis=1))
    assert np.array_equal(grid.raw, raw)
    node = grid.points[len(grid.points) // 3]
    near = (node + 1e-3, -0.5 + 0.1j)  # the grid node's kernel is nearly in this span
    for points in ((), (0.2 - 0.3j,), (0.2 - 0.3j, -0.5 + 0.1j), near, (node,)):
        span = bundle.span(ParamTuple(points))
        basis = span.basis
        ortho = rows - ((rows * w) @ basis.conj().T) @ basis
        norms = np.real(np.sum(w * np.abs(ortho) ** 2, axis=1))
        gains = bundle.probs @ np.abs(bundle.weighted @ ortho.conj().T) ** 2
        ok = norms > 1e-12 * np.maximum(raw, 1.0)
        got = _grid_increments(bundle, grid, span)
        assert np.array_equal(np.isfinite(got), ok)
        assert ok.sum() == len(ok) - (points == (node,))
        assert np.max(np.abs(got[ok] - gains[ok] / norms[ok]) / (gains[ok] / norms[ok])) <= 1e-9
    assert np.array_equal(grid.single, _grid_increments(bundle, grid, bundle.span(ParamTuple(()))))


def _held_face_quadratic():
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.8], [0.5, 0.8, 2.0]])
    c = np.array([3.0, 0.2, -0.1])
    return lambda x: (0.5 * (x - c) @ a @ (x - c), a @ (x - c))


def _ill_conditioned_quadratic():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag(np.logspace(0.0, 4.0, 6)) @ q.T
    c = rng.uniform(-0.5, 0.5, 6)
    return lambda x: (0.5 * (x - c) @ a @ (x - c), a @ (x - c))


def _inconsistent_quadratic(x):
    value, grad = _bounded_quadratic()(x)
    return value, -grad


LANE_PROBLEMS = {
    "bounded": (_bounded_quadratic(), BOX, TIGHT,
                [[-0.5, -0.9], [0.9, -0.99], [1.0, 0.6], [0.0, 0.0]]),
    "held_face": (_held_face_quadratic(), [(-1.0, 1.0)] * 3, TIGHT,
                  [[1.0, -0.5, 0.6], [0.2, 0.9, -0.9], [-1.0, 1.0, 1.0]]),
    "ill_conditioned": (_ill_conditioned_quadratic(), [(-1.0, 1.0)] * 6, {**TIGHT, "gtol": 1e-8},
                        [[0.0] * 6, [0.9, -0.9, 0.5, 0.1, -0.3, 0.7], [-1.0] * 6]),
    "rosenbrock_capped": (_rosenbrock, [(-2.0, 2.0)] * 2, {**TIGHT, "maxiter": 7},
                          [[-1.2, 1.0], [0.5, 0.5], [1.5, -1.5]]),
    "abnormal": (_inconsistent_quadratic, BOX, TIGHT, [[0.2, 0.3], [-0.4, 0.1]]),
}


@pytest.mark.parametrize("problem", sorted(LANE_PROBLEMS))
def test_lanes_end_where_each_start_ends_alone(problem):
    """Starts run as lanes of one lockstep search give each lane the same x,
    fun, nfev, nit and message as ``minimize`` from that start alone; each
    round the function sees one row per lane still active."""
    fun, bounds, options, starts = LANE_PROBLEMS[problem]
    starts = np.array(starts)
    lo, hi = np.asarray(bounds, dtype=np.float64).T
    seen: list = []

    def lanes_fun(x):
        seen.append(len(x))
        pairs = [fun(row) for row in x]
        return np.array([v for v, _ in pairs]), np.array([g for _, g in pairs])

    together = _descend(lanes_fun, starts, lo, hi, options)
    for start, lane in zip(starts, together):
        alone = minimize(fun, start, method="L-BFGS-B", bounds=bounds, options=options)
        assert np.array_equal(lane.x, alone.x)
        assert (lane.fun, lane.nfev, lane.nit, lane.message) == (
            alone.fun, alone.nfev, alone.nit, alone.message
        )
    assert seen == [sum(lane.nfev > k for lane in together) for k in range(len(seen))]
    assert len(seen) == max(lane.nfev for lane in together)


def test_lanes_of_a_search_report_their_own_stats():
    """Each lane's energy, points, evaluation count and stop message are
    those of its start searched alone; a start with two coincident nodes
    lies outside the search domain, so its lane alone stops at once, with
    the start's MGS energy."""
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, _double_node_signal(spec))
    cfg = OptimizerConfig(max_iter=30)
    starts = [
        _as_x([-0.3 + 0.5j, 0.2 + 0.3j]),
        _as_x([0.1 + 0.4j, 0.1 + 0.4j]),
        _as_x([0.6, -0.6j]),
    ]
    lanes = _lane_searches(bundle, cfg, starts)
    assert len(lanes) == len(starts)
    for start, (pts, val, stats) in zip(starts, lanes):
        alone: dict = {}
        assert _local_search(bundle, cfg, start, stats=alone) == (pts, val)
        assert stats == alone
    pts, val, stats = lanes[1]
    assert stats == {"polish_nfev": 1, "polish_message": "ABNORMAL: "}
    coincident = bundle.make_tuple(pts, cfg)
    assert coincident.orders == (1, 2)
    assert val == bundle._mgs_captured(coincident)[0]
    assert lanes[0][2]["polish_nfev"] > 1 and lanes[2][2]["polish_nfev"] > 1


def test_multistart_trace_has_one_entry_per_distinct_start_in_order(monkeypatch):
    spec = MERGE_SPACES["bergman"]
    bundle = _Bundle.single(spec, _random_signal(spec, 33))
    cfg = OptimizerConfig(grid_density=12, multistart=4, max_iter=40, seed=2)
    steps: list = []
    greedy_pts = _greedy_points(bundle, 2, cfg, steps)
    searched: list = []

    def recording(bundle, cfg, starts):
        searched.extend(starts)
        return _lane_searches(bundle, cfg, starts)

    monkeypatch.setattr(engine_module, "_lane_searches", recording)
    trace: list = []
    _nbest_points(bundle, 2, cfg, trace, (greedy_pts, steps), [tuple(greedy_pts)])
    local = [entry for entry in trace if entry["stage"] == "local"]
    # the warm start equals the greedy tuple, so it is searched once
    assert len(searched) == len(local) == 1 + cfg.multistart
    assert np.array_equal(searched[0], _as_x(greedy_pts))
    for start, entry in zip(searched, local):
        stats: dict = {}
        _, val = _local_search(bundle, cfg, start, stats=stats)
        assert entry == {"stage": "local", "energy": val, **stats}


def test_multistart_zero_with_a_short_greedy_run_searches_no_lanes():
    """With ``multistart: 0`` and a greedy run that stops short of n at exact
    capture there is no start, so no lane is searched and greedy is
    selected."""
    spec = MERGE_SPACES["hardy"]
    f = kernel(spec, 0.3 + 0.1j)
    cfg = OptimizerConfig(grid_density=12, multistart=0, seed=1)
    bundle = _Bundle.single(spec, f)
    steps: list = []
    greedy_pts = _greedy_points(bundle, 3, cfg, steps)
    assert len(greedy_pts) == 1
    trace: list = []
    assert _nbest_points(bundle, 3, cfg, trace, (greedy_pts, steps)) == greedy_pts
    assert [entry["stage"] for entry in trace] == ["greedy", "select"]
    assert _descend(None, np.zeros((0, 6)), -np.ones(6), np.ones(6), TIGHT) == []
    res = nbest(spec, f, 3, cfg)
    assert res.params.points == tuple(greedy_pts)
    assert res.trace[-1] == {"stage": "select", "winner": 0, "from": "greedy"}


# -- signal scale ------------------------------------------------------------------

SCALE_SPACES = {
    "hardy": SpaceSpec.hardy(64, radius_cap=0.8),
    "bergman": SpaceSpec.bergman(1.0, 64, radius_cap=0.8),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5, 64, radius_cap=0.8),
}


def _sweep_rows(sweep, spec, f, n_max=3):
    results = sweep(spec, f, n_max, SWEEP_CFG)
    return [len(r.params) for r in results], [r.residual / r.norm for r in results]


def test_weak_signals_are_searched_as_normal_ones():
    """Captured energy is homogeneous in the signal, so its scale must not
    change the answer.  A signal of squared norm in [1, 4) is searched at gain
    1, and its scaling by 2**-k at gain 4**k, so the two searches make the
    same steps and end at the same residual / norm.  At other scales the
    bits of the signal differ: greedy ends where it ends at scale 1, and the
    global search keeps the greedy nodes, so it does no worse."""
    spec = SCALE_SPACES["hardy"]
    poly = _unit_polynomial(spec, 12)
    for sweep in (afd_decay_sweep, residual_decay_sweep):
        nodes, rows = _sweep_rows(sweep, spec, as_element(spec, poly))
        assert nodes == [0, 1, 2, 3]
        for k in (10, 23, 40):
            assert _sweep_rows(sweep, spec, as_element(spec, 2.0**-k * poly)) == (nodes, rows)
    _, greedy = _sweep_rows(afd_decay_sweep, spec, as_element(spec, poly))
    for scale in (1e-3, 1e-7, 1e-12):
        f = as_element(spec, scale * poly)
        nodes, afd_rows = _sweep_rows(afd_decay_sweep, spec, f)
        assert nodes == [0, 1, 2, 3]
        assert afd_rows == pytest.approx(greedy, rel=1e-6)
        nodes, nbest_rows = _sweep_rows(residual_decay_sweep, spec, f)
        assert nodes == [0, 1, 2, 3]
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(afd_rows, nbest_rows))


def _unit_polynomial(spec, seed):
    """Coefficients of a random degree-12 polynomial scaled by a power of 2
    to squared norm in [1, 4)."""
    rng = np.random.default_rng(seed)
    poly = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    poly *= 2.0 ** -math.floor(math.log(norm_sq(spec, as_element(spec, poly)), 4))
    assert 1.0 <= norm_sq(spec, as_element(spec, poly)) < 4.0
    return poly


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", sorted(SCALE_SPACES))
def test_strong_signals_are_searched_as_normal_ones(family):
    """A signal of squared norm in [1, 4) scaled by 2**j, so that its energy
    is at or above 2**64, is searched at gain 4**-j: both sweeps keep the
    params of scale 1 bit for bit, with every energy 4**j times that at
    scale 1, and nothing overflows."""
    spec = SCALE_SPACES[family]
    poly = _unit_polynomial(spec, 12)
    for sweep in (afd_decay_sweep, residual_decay_sweep):
        unit = sweep(spec, as_element(spec, poly), 3, SWEEP_CFG)
        for j in (240, 500):
            strong = sweep(spec, as_element(spec, 2.0**j * poly), 3, SWEEP_CFG)
            assert [r.params.points for r in strong] == [r.params.points for r in unit]
            assert [r.energy for r in strong] == [4.0**j * r.energy for r in unit]


@pytest.mark.parametrize(
    "spec,double,single,weight",
    [
        (SpaceSpec.hardy(), -0.0519 + 0.4153j, 0.1198 + 0.0125j, 1.0),
        (SpaceSpec.bergman(1.0), 0.23 - 0.52j, 0.06 - 0.08j, 0.8),
    ],
    ids=["hardy", "bergman1"],
)
def test_weak_kernel_mix_keeps_its_double_node(spec, double, single, weight):
    """The kernel mix of the benchmark's multistart workload, at 1e-4 of its
    scale: n-best still finds the order-2 atom."""
    f = kernel_mix(spec, [(double, 1e-4, 2), (single, 1e-4 * weight, 1)])
    res = nbest(spec, f, 3)
    assert res.residual <= 1e-9 * res.norm
    assert any(o == 2 and abs(c - double) <= 1e-4 for c, o in res.params.node_structure())


@pytest.mark.parametrize("scale", [1e300, 1e-200, 1e-160])
def test_signal_norms_outside_the_normal_range_are_refused(scale):
    """A squared norm that overflows, underflows to 0 or is subnormal is
    refused, for single signals and ensembles, whatever the node count."""
    spec = SpaceSpec.hardy(64, radius_cap=0.5)
    f = as_element(spec, [scale, 0.5 * scale])
    for run in (afd_greedy, nbest, afd_decay_sweep):
        with pytest.raises(DomainError, match="not a finite normal double"):
            run(spec, f, 0)
    with pytest.raises(DomainError, match="not a finite normal double"):
        stochastic_nbest(Ensemble.from_functions(spec, [f, f]), 1)


def test_zero_signals_and_the_edges_of_the_normal_range_are_accepted():
    spec = SpaceSpec.hardy(64, radius_cap=0.5)
    zero = nbest(spec, zero_function(spec), 2)
    assert zero.norm == 0.0 and len(zero.params) == 0
    # a zero-weight realization leaves the Bochner norm 0
    e = Ensemble.from_functions(spec, [zero_function(spec), as_element(spec, [1.0])], [1.0, 0.0])
    assert stochastic_nbest(e, 1).norm == 0.0
    tiny = np.finfo(np.float64).tiny
    res = afd_greedy(spec, as_element(spec, [math.sqrt(tiny)]), 1)
    assert res.norm**2 == pytest.approx(tiny, rel=1e-15)
    assert res.residual <= 1e-6 * res.norm
    assert afd_greedy(spec, as_element(spec, [1e150]), 0).norm == pytest.approx(1e150, rel=1e-15)


# -- properties -------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(family=st.sampled_from(sorted(SCALE_SPACES)), seed=st.integers(0, 1000))
def test_afd_results_are_prefixes_of_the_longest_run(family, seed):
    """Greedy never revisits a node: the run to n nodes is the n-prefix of
    the run to n_max, params and trace alike."""
    spec = SCALE_SPACES[family]
    f = _random_signal(spec, seed)
    n_max = 3
    full = afd_greedy(spec, f, n_max, SWEEP_CFG)
    for n in range(n_max):
        res = afd_greedy(spec, f, n, SWEEP_CFG)
        assert res.params.points == full.params.points[:n]
        assert res.trace == full.trace[:n]


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(sorted(SCALE_SPACES)),
    radii=st.lists(st.floats(0.0, 0.75), min_size=3, max_size=3),
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
    merged=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_energy_and_finalize_are_invariant_under_permutations(family, radii, angles, merged, seed):
    """The energy and the finalized energy and residual of a 3-node tuple,
    with its first two nodes a merged (repeated) pair or kept apart, do not
    depend on the order of the nodes."""
    spec = SCALE_SPACES[family]
    pts = [complex(r * np.exp(1j * t)) for r, t in zip(radii, angles)]
    if merged:
        pts[1] = pts[0]
    # nearly dependent kernels would degrade to an order-dependent prefix
    distinct = list(dict.fromkeys(pts))
    assume(all(abs(p - q) >= 0.25 for p, q in itertools.combinations(distinct, 2)))
    f = _random_signal(spec, seed)
    bundle = _Bundle.single(spec, f)
    cfg = OptimizerConfig()
    want = energy(spec, f, ParamTuple(tuple(pts)))
    _, _, fin_energy, fin_residual, degraded = bundle.finalize(pts, cfg)
    assert not degraded
    for perm in itertools.permutations(pts):
        assert energy(spec, f, ParamTuple(perm)) == pytest.approx(want, rel=1e-12)
        _, _, e, r, _ = bundle.finalize(perm, cfg)
        assert e == pytest.approx(fin_energy, rel=1e-12)
        assert r == pytest.approx(fin_residual, rel=1e-12)
