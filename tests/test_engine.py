import itertools
import math
import tracemalloc

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
    generate_ensemble,
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
    _grid,
    _grid_increments,
    _lane_searches,
    _local_search,
    _merge_polish,
    _nbest_points,
    _result,
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
    # the exact path certifies the kernel before greedy runs, and wins
    assert [entry["stage"] for entry in res.trace] == ["exact", "select"]
    assert res.trace[-1] == {"stage": "select", "winner": 0, "from": "exact"}


def test_nbest_single_kernel_on_the_lanes(declined_exact_path, hardy):
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
@pytest.mark.parametrize("seed", [0, 1])
def test_nbest_recovers_double_node_on_the_lanes(declined_exact_path, family, seed):
    test_nbest_recovers_double_node(family, seed)


@pytest.mark.parametrize("family", sorted(MERGE_SPACES))
def test_sweep_past_a_double_node_keeps_its_residuals_nonincreasing(family, exact_path=True):
    """The 3-node result, with its double node, captures the signal, so the
    n = 4 warm start takes no greedy step from it: it competes as it is, as
    a ``warm`` entry with that result's energy, and starts no lane, and the
    residual column does not increase.  With the exact path on, the signal
    is an exact mix: n = 4 reads the n = 3 Prony candidate and searches no
    lane."""
    spec = MERGE_SPACES[family]
    cfg = OptimizerConfig(multistart=8, grid_density=12, max_iter=60)
    results = residual_decay_sweep(spec, _double_node_signal(spec), 4, cfg)
    residuals = [r.residual for r in results]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert all(r.residual <= 1e-6 * r.norm for r in results[3:])
    assert 2 in results[3].params.orders
    trace = results[4].trace
    if exact_path:
        assert any(entry["stage"] == "exact" for entry in trace)
    else:
        assert {"stage": "warm", "energy": results[3].energy} in trace
        assert all(entry.get("polish_nfev") != 1 for entry in trace)


@pytest.mark.parametrize("family", sorted(MERGE_SPACES))
def test_sweep_past_a_double_node_on_the_lanes(declined_exact_path, family):
    test_sweep_past_a_double_node_keeps_its_residuals_nonincreasing(family, exact_path=False)


def test_merge_polish_merges_a_pair_of_any_separation():
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, _double_node_signal(spec))
    cfg = OptimizerConfig(max_iter=60)
    split = (SINGLE_NODE, DOUBLE_NODE - 0.015, DOUBLE_NODE + 0.015)
    worse = (SINGLE_NODE, DOUBLE_NODE, 0.0)
    candidates = [
        (pts, bundle.read(bundle.make_tuple(pts, cfg)).energy, k)
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
    greedy_pts = _greedy_points(bundle, 2, cfg, [])
    trace: list = []
    warm_trace: list = []
    plain = _nbest_points(bundle, 2, cfg, trace)
    warmed = _nbest_points(bundle, 2, cfg, warm_trace, [tuple(greedy_pts)])
    # one search from the greedy tuple, one from each multistart seed
    assert sum(e["stage"] == "local" for e in warm_trace) == 1 + cfg.multistart
    assert warmed == plain and warm_trace == trace


def test_merge_polish_skips_exact_capture():
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, kernel(spec, 0.2) + kernel(spec, 0.5j))
    cfg = OptimizerConfig()
    pts = (0.2, 0.5j)
    candidates = [(pts, bundle.read(bundle.make_tuple(pts, cfg)).energy, 0)]
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


def test_greedy_steps_are_kept_per_bundle(monkeypatch):
    """A second greedy run on one bundle reads every step the first took: it
    scans no grid and runs no local search, and its points and trace are the
    first run's.  The steps are kept per search settings, which the seed and
    the multistart count are not; another grid density searches again."""
    spec = MERGE_SPACES["hardy"]
    bundle = _Bundle.single(spec, _random_signal(spec, 21))
    first: list = []
    pts = _greedy_points(bundle, 3, SWEEP_CFG, first)

    def forbidden(*args, **kwargs):
        raise AssertionError("a kept greedy step was searched again")

    monkeypatch.setattr(engine_module, "_local_search", forbidden)
    monkeypatch.setattr(engine_module, "_grid_increments", forbidden)
    for cfg in (SWEEP_CFG, OptimizerConfig(grid_density=12, multistart=5, max_iter=40, seed=9)):
        again: list = []
        assert _greedy_points(bundle, 3, cfg, again) == pts
        assert again == first
    with pytest.raises(AssertionError, match="searched again"):
        _greedy_points(bundle, 3, OptimizerConfig(grid_density=13, multistart=2, max_iter=40, seed=5), [])


def test_a_residual_sweep_past_a_capture_keeps_the_captured_tuple():
    """Every row of a sweep is searched as at a single n, so past a capture
    the Prony candidate ends each row's search, and the captured result,
    extended by greedy, takes no step.  For a two-kernel mix rows 2-5 keep
    the points and orders of ``nbest`` at n = 2; for a single kernel every
    row is its Prony tuple."""
    spec = SpaceSpec.hardy(max_degree=64, radius_cap=0.8)
    cfg = OptimizerConfig(multistart=4, grid_density=12, max_iter=60, seed=1)
    single = kernel(spec, 0.3 + 0.2j)
    for f, captured_at in ((single + 0.7 * kernel(spec, -0.4 + 0.1j), 2), (single, 1)):
        want = nbest(spec, f, captured_at, cfg)
        assert want.trace[-1]["from"] == "exact" and len(want.params) == captured_at
        results = residual_decay_sweep(spec, f, 5, cfg)
        for res in results[captured_at:]:
            assert (res.params.points, res.params.orders) == (want.params.points, want.params.orders)
            assert res.trace[-1]["from"] == "exact"


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


def test_sweep_extends_a_greedy_winner_without_repeating_greedy(monkeypatch):
    """Where greedy's 2-node tuple wins n = 2 of a residual sweep, the warm
    start of n = 3 is greedy's own 3-prefix: the extension and greedy's run
    to 3 nodes read one kept step 3 from that tuple, so no two local
    searches share their start, prefix and orders, and the warm tuple is the
    one that step gives."""
    spec = SpaceSpec.hardy(max_degree=64, radius_cap=0.8)
    cfg = OptimizerConfig(grid_density=12, multistart=4, max_iter=200, seed=3)
    rng = np.random.default_rng(11)
    f = as_element(spec, rng.standard_normal(10) + 1j * rng.standard_normal(10))
    searches, warm = [], []
    search, extend = engine_module._local_search, engine_module._extend_greedily

    def recorded(bundle, cfg, x0, prefix=(), orders=None, **kwargs):
        key = (np.asarray(x0).tobytes(), tuple(prefix), None if orders is None else tuple(orders))
        searches.append(key)
        return search(bundle, cfg, x0, prefix, orders, **kwargs)

    def extended(bundle, points, n, cfg, *args):
        out = extend(bundle, points, n, cfg, *args)
        warm.append((bundle, list(points), n, list(out)))
        return out

    monkeypatch.setattr(engine_module, "_local_search", recorded)
    monkeypatch.setattr(engine_module, "_extend_greedily", extended)
    results = residual_decay_sweep(spec, f, 3, cfg)
    assert results[2].trace[-1]["from"] == "greedy"
    assert len(searches) == len(set(searches))
    factor, prev, k, points = warm[-1]
    assert k == 3 and prev == list(results[2].params.points)
    assert points == _greedy_points(factor, k, cfg, [], prefix=prev)


def test_sweep_warm_start_with_a_double_node_joins_as_it_is(monkeypatch):
    """Where row n - 1 of a residual sweep has an order-2 node and does not
    capture the signal, row n's warm start lists that node twice: it joins
    as a ``warm`` entry with its tuple and MGS energy, and starts no lane,
    which would stop at once outside the search domain."""
    spec = SpaceSpec.bergman(1.0, 128, radius_cap=0.9)
    mix = [(0.4 + 0.2j, 1.0, 1), (0.4 + 0.2j, 0.6, 2), (-0.5 + 0.1j, 0.7, 1)]
    f = sum((multiple_kernel(spec, a, o) * c for a, c, o in mix), zero_function(spec))
    rng = np.random.default_rng(3)
    poly = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = f + as_element(spec, poly * 1e-6 * math.sqrt(13))
    cfg = OptimizerConfig(multistart=8, grid_density=12, max_iter=60)
    warm = []
    extend = engine_module._extend_greedily

    def extended(bundle, points, n, cfg):
        warm.append(extend(bundle, points, n, cfg))
        return warm[-1]

    monkeypatch.setattr(engine_module, "_extend_greedily", extended)
    results = residual_decay_sweep(spec, f, 4, cfg)
    assert results[3].params.orders == (1, 1, 2) and results[3].residual > 1e-7 * results[3].norm
    trace = results[4].trace
    entries = [e for e in trace if e["stage"] == "warm"]
    assert len(entries) == 1
    assert entries[0]["energy"] == energy(spec, f, ParamTuple(tuple(warm[-1]), cfg.merge_tol, spec.radius_cap))
    assert all(e["polish_nfev"] > 1 for e in trace if e["stage"] == "local")


@pytest.mark.parametrize("sweep", [afd_decay_sweep, residual_decay_sweep])
def test_sweep_results_own_their_coefficients(sweep):
    """Past an exact capture every n of a sweep finalizes the same tuple, and
    each result still holds a writable coefficient array of its own."""
    spec = SpaceSpec.hardy(max_degree=64, radius_cap=0.8)
    cfg = OptimizerConfig(grid_density=12, multistart=4, max_iter=200, seed=3)
    results = sweep(spec, kernel(spec, 0.3 + 0.2j), 3, cfg)
    assert results[1].params.points == results[3].params.points
    results[1].coefficients[:] = 0.0
    assert np.all(results[3].coefficients != 0.0)


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
    nearly in the span (there the pairing and the denominator are read from
    the projected row ``u_g``), and agree on which nodes are scored at all."""
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
        span = bundle.read(ParamTuple(points))
        basis = span.basis
        ortho = rows - ((rows * w) @ basis.conj().T) @ basis
        norms = np.real(np.sum(w * np.abs(ortho) ** 2, axis=1))
        gains = bundle.probs @ np.abs((bundle.matrix * w) @ ortho.conj().T) ** 2
        ok = norms > 1e-12 * np.maximum(raw, 1.0)
        got = _grid_increments(bundle, grid, span)
        assert np.array_equal(np.isfinite(got), ok)
        assert ok.sum() == len(ok) - (points == (node,))
        assert np.max(np.abs(got[ok] - gains[ok] / norms[ok]) / (gains[ok] / norms[ok])) <= 1e-9


def _mp_energy(spec, f, kernels):
    """The captured energy ``v^H G^-1 v`` of ``f`` on the span of the
    coefficient rows ``kernels``, in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        w = [mpmath.mpf(float(x)) for x in spec.weights]
        rows = [[mpmath.mpc(complex(c)) for c in row] for row in (f, *kernels)]

        def pair(x, y):
            return mpmath.fsum(wk * xk * mpmath.conj(yk) for wk, xk, yk in zip(w, x, y))

        n = len(kernels)
        gram = mpmath.matrix([[pair(rows[1 + j], rows[1 + i]) for j in range(n)] for i in range(n)])
        v = mpmath.matrix([pair(rows[0], row) for row in rows[1:]])
        return mpmath.re((v.H * mpmath.lu_solve(gram, v))[0])


def test_grid_increments_next_to_a_double_node_match_a_50_digit_reference():
    """Next to an order-2 node of the tuple, ``||K_g||^2 - sum_j |<K_g,
    Q_j>|^2`` cancels to 1e-10 of ``||K_g||^2``, so the grid reads its
    denominator from ``u_g`` there: every increment 3e-3 and 1e-2 from the
    double node is within 1e-12 of the signal's energy of the 50-digit
    difference of the two tuples' energies."""
    spec = SpaceSpec.weighted_hardy(0.5, max_degree=24, radius_cap=0.5)
    rng = np.random.default_rng(5)
    coeffs = (rng.standard_normal(25) + 1j * rng.standard_normal(25)) / (1 + np.arange(25))
    bundle = _Bundle.single(spec, as_element(spec, coeffs))
    a, b = 0.3 * np.exp(1.1j), -0.2 + 0.1j
    read = bundle.read(ParamTuple((a, a, b)))
    points = np.array([a + d * np.exp(1j * t) for d in (3e-3, 1e-2) for t in (0.0, 2.0, 3.5, 5.0)])
    got = _grid_increments(bundle, _grid(bundle, points), read)
    rows = [multiple_kernel(spec, a, 1).coeffs, multiple_kernel(spec, a, 2).coeffs, kernel(spec, b).coeffs]
    base = _mp_energy(spec, coeffs, rows)
    for g, inc in zip(points, got):
        want = _mp_energy(spec, coeffs, [*rows, kernel(spec, g).coeffs]) - base
        assert abs(inc - float(want)) <= 1e-12 * bundle.total_sq


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
    assert val == bundle.read(coincident).energy
    assert lanes[0][2]["polish_nfev"] > 1 and lanes[2][2]["polish_nfev"] > 1


def test_multistart_trace_has_one_entry_per_distinct_start_in_order(monkeypatch):
    spec = MERGE_SPACES["bergman"]
    bundle = _Bundle.single(spec, _random_signal(spec, 33))
    cfg = OptimizerConfig(grid_density=12, multistart=4, max_iter=40, seed=2)
    greedy_pts = _greedy_points(bundle, 2, cfg, [])
    searched: list = []

    def recording(bundle, cfg, starts):
        searched.extend(starts)
        return _lane_searches(bundle, cfg, starts)

    monkeypatch.setattr(engine_module, "_lane_searches", recording)
    trace: list = []
    _nbest_points(bundle, 2, cfg, trace, [tuple(greedy_pts)])
    local = [entry for entry in trace if entry["stage"] == "local"]
    # the warm start equals the greedy tuple, so it is searched once
    assert len(searched) == len(local) == 1 + cfg.multistart
    assert np.array_equal(searched[0], _as_x(greedy_pts))
    for start, entry in zip(searched, local):
        stats: dict = {}
        _, val = _local_search(bundle, cfg, start, stats=stats)
        assert entry == {"stage": "local", "energy": val, **stats}


def test_multistart_zero_with_a_short_greedy_run_searches_no_lanes():
    """With ``multistart: 0`` greedy's run stops short of n at exact capture,
    but the search certifies the kernel before greedy runs and selects its
    Prony tuple, greedy's node to 1e-12, with no lane.  The variant on the
    lanes covers greedy's capture."""
    spec = MERGE_SPACES["hardy"]
    f = kernel(spec, 0.3 + 0.1j)
    cfg = OptimizerConfig(grid_density=12, multistart=0, seed=1)
    bundle = _Bundle.single(spec, f)
    greedy_pts = _greedy_points(bundle, 3, cfg, [])
    assert len(greedy_pts) == 1
    assert _descend(None, np.zeros((0, 6)), -np.ones(6), np.ones(6), TIGHT) == []
    res = nbest(spec, f, 3, cfg)
    assert res.params.points == pytest.approx(tuple(greedy_pts), abs=1e-12)
    assert [entry["stage"] for entry in res.trace] == ["exact", "select"]
    assert res.trace[-1] == {"stage": "select", "winner": 0, "from": "exact"}


def test_multistart_zero_with_a_short_greedy_run_searches_no_lanes_on_the_lanes(declined_exact_path):
    """With ``multistart: 0`` and a greedy run that stops short of n at exact
    capture there is no start, so no lane is searched and greedy is
    selected."""
    spec = MERGE_SPACES["hardy"]
    f = kernel(spec, 0.3 + 0.1j)
    cfg = OptimizerConfig(grid_density=12, multistart=0, seed=1)
    bundle = _Bundle.single(spec, f)
    greedy_pts = _greedy_points(bundle, 3, cfg, [])
    assert len(greedy_pts) == 1
    trace: list = []
    assert _nbest_points(bundle, 3, cfg, trace) == greedy_pts
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


@pytest.mark.parametrize(
    "spec,double,single,weight",
    [
        (SpaceSpec.hardy(), -0.0519 + 0.4153j, 0.1198 + 0.0125j, 1.0),
        (SpaceSpec.bergman(1.0), 0.23 - 0.52j, 0.06 - 0.08j, 0.8),
    ],
    ids=["hardy", "bergman1"],
)
def test_weak_kernel_mix_keeps_its_double_node_on_the_lanes(declined_exact_path, spec, double, single, weight):
    test_weak_kernel_mix_keeps_its_double_node(spec, double, single, weight)


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


# -- exact kernel mixes --------------------------------------------------------------

EXACT_SPACES = {
    "hardy": SpaceSpec.hardy(128, radius_cap=0.9),
    "bergman": SpaceSpec.bergman(1.0, 128, radius_cap=0.9),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5, 128, radius_cap=0.9),
}
EXACT_CFG = OptimizerConfig(multistart=4, grid_density=12, max_iter=60, seed=1)
EXACT_NODES = (0.3 + 0.2j, -0.5 + 0.1j, 0.1 - 0.6j, 0.6 + 0.5j)
EXACT_WEIGHTS = (1.0, 0.7 - 0.2j, -0.4j, 0.5)


def _declined(search, *args):
    """``search(*args)`` with the exact path declining every signal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_exact_candidate", lambda *a: None)
        return search(*args)


def _captures(res) -> bool:
    return res.norm**2 - res.energy <= engine_module._EXACT_CAPTURE_TOL * res.norm**2


@pytest.mark.parametrize("family", sorted(EXACT_SPACES))
@pytest.mark.parametrize("orders", [(1, 1), (3,), (2, 1), (1, 1, 1), (2, 2, 3)])
def test_exact_mixes_end_the_search_at_their_prony_tuple(family, orders):
    """A mix of well separated atoms is certified by the exact path: it wins,
    recovers the atoms with their multiplicities, and leaves no more than
    the search without the path."""
    spec = EXACT_SPACES[family]
    atoms = list(zip(EXACT_NODES, EXACT_WEIGHTS, orders))
    f = kernel_mix(spec, atoms)
    n = sum(orders)
    res = nbest(spec, f, n, EXACT_CFG)
    assert res.trace[-1]["from"] == "exact"
    assert res.residual <= 1e-9 * res.norm
    assert res.residual <= max(_declined(nbest, spec, f, n, EXACT_CFG).residual, 1e-12 * res.norm)
    structure = sorted((round(c.real, 6), round(c.imag, 6), o) for c, o in res.params.node_structure())
    assert structure == sorted((round(a.real, 6), round(a.imag, 6), o) for a, _, o in atoms)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(EXACT_SPACES)),
    atoms=st.lists(
        st.tuples(
            st.floats(0.0, 0.9), st.floats(0.0, 2 * np.pi), st.integers(1, 3),
            st.floats(0.2, 2.0), st.floats(0.0, 2 * np.pi),
        ),
        min_size=1, max_size=3,
    ),
    exponent=st.floats(-6.0, 6.0),
)
def test_exact_mixes_are_certified_no_worse_than_on_the_lanes(family, atoms, exponent):
    """Mixes of 1-3 atoms of orders 1-3, radius <= 0.9, separation >= 1e-2,
    scaled by 1e-6 to 1e6.  The result is within residual / norm 1e-9 or no
    worse than the search without the exact path, a Prony winner captures
    the signal, and so does the path wherever the lanes do.  Near-confluent
    atoms can leave the Hankel too ill-conditioned for the path, which then
    declines."""
    nodes = [r * np.exp(1j * t) for r, t, *_ in atoms]
    assume(all(abs(a - b) >= 1e-2 for a, b in itertools.combinations(nodes, 2)))
    spec = EXACT_SPACES[family]
    scale = 10.0**exponent
    f = kernel_mix(spec, [(a, scale * m * np.exp(1j * p), o) for a, (_, _, o, m, p) in zip(nodes, atoms)])
    n = sum(o for _, _, o, _, _ in atoms)
    res = nbest(spec, f, n, EXACT_CFG)
    off = _declined(nbest, spec, f, n, EXACT_CFG)
    assert res.residual <= max(off.residual, 1e-9 * res.norm)
    if res.trace[-1]["from"] == "exact":
        assert _captures(res)
    if _captures(off):
        assert _captures(res)


def _non_exact_signal(spec, kind):
    mix = kernel_mix(spec, [(EXACT_NODES[0], 1.0, 2), (EXACT_NODES[1], EXACT_WEIGHTS[1], 1)])
    poly = as_element(spec, _unit_polynomial(spec, 12))
    if kind == "polynomial":
        return poly
    if kind == "mix-plus-polynomial":
        return mix + (1e-9 * norm(spec, mix) / norm(spec, poly)) * poly
    return kernel_mix(spec, [(a, c, 1) for a, c in zip(EXACT_NODES, EXACT_WEIGHTS)])  # 4 atoms


@pytest.mark.parametrize("family", sorted(EXACT_SPACES))
@pytest.mark.parametrize("kind", ["polynomial", "mix-plus-polynomial", "four-atoms"])
def test_signals_that_are_no_exact_mix_of_n_nodes_are_declined(family, kind):
    """A random polynomial, an exact mix plus a polynomial of 1e-9 of its
    norm, and four atoms searched with n = 3 are declined, and their results
    are those of the search without the exact path, bit for bit."""
    spec = EXACT_SPACES[family]
    f = _non_exact_signal(spec, kind)
    assert engine_module._exact_candidate(_Bundle.single(spec, f), 3, EXACT_CFG) is None
    res = nbest(spec, f, 3, EXACT_CFG)
    off = _declined(nbest, spec, f, 3, EXACT_CFG)
    assert res.params.points == off.params.points
    assert np.array_equal(res.coefficients, off.coefficients)
    assert (res.energy, res.residual, res.trace) == (off.energy, off.residual, off.trace)


def test_an_ensemble_of_rank_at_most_n_is_certified():
    """Realizations mixing one order-2 and one order-1 atom span two
    dimensions, and share the recurrence of order 3 of those nodes."""
    spec = EXACT_SPACES["bergman"]
    rng = np.random.default_rng(4)
    double, single = multiple_kernel(spec, EXACT_NODES[0], 2), kernel(spec, EXACT_NODES[1])
    rows = [complex(*rng.standard_normal(2)) * double + complex(*rng.standard_normal(2)) * single
            for _ in range(16)]
    res = stochastic_nbest(Ensemble.from_functions(spec, rows), 3, EXACT_CFG)
    assert res.trace[0]["rank"] == 2
    assert res.trace[-1]["from"] == "exact"
    assert res.expected_residual <= 1e-9 * res.bochner_norm
    assert sorted(o for _, o in res.params.node_structure()) == [1, 2]


@pytest.mark.parametrize("family", sorted(EXACT_SPACES))
def test_a_certified_exact_mix_runs_no_greedy(monkeypatch, family):
    """Single-n ``nbest`` on a mix with an order-2 atom, and
    ``stochastic_nbest`` on an ensemble of such mixes of rank 2 <= n, end at
    the Prony tuple with no greedy step and no grid.  Points, coefficients,
    energy and residual equal, bit for bit, those of row n of a decay sweep,
    which searches n = 1 and 2 with greedy and the lanes first and picks the
    same tuple."""
    spec = EXACT_SPACES[family]
    double, single = multiple_kernel(spec, EXACT_NODES[0], 2), kernel(spec, EXACT_NODES[1])
    f = double + EXACT_WEIGHTS[1] * single
    rng = np.random.default_rng(7)
    e = Ensemble.from_functions(spec, [
        complex(*rng.standard_normal(2)) * double + complex(*rng.standard_normal(2)) * single
        for _ in range(16)
    ])
    want = [
        residual_decay_sweep(spec, f, 3, EXACT_CFG)[3],
        engine_module._run(_Bundle(spec, e.matrix, e.probs), 3, EXACT_CFG, "stochastic_nbest", True)[3],
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("the search ran greedy or built its grid")

    monkeypatch.setattr(engine_module, "_greedy_points", forbidden)
    monkeypatch.setattr(engine_module, "_grid", forbidden)
    got = [nbest(spec, f, 3, EXACT_CFG), stochastic_nbest(e, 3, EXACT_CFG)]
    assert [entry["stage"] for entry in got[1].trace] == ["compress", "exact", "select"]
    assert got[1].trace[0]["rank"] == 2
    for res, ref in zip(got, want):
        assert ref.trace[-1]["from"] == "exact"
        assert res.trace[-2:] == [
            ref.trace[ref.trace[-1]["winner"]],
            {"stage": "select", "winner": len(res.trace) - 2, "from": "exact"},
        ]
        assert (res.params.points, res.params.orders) == (ref.params.points, ref.params.orders)
        assert sorted(o for _, o in res.params.node_structure()) == [1, 2]
        assert np.array_equal(res.coefficients, ref.coefficients.reshape(res.coefficients.shape))
        assert (res.energy, res.residual, res.norm) == (ref.energy, ref.residual, ref.norm)


def test_the_exact_path_forms_nothing_for_a_full_rank_ensemble(monkeypatch):
    """A bundle of more rows than nodes is never tested, so the full-rank
    ensemble of M = 256 searches as without the path and peaks no higher."""
    spec = SpaceSpec.hardy()
    e = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.0}, 256, seed=1)
    cfg = OptimizerConfig(multistart=4, grid_density=12, max_iter=200, seed=0)

    def peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    off, off_peak = peak(lambda: _declined(stochastic_nbest, e, 2, cfg))
    monkeypatch.setattr(engine_module, "_annihilator", None)  # must not be called
    res, on_peak = peak(lambda: stochastic_nbest(e, 2, cfg))
    assert res.trace == off.trace and np.array_equal(res.coefficients, off.coefficients)
    assert on_peak <= off_peak


@pytest.mark.parametrize("family", sorted(EXACT_SPACES))
def test_sweep_past_an_exact_capture_keeps_its_residuals_nonincreasing(family):
    """From n = 3 on, every n reads the Prony candidate of the double-node
    mix, which ends the search before greedy runs and competes with the warm
    start.  Past n = 3 that start is the previous result, the Prony tuple,
    which captures the signal and so takes no greedy step."""
    spec = EXACT_SPACES[family]
    results = residual_decay_sweep(spec, _double_node_signal(spec), 5, EXACT_CFG)
    residuals = [r.residual for r in results]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert all(r.residual <= 1e-9 * r.norm for r in results[3:])
    for res in results[3:]:
        assert [e["stage"] for e in res.trace] == ["exact", "warm", "select"]
        assert res.trace[0]["rank"] == 3
        assert res.trace[-1]["from"] == "exact"
        assert res.params.points == results[3].params.points
    for res in results[4:]:
        assert res.trace[1] == {"stage": "warm", "energy": results[3].energy}


@pytest.mark.parametrize("n", [4, 5])
def test_more_nodes_than_coefficients_end_at_the_captured_tuple(n):
    """At n >= N + 2 no recurrence of order n has a Hankel window of the
    N + 1 coefficients, so the exact path tests orders up to N only: nbest,
    a decay sweep and stochastic_nbest end at N + 1 nodes that capture the
    signals, as greedy does."""
    spec = SpaceSpec.hardy(2, radius_cap=0.05)
    f = as_element(spec, [1.0, 0.5, 0.2 + 0.1j])
    cfg = OptimizerConfig(multistart=2, grid_density=6, max_iter=20)
    greedy = afd_greedy(spec, f, n, cfg)
    ens = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.0}, 6, 1)
    results = [nbest(spec, f, n, cfg), *residual_decay_sweep(spec, f, n, cfg)[3:], stochastic_nbest(ens, n, cfg)]
    for res in [greedy, *results]:
        assert len(res.params.points) == 3
        assert res.residual <= 1e-13 * res.norm


@pytest.mark.parametrize("family", sorted(EXACT_SPACES))
def test_sweep_past_the_capture_of_a_signal_that_is_no_exact_mix(family):
    """An exact mix plus a polynomial of 1e-9 of its norm is declined by the
    exact path and captured from n = 3 on.  Every later row's warm start is
    the previous result, which captures the signal, takes no greedy step and
    competes as it is, so no residual exceeds the one before, also where
    that result has fewer nodes than the row before it."""
    spec = EXACT_SPACES[family]
    results = residual_decay_sweep(spec, _non_exact_signal(spec, "mix-plus-polynomial"), 5, EXACT_CFG)
    residuals = [r.residual for r in results]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert all(_captures(r) for r in results[3:])
    for prev, res in zip(results[3:], results[4:]):
        assert {"stage": "warm", "energy": prev.energy} in res.trace


# -- the ranking window --------------------------------------------------------------

WINDOW_SPACES = {
    "hardy": SpaceSpec.hardy(64, radius_cap=0.8),
    "bergman": SpaceSpec.bergman(1.0, 64, radius_cap=0.8),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5, 64, radius_cap=0.8),
}
WINDOW_CFG = OptimizerConfig(grid_density=12, multistart=2, max_iter=40, seed=5)


def _degraded_warm_search():
    """A certified exact mix of two atoms at n = 3 whose warm tuples degrade:
    the atoms with a third node 1e-12 from one of them, whose prefix captures
    the signal, and two other nodes with one such neighbour, far below it."""
    spec = EXACT_SPACES["hardy"]
    cfg = OptimizerConfig(multistart=4, grid_density=12, max_iter=60, seed=1, merge_tol=1e-14)
    a, b, c, d = EXACT_NODES
    bundle = _Bundle.single(spec, kernel_mix(spec, [(a, 1.0, 1), (b, EXACT_WEIGHTS[1], 1)]))
    warm = [(a, b, a + 1e-12), (c, c + 1e-12, d)]
    assert all(bundle.read(bundle.make_tuple(w, cfg)).degraded for w in warm)
    trace: list = []
    best = _nbest_points(bundle, 3, cfg, trace, warm=warm)
    assert [e["stage"] for e in trace] == ["exact", "warm", "warm", "select"]
    return [_result(bundle, cfg, "nbest", best, trace)]


def _window_search(kind):
    if kind.startswith("sweep-"):
        spec = WINDOW_SPACES[kind[len("sweep-") :]]
        return residual_decay_sweep(spec, as_element(spec, _unit_polynomial(spec, 38)), 3, WINDOW_CFG)
    spec = EXACT_SPACES["hardy"]
    if kind == "full-rank":
        e = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.0}, 6, seed=2)
        res = stochastic_nbest(e, 2, FAST)
        assert res.trace[0]["rank"] == 6
        return [res]
    if kind == "rank-1":  # three atoms at n = 2: no exact mix, so the lanes run
        f = kernel_mix(spec, [(a, c, 1) for a, c in zip(EXACT_NODES[:3], EXACT_WEIGHTS)])
        res = stochastic_nbest(Ensemble.from_functions(spec, [f, -0.5 * f, 2j * f]), 2, FAST)
        assert res.trace[0]["rank"] == 1
        return [res]
    if kind == "near-capture":
        return [nbest(spec, _non_exact_signal(spec, "mix-plus-polynomial"), 3, EXACT_CFG)]
    return _degraded_warm_search()


def _ranked(kind, margin):
    """The results of the search ``kind`` with the ranking margin
    ``margin``, and how many tuples had their residual summed."""
    summed = []
    residual = _Bundle._residual

    def counted(self, rows, basis, coeffs):
        if rows.start == 0:
            summed.append(coeffs)
        return residual(self, rows, basis, coeffs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "_RANK_MARGIN", margin)
        patch.setattr(_Bundle, "_residual", counted)
        return _window_search(kind), len(summed)


@pytest.mark.parametrize(
    "kind",
    [*(f"sweep-{family}" for family in sorted(WINDOW_SPACES)), "full-rank", "rank-1", "near-capture", "degraded"],
)
def test_the_ranking_window_keeps_the_winner_of_every_candidate(kind):
    """Finalizing only the candidates within ``_RANK_MARGIN`` of the best
    energy picks the winner that finalizing every candidate picks: the same
    points, coefficients, energy, residual and trace, bit for bit, on decay
    sweeps in three families, a full-rank and a rank-1 ensemble, a signal
    within 1e-9 of an exact mix, where lanes end 1e-11 to 1e-8 of its
    energy apart, and a search among degraded tuples.  Each search leaves
    some candidate out of the window."""
    got, summed = _ranked(kind, engine_module._RANK_MARGIN)
    want, summed_all = _ranked(kind, math.inf)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array(a.params.points).tobytes() == np.array(b.params.points).tobytes()
        assert a.params.orders == b.params.orders
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert (a.energy, a.residual, a.degraded, a.trace) == (b.energy, b.residual, b.degraded, b.trace)
    assert summed < summed_all
