import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbestkernel import (
    DivergenceRiskError,
    Ensemble,
    OptimizerConfig,
    ParamTuple,
    SpaceSpec,
    as_element,
    bochner_norm,
    energy,
    generate_ensemble,
    kernel,
    kernel_matrix,
    nbest,
    norm,
    stochastic_energy,
    stochastic_nbest,
)
from nbestkernel.engine import (
    _RANK_BLOCK,
    _Bundle,
    _disc_grid,
    _grid,
    _grid_increments,
    _nbest_points,
    _flushed,
)
from nbestkernel import engine
from nbestkernel.stochastic import kernel_mix

FAST = OptimizerConfig(grid_density=16, multistart=4, max_iter=800, seed=3)


def test_bochner_norm_single_realization(hardy):
    f = kernel(hardy, 0.4)
    e = Ensemble.from_functions(hardy, [f])
    assert bochner_norm(e) == pytest.approx(norm(hardy, f), rel=1e-14)


def test_bochner_norm_scaled_kernels(hardy):
    f = kernel(hardy, 0.4)
    e = Ensemble.from_functions(hardy, [f, 2.0 * f])
    assert bochner_norm(e) == pytest.approx(math.sqrt(2.5 / (1 - 0.16)), rel=1e-12)


def test_bochner_norm_zero_ensemble(hardy):
    zeros = as_element(hardy, [0.0])
    e = Ensemble.from_functions(hardy, [zeros, zeros])
    assert bochner_norm(e) == 0.0


def test_ensemble_validation(hardy):
    f = kernel(hardy, 0.2)
    with pytest.raises(ValueError):
        Ensemble.from_functions(hardy, [f], weights=[0.5])
    with pytest.raises(ValueError):
        Ensemble.from_functions(hardy, [f, f], weights=[0.7, 0.7])


def test_stochastic_energy_single_matches_energy(hardy):
    rng = np.random.default_rng(8)
    f = as_element(hardy, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    e = Ensemble.from_functions(hardy, [f])
    t = ParamTuple((0.2, -0.4j))
    assert stochastic_energy(e, t) == pytest.approx(energy(hardy, f, t), rel=1e-14)


def test_stochastic_energy_scalar_multiples_exact_capture(hardy):
    a = 0.35
    k = kernel(hardy, a)
    xis = [1.0, 2.0 - 1.0j, -0.5j]
    e = Ensemble.from_functions(hardy, [xi * k for xi in xis])
    val = stochastic_energy(e, ParamTuple((a,)))
    expected = np.mean([abs(xi) ** 2 for xi in xis]) * norm(hardy, k) ** 2
    assert val == pytest.approx(expected, rel=1e-12)


def test_stochastic_energy_monotone_extension(hardy):
    e = generate_ensemble(hardy, "decaying_gaussian", {"gamma": 2.0}, 8, seed=4)
    small = stochastic_energy(e, ParamTuple((0.3,)))
    big = stochastic_energy(e, ParamTuple((0.3, -0.2j)))
    assert big >= small - 1e-12


def test_stochastic_energy_convex_in_weights(hardy):
    rng = np.random.default_rng(10)
    f1 = as_element(hardy, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    f2 = as_element(hardy, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    t = ParamTuple((0.25, -0.3))
    for p in (0.0, 0.3, 0.8, 1.0):
        merged = Ensemble.from_functions(hardy, [f1, f2], weights=[p, 1.0 - p])
        lhs = stochastic_energy(merged, t)
        rhs = p * energy(hardy, f1, t) + (1.0 - p) * energy(hardy, f2, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# -- generators ------------------------------------------------------------------


def test_generate_kernel_mix_ones(hardy):
    e = generate_ensemble(
        hardy, "kernel_mix", {"atoms": [(0.3, 1.0, 1)], "xi": "ones"}, 3, seed=0
    )
    assert len(e) == 3
    assert np.array_equal(e.matrix[0], e.matrix[1])
    assert np.array_equal(e.matrix[0], e.matrix[2])


def test_generate_deterministic(hardy):
    e1 = generate_ensemble(hardy, "decaying_gaussian", {"gamma": 2.0}, 16, seed=9)
    e2 = generate_ensemble(hardy, "decaying_gaussian", {"gamma": 2.0}, 16, seed=9)
    assert np.array_equal(e1.matrix, e2.matrix)


def test_generate_gaussian_second_moment(hardy):
    # per-component std (1+k)^-gamma, so E |c_k|^2 = 2 (1+k)^(-2 gamma)
    e = generate_ensemble(hardy, "decaying_gaussian", {"gamma": 2.0}, 64, seed=13)
    ks = np.arange(hardy.max_degree + 1)
    analytic = math.sqrt(np.sum(2.0 * (1.0 + ks) ** -4.0))
    assert bochner_norm(e) == pytest.approx(analytic, rel=0.2)


def test_generate_gaussian_divergence_guard():
    dirichlet = SpaceSpec.weighted_hardy(1.0)
    with pytest.raises(DivergenceRiskError):
        generate_ensemble(dirichlet, "decaying_gaussian", {"gamma": 1.0}, 4, seed=0)
    generate_ensemble(dirichlet, "decaying_gaussian", {"gamma": 1.5}, 4, seed=0)


def test_generated_realizations_are_the_draws_bit_for_bit(hardy_small):
    """Each generator writes into the ensemble's one array the bits of its
    whole-array formula on the same stream: ``sd * (re + 1j * im)`` with all
    real parts drawn before the imaginary ones, and ``xi[:, None] * base``;
    M = 100 ends in a partial row block."""
    m, n1, seed = 100, hardy_small.max_degree + 1, 4
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((m, n1))
    im = rng.standard_normal((m, n1))
    want = (1.0 + np.arange(n1)) ** -1.5 * (re + 1j * im)
    e = generate_ensemble(hardy_small, "decaying_gaussian", {"gamma": 1.5}, m, seed)
    assert e.matrix.tobytes() == want.tobytes()

    atoms = [(0.3 + 0.1j, 1.0, 1), (-0.35 - 0.2j, 0.8 + 0.4j, 2)]
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    want = xi[:, None] * kernel_mix(hardy_small, atoms).coeffs
    e = generate_ensemble(hardy_small, "kernel_mix", {"atoms": atoms}, m, seed)
    assert e.matrix.tobytes() == want.tobytes()


def test_ensemble_does_not_share_a_callers_array(hardy_small):
    """An ensemble copies a matrix its caller can still write to, directly or
    through the array a read-only view looks into, and keeps its own
    read-only."""
    rng = np.random.default_rng(6)
    n1 = hardy_small.max_degree + 1
    matrix = rng.standard_normal((3, n1)) + 1j * rng.standard_normal((3, n1))
    probs = np.full(3, 1.0 / 3.0)
    view = matrix[:]
    view.setflags(write=False)
    kept = matrix.copy()
    ensembles = [Ensemble(hardy_small, matrix, probs), Ensemble(hardy_small, view, probs)]
    matrix[:] = 0.0
    probs[:] = 0.0
    for e in ensembles:
        assert np.array_equal(e.matrix, kept)
        assert np.array_equal(e.probs, np.full(3, 1.0 / 3.0))
        assert not e.matrix.flags.writeable


# -- shared-node search ------------------------------------------------------------


def test_stochastic_nbest_matches_nbest_for_single_realization(hardy):
    rng = np.random.default_rng(21)
    for spec in (hardy, SpaceSpec.bergman(1.0)):
        f = as_element(spec, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        single = stochastic_nbest(Ensemble.from_functions(spec, [f]), 2, FAST)
        plain = nbest(spec, f, 2, FAST)
        assert single.params.points == plain.params.points
        assert (single.expected_energy, single.expected_residual) == (plain.energy, plain.residual)
        assert single.bochner_norm == plain.norm
        assert single.coefficients.shape == (1, 2)
        assert np.array_equal(single.coefficients[0], plain.coefficients)
        # the same trace after the compress entry, whose indices it shifts by one
        assert single.trace[0] == {"stage": "compress", "realizations": 1, "rank": 1}
        shifted = [
            {k: v + 1 if k in ("winner", "merged_from", "same_as") else v for k, v in entry.items()}
            for entry in plain.trace
        ]
        assert single.trace[1:] == shifted


def test_stochastic_nbest_shared_parameters_recover_common_span(hardy):
    e = generate_ensemble(
        hardy, "kernel_mix", {"atoms": [(0.3, 1.0, 1), (-0.4, 1.0, 1)]}, 8, seed=7
    )
    res = stochastic_nbest(e, 2, FAST)
    pts = sorted(res.params.points, key=lambda p: p.real)
    assert abs(pts[0] - (-0.4)) <= 1e-3
    assert abs(pts[1] - 0.3) <= 1e-3
    assert res.expected_residual <= 1e-6 * res.bochner_norm
    # one tuple, per-realization coefficients
    assert res.coefficients.shape == (8, 2)
    assert res.expected_energy + res.expected_residual**2 == pytest.approx(
        res.bochner_norm**2, rel=1e-8
    )


def test_stochastic_nbest_beats_mean_function_tuple(hardy):
    # realizations with independent atom weights: the mean function collapses
    # toward one atom, so its best tuple is a genuinely suboptimal candidate
    rng = np.random.default_rng(3)
    k1, k2 = kernel(hardy, 0.25), kernel(hardy, -0.5j)
    funcs = [
        complex(rng.standard_normal(), rng.standard_normal()) * k1
        + complex(rng.standard_normal(), rng.standard_normal()) * k2
        for _ in range(12)
    ]
    e = Ensemble.from_functions(hardy, funcs)
    res = stochastic_nbest(e, 1, FAST)
    mean = as_element(hardy, (e.probs[:, None] * e.matrix).sum(axis=0))
    mean_tuple = nbest(hardy, mean, 1, FAST).params
    candidate_energy = stochastic_energy(e, mean_tuple)
    candidate_residual = math.sqrt(max(res.bochner_norm**2 - candidate_energy, 0.0))
    assert res.expected_residual <= candidate_residual + 1e-9


def test_stochastic_boundary_decay():
    # empirical rim decay of the last-coordinate energy increment
    spec = SpaceSpec("hardy", 0.0, 1024, radius_cap=0.999, truncation_tol=0.2)
    e = generate_ensemble(
        spec, "kernel_mix", {"atoms": [(0.3, 1.0, 1), (-0.4, 1.0, 1)]}, 32, seed=7
    )
    rng = np.random.default_rng(5)
    a1 = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    base = stochastic_energy(e, ParamTuple((a1,), radius_cap=0.999))
    rim = max(
        stochastic_energy(e, ParamTuple((a1, 0.999 * w), radius_cap=0.999)) - base
        for w in np.exp(2j * np.pi * np.arange(64) / 64)
    )
    interior = max(
        stochastic_energy(e, ParamTuple((a1, r * w), radius_cap=0.999)) - base
        for r in np.linspace(0.05, 0.95, 16)
        for w in np.exp(2j * np.pi * np.arange(32) / 32)
    )
    assert rim <= 0.05 * interior


# -- exact low-rank factor ----------------------------------------------------------

FACTOR_SPACES = {
    "hardy": SpaceSpec.hardy(24, radius_cap=0.5),
    "bergman": SpaceSpec.bergman(1.0, 24, radius_cap=0.5),
    "weighted_hardy": SpaceSpec.weighted_hardy(0.5, 24, radius_cap=0.5),
}
# (rank, M): rank 1, rank 3 and full rank; M > N + 1 = 25 makes the full-rank
# ensemble compressible to its 25 columns.
FACTOR_SHAPES = {"rank1": (1, 16), "rank3": (3, 16), "full": (25, 40)}


def _low_rank_bundle(spec, rank, m, zero_weights):
    rng = np.random.default_rng(5)
    n1 = spec.max_degree + 1
    base = rng.standard_normal((rank, n1)) + 1j * rng.standard_normal((rank, n1))
    mix = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    probs = rng.uniform(0.5, 1.5, m)
    if zero_weights:
        probs[::3] = 0.0
    return _Bundle(spec, mix @ (base / (1.0 + np.arange(n1))), probs / probs.sum())


@pytest.mark.parametrize("shape", sorted(FACTOR_SHAPES))
@pytest.mark.parametrize("family", sorted(FACTOR_SPACES))
@settings(max_examples=12, deadline=None)
@given(
    zero_weights=st.booleans(),
    radii=st.lists(st.floats(0.0, 0.45), min_size=1, max_size=3),
    angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
    double=st.booleans(),
)
def test_factor_matches_full_ensemble(family, shape, zero_weights, radii, angles, double):
    spec = FACTOR_SPACES[family]
    rank, m = FACTOR_SHAPES[shape]
    full = _low_rank_bundle(spec, rank, m, zero_weights)
    factor = full.compressed()
    assert factor.matrix.shape == (rank, spec.max_degree + 1)
    assert np.array_equal(factor.probs, np.ones(rank))
    scale = full.total_sq
    assert factor.total_sq == pytest.approx(scale, rel=1e-12, abs=0.0)

    distinct = []
    for p in (r * np.exp(1j * t) for r, t in zip(radii, angles)):
        if all(abs(p - q) >= 0.2 for q in distinct):
            distinct.append(complex(p))
    points = [distinct[0]] * (1 + double) + distinct[1:]
    owners = np.array([0] * (1 + double) + list(range(1, len(distinct))))
    params = ParamTuple(tuple(points), radius_cap=0.5)

    centers = np.array([params.centers])
    got, want = (b.captured(centers, params.orders, owners) for b in (factor, full))
    assert got.failed[0] == want.failed[0]
    if not want.failed[0]:
        assert abs(got.value[0] - want.value[0]) <= 1e-12 * scale
        assert np.max(np.abs(got.grad[0] - want.grad[0])) <= 1e-12 * scale
    got, want = ((b.read(params).energy, b.read(params).degraded) for b in (factor, full))
    assert got[1] == want[1]
    assert abs(got[0] - want[0]) <= 1e-12 * scale

    points = _disc_grid(0.45, 8)
    got = _grid_increments(factor, _grid(factor, points), factor.read(params))
    want = _grid_increments(full, _grid(full, points), full.read(params))
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    ok = np.isfinite(want)
    assert np.max(np.abs(got[ok] - want[ok])) <= 1e-12 * scale

    cfg = OptimizerConfig()
    _, _, got_energy, got_residual, _ = factor.finalize(factor.make_tuple(points, cfg))
    _, _, want_energy, want_residual, _ = full.finalize(full.make_tuple(points, cfg))
    assert abs(got_residual**2 - want_residual**2) <= 1e-12 * scale
    assert abs(got_energy - want_energy) <= 1e-12 * scale


def test_factor_of_single_and_full_rank_bundles_is_the_bundle(hardy_small):
    single = _Bundle.single(hardy_small, kernel(hardy_small, 0.3))
    assert single.compressed() is single
    e = generate_ensemble(hardy_small, "decaying_gaussian", {"gamma": 1.0}, 32, seed=1)
    full = _Bundle(e.spec, e.matrix, e.probs)
    assert full.compressed() is full
    # a zero weight removes a realization from the ensemble's form
    probs = np.r_[0.0, np.full(31, 1.0 / 31)]
    thinned = _Bundle(e.spec, e.matrix, probs).compressed()
    assert thinned.matrix.shape[0] == 31


def test_a_full_rank_ensemble_of_one_block_is_factored_once(monkeypatch, hardy_small):
    """For M <= ``_RANK_BLOCK`` the first block's Gram matrix is the whole
    ensemble's, so the full-rank screen runs one Cholesky factorization."""
    e = generate_ensemble(hardy_small, "decaying_gaussian", {"gamma": 1.0}, 8, seed=1)
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    full = _Bundle(e.spec, e.matrix, e.probs)
    assert full.compressed() is full
    assert calls == [(8, 8)]


def test_full_rank_search_is_the_uncompressed_search(hardy_small):
    e = generate_ensemble(hardy_small, "decaying_gaussian", {"gamma": 1.0}, 6, seed=2)
    res = stochastic_nbest(e, 2, FAST)
    bundle = _Bundle(e.spec, e.matrix, e.probs)
    trace = [{"stage": "compress", "realizations": 6, "rank": 6}]
    params, coeffs, cap, residual, _ = bundle.finalize(_nbest_points(bundle, 2, FAST, trace))
    assert res.params.points == params.points
    assert np.array_equal(res.coefficients, coeffs)
    assert (res.expected_energy, res.expected_residual) == (cap, residual)
    assert res.trace == trace


def test_trace_names_rank_and_winner(hardy_small, exact_path=True):
    e = generate_ensemble(
        hardy_small, "kernel_mix", {"atoms": [(0.3, 1.0, 1), (-0.4, 1.0, 1)]}, 64, seed=7
    )
    res = stochastic_nbest(e, 2, FAST)
    assert res.trace[0] == {"stage": "compress", "realizations": 64, "rank": 1}
    assert res.coefficients.shape == (64, 2)
    select = res.trace[-1]
    assert select["stage"] == "select"
    entry = res.trace[select["winner"]]
    assert entry["stage"] == select["from"]
    assert select["from"] in ("greedy", "local", "merge-polish") + (("exact",) if exact_path else ())
    assert entry["energy"] == pytest.approx(res.expected_energy, rel=1e-9)


def test_trace_names_rank_and_winner_on_the_lanes(declined_exact_path, hardy_small):
    test_trace_names_rank_and_winner(hardy_small, exact_path=False)


class _Signals(np.ndarray):
    """A bundle's signal matrix that records its coefficient passes: each
    product ``(F[rows] * W) @ Q^H`` of a row block times the space's weights
    with the conjugate transpose of basis rows, as the bytes of ``Q``.  Its
    ufuncs give plain arrays with the same bits, except that a product with
    the weights gives a ``_Weighted`` block, whose matmul is recorded."""

    weights: np.ndarray
    passes: list

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        plain = [np.asarray(x) if isinstance(x, np.ndarray) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0]
        if ufunc is np.multiply and inputs[0] is self and inputs[1] is _Signals.weights:
            return result.view(_Weighted)
        return result


class _Weighted(np.ndarray):
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(x) if isinstance(x, np.ndarray) else x for x in inputs]
        if ufunc is np.matmul and inputs[0] is self and plain[1].ndim == 2:
            _Signals.passes.append(np.ascontiguousarray(plain[1].conj().T).tobytes())
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("kind", ["sweep", "full-rank"])
def test_a_search_forms_each_tuple_coefficients_once(monkeypatch, kind):
    """A residual sweep on one signal and a search on a full-rank ensemble
    run on the bundle itself, and form the coefficients ``<f_m, Q_j>`` of
    each tuple they keep once: the values a search reports, the spans of
    greedy prefixes, the ranking of candidates and the results read one
    coefficient pass of each kept basis, and the empty tuple needs none."""
    spec = SpaceSpec.bergman(1.0, 48, radius_cap=0.8)
    cfg = OptimizerConfig(grid_density=10, multistart=4, max_iter=100, seed=5)
    if kind == "sweep":
        rng = np.random.default_rng(4)
        head = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        matrix, probs, n = np.pad(head, (0, 41))[None], np.ones(1), 3
    else:
        e = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.0}, 24, seed=6)
        matrix, probs, n = e.matrix, e.probs, 2
    monkeypatch.setattr(_Signals, "weights", spec.weights, raising=False)
    monkeypatch.setattr(_Signals, "passes", [], raising=False)
    bundle = _Bundle(spec, np.array(matrix).view(_Signals), probs)
    results = engine._run(bundle, n, cfg, "nbest" if kind == "sweep" else "stochastic_nbest", kind == "sweep")
    assert bundle.compressed() is bundle and results[-1].trace[-1]["stage"] == "select"
    kept = [basis.tobytes() for basis, _ in bundle._systems.values()]
    assert len(kept) >= 3
    assert sorted(_Signals.passes) == sorted(kept)


def _ranked_tuples(res) -> tuple[list, float]:
    """The trace entries of the tuples a search ranks, each tuple's earliest
    record (no ``same_as``), and the floor of its ranking window."""
    firsts = [entry for entry in res.trace if "energy" in entry and "same_as" not in entry]
    return firsts, max(entry["energy"] for entry in firsts) - engine._RANK_MARGIN * res.norm**2


@pytest.mark.parametrize("kind", ["single", "full-rank"])
def test_a_search_on_the_bundle_finalizes_each_tuple_once(hardy_small, monkeypatch, kind):
    """Where the search runs on the bundle itself (M = 1, or full rank), the
    result reads the candidate ranking's finalization of the winner instead of
    finalizing it again: the residual norm of each distinct tuple within the
    ranking window is summed once, over the residual of its read's
    coefficients (``finalize`` is the one caller of ``_residual``), and no
    other residual is summed.  In both searches lanes re-find a tuple that an
    earlier candidate recorded, and those repeats are not summed."""
    calls, summed = [], []
    residual = _Bundle._residual

    def counted(self, rows, basis, coeffs):
        calls.append((id(self), id(coeffs), rows.start))
        if rows.start == 0:
            summed.append(float(self.probs @ np.sum(np.abs(coeffs) ** 2, axis=1)))  # the read's energy
        return residual(self, rows, basis, coeffs)

    monkeypatch.setattr(_Bundle, "_residual", counted)
    if kind == "single":
        rng = np.random.default_rng(12)
        f = as_element(hardy_small, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        res = nbest(hardy_small, f, 2, FAST)
    else:
        e = generate_ensemble(hardy_small, "decaying_gaussian", {"gamma": 1.0}, 6, seed=2)
        res = stochastic_nbest(e, 2, FAST)
        assert res.trace[0]["rank"] == 6
    assert res.trace[-1]["stage"] == "select"
    assert any("same_as" in entry for entry in res.trace)  # some lane re-found a tuple
    assert len(calls) == len(set(calls))
    firsts, floor = _ranked_tuples(res)
    assert sorted(summed) == sorted(entry["energy"] for entry in firsts if entry["energy"] >= floor)


def test_a_full_rank_search_sums_residuals_only_inside_the_ranking_window(hardy_small, monkeypatch):
    """The ranking sums the residual of each distinct tuple whose energy is
    within ``_RANK_MARGIN`` of the signals' energy of the best one's, once,
    and of no other candidate: here greedy's tuple and the merge polish's,
    1e-3 of the energy or more below the lanes, are never finalized, and
    neither are the lanes that re-find the first lane's tuple inside the
    window."""
    summed = []
    residual = _Bundle._residual

    def counted(self, rows, basis, coeffs):
        if rows.start == 0:
            summed.append(float(self.probs @ np.sum(np.abs(coeffs) ** 2, axis=1)))  # the read's energy
        return residual(self, rows, basis, coeffs)

    monkeypatch.setattr(_Bundle, "_residual", counted)
    e = generate_ensemble(hardy_small, "decaying_gaussian", {"gamma": 1.0}, 6, seed=2)
    res = stochastic_nbest(e, 2, FAST)
    assert res.trace[0]["rank"] == 6
    firsts, floor = _ranked_tuples(res)
    inside = [entry["energy"] for entry in firsts if entry["energy"] >= floor]
    outside = {entry["stage"] for entry in res.trace if entry.get("energy", math.inf) < floor}
    assert outside == {"greedy", "merge-polish"}
    repeats = [entry for entry in res.trace if "same_as" in entry]
    assert repeats and all(entry["energy"] >= floor for entry in repeats)
    assert sorted(summed) == sorted(inside)


@pytest.mark.parametrize("m", [1, _RANK_BLOCK + 1])
@pytest.mark.parametrize("scale", [1.0, 2.0**-500, 2.0**300])
def test_finalize_sums_the_residual_unflushed_to_the_flushed_bits(m, scale):
    """``finalize`` sums its residual unflushed, and its norm has the bits of
    the flushed residual's: entries below ``_TINY_POWER`` of their row's
    largest cannot move a sum of squares.  The signals are kernel mixes at
    radius 0.8 or below on degree 1024, whose residual tails fall below that
    bound, at three scales, on one realization and on M = 65, whose last row
    block has one row."""
    spec = SpaceSpec.bergman(1.0, 1024, radius_cap=0.8)
    rng = np.random.default_rng(m)
    nodes = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, (m, 3))) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (m, 3)))
    weights = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    matrix = scale * np.stack([w @ kernel_matrix(spec, a) for a, w in zip(nodes, weights)])
    bundle = _Bundle(spec, matrix, np.full(m, 1.0 / m))
    cfg = OptimizerConfig()
    points = (0.5 + 0.1j, -0.3 + 0.4j)
    _, _, _, got, _ = bundle.finalize(bundle.make_tuple(points, cfg))
    read = bundle.read(bundle.make_tuple(points, cfg))
    resid_sq, flushed = np.empty(m), 0
    for rows in bundle._blocks():
        block = bundle._residual(rows, read.basis, read.coeffs)
        flushed += np.count_nonzero(block) - np.count_nonzero(_flushed(block))
        resid_sq[rows] = np.sum(spec.weights * np.abs(block) ** 2, axis=1)
    assert flushed > 0
    assert got == math.sqrt(max(float(bundle.probs @ resid_sq), 0.0))


# -- row blocks and bounded memory -----------------------------------------------------

BLOCK_SPACE = SpaceSpec.bergman(1.0, 40, radius_cap=0.6)
BLOCK_TUPLES = [
    ParamTuple((0.3 + 0.1j,), radius_cap=0.6),
    ParamTuple((0.3 + 0.1j, -0.2 + 0.4j, -0.2 + 0.4j), radius_cap=0.6),  # with an order-2 node
]


def _block_bundle(m):
    """M realizations of widely spread norms; for M > 1 one row is zero and
    another has probability zero."""
    rng = np.random.default_rng(m)
    n1 = BLOCK_SPACE.max_degree + 1
    matrix = (rng.standard_normal((m, n1)) + 1j * rng.standard_normal((m, n1))) / (1.0 + np.arange(n1))
    matrix *= np.exp(rng.uniform(-4.0, 4.0, (m, 1)))
    probs = rng.uniform(0.5, 1.5, m)
    if m > 1:
        matrix[m // 2] = 0.0
        probs[m // 3] = 0.0
    return _Bundle(BLOCK_SPACE, matrix, probs / probs.sum())


@pytest.mark.parametrize("m", [1, _RANK_BLOCK - 1, _RANK_BLOCK, _RANK_BLOCK + 1, 200])
def test_row_block_passes_equal_whole_array_formulas(m):
    """Every pass over the realizations runs a row block at a time; each
    quantity equals its formula on the whole matrix at once, bit for bit, for
    M on both sides of a block boundary and ending in a partial block: the
    norms, the MGS energy, a read's basis and energy, and the coefficients,
    energy and residual norm of ``finalize``.  The one exception is a last
    block of a single row (M = 65): numpy takes a one-row product through its
    vector kernels, which round otherwise, so that row's coefficients, and
    the sums over rows, agree to 1e-12 relative."""
    bundle = _block_bundle(m)
    matrix, probs, w = bundle.matrix, bundle.probs, BLOCK_SPACE.weights
    alone = m % _RANK_BLOCK == 1 and m > 1
    exact = slice(None, -1) if alone else slice(None)

    def same_rows(got, want):
        assert np.array_equal(got[exact], want[exact])
        if alone:
            assert np.max(np.abs(got[-1] - want[-1])) <= 1e-12 * np.max(np.abs(want[-1]))

    def same(got, want):
        assert got == want if not alone else abs(got - want) <= 1e-12 * abs(want)

    weighted = matrix * w
    assert np.array_equal(bundle.norms_sq, np.real(np.sum(weighted * np.conj(matrix), axis=1)))
    cfg = OptimizerConfig(merge_tol=1e-9)
    for params in BLOCK_TUPLES:
        kept, degraded = bundle.system(params)
        c = weighted @ kept.conj().T
        read = bundle.read(params)
        got, got_degraded = read.energy, read.degraded
        same(got, float(probs @ np.sum(np.abs(c) ** 2, axis=1)))
        assert got_degraded == degraded

        basis = _flushed(kept.copy())
        coeffs = weighted @ basis.conj().T
        energy = float(probs @ np.sum(np.abs(coeffs) ** 2, axis=1))
        residual = matrix - coeffs @ basis
        residual -= (residual @ (w * basis).conj().T) @ basis
        residual = _flushed(residual)
        assert np.array_equal(read.basis, basis)
        same(read.energy, energy)

        _, got_coeffs, got_energy, got_residual, _ = bundle.finalize(bundle.make_tuple(params.points, cfg))
        same_rows(got_coeffs, coeffs)
        same(got_energy, energy)
        resid_sq = np.sum(w * np.abs(residual) ** 2, axis=1)
        same(got_residual, math.sqrt(max(float(probs @ resid_sq), 0.0)))


def test_rank1_ensemble_peak_memory_is_bounded(hardy_small):
    """Generating a rank-1 ensemble of M = 4096 (16.8 MB of coefficients) and
    searching it allocate at most half that again: the ensemble holds one
    coefficient array, and the passes over it keep block-sized temporaries."""
    atoms = [(0.3 + 0.1j, 1.0, 1), (-0.35 - 0.2j, 0.8 + 0.4j, 1)]
    cfg = OptimizerConfig(multistart=4, grid_density=12, max_iter=200, seed=0)
    tracemalloc.start()
    try:
        e = generate_ensemble(hardy_small, "kernel_mix", {"atoms": atoms}, 4096, seed=7)
        res = stochastic_nbest(e, 2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trace[0]["rank"] == 1
    assert peak <= 1.5 * e.matrix.nbytes


def test_full_rank_search_peak_memory_is_bounded():
    """A search on a full-rank ensemble of M = 256 on hardy degree 1024 (4.2
    MB of coefficients) allocates at most 1.5 times its coefficient bytes:
    greedy reads each prefix's coefficients and forms no residual array.  It
    measured 1.28 times them, most of it the rank screen's M x M Gram matrix
    and its Cholesky factor; with the M x (N+1) residual that greedy's spans
    held, 1.70 times."""
    spec = SpaceSpec.hardy()
    e = generate_ensemble(spec, "decaying_gaussian", {"gamma": 1.0}, 256, seed=1)
    cfg = OptimizerConfig(multistart=4, grid_density=12, max_iter=200, seed=0)
    tracemalloc.start()
    try:
        res = stochastic_nbest(e, 2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.trace[0]["rank"] == 256
    assert peak <= 1.5 * e.matrix.nbytes
