"""Captured-energy objective, greedy node selection and multistart global search.

The objective for a node tuple is the energy captured by projecting onto the
tuple's kernel span, ``sum_m p_m v_m^H G^{-1} v_m`` with pairings
``v_i = <f, K_i>`` and kernel Gram matrix ``G``, evaluated through one Cholesky
factorization.  Its Wirtinger gradient is closed-form because the derivative
of a kernel in its conjugated parameter is the next-order kernel.  The search
domain is the set of points this evaluation accepts: a point whose Cholesky
pivots signal near-dependence, or whose moving nodes merge, has value +inf
(``_Objective.value_and_grad``), so a line search backtracks from it.
Modified Gram-Schmidt (MGS), the reference, produces every reported value and
the final coefficients.

The search's kernel rows come from ``spaces`` (``_kernel_powers``,
``_kernel_rows``): powers ``conj(c)**k`` as products of two running-product
blocks, flushed below 1e-75, times a falling factorial for higher orders.
The MGS reference keeps its own power sources, the running product of
``kernel_matrix`` and the per-entry powers of ``multiple_kernel``, so the
search and its reference round independently and the reference's bits,
which tests pin, stay as they are.

A kernel at radius r has coefficients that fall like r**k, so the Gram path
forms each tuple's kernel rows only as long as the tuple needs
(``_Bundle._row_lengths``): the shortest of 32, 64, 128, 256 and 512
entries, or all N + 1, at which a tail bound on every row it forms, of each
node's order and of the next order for the gradient, is at most eps**2 of the
row's squared norm.  The dropped tail moves a Gram entry by at most eps**2
||K_i|| ||K_j|| and a pairing ``<f_m, K_i>`` by at most eps ||f_m|| ||K_i||,
below the rounding of the full-length sums.  The length depends on the tuple
alone, and the products that depend on it run per group of tuples of equal
length, so a tuple's results keep their bits in any batch.  Greedy's span,
the grid, MGS and ``finalize`` use full rows.

Every local search is a bounded dense BFGS run on that gradient (in numpy,
over the box of the search radius), run as lanes of one lockstep search
(``_descend``): each round evaluates one trial point per active lane in one
stacked Gram/Cholesky evaluation, while each lane keeps its own iteration.
A round's cost is mostly numpy dispatch on small arrays, not arithmetic:
on ``sweep`` (seed 211, one BLAS thread, 2-core x86-64) a round averages
about 260 us, of which about 70 us are ``_descend``'s own steps, 36 us the
objective's mirror and merge tests around the evaluation, and 154 us the
evaluation.  A branch that skips work for some calls stays only where its
function's recorded calls replayed faster with it in at least 44 of 61
alternations (``scripts/replay_calls.py``): the evaluators' skips of
preallocated arrays (46) and result arrays (Gram 44, span 57, objective
54), the unmirrored return of ``_reflected_points`` (54), both of
``_apart``'s (61, 61), ``_kernel_rows``' order-1 return (61),
``compressed``'s first-deflation reuse (60) and four in ``_descend``.
Greedy selection maximizes the per-step energy increment over a coarse disc
grid refined by a local search of one lane (``minimize``); the global engine
adds stratified multistart seeds, descent over all node coordinates at once
from every start as the lanes of one search, and a merge polish that searches
again from the best inexact candidate with its closest pair as one order-2
node.

An exact kernel mix ``f = sum_i c_i K_{a_i}^{(o_i)}`` of total multiplicity
k <= n is its own best approximation, and ``g = W f`` obeys the recurrence of
``prod_i (z - conj a_i)^{o_i}`` (Prony's method): its Hankel matrix has rank
k.  A bundle of at most n rows is tested for the smallest such k
(``_annihilator``) before greedy runs, and the roots of the recurrence,
grouped into nodes with multiplicity, give one candidate
(``_exact_candidate``).  When MGS certifies its capture neither greedy nor a
lane runs; otherwise it joins the candidates.  Every result is still
certified by MGS.

Each tuple a search keeps is orthogonalized once (``_Bundle.system``, which
flushes its basis) and read once per bundle (``_Bundle.read``: the
coefficients ``C_mj = <f_m, Q_j>``, their energy and, once ``finalize`` sums
it, the residual norm) for the reported value, the greedy steps, the ranking
and the result.  It is also built once, where its search ends
(``_Objective.params``), and handed on as its ``ParamTuple`` to the result.
A greedy step reads only its fixed prefix's ``_Read``: the basis ``Q``,
``C`` and the prefix energy ``E_p``.  It pairs the residual
``R_m = f_m - P_Q f_m`` with a kernel ``v`` as ``<f_m, v> - sum_j C_mj
<Q_j, v>``, so no residual array is formed.  Its grid scan scores node g as
``sum_m p_m |<R_m, K_g>|^2 / (||K_g||^2 - sum_j |<K_g, Q_j>|^2)``, and its
local search evaluates ``E_p + sum_m p_m |<R_m, u>|^2 / ||u||^2``, with ``u``
the part of the moving node's kernel outside the span, and the closed-form
gradient, so greedy forms no Gram matrix.  A node that merges with a prefix
node, or whose kernel lies in the span by MGS's degeneracy test, lies outside
the search domain too.  Greedy and the lanes keep separate evaluators, each
the faster where it runs (2 cores): greedy steps by Cholesky on the
span-projected block made ``sweep`` 6-14% slower in alternating pairs, and
the lanes' calls of one ``sweep`` pass took 2.2 times as long replayed on a
stacked two-pass Gram-Schmidt evaluator.

Every engine, the stochastic one included, is one run of one pipeline
(``_run``) on a ``_Bundle`` of M weighted signals, of which a single signal is
the case M = 1.  It searches on the bundle's exact low-rank factor and
finalizes the chosen tuple on the bundle.  Each n, alone or as a row of a
decay sweep, is searched in one order (``_nbest_points``): the exact test,
greedy, the Prony candidate, then the lanes and the merge polish.  Its
ranking sums one residual per distinct tuple within the ranking window:
candidates whose nodes pair up one-to-one within ``merge_tol`` at equal
orders are one tuple (``_same_tuple``), and only its earliest record is
finalized and can win.  The bundle keeps greedy's steps by prefix
(``_greedy_step``), and each search grid keeps the empty tuple's increments
(``_search_grid``), so a sweep takes each step and each scan once: greedy
results finalize prefixes of one run, and a residual sweep also starts row n
from the greedy extension of row n - 1's result, which takes no step from a
result that captures the signal, nor from greedy's own tuple.
Existence theory confines maxima to a compact disc of radius ``1 - delta``,
which is the search region.

Scaling the signals scales every energy alike, so no energy is small in
absolute terms: exact capture is relative (``_Bundle.captures``), and
searches run at an exact power-of-4 gain (``_Objective``) that brings the
energy of a weak or strong signal into [1, 4).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTupleWarning, DomainError
from .spaces import (
    DEFAULT_MERGE_TOL,
    DEFAULT_RADIUS_CAP,
    AnalyticFunction,
    ParamTuple,
    SpaceSpec,
    _POWER_BLOCK,
    _TINY_POWER,
    _check_member,
    _falling_factorial,
    _kernel_powers,
    _kernel_rows,
    kernel_matrix,
)
from .orthosystem import EPS_DEGENERATE, _gram_schmidt_impl

_EXACT_CAPTURE_TOL = 1e-13
# The n-best ranking finalizes one record of each distinct tuple, and only
# those whose MGS energy is within _RANK_MARGIN * total_sq of the best:
# energy + residual**2 = total_sq holds to 1e-8 of it, so with over twice that
# margin no other candidate can win.  One residual is summed per distinct
# tuple within this window.
_RANK_MARGIN = 1e-6
# Smallest Cholesky pivot ratio L_kk / sqrt(G_kk) the Gram path trusts; below
# it the energy loses about eps / ratio**2 relative accuracy, so the tuple
# fails and lies outside the search domain.
_PIVOT_FLOOR = 1e-4
# The lengths below N + 1 to which the Gram path cuts kernel rows
# (``_Bundle._row_lengths``): 32 .. 512, the power block doubled.
_ROW_LENGTHS = tuple(_POWER_BLOCK << j for j in range(5))
# Ensemble compression keeps a realization's Gram-Schmidt residual only when
# its norm exceeds _RANK_TOL times the realization's own norm, so the factor
# drops at most _RANK_TOL**2 * total_sq of energy in any direction.
# Realizations are processed _RANK_BLOCK at a time, which bounds temporaries.
_RANK_TOL = 1e-8
_RANK_BLOCK = 64
# The exact path (``_exact_candidate``): a recurrence annihilates the signals
# when it leaves at most _HANKEL_TOL of their energy (rounding leaves about
# eps**2 of an exact mix, a polynomial of 1e-9 of its norm about 1e-18), and
# roots of its polynomial within _ROOT_SPLIT of each other are one multiple
# node.  The recurrence is refined at most _REFINE_STEPS times.
_HANKEL_TOL = 1e-23
_ROOT_SPLIT = 1e-3
_REFINE_STEPS = 30
# Grid kernels whose part outside a span has below _GRID_NEAR of their squared
# norm are paired with the residual through that part (``_grid_increments``).
_GRID_NEAR = 1e-4
# Local search: the Armijo sufficient-decrease fraction and the line search's
# cap on trial steps.
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 20
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


@dataclass
class OptimizerConfig:
    """Knobs for the greedy and global engines.

    ``delta`` is the boundary margin (search radius ``1 - delta``),
    ``grid_density`` the coarse Cartesian grid points per axis,
    ``multistart`` the number of random starts of each n-best search,
    ``max_iter`` the iteration cap of each local search, and ``merge_tol``
    the node-merging distance.  The local searches are bounded dense BFGS
    runs (``minimize``) on the analytic gradient of the captured energy, with
    fixed stop tolerances of their own, and greedy selection stops early at
    exact capture (``_Bundle.captures``).  All randomness flows from
    ``seed``.  Each field is checked on its own, so a ``ValueError`` names
    the one field that is out of range.
    """

    delta: float = 0.05
    grid_density: int = 24
    multistart: int = 8
    max_iter: int = 2000
    seed: int = 0
    merge_tol: float = DEFAULT_MERGE_TOL

    def __post_init__(self):
        for name, ok, rule in (
            ("delta", 1.0 - self.delta <= DEFAULT_RADIUS_CAP and self.delta < 1.0,
             f"must satisfy 1 - delta <= {DEFAULT_RADIUS_CAP} and delta < 1"),
            ("grid_density", self.grid_density >= 4, "must be at least 4"),
            ("multistart", self.multistart >= 0, "must be non-negative"),
            ("max_iter", self.max_iter >= 1, "must be at least 1"),
            ("seed", self.seed >= 0, "must be non-negative"),
            ("merge_tol", 0.0 <= self.merge_tol < math.inf, "must be finite and non-negative"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)}")


@dataclass
class ApproximationResult:
    """Output of every engine, for a single signal or an ensemble.

    ``energy`` is the captured squared norm, ``residual`` the norm of what is
    left, and the two satisfy energy + residual**2 = norm**2 up to rounding.
    For an ensemble they are expectations: the expected captured energy, the
    root mean square residual and the Bochner norm, also readable under those
    names.  ``coefficients`` holds one row per realization for an ensemble and
    is 1-D for a single signal.
    """

    params: ParamTuple
    coefficients: np.ndarray
    energy: float
    residual: float
    norm: float
    method: str
    trace: list = field(default_factory=list)
    degraded: bool = False

    expected_energy = property(lambda self: self.energy)
    expected_residual = property(lambda self: self.residual)
    bochner_norm = property(lambda self: self.norm)


class _Capture(NamedTuple):
    """One evaluation of a batch of tuples (``_Bundle.captured``), one entry
    per tuple: the value, dE/da per node, and whether the evaluation failed,
    in which case the tuple's value is NaN and its ``grad`` row zero."""

    value: np.ndarray
    grad: np.ndarray
    failed: np.ndarray


class _Read(NamedTuple):
    """A kept tuple read on one bundle (``_Bundle.read``): its basis rows, the
    read-only coefficients ``<f_m, Q_j>`` on them, their energy, whether it
    degraded, and the residual norm once ``finalize`` has summed it."""

    basis: np.ndarray
    coeffs: np.ndarray
    energy: float
    degraded: bool
    residual: float | None = None


def _flushed(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every entry below ``_TINY_POWER`` times its row's largest
    entry set to zero, in place, as ``spaces._kernel_powers`` flushes its
    powers."""
    mags = np.abs(rows)
    rows[mags < _TINY_POWER * mags.max(axis=-1, initial=0.0, keepdims=True)] = 0.0
    return rows


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows; a stacked matmul rounds each one as the
    1-D ``a[i] @ b[i]`` does, so a row's result does not depend on the others."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of matrices; NaN where one fails."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        out = np.full_like(gram, np.nan)
        for i, g in enumerate(gram):
            try:
                out[i] = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                pass
        return out


def _spread(ok: np.ndarray, width: int, value=None, grad=None) -> tuple:
    """A batch's values, NaN where a tuple fails, its gradients, zero there,
    from ``value`` and ``grad`` of the tuples ``ok``, and the failure mask."""
    out = np.full(len(ok), np.nan), np.zeros((len(ok), width), dtype=np.complex128)
    if value is not None:
        out[0][ok], out[1][ok] = value, grad
    return (*out, ~ok)


def _row_norms_sq(spec: SpaceSpec, matrix: np.ndarray) -> np.ndarray:
    """The squared space norm of each row of ``matrix``, in one pass over it,
    ``_RANK_BLOCK`` rows at a time.  It is the strided real view of the
    complex row sums, not a contiguous copy: BLAS rounds the dot product for
    ``_Bundle.total_sq`` otherwise on a contiguous copy, and reported norms
    would move in their last bit."""
    sums = np.empty(len(matrix), dtype=np.complex128)
    with np.errstate(over="ignore"):  # ``_check_norm`` refuses an infinite norm
        for start in range(0, len(matrix), _RANK_BLOCK):
            block = matrix[start : start + _RANK_BLOCK]
            sums[start : start + _RANK_BLOCK] = np.sum(block * spec.weights * np.conj(block), axis=1)
    return np.real(sums)


@lru_cache(maxsize=64)
def _order_reach(weights: bytes, order: int) -> np.ndarray:
    """For each length L below N + 1 of ``_Bundle._row_lengths``, on the
    space whose float64 weights W(0) .. W(N) are ``weights``: the largest
    radius at which L entries hold the order's kernel rows, or -1 where no
    radius does, read-only.  One bisection covers every length; a radius
    that a length admits, longer lengths admit too.  Kept per space and
    order, so the bundles of one space share it."""
    w = np.frombuffer(weights)
    ladder = np.array([n for n in _ROW_LENGTHS if n < len(w)])
    lag = order - 1
    c = _falling_factorial(len(w) - 1, lag) ** 2 / w[lag:]  # c_k for k = lag .. N
    k = np.arange(lag + 1, len(w))
    ratio = (k / (k - lag)) ** 2 * w[lag:-1] / w[lag + 1 :]  # c_{k+1} / c_k
    q = np.append(np.maximum.accumulate(ratio[::-1])[::-1], 0.0)
    at = np.minimum(ladder - lag, len(c) - 1)  # L - lag, clipped where L <= lag
    c_l, q_l, power = c[at], q[at], 2.0 * (ladder - lag)
    lo = np.zeros(len(ladder))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = np.minimum(1.0, 1.0 / np.sqrt(q_l))
        for _ in range(53):
            mid = 0.5 * (lo + hi)
            ok = c_l * mid**power <= _EPS**2 * c[0] * (1.0 - mid * mid * q_l)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    reach = np.maximum.accumulate(np.where(ladder >= order, lo, -1.0))
    reach.setflags(write=False)
    return reach


class _Bundle:
    """A weighted family of signals over one space; single signals are M = 1.

    A bundle keeps one M x (N+1) array, its coefficient matrix; beyond it,
    each read tuple's basis rows and M x n coefficients, and each grid's
    M x G pairings (``_Grid``).  Every pass over
    all realizations (norms, MGS coefficients, residuals, compression) runs
    ``_RANK_BLOCK`` rows at a time and forms the weighted rows ``f_m W`` per
    block.  A row's results are the bits the same formula gives on the whole
    matrix, except where a block has a single row (M = 65, say): numpy rounds
    a one-row product in its vector kernels, within 1e-12 relative.
    """

    def __init__(self, spec: SpaceSpec, matrix: np.ndarray, probs: np.ndarray, systems=None, norms_sq=None):
        self.spec = spec
        self.matrix = matrix
        self.probs = probs
        self.inv_weights = 1.0 / spec.weights
        # An ensemble hands in the norms of its one pass (``_row_norms_sq``).
        self.norms_sq = _row_norms_sq(spec, matrix) if norms_sq is None else norms_sq
        self.total_sq = float(self.probs @ self.norms_sq)
        # Kernel row lengths of the Gram path (``_row_lengths``), with each
        # tuple structure's limiting radii.
        n1 = spec.max_degree + 1
        self._lengths = np.array([n for n in _ROW_LENGTHS if n < n1] + [n1])
        self._limits: dict[tuple, np.ndarray] = {}
        self._reads: dict[tuple, _Read] = {}
        self._empty: dict[float, ParamTuple] = {}  # the empty tuple per merge_tol
        # Kept per ``_search_key``: the grid, exact candidates, greedy steps.
        self._grids: dict[tuple, _Grid] = {}
        self._exact: dict[tuple, tuple | None] = {}
        self._steps: dict[tuple, tuple | None] = {}
        # MGS bases depend on the space and the tuple only, so a factor
        # shares the ones its ensemble keeps (``systems``).
        self._systems: dict[tuple, tuple[np.ndarray, bool]] = {} if systems is None else systems

    def _blocks(self) -> list[slice]:
        """The row blocks of every pass over the realizations."""
        return [slice(start, start + _RANK_BLOCK) for start in range(0, len(self.matrix), _RANK_BLOCK)]

    @classmethod
    def single(cls, spec: SpaceSpec, f: AnalyticFunction) -> "_Bundle":
        _check_member(spec, f)
        return cls(spec, f.coeffs[None, :], np.ones(1))

    def compressed(self) -> "_Bundle":
        """An exact rank-r factor of the ensemble, or ``self`` when r = M.

        Energies, gradients, grid increments and residuals depend on the
        realizations only through the form ``F^H diag(p) F``, so r unit-weight
        rows ``R`` with ``R^H R`` equal to it give the same search.  The
        realizations, as unit vectors ``u_m = f_m sqrt(W) / ||f_m||`` in which
        space norms are l2 norms, are deflated by pivoted two-pass
        Gram-Schmidt into orthonormal rows ``Q``; a residual of norm at most
        ``_RANK_TOL`` is dropped.  With ``B_m = sqrt(p_m) ||f_m|| u_m Q^H`` and
        ``T`` the triangular factor of ``B``, the factor is
        ``R = T Q / sqrt(W)``.  Entries of ``u_m`` below ``_TINY_POWER`` are
        flushed to zero, as in ``spaces._kernel_powers``.  When M <= N + 1,
        one Cholesky factorization of the M x M Gram matrix of the ``u_m``
        detects full rank and skips the deflation.  Every pass forms the
        ``u_m`` of one row block at a time, the Gram matrix's too; a block's
        first deflation product is its ``u_m Q^H`` unless Q grew after it.
        """
        m, n1 = self.matrix.shape
        if m == 1:
            return self
        norms = np.sqrt(self.norms_sq)
        live = (self.probs > 0.0) & (norms > 0.0)
        inv_norms = np.zeros(m)
        inv_norms[live] = 1.0 / norms[live]
        root_w = np.sqrt(self.spec.weights)

        def units(rows: slice) -> np.ndarray:
            out = self.matrix[rows] * inv_norms[rows, None] * root_w
            out[np.abs(out) < _TINY_POWER] = 0.0
            return out

        blocks = self._blocks()

        def keeps_every_row(count: int) -> bool:
            # Cholesky pivots of the Gram matrix of the first ``count`` rows
            # are the residual norms of Gram-Schmidt in row order.  Its
            # rounding stays below 8 n1 eps times its trace (at most
            # ``count``), far above _RANK_TOL**2, so pivots above that bound
            # keep every row.  The Gram matrix is built a block of rows by a
            # block of columns at a time, on and below the diagonal, the part
            # that the factorization reads.
            gram = np.zeros((count, count), dtype=np.complex128)
            within = [slice(b.start, min(b.stop, count)) for b in blocks if b.start < count]
            for i, rows in enumerate(within):
                left = units(rows)
                for cols in within[:i]:
                    gram[rows, cols] = left @ units(cols).conj().T
                gram[rows, rows] = left @ left.conj().T
            try:
                pivots = np.linalg.cholesky(gram).diagonal().real
            except np.linalg.LinAlgError:
                return False
            return bool(np.min(pivots) ** 2 > 8.0 * n1 * np.finfo(np.float64).eps * count)

        # Full rank returns at once; the first block screens out deficient
        # ensembles before the M x M Gram matrix is formed, which for M <= 64
        # is the first block's.
        if m <= n1 and all(map(keeps_every_row, sorted({min(m, _RANK_BLOCK), m}))):
            return self
        basis = np.empty((min(m, n1), n1), dtype=np.complex128)
        r = 0
        firsts = []
        for rows in blocks:
            block = units(rows)
            firsts.append(block @ basis[:r].conj().T)
            block -= firsts[-1] @ basis[:r]
            block -= (block @ basis[:r].conj().T) @ basis[:r]
            while r < len(basis):
                parts = block.view(np.float64)
                left = np.einsum("ij,ij->i", parts, parts)
                k = int(np.argmax(left))
                if left[k] <= _RANK_TOL**2:
                    break
                q = block[k] - (block[k] @ basis[:r].conj().T) @ basis[:r]
                q /= np.linalg.norm(q)
                block -= np.outer(block @ q.conj(), q)
                basis[r] = q
                r += 1
        if r == m:
            return self
        basis = basis[:r]
        scale = np.sqrt(self.probs) * norms
        coords = np.empty((m, r), dtype=np.complex128)
        for rows, first in zip(blocks, firsts):
            got = first if first.shape[1] == r else units(rows) @ basis.conj().T
            coords[rows] = scale[rows, None] * got
        factor = np.linalg.qr(coords, mode="r") @ basis / root_w
        return _Bundle(self.spec, factor, np.ones(r), self._systems)

    def make_tuple(self, points, cfg: OptimizerConfig) -> ParamTuple:
        return ParamTuple(tuple(points), cfg.merge_tol, self.spec.radius_cap)

    def empty(self, cfg: OptimizerConfig) -> ParamTuple:
        """The empty tuple, built once per bundle and merge tolerance."""
        if cfg.merge_tol not in self._empty:
            self._empty[cfg.merge_tol] = self.make_tuple((), cfg)
        return self._empty[cfg.merge_tol]

    def captures(self, energy: float) -> bool:
        """Whether ``energy`` captures the signals exactly: it falls short of
        their energy by at most ``_EXACT_CAPTURE_TOL`` of it."""
        return self.total_sq - energy <= _EXACT_CAPTURE_TOL * self.total_sq

    def captured(self, centers: np.ndarray, orders: tuple, owners: np.ndarray, span=None) -> _Capture:
        """Captured energy and gradient of B tuples of one structure in one
        stacked evaluation, without a ``ParamTuple``: ``centers`` (B x n) and
        ``orders`` as in its fields, and ``owners`` the moving node, from 0
        up, of each position.  Without ``span`` every node moves, each Gram
        matrix is factored once, and a tuple whose Cholesky pivot ratio
        falls below ``_PIVOT_FLOOR`` fails.  With ``span``, the ``_Read`` of
        a fixed prefix, each tuple is one node appended to it, evaluated on
        its read (``_span_captured``) without a Gram matrix, and fails by
        MGS's degeneracy test.  MGS never runs here; a failed tuple lies
        outside the search domain (``_Objective``).
        """
        if span is not None:
            return _Capture(*self._span_captured(centers[:, 0], span))
        return _Capture(*self._gram_captured(centers, orders, owners))

    def system(self, params: ParamTuple) -> tuple[np.ndarray, bool]:
        """The MGS basis rows of the tuple and whether it degraded, kept per
        (centers, orders) for the life of the bundle and its factor (one
        engine call), flushed (``_flushed``) as they are kept, and read-only.
        Search evaluations never reach MGS: every kept tuple was ``read``."""
        if not len(params):  # the empty tuple, which needs no Gram-Schmidt
            return np.zeros((0, self.spec.max_degree + 1), dtype=np.complex128), False
        key = (params.centers, params.orders)
        kept = self._systems.get(key)
        if kept is None:
            system, degraded = _gram_schmidt_impl(
                self.spec, params, eps_degenerate=EPS_DEGENERATE, allow_partial=True
            )
            basis = _flushed(system.basis.copy())
            basis.setflags(write=False)
            kept = self._systems[key] = (basis, degraded)
        return kept

    def read(self, params: ParamTuple) -> _Read:
        """The tuple's ``_Read``, formed once per bundle and tuple: the
        coefficients on its kept basis rows, a row block at a time, and their
        energy.  Every value, greedy step and finalization of the tuple reads
        it."""
        key = (params.centers, params.orders)
        got = self._reads.get(key)
        if got is None:
            basis, degraded = self.system(params)
            coeffs = np.zeros((len(self.matrix), len(basis)), dtype=np.complex128)
            basis_h = basis.conj().T
            for rows in self._blocks() if len(basis) else ():
                coeffs[rows] = (self.matrix[rows] * self.spec.weights) @ basis_h
            coeffs.setflags(write=False)
            energy = float(self.probs @ np.sum(np.abs(coeffs) ** 2, axis=1))
            got = self._reads[key] = _Read(basis, coeffs, energy, degraded)
        return got

    def _residual(self, rows: slice, basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """The two-pass residuals ``f_m - P_Q f_m`` of a row block's signals on
        the basis rows, unflushed."""
        fit = coeffs[rows] @ basis
        block = self.matrix[rows] - fit
        block -= np.matmul(block @ (self.spec.weights * basis).conj().T, basis, out=fit)
        return block

    def _row_lengths(self, centers: np.ndarray, orders: tuple) -> np.ndarray:
        """Each tuple's kernel row length on the Gram path: the shortest of
        ``_ROW_LENGTHS`` below N + 1, or N + 1, at which a tail bound on
        every row the evaluation forms, of each node's order and of the next
        order, is at most eps**2 of that row's squared norm (module
        docstring).

        The order-o row at radius r has squared-norm terms ``t_k = c_k
        r**(2 (k-o+1))`` with ``c_k = ff_{o-1}(k)**2 / W(k)``, and for k >= L
        ``t_{k+1} / t_k <= r**2 q_L``, where ``q_L`` is the largest ratio
        ``c_{k+1} / c_k`` from k = L on.  So the terms from L on sum to at
        most ``t_L / (1 - r**2 q_L)``, which is compared with ``eps**2
        t_{o-1}``.  The bound grows with r, so each order keeps, per length,
        the largest radius at which it holds (``_order_reach``, found once
        per space by bisection); a tuple's length is then a comparison of its
        radii.
        """
        lengths = self._lengths
        if len(lengths) == 1:
            return np.full(len(centers), lengths[0])
        limits = self._limits.get(orders)
        if limits is None:
            weights = self.spec.weights.tobytes()
            limits = self._limits[orders] = np.array([
                np.minimum(_order_reach(weights, o), _order_reach(weights, o + 1)) for o in orders
            ])
        return lengths[(np.abs(centers)[:, :, None] > limits).sum(axis=2).max(axis=1)]

    def _gram_captured(self, centers: np.ndarray, orders: tuple, owners: np.ndarray):
        """Gram/Cholesky evaluation of the B tuples of ``centers`` at once:
        their values, their gradients (one row per tuple, one column per
        node of ``owners``), and the mask of the tuples whose pivot ratios
        fall below the floor, which get neither.  Every node moves.

        With x = G^{-1} v and residual r = f - Pf, the envelope theorem gives
        dE/da_c = sum_m p_m sum_{j at c} conj(x_mj) <r_m, K_j+>, where K_j+ is
        the next-order kernel, i.e. dK_j / d(conj a_c).

        Each tuple's kernel rows are cut to its own length L
        (``_row_lengths``, module docstring).  The powers and rows are formed
        once, at the batch's longest L, and their entries do not depend on
        the length; the four products that do (the Gram matrices, the
        pairings, the cross terms with next-order rows and the signals
        against those rows) run once per group of tuples with equal L.  Every
        step is stacked or elementwise, so a tuple's results are the same
        bits whichever batch it is evaluated in.
        """
        count, n = centers.shape
        length = self._row_lengths(centers, orders)
        top = int(length.max())
        powers = _kernel_powers(centers.ravel(), top).reshape(count, n, top)
        degree = self.spec.max_degree
        rows = _kernel_rows(powers, orders, degree)
        nxt = _kernel_rows(powers, [o + 1 for o in orders], degree)
        sizes = sorted(set(length.tolist()))
        groups = []
        for size in sizes:
            group = slice(None) if len(sizes) == 1 else length == size
            cut, nxt_cut = rows[group, :, :size], nxt[group, :, :size]
            cut_conj = cut.conj()
            weighted = cut_conj * self.inv_weights[:size]
            signals = self.matrix[:, :size]
            groups.append((group, (
                weighted @ cut.transpose(0, 2, 1),  # G_ij = <K_j, K_i>
                signals @ cut_conj.transpose(0, 2, 1),  # v_mi = <f_m, K_i>
                # <K_i, K_j+>, conjugated: conj(a) conj(b) = conj(a b) exactly
                np.conj(weighted @ nxt_cut.transpose(0, 2, 1)),
                signals @ nxt_cut.conj().transpose(0, 2, 1),  # <f_m, K_j+>
            )))
        if len(groups) == 1:
            gram, pairs, cross, pairs_nxt = groups[0][1]
        else:
            gram, pairs, cross, pairs_nxt = (
                np.empty((count, *part.shape[1:]), dtype=np.complex128) for part in groups[0][1]
            )
            for group, parts in groups:
                gram[group], pairs[group], cross[group], pairs_nxt[group] = parts
        chol = _cholesky(gram)
        floor = _PIVOT_FLOOR * np.sqrt(gram.diagonal(axis1=1, axis2=2).real)
        ok = (chol.diagonal(axis1=1, axis2=2).real >= floor).all(axis=1)
        width = int(owners[-1]) + 1
        every = bool(ok.all())
        if not every:
            if not ok.any():
                return _spread(ok, width)
            chol, pairs, cross, pairs_nxt = chol[ok], pairs[ok], cross[ok], pairs_nxt[ok]
        y = np.linalg.solve(chol, pairs.transpose(0, 2, 1))
        held_value = _rowdot((np.abs(y) ** 2).sum(axis=1), self.probs)
        x = np.linalg.solve(chol.conj().transpose(0, 2, 1), y)
        # <r_m, K_j+> = <f_m, K_j+> - sum_i x_mi <K_i, K_j+>
        resid_pairs = pairs_nxt - x.transpose(0, 2, 1) @ cross
        per_row = (self.probs[:, None] * x.transpose(0, 2, 1).conj() * resid_pairs).sum(axis=1)
        held_grad = np.zeros((len(y), width), dtype=np.complex128)
        np.add.at(held_grad, (slice(None), owners), per_row)
        return (held_value, held_grad, ~ok) if every else _spread(ok, width, held_value, held_grad)

    def _span_captured(self, points: np.ndarray, read: _Read):
        """Span evaluation of the B tuples that append one node of ``points``
        to the prefix whose ``_Read`` is ``read``: their values, their
        gradients (one column), and the mask of the tuples that fail, which
        get neither: all of a degraded prefix's, and those whose node's kernel
        ``K`` keeps ``||u|| <= 1e-10 ||K||`` outside the prefix's basis ``Q``,
        MGS's own degeneracy test.

        With ``u = K - P_Q K`` taken in two passes, ``beta = ||u||^2`` and
        ``alpha_m = <R_m, u>`` on the residual ``R_m = f_m - P_Q f_m``, the
        energy is ``E_p + sum_m p_m |alpha_m|^2 / beta``.  (``alpha_m`` equals
        ``<R_m, K>`` in exact arithmetic, but near a prefix node, where ``||u||
        << ||K||``, that form loses about ``||K|| / ||u||`` in relative
        accuracy and this one keeps MGS's.)  The projection of f_m on the
        extended span adds ``x_m u`` with ``x_m = alpha_m / beta``, so the
        envelope theorem gives ``dE/da = sum_m p_m conj(x_m) (<R_m, K+> - x_m
        <u, K+>)``, with K+ the next-order kernel.  No residual is formed:
        ``<R_m, v> = <f_m, v> - sum_j C_mj <Q_j, v>`` with ``C_mj = <f_m,
        Q_j>``.  As R is orthogonal to Q, ``<R_m, u>`` is paired on the
        once-projected kernel ``u'``, whose ``<Q_j, u'>`` the second pass forms
        in one product with ``<Q_j, K+>``.  Every product is stacked over the
        tuples, so a tuple's results are the same bits whichever batch it is
        evaluated in.
        """
        if read.degraded:
            return _spread(np.zeros(len(points), dtype=bool), 1)
        w, basis = self.spec.weights, read.basis
        powers = _kernel_powers(points, self.spec.max_degree + 1)  # W K
        u = powers * self.inv_weights
        scale_sq = (w * np.abs(u) ** 2).sum(axis=1)
        basis_h = basis.conj().T
        u -= (((w * u)[:, None, :] @ basis_h) @ basis)[:, 0]
        # W u' and W K+, and their coefficients <u', Q_j> and <K+, Q_j> on Q
        nxt = _kernel_rows(powers[:, None], (2,), self.spec.max_degree)
        rows = np.concatenate([(w * u)[:, None], nxt], axis=1)
        onto = rows @ basis_h
        u -= (onto[:, :1] @ basis)[:, 0]
        beta = (w * np.abs(u) ** 2).sum(axis=1)
        ok = beta > EPS_DEGENERATE**2 * scale_sq
        every = bool(ok.all())
        if not every:
            if not ok.any():
                return _spread(ok, 1)
            u, beta, rows, onto = u[ok], beta[ok], rows[ok], onto[ok]
        beta = beta[:, None]
        rows_conj = rows.conj()
        # <R_m, u>, <R_m, K+>
        pairs = self.matrix @ rows_conj.transpose(0, 2, 1) - read.coeffs @ onto.conj().transpose(0, 2, 1)
        alpha = pairs[:, :, 0]
        held_value = read.energy + _rowdot(np.abs(alpha) ** 2 / beta, self.probs)
        x = alpha / beta
        u_next = _rowdot(u, rows_conj[:, 1])  # <u, K+>
        held_grad = _rowdot(np.conj(x) * (pairs[:, :, 1] - x * u_next[:, None]), self.probs)[:, None]
        return (held_value, held_grad, ~ok) if every else _spread(ok, 1, held_value, held_grad)

    def finalize(self, params: ParamTuple):
        """``params`` trimmed to its basis, and the tuple's ``read``:
        coefficients, energy, the norm of its two-pass residual (summed
        unflushed a row block at a time, once: an entry below ``_TINY_POWER``
        of its row's largest moves no sum of squares) and degradation.  Only
        the trim of a degraded tuple builds a ``ParamTuple``."""
        read = self.read(params)
        if read.residual is None:
            resid_sq = np.empty(len(self.matrix))
            for rows in self._blocks():
                block = self._residual(rows, read.basis, read.coeffs)
                resid_sq[rows] = np.sum(self.spec.weights * np.abs(block) ** 2, axis=1)
            residual = math.sqrt(max(float(self.probs @ resid_sq), 0.0))
            read = self._reads[params.centers, params.orders] = read._replace(residual=residual)
        if len(read.basis) < len(params):
            params = ParamTuple(params.points[: len(read.basis)], params.merge_tol, params.radius_cap)
        return params, read.coeffs, read.energy, read.residual, read.degraded


def _energy(bundle: _Bundle, params: ParamTuple) -> float:
    """Captured energy of the bundle by MGS, the reference; warns, at the
    public caller's caller, when the tuple degrades."""
    read = bundle.read(params)
    if read.degraded:
        message = "degenerate node tuple: energy computed on its well-conditioned prefix"
        warnings.warn(message, DegenerateTupleWarning, stacklevel=3)
    return read.energy


def energy(spec: SpaceSpec, f: AnalyticFunction, params: ParamTuple) -> float:
    """Captured energy of ``f`` on the tuple's kernel span, by modified
    Gram-Schmidt.

    Invariant under permutations of the tuple and nondecreasing under
    extension.  A numerically degenerate tuple degrades to its maximal
    well-conditioned prefix and emits ``DegenerateTupleWarning``.
    """
    return _energy(_Bundle.single(spec, f), params)


# -- local search -------------------------------------------------------------


def _reflected_points(x: np.ndarray, radius: float) -> tuple:
    """Nodes of the coordinates ``x`` (one point, or one per row); one at
    |u| > radius is mirrored in the search circle to radius ``2 radius - |u|``.
    A radial clamp would leave a flat shelf outside the circle, on which a
    gradient search that overshoots the circle stalls; the mirror leads it
    back.  Returned with the unmirrored points ``u``, their moduli and the
    mask of the mirrored ones, which the chain rule reads."""
    raw = x[..., 0::2] + 1j * x[..., 1::2]
    r = np.abs(raw)
    over = r > radius
    pts = raw
    if over.any():
        pts = np.where(over, raw * ((2.0 * radius - r) / np.maximum(r, 1e-300)), raw)
    return pts, raw, r, over


def _search_radius(bundle: _Bundle, cfg: OptimizerConfig) -> float:
    return min(1.0 - cfg.delta, bundle.spec.radius_cap)


def _search_key(bundle: _Bundle, cfg: OptimizerConfig) -> tuple:
    """The settings a bundle's grid, exact candidates and greedy steps need."""
    return _search_radius(bundle, cfg), cfg.grid_density, cfg.max_iter, cfg.merge_tol


class _Objective:
    """Negated captured energy over the flattened real coordinates of the
    moving nodes, at one point or at one point per lane of a search.

    With ``orders`` moving node i enters with multiplicity ``orders[i]``
    (merge polish).  The nodes of ``prefix``, a greedy step's ``ParamTuple``
    (the empty one included), stay fixed; the objective then takes one
    moving node and evaluates it on the prefix's ``_Read``, which the bundle
    keeps.  ``params`` builds the ``ParamTuple`` where a search ends, the one
    every later stage hands on.  Nodes overshooting the search disc are
    mirrored back into it, and the analytic gradient is chained through the
    mirror.  The points whose moving nodes stay apart from every other node
    are evaluated together, in one batch on the span or else on the Gram
    path.  The search domain is the set of points that batch accepts: a
    point whose moving node merges with another node (so that its
    ``ParamTuple`` would not keep the nodes the search moves), or that the
    batch marks failed, has value +inf and gradient 0, and no MGS evaluation.
    Every value and gradient is multiplied by ``gain``, the power of 4 that
    brings the bundle's energy into [1, 4) when it lies below 1 or at or
    above 2**64, and 1 otherwise, so that ``minimize``'s absolute stops treat
    a weak signal as a normal one and a strong one stays far from overflow.
    """

    def __init__(self, bundle: _Bundle, cfg: OptimizerConfig, count: int, prefix=(), orders=None):
        self.bundle = bundle
        self.cfg = cfg
        self.radius = _search_radius(bundle, cfg)
        self.prefix = prefix
        self.reps = tuple(orders) if orders is not None else (1,) * count
        self.span = None if prefix == () else bundle.read(prefix)  # without one, every node moves
        if self.span is not None and self.reps != (1,):
            raise ValueError("a fixed prefix takes one moving node of order 1")
        # Each distinct fixed node enters the tuple first with order 1.
        fixed = zip(prefix.centers, prefix.orders) if prefix else ()
        self.fixed_reps = np.array([c for c, o in fixed if o == 1])
        self.orders = tuple(k + 1 for o in self.reps for k in range(o))
        self.owners = np.array([i for i, o in enumerate(self.reps) for _ in range(o)])
        self.earlier = np.tri(count, k=-1, dtype=bool)
        # With total_sq = m 2**e, m in [1/2, 1), 4**k total_sq lies in [1, 4)
        # for k = (2 - e) // 2; energies in [1, 2**64) keep gain 1.
        e = math.frexp(bundle.total_sq)[1]
        self.gain = 1.0 if 1 <= e <= 64 else math.ldexp(1.0, 2 * ((2 - e) // 2))

    def params(self, x: np.ndarray) -> ParamTuple:
        pts = _reflected_points(x, self.radius)[0]
        moving = [complex(p) for p, o in zip(pts, self.reps) for _ in range(o)]
        return self.bundle.make_tuple([*self.prefix, *moving], self.cfg)

    def _apart(self, pts: np.ndarray) -> np.ndarray:
        """Rows whose moving nodes merge with no other node, so that the
        tuple's ``ParamTuple`` would keep them as they are."""
        tol = self.cfg.merge_tol
        if pts.shape[1] > 1:
            close = np.abs(pts[:, :, None] - pts[:, None, :]) <= tol
            apart = ~(close & self.earlier).any(axis=(1, 2))
        else:
            apart = np.ones(len(pts), dtype=bool)
        if self.fixed_reps.size:
            apart &= (np.abs(pts[:, :, None] - self.fixed_reps) > tol).all(axis=(1, 2))
        return apart

    def value_and_grad(self, x):
        """The value and gradient at ``x``, or at each row of a stack ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            value, grad = self.value_and_grad(x[None])
            return float(value[0]), grad[0]
        pts, raw, r, over = _reflected_points(x, self.radius)
        apart = self._apart(pts)
        every = apart.all()
        if every:
            rows = slice(None)
        else:
            value = np.full(len(x), np.inf)
            grad = np.zeros_like(x)
            if not apart.any():
                return value, grad
            rows, raw, r, over = apart, raw[apart], r[apart], over[apart]
        moving = np.repeat(pts[rows], self.reps, axis=1)
        cap = self.bundle.captured(moving, self.orders, self.owners, span=self.span)
        values = np.where(cap.failed, np.inf, -cap.value)
        # dE/dx + i dE/dy per node, zero on a failed row; a mirrored node
        # a = (2R - |u|) u / |u| moves against u radially and by
        # (2R - |u|) / |u| tangentially.
        slope = 2.0 * np.conj(cap.grad)
        u = raw[over] / r[over]
        along = np.conj(u) * slope[over]
        stretch = (2.0 * self.radius - r[over]) / r[over]
        slope[over] = u * (-along.real + 1j * stretch * along.imag)
        grads = (-slope).view(np.float64)  # (x, y) pairs: -Re, -Im per node
        if every:
            value, grad = values, grads
        else:
            value[rows], grad[rows] = values, grads
        return value * self.gain, grad * self.gain


class _Minimum(NamedTuple):
    """The result of ``minimize``, with the field names of scipy's."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    message: str


def _direction(h: np.ndarray, g: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The quasi-Newton step on the ``free`` coordinates, zero elsewhere: the
    free block of ``B = h^-1`` has the inverse ``h_ff - h_fp h_pp^-1 h_pf``."""
    h_fp = h[np.ix_(free, ~free)]
    inv_ff = h[np.ix_(free, free)] - h_fp @ np.linalg.solve(h[np.ix_(~free, ~free)], h_fp.T)
    d = np.zeros_like(g)
    d[free] = -(inv_ff @ g[free])
    return d


# Stop messages, as scipy's L-BFGS-B words them.
_PGTOL_STOP = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
_MAXITER_STOP = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
_FTOL_STOP = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
_ABNORMAL_STOP = "ABNORMAL: "
# The exact path's message where the Prony nodes need no search.
_PRONY_STOP = "NO SEARCH: PRONY NODES CAPTURE THE SIGNALS"


def _descend(fun, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, options) -> list[_Minimum]:
    """The dense BFGS search of ``minimize`` from each row of ``x0``, run as
    one lane per row in lockstep.

    ``fun(x)`` returns the values and gradients at the rows of ``x``, the
    current points of the active lanes in the order of ``x0``.  Each round
    evaluates one trial point per active lane in that one call; a lane then
    accepts its step or backtracks, and a lane that accepted begins its next
    iteration.  A lane whose start value is not finite starts outside the
    function's domain and stops at once with an ``ABNORMAL`` message.
    Every lane keeps its own inverse Hessian, held coordinates, line search
    and stop.  Its scalars are Python floats and its vectors rows of stacked
    arrays, on which every operation is elementwise or a stacked matmul, so a
    lane ends at the same bits as when it runs alone.  Results come in the
    order of the rows of ``x0``.  These steps cost about 70 us a round on
    ``sweep`` (module docstring), whether one lane runs or several, since
    each is a numpy call on a few rows of at most 2n entries.  Replays kept
    four shortcuts: a slice indexes the lanes when all begin (57 of 61) or
    update H (55), no lane on the box skips the held-coordinate screen (54),
    and an update of every lane takes no subset (53).
    """
    ftol, gtol, maxiter = options["ftol"], options["gtol"], options["maxiter"]
    x = np.clip(x0, lo, hi)
    count, size = x.shape
    results: list = [None] * count
    if not count:
        return results
    lanes = np.arange(count)
    values, g = fun(x)
    f = values.tolist()
    nfev, nit, tries, stop = [1] * count, [0] * count, [0] * count, [""] * count
    t, scale, curved = [0.0] * count, [1.0] * count, [False] * count
    h = np.zeros((count, size, size))  # inverse Hessians, where ``curved``
    d = np.zeros_like(x)
    begin = list(range(count))  # the lanes that begin an iteration
    reduced = [False] * count  # ... after a step that met the ftol rule
    while True:
        if begin:
            k = slice(None) if len(begin) == len(f) else begin
            xk, gk = x[k], g[k]
            flat = np.abs(np.minimum(np.maximum(xk - gk, lo), hi) - xk).max(axis=1).tolist()
            # Coordinates that the gradient presses against their bound are
            # held; a curved lane steps by H, or by the Schur complement of
            # its held block, on the free ones.
            low, high = xk <= lo, xk >= hi
            if low.any() or high.any():
                free = ~((low & (gk > 0.0)) | (high & (gk < 0.0)))
                steep = np.where(free, -gk, 0.0)
                held = (~free.all(axis=1)).tolist()
            else:
                free, steep, held = None, -gk, [False] * len(begin)
            dk = -(h[k] @ gk[:, :, None])[:, :, 0]
            for j, i in enumerate(begin):
                if not curved[i]:
                    dk[j] = steep[j]
                elif held[j]:
                    dk[j] = _direction(h[i], gk[j], free[j])
            if free is not None:
                dk[(low & (dk < 0.0)) | (high & (dk > 0.0))] = 0.0
            for j, slope in enumerate(_rowdot(gk, dk).tolist()):
                if not slope < 0.0:
                    curved[begin[j]] = False
                    dk[j] = steep[j]
            # The step first tries the point where it meets the box; without
            # curvature information it has no length scale of its own and
            # stops halfway to the box instead of on its edge.
            room = np.full_like(dk, np.inf)
            np.divide(np.where(dk > 0.0, hi, lo) - xk, dk, out=room, where=dk != 0.0)
            d[k] = dk
            for j, (i, tk) in enumerate(zip(begin, room.min(axis=1, initial=1.0).tolist())):
                if not math.isfinite(f[i]):
                    stop[i] = _ABNORMAL_STOP
                elif reduced[j]:
                    stop[i] = _FTOL_STOP
                elif flat[j] <= gtol:
                    stop[i] = _PGTOL_STOP
                elif nit[i] >= maxiter:
                    stop[i] = _MAXITER_STOP
                t[i] = tk if curved[i] or tk >= 1.0 else 0.5 * tk
                tries[i] = 0
                scale[i] = max(abs(f[i]), 1.0)
        if any(stop):
            keep = [i for i, s in enumerate(stop) if not s]
            for i, s in enumerate(stop):
                if s:
                    results[lanes[i]] = _Minimum(x[i].copy(), f[i], nfev[i], nit[i], s)
            if not keep:
                return results
            lanes, x, g, h, d = lanes[keep], x[keep], g[keep], h[keep], d[keep]
            f, nfev, nit, tries, stop, t, scale, curved = (
                [v[i] for i in keep] for v in (f, nfev, nit, tries, stop, t, scale, curved)
            )
        # One trial point per lane, backtracking from the step ``t d``.
        trial = np.minimum(np.maximum(x + np.array(t)[:, None] * d, lo), hi)
        values, g_new = fun(trial)
        f_new = values.tolist()
        step = trial - x
        slopes = _rowdot(g, step)
        begin = []
        for i, slope in enumerate(slopes.tolist()):
            nfev[i] += 1
            tries[i] += 1
            if f_new[i] <= f[i] + _ARMIJO * slope:
                begin.append(i)
                continue
            resolution = ftol * scale[i]
            # Where f changes by less than it resolves, the slopes decide; on
            # a quadratic this is the same test.
            if f_new[i] <= f[i] + resolution and g_new[i] @ step[i] <= (2.0 * _ARMIJO - 1.0) * slope:
                begin.append(i)
                continue
            # Minimizer of the quadratic through f, the slope and f_new, kept
            # within [0.1 t, 0.5 t]; the lane gives up when a shorter step
            # could gain no more than f resolves, or after _MAX_BACKTRACKS.
            slope = slopes[i]
            curve = f_new[i] - f[i] - slope if math.isfinite(f_new[i]) else math.inf
            shrink = min(max(-slope / (2.0 * curve), 0.1), 0.5)
            if -slope * shrink <= resolution or tries[i] >= _MAX_BACKTRACKS:
                stop[i] = _ABNORMAL_STOP
            t[i] *= shrink
        if not begin:
            continue
        # H <- (I - s y^T / sy) H (I - y s^T / sy) + s s^T / sy, on every pair
        # with positive curvature; the first one starts H as (sy / yy) I.
        k = slice(None) if len(begin) == len(f) else begin
        sk, yk = step[k], g_new[k] - g[k]
        sy, yy = _rowdot(sk, yk), _rowdot(yk, yk)
        up = []
        for j, (i, a, b) in enumerate(zip(begin, sy.tolist(), yy.tolist())):
            if a > _EPS * b:
                up.append(j)
                if not curved[i]:
                    h[i] = np.eye(size) * (a / b)
                    curved[i] = True
        if up:
            u = k
            if len(up) < len(begin):
                u, sk, yk, sy = [begin[j] for j in up], sk[up], yk[up], sy[up]
            hu, col = h[u], sk[:, :, None]
            hy = (hu @ yk[:, :, None])[:, :, 0] / sy[:, None]
            cross = col * hy[:, None, :]
            outer = col * sk[:, None, :]
            hu += ((1.0 + _rowdot(yk, hy)) / sy)[:, None, None] * outer - (cross + cross.transpose(0, 2, 1))
            h[u] = hu
        x[k], g[k] = trial[k], g_new[k]
        reduced = []
        for i in begin:
            reduction = f[i] - f_new[i]
            f[i] = f_new[i]
            nit[i] += 1
            reduced.append(reduction <= ftol * max(abs(f[i]), scale[i]))


def minimize(fun, x0, *, method, bounds, options) -> _Minimum:
    """Minimize ``fun``, which returns the value and the gradient, over the box
    ``bounds`` by dense BFGS (``method`` must be "L-BFGS-B", in full memory);
    the search runs as the one lane of ``_descend``.

    Directions come from a dense inverse-Hessian approximation ``H``, started
    as ``(s.y / y.y) I`` by the first correction pair and updated by every
    pair with positive curvature, with the coordinates that the gradient
    presses against their bound held fixed; a step that would leave the box
    first tries the point where it meets it, or, without ``H``, the point
    halfway to it.  A backtracking line search accepts the step by the Armijo
    test, or, where ``f`` changes by less than the ``ftol`` rule resolves, by
    the same test on the slopes at the step's two ends.  The search stops at a
    relative reduction ``(f - f_new) / max(|f|, |f_new|, 1) <= ftol``, at a
    projected-gradient max-norm ``<= gtol``, after ``maxiter`` iterations, or
    with an ``ABNORMAL`` message when ``f(x0)`` is not finite or the line
    search cannot decrease ``f``: when a shorter step could only gain less
    than the ``ftol`` rule counts, or after ``_MAX_BACKTRACKS`` trials.  A
    trial point where ``f`` is +inf is backtracked from.  The messages follow
    scipy's L-BFGS-B.
    """
    if method != "L-BFGS-B":
        raise ValueError(f"unsupported method {method!r}")
    lo, hi = np.asarray(bounds, dtype=np.float64).T

    def lane(x):
        value, grad = fun(x[0])
        return np.array([value], dtype=np.float64), np.array(grad, dtype=np.float64)[None]

    return _descend(lane, np.asarray(x0, dtype=np.float64)[None], lo, hi, options)[0]


def _search_options(cfg: OptimizerConfig) -> dict:
    return {"maxiter": cfg.max_iter, "ftol": 1e-15, "gtol": 1e-12}


def _reported(objective: _Objective, res: _Minimum) -> tuple:
    """The ``ParamTuple`` a search ended at (``_Objective.params``), its MGS
    energy (``_Bundle.read``), also for a search that stopped at a start
    outside the search domain, and its evaluation count and stop message."""
    params = objective.params(res.x)
    stats = {"polish_nfev": int(res.nfev), "polish_message": str(res.message)}
    return params, objective.bundle.read(params).energy, stats


def _local_search(bundle, cfg, x0, prefix=(), orders=None, stats=None):
    """One bounded dense BFGS search (``minimize``) with the analytic
    gradient of the captured energy, started at ``x0`` on the flattened real
    coordinates of the moving nodes, in the box ``[-R, R]`` of the search
    radius R: a lockstep search of one lane, as greedy steps and the merge
    polish run it.  ``prefix``, if given, is the fixed ``ParamTuple`` of a
    greedy step.  It returns the tuple the search ended at and its energy
    (``_reported``), and ``stats``, if given, receives the rest."""
    x0 = np.asarray(x0, dtype=np.float64)
    objective = _Objective(bundle, cfg, x0.size // 2, prefix, orders)
    res = minimize(
        objective.value_and_grad,
        x0,
        method="L-BFGS-B",
        bounds=[(-objective.radius, objective.radius)] * x0.size,
        options=_search_options(cfg),
    )
    params, energy, got = _reported(objective, res)
    if stats is not None:
        stats.update(got)
    return params, energy


def _lane_searches(bundle, cfg, starts: list) -> list[tuple]:
    """The search of ``_local_search`` from each of ``starts`` (flattened
    coordinates of n moving nodes each), run as the lanes of one lockstep
    ``_descend``; one (params, energy, stats) per start, in order."""
    if not starts:
        return []
    objective = _Objective(bundle, cfg, starts[0].size // 2)
    bound = np.full(starts[0].size, objective.radius)
    ends = _descend(objective.value_and_grad, np.array(starts), -bound, bound, _search_options(cfg))
    return [_reported(objective, res) for res in ends]


def _as_x(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.complex128)
    out = np.empty(2 * pts.size)
    out[0::2] = pts.real
    out[1::2] = pts.imag
    return out


def _disc_grid(radius: float, density: int) -> np.ndarray:
    xs = np.linspace(-radius, radius, density)
    gx, gy = np.meshgrid(xs, xs)
    pts = (gx + 1j * gy).ravel()
    return pts[np.abs(pts) <= radius + 1e-15]


class _Grid(NamedTuple):
    """The disc grid of a search: its points, the conjugate transpose of
    their kernel rows times the weights (the powers ``conj(c)**k``, flushed
    as in ``spaces._kernel_powers``), the rows' squared norms, the signals'
    pairings ``<f_m, K_g>`` with them, and, on a search's grid
    (``_search_grid``), the empty tuple's increments, which greedy's first
    step and the multistart starts read."""

    points: np.ndarray
    weighted_h: np.ndarray
    raw: np.ndarray
    pairs: np.ndarray
    empty: np.ndarray | None = None


def _grid_increments(bundle: _Bundle, grid: _Grid, read: _Read) -> np.ndarray:
    """Energy increment ``sum_m p_m |<R_m, K_g>|^2 / ||u_g||^2`` of adding
    each grid kernel ``K_g`` to the tuple whose ``_Read`` is ``read``, with
    ``Q`` its basis, ``C`` its coefficients, ``R_m = f_m - P_Q f_m`` the
    residual and ``u_g`` the part of ``K_g`` outside the span: ``<f_m, K_g>
    - sum_j C_mj <Q_j, K_g>`` over ``||K_g||^2 - sum_j |<K_g, Q_j>|^2``, one
    product with ``Q`` and one with ``C``, and -inf where the denominator
    is at most ``1e-12 ||K_g||^2``.  These forms round by eps ``||f_m||
    ||K_g||`` and eps ``||K_g||^2``; where ``||u_g||^2 < _GRID_NEAR
    ||K_g||^2`` both are read from ``u_g``: ``<f_m, u_g> - sum_j C_mj <Q_j,
    u_g>``, which rounds as a formed residual would, and its squared norm."""
    proj = read.basis @ grid.weighted_h  # <Q_j, K_g>
    norms = grid.raw - np.sum(np.abs(proj) ** 2, axis=0)
    pairs = grid.pairs - read.coeffs @ proj
    near = norms < _GRID_NEAR * grid.raw
    outside = grid.weighted_h[:, near] - (bundle.spec.weights * read.basis).conj().T @ proj[:, near]  # W u_g
    pairs[:, near] = bundle.matrix @ outside - read.coeffs @ (read.basis @ outside)
    norms[near] = bundle.inv_weights @ np.abs(outside) ** 2
    gains = bundle.probs @ np.abs(pairs) ** 2
    ok = norms > 1e-12 * grid.raw
    out = np.full(len(grid.points), -np.inf)
    out[ok] = gains[ok] / norms[ok]
    return out


def _grid(bundle: _Bundle, points: np.ndarray) -> _Grid:
    """The grid of ``points``."""
    rows = kernel_matrix(bundle.spec, points)
    w = bundle.spec.weights
    raw = np.real(np.sum(w * np.abs(rows) ** 2, axis=1))
    rows *= w
    weighted_h = np.conj(_flushed(rows), out=rows).T
    return _Grid(points, weighted_h, raw, bundle.matrix @ weighted_h)


def _search_grid(bundle: _Bundle, cfg: OptimizerConfig) -> _Grid:
    """The search's ``_Grid`` with its empty tuple's increments, built once
    per bundle and ``_search_key``."""
    key = _search_key(bundle, cfg)
    if key not in bundle._grids:
        grid = _grid(bundle, _disc_grid(*key[:2]))
        empty = _grid_increments(bundle, grid, bundle.read(bundle.empty(cfg)))
        bundle._grids[key] = grid._replace(empty=empty)
    return bundle._grids[key]


def _greedy_step(bundle: _Bundle, cfg: OptimizerConfig, prefix: ParamTuple):
    """Greedy's step after the ``ParamTuple`` ``prefix``, kept per bundle,
    ``_search_key`` and prefix points: the tuple and captured energy after
    it, or None where the prefix captures the signal (``_Bundle.captures``)
    or no grid node adds energy.  It reads the ``_Read`` of its prefix, scans
    the grid and runs its local search on it."""
    key = (_search_key(bundle, cfg), prefix.points)
    if key not in bundle._steps:
        read = bundle.read(prefix)
        step = None
        if not bundle.captures(read.energy):
            grid = _search_grid(bundle, cfg)
            inc = _grid_increments(bundle, grid, read) if prefix else grid.empty
            best = int(np.argmax(inc))
            if np.isfinite(inc[best]) and inc[best] > 0.0:
                step = _local_search(bundle, cfg, _as_x([grid.points[best]]), prefix=prefix)
        bundle._steps[key] = step
    return bundle._steps[key]


def _greedy_points(bundle: _Bundle, n: int, cfg: OptimizerConfig, trace: list, prefix=None) -> ParamTuple:
    """Sequential node selection after the fixed ``ParamTuple`` ``prefix``
    (default: the empty tuple) up to n nodes, one kept step (``_greedy_step``)
    at a time, each appending its node and the energy captured after it to
    ``trace``; returns the last tuple.  It stops early once the signal is
    captured, so a prefix that captures it takes no step."""
    params = bundle.empty(cfg) if prefix is None else prefix
    for step in range(len(params), n):
        kept = _greedy_step(bundle, cfg, params)
        if kept is None:
            break
        params, total = kept
        node = params.points[-1]
        trace.append({"step": step + 1, "node": [node.real, node.imag], "energy": total})
    return params


# perfbench/tracer.py times the warm extension of a sweep under this name.
def _extend_greedily(bundle, params, n, cfg):
    """Greedy's steps after the tuple ``params`` to n nodes."""
    return _greedy_points(bundle, n, cfg, [], prefix=params)


def _stratified_seeds(rng, radius: float, n: int, count: int) -> list[np.ndarray]:
    """Area-uniform random node sets with radius stratification across starts."""
    seeds = []
    for s in range(count):
        lo = s / count
        hi = (s + 1) / count
        rr = radius * np.sqrt(rng.uniform(lo, hi, size=n))
        th = rng.uniform(0.0, 2.0 * math.pi, size=n)
        seeds.append(rr * np.exp(1j * th))
    return seeds


def _merge_polish(bundle: _Bundle, cfg: OptimizerConfig, candidates: list, trace: list):
    """Search again from the best candidate with two nodes or more that is not
    at exact capture, its closest pair merged into one order-2 node at the
    midpoint, so that signals built from derivative kernels are recovered.
    The result joins ``candidates`` and ``trace``.

    Where a split pair stalls depends on the signal, because the energy is
    flat to fourth order in the split, so no distance decides the merge.
    """
    mergeable = [c for c in candidates if len(c[0]) >= 2 and not bundle.captures(c[1])]
    if not mergeable:
        return
    params, _, source = max(mergeable, key=lambda c: c[1])
    pts = params.points
    i, j = min(itertools.combinations(range(len(pts)), 2), key=lambda ij: abs(pts[ij[0]] - pts[ij[1]]))
    centers = [complex(p) for k, p in enumerate(pts) if k != j]
    centers[i] = (pts[i] + pts[j]) / 2.0
    orders = [1] * len(centers)
    orders[i] = 2
    stats: dict = {}
    merged, merged_val = _local_search(bundle, cfg, _as_x(centers), orders=orders, stats=stats)
    trace.append({"stage": "merge-polish", "energy": merged_val, "merged_from": source, **stats})
    candidates.append((merged, merged_val, len(trace) - 1))


def _annihilator(bundle: _Bundle, k: int):
    """Coefficients p_0 .. p_k = 1 of the monic polynomial whose recurrence
    ``sum_l p_l g[j + l] = 0`` (j = 0 .. N - k) every row of ``g = W f``
    obeys, or None where none of degree k does.

    The Gram matrix of the rows' Hankel windows is formed by lagged sums,
    never the windows, and its last Cholesky pivot ratio at or above
    ``_PIVOT_FLOOR`` declines at once.  Otherwise p solves the normal
    equations and is refined on the prediction error, which is formed
    directly, until a step no longer halves that error, so the test reads
    the error and not its square: the recurrence holds when the error,
    weighed as the signals are, leaves at most ``_HANKEL_TOL`` of their
    energy per unit ``|p|^2``.  A signal that is no exact mix, or a Gram
    matrix too ill-conditioned for the refinement, leaves more.
    """
    g = bundle.matrix * bundle.spec.weights
    w = g.shape[1] - k

    def lagged(i, seq):  # sum_m p_m <seq_m, g_m[i : i + w]>
        return bundle.probs @ np.einsum("mj,mj->m", g[:, i : i + w].conj(), seq)

    gram = np.empty((k + 1, k + 1), dtype=np.complex128)
    for i, j in itertools.combinations_with_replacement(range(k + 1), 2):
        gram[i, j] = lagged(i, g[:, j : j + w])
        gram[j, i] = np.conj(gram[i, j])
    try:
        if np.linalg.cholesky(gram)[k, k].real >= _PIVOT_FLOOR * math.sqrt(gram[k, k].real):
            return None
    except np.linalg.LinAlgError:
        pass
    best, least = None, math.inf
    try:
        coef = np.append(np.linalg.solve(gram[:k, :k], -gram[:k, k]), 1.0)
        for _ in range(_REFINE_STEPS):
            err = sum(c * g[:, l : l + w] for l, c in enumerate(coef))
            left = bundle.probs @ (np.abs(err) ** 2 @ bundle.inv_weights[:w]) / np.vdot(coef, coef).real
            if not left < 0.5 * least:  # refinement has converged or stalled
                break
            best, least = coef.copy(), left
            coef[:k] -= np.linalg.solve(gram[:k, :k], [lagged(l, err) for l in range(k)])
    except np.linalg.LinAlgError:
        pass
    return best if least <= _HANKEL_TOL * bundle.total_sq else None


def _prony_candidate(bundle: _Bundle, k: int, cfg: OptimizerConfig):
    """The Prony tuple of an annihilator of degree k: None where there is
    none, () where a node lies outside the search disc, else its
    ``ParamTuple``, MGS energy and trace fields.  The roots are conj(a_i);
    those within ``_ROOT_SPLIT`` of each other (single linkage) are one node
    at their mean, of their count as multiplicity.  A tuple that MGS does not
    certify gets one search with these orders, as the merge polish runs it;
    one that it certifies gets none, since near exact capture the search's
    energy no longer resolves the residual and a search can drift."""
    coef = _annihilator(bundle, k)
    if coef is None:
        return None
    roots = np.conj(np.roots(coef[::-1]))
    label = list(range(k))
    for i, j in itertools.combinations(range(k), 2):
        if abs(roots[i] - roots[j]) <= _ROOT_SPLIT:
            label = [label[i] if x == label[j] else x for x in label]
    clusters = [roots[[x == c for x in label]] for c in dict.fromkeys(label)]
    centers, orders = [complex(np.mean(c)) for c in clusters], [len(c) for c in clusters]
    if max(abs(c) for c in centers) > _search_radius(bundle, cfg):
        return ()
    params = bundle.make_tuple([c for c, o in zip(centers, orders) for _ in range(o)], cfg)
    energy = bundle.read(params).energy
    stats = {"polish_nfev": 0, "polish_message": _PRONY_STOP}
    if not bundle.captures(energy):
        params, energy = _local_search(bundle, cfg, _as_x(centers), orders=orders, stats=stats)
    return params, energy, {"rank": k, **stats}


def _exact_candidate(bundle: _Bundle, n: int, cfg: OptimizerConfig):
    """The Prony candidate at the smallest k <= min(n, N) (no Hankel window
    of N + 1 coefficients is longer) at which the signals obey a recurrence
    of order k (``_annihilator``), as (params, energy, trace fields), or
    None.  A bundle of more than n rows is not tested: n nodes with
    multiplicity span at most n dimensions.  Each k's outcome is kept per
    bundle, so every n of a sweep reads the same candidate."""
    if len(bundle.matrix) > n:
        return None
    for k in range(1, min(n, bundle.spec.max_degree) + 1):
        key = (k, *_search_key(bundle, cfg))
        if key not in bundle._exact:
            bundle._exact[key] = _prony_candidate(bundle, k, cfg)
        if bundle._exact[key] is not None:
            return bundle._exact[key] or None
    return None


def _same_tuple(a: ParamTuple, b: ParamTuple) -> bool:
    """Whether two tuples are one: their nodes pair up one-to-one, each with
    a node of equal order whose center is within ``a.merge_tol``, the
    distance at which ``ParamTuple`` makes two nodes one.  The pairing is a
    bipartite matching grown by augmenting paths, so the nodes' order does
    not matter."""
    if sorted(a.orders) != sorted(b.orders):
        return False
    near = [
        [j for j, (d, q) in enumerate(zip(b.centers, b.orders)) if q == o and abs(c - d) <= a.merge_tol]
        for c, o in zip(a.centers, a.orders)
    ]
    paired: dict[int, int] = {}  # node of b -> its node of a
    return all(_pair(i, near, paired, set()) for i in range(len(near)))


def _pair(i: int, near: list, paired: dict, seen: set) -> bool:
    """Whether node i pairs up by an augmenting path through ``paired``; a closure would refer to itself."""
    for j in near[i]:
        if j not in seen:
            seen.add(j)
            if j not in paired or _pair(paired[j], near, paired, seen):
                paired[j] = i
                return True
    return False


def _nbest_points(bundle: _Bundle, n: int, cfg: OptimizerConfig, trace: list, warm=()):
    """Exact, greedy, warm, multistart and merge-polish candidates, each with
    the ``ParamTuple`` its stage handed on (``warm`` holds more start
    tuples); returns the tuple of the one with the smallest residual among
    the distinct tuples within ``_RANK_MARGIN`` of the best MGS energy
    (``select``), which no stage builds again.  Each candidate is recorded by
    one trace entry, and a final ``select`` entry gives the index in
    ``trace`` of the winner's entry and its stage.  A candidate whose tuple
    an earlier one recorded (``_same_tuple``) is not ranked: its entry names
    the earliest record of the tuple in ``same_as``, and that record stands
    for it, so each distinct tuple in the window has its residual summed once.

    The Prony candidate (``_exact_candidate``) comes first, and unless MGS
    certifies its capture, greedy to n nodes.  A certified capture, or
    greedy's, ends the search among these and the warm tuples as they are
    (``warm`` entries).  Otherwise warm tuples of fewer than n distinct nodes
    join as they are, and greedy's tuple and those of n distinct ones start lanes."""
    # (params, MGS energy, index of the candidate's trace entry)
    candidates: list[tuple[ParamTuple, float, int]] = []

    def add(params, val, entry):
        trace.append(entry)
        candidates.append((params, val, len(trace) - 1))

    # Near exact capture energies no longer separate candidates; the
    # residual computed by finalize still does.
    def sort_key(cand):
        rounded = sorted((round(p.real, 12), round(p.imag, 12)) for p in cand[0].points)
        return (bundle.finalize(cand[0])[3], rounded)

    def select():
        firsts: list = []  # the earliest record of each tuple
        for cand in candidates:
            first = next((f for f in firsts if _same_tuple(f[0], cand[0])), None)
            if first is None:
                firsts.append(cand)
            else:
                trace[cand[2]]["same_as"] = first[2]
        floor = max(c[1] for c in firsts) - _RANK_MARGIN * bundle.total_sq
        best, _, entry = min((c for c in firsts if c[1] >= floor), key=sort_key)
        trace.append({"stage": "select", "winner": entry, "from": trace[entry]["stage"]})
        return best

    exact = _exact_candidate(bundle, n, cfg)
    ended = exact is not None and bundle.captures(exact[1])
    if not ended:
        steps: list = []
        greedy = _greedy_points(bundle, n, cfg, steps)
        greedy_energy = steps[-1]["energy"] if steps else 0.0
        add(greedy, greedy_energy, {"stage": "greedy", "steps": steps, "energy": greedy_energy})
        ended = bundle.captures(greedy_energy)
    if exact is not None:
        params, val, stats = exact
        add(params, val, {"stage": "exact", "energy": val, **stats})
    lanes = []
    for w in warm:
        if ended or w.orders.count(1) < n:  # a double node starts no lane
            val = bundle.read(w).energy
            add(w, val, {"stage": "warm", "energy": val})
        else:
            lanes.append(w)
    if ended:
        return select()

    starts = [_as_x(p.points) for p in (greedy, *lanes) if len(p) == n]

    rng = np.random.default_rng(cfg.seed)
    grid = _search_grid(bundle, cfg)
    top = grid.points[np.argsort(grid.empty)[::-1][: max(3 * n, 8)]]
    n_top = cfg.multistart // 2
    for _ in range(n_top):
        if len(top) >= n:
            pick = rng.choice(len(top), size=n, replace=False)
            starts.append(_as_x(top[pick]))
    radius = _search_radius(bundle, cfg)
    starts.extend(_as_x(s) for s in _stratified_seeds(rng, radius, n, cfg.multistart - n_top))

    distinct = list({x0.tobytes(): x0 for x0 in starts}.values())  # equal starts, equal searches
    for params, val, stats in _lane_searches(bundle, cfg, distinct):
        add(params, val, {"stage": "local", "energy": val, **stats})

    _merge_polish(bundle, cfg, candidates, trace)
    return select()


# -- public engines ------------------------------------------------------------


def _result(bundle: _Bundle, cfg, method: str, params=None, trace=()) -> ApproximationResult:
    """The result for the winner's ``ParamTuple``, finalized on the bundle,
    or, without params, the zero-node result; coefficients have one row per
    realization, in an array the result owns.  A winner that a search on the
    bundle itself ranked is read from that ranking's finalization."""
    norm = math.sqrt(bundle.total_sq)
    if params is None:
        params = bundle.empty(cfg)
        coeffs = np.zeros((len(bundle.probs), 0), dtype=np.complex128)
        cap, residual, degraded = 0.0, norm, False
    else:
        params, coeffs, cap, residual, degraded = bundle.finalize(params)
        coeffs = coeffs.copy()  # the read keeps its own read-only
    return ApproximationResult(params, coeffs, cap, residual, norm, method, list(trace), degraded)


def _check_norm(bundle: _Bundle) -> None:
    """Raise ``DomainError`` unless the bundle's squared norm (for an
    ensemble, the squared Bochner norm) is a finite normal double, or the
    signals are zero: an infinite one leaves no finite result, a subnormal
    one has no finite search gain (``_Objective``), and one that underflows
    to 0 would pass a signal off as zero."""
    total_sq = bundle.total_sq
    zero = total_sq == 0.0 and not bundle.probs[bundle.matrix.any(axis=1)].any()
    if not (zero or _TINY <= total_sq < math.inf):
        raise DomainError(
            f"squared signal norm {total_sq:.6g} is not a finite normal double: "
            "the coefficients are too large or too small in magnitude"
        )


def _run(bundle: _Bundle, n: int, config, method: str, sweep: bool) -> list[ApproximationResult]:
    """Results for n nodes, or with ``sweep`` for each of 0 .. n.

    Every n is searched as at a single n, on steps the bundle keeps: greedy
    selection never revisits a node, so the run to k nodes is the k-prefix
    of the run to n, and each step is taken once (``_greedy_step``).
    ``afd`` finalizes greedy's run to k nodes; ``nbest`` and
    ``stochastic_nbest`` search with ``_nbest_points``, in a sweep also from
    the greedy extension of the previous result (``_extend_greedily``).
    The searches run on the bundle's exact low-rank factor, which is the
    bundle itself for one realization and for full rank; every result is
    finalized on the bundle.  A ``stochastic_nbest`` trace opens with a
    ``compress`` entry giving M and the rank r the search ran on.  A signal
    whose squared norm is not 0 or a finite normal double raises
    ``DomainError`` (``_check_norm``).
    """
    cfg = config or OptimizerConfig()
    if n < 0:
        raise ValueError("node count must be non-negative")
    _check_norm(bundle)
    searched = n > 0 and bundle.total_sq > 0.0
    factor = bundle.compressed() if searched else bundle
    opening = []
    if method == "stochastic_nbest":
        rank = len(factor.probs)
        opening = [{"stage": "compress", "realizations": len(bundle.probs), "rank": rank}]
    results: list[ApproximationResult] = []
    prev = None
    for k in range(n + 1) if sweep else (n,):
        trace = list(opening)
        if k == 0 or not searched:
            res = _result(bundle, cfg, method)
        elif method == "afd":
            res = _result(bundle, cfg, method, _greedy_points(factor, k, cfg, trace), trace)
        else:
            warm = [_extend_greedily(factor, prev, k, cfg)] if prev else []
            res = _result(bundle, cfg, method, _nbest_points(factor, k, cfg, trace, warm), trace)
            prev = res.params
        if method != "stochastic_nbest":
            res.coefficients = res.coefficients[0]
        results.append(res)
    return results


def afd_greedy(
    spec: SpaceSpec, f: AnalyticFunction, n: int, config: OptimizerConfig | None = None
) -> ApproximationResult:
    """Greedy approximation: each node maximizes the energy increment given
    the nodes already chosen, via grid search plus local refinement."""
    return _run(_Bundle.single(spec, f), n, config, "afd", sweep=False)[0]


def afd_decay_sweep(
    spec: SpaceSpec, f: AnalyticFunction, n_max: int, config: OptimizerConfig | None = None
) -> list[ApproximationResult]:
    """Greedy results for n = 0 .. n_max from one greedy run; each entry
    equals ``afd_greedy(spec, f, n, config)``."""
    return _run(_Bundle.single(spec, f), n_max, config, "afd", sweep=True)


def nbest(
    spec: SpaceSpec, f: AnalyticFunction, n: int, config: OptimizerConfig | None = None
) -> ApproximationResult:
    """Best n-node approximation by multistart global search over the compact
    search disc, warm-started from the greedy solution.  The returned energy
    never falls below the greedy energy, but for an exact kernel mix certified
    before greedy runs: its energy is within 1e-13 of the signal's.  Row n of
    ``residual_decay_sweep`` is searched in the same order."""
    return _run(_Bundle.single(spec, f), n, config, "nbest", sweep=False)[0]


def residual_decay_sweep(
    spec: SpaceSpec, f: AnalyticFunction, n_max: int, config: OptimizerConfig | None = None
) -> list[ApproximationResult]:
    """Global results for n = 0 .. n_max, each searched as ``nbest`` searches
    it, on greedy steps taken once, and with a warm start from the result
    for n - 1, so the residual column is nonincreasing."""
    return _run(_Bundle.single(spec, f), n_max, config, "nbest", sweep=True)
