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

Every local search is a bounded dense BFGS run on that gradient (in numpy,
over the box of the search radius), run as lanes of one lockstep search
(``_descend``): each round evaluates one trial point per active lane in one
stacked Gram/Cholesky evaluation, while each lane keeps its own iteration.
Greedy selection maximizes the per-step energy increment over a coarse disc
grid refined by a local search of one lane (``minimize``); the global engine
adds stratified multistart seeds, descent over all node coordinates at once
from every start as the lanes of one search, and a merge polish that searches
again from the best inexact candidate with its closest pair as one order-2
node.

A greedy step works on one span of its fixed prefix (``_Span``): the
orthonormal basis ``Q`` of the prefix's kernels, the residual ``R = F - P_Q F``
of the signals and the prefix energy ``E_p``.  A span reads the tuple's kept
MGS system, which the previous step's search kept, and ``finalize`` reads a
span too, so each tuple is orthogonalized once.  Its grid scan scores node g
as ``sum_m p_m |<R_m, K_g>|^2 / (||K_g||^2 - sum_j |<K_g, Q_j>|^2)``, and its
local search evaluates ``E_p + sum_m p_m |<R_m, u>|^2 / ||u||^2``, with ``u``
the part of the moving node's kernel outside the span, and the closed-form
gradient, so greedy forms no Gram matrix.  A node that merges with a prefix
node, or whose kernel lies in the span by MGS's degeneracy test, lies outside
the search domain too.  Greedy and the lanes keep separate evaluators, each
the faster where it runs (2 cores, alternating pairs): greedy steps by
Cholesky on the span-projected block made ``sweep`` 6-14% slower, and the
lanes by stacked two-pass Gram-Schmidt made ``multistart`` 29-37% slower.

Every engine, the stochastic one included, is one run of one pipeline
(``_run``) on a ``_Bundle`` of M weighted signals, of which a single signal is
the case M = 1.  It searches on the bundle's exact low-rank factor and
finalizes the chosen tuple on the bundle.  A decay sweep runs greedy once, to
its largest node count: greedy results finalize prefixes of that run, and
each n-best search starts from its n-prefix.
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
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTupleWarning, DomainError
from .spaces import (
    DEFAULT_MERGE_TOL,
    DEFAULT_RADIUS_CAP,
    AnalyticFunction,
    ParamTuple,
    SpaceSpec,
    _check_member,
    _falling_factorial,
    kernel_matrix,
)
from .orthosystem import EPS_DEGENERATE, _gram_schmidt_impl

_EXACT_CAPTURE_TOL = 1e-13
# Smallest Cholesky pivot ratio L_kk / sqrt(G_kk) the Gram path trusts; below
# it the energy loses about eps / ratio**2 relative accuracy, so the tuple
# fails and lies outside the search domain.
_PIVOT_FLOOR = 1e-4
# Kernel rows are built as products of two power blocks of this length.  Block
# powers below _TINY_POWER are flushed to zero: they are negligible against
# the leading term 1, and flushing keeps every row entry and every product of
# two entries out of the subnormal range, where arithmetic is slow.
_POWER_BLOCK = 32
_TINY_POWER = 1e-75
# Ensemble compression keeps a realization's Gram-Schmidt residual only when
# its norm exceeds _RANK_TOL times the realization's own norm, so the factor
# drops at most _RANK_TOL**2 * total_sq of energy in any direction.
# Realizations are processed _RANK_BLOCK at a time, which bounds temporaries.
_RANK_TOL = 1e-8
_RANK_BLOCK = 64
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
            ("delta", 1.0 - DEFAULT_RADIUS_CAP <= self.delta < 1.0,
             f"must lie in [{1.0 - DEFAULT_RADIUS_CAP}, 1)"),
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
    """One evaluation of a ``_Nodes`` batch, one entry per tuple: the value,
    dE/da per moving node, and whether the evaluation failed, in which case
    the tuple's value is NaN and its ``grad`` row zero."""

    value: np.ndarray
    grad: np.ndarray
    failed: np.ndarray


class _Nodes(NamedTuple):
    """B node tuples of one structure, evaluated together without building a
    ``ParamTuple`` for any of them: ``centers`` (B x n) holds each tuple's
    kernel centers and ``orders`` the n kernel orders they share, as in a
    ``ParamTuple``'s fields."""

    centers: np.ndarray
    orders: tuple


class _Span(NamedTuple):
    """The span of the tuple ``params``, read from its kept MGS system: its
    orthonormal basis rows ``Q``, the coefficients ``<f_m, Q_j>``, the
    two-pass residual ``R = F - P_Q F`` of each signal, the captured energy
    ``E_p``, and whether a node was degenerate, in which case ``Q`` stops
    before it.  Entries of ``Q`` and ``R`` below ``_TINY_POWER`` times their
    row's largest entry are zero; greedy appends a node to it by
    ``_span_captured`` (module docstring: why not the lanes' Gram path)."""

    params: ParamTuple
    basis: np.ndarray
    coefficients: np.ndarray
    residual: np.ndarray
    energy: float
    degraded: bool


def _flushed(rows: np.ndarray) -> np.ndarray:
    """``rows`` with every entry below ``_TINY_POWER`` times its row's largest
    entry set to zero, in place, as ``_powers`` flushes its powers."""
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


class _Bundle:
    """A weighted family of signals over one space; single signals are M = 1."""

    def __init__(self, spec: SpaceSpec, matrix: np.ndarray, probs: np.ndarray, systems=None):
        self.spec = spec
        self.matrix = matrix
        self.probs = probs
        self.weighted = matrix * spec.weights
        self.inv_weights = 1.0 / spec.weights
        with np.errstate(over="ignore"):  # ``_check_norm`` refuses an infinite norm
            self.norms_sq = np.real(np.sum(self.weighted * np.conj(matrix), axis=1))
        self.total_sq = float(self.probs @ self.norms_sq)
        self._falling: dict[int, np.ndarray] = {}
        self._grids: dict[tuple, _Grid] = {}
        # MGS bases depend on the space and the tuple only, so a factor
        # shares the ones its ensemble keeps (``systems``).
        self._systems: dict[tuple, tuple[np.ndarray, bool]] = {} if systems is None else systems

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
        flushed to zero, as in ``_powers``.  When M <= N + 1, one Cholesky
        factorization of the M x M Gram matrix of the ``u_m`` detects full
        rank and skips the deflation.
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

        def keeps_every_row(rows: slice) -> bool:
            # Cholesky pivots of the rows' Gram matrix are the residual norms
            # of Gram-Schmidt in row order.  Its rounding stays below 8 n1 eps
            # times its trace (at most the number of rows), far above
            # _RANK_TOL**2, so pivots above that bound keep every row.
            u = units(rows)
            gram = np.empty((len(u), len(u)), dtype=np.complex128)
            for start in range(0, len(u), _RANK_BLOCK):  # conjugate copies stay block-sized
                gram[:, start : start + _RANK_BLOCK] = u @ u[start : start + _RANK_BLOCK].conj().T
            del u
            try:
                pivots = np.linalg.cholesky(gram).diagonal().real
            except np.linalg.LinAlgError:
                return False
            return bool(np.min(pivots) ** 2 > 8.0 * n1 * np.finfo(np.float64).eps * len(pivots))

        # Full rank returns at once; the first block screens out deficient
        # ensembles before the M x M Gram matrix is formed.
        if m <= n1 and keeps_every_row(slice(0, _RANK_BLOCK)) and keeps_every_row(slice(None)):
            return self
        basis = np.empty((min(m, n1), n1), dtype=np.complex128)
        r = 0
        blocks = [slice(start, start + _RANK_BLOCK) for start in range(0, m, _RANK_BLOCK)]
        for rows in blocks:
            block = units(rows)
            for _ in range(2):
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
        coords = np.vstack([scale[rows, None] * (units(rows) @ basis.conj().T) for rows in blocks])
        factor = np.linalg.qr(coords, mode="r") @ basis / root_w
        return _Bundle(self.spec, factor, np.ones(r), self._systems)

    def make_tuple(self, points, cfg: OptimizerConfig) -> ParamTuple:
        return ParamTuple(tuple(points), cfg.merge_tol, self.spec.radius_cap)

    def captures(self, energy: float) -> bool:
        """Whether ``energy`` captures the signals exactly: it falls short of
        their energy by at most ``_EXACT_CAPTURE_TOL`` of it."""
        return self.total_sq - energy <= _EXACT_CAPTURE_TOL * self.total_sq

    def captured(self, nodes: _Nodes, owners: np.ndarray, span=None) -> _Capture:
        """Captured energy of each tuple of a ``_Nodes`` batch and its
        gradient, in one stacked evaluation; ``owners`` holds one entry per
        tuple position: the index of the moving node it belongs to, or -1 if
        fixed.  Without ``span`` each kernel Gram matrix is factored once, and a
        tuple whose Cholesky pivot ratio falls below ``_PIVOT_FLOOR`` fails.
        With a ``_Span``, each tuple is one node appended to the span's
        prefix, evaluated on the span (``_span_captured``) without a Gram
        matrix, and fails by MGS's degeneracy test.  MGS never runs here; a
        failed tuple lies outside the search domain (``_Objective``).
        """
        if span is not None:
            return _Capture(*self._span_captured(nodes.centers[:, 0], span))
        return _Capture(*self._gram_captured(nodes.centers, nodes.orders, owners))

    def system(self, params: ParamTuple) -> tuple[np.ndarray, bool]:
        """The MGS basis rows of the tuple and whether it degraded, kept per
        (centers, orders) for the life of the bundle and its factor, i.e. of
        one engine call: the value a search reports, the spans of greedy
        prefixes, the ranking of candidates and the result read one
        orthogonalization of each tuple.  Search evaluations never reach MGS,
        so every tuple kept is one of these."""
        if not len(params):  # the empty span, which needs no Gram-Schmidt
            return np.zeros((0, self.spec.max_degree + 1), dtype=np.complex128), False
        key = (params.centers, params.orders)
        kept = self._systems.get(key)
        if kept is None:
            system, degraded = _gram_schmidt_impl(
                self.spec, params, eps_degenerate=1e-10, allow_partial=True
            )
            kept = self._systems[key] = (system.basis, degraded)
        return kept

    def _mgs_captured(self, params: ParamTuple) -> tuple[float, bool]:
        basis, degraded = self.system(params)
        c = self.weighted @ basis.conj().T
        return float(self.probs @ np.sum(np.abs(c) ** 2, axis=1)), degraded

    def _powers(self, centers: np.ndarray) -> np.ndarray:
        """Rows ``conj(c)**k`` for k = 0 .. N, as products of the powers
        k = 32 i and k = j < 32; terms below ``_TINY_POWER`` become zero."""
        z = np.conj(centers)[:, None]
        low = np.empty((z.size, _POWER_BLOCK), dtype=np.complex128)
        low[:, 0] = 1.0
        low[:, 1:] = z
        np.cumprod(low[:, 1:], axis=1, out=low[:, 1:])
        high = np.empty((z.size, -(-(self.spec.max_degree + 1) // _POWER_BLOCK)), dtype=np.complex128)
        high[:, 0] = 1.0
        high[:, 1:] = low[:, -1:] * z
        np.cumprod(high[:, 1:], axis=1, out=high[:, 1:])
        low[np.abs(low) < _TINY_POWER] = 0.0
        high[np.abs(high) < _TINY_POWER] = 0.0
        return (high[:, :, None] * low[:, None, :]).reshape(z.size, -1)[:, : self.spec.max_degree + 1]

    def _kernel_rows(self, powers: np.ndarray, orders) -> np.ndarray:
        """Rows ``W * K`` of the order-``o`` kernels whose ``_powers`` rows are
        given (n rows, or a stack of n rows per tuple): ``k (k-1) ... (k-o+2)
        conj(c)**(k-o+1)``, i.e. ``multiple_kernel`` times the weights."""
        if all(o == 1 for o in orders):
            return powers
        n1 = powers.shape[-1]
        rows = np.zeros_like(powers)
        for i, o in enumerate(orders):
            rows[..., i, o - 1 :] = powers[..., i, : n1 - o + 1] * self._falling_factorial(o - 1)
        return rows

    def _falling_factorial(self, lag: int) -> np.ndarray:
        """k (k-1) ... (k-lag+1) for k = lag .. N."""
        out = self._falling.get(lag)
        if out is None:
            out = self._falling[lag] = _falling_factorial(self.spec.max_degree, lag)
        return out

    def _gram_captured(self, centers: np.ndarray, orders: tuple, owners: np.ndarray):
        """Gram/Cholesky evaluation of the B tuples of ``centers`` at once:
        their values, their gradients (one row per tuple), and the mask of
        the tuples whose pivot ratios fall below the floor, which get
        neither.

        With x = G^{-1} v and residual r = f - Pf, the envelope theorem gives
        dE/da_c = sum_m p_m sum_{j at c} conj(x_mj) <r_m, K_j+>, where K_j+ is
        the next-order kernel, i.e. dK_j / d(conj a_c).  Every step is a
        stacked or elementwise operation, so a tuple's results are the same
        bits whichever batch it is evaluated in.
        """
        count, n = centers.shape
        powers = self._powers(centers.ravel()).reshape(count, n, -1)
        rows = self._kernel_rows(powers, orders)
        rows_conj = rows.conj()
        gram = (rows_conj * self.inv_weights) @ rows.transpose(0, 2, 1)  # G_ij = <K_j, K_i>
        pairs = self.matrix @ rows_conj.transpose(0, 2, 1)  # v_mi = <f_m, K_i>
        chol = _cholesky(gram)
        floor = _PIVOT_FLOOR * np.sqrt(gram.diagonal(axis1=1, axis2=2).real)
        ok = (chol.diagonal(axis1=1, axis2=2).real >= floor).all(axis=1)
        failed = ~ok
        held = slice(None) if ok.all() else ok
        value = np.full(count, np.nan)
        grad = np.zeros((count, owners.max() + 1), dtype=np.complex128)
        if failed.all():
            return value, grad, failed
        powers, rows, chol, pairs = powers[held], rows[held], chol[held], pairs[held]
        y = np.linalg.solve(chol, pairs.transpose(0, 2, 1))
        value[held] = _rowdot(np.sum(np.abs(y) ** 2, axis=1), self.probs)
        x = np.linalg.solve(chol.conj().transpose(0, 2, 1), y)
        moving = owners >= 0
        nxt_orders = [o + 1 for o, own in zip(orders, owners) if own >= 0]
        nxt_conj_t = self._kernel_rows(powers[:, moving], nxt_orders).conj().transpose(0, 2, 1)
        # <r_m, K_j+> = <f_m, K_j+> - sum_i x_mi <K_i, K_j+>
        cross = (rows * self.inv_weights) @ nxt_conj_t
        resid_pairs = self.matrix @ nxt_conj_t - x.transpose(0, 2, 1) @ cross
        x_moving = x[:, moving].transpose(0, 2, 1).conj()
        per_row = np.sum(self.probs[:, None] * x_moving * resid_pairs, axis=1)
        part = np.zeros((len(y), grad.shape[1]), dtype=np.complex128)
        np.add.at(part, (slice(None), owners[moving]), per_row)
        grad[held] = part
        return value, grad, failed

    def span(self, params: ParamTuple) -> _Span:
        """The ``_Span`` of the tuple, read from its kept MGS system: a greedy
        prefix is the tuple that the previous step's search, or ``finalize``
        for a sweep's warm extension, has just kept.  The basis is a flushed
        copy, as the kept one is read-only and may hold subnormals."""
        basis, degraded = self.system(params)
        basis = _flushed(basis.copy())
        coeffs = self.weighted @ basis.conj().T
        energy = float(self.probs @ np.sum(np.abs(coeffs) ** 2, axis=1))
        # The signals' residual after projection on the basis, in two passes.
        residual = self.matrix - coeffs @ basis
        residual -= (residual @ (self.spec.weights * basis).conj().T) @ basis
        return _Span(params, basis, coeffs, _flushed(residual), energy, degraded)

    def _span_captured(self, points: np.ndarray, span: _Span):
        """Span evaluation of the B tuples that append one node of ``points``
        to the span's prefix: their values, their gradients (one column), and
        the mask of the tuples that fail, which get neither: all of a
        degraded span's, and those whose node's kernel ``K``
        keeps ``||u|| <= 1e-10 ||K||`` outside the span, MGS's own degeneracy
        test.

        With ``u = K - P_Q K`` taken in two passes, ``beta = ||u||^2`` and
        ``alpha_m = <R_m, u>``, the energy is ``E_p + sum_m p_m |alpha_m|^2 /
        beta``.  (``alpha_m`` equals ``<R_m, K>`` in exact arithmetic, but
        near a prefix node, where ``||u|| << ||K||``, that form loses about
        ``||K|| / ||u||`` in relative accuracy and this one keeps MGS's.)
        The projection of f_m on the extended span adds ``x_m u`` with ``x_m
        = alpha_m / beta``, so the envelope theorem gives ``dE/da = sum_m p_m
        conj(x_m) (<R_m, K+> - x_m <u, K+>)``, with K+ the next-order kernel.
        Every product is stacked over the tuples, so a tuple's results are the
        same bits whichever batch it is evaluated in.
        """
        count = len(points)
        value = np.full(count, np.nan)
        grad = np.zeros((count, 1), dtype=np.complex128)
        if span.degraded:
            return value, grad, np.ones(count, dtype=bool)
        w = self.spec.weights
        powers = self._powers(points)  # W K
        u = powers * self.inv_weights
        scale_sq = np.sum(w * np.abs(u) ** 2, axis=1)
        basis_h = span.basis.conj().T
        for _ in range(2):
            if len(span.basis):
                u -= (((w * u)[:, None, :] @ basis_h) @ span.basis)[:, 0]
        beta = np.sum(w * np.abs(u) ** 2, axis=1)
        ok = beta > EPS_DEGENERATE**2 * scale_sq
        failed = ~ok
        held = slice(None) if ok.all() else ok
        if failed.all():
            return value, grad, failed
        u, beta = u[held], beta[held, None]
        # W u, and W K+ for the gradient
        rows = np.concatenate([(w * u)[:, None], self._kernel_rows(powers[held, None], (2,))], axis=1)
        pairs = span.residual @ rows.conj().transpose(0, 2, 1)  # <R_m, u>, <R_m, K+>
        alpha = pairs[:, :, 0]
        value[held] = span.energy + _rowdot(np.abs(alpha) ** 2 / beta, self.probs)
        x = alpha / beta
        u_next = _rowdot(u, rows[:, 1].conj())  # <u, K+>
        grad[held, 0] = _rowdot(np.conj(x) * (pairs[:, :, 1] - x * u_next[:, None]), self.probs)
        return value, grad, failed

    def finalize(self, points, cfg: OptimizerConfig):
        """Params trimmed to the basis, coefficients, energy, residual norm
        and degradation of the tuple, read from its ``span`` (its kept MGS
        system and two-pass residual)."""
        span = self.span(self.make_tuple(points, cfg))
        params = span.params
        if len(span.basis) < len(params):
            params = ParamTuple(params.points[: len(span.basis)], params.merge_tol, params.radius_cap)
        resid_sq = np.sum(self.spec.weights * np.abs(span.residual) ** 2, axis=1)
        residual = math.sqrt(max(float(self.probs @ resid_sq), 0.0))
        return params, span.coefficients, span.energy, residual, span.degraded


def _energy(bundle: _Bundle, params: ParamTuple) -> float:
    """Captured energy of the bundle by MGS, the reference; warns, at the
    public caller's caller, when the tuple degrades."""
    val, degraded = bundle._mgs_captured(params)
    if degraded:
        warnings.warn(
            "degenerate node tuple: energy computed on its well-conditioned prefix",
            DegenerateTupleWarning,
            stacklevel=3,
        )
    return val


def energy(spec: SpaceSpec, f: AnalyticFunction, params: ParamTuple) -> float:
    """Captured energy of ``f`` on the tuple's kernel span, by modified
    Gram-Schmidt.

    Invariant under permutations of the tuple and nondecreasing under
    extension.  A numerically degenerate tuple degrades to its maximal
    well-conditioned prefix and emits ``DegenerateTupleWarning``.
    """
    return _energy(_Bundle.single(spec, f), params)


# -- local search -------------------------------------------------------------


def _reflected_points(x: np.ndarray, radius: float) -> np.ndarray:
    """Nodes of the coordinates ``x`` (one point, or one per row); one at
    |u| > radius is mirrored in the search circle to radius ``2 radius - |u|``.
    A radial clamp would leave a flat shelf outside the circle, on which a
    gradient search that overshoots the circle stalls; the mirror leads it
    back."""
    pts = x[..., 0::2] + 1j * x[..., 1::2]
    r = np.abs(pts)
    over = r > radius
    if np.any(over):
        pts = np.where(over, pts * ((2.0 * radius - r) / np.maximum(r, 1e-300)), pts)
    return pts


def _search_radius(bundle: _Bundle, cfg: OptimizerConfig) -> float:
    return min(1.0 - cfg.delta, bundle.spec.radius_cap)


class _Objective:
    """Negated captured energy over the flattened real coordinates of the
    moving nodes, at one point or at one point per lane of a search.

    With ``orders`` moving node i enters with multiplicity ``orders[i]``
    (merge polish).  ``prefix`` nodes stay fixed; the objective then takes one
    moving node and evaluates it on the prefix's ``_Span`` (``span``, or one
    built here).  Nodes overshooting the search disc are mirrored back into
    it, and the analytic gradient is chained through the mirror.  The points
    whose moving nodes stay apart from every other node are evaluated
    together, in one batch on the span or else on the Gram path.  The search
    domain is the set of points that batch accepts: a point whose moving
    node merges with another node (so that its ``ParamTuple`` would not keep
    the nodes the search moves), or that the batch marks failed, has value
    +inf and gradient 0, and no MGS evaluation.
    Every value and gradient is multiplied by ``gain``, the power of 4 that
    brings the bundle's energy into [1, 4) when it lies below 1 or at or
    above 2**64, and 1 otherwise, so that ``minimize``'s absolute stops treat
    a weak signal as a normal one and a strong one stays far from overflow.
    """

    def __init__(
        self, bundle: _Bundle, cfg: OptimizerConfig, count: int, prefix=(), orders=None, span=None
    ):
        self.bundle = bundle
        self.cfg = cfg
        self.radius = _search_radius(bundle, cfg)
        self.prefix = tuple(prefix)
        self.reps = tuple(orders) if orders is not None else (1,) * count
        self.merged = max(self.reps, default=1) > 1
        fixed = bundle.make_tuple(self.prefix, cfg)
        if span is None and self.prefix:
            span = bundle.span(fixed)
        if span is not None and self.reps != (1,):
            raise ValueError("a fixed prefix takes one moving node of order 1")
        self.span = span
        # Each distinct fixed node enters the tuple first with order 1.
        self.fixed_reps = np.array([c for c, o in zip(fixed.centers, fixed.orders) if o == 1])
        self.orders = tuple(k + 1 for o in self.reps for k in range(o))
        self.owners = np.array([i for i, o in enumerate(self.reps) for _ in range(o)])
        self.earlier = np.tri(count, k=-1, dtype=bool)
        # With total_sq = m 2**e, m in [1/2, 1), 4**k total_sq lies in [1, 4)
        # for k = (2 - e) // 2; energies in [1, 2**64) keep gain 1.
        e = math.frexp(bundle.total_sq)[1]
        self.gain = 1.0 if 1 <= e <= 64 else math.ldexp(1.0, 2 * ((2 - e) // 2))

    def expand(self, pts) -> tuple:
        full = list(self.prefix)
        for p, o in zip(pts, self.reps):
            full.extend([complex(p)] * o)
        return tuple(full)

    def params(self, x: np.ndarray) -> ParamTuple:
        return self.bundle.make_tuple(self.expand(_reflected_points(x, self.radius)), self.cfg)

    def _apart(self, pts: np.ndarray) -> np.ndarray:
        """Rows whose moving nodes merge with no other node, so that the
        tuple's ``ParamTuple`` would keep them as they are."""
        tol = self.cfg.merge_tol
        apart = np.ones(len(pts), dtype=bool)
        if self.fixed_reps.size:
            apart &= (np.abs(pts[:, :, None] - self.fixed_reps) > tol).all(axis=(1, 2))
        if pts.shape[1] > 1:
            close = np.abs(pts[:, :, None] - pts[:, None, :]) <= tol
            apart &= ~(close & self.earlier).any(axis=(1, 2))
        return apart

    def value_and_grad(self, x):
        """The value and gradient at ``x``, or at each row of a stack ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            value, grad = self.value_and_grad(x[None])
            return float(value[0]), grad[0]
        pts = _reflected_points(x, self.radius)
        apart = self._apart(pts)
        value = np.full(len(x), np.inf)
        grad = np.zeros_like(x)
        if apart.any():
            rows = slice(None) if apart.all() else apart
            moving = np.repeat(pts[rows], self.reps, axis=1) if self.merged else pts[rows]
            cap = self.bundle.captured(_Nodes(moving, self.orders), self.owners, span=self.span)
            value[rows] = np.where(cap.failed, np.inf, -cap.value)
            # dE/dx + i dE/dy per node, zero on a failed row; a mirrored node
            # a = (2R - |u|) u / |u| moves against u radially and by
            # (2R - |u|) / |u| tangentially.
            slope = 2.0 * np.conj(cap.grad)
            raw = x[rows, 0::2] + 1j * x[rows, 1::2]
            r = np.abs(raw)
            over = r > self.radius
            if np.any(over):
                u = raw[over] / r[over]
                along = np.conj(u) * slope[over]
                stretch = (2.0 * self.radius - r[over]) / r[over]
                slope[over] = u * (-along.real + 1j * stretch * along.imag)
            grad[rows, 0::2] = -slope.real
            grad[rows, 1::2] = -slope.imag
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
    order of the rows of ``x0``.
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
            np.divide(np.where(dk > 0.0, hi - xk, lo - xk), dk, out=room, where=dk != 0.0)
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
            hu = h[u]
            hy = (hu @ yk[:, :, None])[:, :, 0] / sy[:, None]
            cross = sk[:, :, None] * hy[:, None, :]
            outer = sk[:, :, None] * sk[:, None, :]
            hu += ((1.0 + _rowdot(yk, hy)) / sy)[:, None, None] * outer - (cross + cross.transpose(0, 2, 1))
            h[u] = hu
        if len(begin) == len(f):
            x, g = trial, g_new
        else:
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


def _reported(objective: _Objective, res: _Minimum, stats) -> tuple:
    """The points a search ended at and their energy, recomputed with MGS, also
    for a search that stopped at a start outside the search domain;
    ``stats``, if given, receives the search's evaluation count and stop
    message."""
    params = objective.params(res.x)
    if stats is not None:
        stats.update(polish_nfev=int(res.nfev), polish_message=str(res.message))
    return params.points, objective.bundle._mgs_captured(params)[0]


def _local_search(bundle, cfg, x0, prefix=(), orders=None, stats=None, span=None):
    """One bounded dense BFGS search (``minimize``) with the analytic
    gradient of the captured energy, started at ``x0`` on the flattened real
    coordinates of the moving nodes, in the box ``[-R, R]`` of the search
    radius R: a lockstep search of one lane, as greedy steps and the merge
    polish run it.  ``span``, if given, is the ``_Span`` of ``prefix``.

    The returned energy is recomputed with MGS.  ``stats``, if given, receives
    the evaluation count and the stop message.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    objective = _Objective(bundle, cfg, x0.size // 2, prefix, orders, span)
    res = minimize(
        objective.value_and_grad,
        x0,
        method="L-BFGS-B",
        bounds=[(-objective.radius, objective.radius)] * x0.size,
        options=_search_options(cfg),
    )
    return _reported(objective, res, stats)


def _lane_searches(bundle, cfg, starts: list) -> list[tuple]:
    """The search of ``_local_search`` from each of ``starts`` (flattened
    coordinates of n moving nodes each), run as the lanes of one lockstep
    ``_descend``; one (points, energy, stats) per start, in order."""
    if not starts:
        return []
    objective = _Objective(bundle, cfg, starts[0].size // 2)
    bound = np.full(starts[0].size, objective.radius)
    ends = _descend(objective.value_and_grad, np.array(starts), -bound, bound, _search_options(cfg))
    out = []
    for res in ends:
        stats: dict = {}
        out.append((*_reported(objective, res, stats), stats))
    return out


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
    as in ``_powers``), the rows' squared norms, and each grid kernel's
    energy increment on the empty span."""

    points: np.ndarray
    weighted_h: np.ndarray
    raw: np.ndarray
    single: np.ndarray | None


def _grid_increments(bundle: _Bundle, grid: _Grid, span: _Span) -> np.ndarray:
    """Energy increment of adding each grid kernel ``K_g`` to the span.  With
    ``Q`` the span's basis and ``R`` its residual, the increment is
    ``sum_m p_m |<R_m, K_g>|^2 / (||K_g||^2 - sum_j |<K_g, Q_j>|^2)``: one
    product with ``Q`` and one with ``R``.  It is -inf where the denominator
    is at most ``1e-12 ||K_g||^2``."""
    norms = grid.raw
    if len(span.basis):
        proj = span.basis @ grid.weighted_h  # conj(<K_g, Q_j>)
        norms = grid.raw - np.sum(np.abs(proj) ** 2, axis=0)
    gains = bundle.probs @ np.abs(span.residual @ grid.weighted_h) ** 2
    ok = norms > 1e-12 * grid.raw
    out = np.full(len(grid.points), -np.inf)
    out[ok] = gains[ok] / norms[ok]
    return out


def _grid(bundle: _Bundle, points: np.ndarray) -> _Grid:
    rows = kernel_matrix(bundle.spec, points)
    w = bundle.spec.weights
    raw = np.real(np.sum(w * np.abs(rows) ** 2, axis=1))
    rows *= w
    grid = _Grid(points, np.conj(_flushed(rows), out=rows).T, raw, None)
    return grid._replace(single=_grid_increments(bundle, grid, bundle.span(ParamTuple(()))))


def _search_grid(bundle: _Bundle, cfg: OptimizerConfig) -> _Grid:
    """The search's ``_Grid``, built once per bundle, radius and density."""
    key = (_search_radius(bundle, cfg), cfg.grid_density)
    if key not in bundle._grids:
        bundle._grids[key] = _grid(bundle, _disc_grid(*key))
    return bundle._grids[key]


def _greedy_points(bundle: _Bundle, n: int, cfg: OptimizerConfig, trace: list, prefix=()):
    """Sequential node selection after the fixed ``prefix`` up to n nodes;
    stops early once the signal is captured.  Each step reads the ``_Span``
    of its prefix, which the previous step's search has kept, scans the grid
    and runs its local search on it, and appends its node and the energy
    captured after it to ``trace``.  The spans live for one step only."""
    grid = _search_grid(bundle, cfg)
    points = list(prefix)
    for step in range(len(points), n):
        span = bundle.span(bundle.make_tuple(points, cfg))
        inc = _grid_increments(bundle, grid, span) if points else grid.single
        best = int(np.argmax(inc))
        if not np.isfinite(inc[best]) or inc[best] <= 0.0:
            break
        new_pts, total = _local_search(
            bundle, cfg, _as_x([grid.points[best]]), prefix=tuple(points), span=span
        )
        points = list(new_pts)
        trace.append(
            {
                "step": step + 1,
                "node": [points[-1].real, points[-1].imag],
                "energy": total,
            }
        )
        if bundle.captures(total):
            break
    return points


# perfbench/tracer.py times the warm extension of a sweep under this name.
def _extend_greedily(bundle, points, n, cfg, trace):
    return _greedy_points(bundle, n, cfg, trace, prefix=points)


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
    pts, _, source = max(mergeable, key=lambda c: c[1])
    i, j = min(
        itertools.combinations(range(len(pts)), 2),
        key=lambda ij: abs(pts[ij[0]] - pts[ij[1]]),
    )
    centers = [complex(p) for k, p in enumerate(pts) if k != j]
    centers[i] = (pts[i] + pts[j]) / 2.0
    orders = [1] * len(centers)
    orders[i] = 2
    stats: dict = {}
    merged_pts, merged_val = _local_search(
        bundle, cfg, _as_x(centers), orders=orders, stats=stats
    )
    trace.append({"stage": "merge-polish", "energy": merged_val, "merged_from": source, **stats})
    candidates.append((tuple(merged_pts), merged_val, len(trace) - 1))


def _nbest_points(bundle: _Bundle, n: int, cfg: OptimizerConfig, trace: list, greedy, warm=()):
    """Greedy, multistart and merge-polish candidates; returns the points of
    the one with the smallest residual.  ``greedy`` holds the points and
    trace steps of the greedy run to n nodes; ``warm`` holds more start
    tuples.  Each candidate is recorded by one trace entry, and a final
    ``select`` entry gives the index in ``trace`` of the winner's entry and
    its stage."""
    radius = _search_radius(bundle, cfg)
    greedy_pts, steps = greedy
    greedy_energy = steps[-1]["energy"] if steps else 0.0
    trace.append({"stage": "greedy", "steps": steps, "energy": greedy_energy})

    # (points, energy, index of the candidate's trace entry)
    candidates: list[tuple[tuple, float, int]] = [
        (tuple(greedy_pts), greedy_energy, len(trace) - 1)
    ]
    if bundle.captures(greedy_energy):
        trace.append({"stage": "select", "winner": len(trace) - 1, "from": "greedy"})
        return list(greedy_pts)

    starts: list[np.ndarray] = []
    if len(greedy_pts) == n:
        starts.append(_as_x(greedy_pts))
    starts.extend(_as_x(pts) for pts in warm if len(pts) == n)

    rng = np.random.default_rng(cfg.seed)
    grid = _search_grid(bundle, cfg)
    top = grid.points[np.argsort(grid.single)[::-1][: max(3 * n, 8)]]
    n_top = cfg.multistart // 2
    for _ in range(n_top):
        if len(top) >= n:
            pick = rng.choice(len(top), size=n, replace=False)
            starts.append(_as_x(top[pick]))
    starts.extend(
        _as_x(s) for s in _stratified_seeds(rng, radius, n, cfg.multistart - n_top)
    )

    distinct = list({x0.tobytes(): x0 for x0 in starts}.values())  # equal starts, equal searches
    for pts, val, stats in _lane_searches(bundle, cfg, distinct):
        trace.append({"stage": "local", "energy": val, **stats})
        candidates.append((tuple(pts), val, len(trace) - 1))

    _merge_polish(bundle, cfg, candidates, trace)

    # Near exact capture energies no longer separate candidates; the
    # residual computed by finalize still does.
    def sort_key(cand):
        pts = cand[0]
        rounded = sorted((round(p.real, 12), round(p.imag, 12)) for p in pts)
        return (bundle.finalize(pts, cfg)[3], rounded)

    best_pts, _, entry = min(candidates, key=sort_key)
    trace.append({"stage": "select", "winner": entry, "from": trace[entry]["stage"]})
    return list(best_pts)


# -- public engines ------------------------------------------------------------


def _result(bundle: _Bundle, cfg, method: str, points=None, trace=()) -> ApproximationResult:
    """The result for the tuple of ``points``, finalized on the bundle, or,
    without points, the zero-node result; coefficients have one row per
    realization."""
    norm = math.sqrt(bundle.total_sq)
    if points is None:
        params = bundle.make_tuple((), cfg)
        coeffs = np.zeros((len(bundle.probs), 0), dtype=np.complex128)
        cap, residual, degraded = 0.0, norm, False
    else:
        params, coeffs, cap, residual, degraded = bundle.finalize(points, cfg)
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
    """Results for n nodes, or with ``sweep`` for each of 0 .. n, from one
    greedy run to n nodes.

    Greedy selection never revisits a node, so the run to k nodes is the
    k-prefix of the run to n, with the same trace prefix.  ``afd`` finalizes
    that prefix; ``nbest`` and ``stochastic_nbest`` search from it, and in a
    sweep also from the greedy extension of the (k-1)-node result.  The
    searches run on the bundle's exact low-rank factor, which is the bundle
    itself for one realization and for full rank; every result is finalized
    on the bundle.  A ``stochastic_nbest`` trace opens with a ``compress``
    entry giving M and the rank r the search ran on.  A signal whose squared
    norm is not 0 or a finite normal double raises ``DomainError``
    (``_check_norm``).
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
    steps: list = []
    points = _greedy_points(factor, n, cfg, steps) if searched else []
    results: list[ApproximationResult] = []
    prev: list = []
    for k in range(n + 1) if sweep else (n,):
        if k == 0 or not searched:
            res = _result(bundle, cfg, method)
        elif method == "afd":
            res = _result(bundle, cfg, method, points[:k], steps[:k])
        else:
            warm = []
            if prev and len(prev) == k - 1:
                warm.append(_extend_greedily(factor, prev, k, cfg, []))
            trace = list(opening)
            best = _nbest_points(factor, k, cfg, trace, (points[:k], steps[:k]), warm)
            res = _result(bundle, cfg, method, best, trace)
            prev = list(res.params.points)
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
    never falls below the greedy energy."""
    return _run(_Bundle.single(spec, f), n, config, "nbest", sweep=False)[0]


def residual_decay_sweep(
    spec: SpaceSpec, f: AnalyticFunction, n_max: int, config: OptimizerConfig | None = None
) -> list[ApproximationResult]:
    """Global results for n = 0 .. n_max from one greedy run, with chained
    warm starts, so the residual column is nonincreasing."""
    return _run(_Bundle.single(spec, f), n_max, config, "nbest", sweep=True)
