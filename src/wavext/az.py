"""AZ-type solvers for the wavelet extension least-squares problem.

All pipelines run one three-step skeleton, ``_solve``: (1) solve the
low-rank plunge system (I - A Z*) A D y = (I - A Z*) b and set x1 = D y,
(2) x2 = Z* (b - A x1), (3) x = x1 + x2.  D = diag(problem.weights), or the
identity without weights, scales the columns; weights damp fine-scale
coefficients in the extension region (smoothed / adaptive).  W is the
wavelet analysis, so A = A_hat W^-1.  The pipelines are (form, kernel)
settings of step 1:

* ``az_solve`` (vanilla AZ, also ``smoothed_az_solve``): the matrix-free
  plunge operator over all rows and columns, randomized low-rank kernel;
  A Z* = A_hat Z_hat* leaves one wavelet transform in each apply;
* ``reduced_az_solve``: the explicit sparse scaling plunge block on the
  boundary rows Mrows and scaling columns K, randomized low-rank kernel;
  the plunge is this block times W^-1, so x1 = W y (unweighted only);
* ``sparse_az_solve``: the same block and x1 = W y, rank-revealing banded
  sparse QR kernel (unweighted only).  The factor depends on the geometry
  only, not on f, so it is kept in a bounded least-recently-used cache and
  reused by later problems on the same geometry.

Everything of a problem but b depends on the geometry only: the filter bank,
N, q and the inside mask.  ``make_problem`` keeps the operators and index
sets of its last call and reuses them when the next call has the same
geometry.  ``clear_caches`` drops them and the step-1 factors.
"""

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .domain import (DomainError, DomainMask, MaskedGrid, masked_grid,
                     plunge_row_set, scaling_boundary_set,
                     wavelet_boundary_set)
from .dwt import sparse_idwt_rows
from .filters import FilterBank
# sparse_qr_solve is not called here; perfbench/tracing.py wraps this name
from .solvers import (DEFAULT_TOL, randomized_lowrank_solve, sparse_qr_factor,
                      sparse_qr_solve)  # noqa: F401
from .system import (FrameOperator, ScalingMatrices, ZStarOperator,
                     assemble_scaling, frame_operator_A, frame_operator_Zstar,
                     rhs)

PRUNE_REL = 1e-12
# Block applies of the matrix-free plunge operator run in chunks of at most
# this many basis entries (columns x n_basis): larger chunks at n_basis = 2^18
# raise peak memory by a quarter for no speed gain.
BLOCK_ENTRIES = 2**18
# Bytes of sparse step-1 factors kept for reuse.  The factors of the disk
# (0.5, 0.5, 0.34) at 32^2 and 64^2 (cdf33) and 32^2 (db4) take 9.2 MB; that
# of the 16^3 ball (r = 0.35, cdf33, 35 MB, mostly front reflectors) does not
# fit.
STEP1_CACHE_BYTES = 2**25


class AZError(ValueError):
    pass


@dataclass(frozen=True)
class AZProblem:
    """A fully assembled extension least-squares problem."""

    bank: FilterBank
    grid: MaskedGrid
    scaling: ScalingMatrices
    A: FrameOperator
    Zstar: ZStarOperator
    b: np.ndarray
    K: np.ndarray
    kflags: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    Mrows: np.ndarray = field(repr=False)
    weights: np.ndarray | None = None
    # seconds make_problem spent on the operators and index sets; 0.0 when
    # it reused those of the previous call
    geometry_s: float = 0.0
    geometry_reused: bool = False

    def __post_init__(self):
        if self.b.size != self.grid.M:
            raise AZError("right-hand side length does not match the grid")
        if self.grid.M <= self.grid.n_basis:
            raise AZError("least-squares system must be overdetermined")
        if self.weights is not None:
            if self.weights.size != self.grid.n_basis:
                raise AZError("weight vector length does not match the basis")
            if np.any(self.weights <= 0):
                raise AZError("weights must be positive")


@dataclass
class AZSolution:
    x: np.ndarray
    residual: float
    coefficient_norm: float
    per_scale_norms: np.ndarray
    stage_times: dict
    plunge_rank: int
    warning: str | None = None
    diagnostics: dict = field(default_factory=dict)


def _geometry_key(bank: FilterBank, grid: MaskedGrid):
    """Everything the operators and index sets depend on: the filter bank
    (the dual pairs are looked up by family), the grid shape and the inside
    mask, packed to bits (its shape is that of N q).  Never the mask's
    description: every custom predicate is described as "predicate"."""
    masks = tuple((m.offset, m.taps.tobytes())
                  for m in (bank.h, bank.g, bank.h_dual, bank.g_dual))
    inside = hashlib.blake2b(np.packbits(grid.inside_bool).tobytes())
    return (bank.family, masks, grid.N, grid.q, inside.digest())


# The operators and index sets of the last make_problem call, by
# _geometry_key: at most one entry, so a miss frees the previous assembly
# before it builds the next.  Never the problem, its grid or its mask.
_geometry = {}
_geometry_lock = threading.Lock()


def _assemble_geometry(bank: FilterBank, grid: MaskedGrid):
    """The AZProblem fields that depend on the geometry only.  The index
    arrays are read-only, as later problems share them."""
    scaling = assemble_scaling(bank, grid)
    K, kflags = scaling_boundary_set(grid, bank)
    L, _ = wavelet_boundary_set(kflags, bank, grid.N)
    Mrows = plunge_row_set(kflags, bank, grid)
    for a in (K, kflags, L, Mrows):
        a.flags.writeable = False
    return dict(scaling=scaling, A=frame_operator_A(scaling, bank, grid),
                Zstar=frame_operator_Zstar(scaling, bank, grid),
                K=K, kflags=kflags, L=L, Mrows=Mrows)


def make_problem(f, mask: DomainMask, bank: FilterBank, N, q) -> AZProblem:
    """Assemble grid, operators, right-hand side and index sets for f on mask.

    The grid is sampled and b = f(grid) evaluated on every call.  The
    operators and index sets of the previous call are reused when its
    geometry (bank, N, q and inside mask) is the same; ``geometry_reused``
    and ``geometry_s`` on the problem say which happened.  The problem is
    unweighted; ``dataclasses.replace(problem, weights=w)`` gives the
    weighted one."""
    grid = masked_grid(mask, N, q)
    key = _geometry_key(bank, grid)
    with _geometry_lock:
        parts = _geometry.get(key)
        if parts is None:
            _geometry.clear()
    reused, seconds = parts is not None, 0.0
    if not reused:
        t0 = time.perf_counter()
        parts = _assemble_geometry(bank, grid)
        seconds = time.perf_counter() - t0
        with _geometry_lock:
            _geometry.clear()
            _geometry[key] = parts
    b = rhs(f, grid) if callable(f) else np.asarray(f, dtype=float)
    return AZProblem(bank=bank, grid=grid, b=b, geometry_s=seconds,
                     geometry_reused=reused, **parts)


def _scale_rows(w, x):
    """diag(w) x for a vector or a block; the identity when w is None."""
    return x if w is None else (w * x.T).T


def _plunge_apply(problem: AZProblem, x):
    """(I - A Z*) A D x for a vector or an (n_basis, k) block, with
    D = diag(problem.weights), or the identity without weights."""
    y, S = problem.A @ _scale_rows(problem.weights, x), problem.scaling
    return y - S.A_hat @ (S.Z_hat.T @ y)


def _plunge_rapply(problem: AZProblem, y):
    """D A* (I - Z A*) y for a vector or an (M, k) block, with Z A* = Z_hat
    A_hat* and A* = W~ A_hat*."""
    S = problem.scaling
    u = S.A_hat.T @ np.asarray(y, dtype=float)
    return _scale_rows(problem.weights,
                       problem.A.dual_analysis(u - S.A_hat.T @ (S.Z_hat @ u)))


def _in_blocks(fn, n_basis):
    """fn applied to column chunks of a block, at most BLOCK_ENTRIES basis
    entries each."""
    step = max(1, BLOCK_ENTRIES // n_basis)

    def run(X):
        if X.shape[1] <= step:
            return fn(X)
        return np.hstack([fn(X[:, i:i + step])
                          for i in range(0, X.shape[1], step)])
    return run


def plunge_operator(problem: AZProblem):
    """Matrix-free (I - A Z*) A D as a scipy LinearOperator; block applies
    run in chunks of at most BLOCK_ENTRIES basis entries."""
    apply = partial(_plunge_apply, problem)
    rapply = partial(_plunge_rapply, problem)
    n = problem.grid.n_basis
    return scipy.sparse.linalg.LinearOperator(
        shape=problem.A.shape, dtype=float, matvec=apply, rmatvec=rapply,
        matmat=_in_blocks(apply, n), rmatmat=_in_blocks(rapply, n))


def plunge_rhs(problem: AZProblem):
    """(I - A Z*) b = b - A_hat (Z_hat* b)."""
    S = problem.scaling
    return problem.b - S.A_hat @ (S.Z_hat.T @ problem.b)


def _reference_scale(problem: AZProblem):
    """Magnitude of the enclosing frame operator A D, so the low-rank solver
    can truncate the plunge system against ||A D|| rather than against
    noise."""
    rng = np.random.Generator(np.random.Philox(0x5CA1E))
    w = rng.standard_normal(problem.grid.n_basis)
    if problem.weights is not None:
        w = problem.weights * w
    return float(np.linalg.norm(problem.A.matvec(w)))


def scale_levels(N):
    """Scale label for every coefficient in the tensor layout, flattened.

    The label is the maximum per-axis detail level; the leading scaling and
    first wavelet coefficient of each axis both count as level 0.
    """
    levels = np.zeros((), dtype=np.int64)
    for n in N:
        J = n.bit_length() - 1
        axis = np.r_[0, np.repeat(np.arange(J), 2 ** np.arange(J))]
        levels = np.maximum.outer(levels, axis)
    return levels.ravel()


def scale_weights(e, N):
    """Diagonal weight vector: coarsest scales get e[0], e[1], ...; finer
    scales reuse the last entry."""
    e = np.asarray(e, dtype=float)
    if e.size == 0 or np.any(e <= 0):
        raise AZError("weight list must be non-empty and positive")
    levels = scale_levels(N)
    return e[np.minimum(levels, e.size - 1)]


def per_scale_norms(x, N, select=None):
    """l2 norm of the coefficients at each scale (optionally on a sub-mask)."""
    x = np.ravel(x)
    if select is not None:
        keep = np.zeros(x.size, dtype=bool)
        keep[np.asarray(select)] = True
        x = np.where(keep, x, 0.0)
    return np.sqrt(np.bincount(scale_levels(N), weights=x * x))


def extension_index_set(problem: AZProblem):
    """Coefficients whose synthesis footprint meets the extension region,
    i.e. the part of the periodic box outside the domain."""
    from .domain import _separable_any, _support_offsets

    grid = problem.grid
    offsets = _support_offsets(problem.bank, grid)
    touches_out = _separable_any(~grid.inside_bool, offsets, grid.q)
    ext, _ = wavelet_boundary_set(touches_out, problem.bank, grid.N)
    return ext


def _finish(problem, x1, Ax1, t0, t1, rep, extra_times, extra_diag):
    """Steps 2-3 from the step-1 solution x1, its image A x1, and the report
    ``rep`` of the solver that produced it.  The stage times and diagnostics
    carry the problem's geometry assembly too."""
    t2 = time.perf_counter()
    x2 = problem.Zstar(problem.b - Ax1)
    x = x1 + x2
    r = float(np.linalg.norm(problem.A.matvec(x) - problem.b))
    times = {"geometry": problem.geometry_s, "step1": t1 - t0,
             "step23": time.perf_counter() - t2, **extra_times}
    return AZSolution(x=x, residual=r,
                      coefficient_norm=float(np.linalg.norm(x)),
                      per_scale_norms=per_scale_norms(x, problem.grid.N),
                      stage_times=times, plunge_rank=rep.rank,
                      warning=rep.warning,
                      diagnostics={"rank": rep.rank, **rep.diagnostics,
                                   "geometry_reused": problem.geometry_reused,
                                   **extra_diag})


def _scaling_block(problem: AZProblem):
    """The sparse (Mrows, K) block of ``scaling_plunge``: the plunge is
    P_hat W^-1, and P_hat vanishes outside the columns K."""
    return scaling_plunge(problem)[problem.Mrows][:, problem.K]


def _step1_key(problem: AZProblem, tol):
    """Everything the sparse step-1 factor depends on: the geometry, which
    fixes the scaling block and the reference scale, and the truncation
    tolerance."""
    return (*_geometry_key(problem.bank, problem.grid), float(tol))


# Sparse step-1 factors by _step1_key, least recently used first.  Bounded
# by STEP1_CACHE_BYTES; factors hold boundary-sized arrays only, never the
# problem.
_step1_cache = OrderedDict()
_step1_lock = threading.Lock()


def clear_caches():
    """Forget the cached geometry and every cached sparse step-1 factor, so
    the next make_problem assembles and the next sparse solve of each
    geometry factors from scratch."""
    with _geometry_lock:
        _geometry.clear()
    with _step1_lock:
        _step1_cache.clear()


def _step1_factor(problem: AZProblem, tol):
    """(factor, reused, assembly seconds): the sparse QR factor of the
    scaling block, cut against the reference scale, from the cache when
    this geometry was factored before, when no block is assembled."""
    key = _step1_key(problem, tol)
    with _step1_lock:
        factor = _step1_cache.get(key)
        if factor is not None:
            _step1_cache.move_to_end(key)
            return factor, True, 0.0
    t0 = time.perf_counter()
    op = _scaling_block(problem)
    assembly = time.perf_counter() - t0
    factor = sparse_qr_factor(op, tol=tol, scale=_reference_scale(problem))
    with _step1_lock:
        _step1_cache[key] = factor
        while sum(f.nbytes for f in _step1_cache.values()) > STEP1_CACHE_BYTES:
            _step1_cache.popitem(last=False)
    return factor, False, assembly


def _solve(problem: AZProblem, explicit, tol, seed=None):
    """Steps 1-3.  When ``explicit``, step 1 solves on ``_scaling_block`` and
    x1 = W y, so A x1 = A_hat y; else on the matrix-free ``plunge_operator``
    and x1 = D y.  With a ``seed`` the kernel is ``randomized_lowrank_solve``
    (with the reference scale).  With seed None it is the sparse QR of the
    scaling block; that factor depends on the geometry, not on b, so it
    comes from the step-1 cache when there, as
    ``diagnostics["step1_reused"]`` says.  Explicit forms are unweighted."""
    if explicit and problem.weights is not None:
        raise AZError("reduced and sparse solve unweighted problems only")
    t0 = time.perf_counter()
    times, diag = {}, {}
    rows = problem.Mrows if explicit else slice(None)
    if seed is None:
        factor, diag["step1_reused"], times["assembly"] = _step1_factor(
            problem, tol)
        rep = factor.solve(plunge_rhs(problem)[rows])
    else:
        op = _scaling_block(problem) if explicit else plunge_operator(problem)
        if explicit:
            times["assembly"] = time.perf_counter() - t0
        rep = randomized_lowrank_solve(op, plunge_rhs(problem)[rows], tol=tol,
                                       seed=seed,
                                       scale=_reference_scale(problem))
    if explicit:
        y = np.zeros(problem.grid.n_basis)
        y[problem.K] = rep.solution
        x1, Ax1 = problem.A.analysis(y), problem.scaling.A_hat @ y
    else:
        x1 = _scale_rows(problem.weights, rep.solution)
        Ax1 = problem.A.matvec(x1)
    return _finish(problem, x1, Ax1, t0, time.perf_counter(), rep, times,
                   diag)


def az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Vanilla pipeline, the smoothed one with problem.weights: randomized
    low-rank solve of the matrix-free plunge system."""
    return _solve(problem, False, tol, seed)


smoothed_az_solve = az_solve


def reduced_az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Index-set-reduced pipeline: randomized low-rank solve of the explicit
    (#Mrows, #K) scaling plunge block."""
    return _solve(problem, True, tol, seed)


def sparse_az_solve(problem: AZProblem, tol=DEFAULT_TOL) -> AZSolution:
    """Sparse pipeline: rank-revealing banded sparse QR of the explicit
    (#Mrows, #K) scaling plunge block, factored once per geometry, and
    x1 = W y."""
    return _solve(problem, True, tol)


def _prune(S, scale=0.0):
    """S as CSR without its entries at or below PRUNE_REL * max(max |S|,
    scale); a CSR S is pruned in place."""
    S = S.tocsr()
    if S.nnz:
        level = PRUNE_REL * max(np.abs(S.data).max(), scale)
        S.data[np.abs(S.data) <= level] = 0.0
        S.eliminate_zeros()
    return S


def scaling_plunge(problem: AZProblem):
    """Sparse A_hat - A_hat Z_hat* A_hat, pruned of cancellation fuzz.

    Column c vanishes unless phi_c meets both the domain and its complement,
    that is unless c is in K, so only the columns K are formed, as
    A_hat[:, K] - A_hat (Z_hat* A_hat[:, K]).  Fuzz is measured against the
    larger of the cancelled operand A_hat[:, K] and the result, so a plunge
    that cancels to fuzz everywhere comes out empty.
    """
    Ah, Zh, K = problem.scaling.A_hat, problem.scaling.Z_hat, problem.K
    AK = Ah[:, K]
    P = _prune(AK - Ah @ (Zh.T @ AK), np.abs(AK.data).max(initial=0))
    return scipy.sparse.csr_matrix((P.data, K[P.indices], P.indptr),
                                   shape=Ah.shape)


def _selected_winv_rows(rows, bank, N):
    """Sparse selected rows of the d-dimensional synthesis matrix W^-1.

    W^-1 is the Kronecker product of the per-axis synthesis matrices, so each
    row is the Kronecker product of the per-axis rows of its multi-index: a
    row-wise Kronecker product of per-axis row blocks, padded to a common
    width with zeros.
    """
    multis = np.unravel_index(np.asarray(rows, dtype=np.int64), tuple(N))
    vals = np.ones((len(rows), 1))
    cols = np.zeros((len(rows), 1), dtype=np.int64)
    for idx, n in zip(multis, N):
        uniq, inv = np.unique(idx, return_inverse=True)
        R = sparse_idwt_rows(uniq, bank, n.bit_length() - 1)
        width = np.diff(R.indptr)
        k = np.arange(width.max())
        pos = np.minimum(R.indptr[:-1, None] + k, R.nnz - 1)[inv]
        pad = (k >= width[:, None])[inv]
        v = np.where(pad, 0.0, R.data[pos])
        vals = (vals[:, :, None] * v[:, None, :]).reshape(len(rows), -1)
        cols = (cols[:, :, None] * n + R.indices[pos][:, None, :]).reshape(
            len(rows), -1)
    ri, ci = np.nonzero(vals)
    return scipy.sparse.csr_matrix((vals[ri, ci], (ri, cols[ri, ci])),
                                   shape=(len(rows), int(np.prod(N))))


def sparse_plunge(problem: AZProblem):
    """Sparse (I - A Z*) A, assembled as a product with selected W^-1 rows:
    the tests' oracle of the scaling block ``_scaling_block`` and of the
    plunge applies."""
    P_hat = scaling_plunge(problem)
    cols = np.unique(P_hat.nonzero()[1])
    if cols.size == 0:
        return scipy.sparse.csr_matrix(problem.A.shape)
    R = _selected_winv_rows(cols, problem.bank, problem.grid.N)
    return _prune(P_hat[:, cols] @ R)


def coarsest_n(bank: FilterBank):
    """Smallest admissible dyadic n: at least 4 times the mask support."""
    n = 2
    while n < 4 * bank.support_length:
        n *= 2
    return n


def adaptive_weighted_solve(f, mask: DomainMask, bank: FilterBank, N, q,
                            tol=DEFAULT_TOL, seed=0):
    """Multilevel weighted pipeline: refine n from coarse to N, feeding the
    residual history back in as per-scale weights.

    The ladder starts at the coarsest level, min(coarsest_n, N) on each
    axis, whose grid has more samples in the domain than unknowns; only a
    requested N without that raises.
    Returns ``(problem, solution)``: the unweighted problem the ladder
    assembled at N, and the solution at N, whose
    ``diagnostics["weight_history"]`` is ||b|| followed by each level's
    residual."""
    N = tuple(N) if not np.isscalar(N) else (int(N),) * mask.dimension
    q = tuple(q) if not np.isscalar(q) else (int(q),) * mask.dimension
    n0 = [min(coarsest_n(bank), ni) for ni in N]
    levels = [tuple(max(n0i, ni >> s) for n0i, ni in zip(n0, N))
              for s in range(max(ni.bit_length() for ni in N), -1, -1)]
    levels = sorted(set(lv for lv in levels if all(a <= b for a, b in zip(lv, N))))
    e = None
    sol = None
    for lv in levels:
        try:
            problem = make_problem(f, mask, bank, lv, q)
        except DomainError:
            if e is not None or lv == N:
                raise
            continue
        if e is None:
            e = [float(np.linalg.norm(problem.b))]
        sol = smoothed_az_solve(
            replace(problem, weights=scale_weights(e, lv)),
            tol=tol, seed=seed)
        e.append(sol.residual)
    sol.diagnostics["weight_history"] = list(e)
    return problem, sol

