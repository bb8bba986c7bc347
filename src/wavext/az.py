"""AZ-type solvers for the wavelet extension least-squares problem.

All pipelines run one three-step skeleton, ``_solve``: (1) solve the
low-rank plunge system (I - A Z*) A W y = (I - A Z*) b and set x1 = W y,
(2) x2 = Z* (b - A x1), (3) x = x1 + x2.  W = diag(problem.weights), or the
identity without weights, scales the columns; weights damp fine-scale
coefficients in the extension region (smoothed / adaptive).  The pipelines
are (form, kernel) settings of step 1:

* ``az_solve`` (vanilla AZ, also ``smoothed_az_solve``): the matrix-free
  plunge operator over all rows and columns, randomized low-rank kernel;
* ``reduced_az_solve``: the explicit sparse plunge block on the
  boundary-supported rows Mrows and columns L, randomized low-rank kernel;
* ``sparse_az_solve``: the same explicit block, rank-revealing sparse QR.
  The factor depends on the geometry only, not on f, so it is kept in a
  bounded least-recently-used cache and reused by later problems on the
  same geometry (``clear_step1_cache`` empties it).
"""

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

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
# (0.5, 0.5, 0.34) at 32^2 and 64^2 (cdf33) and 32^2 (db4) take 21 MB.
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


def make_problem(f, mask: DomainMask, bank: FilterBank, N, q) -> AZProblem:
    """Assemble grid, operators, right-hand side and index sets for f on mask.

    The problem is unweighted; ``dataclasses.replace(problem, weights=w)``
    gives the weighted one."""
    grid = masked_grid(mask, N, q)
    scaling = assemble_scaling(bank, grid)
    A = frame_operator_A(scaling, bank, grid)
    Zs = frame_operator_Zstar(scaling, bank, grid)
    K, kflags = scaling_boundary_set(grid, bank)
    L, _ = wavelet_boundary_set(kflags, bank, grid.N)
    Mrows = plunge_row_set(kflags, bank, grid)
    b = rhs(f, grid) if callable(f) else np.asarray(f, dtype=float)
    return AZProblem(bank=bank, grid=grid, scaling=scaling, A=A, Zstar=Zs,
                     b=b, K=K, kflags=kflags, L=L, Mrows=Mrows)


def _apply_Z(problem: AZProblem, c):
    """Z c = Z_hat (W~^-1 c), the adjoint of the Z* analysis map."""
    frame = problem.Zstar._frame
    return frame.scaling_matrix @ frame.dual_synthesis(c)


def _adjoint(op, y):
    """op* y for a vector or a block of columns."""
    return op.rmatvec(y) if y.ndim == 1 else op.rmatmat(y)


def _scale_rows(w, x):
    """diag(w) x for a vector or a block; the identity when w is None."""
    return x if w is None else (w * x.T).T


def _plunge_apply(problem: AZProblem, x):
    """(I - A Z*) A x for a vector or an (n_basis, k) block."""
    y = problem.A @ x
    return y - problem.A @ problem.Zstar(y)


def _plunge_rapply(problem: AZProblem, y):
    """A* (I - Z A*) y for a vector or an (M, k) block."""
    y = np.asarray(y, dtype=float)
    return _adjoint(problem.A, y - _apply_Z(problem, _adjoint(problem.A, y)))


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


def _block_operator(shape, apply, rapply, n_basis):
    """LinearOperator from functions that take a vector or a block."""
    return scipy.sparse.linalg.LinearOperator(
        shape=shape, dtype=float, matvec=apply, rmatvec=rapply,
        matmat=_in_blocks(apply, n_basis), rmatmat=_in_blocks(rapply, n_basis))


def plunge_operator(problem: AZProblem):
    """Matrix-free (I - A Z*) A W as a scipy LinearOperator, with
    W = diag(problem.weights), or the identity without weights."""
    weights = problem.weights
    return _block_operator(
        problem.A.shape,
        lambda x: _plunge_apply(problem, _scale_rows(weights, x)),
        lambda y: _scale_rows(weights, _plunge_rapply(problem, y)),
        problem.grid.n_basis)


def plunge_rhs(problem: AZProblem):
    """(I - A Z*) b."""
    return problem.b - problem.A.matvec(problem.Zstar(problem.b))


def _reference_scale(problem: AZProblem):
    """Magnitude of the enclosing frame operator A W, so the low-rank solver
    can truncate the plunge system against ||A W|| rather than against
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
    axes = []
    for n in N:
        idx = np.arange(n)
        lev = np.zeros(n, dtype=np.int64)
        lev[2:] = np.frexp(idx[2:].astype(float))[1] - 1
        axes.append(lev)
    grid = np.zeros(tuple(N), dtype=np.int64)
    for ax, lev in enumerate(axes):
        shape = [1] * len(N)
        shape[ax] = lev.size
        grid = np.maximum(grid, lev.reshape(shape))
    return grid.ravel()


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
    levels = scale_levels(N)
    x = np.ravel(x)
    if select is not None:
        keep = np.zeros(x.size, dtype=bool)
        keep[np.asarray(select)] = True
        x = np.where(keep, x, 0.0)
    nmax = int(levels.max())
    return np.array([np.linalg.norm(x[levels == s]) for s in range(nmax + 1)])


def extension_index_set(problem: AZProblem):
    """Coefficients whose synthesis footprint meets the extension region,
    i.e. the part of the periodic box outside the domain."""
    from .domain import _separable_any, _support_offsets

    grid = problem.grid
    offsets = _support_offsets(problem.bank, grid)
    touches_out = _separable_any(~grid.inside_bool, offsets, grid.q)
    ext, _ = wavelet_boundary_set(touches_out, problem.bank, grid.N)
    return ext


def _finish(problem, x1, t0, t1, rep, extra_times, extra_diag):
    """Steps 2-3 from the step-1 solution x1 and the report ``rep`` of the
    solver that produced it."""
    t2 = time.perf_counter()
    x2 = problem.Zstar(problem.b - problem.A.matvec(x1))
    x = x1 + x2
    r = float(np.linalg.norm(problem.A.matvec(x) - problem.b))
    times = {"step1": t1 - t0, "step23": time.perf_counter() - t2,
             **extra_times}
    return AZSolution(x=x, residual=r,
                      coefficient_norm=float(np.linalg.norm(x)),
                      per_scale_norms=per_scale_norms(x, problem.grid.N),
                      stage_times=times, plunge_rank=rep.rank,
                      warning=rep.warning,
                      diagnostics={"rank": rep.rank, **rep.diagnostics,
                                   **extra_diag})


def _explicit_block(problem: AZProblem):
    """The sparse (Mrows, L) block of ``sparse_plunge``, its columns scaled
    by problem.weights."""
    cols = problem.L
    op = sparse_plunge(problem)[problem.Mrows][:, cols]
    w = problem.weights
    return op if w is None else op @ scipy.sparse.diags(w[cols])


def _digest(a):
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes()).digest()


def _step1_key(problem: AZProblem, tol):
    """Everything the explicit block depends on: the filter bank (the dual
    pairs are looked up by family), the grid shape, the inside mask, the
    index sets, the weights and the truncation tolerance.  Never the mask's
    description: every custom predicate is described as "predicate"."""
    bank, grid = problem.bank, problem.grid
    masks = tuple((m.offset, m.taps.tobytes())
                  for m in (bank.h, bank.g, bank.h_dual, bank.g_dual))
    weights = None if problem.weights is None else _digest(problem.weights)
    return (bank.family, masks, grid.N, grid.q, _digest(grid.inside_bool),
            _digest(problem.Mrows), _digest(problem.L), weights, float(tol))


# Sparse step-1 factors by _step1_key, least recently used first.  Bounded
# by STEP1_CACHE_BYTES; factors hold boundary-sized arrays only, never the
# problem.
_step1_cache = OrderedDict()
_step1_lock = threading.Lock()


def clear_step1_cache():
    """Forget every cached sparse step-1 factor, so the next sparse solve of
    each geometry factors from scratch."""
    with _step1_lock:
        _step1_cache.clear()


def _step1_factor(problem: AZProblem, tol):
    """(factor, reused, assembly seconds): the sparse QR factor of the
    explicit block, from the cache when this geometry was factored before,
    when no block is assembled."""
    key = _step1_key(problem, tol)
    with _step1_lock:
        factor = _step1_cache.get(key)
        if factor is not None:
            _step1_cache.move_to_end(key)
            return factor, True, 0.0
    t0 = time.perf_counter()
    op = _explicit_block(problem)
    assembly = time.perf_counter() - t0
    factor = sparse_qr_factor(op, tol=tol)
    with _step1_lock:
        _step1_cache[key] = factor
        while sum(f.nbytes for f in _step1_cache.values()) > STEP1_CACHE_BYTES:
            _step1_cache.popitem(last=False)
    return factor, False, assembly


def _solve(problem: AZProblem, explicit, tol, seed=None):
    """Steps 1-3, with step 1 solved on the plunge operator in one of two
    forms, by one of two kernels.

    ``explicit`` selects the sparse (Mrows, L) block of ``sparse_plunge``;
    otherwise the matrix-free ``plunge_operator`` over all rows and columns.
    Either way problem.weights scale the columns, and x1 = W y.  With a
    ``seed`` the kernel is ``randomized_lowrank_solve``, which also gets the
    reference scale.  With seed None it is the sparse QR of the explicit
    block, whose factor depends on the geometry and not on b: it comes from
    the step-1 cache when there, and ``diagnostics["step1_reused"]`` says so.
    """
    t0 = time.perf_counter()
    w = problem.weights
    times, diag = {}, {}
    rows, cols = (problem.Mrows, problem.L) if explicit else (slice(None),) * 2
    if seed is None:
        factor, diag["step1_reused"], times["assembly"] = _step1_factor(
            problem, tol)
        rep = factor.solve(plunge_rhs(problem)[rows])
    else:
        op = _explicit_block(problem) if explicit else plunge_operator(problem)
        if explicit:
            times["assembly"] = time.perf_counter() - t0
        rep = randomized_lowrank_solve(op, plunge_rhs(problem)[rows], tol=tol,
                                       seed=seed,
                                       scale=_reference_scale(problem))
    x1 = np.zeros(problem.grid.n_basis)
    x1[cols] = rep.solution if w is None else w[cols] * rep.solution
    return _finish(problem, x1, t0, time.perf_counter(), rep, times, diag)


def az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Vanilla pipeline, the smoothed one with problem.weights: randomized
    low-rank solve of the matrix-free plunge system."""
    return _solve(problem, False, tol, seed)


smoothed_az_solve = az_solve


def reduced_az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Index-set-reduced pipeline: randomized low-rank solve of the explicit
    (#Mrows, #L) plunge block."""
    return _solve(problem, True, tol, seed)


def sparse_az_solve(problem: AZProblem, tol=DEFAULT_TOL) -> AZSolution:
    """Sparse pipeline: rank-revealing sparse QR of the explicit (#Mrows, #L)
    plunge block, factored once per geometry."""
    return _solve(problem, True, tol)


def _prune(S, rel=PRUNE_REL):
    """S as CSR without its entries at or below rel * max |S|; a CSR S is
    pruned in place."""
    S = S.tocsr()
    if S.nnz:
        S.data[np.abs(S.data) <= rel * np.abs(S.data).max()] = 0.0
        S.eliminate_zeros()
    return S


def scaling_plunge(problem: AZProblem):
    """Sparse A_hat - A_hat Z_hat* A_hat, pruned of cancellation fuzz.

    Column c vanishes unless phi_c meets both the domain and its complement,
    that is unless c is in K, so only the columns K are formed, as
    A_hat[:, K] - A_hat (Z_hat* A_hat[:, K]).
    """
    Ah, Zh, K = problem.scaling.A_hat, problem.scaling.Z_hat, problem.K
    AK = Ah[:, K]
    P = _prune(AK - Ah @ (Zh.T @ AK))
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
    """Sparse (I - A Z*) A, assembled as a product with selected W^-1 rows."""
    P_hat = scaling_plunge(problem)
    cols = np.unique(P_hat.nonzero()[1])
    if cols.size == 0:
        return scipy.sparse.csr_matrix(problem.A.shape)
    R = _selected_winv_rows(cols, problem.bank, problem.grid.N)
    return _prune(P_hat[:, cols] @ R)


def coarsest_n(bank: FilterBank, minimum=4):
    """Smallest admissible dyadic n: at least `minimum` times the mask support."""
    n = 2
    while n < minimum * bank.support_length:
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

