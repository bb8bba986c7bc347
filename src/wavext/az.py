"""AZ-type solvers for the wavelet extension least-squares problem.

All pipelines share the three-step skeleton: (1) solve the low-rank plunge
system (I - A Z*) A x1 = (I - A Z*) b restricted, implicitly or explicitly,
to the boundary-supported unknowns, (2) x2 = Z* (b - A x1), (3) x = x1 + x2.
They differ only in how step 1 is realized: matrix-free randomized low-rank
(vanilla), index-set reduction (reduced), explicit sparse assembly plus a
rank-revealing sparse factorization (sparse), and diagonally weighted
variants that damp fine-scale coefficients in the extension region
(smoothed / adaptive).
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .domain import (DomainError, DomainMask, MaskedGrid, masked_grid,
                     plunge_row_set, scaling_boundary_set,
                     wavelet_boundary_set)
from .dwt import sparse_idwt_rows
from .filters import FilterBank
from .solvers import (DEFAULT_TOL, randomized_lowrank_solve, sparse_qr_solve)
from .system import (FrameOperator, ScalingMatrices, ZStarOperator,
                     assemble_scaling, frame_operator_A, frame_operator_Zstar,
                     rhs)

PRUNE_REL = 1e-12
# Block applies of the plunge operators run in chunks of at most this many
# basis entries (columns x n_basis): larger chunks at n_basis = 2^18 raise
# peak memory by a quarter for no speed gain.
BLOCK_ENTRIES = 2**18


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
        if self.weights is not None and np.any(self.weights <= 0):
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


def make_problem(f, mask: DomainMask, bank: FilterBank, N, q,
                 weights=None) -> AZProblem:
    """Assemble grid, operators, right-hand side and index sets for f on mask."""
    grid = masked_grid(mask, N, q)
    scaling = assemble_scaling(bank, grid)
    A = frame_operator_A(scaling, bank, grid)
    Zs = frame_operator_Zstar(scaling, bank, grid)
    K, kflags = scaling_boundary_set(grid, bank)
    L, _ = wavelet_boundary_set(kflags, bank, grid.N)
    Mrows = plunge_row_set(kflags, bank, grid)
    b = rhs(f, grid) if callable(f) else np.asarray(f, dtype=float)
    return AZProblem(bank=bank, grid=grid, scaling=scaling, A=A, Zstar=Zs,
                     b=b, K=K, kflags=kflags, L=L, Mrows=Mrows,
                     weights=None if weights is None else np.asarray(weights, float))


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


def plunge_operator(problem: AZProblem, weights=None):
    """Matrix-free (I - A Z*) A W as a scipy LinearOperator, with
    W = diag(weights), or the identity when weights is None."""
    return _block_operator(
        problem.A.shape,
        lambda x: _plunge_apply(problem, _scale_rows(weights, x)),
        lambda y: _scale_rows(weights, _plunge_rapply(problem, y)),
        problem.grid.n_basis)


def reduced_plunge_operator(problem: AZProblem):
    """(I - A Z*) A restricted to the (#Mrows, #L) block."""
    L, Mrows = problem.L, problem.Mrows

    def apply(xl):
        x = np.zeros((problem.grid.n_basis,) + xl.shape[1:])
        x[L] = xl
        return _plunge_apply(problem, x)[Mrows]

    def rapply(yr):
        y = np.zeros((problem.grid.M,) + yr.shape[1:])
        y[Mrows] = yr
        return _plunge_rapply(problem, y)[L]

    return _block_operator((Mrows.size, L.size), apply, rapply,
                           problem.grid.n_basis)


def plunge_rhs(problem: AZProblem):
    """(I - A Z*) b."""
    return problem.b - problem.A.matvec(problem.Zstar(problem.b))


def _reference_scale(problem: AZProblem, weights=None):
    """Magnitude of the enclosing frame operator, so the low-rank solver can
    truncate the plunge system against ||A|| rather than against noise."""
    rng = np.random.Generator(np.random.Philox(0x5CA1E))
    w = rng.standard_normal(problem.grid.n_basis)
    if weights is not None:
        w = weights * w
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


def _finish(problem, x1, t0, t1, rep, extra_times=None):
    """Steps 2-3 from the step-1 solution x1 and the report ``rep`` of the
    solver that produced it."""
    t2 = time.perf_counter()
    x2 = problem.Zstar(problem.b - problem.A.matvec(x1))
    x = x1 + x2
    r = float(np.linalg.norm(problem.A.matvec(x) - problem.b))
    times = {"step1": t1 - t0, "step23": time.perf_counter() - t2}
    if extra_times:
        times.update(extra_times)
    return AZSolution(x=x, residual=r,
                      coefficient_norm=float(np.linalg.norm(x)),
                      per_scale_norms=per_scale_norms(x, problem.grid.N),
                      stage_times=times, plunge_rank=rep.rank,
                      warning=rep.warning,
                      diagnostics={"rank": rep.rank, **rep.diagnostics})


def az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Vanilla pipeline: randomized low-rank solve of the full plunge system."""
    t0 = time.perf_counter()
    rep = randomized_lowrank_solve(plunge_operator(problem), plunge_rhs(problem),
                                   tol=tol, seed=seed,
                                   scale=_reference_scale(problem))
    return _finish(problem, rep.solution, t0, time.perf_counter(), rep)


def reduced_az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Index-set-reduced pipeline: plunge system on the (#Mrows, #L) block."""
    t0 = time.perf_counter()
    rep = randomized_lowrank_solve(reduced_plunge_operator(problem),
                                   plunge_rhs(problem)[problem.Mrows],
                                   tol=tol, seed=seed,
                                   scale=_reference_scale(problem))
    x1 = np.zeros(problem.grid.n_basis)
    x1[problem.L] = rep.solution
    return _finish(problem, x1, t0, time.perf_counter(), rep)


def _prune(S, rel=PRUNE_REL):
    S = S.tocoo()
    if S.nnz == 0:
        return S.tocsr()
    cut = rel * np.abs(S.data).max()
    keep = np.abs(S.data) > cut
    return scipy.sparse.csr_matrix(
        (S.data[keep], (S.row[keep], S.col[keep])), shape=S.shape)


def scaling_plunge(problem: AZProblem):
    """Sparse A_hat - A_hat Z_hat* A_hat, pruned of cancellation fuzz."""
    Ah, Zh = problem.scaling.A_hat, problem.scaling.Z_hat
    return _prune(Ah - Ah @ (Zh.T @ Ah))


def _selected_winv_rows(rows, bank, N):
    """Sparse selected rows of the d-dimensional synthesis matrix W^-1."""
    if len(N) == 1:
        return sparse_idwt_rows(rows, bank, (N[0]).bit_length() - 1)
    multis = np.unravel_index(np.asarray(rows, dtype=int), tuple(N))
    axis_rows = []
    for ax, n in enumerate(N):
        uniq, inv = np.unique(multis[ax], return_inverse=True)
        mat = sparse_idwt_rows(uniq, bank, n.bit_length() - 1).tocsr()
        axis_rows.append((mat, inv))
    data, ri, ci = [], [], []
    ntot = int(np.prod(N))
    for pos in range(len(rows)):
        vals = np.array([1.0])
        cols = np.array([0], dtype=np.int64)
        for mat, inv in axis_rows:
            r = mat.getrow(inv[pos])
            vals = np.outer(vals, r.data).ravel()
            cols = (cols[:, None] * mat.shape[1] + r.indices[None, :]).ravel()
        data.append(vals)
        ri.append(np.full(vals.size, pos, dtype=np.int64))
        ci.append(cols)
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(ri), np.concatenate(ci))),
        shape=(len(rows), ntot))


def sparse_plunge(problem: AZProblem):
    """Sparse (I - A Z*) A, assembled as a product with selected W^-1 rows."""
    P_hat = scaling_plunge(problem)
    cols = np.unique(P_hat.nonzero()[1])
    if cols.size == 0:
        return scipy.sparse.csr_matrix(problem.A.shape)
    R = _selected_winv_rows(cols, problem.bank, problem.grid.N)
    return _prune(P_hat[:, cols] @ R)


def sparse_az_solve(problem: AZProblem, tol=DEFAULT_TOL) -> AZSolution:
    """Sparse pipeline: explicit sparse plunge, rank-revealing sparse solve."""
    t0 = time.perf_counter()
    P = sparse_plunge(problem)
    t_asm = time.perf_counter()
    S = P[:, problem.L]
    rep = sparse_qr_solve(S.tocsr(), plunge_rhs(problem), tol=tol)
    x1 = np.zeros(problem.grid.n_basis)
    x1[problem.L] = rep.solution
    return _finish(problem, x1, t0, time.perf_counter(), rep,
                   extra_times={"assembly": t_asm - t0})


def smoothed_az_solve(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Weighted pipeline: step 1 solves (I - A Z*) A W y = (I - A Z*) b,
    then x1 = W y."""
    w = problem.weights
    if w is None:
        w = np.ones(problem.grid.n_basis)
    if w.size != problem.grid.n_basis:
        raise AZError("weight vector length does not match the basis")
    t0 = time.perf_counter()
    rep = randomized_lowrank_solve(plunge_operator(problem, weights=w),
                                   plunge_rhs(problem), tol=tol, seed=seed,
                                   scale=_reference_scale(problem, weights=w))
    return _finish(problem, w * rep.solution, t0, time.perf_counter(), rep)


def coarsest_n(bank: FilterBank, minimum=4):
    """Smallest admissible dyadic n: at least `minimum` times the mask support."""
    n = 2
    while n < minimum * bank.support_length:
        n *= 2
    return n


def adaptive_weighted_solve(f, mask: DomainMask, bank: FilterBank, N, q,
                            tol=DEFAULT_TOL, seed=0) -> AZSolution:
    """Multilevel weighted pipeline: refine n from coarse to N, feeding the
    residual history back in as per-scale weights.

    The ladder starts at the coarsest level whose grid has more samples in
    the domain than unknowns; only a requested N without that raises."""
    N = tuple(N) if not np.isscalar(N) else (int(N),) * mask.dimension
    q = tuple(q) if not np.isscalar(q) else (int(q),) * mask.dimension
    n0 = coarsest_n(bank)
    levels = [tuple(max(n0, ni >> s) for ni in N)
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
        wproblem = AZProblem(
            bank=problem.bank, grid=problem.grid, scaling=problem.scaling,
            A=problem.A, Zstar=problem.Zstar, b=problem.b, K=problem.K,
            kflags=problem.kflags, L=problem.L, Mrows=problem.Mrows,
            weights=scale_weights(e, lv))
        sol = smoothed_az_solve(wproblem, tol=tol, seed=seed)
        e.append(sol.residual)
    sol.stage_times["weight_history"] = list(e)
    return sol


def plunge_rank(problem: AZProblem, tol=DEFAULT_TOL, seed=0) -> int:
    """Numerical rank of the plunge operator by randomized range estimation."""
    from .solvers import estimate_rank

    return estimate_rank(plunge_operator(problem), tol=tol, seed=seed,
                         scale=_reference_scale(problem))
