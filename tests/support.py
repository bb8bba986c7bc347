"""Shared test constants, oracles and the ``banks`` fixture.

Test modules import these by name.  They live outside ``conftest.py``
because the benchmark's tests (``perfbench/tests``) import from a module of
that name too, and one session can hold only one ``conftest`` module.
"""

import ast
import functools
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg import lapack

from wavext import az
from wavext.domain import masked_grid
from wavext.dual import DualError, dual_pair
from wavext.dwt import (TransformError, dwt, idwt, idwt_column_filters,
                        sparse_idwt_rows)
from wavext.filters import filter_bank
from wavext.solvers import (BLOCK_SIZE, DEFAULT_TOL, DENSE_GUARD,
                            NOISE_REL, FrontalFactor, SolverError, _finalize,
                            _frontal_qr, _qr_rank, _svd_solve)
from wavext.system import assemble_scaling, frame_operator_A

ALL_FAMILIES = ["db1", "db2", "db3", "db4", "cdf22", "cdf31", "cdf33",
                "cdf35", "cdf42", "cdf51"]
# the families whose 1-D scaling blocks have at most BLOCK_SIZE columns
UNCOMPRESSED_1D_FAMILIES = ["db1", "db2", "db3", "db4", "db5", "cdf22",
                            "cdf24", "cdf26", "cdf31", "cdf33", "cdf35",
                            "cdf42", "cdf44", "cdf51", "cdf53"]
DUAL_COMBOS = [(fam, q) for fam in
               ["db2", "db3", "db4", "cdf22", "cdf31", "cdf33", "cdf35",
                "cdf42", "cdf51"] for q in (2, 4)]


@pytest.fixture(scope="session")
def banks():
    return {name: filter_bank(name) for name in ALL_FAMILIES}


def brute_force_K(grid, bank):
    """Independent O(N * support) scaling-boundary oracle by explicit loops."""
    from wavext.dual import dual_pair

    d = grid.dimension
    supports = []
    for n, q in zip(grid.N, grid.q):
        b, _ = dual_pair(bank, q)
        nz = b.offset + np.nonzero(b.b)[0]
        supports.append([nz % (n * q)])
    inside = grid.inside_bool
    out = []
    for k in np.ndindex(*grid.N):
        pts = np.meshgrid(*[(s[0] + ki * qi) % (ni * qi)
                            for s, ki, ni, qi in
                            zip(supports, k, grid.N, grid.q)], indexing="ij")
        vals = inside[tuple(p.ravel() for p in pts)]
        if vals.any() and not vals.all():
            out.append(np.ravel_multi_index(k, grid.N))
    return np.array(sorted(out), dtype=int)


def dense_matrix(plan, inverse=False):
    """Explicit transform matrix, assembled by applying the fast transform."""
    if plan.J > 12:
        raise TransformError("dense assembly limited to J <= 12")
    # batched over rows: row k of the result is the image of e_k, i.e. column k
    return (idwt if inverse else dwt)(np.eye(2**plan.J), plan).T


def truncated_svd_solve(A, b, tol=DEFAULT_TOL, floor=0.0):
    """Classical eps-truncated pseudoinverse solve (accuracy oracle), cut at
    max(tol * s_0, floor)."""
    t0 = time.perf_counter()
    A = np.asarray(A, dtype=float)
    if max(A.shape) > DENSE_GUARD:
        raise SolverError(f"dense solver limited to dimensions <= {DENSE_GUARD}")
    b = np.asarray(b, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = (int(np.sum(s > max(tol * s[0], floor))) if s.size and s[0] > 0
         else 0)
    x = Vt[:r].T @ ((U[:, :r].T @ b) / s[:r]) if r else np.zeros(A.shape[1])
    return _finalize(lambda v: A @ v, x, b, r, t0)


# Samples per draw of the sketch after a block that was not kept in full.
N_PROBES = 10


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@functools.lru_cache(maxsize=64)
def _sketch_lwork(m, n):
    """Optimal LAPACK workspace of ``dgeqp3`` and ``dorgqr`` on an (m, n)
    block, by one workspace query each: blocked and unblocked ``dorgqr``
    may round differently, so the sketch's bits depend on these sizes."""
    a, tau = np.empty((m, n), order="F"), np.zeros(n)
    return (int(lapack.dgeqp3(a, lwork=-1)[3][0]),
            int(lapack.dorgqr(a, tau, lwork=-1)[1][0]))


def _range_basis(op, tol, rng, floor=0.0):
    """Orthonormal basis Q of the numerical range of a LinearOperator op,
    from blocks of BLOCK_SIZE samples op G^T for Gaussian rows G (Halko,
    Martinsson & Tropp 2011, section 4.4).

    One level, ``max(tol * sigma, floor)`` with sigma the largest sample norm
    of the first block, decides both what is kept and when to stop:

    * each block is projected off Q into a Fortran-ordered buffer, factored
      in place by LAPACK's pivoted QR (``dgeqp3``), and only the columns
      whose R diagonal exceeds the level are kept and formed (``dorgqr``);
      the kept block is projected off Q a second time (two-pass
      Gram-Schmidt), so Q stays orthonormal to working precision;
    * the loop stops at the first draw whose projected samples are all at or
      below the level, which bounds the error of the range with high
      probability (the posterior bound of the same reference).  A draw that
      was kept in full is followed by another block; one that was not has
      most likely exhausted the range, so the next draw is only N_PROBES
      samples.

    The basis thus ends at the numerical rank, give or take directions close
    to the level, instead of filling the operator's range.  It grows by the
    kept columns only: no buffer of min(m, n) columns is reserved.
    """
    m, n = op.shape
    full = min(m, n)
    level = None
    Q = np.zeros((m, 0))
    size = BLOCK_SIZE
    while Q.shape[1] < full:
        # more than min(m, n) samples cannot add to the range
        Y = op.matmat(rng.standard_normal((min(size, full), n)).T)
        if level is None:
            level = max(tol * np.linalg.norm(Y, axis=0).max(), floor)
        Y = np.subtract(Y, Q @ (Q.T @ Y), out=np.empty(Y.shape, order="F"))
        if np.linalg.norm(Y, axis=0).max() <= level:
            break
        geqp3_lwork, orgqr_lwork = _sketch_lwork(*Y.shape)
        Y, _, tau, _, info = lapack.dgeqp3(Y, lwork=geqp3_lwork, overwrite_a=1)
        if info:
            raise SolverError(f"dgeqp3 failed with info {info}")
        # |R[0, 0]| is the largest sample norm, just found above the level;
        # keeping at least one column also guarantees progress
        k = max(1, int(np.sum(np.abs(np.diag(Y)) > level)))
        k = min(k, full - Q.shape[1])
        Qnew, _, info = lapack.dorgqr(Y[:, :k], tau[:k], lwork=orgqr_lwork,
                                      overwrite_a=1)
        if info:
            raise SolverError(f"dorgqr failed with info {info}")
        if Q.shape[1]:
            Qnew -= Q @ (Q.T @ Qnew)
            Qnew = np.linalg.qr(Qnew)[0]
        Q = np.column_stack([Q, Qnew])
        size = BLOCK_SIZE if k == Y.shape[1] else N_PROBES
    return Q


def sketched_lowrank_solve(op, b, tol=DEFAULT_TOL, seed=0, scale=None):
    """Adaptive randomized low-rank least squares for a matrix-free operator
    (oracle of the exact reveals).

    Builds an orthonormal range basis Q with ``_range_basis``, which stops
    at the numerical rank, then solves the projected problem with a
    truncated SVD (minimum-norm on the detected range) at the same level,
    ``max(tol * sigma, NOISE_REL * scale)``.  The operator is applied to
    whole blocks through ``matmat``/``rmatmat``.
    ``diagnostics["sketch_shape"]`` is the operator's shape.

    An operator with at most BLOCK_SIZE rows or columns skips the sketch,
    which would need that many samples anyway: it is solved by the same
    truncated SVD as a dense block B, which is ``op`` itself when that is a
    dense array, else formed exactly from its smaller side, min(m, n)
    applies of ``matmat`` or ``rmatmat``; the residual is that of B,
    ``range_dim`` min(m, n) and ``core_shape`` (m, n), as for exact reveals.

    ``scale`` supplies the magnitude of the enclosing operator: anything
    below NOISE_REL * scale is treated as cancellation noise rather than
    signal, so a numerically-zero sub-operator comes out as rank 0 instead
    of a full-rank noise fit.  Truncation proper stays relative to the
    operator's own largest singular value.
    """
    t0 = time.perf_counter()
    m, n = op.shape
    b = np.asarray(b, dtype=float)
    full = min(m, n)
    floor = NOISE_REL * scale if scale is not None else 0.0
    if 0 < full <= BLOCK_SIZE:
        B = op
        if not isinstance(op, np.ndarray):
            op = scipy.sparse.linalg.aslinearoperator(op)
            B = op.matmat(np.eye(n)) if n <= m else op.rmatmat(np.eye(m)).T
        x, r = _svd_solve(B, b, tol, floor)
        return _finalize(lambda v: B @ v, x, b, r, t0, range_dim=full,
                         core_shape=(m, n))
    op = scipy.sparse.linalg.aslinearoperator(op)
    Q = _range_basis(op, tol, _rng(seed), floor)
    # projected problem: min || (Q* A) x - Q* b ||
    x, r = (_svd_solve(op.rmatmat(Q).T, Q.T @ b, tol, floor) if Q.shape[1]
            else (np.zeros(n), 0))
    return _finalize(op.matvec, x, b, r, t0, range_dim=Q.shape[1],
                     sketch_shape=(m, n))


def reference_analysis_step(v, h, g, coarse, detail):
    """Per-tap periodic analysis step by index arithmetic modulo n, copied
    into coarse and detail: the oracle of ``wavext.dwt._analysis_step``."""
    n = v.shape[-1]
    half = n // 2
    vc = np.zeros(v.shape[:-1] + (half,), dtype=v.dtype)
    wc = np.zeros_like(vc)
    base = 2 * np.arange(half)
    for mask, out in ((h, vc), (g, wc)):
        for ti, c in enumerate(mask.taps):
            t = mask.offset + ti
            out += c * v[..., (base + t) % n]
    coarse[...], detail[...] = vc, wc
    return coarse, detail


def reference_synthesis_step(v, w, h, g):
    """Per-tap periodic synthesis step by scattering modulo n: the oracle of
    ``wavext.dwt._synthesis_step``."""
    half = v.shape[-1]
    n = 2 * half
    out = np.zeros(v.shape[:-1] + (n,), dtype=np.result_type(v, w))
    idx = 2 * np.arange(half)
    for mask, coarse in ((h, v), (g, w)):
        for ti, c in enumerate(mask.taps):
            t = mask.offset + ti
            # indices 2l + t are pairwise distinct mod n for fixed t
            out[..., (idx + t) % n] += c * coarse
    return out


def reference_grid(mask, shape):
    """The full-grid points by ``np.meshgrid``, the inside mask on them and
    the inside points by ``np.unravel_index``: the oracle of
    ``wavext.domain.masked_grid`` and ``MaskedGrid.points``.  Returns
    (points, inside_bool, inside, inside points)."""
    axes = [np.arange(g) / g for g in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    inside_bool = mask.contains(pts).reshape(shape)
    inside = np.flatnonzero(inside_bool.ravel())
    coords = np.unravel_index(inside, shape)
    return pts, inside_bool, inside, np.column_stack(
        [c / g for c, g in zip(coords, shape)])


def reference_expression(text):
    """Out-of-place evaluation of a function spec over x, y, z, one new
    array per operator: the oracle of ``wavext.cli._compile_expression``
    for the specs it accepts."""
    ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
    funcs = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
             "log": np.log, "tanh": np.tanh, "abs": np.abs}

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp):
            return ops[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp):
            v = ev(node.operand, env)
            return -v if isinstance(node.op, ast.USub) else +v
        return funcs[node.func.id](*[ev(a, env) for a in node.args])

    tree = ast.parse(text, mode="eval")

    def f(pts):
        env = {n: pts[:, i] for i, n in enumerate("xyz") if i < pts.shape[1]}
        return np.broadcast_to(ev(tree, env), (pts.shape[0],)).astype(float)
    return f


def wavelet_boundary_set_intervals(kflags, bank, N):
    """Support-arithmetic oracle of ``wavext.domain.wavelet_boundary_set``:
    each column's circular support interval against prefix counts of the
    scaling flags, per axis."""
    flags = np.asarray(kflags, dtype=bool).reshape(N)
    for ax, n in enumerate(N):
        J = n.bit_length() - 1
        sup = [(off % n, min(taps.size, n))
               for off, taps in idwt_column_filters(bank, J)]
        cur = np.moveaxis(flags, ax, -1)
        out = np.zeros_like(cur)
        csum = np.concatenate(
            [np.zeros(cur.shape[:-1] + (1,), dtype=int),
             np.cumsum(np.concatenate([cur, cur], axis=-1), axis=-1)], axis=-1)
        for idx in range(n):
            if idx == 0:
                start, length = sup[J]
            else:
                l = idx.bit_length() - 1
                start, length = sup[l]
                start = (start + (idx - 2**l) * 2 ** (J - l)) % n
            out[..., idx] = (csum[..., start + length] - csum[..., start]) > 0
        flags = np.moveaxis(out, -1, ax)
    return np.flatnonzero(flags.ravel()), flags


def estimate_rank(op, tol=DEFAULT_TOL, seed=0, scale=None):
    """Numerical rank of an operator by the sketch
    (``sketched_lowrank_solve``)."""
    op = scipy.sparse.linalg.aslinearoperator(op)
    b = np.zeros(op.shape[0])
    return sketched_lowrank_solve(op, b, tol=tol, seed=seed,
                                  scale=scale).rank


def selected_winv_rows(rows, bank, N):
    """Sparse selected rows of the d-dimensional synthesis matrix W^-1, from
    the cascade filters (``wavext.dwt.sparse_idwt_rows``): the oracle of
    ``wavext.az.Geometry.winv_block``.

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


def _scale_rows(w, x):
    """diag(w) x for a vector or a block; the identity when w is None."""
    return x if w is None else (w * x.T).T


def plunge_apply(problem, x):
    """(I - A Z*) A D x = y - A_hat (Z_hat* y), y = A D x, for a vector or
    an (n_basis, k) block; D = diag(problem.weights), or I without them:
    the matrix-free plunge over all rows and columns, one synthesis per
    apply."""
    S = problem.scaling
    y = problem.A @ _scale_rows(problem.weights, x)
    return y - S.A_hat @ (S.Z_hat.T @ y)


def plunge_rapply(problem, y):
    """D A* (I - Z A*) y for a vector or an (M, k) block, with Z A* = Z_hat
    A_hat* and A* = W~ A_hat*: one dual analysis per apply."""
    S = problem.scaling
    u = S.A_hat.T @ np.asarray(y, dtype=float)
    return _scale_rows(problem.weights, problem.A.dual_analysis(
        u - S.A_hat.T @ (S.Z_hat @ u)))


# Block applies of ``plunge_operator`` and the transform build of R_L
# (``transform_winv_block``) take column chunks of at most this many basis
# entries: one column at n_basis = 2^18.
BLOCK_ENTRIES = 2**18


def _in_blocks(fn, n_basis):
    """fn applied to column chunks of a block, at most ``BLOCK_ENTRIES``
    basis entries each (read at call time)."""
    def run(X):
        step = max(1, BLOCK_ENTRIES // n_basis)
        if X.shape[1] <= step:
            return fn(X)
        return np.hstack([fn(X[:, i:i + step])
                          for i in range(0, X.shape[1], step)])
    return run


def transform_winv_block(geometry):
    """(L, R_L) of ``wavext.az.Geometry.winv_block`` by the dual analysis of
    the unit vectors on K over all N points: W~ = (W^-1)*, so that analysis
    holds R_L^T in its rows L and zeros elsewhere.  Batched in chunks of at
    most BLOCK_ENTRIES entries, |K| N work: the oracle of the boundary-local
    build."""
    A, K = geometry.A, geometry.K
    n = A.shape[1]
    step = max(1, BLOCK_ENTRIES // n)
    parts = []
    for i in range(0, K.size, step):
        E = np.zeros((n, min(step, K.size - i)))
        E[K[i:i + step], np.arange(E.shape[1])] = 1.0
        D = A.dual_analysis(E)
        rows = np.flatnonzero(D.any(axis=1))
        parts.append((rows, D[rows].T))
    L = np.unique(np.concatenate([np.zeros(0, np.intp)]
                                 + [rows for rows, _ in parts]))
    R = np.zeros((K.size, L.size))
    for i, (rows, D) in zip(range(0, K.size, step), parts):
        R[i:i + D.shape[0], np.searchsorted(L, rows)] = D
    return L, R


def plunge_operator(problem):
    """Matrix-free (I - A Z*) A D over all M rows and N columns as a scipy
    LinearOperator, block applies in chunks of at most ``BLOCK_ENTRIES``
    basis entries: the oracle of step 1 of ``az.az_solve``, which reveals
    its (Mrows, L) block."""
    apply = functools.partial(plunge_apply, problem)
    rapply = functools.partial(plunge_rapply, problem)
    n = problem.grid.n_basis
    return scipy.sparse.linalg.LinearOperator(
        shape=problem.A.shape, dtype=float, matvec=apply, rmatvec=rapply,
        matmat=_in_blocks(apply, n), rmatmat=_in_blocks(rapply, n))


def plunge_rank(problem, tol=DEFAULT_TOL, seed=0):
    """Numerical rank of the plunge operator by randomized range estimation."""
    return estimate_rank(plunge_operator(problem), tol=tol, seed=seed,
                         scale=az._reference_scale(problem))


def transform_sampled_az(problem, tol=DEFAULT_TOL, seed=0):
    """``az.az_solve`` (``smoothed`` with weights) on the matrix-free plunge
    ``plunge_operator`` over every row and column, its range finder
    sampling P D G^T for Gaussian G on all N columns, so every sample
    block takes a wavelet synthesis: the oracle of az's step 1 on the
    boundary block.  Steps 2-3 are ``az._solve``'s (``az_steps23``), so
    the two differ by step 1 alone.  Returns (step-1 report, x, residual
    ||A_hat u - b||, which is ||A x - b||)."""
    S = problem.scaling
    b1 = problem.b - S.A_hat @ (S.Z_hat.T @ problem.b)   # over every row
    rep = sketched_lowrank_solve(plunge_operator(problem), b1, tol=tol,
                                 seed=seed, scale=az._reference_scale(problem))
    return (rep, *az_steps23(problem,
                             _scale_rows(problem.weights, rep.solution)))


def az_steps23(problem, x1):
    """(x, ||A x - b||) of steps 2-3 as ``az._solve`` takes them from x1:
    x = W u, u = v + c - Z_hat* (A_hat v) with v = W^-1 x1 and c = Z_hat*
    b, and the residual ||A_hat u - b||."""
    S = problem.scaling
    v = problem.A.synthesis(x1)
    u = v + (S.Z_hat.T @ problem.b - S.Z_hat.T @ (S.A_hat @ v))
    return (problem.A.analysis(u),
            float(np.linalg.norm(S.A_hat @ u - problem.b)))


def reference_scaling_plunge(problem):
    """The global A_hat - A_hat Z_hat* A_hat over every column, pruned like
    ``wavext.az.scaling_plunge``: the oracle of its boundary-local form."""
    Ah, Zh = problem.scaling.A_hat, problem.scaling.Z_hat
    return az._prune(Ah - Ah @ (Zh.T @ Ah))


def reference_per_scale_norms(x, N, select=None):
    """Per-scale l2 norms from a scale label per coefficient
    (``wavext.az.scale_levels``) and ``np.bincount``: the oracle of
    ``wavext.az.per_scale_norms``."""
    x = np.ravel(x)
    if select is not None:
        keep = np.zeros(x.size, dtype=bool)
        keep[np.asarray(select)] = True
        x = np.where(keep, x, 0.0)
    return np.sqrt(np.bincount(az.scale_levels(N), weights=x * x))


def reference_plunge_apply(problem, x):
    """(I - A Z*) A x through the wavelet-level operators, idwt -> dwt ->
    idwt: the oracle of ``plunge_apply``."""
    y = problem.A @ x
    return y - problem.A @ problem.Zstar(y)


def reference_plunge_rapply(problem, y):
    """A* (I - Z A*) y through the wavelet-level operators, dwt -> idwt ->
    dwt, with Z c = Z_hat (W~^-1 c), W~^-1 the dual idwt: the oracle of
    ``plunge_rapply``."""
    A, frame = problem.A, problem.Zstar._frame
    y = np.asarray(y, dtype=float)
    adjoint = A.rmatvec if y.ndim == 1 else A.rmatmat
    c = adjoint(y)
    return adjoint(y - frame.scaling_matrix
                   @ frame._axis_transform(c, idwt, frame.dual_plans))


def reference_plunge_rhs(problem):
    """(I - A Z*) b through a dwt and an idwt over all N: on the rows
    Mrows, the oracle of ``wavext.az.plunge_rhs``."""
    return problem.b - problem.A.matvec(problem.Zstar(problem.b))


def reference_circulant_factor(base_row, n_basis, q):
    """The (n q, n) circulant whose column k is base_row rolled by k q,
    assembled from COO triplets."""
    n = base_row.size
    nz = np.flatnonzero(base_row)
    rows = ((nz[None, :] + q * np.arange(n_basis)[:, None]) % n).ravel()
    cols = np.repeat(np.arange(n_basis), nz.size)
    data = np.tile(base_row[nz], n_basis)
    return scipy.sparse.csc_matrix((data, (rows, cols)), shape=(n, n_basis))


def periodize_dual(d, N, q):
    """Grid representation of the periodized dual, rows shifted by kq: the
    oracle of ``wavext.dual.dual_taps``.

    Returns the length-Nq base row r with r[m] = N^{-1/2} sum_l bt_{m - Nq l};
    row k of the dual synthesis table is np.roll(r, k*q).
    """
    if d.b_dual.size > N * q:
        raise DualError(f"dual support {d.b_dual.size} exceeds grid length {N * q}")
    n = N * q
    row = np.zeros(n)
    idx = (d.offset + np.arange(d.b_dual.size)) % n
    np.add.at(row, idx, d.b_dual)
    return row / np.sqrt(N)


def periodize_primal(b, N):
    """Length-Nq base row of the periodized primal, scaled by sqrt(N): the
    oracle of ``wavext.dual.primal_taps``."""
    q = b.q
    n = N * q
    if b.b.size > n:
        raise DualError(f"primal support {b.b.size} exceeds grid length {n}")
    row = np.zeros(n)
    idx = (b.offset + np.arange(b.b.size)) % n
    np.add.at(row, idx, b.b)
    return row * np.sqrt(N)


def reference_assemble_scaling(bank, grid):
    """A_hat and Z_hat as the Kronecker product of full-box per-axis
    circulants (``reference_circulant_factor`` of the periodized primal and
    dual), converted to CSR and restricted to the rows ``grid.inside``: the
    oracle of ``wavext.system.assemble_scaling``.  Returns (A_hat, Z_hat)."""
    A = Z = None
    for n, q in zip(grid.N, grid.q):
        b, d = dual_pair(bank, q)
        fa = reference_circulant_factor(periodize_primal(b, n), n, q)
        fz = reference_circulant_factor(periodize_dual(d, n, q), n, q)
        A = fa if A is None else scipy.sparse.kron(A, fa, format="csr")
        Z = fz if Z is None else scipy.sparse.kron(Z, fz, format="csr")
    return A.tocsr()[grid.inside], Z.tocsr()[grid.inside]


def sparse_qr_reference(A, b, tol=DEFAULT_TOL, scale=None):
    """The full column-pivoted QR of the compacted core of a sparse A, cut at
    tol * min(|R[0, 0]|, scale) and solved for b: the oracle of
    ``sparse_qr_factor``.  |R[0, 0]| is the largest column norm of the
    core.  Returns (x, rank)."""
    A = A.tocsr()
    rows, cols = np.unique(A.nonzero()[0]), np.unique(A.nonzero()[1])
    core = A[rows][:, cols].toarray()
    if scale is not None and core.size:
        tol *= min(1.0, scale / np.linalg.norm(core, axis=0).max())
    Qf, R, piv = scipy.linalg.qr(core, mode="economic", pivoting=True)
    r = _qr_rank(R, tol, None)
    x = np.zeros(A.shape[1])
    if r:
        x[cols[piv[:r]]] = scipy.linalg.solve_triangular(
            R[:r, :r], Qf[:, :r].T @ b[rows])
    return x, r


def _reference_banded_order(A):
    """(rows, cols, first, last) of the core of A by scipy's own routes:
    the bipartite graph of A's pattern as a COO matrix that scipy sums and
    sorts, and ``np.unique`` for the nonzero rows and columns."""
    keep = A.data != 0
    ri = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))[keep]
    rows, ri = np.unique(ri, return_inverse=True)
    cols, ci = np.unique(A.indices[keep], return_inverse=True)
    if not ri.size:
        return rows, cols, ri, ci
    m = rows.size
    graph = scipy.sparse.csr_matrix((np.ones(2 * ri.size),
                                     (np.r_[ri, ci + m], np.r_[ci + m, ri])))
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, True)
    perm = perm[perm >= m] - m
    P = graph[:m][:, m + perm].tocsr()
    first = np.minimum.reduceat(P.indices, P.indptr[:-1])
    last = np.maximum.reduceat(P.indices, P.indptr[:-1])
    order = np.argsort(first, kind="stable")
    return rows[order], cols[perm], first[order], last[order]


def reference_frontal_qr(A):
    """The frontal factor of a sparse A by scipy's fancy indexing: the
    core ``A[rows][:, cols]`` in ``_reference_banded_order``'s order and
    one slice plus ``toarray()`` per step for the panel.  The oracle of
    ``wavext.solvers._frontal_qr``, which must give the same bits."""
    A = A.tocsr()
    rows, cols, first, last = _reference_banded_order(A)
    n = cols.size
    core = A[rows][:, cols]
    R_B = np.zeros((n, n))
    front = np.zeros((0, 0))
    steps, r0, hi, width = [], 0, 0, 0
    for j0 in range(0, n, BLOCK_SIZE):
        j1 = min(j0 + BLOCK_SIZE, n)
        r1 = int(np.searchsorted(first, j1))
        hi = max(hi, j1, int(last[r0:r1].max(initial=-1)) + 1)
        w = hi - j0
        width = max(width, w)
        T = np.zeros((w, w))
        T[:front.shape[0], :front.shape[0]] = front
        V = Tf = np.zeros((0, w))
        if r1 > r0:
            T, V, Tf, _ = lapack.dtpqrt(
                0, min(BLOCK_SIZE, w), T, core[r0:r1, j0:hi].toarray(),
                overwrite_a=1, overwrite_b=1)
        R_B[j0:j1, j0:hi] = T[:j1 - j0]
        front = T[j1 - j0:, j1 - j0:]
        steps.append((r0, r1, V, Tf))
        r0 = r1
    return FrontalFactor(A=A, rows=rows, cols=cols, steps=tuple(steps),
                         front_width=width, R_B=R_B)


def assert_same_frontal(factor, ref):
    """Two frontal factors hold the same bits: rows, cols (and their index
    types), front width, each step's (r0, r1, V, T) and R_B."""
    for name in ("rows", "cols"):
        got, want = getattr(factor, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert factor.front_width == ref.front_width
    assert len(factor.steps) == len(ref.steps)
    for k, ((r0, r1, V, T), (s0, s1, W, U)) in enumerate(
            zip(factor.steps, ref.steps)):
        assert (r0, r1) == (s0, s1), k
        assert V.shape == W.shape and T.shape == U.shape, k
        assert np.array_equal(V, W) and np.array_equal(T, U), k
    assert np.array_equal(factor.R_B, ref.R_B)


def sparse_qr_factor(A, scale=None):
    """Rank-revealing factorization of a sparse matrix, reusable for any
    right-hand side: the frontal compression to R_B (``_frontal_qr``),
    then the column-pivoted QR of R_B (``FrontalFactor.qr``) at
    DEFAULT_TOL, that ``wavext.solvers.sparse_qr_solve`` applies.  The
    factor is a function of A and scale alone."""
    return _frontal_qr(A).qr(DEFAULT_TOL, scale)


def frontal_qr_reveal(B, tol, scale):
    """The column-pivoted QR reveal of a dense block B taken on the frontal
    triangle of its CSR, ``_frontal_qr(csr(B)).qr(tol, scale)``: the oracle
    of the ``qr`` reveal of an uncompressed factor, which takes it on B."""
    return _frontal_qr(scipy.sparse.csr_matrix(B)).qr(tol, scale)


def wavelet_block(problem):
    """The (Mrows, L) block of the wavelet-domain ``az.sparse_plunge``: the
    plunge in the wavelet columns, the oracle of the scaling block."""
    return az.sparse_plunge(problem)[problem.Mrows][:, problem.L]


def check_sparse_factor(A, scale=None):
    """``sparse_qr_factor(A, scale=scale)`` against the full-QRCP oracle at
    the same cut on a Gaussian right-hand side: the oracle's rank, a
    residual within 1 % of its (or of 1e-12 ||b||, the round-off of a
    right-hand side in the range), a front no wider than the core, and a
    second cold factor equal in every bit.  The message reports ||x||
    beside the residual.  Returns the factor and its report."""
    factor = sparse_qr_factor(A, scale=scale)
    again = sparse_qr_factor(A, scale=scale)
    for name in ("rows", "cols", "H", "tau", "piv"):
        assert np.array_equal(getattr(factor, name),
                              getattr(again, name)), name
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x, rank = sparse_qr_reference(A, b, scale=scale)
    rep = factor.solve(b)
    ref = float(np.linalg.norm(A @ x - b))
    msg = (f"rank {rep.rank} vs {rank}, residual {rep.residual:.6e} vs "
           f"{ref:.6e}, ||x|| {rep.solution_norm:.6g} vs "
           f"{np.linalg.norm(x):.6g}")
    assert rep.rank == rank, msg
    floor = 1e-12 * np.linalg.norm(b)
    assert abs(rep.residual - ref) <= 0.01 * ref + floor, msg
    assert rep.diagnostics["front_width"] == factor.front_width
    assert factor.front_width <= factor.cols.size
    return factor, rep


def interior_points(fine):
    """Points of a 2q grid whose enclosing q-cell corners all lie in the
    domain, as the benchmark's held-out gate (``perfbench/accuracy.py``)
    takes them.  Coarse point j sits at fine index 2j; fine index i has the
    corners i // 2 and (i + 1) // 2 along each axis."""
    coarse = fine.inside_bool[tuple(slice(None, None, 2) for _ in fine.N)]
    acc = coarse
    for ax, g in enumerate(fine.grid_shape):
        i = np.arange(g)
        lo = np.take(acc, i // 2, axis=ax)
        hi = np.take(acc, ((i + 1) // 2) % acc.shape[ax], axis=ax)
        acc = lo & hi
    return acc & fine.inside_bool


def heldout_interior_error(problem, f, x):
    """max |A2 x - f| / max |f| over the ``interior_points`` of the grid
    with twice the oversampling, A2 the frame operator on that grid: the
    held-out interior error of the benchmark's gate."""
    grid = problem.grid
    fine = masked_grid(grid.mask, grid.N, tuple(2 * q for q in grid.q))
    A2 = frame_operator_A(assemble_scaling(problem.bank, fine), problem.bank,
                          fine)
    interior = interior_points(fine).ravel()[fine.inside]
    exact = f(fine.points())
    err = np.abs(A2.matvec(x) - exact) / np.abs(exact).max()
    return float(err[interior].max())
