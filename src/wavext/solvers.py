"""Regularized least-squares kernels.

All solvers share the same contract: a minimum-norm-flavored solution on the
numerically significant part of the operator at the given truncation
tolerance, together with an independently recomputed residual.  The default
truncation threshold 1e-10 regularizes the frame ill-conditioning.

Both step-1 kernels stop at the numerical rank through one randomized range
finder, ``_range_basis``: ``randomized_lowrank_solve`` projects onto the
range it finds, and ``sparse_qr_factor`` takes its column pivots from a
sketch of the core's row space, then factors only the chosen columns.
``pivoted_qr_solve`` stays the full column-pivoted QR, the dense baseline.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

DEFAULT_TOL = 1e-10
BLOCK_SIZE = 16
N_PROBES = 10
NOISE_REL = 1e-13
DENSE_GUARD = 4096
CORE_ELEMENT_GUARD = 40_000_000
# Seed of the sketch that picks the sparse QR pivots: a constant, so the
# factor depends on the matrix only and a cached factor equals a fresh one.
SKETCH_SEED = 0x5EED


class SolverError(ValueError):
    pass


@dataclass
class SolveReport:
    solution: np.ndarray
    residual: float
    solution_norm: float
    rank: int
    wall_time: float
    warning: str | None = None
    diagnostics: dict = field(default_factory=dict)


def _finalize(apply_fn, x, b, rank, t0, warning=None, **diag):
    r = float(np.linalg.norm(apply_fn(x) - b))
    return SolveReport(solution=x, residual=r, solution_norm=float(np.linalg.norm(x)),
                       rank=rank, wall_time=time.perf_counter() - t0,
                       warning=warning, diagnostics=diag)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _svd_solve(B, b, tol, floor):
    """Min-norm solution of min ||B x - b|| by a truncated SVD with cutoff
    max(tol * s_0, floor); returns (x, rank)."""
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    r = int(np.sum(s > max(tol * s[0], floor)))
    return Vt[:r].T @ ((U[:, :r].T @ b) / s[:r]), r


def _range_basis(shape, sample, tol, rng, floor=0.0, max_rank=None):
    """Orthonormal basis Q of the numerical range of an operator B of the
    given (m, n) ``shape``, from blocks of BLOCK_SIZE random samples (Halko,
    Martinsson & Tropp 2011, section 4.4).  ``sample(G)`` returns B G^T for
    a block G of Gaussian rows, (k, n).

    One level, ``max(tol * sigma, floor)`` with sigma the largest sample norm
    of the first block, decides both what is kept and when to stop:

    * each block is projected off Q, factored by pivoted QR, and only the
      columns whose R diagonal exceeds the level are kept; the kept block is
      projected off Q a second time (two-pass Gram-Schmidt), so Q stays
      orthonormal to working precision;
    * the loop stops at the first draw whose projected samples are all at or
      below the level, which bounds the error of the range with high
      probability (the posterior bound of the same reference).  A draw that
      was kept in full is followed by another block; one that was not has
      most likely exhausted the range, so the next draw is only N_PROBES
      samples.

    The basis thus ends at the numerical rank, give or take directions close
    to the level, instead of filling the operator's range.  Returns
    ``(Q, drawn, warning)``: ``drawn`` counts the samples, and ``warning`` is
    set when Q reached ``max_rank`` before the level.
    """
    m, n = shape
    full = min(m, n)
    max_rank = full if max_rank is None else min(max_rank, full)
    level = None
    Q = np.zeros((m, 0))
    warning = None
    size = BLOCK_SIZE
    drawn = 0
    while Q.shape[1] < full:
        # more than min(m, n) samples cannot add to the range
        Y = sample(rng.standard_normal((min(size, full), n)))
        drawn += Y.shape[1]
        if level is None:
            level = max(tol * np.linalg.norm(Y, axis=0).max(), floor)
        Y -= Q @ (Q.T @ Y)
        if np.linalg.norm(Y, axis=0).max() <= level:
            break
        if Q.shape[1] >= max_rank:
            warning = "rank cap exceeded before reaching the tolerance"
            break
        Qnew, R, _ = scipy.linalg.qr(Y, mode="economic", pivoting=True)
        # |R[0, 0]| is the largest sample norm, just found above the level;
        # keeping at least one column also guarantees progress
        k = max(1, int(np.sum(np.abs(np.diag(R)) > level)))
        k = min(k, max_rank - Q.shape[1])
        Qnew = Qnew[:, :k]
        if Q.shape[1]:
            Qnew -= Q @ (Q.T @ Qnew)
            Qnew = np.linalg.qr(Qnew)[0]
        Q = np.column_stack([Q, Qnew])
        size = BLOCK_SIZE if k == Y.shape[1] else N_PROBES
    return Q, drawn, warning


def randomized_lowrank_solve(op, b, tol=DEFAULT_TOL, seed=0, max_rank=None,
                             scale=None):
    """Adaptive randomized low-rank least squares for a matrix-free operator.

    Builds an orthonormal range basis Q with ``_range_basis``, which stops
    at the numerical rank, then solves the projected problem with a
    truncated SVD (minimum-norm on the detected range) at the same level,
    ``max(tol * sigma, NOISE_REL * scale)``.  The operator is applied to
    whole blocks through ``matmat``/``rmatmat``; an operator whose block
    applies need bounded memory chunks them itself (see
    ``az.BLOCK_ENTRIES``).

    An operator with at most BLOCK_SIZE rows or columns (and no
    ``max_rank``) skips the sketch, which would need that many samples
    anyway: the block is formed exactly from its smaller side, min(m, n)
    applies of ``matmat`` or ``rmatmat``, and solved by the same truncated
    SVD; ``range_dim`` is then min(m, n).

    ``scale`` supplies the magnitude of an enclosing computation: anything
    below NOISE_REL * scale is treated as cancellation noise rather than
    signal, so a numerically-zero sub-operator comes out as rank 0 instead of
    a full-rank noise fit.  Truncation proper stays relative to the
    operator's own largest singular value.
    """
    t0 = time.perf_counter()
    op = scipy.sparse.linalg.aslinearoperator(op)
    m, n = op.shape
    b = np.asarray(b, dtype=float)
    full = min(m, n)
    floor = NOISE_REL * scale if scale is not None else 0.0
    if max_rank is None and 0 < full <= BLOCK_SIZE:
        B = op.matmat(np.eye(n)) if n <= m else op.rmatmat(np.eye(m)).T
        x, r = _svd_solve(B, b, tol, floor)
        return _finalize(op.matvec, x, b, r, t0, range_dim=full)
    Q, _, warning = _range_basis(op.shape, lambda G: op.matmat(G.T), tol,
                                 _rng(seed), floor, max_rank)
    # projected problem: min || (Q* A) x - Q* b ||
    if Q.shape[1]:
        x, r = _svd_solve(op.rmatmat(Q).T, Q.T @ b, tol, floor)
    else:
        r = 0
        x = np.zeros(n)
    return _finalize(op.matvec, x, b, r, t0, warning=warning,
                     range_dim=Q.shape[1])


def _pivoted_qr(A, tol):
    """Economic column-pivoted QR of a dense A and its numerical rank r, the
    number of |R| diagonal entries above tol * |R[0, 0]|."""
    Qf, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    r = int(np.sum(diag > tol * diag[0])) if diag.size and diag[0] > 0 else 0
    return Qf, R, piv, r


def pivoted_qr_solve(A, b, tol=DEFAULT_TOL, _guard=True):
    """Column-pivoted QR with truncated back-substitution."""
    t0 = time.perf_counter()
    A = np.asarray(A, dtype=float)
    if _guard and max(A.shape) > DENSE_GUARD:
        raise SolverError(f"dense solver limited to dimensions <= {DENSE_GUARD}")
    b = np.asarray(b, dtype=float)
    Qf, R, piv, r = _pivoted_qr(A, tol)
    x = np.zeros(A.shape[1])
    if r:
        z = scipy.linalg.solve_triangular(R[:r, :r], Qf[:, :r].T @ b)
        x[piv[:r]] = z
    return _finalize(lambda v: A @ v, x, b, r, t0)


@dataclass(frozen=True)
class SparseQRFactor:
    """Column-pivoted QR of the compacted core of a sparse matrix A, truncated
    at its numerical rank r.

    The core is A[rows][:, cols], the nonzero rows and columns of A; its
    pivot columns core[:, piv] are Q R, with Q (#rows, r) and R (r, r) upper
    triangular, up to the truncation.  Only what ``solve`` needs is kept, and
    A itself for the residual.  ``sketch_dim`` is the number of random
    sketch rows that chose the pivots, 0 when the whole core was factored."""

    A: scipy.sparse.csr_matrix
    rows: np.ndarray
    cols: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    piv: np.ndarray
    sketch_dim: int = 0

    @property
    def rank(self):
        return int(self.piv.size)

    @property
    def nbytes(self):
        A = self.A
        return sum(a.nbytes for a in (A.data, A.indices, A.indptr, self.rows,
                                      self.cols, self.Q, self.R, self.piv))

    def solve(self, b):
        """Min ||A x - b|| on the numerically significant part of A."""
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=float)
        x = np.zeros(self.A.shape[1])
        if self.rank:
            z = scipy.linalg.solve_triangular(self.R, self.Q.T @ b[self.rows])
            x[self.cols[self.piv]] = z
        return _finalize(lambda v: self.A @ v, x, b, self.rank, t0,
                         core_shape=(self.rows.size, self.cols.size),
                         nnz=int(self.A.nnz), sketch_dim=self.sketch_dim)


def sparse_qr_factor(A, tol=DEFAULT_TOL):
    """Rank-revealing factorization of a sparse matrix, reusable for any
    right-hand side.

    Exploits sparsity structurally: zero rows and columns are stripped first,
    then the compacted core is factored by column-pivoted Householder QR and
    truncated at its numerical rank, the R diagonal entries above
    tol * |R[0, 0]|.

    A core with more than BLOCK_SIZE rows and columns is not factored whole.
    Its pivots come from a Gaussian sketch of its row space instead (Duersch
    & Gu, "Randomized QR with column pivoting", SIAM J. Sci. Comput. 2017;
    Martinsson et al., "HQRRP", same journal, 2017): ``_range_basis`` grows
    an orthonormal basis V of the sampled rows core^T G in blocks until its
    stopping rule finds the rank, the column-pivoted QR of the small V^T
    (k x #cols) picks k columns, and only core[:, those k columns] gets the
    pivoted QR and truncation above.  The sketch seed is the constant
    SKETCH_SEED, so the factor is a function of A and tol alone.
    """
    if not scipy.sparse.issparse(A):
        raise SolverError("sparse_qr_factor expects a sparse matrix")
    A = A.tocsr()
    nz = A.data != 0    # stored zeros are no entries of the core
    rows = np.flatnonzero(np.diff(np.cumsum(np.r_[0, nz])[A.indptr]))
    cols = np.flatnonzero(np.bincount(A.indices[nz], minlength=A.shape[1]))
    if rows.size * cols.size > CORE_ELEMENT_GUARD:
        raise SolverError("compacted core too large for a dense factorization")
    # the core is already structurally reduced, so the memory guard above
    # replaces the per-dimension guard of the dense baseline
    core = A[rows][:, cols].toarray()
    sketch_dim = 0
    if min(core.shape) > BLOCK_SIZE:
        # G @ core multiplies the row-major core as stored; core.T @ G.T
        # took twice as long with one OpenBLAS thread
        V, sketch_dim, _ = _range_basis(core.T.shape, lambda G: (G @ core).T,
                                        tol, _rng(SKETCH_SEED))
        sel = scipy.linalg.qr(V.T, mode="r", pivoting=True)[1][:V.shape[1]]
        core = core[:, sel]
    Qf, R, piv, r = _pivoted_qr(core, tol)
    if sketch_dim:
        piv = sel[piv]
    # order="K" keeps LAPACK's Fortran layout, so Q.T @ b runs the same BLAS
    # call on the kept columns as on the full factor
    return SparseQRFactor(A=A, rows=rows, cols=cols,
                          Q=Qf[:, :r].copy(order="K"),
                          R=R[:r, :r].copy(order="K"), piv=piv[:r].copy(),
                          sketch_dim=sketch_dim)


def sparse_qr_solve(A, b, tol=DEFAULT_TOL):
    """Rank-revealing solve of a sparse system: ``sparse_qr_factor(A, tol)``
    applied to b."""
    return sparse_qr_factor(A, tol).solve(b)
