"""Regularized least-squares kernels.

All solvers share the same contract: a minimum-norm-flavored solution on the
numerically significant part of the operator at the given truncation
tolerance, together with an independently recomputed residual.  The default
truncation threshold 1e-10 regularizes the frame ill-conditioning.

``randomized_lowrank_solve`` stops at the numerical rank through a
randomized range finder, ``_range_basis``, and projects onto the range it
finds (Halko, Martinsson & Tropp 2011, section 4); the AZ pipelines hand
it only blocks it solves by their exact SVD.  ``_frontal_qr``
compresses a banded sparse matrix A to a square triangle R_B = Q_B^T A by
one frontal QR, into a ``FrontalFactor``; R_B has A's singular values and
Q_B^T keeps the least-squares minimizer of any right-hand side (Chan, ACM
TOMS 1982).  A small dense A is a ``FrontalFactor`` of its own, with
R_B = A and Q_B = I.  The factor reveals the rank on R_B: by its
column-pivoted QR (``FrontalFactor.qr``, which ``sparse_qr_solve`` applies
to a sparse matrix) or by its truncated SVD (``FrontalFactor.svd``).
``pivoted_qr_solve`` stays the full column-pivoted QR, the dense baseline.
"""

import functools
import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.linalg import lapack

DEFAULT_TOL = 1e-10
BLOCK_SIZE = 16
N_PROBES = 10
NOISE_REL = 1e-13
DENSE_GUARD = 4096
CORE_ELEMENT_GUARD = 40_000_000


class SolverError(ValueError):
    pass


@dataclass
class SolveReport:
    solution: np.ndarray
    residual: float
    solution_norm: float
    rank: int
    wall_time: float
    diagnostics: dict = field(default_factory=dict)


def _finalize(apply_fn, x, b, rank, t0, **diag):
    r = float(np.linalg.norm(apply_fn(x) - b))
    return SolveReport(solution=x, residual=r, solution_norm=float(np.linalg.norm(x)),
                       rank=rank, wall_time=time.perf_counter() - t0,
                       diagnostics=diag)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _truncated_svd(B, tol, floor):
    """(U_r, s_r, Vt_r): the SVD of B cut at max(tol * s_0, floor), as views
    of the full factors."""
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    r = int(np.sum(s > max(tol * s[0], floor))) if s.size else 0
    return U[:, :r], s[:r], Vt[:r]


def _svd_solve(B, b, tol, floor):
    """Min-norm solution of min ||B x - b|| by a truncated SVD with cutoff
    max(tol * s_0, floor); returns (x, rank)."""
    U, s, Vt = _truncated_svd(B, tol, floor)
    return Vt.T @ ((U.T @ b) / s), s.size


@functools.lru_cache(maxsize=64)
def _qr_lwork(m, n):
    """Optimal LAPACK workspace of ``dgeqp3`` and ``dorgqr`` on an (m, n)
    block, and of ``dormqr`` applying its n reflectors to one column, by
    one workspace query each."""
    a, tau = np.empty((m, n), order="F"), np.zeros(n)
    return (int(lapack.dgeqp3(a, lwork=-1)[3][0]),
            int(lapack.dorgqr(a, tau, lwork=-1)[1][0]),
            int(lapack.dormqr("L", "T", a, tau, a[:, :1], lwork=-1)[1][0]))


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
        geqp3_lwork, orgqr_lwork, _ = _qr_lwork(*Y.shape)
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


def randomized_lowrank_solve(op, b, tol=DEFAULT_TOL, seed=0, scale=None):
    """Adaptive randomized low-rank least squares for a matrix-free operator.

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

    ``scale`` supplies the magnitude of the enclosing operator (the AZ
    pipelines pass ||A_hat||_F rms(w), ``az._reference_scale``): anything
    below NOISE_REL * scale is treated as cancellation noise rather than
    signal, so a numerically-zero sub-operator comes out as rank 0 instead of
    a full-rank noise fit.  Truncation proper stays relative to the
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


def _qr_rank(R, tol, scale):
    """The numerical rank of a pivoted QR: the number of |R| diagonal
    entries above tol * min(|R[0, 0]|, scale), scale None as infinite."""
    diag = np.abs(np.diag(R))
    if not (diag.size and diag[0] > 0):
        return 0
    level = tol * (diag[0] if scale is None else min(diag[0], scale))
    return int(np.sum(diag > level))


def pivoted_qr_solve(A, b, tol=DEFAULT_TOL):
    """Column-pivoted QR with truncated back-substitution."""
    t0 = time.perf_counter()
    A = np.asarray(A, dtype=float)
    if max(A.shape) > DENSE_GUARD:
        raise SolverError(f"dense solver limited to dimensions <= {DENSE_GUARD}")
    b = np.asarray(b, dtype=float)
    Qf, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    r = _qr_rank(R, tol, None)
    x = np.zeros(A.shape[1])
    if r:
        z = scipy.linalg.solve_triangular(R[:r, :r], Qf[:, :r].T @ b)
        x[piv[:r]] = z
    return _finalize(lambda v: A @ v, x, b, r, t0)


@dataclass(frozen=True)
class FrontalFactor:
    """A matrix A and ``R_B`` = Q_B^T A[rows][:, cols] on its core, in the
    order it was eliminated in.  A sparse A is compressed by a frontal QR
    (``_frontal_qr``) to the square upper triangle R_B; the banded QR is
    replayed from ``steps``: per step, the range of core rows folded into
    the front and the reflectors (V, T) that folded them, as LAPACK
    ``tpqrt`` returns them.  A dense A is uncompressed: R_B is A, Q_B = I
    and there are no steps.  That gives Q_B^T b for any right-hand side
    (``qtb``).  ``front_width`` is the most columns the front held: at most
    the bandwidth of A^T A in the column order plus one step, or A's
    columns.  ``qr`` and ``svd`` reveal the rank on R_B; the factors they
    return (the subclasses) share these arrays, keep what their ``solve``
    needs, and A itself for the residual."""

    A: scipy.sparse.csr_matrix | np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    steps: tuple
    front_width: int
    R_B: np.ndarray

    @property
    def arrays(self):
        """The arrays held, A's and the reflectors included; a reveal lists
        the ones it shares with its factor too."""
        A = self.A
        arrays = list(vars(self).values())
        arrays += [a for _, _, V, T in self.steps for a in (V, T)]
        if scipy.sparse.issparse(A):
            arrays += [A.data, A.indices, A.indptr]
        return [a for a in arrays if isinstance(a, np.ndarray)]

    def qtb(self, b):
        """Q_B^T b on the rows of R_B: the front's reflectors replayed on
        the core rows of b, BLOCK_SIZE rows of R_B per step; without steps,
        the core rows themselves."""
        c = b[self.rows]
        if not self.steps:
            return c
        out = np.empty(self.cols.size)
        front = np.zeros(0)
        for j0, (r0, r1, V, T) in zip(range(0, out.size, BLOCK_SIZE),
                                      self.steps):
            a = np.zeros((V.shape[1], 1))
            a[:front.size, 0] = front
            if r1 > r0:
                a = lapack.dtpmqrt(0, V, T, a, c[r0:r1, None], trans="T")[0]
            k = min(BLOCK_SIZE, out.size - j0)
            out[j0:j0 + k] = a[:k, 0]
            front = a[k:, 0]
        return out

    def _frontal(self):
        """The fields of this factor that a reveal shares."""
        return {f.name: getattr(self, f.name) for f in fields(FrontalFactor)}

    def qr(self, tol, scale):
        """The column-pivoted QR of R_B truncated at tol * min(|R[0, 0]|,
        scale).  |R[0, 0]| is the largest column norm of A; ``scale``, the
        magnitude of the enclosing operator (the AZ pipelines pass
        ||A_hat||_F, ``az._reference_scale``), lowers the cut where A's own
        norm is inflated; None leaves it at |R[0, 0]|.  Q is not formed."""
        H, piv, tau = self.R_B, np.zeros(0, np.int32), np.zeros(0)
        if H.size:      # LAPACK takes no empty array
            H, piv, tau, _, _ = lapack.dgeqp3(H, lwork=_qr_lwork(*H.shape)[0])
        r = _qr_rank(H, tol, scale)
        return SparseQRFactor(**self._frontal(), H=H[:, :r].copy(order="F"),
                              tau=tau[:r].copy(), piv=piv[:r] - 1)

    def svd(self, tol, scale, right=None):
        """The SVD of R_B cut at max(tol * s_0, NOISE_REL * scale), the cut
        of ``randomized_lowrank_solve``: A's truncated SVD, as R_B has A's
        singular values, whose solve is the minimum-norm solution on the
        kept directions.  With ``right``, square on the core columns, it is
        the SVD of R_B right, that of A[:, cols] right, and solve gives the
        minimum-norm z of min ||A[:, cols] right z - b||."""
        U, s, Vt = _truncated_svd(self.R_B if right is None
                                  else self.R_B @ right, tol,
                                  NOISE_REL * scale)
        return SparseSVDFactor(**self._frontal(), U=U.copy(), s=s.copy(),
                               Vt=Vt.copy(), right=right)

    def solve(self, b):
        """Min ||A x - b|| on the numerically significant part of A."""
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=float)
        x = np.zeros(self.A.shape[1])
        if self.rank:
            self._solve_core(x, self.qtb(b))
        A = self.A
        nnz = A.nnz if scipy.sparse.issparse(A) else np.count_nonzero(A)
        return _finalize(self._apply, x, b, self.rank, t0,
                         core_shape=(self.rows.size, self.cols.size),
                         nnz=int(nnz), front_width=self.front_width)

    def _apply(self, x):
        """The product whose residual ``solve`` reports: A x."""
        return self.A @ x


@dataclass(frozen=True)
class SparseQRFactor(FrontalFactor):
    """R_B[:, piv] = Q R up to the truncation (``FrontalFactor.qr``) as
    ``dgeqp3`` leaves it: H holds R in its top r rows and the vectors of
    Q's r Householder reflectors below them, tau their scalars."""

    H: np.ndarray
    tau: np.ndarray
    piv: np.ndarray

    @property
    def rank(self):
        return int(self.piv.size)

    def _solve_core(self, x, c):
        """x on the pivot columns from c = Q_B^T b: R^-1 (Q^T c)[:r]."""
        qtc = lapack.dormqr("L", "T", self.H, self.tau, c[:, None],
                            lwork=_qr_lwork(*self.H.shape)[2])[0]
        x[self.cols[self.piv]] = scipy.linalg.solve_triangular(
            self.H[:self.rank], qtc[:self.rank, 0])


@dataclass(frozen=True)
class SparseSVDFactor(FrontalFactor):
    """R_B's truncated SVD U diag(s) Vt, of rank r = s.size, or that of
    R_B right (``FrontalFactor.svd``)."""

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    right: np.ndarray | None = None

    @property
    def rank(self):
        return int(self.s.size)

    def _solve_core(self, x, c):
        """x on the core columns from c = Q_B^T b: the minimum-norm
        solution on the kept singular directions."""
        x[self.cols] = self.Vt.T @ ((self.U.T @ c) / self.s)

    def _apply(self, x):
        """A x, or A[:, cols] right x[cols] with ``right``."""
        if self.right is None:
            return self.A @ x
        u = np.zeros(x.size)
        u[self.cols] = self.right @ x[self.cols]
        return self.A @ u


def _banded_order(A):
    """(rows, cols, first, last) of the core of A: its nonzero columns as
    they fall in the reverse Cuthill-McKee order of the bipartite graph of
    A's pattern, O(nnz) (not A^T A's), its nonzero rows sorted by their
    first column in that order, and each row's first and last column.  A
    stored zero is no entry, a duplicate pair that cancels is one."""
    keep = A.data != 0
    ri = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))[keep]
    rows, ri = np.unique(ri, return_inverse=True)
    cols, ci = np.unique(A.indices[keep], return_inverse=True)
    if not ri.size:
        return rows, cols, ri, ci
    m = rows.size
    # from index pairs, so summed and sorted: the order is the pattern's
    graph = scipy.sparse.csr_matrix((np.ones(2 * ri.size),
                                     (np.r_[ri, ci + m], np.r_[ci + m, ri])))
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, True)
    perm = perm[perm >= m] - m
    P = graph[:m][:, m + perm].tocsr()
    first = np.minimum.reduceat(P.indices, P.indptr[:-1])
    last = np.maximum.reduceat(P.indices, P.indptr[:-1])
    order = np.argsort(first, kind="stable")
    return rows[order], cols[perm], first[order], last[order]


def _frontal_qr(A):
    """The ``FrontalFactor`` of a sparse A: the square upper triangle
    R_B = Q_B^T A[rows][:, cols] and the reflectors of Q_B, in two steps.

    1. Order.  The zero rows and columns are stripped; the columns go in
       ``_banded_order``'s reverse Cuthill-McKee order, which makes a
       boundary block banded, and the rows are sorted by their first column.
    2. Compress.  A frontal QR (George & Heath 1980; Davis, SuiteSparseQR,
       ACM TOMS 2011) walks the columns BLOCK_SIZE at a time.  Each step
       folds the rows whose first column lies in the step into a dense
       upper triangular front by one unpivoted Householder QR (LAPACK
       ``tpqrt``), moves the front's top BLOCK_SIZE rows into R_B, and keeps
       the rest as the next front, so it never has more rows than columns.
       No rank decision is made here: R_B has the singular values of A.

    The work is O(#rows w^2) for a front width w."""
    if not scipy.sparse.issparse(A):
        raise SolverError("a frontal factor expects a sparse matrix")
    A = A.tocsr()
    rows, cols, first, last = _banded_order(A)
    n = cols.size
    if n * n > CORE_ELEMENT_GUARD:
        raise SolverError("triangular factor too large for a dense "
                          "factorization")
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


def sparse_qr_solve(A, b):
    """Rank-revealing solve of a sparse system: the frontal compression to
    R_B (``_frontal_qr``), then the column-pivoted QR of R_B at
    DEFAULT_TOL (``FrontalFactor.qr``), applied to b."""
    return _frontal_qr(A).qr(DEFAULT_TOL, None).solve(b)
