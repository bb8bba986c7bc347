"""Regularized least-squares kernels.

All solvers share the same contract: a minimum-norm-flavored solution on the
numerically significant part of the operator at the given truncation
tolerance, together with an independently recomputed residual.  The default
truncation threshold 1e-10 regularizes the frame ill-conditioning.

``randomized_lowrank_solve`` solves a dense block of at most BLOCK_SIZE
columns by its truncated SVD; the name is the one the benchmark's tracer
wraps, and no kernel here draws a random number.  ``_frontal_qr``
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
from scipy.linalg import lapack

DEFAULT_TOL = 1e-10
BLOCK_SIZE = 16
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


@functools.cache
def _lapack_blocking():
    """(nb, size): the DGEQRF block size nb of LAPACK's ``dgeqp3``
    workspace query, which asks for 2 n + (n + 1) nb on every nonempty
    (m, n), and the size ``dormqr`` asks for to apply reflectors to one
    column, whatever their shape; both by one query on a 1 x 1 block."""
    a = np.zeros((1, 1), order="F")
    return ((int(lapack.dgeqp3(a, lwork=-1)[3][0]) - 2) // 2,
            int(lapack.dormqr("L", "T", a, np.zeros(1), a, lwork=-1)[1][0]))


def _qr_lwork(m, n):
    """Optimal LAPACK workspace of ``dgeqp3`` on a nonempty (m, n) block
    and of ``dormqr`` applying its reflectors to one column, as their
    workspace queries give them, without an (m, n) array to query on."""
    nb, ormqr = _lapack_blocking()
    return 2 * n + (n + 1) * nb, ormqr


def randomized_lowrank_solve(B, b, tol, scale):
    """Min-norm solution of min ||B x - b|| for a dense block B by its
    truncated SVD, cut at ``max(tol * s_0, NOISE_REL * scale)``: what
    ``az._solve`` runs on an uncompressed factor, B or B T, at most
    BLOCK_SIZE columns.  ``scale`` is the magnitude of the enclosing
    operator (``az._reference_scale``): anything below NOISE_REL * scale
    is cancellation noise, so a numerically-zero block comes out as rank
    0.  The residual is that of B, ``range_dim`` min(m, n) and
    ``core_shape`` (m, n), as for the factor's own reveals.

    The name is kept while ``perfbench/tracing.py`` wraps
    ``az.randomized_lowrank_solve`` to count the 1-D ranks; once the
    tracer reads them off the record, that branch takes the factor's SVD
    reveal as every other block does, and this function goes (ROADMAP.md)."""
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=float)
    x, r = _svd_solve(B, b, tol, NOISE_REL * scale)
    return _finalize(lambda v: B @ v, x, b, r, t0, range_dim=min(B.shape),
                     core_shape=B.shape)


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
                            lwork=_qr_lwork(*self.H.shape)[1])[0]
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
    """(rows, cols, first, last, core) of the core of a CSR A: its nonzero
    columns as they fall in the reverse Cuthill-McKee order of the
    bipartite graph of A's pattern, its nonzero rows sorted by their first
    column in that order, each row's first and last column, and the core
    in that order as CSR arrays (indptr, indices, data), its indices the
    columns' places in the order.  A stored zero is no entry; a duplicate
    pair is one, its values summed in stored order from 0.0 as
    ``toarray`` sums them, so it stays one even where they cancel.

    Every pass is O(nnz + m + n): a CSR -> CSC -> CSR round trip (two
    counting sorts) sorts each row's and each column's indices, with the
    duplicates of a pair side by side in stored order; the CSC is the
    column half of the graph, the CSR its row half."""
    (m, n), idx = A.shape, A.indices.dtype
    data, indices, indptr = A.data, A.indices, A.indptr
    keep = data != 0
    if not keep.all():
        data, indices = data[keep], indices[keep]
        indptr = np.r_[0, np.cumsum(keep)][indptr]
    # empty rows and columns go by their pointers alone, so the counting
    # sorts number the core's rows and columns 0, 1, ...
    rows = np.flatnonzero(np.diff(indptr))
    if not rows.size:
        empty = np.zeros(0, idx)
        return rows, empty, empty, empty, (np.zeros(1, idx), empty,
                                           np.zeros(0))
    C = scipy.sparse.csr_matrix((data, indices, indptr[np.r_[rows, m]]),
                                shape=(rows.size, n)).tocsc()
    cols = np.flatnonzero(np.diff(C.indptr))
    C = scipy.sparse.csc_matrix((C.data, C.indices, C.indptr[np.r_[cols, n]]),
                                shape=(rows.size, cols.size))
    R = C.tocsr()
    if not R.has_canonical_format:      # summed in stored order, zeros kept
        R.sum_duplicates()
        C = R.tocsc()
    mc, nnz = rows.size, R.nnz
    graph = scipy.sparse.csr_matrix(
        (np.ones(2 * nnz, bool), np.concatenate([R.indices + mc, C.indices]),
         np.concatenate([R.indptr[:-1], C.indptr + nnz])),
        shape=(mc + cols.size,) * 2)
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, True)
    perm = perm[perm >= mc] - mc
    place = np.empty_like(perm)
    place[perm] = np.arange(perm.size, dtype=perm.dtype)
    pos = place[R.indices]
    first = np.minimum.reduceat(pos, R.indptr[:-1])
    last = np.maximum.reduceat(pos, R.indptr[:-1])
    order = np.argsort(first, kind="stable")
    starts, sizes = R.indptr[order], np.diff(R.indptr)[order]
    ptr = np.r_[0, np.cumsum(sizes, dtype=idx)]
    take = np.repeat(starts - ptr[:-1], sizes) + np.arange(nnz, dtype=idx)
    return (rows[order], cols[perm].astype(idx), first[order], last[order],
            (ptr, pos[take], R.data[take]))


def _frontal_qr(A):
    """The ``FrontalFactor`` of a sparse A: the square upper triangle
    R_B = Q_B^T A[rows][:, cols] and the reflectors of Q_B, in two steps.

    1. Order.  The zero rows and columns are stripped; the columns go in
       ``_banded_order``'s reverse Cuthill-McKee order, which makes a
       boundary block banded, and the rows are sorted by their first
       column.  The order and the core in it take O(nnz) numpy passes.
    2. Compress.  A frontal QR (George & Heath 1980; Davis, SuiteSparseQR,
       ACM TOMS 2011) walks the columns BLOCK_SIZE at a time.  Each step
       scatters the rows whose first column lies in the step from the
       ordered core into a dense panel, folds it into a dense upper
       triangular front by one unpivoted Householder QR (LAPACK
       ``tpqrt``), moves the front's top BLOCK_SIZE rows into R_B, and
       keeps the rest as the next front, so it never has more rows than
       columns.  No rank decision is made here: R_B has the singular
       values of A.

    The work is O(#rows w^2) for a front width w."""
    if not scipy.sparse.issparse(A):
        raise SolverError("a frontal factor expects a sparse matrix")
    A = A.tocsr()
    rows, cols, first, last, (ptr, pos, val) = _banded_order(A)
    n = cols.size
    if n * n > CORE_ELEMENT_GUARD:
        raise SolverError("triangular factor too large for a dense "
                          "factorization")
    row_of = np.repeat(np.arange(rows.size, dtype=ptr.dtype), np.diff(ptr))
    # per step: its columns [j0, j1), the rows [r0, r1) that start in them
    # and the front's end hi, past the last column of every row so far
    j0s = np.arange(0, n, BLOCK_SIZE)
    j1s = np.minimum(j0s + BLOCK_SIZE, n)
    r1s = np.searchsorted(first, j1s)
    his = np.maximum(j1s, np.r_[0, np.maximum.accumulate(last + 1)][r1s])
    R_B = np.zeros((n, n))
    front = np.zeros((0, 0))
    steps, r0 = [], 0
    for j0, j1, r1, hi in zip(*(a.tolist() for a in (j0s, j1s, r1s, his))):
        w = hi - j0
        T = np.zeros((w, w), order="F")
        T[:front.shape[0], :front.shape[0]] = front
        V = Tf = np.zeros((0, w))
        if r1 > r0:
            e = slice(ptr[r0], ptr[r1])
            panel = np.zeros((r1 - r0, w), order="F")
            panel[row_of[e] - r0, pos[e] - j0] = val[e]
            T, V, Tf, _ = lapack.dtpqrt(0, min(BLOCK_SIZE, w), T, panel,
                                        overwrite_a=1, overwrite_b=1)
        R_B[j0:j1, j0:hi] = T[:j1 - j0]
        front = T[j1 - j0:, j1 - j0:]
        steps.append((r0, r1, V, Tf))
        r0 = r1
    width = int((his - j0s).max(initial=0))
    return FrontalFactor(A=A, rows=rows, cols=cols, steps=tuple(steps),
                         front_width=width, R_B=R_B)


def sparse_qr_solve(A, b):
    """Rank-revealing solve of a sparse system: the frontal compression to
    R_B (``_frontal_qr``), then the column-pivoted QR of R_B at
    DEFAULT_TOL (``FrontalFactor.qr``), applied to b."""
    return _frontal_qr(A).qr(DEFAULT_TOL, None).solve(b)
