"""Collocation least-squares system assembly.

The scaling-level matrices A_hat (pointwise primal evaluations) and Z_hat
(pointwise discrete-dual evaluations) are sparse; the wavelet-level operators
are matrix-free compositions with the fast transforms:

    A x  = A_hat (W^-1 x)          Z* y = W (Z_hat* y)

so that Z*A = W Z_hat* A_hat W^-1, which makes A - A Z* A a conjugation of
the sparse scaling plunge matrix.  (With this choice the adjoint of A is
A* y = W~ (A_hat* y) via W~ = (W^-1)*.)

A_hat and Z_hat are the rows ``grid.inside`` of a Kronecker product of one
(n q, n) circulant per axis.  ``assemble_scaling`` builds those rows alone,
in CSR.  Row m q + p of an axis' circulant holds a fixed set of taps, by its
residue p, in the columns m - t.  So the q rows of one period, repeated
over m, give every row of a contiguous range, already in CSR layout
(``_circulant_rows``); only the periods near either end of the axis wrap
mod n and are re-sorted.  Neither the full box, nor the product, nor a CSC
copy is ever formed.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .domain import MaskedGrid
from .dual import dual_pair, dual_taps, primal_taps
from .dwt import TransformPlan, dwt, idwt
from .filters import FilterBank

DENSE_N_GUARD = 2**9


class SystemError_(ValueError):
    pass


@dataclass(frozen=True)
class _TapTable:
    """The taps of one axis' (n q, n) circulant over one period of q rows:
    row m q + p holds ``values[j]`` in column m - ``shifts[j]`` (mod n) for
    ``starts[p] <= j < starts[p + 1]``.  Shifts descend within a residue,
    so the columns of each row of a period ascend, unless they leave
    0..n-1.  The periods ``wrap`` where they do, near either end of the
    axis, hold ``wrap_cols`` and ``wrap_values`` instead: the columns
    reduced mod n and each row re-sorted.  Arrays are read-only."""

    shifts: np.ndarray
    values: np.ndarray
    starts: np.ndarray
    wrap: np.ndarray
    wrap_cols: np.ndarray
    wrap_values: np.ndarray


def _tap_table(offset, values, n, q, dtype):
    """Tap table of the (n q, n) circulant whose column k is rolled by k q
    from a base row holding values[i] at offset + i (mod n q)."""
    taps = offset + np.flatnonzero(values)
    residue = taps % q
    order = np.lexsort((-taps, residue))
    shifts = ((taps - residue) // q)[order].astype(dtype)
    values = values[values != 0][order]
    starts = np.zeros(q + 1, dtype=dtype)
    np.cumsum(np.bincount(residue, minlength=q), out=starts[1:])
    wrap = np.union1d(np.arange(min(n, shifts.max())),
                      np.arange(max(0, n + shifts.min()), n))
    cols = (wrap[:, None] - shifts) % n
    by_row = np.argsort(cols + residue[order] * n, axis=1, kind="stable")
    table = _TapTable(shifts, values, starts, wrap,
                      np.take_along_axis(cols, by_row, 1).astype(dtype),
                      values[by_row])
    for a in vars(table).values():
        a.flags.writeable = False
    return table


# (A_hat, Z_hat) tap tables by (family, n, q, index dtype), kept as
# ``dual_pair`` keeps the dual pairs by family and q.  A table holds a few
# dozen numbers besides its wrapping periods.
_tables = {}


def _axis_tables(bank, n, q, dtype):
    """The tap tables of one axis' A_hat and Z_hat circulants."""
    key = (bank.family, n, q, dtype)
    tables = _tables.get(key)
    if tables is None:
        b, d = dual_pair(bank, q)
        tables = _tables.setdefault(key, (
            _tap_table(*primal_taps(b, n), n, q, dtype),
            _tap_table(*dual_taps(d, n, q), n, q, dtype)))
    return tables


# Axes of at most this many points keep their whole (n q, n) circulants
# beside their tap tables (``_axis_circulant``), 0.44 MB for both of a
# cdf33 axis at 2^12, q = 2 (db4 1.3 MB): a 1-D grid takes its rows as one
# contiguous range of them, a d-D grid multiplies them out.  Longer axes
# build the range of rows that the grid reads (``_circulant_rows``) on
# every call.
CIRCULANT_MAX_N = 2**12

# Whole circulants (A_hat, Z_hat) by the ``_tables`` key, read-only.
_circulants = {}


def _axis_circulant(bank, n, q, dtype, side, lo=0, hi=None):
    """CSR of the rows lo..hi-1 (default all n q) of one axis' A_hat
    (side 0) or Z_hat (side 1) circulant.  Up to CIRCULANT_MAX_N points
    they are a range of the kept whole circulant, sharing its read-only
    data and indices; else ``_circulant_rows`` builds them."""
    hi = n * q if hi is None else hi
    if n > CIRCULANT_MAX_N:
        return _circulant_rows(_axis_tables(bank, n, q, dtype)[side], n, lo,
                               hi)
    key = (bank.family, n, q, dtype)
    whole = _circulants.get(key)
    if whole is None:
        whole = tuple(_circulant_rows(t, n, 0, n * q)
                      for t in _axis_tables(bank, n, q, dtype))
        for S in whole:
            for a in (S.data, S.indices, S.indptr):
                a.flags.writeable = False
        whole = _circulants.setdefault(key, whole)
    S = whole[side]
    if (lo, hi) == (0, n * q):
        return S
    start, stop = int(S.indptr[lo]), int(S.indptr[hi])
    return scipy.sparse.csr_matrix(
        (S.data[start:stop], S.indices[start:stop],
         S.indptr[lo:hi + 1] - start), shape=(hi - lo, n))


def _periodic(first, count, step):
    """The (count,) + first.shape array whose entry i is first + i step.
    Past its first 512 entries it is filled by doubling: each round writes a
    shifted copy of the part done, so the whole costs about one contiguous
    pass, where broadcasting the sum over a short trailing axis takes 3-10x
    longer."""
    out = np.empty((count,) + first.shape, dtype=first.dtype)
    done = min(count, 512)
    np.add(first, (step * np.arange(done, dtype=first.dtype))[:, None],
           out=out[:done])
    while done < count:
        k = min(done, count - done)
        np.add(out[:k], done * step, out=out[done:done + k])
        done += k
    return out


def _circulant_rows(table, n, lo, hi):
    """CSR of the rows lo..hi-1 of one axis' circulant.  The row periods m
    that the range meets form a (period, tap) block whose flat layout is
    that of CSR: tap j of period m sits in column m - shifts[j] and holds
    values[j].  The periods near either end of the axis that wrap take
    their rows from the table; the block is trimmed to the range."""
    q, width = table.starts.size - 1, table.values.size
    m0, periods = lo // q, -(-hi // q) - lo // q
    cols = _periodic(m0 - table.shifts, periods, 1)
    vals = _periodic(table.values, periods, 0)   # x + 0 is x: no tap is 0
    wrap = slice(*np.searchsorted(table.wrap, (m0, m0 + periods)))
    if wrap.stop > wrap.start:
        cols[table.wrap[wrap] - m0] = table.wrap_cols[wrap]
        vals[table.wrap[wrap] - m0] = table.wrap_values[wrap]
    # row i of the block starts at entry (i // q) width + starts[i % q]; the
    # rows before lo and their entries are cut from the front
    first = lo - m0 * q
    skip = int(table.starts[first])
    indptr = _periodic(table.starts[:-1] - skip, periods + 1,
                       width).ravel()[first:first + hi - lo + 1]
    data = slice(skip, skip + int(indptr[-1]))
    return scipy.sparse.csr_matrix(
        (vals.ravel()[data], cols.ravel()[data], indptr), shape=(hi - lo, n))


def _row_kron(factors, index, N, dtype):
    """CSR of the row-wise Kronecker product of the rows ``index[a]`` of
    the per-axis CSR factors: a row's entries are the products of one entry
    per axis, in C order of their columns, values multiplied in axis order
    ((v1 v2) v3) as ``scipy.sparse.kron`` does.  Each factor's rows are
    padded to a common width; padding columns of axis a are -(n_1 ... n_a),
    so every product that holds one comes out negative, and they are
    dropped at the end."""
    rows, width = index[0].size, 1
    cols = vals = counts = None
    for F, i, n in zip(factors, index, N):
        k = np.diff(F.indptr)
        j = np.arange(k.max())
        pad = j >= k[:, None]
        pos = np.minimum(F.indptr[:-1, None] + j, F.nnz - 1)
        width *= n
        c = np.where(pad, -width, F.indices[pos]).take(i, axis=0)
        v = np.where(pad, 0.0, F.data[pos]).take(i, axis=0)
        if cols is None:
            cols, vals, counts = c, v, k.take(i)
        else:
            cols = (cols[:, :, None] * n + c[:, None, :]).reshape(rows, -1)
            vals = (vals[:, :, None] * v[:, None, :]).reshape(rows, -1)
            counts = counts * k.take(i)
    indptr = np.zeros(rows + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    if indptr[-1] < cols.size:
        keep = cols >= 0
        cols, vals = cols[keep], vals[keep]
    return scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr),
                                   shape=(rows, width))


@dataclass(frozen=True)
class ScalingMatrices:
    """Sparse pointwise-evaluation matrices on the masked grid."""

    A_hat: scipy.sparse.spmatrix
    Z_hat: scipy.sparse.spmatrix


def assemble_scaling(bank: FilterBank, grid: MaskedGrid) -> ScalingMatrices:
    """Pointwise evaluation matrices, rows restricted to the masked grid.

    Each is the Kronecker product of one (n q, n) circulant per axis,
    column k the periodized primal (or dual) samples rolled by k q, on the
    rows ``grid.inside``; only those rows are built.  Per axis, one builder
    gives the CSR of a range of circulant rows (``_axis_circulant``): in
    1-D the range from the first to the last inside row, followed by a row
    selection when the inside rows are not contiguous; in d-D all n q rows
    of the axis, gathered at each inside row's multi-index and multiplied
    out row by row (``_row_kron``).  The result has the bits of the
    kron-then-select form: data, indices, indptr, their dtypes and the
    canonical format.  At N = 2^18 (cdf33, q = 2, the interval (0.2,
    0.75)) it takes 3.1-3.9 ms, against 34-46 ms for the rows gathered by
    residue and stripped of their padding (minimum of 9 calls in three
    alternating runs, one BLAS thread, 2-core VM); in 1-D its memory peak
    is the bytes of the result."""
    dim, inside = len(grid.N), grid.inside
    pairs = [dual_pair(bank, q) for q in grid.q]
    per_row = math.prod([1 + max(b.b.size, d.b_dual.size) // q
                         for (b, d), q in zip(pairs, grid.q)])
    # int32 unless the padding columns or the entries need more
    dtype = scipy.sparse.get_index_dtype(
        maxval=max(dim * grid.n_basis, inside.size * per_row))
    mats = []
    for side in range(2):
        factors = []
        for n, q in zip(grid.N, grid.q):
            if dim == 1:
                lo, hi = int(inside[0]), int(inside[-1]) + 1
                F = _axis_circulant(bank, n, q, dtype, side, lo, hi)
                if inside.size < hi - lo:
                    F = csr_rows(F, inside - lo)
                mats.append(F)
            else:
                factors.append(_axis_circulant(bank, n, q, dtype, side))
        if dim > 1:
            index = np.unravel_index(inside, grid.grid_shape)
            mats.append(_row_kron(factors, index, grid.N, dtype))
    A_hat, Z_hat = mats
    return ScalingMatrices(A_hat=A_hat, Z_hat=Z_hat)


def csr_rows(S, rows):
    """The CSR S[rows] for an index array, without the checks of scipy's
    row indexing."""
    lo, hi = S.indptr[rows], S.indptr[rows + 1]
    indptr = np.zeros(rows.size + 1, dtype=S.indptr.dtype)
    np.cumsum(hi - lo, out=indptr[1:])
    take = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], hi - lo)
    return scipy.sparse.csr_matrix((S.data[take], S.indices[take], indptr),
                                   shape=(rows.size, S.shape[1]))


@lru_cache(maxsize=None)
def _axis_orders(d):
    """By tensor rank (d, or d + 1 with a batch axis), per axis of d: the
    axis order that moves it last, and the one that moves it back.  Every
    frame operator of d axes shares the one dict; nothing writes to it."""
    return {rank: tuple((
        (*(a for a in range(rank) if a != ax), ax),
        (*range(ax), rank - 1, *range(ax, rank - 1)))
        for ax in range(d)) for rank in (d, d + 1)}


class FrameOperator(scipy.sparse.linalg.LinearOperator):
    """Matrix-free A = A_hat W^-1 with adjoint A* = W~ A_hat*."""

    def __init__(self, scaling_matrix, bank, N):
        self.scaling_matrix = scaling_matrix
        self.bank = bank
        self.N = tuple(N)
        self.plans = [TransformPlan(bank, n.bit_length() - 1) for n in self.N]
        shape = (scaling_matrix.shape[0], math.prod(self.N))
        super().__init__(dtype=float, shape=shape)
        self._orders = _axis_orders(len(self.N))

    @cached_property
    def dual_plans(self):
        """The dual side's plans, made on the first W~ (the adjoint)."""
        return [TransformPlan(self.bank, n.bit_length() - 1, "dual")
                for n in self.N]

    def _axis_transform(self, x, fn, plans):
        """Apply fn along every tensor axis of x, shape (n,) or (n, k); a
        block's columns ride along as a trailing batch axis."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 == len(self.N):
            return fn(x, plans[0])
        a = x.reshape(self.N + x.shape[1:])
        for (last, back), plan in zip(self._orders[a.ndim], plans):
            a = fn(a.transpose(last), plan).transpose(back)
        return a.reshape(x.shape)

    def synthesis(self, x):
        """W^-1 x across all axes."""
        return self._axis_transform(x, idwt, self.plans)

    def analysis(self, x):
        """W x across all axes."""
        return self._axis_transform(x, dwt, self.plans)

    def dual_analysis(self, x):
        """W~ x across all axes."""
        return self._axis_transform(x, dwt, self.dual_plans)

    def _matvec(self, x):
        return self._matmat(np.ravel(x))

    def _rmatvec(self, y):
        return self._rmatmat(np.ravel(y))

    def _matmat(self, X):
        return self.scaling_matrix @ self.synthesis(X)

    def _rmatmat(self, Y):
        return self.dual_analysis(self.scaling_matrix.T @ Y)


class ZStarOperator:
    """Matrix-free Z* y = W (Z_hat* y), the quasi-interpolation analysis map.

    Takes a vector of length M or an (M, k) block of them.  ``adjoint`` is
    Z_hat*, kept from its first use on as the CSC view of Z_hat's arrays:
    scipy checks the index arrays on every transpose it forms, 16-30 us a
    product, and a CSR copy would cost memory (6.7 MB at N = 2^18) and a
    3.9 ms build for products no faster.  The frame operator whose
    analysis it applies is made on the first apply: the pipelines read
    ``adjoint`` alone."""

    def __init__(self, scaling_matrix, bank, N):
        self.scaling_matrix, self._bank, self._N = scaling_matrix, bank, N

    @cached_property
    def _frame(self):
        return FrameOperator(self.scaling_matrix, self._bank, self._N)

    @cached_property
    def adjoint(self):
        return self.scaling_matrix.T

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self._frame.analysis(self.adjoint @ y)


def frame_operator_A(scaling: ScalingMatrices, bank, grid: MaskedGrid) -> FrameOperator:
    return FrameOperator(scaling.A_hat, bank, grid.N)


def frame_operator_Zstar(scaling: ScalingMatrices, bank, grid: MaskedGrid) -> ZStarOperator:
    return ZStarOperator(scaling.Z_hat, bank, grid.N)


def rhs(f, grid: MaskedGrid):
    """Sample f on the masked grid, in grid row order."""
    vals = np.asarray(f(grid.points()), dtype=float).ravel()
    if vals.size != grid.M:
        raise SystemError_("function returned wrong number of samples")
    if not np.all(np.isfinite(vals)):
        raise SystemError_("function produced non-finite samples on the grid")
    return vals


def dense_A(op: FrameOperator):
    """Dense materialization of the frame operator (small problems only)."""
    n = op.shape[1]
    if n > DENSE_N_GUARD**2:
        raise SystemError_(f"dense materialization limited to N <= {DENSE_N_GUARD**2}")
    return op.matmat(np.eye(n))
