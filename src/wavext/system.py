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
in CSR: row m q + p of an axis' circulant holds a fixed set of taps, by its
residue p, in the columns m - t, and only rows near either end of the axis
wrap mod n.  Neither the full box, nor the product, nor a CSC copy is ever
formed.
"""

from dataclasses import dataclass

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


# Shift of a padding tap in a ``_TapTable``: its column m - _PAD is
# negative in every row.
_PAD = 2**30


@dataclass(frozen=True)
class _TapTable:
    """The taps of one axis' (n q, n) circulant by row residue: row m q + p
    holds ``values[p, j]`` in column m - ``shifts[p, j]`` (mod n) for
    j < ``counts[p]``.  Shifts descend along j, so the columns of a row that
    does not wrap ascend; residues with fewer taps are padded with shift
    _PAD and value 0.  ``low`` and ``high`` bound the shifts of the taps."""

    shifts: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    low: int
    high: int


def _tap_table(offset, values, q, dtype):
    """Tap table of the circulant whose column k is rolled by k q from a
    base row holding values[i] at offset + i (mod n q)."""
    taps = offset + np.flatnonzero(values)
    values = values[values != 0]
    residue = taps % q
    counts = np.bincount(residue, minlength=q).astype(dtype)
    shifts = np.full((q, counts.max()), _PAD, dtype=dtype)
    vals = np.zeros(shifts.shape)
    for p in range(q):
        on = residue == p
        shifts[p, :counts[p]] = (taps[on][::-1] - p) // q
        vals[p, :counts[p]] = values[on][::-1]
    return _TapTable(shifts, vals, counts, int(taps[0] // q),
                     int(taps[-1] // q))


def _circulant_rows(m, p, n, table):
    """Rows m q + p of one axis' circulant, m ascending, as a row table:
    columns and values of shape (rows, T), each row's columns ascending and
    its padding behind them at negative columns, and each row's count of
    taps.  Only rows near either end of the axis wrap; they alone are
    reduced mod n and re-sorted."""
    cols = m[:, None] - table.shifts.take(p, axis=0)
    vals = table.values.take(p, axis=0)
    lo = np.searchsorted(m, table.high)
    hi = max(lo, np.searchsorted(m, n - 1 + table.low, side="right"))
    for wrap in (slice(0, lo), slice(hi, m.size)):
        if wrap.stop > wrap.start:
            pad = table.shifts.take(p[wrap], axis=0) == _PAD
            c = np.where(pad, cols[wrap], cols[wrap] % n)
            order = np.argsort(np.where(pad, _PAD, c), axis=1, kind="stable")
            cols[wrap] = np.take_along_axis(c, order, 1)
            vals[wrap] = np.take_along_axis(vals[wrap], order, 1)
    return cols, vals, table.counts.take(p)


def _row_kron(factors, N, dtype):
    """CSR of the row-wise Kronecker product of per-axis row tables of one
    row count: a row's entries are the products of one tap per axis, in C
    order of their columns, values multiplied in axis order ((v1 v2) v3)
    as ``scipy.sparse.kron`` does.  Padding columns of axis a are at most
    -(n_1 ... n_a), so every product that holds one comes out negative; they
    are dropped at the end."""
    (cols, vals, counts), *rest = factors
    rows = cols.shape[0]
    for (c, v, k), n in zip(rest, N[1:]):
        cols = (cols[:, :, None] * n + c[:, None, :]).reshape(rows, -1)
        vals = (vals[:, :, None] * v[:, None, :]).reshape(rows, -1)
        counts = counts * k
    indptr = np.zeros(rows + 1, dtype=dtype)
    np.cumsum(counts, out=indptr[1:])
    if indptr[-1] < cols.size:
        keep = cols >= 0
        cols, vals = cols[keep], vals[keep]
    return scipy.sparse.csr_matrix((vals.ravel(), cols.ravel(), indptr),
                                   shape=(rows, int(np.prod(N))))


@dataclass(frozen=True)
class ScalingMatrices:
    """Sparse pointwise-evaluation matrices on the masked grid."""

    A_hat: scipy.sparse.spmatrix
    Z_hat: scipy.sparse.spmatrix


def assemble_scaling(bank: FilterBank, grid: MaskedGrid) -> ScalingMatrices:
    """Pointwise evaluation matrices, rows restricted to the masked grid.

    Each is the Kronecker product of one (n q, n) circulant per axis,
    column k the periodized primal (or dual) samples rolled by k q, on the
    rows ``grid.inside``; only those rows are built.  Per axis, a row's
    columns and values come from a tap table by row residue
    (``_circulant_rows``): in 1-D for the inside rows themselves, in d-D for
    all n q rows of the axis, gathered at each inside row's multi-index and
    multiplied out row by row (``_row_kron``).  The result has the bits of
    the kron-then-select form: data, indices, indptr, their dtypes and the
    canonical format.  At N = 2^18 (cdf33, q = 2, the interval (0, 0.5))
    it takes 40 ms, against 94 ms for the full-box circulants in CSC, their
    conversion to CSR and the selection of the inside rows (medians of 11
    alternating calls on a 2-core VM), and its memory peak is 2.2x the
    bytes of the result instead of 3.8x."""
    dim, inside = len(grid.N), grid.inside
    pairs = [dual_pair(bank, q) for q in grid.q]
    per_row = np.prod([1 + max(b.b.size, d.b_dual.size) // q
                       for (b, d), q in zip(pairs, grid.q)])
    # int32 unless the padding columns or the entries need more
    dtype = scipy.sparse.get_index_dtype(
        maxval=max(dim * grid.n_basis, inside.size * per_row))
    index = (np.unravel_index(inside, grid.grid_shape) if dim > 1
             else (None,))
    axes = []
    for (b, d), n, q, i in zip(pairs, grid.N, grid.q, index):
        rows = inside.astype(dtype) if dim == 1 else np.arange(n * q,
                                                               dtype=dtype)
        m = rows // q
        sides = (primal_taps(b, n), dual_taps(d, n, q))
        axes.append((m, rows - m * q, n, q, i, sides))
    mats = []
    for side in range(2):
        factors, width = [], 1
        for m, p, n, q, i, sides in axes:
            table = _tap_table(*sides[side], q, dtype)
            c, v, k = _circulant_rows(m, p, n, table)
            width *= n
            if dim > 1:
                c[c < 0] = -width
                c, v, k = c.take(i, axis=0), v.take(i, axis=0), k.take(i)
            factors.append((c, v, k))
        mats.append(_row_kron(factors, grid.N, dtype))
    A_hat, Z_hat = mats
    return ScalingMatrices(A_hat=A_hat, Z_hat=Z_hat)


class FrameOperator(scipy.sparse.linalg.LinearOperator):
    """Matrix-free A = A_hat W^-1 with adjoint A* = W~ A_hat*."""

    def __init__(self, scaling_matrix, bank, N):
        self.scaling_matrix = scaling_matrix
        self.bank = bank
        self.N = tuple(N)
        self.plans = [TransformPlan(bank, n.bit_length() - 1) for n in self.N]
        self.dual_plans = [TransformPlan(bank, n.bit_length() - 1, "dual")
                           for n in self.N]
        shape = (scaling_matrix.shape[0], int(np.prod(self.N)))
        super().__init__(dtype=float, shape=shape)

    def _axis_transform(self, x, fn, plans):
        """Apply fn along every tensor axis of x, shape (n,) or (n, k); a
        block's columns ride along as a trailing batch axis."""
        x = np.asarray(x, dtype=float)
        a = x.reshape(self.N + x.shape[1:])
        for ax, plan in enumerate(plans):
            a = np.moveaxis(fn(np.moveaxis(a, ax, -1), plan), -1, ax)
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

    Takes a vector of length M or an (M, k) block of them."""

    def __init__(self, scaling_matrix, bank, N):
        self._frame = FrameOperator(scaling_matrix, bank, N)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return self._frame.analysis(self._frame.scaling_matrix.T @ y)


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
