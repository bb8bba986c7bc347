"""Collocation least-squares system assembly.

The scaling-level matrices A_hat (pointwise primal evaluations) and Z_hat
(pointwise discrete-dual evaluations) are sparse; the wavelet-level operators
are matrix-free compositions with the fast transforms:

    A x  = A_hat (W^-1 x)          Z* y = W (Z_hat* y)

so that Z*A = W Z_hat* A_hat W^-1, which makes A - A Z* A a conjugation of
the sparse scaling plunge matrix.  (With this choice the adjoint of A is
A* y = W~ (A_hat* y) via W~ = (W^-1)*.)
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .domain import MaskedGrid
from .dual import dual_pair, periodize_dual, periodize_primal
from .dwt import TransformPlan, dwt, idwt
from .filters import FilterBank

DENSE_N_GUARD = 2**9


class SystemError_(ValueError):
    pass


def _circulant_factor(base_row, n_basis, q):
    """Sparse (n_basis*q x n_basis) matrix with columns = shifts by kq of base_row."""
    n = base_row.size
    nz = np.flatnonzero(base_row)
    rows = ((nz[None, :] + q * np.arange(n_basis)[:, None]) % n).ravel()
    cols = np.repeat(np.arange(n_basis), nz.size)
    data = np.tile(base_row[nz], n_basis)
    return scipy.sparse.csc_matrix((data, (rows, cols)), shape=(n, n_basis))


@dataclass(frozen=True)
class ScalingMatrices:
    """Sparse pointwise-evaluation matrices on the masked grid."""

    A_hat: scipy.sparse.spmatrix
    Z_hat: scipy.sparse.spmatrix


def assemble_scaling(bank: FilterBank, grid: MaskedGrid) -> ScalingMatrices:
    """Pointwise evaluation matrices, rows restricted to the masked grid."""
    a_factors, z_factors = [], []
    for n, q in zip(grid.N, grid.q):
        b, d = dual_pair(bank, q)
        a_factors.append(_circulant_factor(periodize_primal(b, n), n, q))
        z_factors.append(_circulant_factor(periodize_dual(d, n, q), n, q))
    A = a_factors[0]
    Z = z_factors[0]
    for fa, fz in zip(a_factors[1:], z_factors[1:]):
        A = scipy.sparse.kron(A, fa, format="csr")
        Z = scipy.sparse.kron(Z, fz, format="csr")
    A = A.tocsr()[grid.inside]
    Z = Z.tocsr()[grid.inside]
    return ScalingMatrices(A_hat=A, Z_hat=Z)


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

    def dual_synthesis(self, x):
        """W~^-1 x across all axes (the adjoint of the analysis map W)."""
        return self._axis_transform(x, idwt, self.dual_plans)

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
