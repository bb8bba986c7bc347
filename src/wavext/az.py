"""AZ-type solvers for the wavelet extension least-squares problem.

All pipelines run one three-step skeleton, ``_solve``: (1) solve the
low-rank plunge system (I - A Z*) A D y = (I - A Z*) b and set x1 = D y,
(2) x2 = Z* (b - A x1), (3) x = x1 + x2.  D = diag(problem.weights), or the
identity without weights, scales the columns; weights damp fine-scale
coefficients in the extension region (smoothed / adaptive); weights all
equal are none.  W is the wavelet analysis, so A = A_hat W^-1.

Step 1 compresses once and reveals per pipeline.  The plunge is the
(Mrows, K) scaling plunge block B times W^-1, so every pipeline starts from
one ``FrontalFactor`` of B (``Geometry.factor``), made once per geometry:
a block of at most BLOCK_SIZE columns (every 1-D block) is dense and its
own factor, R_B = B and Q_B = I; any other is sparse and compressed by one
frontal QR to its triangle R_B = Q_B^T B (``solvers._frontal_qr``).  Each
pipeline then takes its own reveal (``Geometry.reveal``), by the randomized
kernel's exact SVD on an uncompressed factor:

* ``sparse_az_solve``: the column-pivoted QR of R_B, and x1 = W y;
* ``reduced_az_solve``: the truncated SVD of R_B, which is B's, and
  x1 = W y;
* ``az_solve`` (vanilla AZ): the plunge on its rows Mrows and columns L,
  compressed by Q_B^T, is C = R_B M, M = R_L[cols] D_L, R_L = W^-1[K, L].
  For M = T Q^T, T square and Q with orthonormal columns, the truncated
  SVD of R_B T solves it exactly: y = Q z on L, x1 = D y.  Unweighted, T =
  F with G = M M^T = F F^T (``Geometry.gram``, revealed as "gram"), from
  the rows of the per-axis W^-1 (``Geometry.winv_rows``), O(|K| taps J)
  per axis: in 1-D no part of step 1 grows with N, and no (|K|, |L|)
  array is formed.
* ``smoothed_az_solve`` (az_solve with weights D that vary): T = U^T from
  the thin QR M^T = Q_w U (``_weighted_qr``), made per request.

Step 1 reads the rows Mrows of A_hat, Z_hat and b only, besides c = Z_hat*
b, so its cost follows the boundary, not N.  Steps 2-3 finish every
pipeline in scaling coordinates, from v = W^-1 x1: one analysis gives x =
W u, and A x = A_hat u; az and smoothed take one synthesis for v.  Every
step-1 kernel treats what falls below a fraction of the reference scale
||A_hat||_F rms(w) as cancellation noise (``_reference_scale``), and none
draws a random number.

Everything of a problem but b depends on the geometry only: the filter bank,
N, q and the inside mask.  A ``Geometry`` owns all of it: the operators and
index sets and, made on first use, the rows Mrows of A_hat and Z_hat (in
CSR, or dense on their columns where K has at most BLOCK_SIZE elements),
the per-axis rows of W^-1, R_L, the Gram factor F, the scaling block's
factor and the reveals of it.  ``make_problem`` keeps the geometries in one
least-recently-used cache within CACHE_BYTES and reuses that of an equal
geometry, so a warm explicit or unweighted az solve only replays the
reflectors on its right-hand side.  ``clear_caches`` empties it.
"""

import hashlib
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from .domain import (DomainError, DomainMask, MaskedGrid, masked_grid,
                     plunge_row_set, scaling_boundary_set,
                     wavelet_boundary_set)
from . import dwt
# sparse_idwt_rows and sparse_qr_solve are not called here;
# perfbench/tracing.py wraps these names
from .dwt import sparse_idwt_rows  # noqa: F401
from .filters import FilterBank
from .solvers import (BLOCK_SIZE, DEFAULT_TOL, FrontalFactor, _frontal_qr,
                      randomized_lowrank_solve,
                      sparse_qr_solve)  # noqa: F401
from .system import (assemble_scaling, csr_rows,
                     frame_operator_A, frame_operator_Zstar, rhs)

PRUNE_REL = 1e-12
# Bytes of the geometries kept (``Geometry.nbytes``): A_hat, Z_hat, index
# sets, rows Mrows, rows of W^-1, R_L, F, scaling block, factor and reveals.
# Geometry, R_L (weighted only): 1-D 2^12 0.35, 0.03 MB, 2^18 21.6, 0.01 MB;
# disk (0.5, 0.5, 0.34) 16^2 0.10, 0.17 MB, 32^2 db4 3.1, 4.3 MB, 64^2 1.0,
# 7.9 MB, 128^2 3.7, 44.5 MB.  F and az's Gram reveal: 16^2 0.05, 0.07 MB,
# 32^2 db4 2.00, 2.63 MB, 64^2 0.99, 1.51 MB, 128^2 3.96, 5.77 MB.  After a
# disk-2d pass its four geometries hold 0.40 (16^2, no R_L), 0.89 and 3.05
# (32^2, 64^2) and 10.17 MB (32^2 db4), so they fit together.  The newest
# is kept also when larger alone, as the 16^3 ball's is with a reveal (its
# factor takes 32.3 MB).
CACHE_BYTES = 2**25


class AZError(ValueError):
    pass


class Geometry:
    """What every problem on one geometry (filter bank, N, q and inside mask)
    shares, and its ``key``: operators, index sets, ``scale`` = ||A_hat||_F
    and, made on first use, ``L``, ``boundary_rows`` or, with at most
    BLOCK_SIZE boundary functions K, ``boundary_block``, ``winv_rows``,
    ``winv_block``, ``gram`` and step 1's ``factor`` of the scaling block
    and the ``reveals`` of it.
    The index arrays are read-only; nothing here holds the grid or mask."""

    def __init__(self, bank: FilterBank, grid: MaskedGrid, key):
        self.bank, self.N, self.key = bank, grid.N, key
        self.scaling = assemble_scaling(bank, grid)
        self.A = frame_operator_A(self.scaling, bank, grid)
        self.Zstar = frame_operator_Zstar(self.scaling, bank, grid)
        self.K, self.kflags = scaling_boundary_set(grid, bank)
        self.Mrows = plunge_row_set(self.kflags, bank, grid)
        for a in (self.K, self.kflags, self.Mrows):
            a.flags.writeable = False
        self.scale = float(np.linalg.norm(self.scaling.A_hat.data))
        self.reveals = {}

    @property
    def nbytes(self):
        """Bytes of the distinct arrays held, each counted once: a reveal
        shares the factor's arrays, and the factor the block's."""
        made = vars(self)
        mats = [self.scaling.A_hat, self.scaling.Z_hat,
                *made.get("boundary_rows", ())]
        arrays = [self.K, self.kflags, self.Mrows, made.get("L", self.K[:0]),
                  *made.get("boundary_block", ()),
                  *made.get("winv_block", ()), *made.get("gram", ())[:1]]
        arrays += [a for axis in made.get("winv_rows", ()) for a in axis
                   if a is not None]
        arrays += [a for m in mats for a in (m.data, m.indices, m.indptr)]
        for factor in (made.get("factor"), *self.reveals.values()):
            arrays += factor.arrays if factor else []
        return sum({id(a): a.nbytes for a in arrays}.values())

    @cached_property
    def factor(self):
        """Step 1's scaling block B (``_scaling_block``) as a
        ``FrontalFactor`` whose A is B.  A dense B, at most BLOCK_SIZE
        columns, is its own factor: R_B = B and Q_B = I, every row and
        column kept, no steps.  A sparse B is compressed by the frontal QR
        (``_frontal_qr``)."""
        B = _scaling_block(self)
        if scipy.sparse.issparse(B):
            return _frontal_qr(B)
        m, k = B.shape
        return FrontalFactor(A=B, rows=np.arange(m), cols=np.arange(k),
                             steps=(), front_width=k, R_B=B)

    def reveal(self, kind, tol):
        """(factor, reused): ``factor.qr`` (sparse), ``factor.svd``
        (reduced) or, for "gram" (az), ``factor.svd`` of R_B F (``gram``),
        at tol cut against ``scale``, kept by (kind, tol)."""
        key = (kind, float(tol))
        found = self.reveals.get(key)
        if found is not None:
            return found, True
        made = (self.factor.svd(tol, self.scale, self.gram[0])
                if kind == "gram" else
                getattr(self.factor, kind)(tol, self.scale))
        return self.reveals.setdefault(key, made), False

    @cached_property
    def L(self):
        """Wavelet-layout indices whose synthesis footprint meets K.  No
        pipeline reads them: ``winv_block`` finds the same set as the
        nonzero columns of the rows K of W^-1, less any column where those
        rows cancel to exact zeros (two of 70 for cdf22 on (0.001, 0.999)
        at 2^16).  The CLI record and the tests read them."""
        L, _ = wavelet_boundary_set(self.kflags, self.bank, self.N)
        L.flags.writeable = False
        return L

    @cached_property
    def boundary_rows(self):
        """The rows Mrows of A_hat and Z_hat: all that step 1 of the explicit
        pipelines reads of them, and the rows steps 2-3 map y through."""
        return (csr_rows(self.scaling.A_hat, self.Mrows),
                csr_rows(self.scaling.Z_hat, self.Mrows))

    @cached_property
    def boundary_block(self):
        """(cols_A, A_r, cols_Z, Z_r): the rows Mrows of A_hat and Z_hat as
        dense arrays on cols_A and cols_Z, the sorted columns where they
        have entries (``_dense_rows``).  They replace ``boundary_rows``
        wherever K has at most BLOCK_SIZE elements (``_dense_boundary``),
        and are then a few dozen columns wide: no CSR is formed for them."""
        made = (*_dense_rows(self.scaling.A_hat, self.Mrows),
                *_dense_rows(self.scaling.Z_hat, self.Mrows))
        for a in made:
            a.flags.writeable = False
        return made

    @cached_property
    def winv_rows(self):
        """Per axis, (C, R, inv): the rows R of the 1-D W^-1 at the distinct
        indices u of K on the axis, on their columns C (``_winv_rows``), and
        inv, the index in u of each element of K (None in 1-D, u = K).  Row
        r of W^-1[K] is the outer product, in axis order, of the rows
        inv[r], as W^-1 is the Kronecker product of the per-axis W^-1."""
        K, N = self.K, self.A.N
        axes = []
        for i, n in zip(np.unravel_index(K, N), N):
            u, inv = (i, None) if len(N) == 1 else np.unique(
                i, return_inverse=True)
            axes.append((*_winv_rows(self.bank, n, u), inv))
        return axes

    @cached_property
    def winv_block(self):
        """(L, R_L): R_L = W^-1[K, L] as a dense (|K|, |L|) array, L the
        columns where the rows K of W^-1 have entries, multiplied out from
        ``winv_rows`` (``_outer_rows``).  Only weighted step 1
        (``_weighted_qr``) and ``sparse_plunge`` read it; empty on the
        box."""
        if not self.K.size:
            L, R = np.zeros(0, np.intp), np.zeros((0, 0))
        else:
            L, R = _outer_rows(self.winv_rows, self.A.N)
        for a in (L, R):
            a.flags.writeable = False
        return L, R

    @cached_property
    def gram(self):
        """(F, cond): the lower Cholesky factor F of G = R_L[cols]
        R_L[cols]^T, cols the core columns of ``factor``, and LAPACK's
        estimate of cond_1(G) (``dpocon``).  G[r, s] is the product over
        axes of (R_a R_a^T)[inv_a[r], inv_a[s]] (``winv_rows``): O(|cols|^2
        d) work, no R_L.  G = I for the orthogonal families (db*)."""
        cols = self.factor.cols
        G = np.ones((cols.size, cols.size))
        for _, R, inv in self.winv_rows:
            i = cols if inv is None else inv[cols]
            G *= (R @ R.T)[np.ix_(i, i)]
        F = np.linalg.cholesky(G)
        rcond = (scipy.linalg.lapack.dpocon(F, np.abs(G).sum(axis=0).max(),
                                            uplo="L")[0] if F.size else 1.0)
        F.flags.writeable = False
        return F, 1.0 / rcond


def _winv_rows(bank: FilterBank, n, u):
    """(C, R): the rows u (sorted, unique) of the 1-D W^-1 of n points on
    the sorted columns C where they have entries, R dense (|u|, |C|).

    Row k of W^-1 is W~ e_k, the dual analysis of a unit vector.  Each
    level of that analysis is nonzero on a window of span + 1 entries,
    span the extent of the analysis taps, so a level gathers its
    zero-padded window once at the tap offsets and adds the taps of each
    mask in order by a running sum from a zero slab
    (``np.add.accumulate``), as the transform's level step and its sparse
    product add them, and keeps the detail window.  Once the padded window
    no longer fits the level, or the level has at most ``dwt.DENSE_MAX_N``
    points, the window is scattered into a dense block that the transform's
    own code finishes: ``dwt._dwt_steps``, or ``dwt.dwt`` when the whole
    transform is that short.  So R has the transform's bits, for O(|u|
    taps J) work."""
    m, rows = u.size, np.arange(u.size)[:, None]
    if n <= dwt.DENSE_MAX_N:
        E = np.zeros((m, n))
        E[rows[:, 0], u] = 1.0
        D = dwt.dwt(E, dwt.TransformPlan(bank, n.bit_length() - 1, "dual"))
        C = np.flatnonzero(D.any(axis=0))
        return C, (D if C.size == n else D[:, C])
    coef, reads, lo, hi = _window_taps(bank)
    span = hi - lo
    w, width = span + 1, 3 * span + 2
    steps, level = 0, n
    while level > dwt.DENSE_MAX_N and width <= level:
        steps, level = steps + 1, level // 2
    # The window of level n >> j holds its entries start[:, j] .. + w - 1
    # (mod n >> j).  Output l reads entry 2 l + t, so the outputs that meet
    # the window are start[:, j + 1] = ceil((start[:, j] - hi) / 2) on, and
    # output start[:, j + 1] + i reads entry parity + 2 i + t - lo of the
    # window padded by span in front: ``reads`` shifted by the parity.
    j = np.arange(steps + 1)
    start = (u[:, None] - (hi - 1) * ((1 << j) - 1)) >> j
    at = (rows * width + ((start[:, :-1] - hi) & 1))[
        :, :, None, None, None] + reads
    # columns: the tail's level entries, then each step's detail window
    halves = n >> j[1:, None]
    cols = np.empty((m, level + steps * w), dtype=np.intp)
    cols[:, :level] = np.arange(level)
    cols[:, level:] = (halves + (start[:, 1:, None] + np.arange(w))
                       % halves).reshape(m, -1)
    vals = np.empty(cols.shape)
    padded = np.zeros((m, width))
    padded[:, span] = 1.0
    terms = np.zeros((m, 2, coef.shape[1] + 1, w))
    for step in range(steps):
        np.multiply(coef, padded.ravel()[at[:, step]], out=terms[:, :, 1:])
        sums = np.add.accumulate(terms, axis=2)
        padded[:, span:span + w] = sums[:, 0, -1]
        vals[:, level + step * w:level + (step + 1) * w] = sums[:, 1, -1]
    block = np.zeros((m, level))
    block[rows, (start[:, -1:] + np.arange(w)) % level] = padded[
        :, span:span + w]
    vals[:, :level] = dwt._dwt_steps(block, dwt.TransformPlan(
        bank, level.bit_length() - 1, "dual"))
    nz = vals != 0
    cols = cols[nz]
    C = np.unique(cols)
    R = np.zeros((m, C.size))
    R[nz.nonzero()[0], np.searchsorted(C, cols)] = vals[nz]
    return C, R


# ``_window_taps`` by the bank's masks
_windows = {}


def _window_taps(bank: FilterBank):
    """(coef, reads, lo, hi) of the dual analysis masks (h, g), for
    ``_winv_rows``: lo and hi the extreme tap offsets, coef (2, taps, 1)
    the taps of each mask, padded to the longest by zero taps (they leave a
    running sum from +0.0 as it is), and reads (2, taps, span + 1) the
    entry 2 i + t - lo that output i reads for the tap at t.  Read-only,
    kept by the masks."""
    found = _windows.get(bank.masks_key)
    if found is not None:
        return found
    masks = (bank.h, bank.g)
    lo = min(mask.support[0] for mask in masks)
    hi = max(mask.support[1] for mask in masks)
    taps = max(mask.taps.size for mask in masks)
    coef, offset = np.zeros((2, taps, 1)), np.full((2, taps, 1), lo)
    for k, mask in enumerate(masks):
        coef[k, :mask.taps.size, 0] = mask.taps
        offset[k, :mask.taps.size, 0] = mask.offset + np.arange(
            mask.taps.size)
    reads = offset - lo + 2 * np.arange(hi - lo + 1)
    for a in (coef, reads):
        a.flags.writeable = False
    return _windows.setdefault(bank.masks_key, (coef, reads, lo, hi))


def _rows_transposed(axes, N, w):
    """R^T w as a vector of the whole basis, for R the rows K of W^-1 and
    w on K, from ``Geometry.winv_rows`` without forming R: the sum over r
    of w_r times the outer product of the per-axis rows of r, on the grid
    of the axes' columns (in 2-D R_0[i_0]^T diag(w) R_1[i_1])."""
    (C, R, inv), *rest = axes
    grid, right = C, np.ones((w.size, 1))
    for (Ca, Ra, ia), n in zip(rest, N[1:]):
        grid = (grid[:, None] * n + Ca).ravel()
        right = (right[:, :, None] * Ra[ia][:, None, :]).reshape(
            w.size, right.shape[1] * Ca.size)
    x = np.zeros(math.prod(N))
    x[grid] = (((R if inv is None else R[inv]).T * w) @ right).ravel()
    return x


def _outer_rows(axes, N):
    """(L, R_L) from the per-axis (C, R, inv) of ``_winv_rows``: row r of
    R_L is the outer product, in axis order, of the rows inv[r] of each
    axis' R on the grid of the axes' columns C, taken on its nonzero
    columns L.  A column is nonzero where some row has nonzero factors on
    every axis (their products do not underflow), so L comes from the
    factors' supports.  When it is the whole grid the product is R_L;
    else R_L is multiplied out on L alone, from one gather of each axis'
    factors at L, with no array larger than R_L."""
    (C, R, inv), *rest = axes
    if not rest:
        return C, R
    rows = inv.size
    grid, support = C, np.ones((rows, 1))
    for (Ca, Ra, ia), n in zip(rest, N[1:]):
        grid = (grid[:, None] * n + Ca).ravel()
        support = (support[:, :, None]
                   * (Ra != 0)[ia][:, None, :]).reshape(rows, -1)
    keep = np.flatnonzero(((R != 0)[inv].T.astype(float) @ support).ravel())
    out = R[inv]
    if keep.size == grid.size:
        for _, Ra, ia in rest:
            out = (out[:, :, None] * Ra[ia][:, None, :]).reshape(rows, -1)
        return grid, out
    at = np.unravel_index(keep, [a[0].size for a in axes])
    out = np.take(out, at[0], axis=1)
    for (_, Ra, ia), cols in zip(rest, at[1:]):
        out *= np.take(Ra[ia], cols, axis=1)
    return grid[keep], out


@dataclass(frozen=True)
class AZProblem:
    """A fully assembled extension least-squares problem: a right-hand side
    b on a geometry, whose operators and index sets it reads through."""

    bank: FilterBank
    grid: MaskedGrid
    geometry: Geometry = field(repr=False)
    b: np.ndarray
    weights: np.ndarray | None = None
    # seconds make_problem spent on the geometry (0.0 when it reused that of
    # an earlier call) and outside it: the grid, the geometry key and b
    geometry_s: float = 0.0
    geometry_reused: bool = False
    samples_s: float = 0.0

    scaling = property(lambda self: self.geometry.scaling)
    A = property(lambda self: self.geometry.A)
    Zstar = property(lambda self: self.geometry.Zstar)
    K = property(lambda self: self.geometry.K)
    L = property(lambda self: self.geometry.L)
    Mrows = property(lambda self: self.geometry.Mrows)

    def __post_init__(self):
        if self.b.shape != (self.grid.M,):
            raise AZError("right-hand side must hold one sample per grid row")
        if self.grid.M <= self.grid.n_basis:
            raise AZError("least-squares system must be overdetermined")
        if self.weights is not None:
            if self.weights.size != self.grid.n_basis:
                raise AZError("weight vector length does not match the basis")
            if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
                raise AZError("weights must be positive and finite")


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
    inside = hashlib.blake2b(np.packbits(grid.inside_bool).tobytes())
    return (bank.family, bank.masks_key, grid.N, grid.q, inside.digest())


# (geometry, its nbytes when last kept) by _geometry_key, oldest use first.
_cache = OrderedDict()
_cache_lock = threading.Lock()


def _fit(room, keep):
    """Evict the least recently used geometries, never the ``keep`` newest,
    until those left and ``room`` fit CACHE_BYTES (``_cache_lock`` held)."""
    while len(_cache) > keep and room + sum(
            size for _, size in _cache.values()) > CACHE_BYTES:
        _cache.popitem(last=False)


def _keep(geometry):
    """Keep geometry as the newest, then ``_fit`` the others to the budget."""
    with _cache_lock:
        _cache.pop(geometry.key, None)
        _cache[geometry.key] = geometry, geometry.nbytes
        _fit(0, 1)


def make_problem(f, mask: DomainMask, bank: FilterBank, N, q) -> AZProblem:
    """Assemble grid, operators, right-hand side and index sets for f on mask.

    b = f(grid) on every call, or f itself, a finite vector; the cached
    geometry of an equal bank, N, q and inside mask is reused with all it
    has made (``geometry_reused``, ``geometry_s``).  A miss first evicts
    until a geometry as large as the largest held fits, so that no assembly
    is built beside one it could replace.  The problem is unweighted:
    ``dataclasses.replace(problem, weights=w)`` weights it.  ``samples_s``
    is the seconds spent outside the geometry."""
    t0 = time.perf_counter()
    grid = masked_grid(mask, N, q)
    key = _geometry_key(bank, grid)
    with _cache_lock:
        geometry, _ = _cache.get(key, (None, 0))
        if geometry is None:
            _fit(max((size for _, size in _cache.values()), default=0), 0)
    reused, seconds = geometry is not None, 0.0
    if not reused:
        geometry, seconds = _timed(Geometry, bank, grid, key)
    _keep(geometry)
    b = rhs(f, grid) if callable(f) else np.asarray(f, dtype=float)
    if not (callable(f) or np.isfinite(b).all()):
        raise AZError("right-hand side samples must be finite")
    return AZProblem(bank=bank, grid=grid, geometry=geometry, b=b,
                     geometry_s=seconds, geometry_reused=reused,
                     samples_s=time.perf_counter() - t0 - seconds)


def _weighted_qr(problem: AZProblem):
    """(L, Q_w, U): the thin QR M^T = Q_w U of M = R_L[cols] D_L, cols the
    factor's core columns, R_L from ``Geometry.winv_block`` and D_L the
    weights on L.  Q_w has orthonormal columns, so C = R_B M = (R_B U^T)
    Q_w^T has the singular values of R_B U^T at any weight: none is
    squared.  Q_w is made in the memory of M, the one array formed."""
    g = problem.geometry
    L, R = g.winv_block
    M = R[g.factor.cols]
    M *= problem.weights[L]
    Qw, U = scipy.linalg.qr(M.T, overwrite_a=True, mode="economic",
                            check_finite=False)
    return L, Qw, U


def plunge_rhs(problem: AZProblem, c=None):
    """The rows Mrows of (I - A Z*) b = b - A_hat c, with c = Z_hat* b
    (computed when not given), from the ``Geometry.boundary_rows`` of A_hat,
    or its ``boundary_block`` (``_dense_boundary``): no row of A_hat or b
    outside them is read."""
    if c is None:
        c = problem.Zstar.adjoint @ problem.b
    g = problem.geometry
    if _dense_boundary(g):
        cols, Ar, _, _ = g.boundary_block
        return problem.b[problem.Mrows] - _row_sums(Ar * c[cols])
    return problem.b[problem.Mrows] - g.boundary_rows[0] @ c


def _boundary_update(geometry: Geometry, c, v):
    """c - Z_hat* A_hat v in c's memory for v zero outside K, through the
    rows Mrows alone: the ``boundary_block`` (``_dense_boundary``) or the
    ``boundary_rows``.  The block's sums run in the order of the CSR and
    CSC products, so both give the same bits."""
    if _dense_boundary(geometry):
        cols, Ar, zcols, Zr = geometry.boundary_block
        K = geometry.K
        r = _row_sums(_take_columns(Ar, cols, K) * v[K])
        c[zcols] -= np.add.accumulate(Zr * r[:, None], axis=0)[-1]
        return c
    Ar, Zr = geometry.boundary_rows
    return np.subtract(c, Zr.T @ (Ar @ v), out=c)


def _dense_boundary(geometry: Geometry):
    """Whether step 1 and steps 2-3 of the explicit pipelines read A_hat
    and Z_hat through ``Geometry.boundary_block``: K has at most
    BLOCK_SIZE elements, as the dense scaling block of ``_scaling_block``
    has at most BLOCK_SIZE columns.  Else ``Geometry.boundary_rows``."""
    return 0 < geometry.K.size <= BLOCK_SIZE


def _dense_rows(S, rows):
    """(cols, D): the rows ``rows`` of the CSR S on the sorted columns cols
    where they have entries, D dense (|rows|, |cols|)."""
    lo, counts = S.indptr[rows], S.indptr[rows + 1] - S.indptr[rows]
    ends = np.cumsum(counts)
    take = np.arange(ends[-1] if ends.size else 0) + np.repeat(
        lo - ends + counts, counts)
    found = S.indices[take]
    cols = np.sort(found)
    first = np.empty(cols.size, dtype=bool)     # np.unique(found)
    first[:1] = True
    np.not_equal(cols[1:], cols[:-1], out=first[1:])
    cols = cols[first]
    D = np.zeros((rows.size, cols.size))
    D[np.repeat(np.arange(rows.size), counts),
      np.searchsorted(cols, found)] = S.data[take]
    return cols, D


def _row_sums(T):
    """Each row's sum of T, term by term in column order: the bits of the
    CSR product whose terms T holds, with its missing terms as zeros."""
    return np.add.accumulate(T, axis=1)[:, -1] if T.shape[1] else np.zeros(
        T.shape[0])


def _reference_scale(problem: AZProblem):
    """||A_hat||_F rms(w), rms(w) = sqrt(mean(w^2)) and 1 without weights:
    the magnitude against which the step-1 kernels treat what falls below
    NOISE_REL or tol of it as cancellation noise.  The cancellation happens
    among the entries of A_hat, in whose scaling coordinates the explicit
    pipelines cut their block."""
    scale, w = problem.geometry.scale, problem.weights
    return scale if w is None else scale * float(np.sqrt(np.mean(w * w)))


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
    if e.size == 0 or not np.all(np.isfinite(e) & (e > 0)):
        raise AZError("weight list must be non-empty, positive and finite")
    levels = scale_levels(N)
    return e[np.minimum(levels, e.size - 1)]


def per_scale_norms(x, N, select=None):
    """l2 norm of the coefficients at each scale (optionally on a sub-mask).

    Along an axis of 2^J points, scale 0 is the block [0, 2) and scale l
    the block [2^l, 2^(l+1)) (see ``scale_levels``), so one ``reduceat``
    per axis sums the squares over every box of per-axis scales, and a
    box counts for the largest of its per-axis scales: d passes over the
    coefficients, without a label array."""
    x = np.ravel(x)
    if select is not None:
        keep = np.zeros(x.size, dtype=bool)
        keep[np.asarray(select)] = True
        x = np.where(keep, x, 0.0)
    sums = (x * x).reshape(N)
    for axis, n in enumerate(N):
        starts = 2 ** np.arange(n.bit_length() - 1)     # 1, 2, 4, ...
        starts[0] = 0                                   # scale 0 from 0
        sums = np.add.reduceat(sums, starts, axis=axis)
    if len(N) == 1:                     # one box per scale
        return np.sqrt(sums)
    levels = reduce(np.maximum.outer,
                    [np.arange(n.bit_length() - 1) for n in N])
    return np.sqrt(np.bincount(levels.ravel(), weights=sums.ravel()))


def extension_index_set(problem: AZProblem):
    """Coefficients whose synthesis footprint meets the extension region,
    i.e. the part of the periodic box outside the domain."""
    from .domain import _separable_any, _support_offsets

    grid = problem.grid
    offsets = _support_offsets(problem.bank, grid)
    touches_out = _separable_any(~grid.inside_bool, offsets, grid.q)
    ext, _ = wavelet_boundary_set(touches_out, problem.bank, grid.N)
    return ext


def _columns(S, cols):
    """The CSR S[:, cols] for sorted unique cols, entries in the order of S,
    without the map over every column that scipy's indexing builds; it
    shares S's data and row pointers when cols hold every column of S."""
    pos = np.searchsorted(cols, S.indices)
    keep = np.append(cols, -1)[pos] == S.indices
    if keep.all():
        return scipy.sparse.csr_matrix((S.data, pos, S.indptr),
                                       shape=(S.shape[0], cols.size))
    indptr = np.r_[0, np.cumsum(keep)][S.indptr]
    return scipy.sparse.csr_matrix((S.data[keep], pos[keep], indptr),
                                   shape=(S.shape[0], cols.size))


def clear_caches():
    """Forget every cached geometry: the next make_problem of each assembles
    it, and its solves build the per-axis rows of W^-1, R_L, the Gram, the
    scaling block and its factor afresh (a problem made before keeps its
    geometry).  What depends on the filter bank and sizes alone stays
    warm: the transform matrices, the tap tables and whole circulants of
    short axes (``system._axis_circulant``), the window taps of
    ``_winv_rows`` and the dual pairs."""
    with _cache_lock:
        _cache.clear()


def _timed(fn, *args):
    """(fn(*args), seconds it took)."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def _solve(problem: AZProblem, reveal, tol):
    """Steps 1-3 from c = Z_hat* b, weights all w0 dropped first (exact:
    D = w0 I gives y = y0 / w0, x1 = D y = y0, and scales every cut by w0).

    Step 1 solves the plunge system for y on its rows Mrows, with the rows
    Mrows of b1 = b - A_hat c, from the geometry's ``factor`` of the
    scaling block, made on first use: ``stage_times["assembly"]`` is the
    seconds of that and, for az, of the per-axis rows of W^-1 or, for
    smoothed, of R_L, each 0.0 when the geometry holds it.  The geometry
    is then kept as the most recently used.  ``reveal`` names what the
    pipeline takes of the factor:

    * "qr" (sparse) or "svd" (reduced): that reveal of R_B, cached too
      (``step1_reused`` says whether it was), solves for y on K, and x1 =
      W y.
    * None (az, smoothed): the SVD of R_B T for M = R_L[cols] D_L = T Q^T,
      solves for z on the core columns, and x1 = D y with y = Q z on L.
      Without weights T = F, G = F F^T (``Geometry.gram``), the "gram"
      reveal, cached too, and y = R_L[cols]^T F^-T z is applied from the
      per-axis rows; ``gram_cond`` estimates cond(G).  With weights T =
      U^T and Q = Q_w from ``_weighted_qr``, made per request
      (``step1_reused`` False).

    An uncompressed factor's B (reduced) or B T (az, smoothed) goes to the
    randomized kernel, which solves it by its exact SVD; ``step1_reused``
    is then whether the geometry held all it reads.  Every kernel cuts
    against the reference scale.  Explicit forms are unweighted.

    Steps 2-3 finish in scaling coordinates v = W^-1 x1, where A x1 =
    A_hat v: x = x1 + Z* (b - A x1) = W u with u = v + c - Z_hat* (A_hat
    v), and A x = A_hat u.  When explicit, v is y on K and A_hat v lives on
    the rows Mrows; else v = W^-1 (D y on L) takes one synthesis.  Then one
    analysis gives x, and the residual ||A_hat u - b|| takes none.  u is
    formed in c's memory and A_hat u - b in A_hat u's, in the bits of the
    out-of-place forms.  ``stage_times["step1"]`` starts after c, which is
    O(N) and counts in ``step23``, so step 1 reads what the boundary
    costs."""
    w = problem.weights
    if w is not None and (w == w[0]).all():     # D = w0 I: no weights
        problem, w = replace(problem, weights=None), None
    if reveal and w is not None:
        raise AZError("reduced and sparse solve unweighted problems only")
    t = time.perf_counter()
    S, g = problem.scaling, problem.geometry
    c = problem.Zstar.adjoint @ problem.b
    t0 = time.perf_counter()
    b1 = plunge_rhs(problem, c)
    assembly = 0.0
    for made in ("factor",) if reveal else (
            "factor", "winv_rows" if w is None else "winv_block"):
        if made not in vars(g):
            assembly += _timed(getattr, g, made)[1]
    f, kind = g.factor, reveal or "gram"
    reused = w is None and not assembly and (kind == "svd"
                                             or "gram" in vars(g))
    if w is not None:
        L, Qw, U = _weighted_qr(problem)
        right = U.T
    else:
        right = None if reveal else g.gram[0]
    if kind != "qr" and f.R_B is f.A:   # uncompressed
        rep = randomized_lowrank_solve(f.A if right is None else f.A @ right,
                                       b1, tol=tol,
                                       scale=_reference_scale(problem))
    elif w is None:
        factor, reused = g.reveal(kind, tol)
        rep = factor.solve(b1)
    else:
        rep = f.svd(tol, _reference_scale(problem), right).solve(b1)
    diag = {"step1_reused": reused}
    if kind == "gram" and w is None:
        diag["gram_cond"] = g.gram[1]
    _keep(g)
    t1 = time.perf_counter()
    v = np.zeros(problem.grid.n_basis)
    if reveal:
        v[problem.K] = rep.solution     # A_hat v lives on the rows Mrows
        u = _boundary_update(g, c, v)
    else:
        z = rep.solution[f.cols]
        if w is None:   # y = R_L[cols]^T F^-T z
            u = np.zeros(problem.K.size)
            u[f.cols] = scipy.linalg.solve_triangular(right, z, lower=True,
                                                      trans="T")
            v = _rows_transposed(g.winv_rows, problem.A.N, u)
        else:           # y = Q_w z on L
            v[L] = (Qw @ z) * w[L]
        v = problem.A.synthesis(v)
        u = np.subtract(c, problem.Zstar.adjoint @ (S.A_hat @ v), out=c)
    np.add(v, u, out=u)                 # v + (c - Z_hat* A_hat v), in c
    x, Ax = problem.A.analysis(u), S.A_hat @ u
    times = {"geometry": problem.geometry_s, "samples": problem.samples_s,
             "step1": t1 - t0, "step23": time.perf_counter() - t1 + t0 - t,
             "assembly": assembly}
    Ax -= problem.b
    return AZSolution(x=x, residual=float(np.linalg.norm(Ax)),
                      coefficient_norm=float(np.linalg.norm(x)),
                      per_scale_norms=per_scale_norms(x, problem.grid.N),
                      stage_times=times, plunge_rank=rep.rank,
                      diagnostics={"rank": rep.rank, **rep.diagnostics,
                                   "geometry_reused": problem.geometry_reused,
                                   **diag})


def az_solve(problem: AZProblem, tol=DEFAULT_TOL) -> AZSolution:
    """Vanilla pipeline: the exact truncated SVD of the plunge system on
    its (Mrows, L) block, compressed by the scaling block's frontal factor,
    through the Gram of the rows K of W^-1.  With weights that vary it is
    the smoothed pipeline: the same SVD of that block with its columns
    weighted, through the QR of its weighted rows of W^-1
    (``_weighted_qr``)."""
    return _solve(problem, None, tol)


smoothed_az_solve = az_solve


def reduced_az_solve(problem: AZProblem, tol=DEFAULT_TOL) -> AZSolution:
    """Index-set-reduced pipeline: truncated SVD of the explicit (#Mrows,
    #K) scaling plunge block, that of its cached factor's R_B, and x1 =
    W y."""
    return _solve(problem, "svd", tol)


def sparse_az_solve(problem: AZProblem, tol=DEFAULT_TOL) -> AZSolution:
    """Sparse pipeline: column-pivoted QR of the cached frontal triangle R_B
    of the explicit (#Mrows, #K) scaling plunge block, and x1 = W y."""
    return _solve(problem, "qr", tol)


def _prune(S, scale=0.0):
    """S as CSR without its entries at or below PRUNE_REL * max(max |S|,
    scale); a CSR S is pruned in place."""
    S = S.tocsr()
    if S.nnz:
        level = PRUNE_REL * max(np.abs(S.data).max(), scale)
        S.data[np.abs(S.data) <= level] = 0.0
        S.eliminate_zeros()
    return S


def scaling_plunge(geometry: Geometry):
    """The sparse (Mrows, K) block of A_hat - A_hat Z_hat* A_hat, pruned of
    cancellation fuzz: the plunge is this block times W^-1.

    Column c of A_hat - A_hat Z_hat* A_hat vanishes unless phi_c meets both
    the domain and its complement, that is unless c is in K, and Mrows holds
    every row that A_hat[:, K] and A_hat Z_hat* A_hat[:, K] reach.  So the
    block is A_K - A_c (Z_c* A_K), with A_K the columns K of the rows Mrows
    A_r of A_hat (``Geometry.boundary_rows``) and A_c, Z_c the columns that
    A_r touches of A_r and Z_r; no row of A_hat or Z_hat outside Mrows is
    read.  Fuzz is measured against the larger of the cancelled operand A_K
    and the result, so a plunge that cancels to fuzz everywhere comes out
    empty.
    """
    Ar, Zr = geometry.boundary_rows
    cols = np.unique(Ar.indices)
    AK, Ac, Zc = (_columns(Ar, geometry.K), _columns(Ar, cols),
                  _columns(Zr, cols))
    return _prune(AK - Ac @ (Zc.T @ AK), np.abs(AK.data).max(initial=0))


# A dense scaling block is formed by running sums while their terms array
# (rows x shared columns x |K| entries) has at most this many entries, else
# by the sparse products.  1-D blocks on (0.2, 0.75) at 2^12, minimum of 300
# calls, one BLAS thread, dense against sparse: cdf33 11 x 10 x 4 = 440
# terms 0.05 against 0.31 ms, db3 27 x 22 x 8 = 4752 terms 0.11 against
# 0.32 ms, db4 47 x 36 x 12 = 20304 terms 0.26 against 0.35 ms, db5 63 x 48
# x 16 = 48384 terms 0.97 against 0.38 ms.
DENSE_TERMS_MAX = 2**15


def _scaling_block(geometry: Geometry):
    """The scaling plunge block of step 1, ``scaling_plunge(geometry)`` in
    the same bits: as a dense array when it has at most BLOCK_SIZE columns,
    else that sparse block itself.

    A dense block whose terms array has more than DENSE_TERMS_MAX entries
    is ``scaling_plunge(geometry).toarray()``.  Else the sparse products
    sum their terms over the shared index in ascending order from zero,
    skipping zero terms; here every term is formed from the
    ``boundary_block`` and a running sum along that index
    (``np.add.accumulate`` from a zero slab) adds them in the same order,
    the skipped ones as exact zeros.  The cut is ``_prune``'s."""
    K = geometry.K
    if not _dense_boundary(geometry):
        return scaling_plunge(geometry)
    cols, Ac, zcols, Zr = geometry.boundary_block
    m, c, k = Ac.shape[0], cols.size, K.size
    if m * c * k > DENSE_TERMS_MAX:
        return scaling_plunge(geometry).toarray()
    AK, Zc = _take_columns(Ac, cols, K), _take_columns(Zr, zcols, cols)
    terms = np.zeros((m + 1, c, k))
    np.multiply(Zc[:, :, None], AK[:, None, :], out=terms[1:])
    X = np.add.accumulate(terms, axis=0)[-1]            # Z_c* A_K
    terms = np.zeros((c + 1, m, k))
    np.multiply(Ac.T[:, :, None], X[:, None, :], out=terms[1:])
    P = AK - np.add.accumulate(terms, axis=0)[-1]       # A_K - A_c X
    P[np.abs(P) <= PRUNE_REL * max(np.abs(P).max(), np.abs(AK).max())] = 0.0
    return P


def _take_columns(D, cols, want):
    """The columns ``want`` (sorted) of D, whose columns are the sorted
    ``cols``; a column not among them is zero."""
    if not cols.size:
        return np.zeros((D.shape[0], want.size))
    at = np.minimum(np.searchsorted(cols, want), cols.size - 1)
    return np.where(cols[at] == want, D[:, at], 0.0)


def sparse_plunge(problem: AZProblem):
    """Sparse (I - A Z*) A: ``scaling_plunge`` times R_L
    (``Geometry.winv_block``), pruned and placed in the rows Mrows and the
    columns L: the tests' wavelet-domain plunge."""
    L, R = problem.geometry.winv_block
    P = scipy.sparse.coo_matrix(scaling_plunge(problem.geometry) @ R)
    return _prune(scipy.sparse.csr_matrix(
        (P.data, (problem.Mrows[P.row], L[P.col])), shape=problem.A.shape))


def coarsest_n(bank: FilterBank):
    """Smallest admissible dyadic n: at least 4 times the mask support."""
    n = 2
    while n < 4 * bank.support_length:
        n *= 2
    return n


def adaptive_weighted_solve(f, mask: DomainMask, bank: FilterBank, N, q,
                            tol=DEFAULT_TOL):
    """Multilevel weighted pipeline: refine n from coarse to N, feeding the
    residual history back in as per-scale weights.

    The ladder starts at the coarsest level, min(coarsest_n, N) on each
    axis, whose grid has more samples in the domain than unknowns; only a
    requested N without that raises.  Its weights all equal ||b||, so a
    one-rung ladder is ``az``.  Returns ``(problem, solution)``: the
    unweighted problem the ladder assembled at N, and the solution at N,
    whose ``diagnostics["weight_history"]`` is ||b|| followed by each
    level's residual floored at tol ||b||: a residual at round-off would
    make weights of its noise and cut the next level's rank."""
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
            replace(problem, weights=scale_weights(e, lv)), tol=tol)
        e.append(max(sol.residual, tol * e[0]))
    sol.diagnostics["weight_history"] = list(e)
    return problem, sol

