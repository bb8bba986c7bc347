"""Domains inside the unit box, masked sampling grids, and boundary index sets.

Membership is decided purely by the indicator evaluated on the oversampled
cartesian grid; boundary detection uses the discrete supports of the basis
functions (the nonzero samples of the primal scaling sequence), so arbitrary
indicator predicates are supported.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dual import dual_pair
from .dwt import _wrap_pad, analysis_taps
from .filters import FilterBank


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class DomainMask:
    """Indicator-defined subset of [0,1]^d.

    ``indicator`` maps an array of points with shape (npoints, d) to booleans.
    Built-in constructors produce closed domains (boundary points included).
    """

    dimension: int
    indicator: object
    description: str = "predicate"

    def contains(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.indicator(pts), dtype=bool)


def interval(a, b):
    if not 0.0 <= a < b <= 1.0:
        raise DomainError("interval must satisfy 0 <= a < b <= 1")
    if a == 0.0 and b == 1.0:
        warnings.warn("domain touches the box boundary; periodization may leak")
    return DomainMask(1, lambda p: (p[:, 0] >= a) & (p[:, 0] <= b),
                      description=f"interval:{a},{b}")


def disk(cx, cy, r):
    if r <= 0:
        raise DomainError("radius must be positive")
    return DomainMask(
        2, lambda p: (p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2 <= r * r,
        description=f"disk:{cx},{cy},{r}")


def ball(cx, cy, cz, r):
    if r <= 0:
        raise DomainError("radius must be positive")
    return DomainMask(
        3,
        lambda p: (p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2 + (p[:, 2] - cz) ** 2 <= r * r,
        description=f"ball:{cx},{cy},{cz},{r}")


def whole_box(d):
    return DomainMask(d, lambda p: np.ones(p.shape[0], dtype=bool), description="box")


def _as_tuple(x, d):
    if np.isscalar(x):
        return (int(x),) * d
    t = tuple(int(v) for v in x)
    if len(t) != d:
        raise DomainError(f"expected {d} entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class MaskedGrid:
    """Oversampled cartesian grid restricted to the domain."""

    mask: DomainMask
    N: tuple
    q: tuple
    inside: np.ndarray = field(repr=False)      # sorted linear indices into the full grid
    inside_bool: np.ndarray = field(repr=False)  # boolean over the full grid, C order

    @property
    def dimension(self):
        return self.mask.dimension

    @property
    def grid_shape(self):
        return tuple(n * q for n, q in zip(self.N, self.q))

    @property
    def M(self):
        return int(self.inside.size)

    @property
    def n_basis(self):
        return math.prod(self.N)

    def points(self):
        """Physical coordinates of the inside grid points, (M, d): each
        axis' index of ``inside`` divided by that axis' length straight into
        its column (in 1-D, ``inside`` itself)."""
        shape = self.grid_shape
        pts = np.empty((self.M, len(shape)))
        rest = self.inside
        for ax in range(len(shape) - 1, 0, -1):     # C order: last axis first
            rest, index = np.divmod(rest, shape[ax])
            np.divide(index, shape[ax], out=pts[:, ax])
        np.divide(rest, shape[0], out=pts[:, 0])
        return pts


def _grid_points(shape):
    """The (G, d) coordinates i / g of every point of the grid of that shape,
    in C order: in 1-D one ``arange`` divided in place, else each axis'
    coordinates written once into its column."""
    if len(shape) == 1:
        pts = np.arange(shape[0], dtype=float)[:, None]
        pts /= shape[0]
        return pts
    pts = np.empty((int(np.prod(shape)), len(shape)))
    cube = pts.reshape(*shape, len(shape))
    for ax, g in enumerate(shape):
        cube[..., ax] = (np.arange(g) / g).reshape(
            [g if i == ax else 1 for i in range(len(shape))])
    return pts


def masked_grid(mask: DomainMask, N, q) -> MaskedGrid:
    d = mask.dimension
    N = _as_tuple(N, d)
    q = _as_tuple(q, d)
    for n in N:
        if n & (n - 1) or n < 2:
            raise DomainError(f"N must be powers of two >= 2, got {N}")
    for qi in q:
        if qi < 2:
            raise DomainError("oversampling q must be >= 2 in every dimension")
    shape = tuple(n * qi for n, qi in zip(N, q))
    inside_bool = mask.contains(_grid_points(shape)).reshape(shape)
    inside = np.flatnonzero(inside_bool.ravel())
    if inside.size == 0:
        raise DomainError(f"empty domain: no point of the {shape} grid lies "
                          f"inside {mask.description}")
    if inside.size <= math.prod(N):
        raise DomainError(
            f"oversampling too low: {inside.size} sample points for {math.prod(N)} dof")
    return MaskedGrid(mask=mask, N=N, q=q, inside=inside, inside_bool=inside_bool)


def _support_offsets(bank: FilterBank, grid: MaskedGrid):
    """Per-dimension grid offsets of the discrete support of phi_{kN}."""
    outs = []
    for n, q in zip(grid.N, grid.q):
        b, _ = dual_pair(bank, q)
        outs.append((b.offset + np.nonzero(b.b)[0]) % (n * q))
    return outs


def _any_roll(a, shifts, axis):
    """OR over s in shifts of np.roll(a, s, axis), from slices of one
    periodically extended copy of a."""
    shifts = [int(s) for s in shifts]
    if not shifts:
        return np.zeros_like(a)
    lo, n = max(0, max(shifts)), a.shape[axis]
    ext = _wrap_pad(a, lo, max(0, -min(shifts)), axis)
    out = np.zeros_like(a)
    window = [slice(None)] * a.ndim
    for s in shifts:
        window[axis] = slice(lo - s, lo - s + n)
        out |= ext[tuple(window)]
    return out


def _separable_any(flags, offsets_per_dim, steps):
    """any over the product support: OR of rolls per axis, then subsample.

    flags has the full grid shape as its trailing axes (leading axes are
    batched); offsets give the support pattern of basis element 0 per
    dimension, steps the grid step per basis index (q_i).
    """
    acc, d = flags, len(offsets_per_dim)
    for ax, offs in enumerate(offsets_per_dim):
        acc = _any_roll(acc, -np.asarray(offs), ax - d)
    slices = tuple(slice(0, None, s) for s in steps)
    return acc[(Ellipsis,) + slices]


def scaling_boundary_set(grid: MaskedGrid, bank: FilterBank):
    """Multi-indices of scaling functions meeting both the domain and its
    complement: the domain's flags and their complement rolled together,
    as one batch."""
    offsets = _support_offsets(bank, grid)
    touches_in, touches_out = _separable_any(
        np.stack((grid.inside_bool, ~grid.inside_bool)), offsets, grid.q)
    kflags = touches_in & touches_out
    return np.flatnonzero(kflags.ravel()), kflags


def wavelet_boundary_set(kflags_1d_list, bank: FilterBank, N):
    """Wavelet-layout indices whose synthesis footprint meets the boundary set.

    A wavelet index is included when some scaling function in its iDWT
    synthesis footprint belongs to the boundary set K.  Computed per dimension
    by poison-marker propagation through the inverse transform pattern.
    """
    flags = np.asarray(kflags_1d_list, dtype=bool).reshape(N)
    for ax, n in enumerate(N):
        flags = np.moveaxis(
            _wavelet_flags_axis(np.moveaxis(flags, ax, -1), bank, n), -1, ax)
    return np.flatnonzero(flags.ravel()), flags


def _wavelet_flags_axis(flags, bank, n):
    """Wavelet-layout boundary flags along the last axis from scaling flags.

    Markers propagate through analysis steps: a coarse coefficient is marked
    when any fine coefficient in the footprint of its *synthesis* filter is
    marked, since that footprint defines the overlap with K.
    """
    out = np.zeros_like(flags)
    cur = flags
    for j in range(n.bit_length() - 1, 0, -1):
        marks = [np.zeros(cur.shape[:-1] + (cur.shape[-1] // 2,), dtype=bool)
                 for _ in range(2)]
        for k, _, view in analysis_taps(cur, (bank.h, bank.g)):
            marks[k] |= view
        out[..., 2 ** (j - 1): 2 ** j] = marks[1]
        cur = marks[0]
    out[..., 0] = cur[..., 0]
    return out


def plunge_row_set(kflags, bank: FilterBank, grid: MaskedGrid):
    """Masked-grid row indices that can carry nonzero rows of the plunge matrix.

    A grid point qualifies when some primal scaling function that is nonzero
    there has a discrete dual overlapping a boundary element of K.
    """
    flags = np.asarray(kflags, dtype=bool).reshape(grid.N)
    # step 1: dilate K to I1 = K plus duals overlapping a K element, per axis
    i1 = flags.copy()
    for ax, (n, q) in enumerate(zip(grid.N, grid.q)):
        b, d = dual_pair(bank, q)
        bsup = b.offset + np.nonzero(b.b)[0]
        dsup = d.offset + np.nonzero(d.b_dual)[0]
        # index differences delta = i - l with overlapping supports:
        # [i q + dsup] meets [l q + bsup]  <=>  delta*q in bsup - dsup range
        lo = int(np.ceil((bsup[0] - dsup[-1]) / q))
        hi = int(np.floor((bsup[-1] - dsup[0]) / q))
        i1 = _any_roll(i1, range(lo, hi + 1), ax) | flags
    # step 2: dilate I1 into the sampling grid through the primal supports
    gflags = i1
    for ax, (n, q) in enumerate(zip(grid.N, grid.q)):
        b, _ = dual_pair(bank, q)
        bsup = b.offset + np.nonzero(b.b)[0]
        every_q = [slice(None)] * gflags.ndim
        every_q[ax] = slice(None, None, q)
        up = np.zeros(gflags.shape[:ax] + (n * q,) + gflags.shape[ax + 1:],
                      dtype=bool)
        up[tuple(every_q)] = gflags
        gflags = _any_roll(up, bsup, ax)
    linear = np.flatnonzero(gflags.ravel() & grid.inside_bool.ravel())
    return np.searchsorted(grid.inside, linear)
