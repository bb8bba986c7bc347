"""Discrete dual scaling sequences, biorthogonal under the oversampled pairing.

A dual sequence bt satisfies sum_m b_m bt_{m-kq} = delta_{0k}, where b holds
the samples of the primal father function on the grid with q points per unit.
Duals are found by solving this finite linear system on a candidate support,
starting from the smallest support that admits a solution (min-norm
representative when the system is underdetermined).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cascade import scaling_at_dyadic
from .filters import FilterBank, delta_violation

SOLVE_TOL = 1e-11
SUPPORT_CAP_FACTOR = 8


class DualError(ValueError):
    pass


@dataclass(frozen=True)
class SampledScaling:
    """Samples b_m = phi(m/q) of the primal father function."""

    q: int
    offset: int          # index of the first stored sample
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        self.b.setflags(write=False)


@dataclass(frozen=True)
class DiscreteDual:
    q: int
    offset: int
    b_dual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b_dual", np.asarray(self.b_dual, dtype=float))
        self.b_dual.setflags(write=False)

    @property
    def norm(self):
        return float(np.linalg.norm(self.b_dual))


def _trim(offset, vals):
    nz = np.nonzero(np.abs(vals) > 1e-14)[0]
    if nz.size == 0:
        raise DualError("sequence is identically zero")
    return offset + nz[0], vals[nz[0]: nz[-1] + 1]


def sample_primal(bank: FilterBank, q: int) -> SampledScaling:
    """Sample the primal father function on the grid with spacing 1/q."""
    if q < 2:
        raise DualError("oversampling factor q must be >= 2")
    dyadic = q & (q - 1) == 0
    if not dyadic and bank.orthogonal:
        raise DualError("Daubechies scaling functions require a dyadic q")
    if dyadic:
        s = scaling_at_dyadic(bank.h, q.bit_length() - 1)
        offset, vals = s.start_index, s.values
    else:
        # CDF primal father functions are centered B-splines; evaluate exactly.
        # Imported here: scipy.interpolate pulls in scipy.optimize, .special
        # and .fft, which no other path needs.
        import scipy.interpolate

        p = bank.p
        lo = bank.h.offset
        spline = scipy.interpolate.BSpline.basis_element(np.arange(p + 1) + lo,
                                                         extrapolate=False)
        t = np.arange(lo * q, (lo + p) * q + 1) / q
        vals = np.nan_to_num(spline(t))
        offset = lo * q
    offset, vals = _trim(offset, vals)
    return SampledScaling(q=q, offset=offset, b=vals)


def pairing_residual(b: SampledScaling, d: DiscreteDual):
    """Max violation of sum_m b_m bt_{m-kq} = delta_{0k} over all shifts k."""
    return delta_violation(b.b, b.offset, d.b_dual, d.offset, b.q)


def _dual_system(b: SampledScaling, start: int, length: int):
    """Constraint matrix C and rhs for a dual on [start, start+length):
    C[k, j] = b_{start + j + k q} for every shift k at which the supports
    overlap."""
    q = b.q
    ks = np.arange(-((start + length - 1 - b.offset) // q),
                   (b.offset + b.b.size - 1 - start) // q + 1)
    mi = start - b.offset + np.arange(length) + q * ks[:, None]
    inside = (mi >= 0) & (mi < b.b.size)
    C = np.where(inside, b.b[np.where(inside, mi, 0)], 0.0)
    return C, (ks == 0).astype(float)


def _centered_start(b: SampledScaling, length: int):
    center = b.offset + (b.b.size - 1) / 2.0
    return int(round(center - (length - 1) / 2.0))


def _solve_on_support(b: SampledScaling, start: int, length: int):
    C, rhs = _dual_system(b, start, length)
    sol, *_ = np.linalg.lstsq(C, rhs, rcond=None)
    if np.abs(C @ sol - rhs).max() < SOLVE_TOL:
        return sol
    return None


def minimal_dual(b: SampledScaling) -> DiscreteDual:
    """Dual with the smallest support admitting an exact solution.

    Candidate supports are centered on the primal support and expand by q per
    step; on each support the minimum-norm representative is returned.
    """
    cap = SUPPORT_CAP_FACTOR * b.b.size
    for length in range(b.b.size, cap + 1, b.q):
        start0 = _centered_start(b, length)
        # scan starts near the centered position first
        offs = sorted(range(-b.q, b.q + 1), key=abs)
        for doff in offs:
            sol = _solve_on_support(b, start0 + doff, length)
            if sol is not None:
                off, vals = _trim(start0 + doff, sol)
                return DiscreteDual(q=b.q, offset=off, b_dual=vals)
    raise DualError(
        "no compact dual found up to the support cap; "
        "try least_norm_dual with a larger support"
    )


def least_norm_dual(b: SampledScaling, support_len: int) -> DiscreteDual:
    """Minimum-l2-norm dual on a centered support of the given length."""
    start = _centered_start(b, support_len)
    sol = _solve_on_support(b, start, support_len)
    if sol is None:
        raise DualError(f"dual system infeasible on support length {support_len}")
    return DiscreteDual(q=b.q, offset=start, b_dual=sol)


@lru_cache(maxsize=None)
def _cached_pair(family: str, q: int):
    from .filters import filter_bank

    b = sample_primal(filter_bank(family), q)
    return b, minimal_dual(b)


def dual_pair(bank: FilterBank, q: int):
    """Cached (sampled primal, minimal dual) pair for one family and q."""
    return _cached_pair(bank.family, q)


def dual_taps(d: DiscreteDual, N: int, q: int):
    """The dual periodized on a grid of N q points, N^{-1/2} sum_l
    bt_{m - N q l}, as (offset, values): its entry at (offset + i) mod N q is
    values[i], zero elsewhere."""
    if d.b_dual.size > N * q:
        raise DualError(f"dual support {d.b_dual.size} exceeds grid length {N * q}")
    return d.offset, d.b_dual / np.sqrt(N)


def primal_taps(b: SampledScaling, N: int):
    """The primal periodized on a grid of N q points and scaled by sqrt(N),
    as (offset, values) in the layout of ``dual_taps``."""
    if b.b.size > N * b.q:
        raise DualError(f"primal support {b.b.size} exceeds grid length {N * b.q}")
    return b.offset, b.b * np.sqrt(N)
