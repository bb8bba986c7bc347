"""Refinement and wavelet masks for Daubechies and B-spline-primal CDF families.

Masks are stored in the sqrt(2)-scaled convention: the taps of a refinement
mask sum to sqrt(2), so they can be fed directly to the filter-bank steps of
the wavelet transform.  Daubechies masks start at offset 0; CDF masks are
centered (odd length around 0, even length around 1/2).

Note on naming: ``cdf(p, pdual)`` uses the B-spline-primal construction, in
which the primal father function is the centered B-spline of order ``p``.
These filters differ from the equally named CDF filters common in signal
processing (e.g. the JPEG2000 9/7 pair).
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, sqrt

import numpy as np

SQRT2 = sqrt(2.0)

MAX_DB_ORDER = 10     # double-precision root finding stays well below 1e-10
MAX_CDF_ORDER = 12    # cap on p + pdual


class FilterError(ValueError):
    pass


@dataclass(frozen=True)
class Mask:
    """Finite filter sequence with taps at offset, offset+1, ..."""

    offset: int
    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0:
            raise FilterError("mask taps must be a nonempty 1-D sequence")
        if taps[0] == 0.0 or taps[-1] == 0.0:
            raise FilterError("first and last mask tap must be nonzero")
        object.__setattr__(self, "taps", taps)
        self.taps.setflags(write=False)

    def __len__(self):
        return self.taps.size

    @property
    def support(self):
        """Index range [first, last] of nonzero taps."""
        return self.offset, self.offset + len(self) - 1

    def __getitem__(self, k):
        i = k - self.offset
        if 0 <= i < len(self):
            return self.taps[i]
        return 0.0

    def moment(self, m):
        k = self.offset + np.arange(len(self))
        return float(np.sum(self.taps * k.astype(float) ** m))


def delta_violation(a, a_offset, b, b_offset, step):
    """max over shifts s of |sum_k a_k b_{k + s step} - delta_{s0}|, for
    sequences a and b whose first entries have indices a_offset and
    b_offset."""
    c = np.correlate(b, a, "full")    # sum_k a_k b_{k + t} at each lag t
    t = np.arange(c.size) + (b_offset - a_offset - (len(a) - 1))
    on = t % step == 0
    zero = t[on] == 0
    # a shift 0 without overlap sums to 0: a violation of 1
    return float(np.abs(c[on] - zero).max(initial=float(not zero.any())))


def alternating_flip(h_other: Mask) -> Mask:
    """Wavelet mask g_k = (-1)^k h_{1-k} built from the *other* side's h."""
    last = 1 - h_other.offset
    first = 1 - (h_other.offset + len(h_other) - 1)
    taps = np.array([(-1.0) ** k * h_other[1 - k] for k in range(first, last + 1)])
    return Mask(first, taps)


@dataclass(frozen=True)
class FilterBank:
    """Primal/dual refinement and wavelet masks of one biorthogonal MRA."""

    h: Mask
    g: Mask
    h_dual: Mask
    g_dual: Mask
    family: str
    p: int
    p_dual: int

    @property
    def orthogonal(self):
        return self.family.startswith("db")

    @property
    def support_length(self):
        """Support length of the primal scaling function."""
        return len(self.h) - 1

    @cached_property
    def masks_key(self):
        """The four masks, each as its offset and tap bytes: the key of the
        caches of what the masks determine, since a custom bank can share
        another's family name."""
        return tuple((m.offset, m.taps.tobytes())
                     for m in (self.h, self.g, self.h_dual, self.g_dual))


def _daubechies_mask(p: int) -> Mask:
    """Minimum-phase orthonormal mask of length 2p via spectral factorization."""
    if p == 1:
        return Mask(0, np.array([1.0, 1.0]) / SQRT2)
    # Halfband polynomial P(y) = sum_{k<p} C(p-1+k, k) y^k, y = sin^2(w/2).
    coeffs = np.array([comb(p - 1 + k, k) for k in range(p)], dtype=float)
    roots_y = np.roots(coeffs[::-1])
    # Newton polishing; P is low degree but its roots feed a product formula.
    dcoeffs = coeffs[1:] * np.arange(1, p)
    for _ in range(50):
        pv = np.polyval(coeffs[::-1], roots_y)
        dv = np.polyval(dcoeffs[::-1], roots_y)
        roots_y = roots_y - pv / dv
    # Each y-root maps to a pair (z, 1/z) via y = (2 - z - 1/z)/4; keep |z| < 1.
    roots_z = []
    for y in roots_y:
        b = 2.0 - 4.0 * y
        zs = np.roots([1.0, -b, 1.0])
        roots_z.append(zs[np.argmin(np.abs(zs))])
    roots_z = np.asarray(roots_z)
    # h(z) = c (1 + z)^p prod (z - z_i); real up to roundoff.
    poly = np.array([1.0 + 0.0j])
    for _ in range(p):
        poly = np.convolve(poly, [1.0, 1.0])
    for z in roots_z:
        poly = np.convolve(poly, [1.0, -z])
    taps = np.real(poly)
    taps *= SQRT2 / taps.sum()
    return Mask(0, taps)


def daubechies_filter(p: int) -> FilterBank:
    """Orthonormal Daubechies filter bank with p vanishing moments."""
    if not 1 <= p <= MAX_DB_ORDER:
        raise FilterError(f"daubechies order must be in 1..{MAX_DB_ORDER}, got {p}")
    h = _daubechies_mask(p)
    g = alternating_flip(h)
    return FilterBank(h=h, g=g, h_dual=h, g_dual=g, family=f"db{p}", p=p, p_dual=p)


def _bspline_mask(p: int) -> Mask:
    """Refinement mask of the centered B-spline of order p."""
    taps = np.array([comb(p, k) for k in range(p + 1)], dtype=float)
    taps *= SQRT2 / 2.0**p
    offset = -(p // 2)
    return Mask(offset, taps)


def cdf_filter(p: int, p_dual: int) -> FilterBank:
    """B-spline-primal CDF filter bank with p primal / p_dual dual moments."""
    if p < 1 or p_dual < 1:
        raise FilterError("cdf orders must be >= 1")
    if (p + p_dual) % 2 != 0:
        raise FilterError(f"cdf orders must have equal parity, got ({p}, {p_dual})")
    if p + p_dual > MAX_CDF_ORDER:
        raise FilterError(f"cdf orders capped at p + pdual <= {MAX_CDF_ORDER}")
    h = _bspline_mask(p)
    # Dual mask: centered binomial of order p_dual times the polynomial factor
    # sum_{k<L} C(L-1+k, k) y^k with y represented by taps (-1, 2, -1)/4.
    L = (p + p_dual) // 2
    y = {-1: -0.25, 0: 0.5, 1: -0.25}
    poly = {0: 1.0}   # accumulates P(y) as taps
    ypow = {0: 1.0}
    for k in range(1, L):
        new = {}
        for i, a in ypow.items():
            for j, b in y.items():
                new[i + j] = new.get(i + j, 0.0) + a * b
        ypow = new
        c = float(comb(L - 1 + k, k))
        for i, a in ypow.items():
            poly[i] = poly.get(i, 0.0) + c * a
    lo, hi = min(poly), max(poly)
    poly_taps = np.array([poly.get(i, 0.0) for i in range(lo, hi + 1)])
    binom = _bspline_mask(p_dual)
    taps = np.convolve(binom.taps, poly_taps)
    hd = Mask(binom.offset + lo, taps)
    g = alternating_flip(hd)
    gd = alternating_flip(h)
    return FilterBank(h=h, g=g, h_dual=hd, g_dual=gd,
                      family=f"cdf{p}{p_dual}", p=p, p_dual=p_dual)


_FAMILY_CACHE = {}


def filter_bank(name: str) -> FilterBank:
    """Look up a filter bank by name, e.g. 'db2' or 'cdf33'."""
    if name not in _FAMILY_CACHE:
        if name.startswith("db"):
            bank = daubechies_filter(int(name[2:]))
        elif name.startswith("cdf") and len(name) == 5:
            bank = cdf_filter(int(name[3]), int(name[4]))
        else:
            raise FilterError(f"unknown filter family {name!r}")
        _FAMILY_CACHE[name] = bank
    return _FAMILY_CACHE[name]


@dataclass
class ValidationReport:
    passed: bool
    checks: dict = field(default_factory=dict)


def validate(bank: FilterBank, tol: float = 1e-12) -> ValidationReport:
    """Check biorthogonality, flip relations, and moment counts of a bank."""
    checks = {}

    viol = delta_violation(bank.h.taps, bank.h.offset, bank.h_dual.taps,
                           bank.h_dual.offset, 2)
    checks["double_shift"] = {"pass": viol < tol, "max_violation": viol}

    def flip_violation(g, h_other):
        lo = min(g.offset, 1 - (h_other.offset + len(h_other) - 1))
        hi = max(g.offset + len(g) - 1, 1 - h_other.offset)
        return max(abs(g[k] - (-1.0) ** k * h_other[1 - k]) for k in range(lo, hi + 1))

    v1 = flip_violation(bank.g, bank.h_dual)
    v2 = flip_violation(bank.g_dual, bank.h)
    checks["alternating_flip"] = {"pass": max(v1, v2) == 0.0, "max_violation": max(v1, v2)}

    ssum = abs(bank.h.moment(0) - SQRT2)
    dsum = abs(bank.h_dual.moment(0) - SQRT2)
    checks["mask_sums"] = {"pass": max(ssum, dsum) < tol, "max_violation": max(ssum, dsum)}

    # g annihilates monomials up to the dual moment count and vice versa.
    mtol = max(tol, 1e-10)
    gm = max((abs(bank.g.moment(m)) for m in range(bank.p_dual)), default=0.0)
    gdm = max((abs(bank.g_dual.moment(m)) for m in range(bank.p)), default=0.0)
    checks["vanishing_moments"] = {"pass": max(gm, gdm) < mtol, "max_violation": max(gm, gdm)}

    return ValidationReport(passed=all(c["pass"] for c in checks.values()), checks=checks)
