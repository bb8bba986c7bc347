"""Dyadic-point evaluation of scaling and wavelet functions from their masks.

Values at integer points come from the eigenvalue-1 eigenvector of the
refinement matrix; finer dyadic levels follow by repeated application of the
two-scale relation.  Sample values are normalized so that the integer samples
of the father function sum to 1.

Convention: functions are evaluated as left-continuous, so the right endpoint
of the support always samples to zero (Haar: phi(0)=1, phi(1)=0).
"""

from dataclasses import dataclass

import numpy as np

from .filters import SQRT2, FilterBank, Mask


class CascadeError(ValueError):
    pass


@dataclass(frozen=True)
class DyadicSamples:
    """Samples f((start_index + m) / 2**level) for m = 0 .. len(values)-1.

    ``start_index`` is an integer on the level's dyadic grid, i.e. the support
    starts at t = start_index / 2**level.
    """

    level: int
    start_index: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)

    @property
    def support_start(self):
        return self.start_index / 2.0**self.level

    @property
    def grid(self):
        return (self.start_index + np.arange(self.values.size)) / 2.0**self.level

    def __call__(self, t):
        """Value at dyadic points of this level's resolution (0 outside)."""
        m = np.asarray(t) * 2.0**self.level - self.start_index
        idx = np.rint(m).astype(int)
        if not np.allclose(m, idx, atol=1e-9):
            raise CascadeError("point is not on the dyadic grid of this level")
        out = np.zeros(idx.shape)
        ok = (idx >= 0) & (idx < self.values.size)
        out[ok] = self.values[idx[ok]]
        return out if out.ndim else float(out)


def scaling_at_integers(h: Mask) -> DyadicSamples:
    """Integer samples of the father function of mask h (level-0 samples)."""
    k1, k2 = h.support
    n = k2 - k1  # points k1 .. k2-1; phi(k2) = 0 by left continuity
    if n == 0:
        raise CascadeError("mask support too short")
    # Refinement matrix T(i, j) = sqrt(2) h_{2i - j} on the integer support.
    pts = np.arange(k1, k2)
    T = SQRT2 * np.array([[h[2 * i - j] for j in pts] for i in pts])
    mult = int(np.sum(np.abs(np.linalg.eigvals(T) - 1.0) < 1e-8))
    if mult != 1:
        raise CascadeError(f"eigenvalue-1 eigenspace has multiplicity {mult}")
    # Shifted inverse iteration with a deterministic start vector.
    A = T - (1.0 + 1e-9) * np.eye(n)
    v = np.ones(n)
    for _ in range(100):
        w = np.linalg.solve(A, v)
        w /= np.linalg.norm(w)
        done = np.linalg.norm(T @ w - w) < 1e-14
        v = w
        if done:
            break
    v = v / v.sum()  # integer samples sum to 1  (int phi = 1 normalization)
    values = np.zeros(k2 - k1 + 1)
    values[:-1] = v
    return DyadicSamples(level=0, start_index=k1, values=values)


def refine(samples: DyadicSamples, h: Mask) -> DyadicSamples:
    """One two-scale refinement step: level-j samples to level-(j+1) samples."""
    j = samples.level
    s = samples.start_index
    old = samples.values
    n_new = 2 * (old.size - 1) + 1
    new = np.zeros(n_new)
    # phi((2s + k) / 2^{j+1}) = sqrt(2) sum_l h_l phi((s + k - l 2^j) / 2^j)
    k = np.arange(n_new)
    for li, hl in enumerate(h.taps):
        l = h.offset + li
        m = s + k - l * 2**j
        ok = (m >= 0) & (m < old.size)
        new[k[ok]] += SQRT2 * hl * old[m[ok]]
    return DyadicSamples(level=j + 1, start_index=2 * s, values=new)


def scaling_at_dyadic(h: Mask, j: int) -> DyadicSamples:
    """Father function samples at resolution 2**-j."""
    s = scaling_at_integers(h)
    for _ in range(j):
        s = refine(s, h)
    return s


def wavelet_at_dyadic(bank: FilterBank, j: int) -> DyadicSamples:
    """Mother function samples at resolution 2**-j (j >= 1)."""
    if j < 1:
        raise CascadeError("wavelet evaluation needs level j >= 1")
    h, g = bank.h, bank.g
    phi = scaling_at_dyadic(h, j - 1)
    k1, k2 = g.support
    p1, p2 = h.support
    # psi(t) = sqrt(2) sum_k g_k phi(2t - k), support [(k1+p1)/2, (k2+p2)/2].
    w1 = (k1 + p1) * 2 ** (j - 1)
    n = (k2 + p2 - k1 - p1) * 2 ** (j - 1) + 1
    values = np.zeros(n)
    m = np.arange(n)
    for gi, gk in enumerate(g.taps):
        k = g.offset + gi
        pm = m + (k1 - k) * 2 ** (j - 1)
        ok = (pm >= 0) & (pm < phi.values.size)
        values[m[ok]] += SQRT2 * gk * phi.values[pm[ok]]
    return DyadicSamples(level=j, start_index=w1, values=values)
