"""Shared test constants, oracles and the ``banks`` fixture.

Test modules import these by name.  They live outside ``conftest.py``
because the benchmark's tests (``perfbench/tests``) import from a module of
that name too, and one session can hold only one ``conftest`` module.
"""

import numpy as np
import pytest
import scipy.sparse.linalg

from wavext import az
from wavext.dwt import idwt_column_filters
from wavext.filters import filter_bank
from wavext.solvers import DEFAULT_TOL, randomized_lowrank_solve

ALL_FAMILIES = ["db1", "db2", "db3", "db4", "cdf22", "cdf31", "cdf33",
                "cdf35", "cdf42", "cdf51"]
DUAL_COMBOS = [(fam, q) for fam in
               ["db2", "db3", "db4", "cdf22", "cdf31", "cdf33", "cdf35",
                "cdf42", "cdf51"] for q in (2, 4)]


@pytest.fixture(scope="session")
def banks():
    return {name: filter_bank(name) for name in ALL_FAMILIES}


def brute_force_K(grid, bank):
    """Independent O(N * support) scaling-boundary oracle by explicit loops."""
    from wavext.dual import dual_pair

    d = grid.dimension
    supports = []
    for n, q in zip(grid.N, grid.q):
        b, _ = dual_pair(bank, q)
        nz = b.offset + np.nonzero(b.b)[0]
        supports.append([nz % (n * q)])
    inside = grid.inside_bool
    out = []
    for k in np.ndindex(*grid.N):
        pts = np.meshgrid(*[(s[0] + ki * qi) % (ni * qi)
                            for s, ki, ni, qi in
                            zip(supports, k, grid.N, grid.q)], indexing="ij")
        vals = inside[tuple(p.ravel() for p in pts)]
        if vals.any() and not vals.all():
            out.append(np.ravel_multi_index(k, grid.N))
    return np.array(sorted(out), dtype=int)


def reference_analysis_step(v, h, g):
    """Per-tap periodic analysis step by index arithmetic modulo n: the
    oracle of ``wavext.dwt._analysis_step``."""
    n = v.shape[-1]
    half = n // 2
    vc = np.zeros(v.shape[:-1] + (half,), dtype=v.dtype)
    wc = np.zeros_like(vc)
    base = 2 * np.arange(half)
    for mask, out in ((h, vc), (g, wc)):
        for ti, c in enumerate(mask.taps):
            t = mask.offset + ti
            out += c * v[..., (base + t) % n]
    return vc, wc


def reference_synthesis_step(v, w, h, g):
    """Per-tap periodic synthesis step by scattering modulo n: the oracle of
    ``wavext.dwt._synthesis_step``."""
    half = v.shape[-1]
    n = 2 * half
    out = np.zeros(v.shape[:-1] + (n,), dtype=np.result_type(v, w))
    idx = 2 * np.arange(half)
    for mask, coarse in ((h, v), (g, w)):
        for ti, c in enumerate(mask.taps):
            t = mask.offset + ti
            # indices 2l + t are pairwise distinct mod n for fixed t
            out[..., (idx + t) % n] += c * coarse
    return out


def wavelet_boundary_set_intervals(kflags, bank, N):
    """Support-arithmetic oracle of ``wavext.domain.wavelet_boundary_set``:
    each column's circular support interval against prefix counts of the
    scaling flags, per axis."""
    flags = np.asarray(kflags, dtype=bool).reshape(N)
    for ax, n in enumerate(N):
        J = n.bit_length() - 1
        sup = [(off % n, min(taps.size, n))
               for off, taps in idwt_column_filters(bank, J)]
        cur = np.moveaxis(flags, ax, -1)
        out = np.zeros_like(cur)
        csum = np.concatenate(
            [np.zeros(cur.shape[:-1] + (1,), dtype=int),
             np.cumsum(np.concatenate([cur, cur], axis=-1), axis=-1)], axis=-1)
        for idx in range(n):
            if idx == 0:
                start, length = sup[J]
            else:
                l = idx.bit_length() - 1
                start, length = sup[l]
                start = (start + (idx - 2**l) * 2 ** (J - l)) % n
            out[..., idx] = (csum[..., start + length] - csum[..., start]) > 0
        flags = np.moveaxis(out, -1, ax)
    return np.flatnonzero(flags.ravel()), flags


def estimate_rank(op, tol=DEFAULT_TOL, seed=0, max_rank=None, scale=None):
    """Numerical rank of an operator via the adaptive randomized solver path."""
    op = scipy.sparse.linalg.aslinearoperator(op)
    b = np.zeros(op.shape[0])
    return randomized_lowrank_solve(op, b, tol=tol, seed=seed,
                                    max_rank=max_rank, scale=scale).rank


def plunge_rank(problem, tol=DEFAULT_TOL, seed=0):
    """Numerical rank of the plunge operator by randomized range estimation."""
    return estimate_rank(az.plunge_operator(problem), tol=tol, seed=seed,
                         scale=az._reference_scale(problem))


def reference_scaling_plunge(problem):
    """The global A_hat - A_hat Z_hat* A_hat over every column, pruned like
    ``wavext.az.scaling_plunge``: the oracle of its boundary-local form."""
    Ah, Zh = problem.scaling.A_hat, problem.scaling.Z_hat
    return az._prune(Ah - Ah @ (Zh.T @ Ah))
