"""Shared test constants, oracles and the ``banks`` fixture.

Test modules import these by name.  They live outside ``conftest.py``
because the benchmark's tests (``perfbench/tests``) import from a module of
that name too, and one session can hold only one ``conftest`` module.
"""

import numpy as np
import pytest

from wavext.filters import filter_bank

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
