import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.cascade import (CascadeError, refine, scaling_at_dyadic,
                            scaling_at_integers, wavelet_at_dyadic)
from wavext.filters import SQRT2, Mask, filter_bank

from support import ALL_FAMILIES, banks


def test_haar_integers():
    s = scaling_at_integers(filter_bank("db1").h)
    # left-continuous box: phi(0) = 1, phi(1) = 0
    assert s.level == 0
    vals = dict(zip(s.support_start + np.arange(s.values.size), s.values))
    assert vals.get(0, 0.0) == pytest.approx(1.0)
    assert all(abs(v) < 1e-14 for k, v in vals.items() if k != 0)


def test_hat_integers():
    s = scaling_at_integers(filter_bank("cdf22").h)
    grid = s.support_start + np.arange(s.values.size)
    vals = dict(zip(grid, s.values))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(vals.get(-1, 0.0)) < 1e-12 and abs(vals.get(1, 0.0)) < 1e-12


def test_db2_integers_eigen_oracle():
    """Independent dense eigen-solve of the 4x4 refinement matrix."""
    h = filter_bank("db2").h
    pts = np.arange(0, 4)   # support [0, 3], integer points 0..3
    T = np.array([[SQRT2 * h[2 * i - j] for j in pts] for i in pts])
    w, V = np.linalg.eig(T)
    i = np.argmin(np.abs(w - 1.0))
    v = np.real(V[:, i])
    v /= v.sum()
    s = scaling_at_integers(h)
    mine = np.zeros(4)
    start = int(s.start_index)
    mine[start: start + s.values.size] = s.values
    np.testing.assert_allclose(mine, v, atol=1e-12)
    assert mine[1] == pytest.approx(1.36603, abs=1e-5)
    assert mine[2] == pytest.approx(-0.36603, abs=1e-5)


def test_refine_hat():
    s = scaling_at_integers(filter_bank("cdf22").h)
    s1 = refine(s, filter_bank("cdf22").h)
    assert s1.level == 1
    np.testing.assert_allclose(s1.values, [0.0, 0.5, 1.0, 0.5, 0.0],
                               atol=1e-14)


def test_refine_haar():
    s = refine(scaling_at_integers(filter_bank("db1").h), filter_bank("db1").h)
    vals = dict(zip(s.start_index + np.arange(s.values.size), s.values))
    assert vals.get(1, 0.0) == pytest.approx(1.0)   # phi(1/2) = 1


def test_db2_partition_of_unity_fine():
    """Two-scale refinements must reproduce partition of unity and linear
    polynomial exactness at every dyadic point (independent algebraic oracle
    for the refine path)."""
    h = filter_bank("db2").h
    s = scaling_at_dyadic(h, 4)
    step = 16
    grid = s.start_index + np.arange(s.values.size)
    for frac in range(step):
        idx = np.flatnonzero(grid % step == frac)
        assert abs(s.values[idx].sum() - 1.0) < 1e-10
        # linear reproduction: sum_k k phi(x - k) = x - mu for constant mu
        ks = (grid[idx] - frac) / step
        moments = -np.sum(ks * s.values[idx])
        x = frac / step
        if frac == 0:
            mu = moments - x
        assert abs((moments - x) - mu) < 1e-10


def test_wavelet_haar():
    s = wavelet_at_dyadic(filter_bank("db1"), 2)
    vals = dict(zip(s.grid, s.values))
    assert vals[0.0] == pytest.approx(1.0)
    assert vals[0.25] == pytest.approx(1.0)
    assert vals[0.5] == pytest.approx(-1.0)
    assert vals[0.75] == pytest.approx(-1.0)


def test_wavelet_db2_zero_moment():
    s = wavelet_at_dyadic(filter_bank("db2"), 6)
    assert abs(s.values.sum() / 2 ** 6) < 1e-8


def test_wavelet_cdf22_support():
    s = wavelet_at_dyadic(filter_bank("cdf22"), 2)
    nz = np.flatnonzero(np.abs(s.values) > 1e-13)
    width = (nz[-1] - nz[0]) / 2 ** 2
    # support width (len(h) + len(g) - 2) / 2 = (2 + 4) / 2 = 3
    assert width <= 3.0 + 1e-12


def test_degenerate_mask_multiplicity():
    # refinement matrix is the permutation (0)(1 2): eigenvalue 1 twice
    bad = Mask(0, np.array([1 / SQRT2, 0.0, 0.0, 1 / SQRT2]))
    with pytest.raises(CascadeError):
        scaling_at_integers(bad)


def test_daubechies_support_length(banks):
    for p in (2, 3, 4):
        s = scaling_at_integers(banks[f"db{p}"].h)
        nz = np.flatnonzero(np.abs(s.values) > 1e-12)
        assert nz[-1] - nz[0] + 1 >= 2 * p - 2


@given(fam=st.sampled_from(ALL_FAMILIES), j=st.integers(min_value=0, max_value=4))
@settings(max_examples=20, deadline=None)
def test_partition_of_unity_property(fam, j):
    h = filter_bank(fam).h
    s = scaling_at_dyadic(h, j)
    step = 2 ** j
    grid = s.start_index + np.arange(s.values.size)
    for frac in range(step):
        total = s.values[grid % step == frac].sum()
        assert abs(total - 1.0) < 1e-8


@given(fam=st.sampled_from(ALL_FAMILIES))
@settings(max_examples=10, deadline=None)
def test_refine_consistency_property(fam):
    """Level-0 eigen then j refinements agrees with a direct refinement of the
    level-(j-1) samples; integer subsamples stay fixed."""
    h = filter_bank(fam).h
    s0 = scaling_at_integers(h)
    s2 = refine(refine(s0, h), h)
    grid = s2.start_index + np.arange(s2.values.size)
    ints = grid % 4 == 0
    sub = s2.values[ints]
    full = np.zeros_like(sub)
    g0 = s0.support_start + np.arange(s0.values.size)
    for k, v in zip(g0, s0.values):
        pos = np.flatnonzero(grid[ints] // 4 == k)
        if pos.size:
            full[pos[0]] = v
    np.testing.assert_allclose(sub, full, atol=1e-10)
