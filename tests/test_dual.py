import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.cascade import scaling_at_dyadic
from wavext.dual import (DualError, dual_pair, least_norm_dual, minimal_dual,
                         pairing_residual, sample_primal)
from wavext.filters import filter_bank

from support import DUAL_COMBOS, periodize_dual, periodize_primal


def test_haar_samples_and_dual():
    b = sample_primal(filter_bank("db1"), 2)
    np.testing.assert_allclose(b.b, [1.0, 1.0])
    d = minimal_dual(b)
    np.testing.assert_allclose(d.b_dual, [0.5, 0.5], atol=1e-14)


def test_hat_samples():
    b = sample_primal(filter_bank("cdf22"), 2)
    np.testing.assert_allclose(b.b, [0.5, 1.0, 0.5], atol=1e-14)
    assert b.offset == -1


def test_db2_q4_samples_match_cascade():
    b = sample_primal(filter_bank("db2"), 4)
    s = scaling_at_dyadic(filter_bank("db2").h, 2)
    nz = np.flatnonzero(np.abs(s.values) > 1e-14)
    # left-continuous endpoint phi(0) = 0 drops one of the 12 grid samples
    assert b.b.size == 11
    np.testing.assert_allclose(b.b, s.values[nz[0]: nz[-1] + 1], atol=1e-14)


def test_all_combo_residuals():
    for fam, q in DUAL_COMBOS:
        b, d = dual_pair(filter_bank(fam), q)
        assert pairing_residual(b, d) < 1e-10, (fam, q)


def test_least_norm_monotone():
    b = sample_primal(filter_bank("cdf42"), 2)
    dmin = minimal_dual(b)
    bigger = least_norm_dual(b, dmin.b_dual.size + 2 * b.q + 2)
    assert bigger.norm <= dmin.norm + 1e-12
    assert pairing_residual(b, bigger) < 1e-10


def test_haar_least_norm_support4():
    b = sample_primal(filter_bank("db1"), 2)
    d = least_norm_dual(b, 4)
    assert d.norm <= 1 / np.sqrt(2.0) + 1e-12


def test_daubechies_duals_larger():
    cdf_norm = max(dual_pair(filter_bank(n), 2)[1].norm
                   for n in ("cdf22", "cdf33", "cdf42"))
    assert dual_pair(filter_bank("db3"), 2)[1].norm > cdf_norm


def test_nondyadic_daubechies_rejected():
    with pytest.raises(DualError):
        sample_primal(filter_bank("db2"), 3)
    with pytest.raises(DualError):
        sample_primal(filter_bank("db2"), 1)


def test_periodized_gram_identity():
    """Brute-force N x N discrete Gram of primal vs dual equals identity."""
    bank = filter_bank("cdf22")
    N, q = 64, 2
    b, d = dual_pair(bank, q)
    prow = periodize_primal(b, N)
    drow = periodize_dual(d, N, q)
    P = np.stack([np.roll(prow, k * q) for k in range(N)])
    D = np.stack([np.roll(drow, k * q) for k in range(N)])
    assert np.abs(D @ P.T - np.eye(N)).max() < 1e-10


def test_periodized_shift_covariance():
    bank = filter_bank("cdf33")
    b, d = dual_pair(bank, 2)
    row = periodize_dual(d, 16, 2)
    # row k of the dual table is row 0 shifted by kq: trivially true of the
    # construction; check the pairing against shifted primals instead
    prow = periodize_primal(b, 16)
    for k in range(16):
        ip = np.dot(np.roll(row, 6 * 2), np.roll(prow, k * 2))
        assert abs(ip - (1.0 if k == 6 else 0.0)) < 1e-12


def test_quasi_interpolation_reproduction():
    """P f = f for f in the span of the periodized primal translates."""
    bank = filter_bank("cdf33")
    N, q = 32, 2
    b, d = dual_pair(bank, q)
    prow = periodize_primal(b, N)
    drow = periodize_dual(d, N, q)
    P = np.stack([np.roll(prow, k * q) for k in range(N)])
    D = np.stack([np.roll(drow, k * q) for k in range(N)])
    rng = np.random.default_rng(3)
    c = rng.standard_normal(N)
    f = P.T @ c              # samples of sum_k c_k phi_k on the fine grid
    np.testing.assert_allclose(D @ f, c, atol=1e-10)


def test_support_exceeds_grid():
    bank = filter_bank("db4")
    b, d = dual_pair(bank, 4)
    with pytest.raises(DualError):
        periodize_dual(d, 4, 4)


@given(combo=st.sampled_from(DUAL_COMBOS), seed=st.integers(0, 99))
@settings(max_examples=20, deadline=None)
def test_reproduction_property(combo, seed):
    fam, q = combo
    bank = filter_bank(fam)
    b, d = dual_pair(bank, q)
    N = 64
    prow = periodize_primal(b, N)
    drow = periodize_dual(d, N, q)
    c = np.random.default_rng(seed).standard_normal(N)
    f = np.zeros(N * q)
    for k in range(N):
        f += c[k] * np.roll(prow, k * q)
    rec = np.array([np.dot(np.roll(drow, k * q), f) for k in range(N)])
    assert np.abs(rec - c).max() < 1e-9 * max(1.0, np.abs(c).max())
