import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.filters import (SQRT2, FilterBank, FilterError, Mask,
                            alternating_flip, cdf_filter, daubechies_filter,
                            filter_bank, validate)

from support import ALL_FAMILIES, banks


def double_shift_violation(h, ht):
    worst = 0.0
    span = len(h) + len(ht)
    for n in range(-span, span + 1):
        s = sum(h[k] * ht[k + 2 * n]
                for k in range(h.offset - abs(2 * n),
                               h.offset + len(h) + abs(2 * n)))
        worst = max(worst, abs(s - (1.0 if n == 0 else 0.0)))
    return worst


def test_haar_closed_form():
    bank = daubechies_filter(1)
    assert bank.h.offset == 0
    np.testing.assert_allclose(bank.h.taps, [1 / SQRT2, 1 / SQRT2])
    assert bank.orthogonal


def test_db2_closed_form():
    s3 = np.sqrt(3.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * SQRT2)
    bank = daubechies_filter(2)
    np.testing.assert_allclose(bank.h.taps, expected, atol=1e-14)
    # two vanishing moments of the wavelet
    for m in range(2):
        assert abs(bank.g.moment(m)) < 1e-10


def test_db3_six_taps():
    bank = daubechies_filter(3)
    assert len(bank.h) == 6
    assert double_shift_violation(bank.h, bank.h_dual) < 1e-12


def test_cdf11_is_haar():
    bank = cdf_filter(1, 1)
    np.testing.assert_allclose(bank.h.taps, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    np.testing.assert_allclose(bank.h_dual.taps, bank.h.taps, atol=1e-15)


def test_cdf22_masks():
    bank = cdf_filter(2, 2)
    np.testing.assert_allclose(bank.h.taps,
                               np.array([1, 2, 1]) / (2 * SQRT2), atol=1e-14)
    np.testing.assert_allclose(bank.h_dual.taps,
                               np.array([-1, 2, 6, 2, -1]) / (4 * SQRT2),
                               atol=1e-14)


def test_cdf22_dual_oracle():
    """Independent oracle: centered length-5 mask solving biorthogonality +
    normalization + dual vanishing-moment conditions is unique."""
    bank = cdf_filter(2, 2)
    h = bank.h
    # unknowns ht_{-2..2}; rows: double-shift for n=-1,0,1; sum; 2 moments of g~
    ks = np.arange(-2, 3)
    rows = [[h[k - 2 * n] for k in ks] for n in (-1, 0, 1)]
    rhs = [0.0, 1.0, 0.0]
    rows.append([1.0] * 5); rhs.append(SQRT2)
    # g~_k = (-1)^k h_{1-k} annihilates degree-0 and 1 <=> moment conds on ht:
    # sum (-1)^k ht_k k^m = 0 for m = 0, 1
    for m in range(2):
        rows.append([(-1.0) ** k * k ** m for k in ks]); rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    np.testing.assert_allclose(bank.h_dual.taps, sol, atol=1e-12)


def test_cdf33_primal_binomial():
    bank = cdf_filter(3, 3)
    np.testing.assert_allclose(bank.h.taps,
                               np.array([1, 3, 3, 1]) / (4 * SQRT2), atol=1e-14)
    assert abs(bank.h.moment(0) - SQRT2) < 1e-14


def test_cdf_parity_rejected():
    with pytest.raises(FilterError):
        cdf_filter(2, 3)


def test_caps():
    with pytest.raises(FilterError):
        daubechies_filter(11)
    with pytest.raises(FilterError):
        cdf_filter(6, 8)


def test_unknown_family_name():
    with pytest.raises(FilterError):
        filter_bank("sym4")


def test_validate_all_shipped(banks):
    for name, bank in banks.items():
        report = validate(bank, 1e-12)
        assert report.passed, (name, report.checks)


def test_validate_detects_perturbation():
    bank = daubechies_filter(2)
    taps = np.array(bank.h.taps, dtype=float)
    taps[1] += 1e-3
    bad = FilterBank(h=Mask(bank.h.offset, taps), g=bank.g,
                     h_dual=bank.h_dual, g_dual=bank.g_dual,
                     family=bank.family, p=bank.p, p_dual=bank.p_dual)
    report = validate(bad, 1e-12)
    assert not report.checks["double_shift"]["pass"]
    assert 1e-5 < report.checks["double_shift"]["max_violation"] < 1e-1


def test_alternating_flip_exact(banks):
    for bank in banks.values():
        for g, other in ((bank.g, bank.h_dual), (bank.g_dual, bank.h)):
            for k in range(g.offset, g.offset + len(g)):
                assert g[k] == (-1.0) ** k * other[1 - k]


@given(p=st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_daubechies_property(p):
    bank = daubechies_filter(p)
    assert len(bank.h) == 2 * p
    assert double_shift_violation(bank.h, bank.h_dual) < 1e-12
    assert abs(bank.h.moment(0) - SQRT2) < 1e-12
    for m in range(p):
        # relative to the alternating sum's own magnitude: k^m grows fast
        scale = sum(abs(bank.g[k]) * abs(k) ** m
                    for k in range(bank.g.offset, bank.g.offset + len(bank.g)))
        assert abs(bank.g.moment(m)) < 1e-11 * max(scale, 1.0)


@given(p=st.integers(min_value=1, max_value=5),
       extra=st.integers(min_value=0, max_value=3))
@settings(max_examples=15, deadline=None)
def test_cdf_property(p, extra):
    pd = p + 2 * extra
    if pd < 1 or p + pd > 12:
        return
    bank = cdf_filter(p, pd)
    assert double_shift_violation(bank.h, bank.h_dual) < 1e-12
    # primal mask is exactly the scaled binomial
    from math import comb
    binom = np.array([comb(p, k) for k in range(p + 1)], dtype=float)
    np.testing.assert_allclose(bank.h.taps, binom * SQRT2 / 2 ** p, atol=1e-15)
