import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.dwt import (TransformError, TransformPlan, column_filters_periodized,
                        column_scale, dense_matrix, dual_dwt, dual_idwt, dwt,
                        idwt, idwt_column_filters, operator_norms,
                        sparse_idwt_rows)
from wavext.filters import filter_bank

from support import ALL_FAMILIES, banks


def test_haar_constant_vector():
    plan = TransformPlan(filter_bank("db1"), 2)
    out = dwt(np.ones(4), plan)
    np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_haar_w2_matrix():
    """Hand-built 4-point orthogonal Haar analysis matrix."""
    plan = TransformPlan(filter_bank("db1"), 2)
    W = dense_matrix(plan)
    s = 1 / np.sqrt(2.0)
    expected = np.array([
        [0.5, 0.5, 0.5, 0.5],      # v00
        [0.5, 0.5, -0.5, -0.5],    # w00
        [s, -s, 0, 0],             # w10
        [0, 0, s, -s],             # w11
    ])
    np.testing.assert_allclose(W, expected, atol=1e-14)
    np.testing.assert_allclose(W @ W.T, np.eye(4), atol=1e-14)


def test_zero_maps_to_zero(banks):
    for bank in banks.values():
        plan = TransformPlan(bank, 5)
        assert not dwt(np.zeros(32), plan).any()


def test_perfect_reconstruction_large(banks):
    rng = np.random.default_rng(0)
    for name in ("db2", "cdf33"):
        plan = TransformPlan(banks[name], 16)
        v = rng.standard_normal(2 ** 16)
        err = np.abs(idwt(dwt(v, plan), plan) - v).max()
        assert err < 1e-10, (name, err)


def test_scaling_slot_gives_constant():
    plan = TransformPlan(filter_bank("cdf22"), 6)
    e = np.zeros(64)
    e[0] = 1.0
    out = idwt(e, plan)
    assert np.abs(out - out[0]).max() < 1e-12


def test_idwt_matches_dense():
    bank = filter_bank("db3")
    plan = TransformPlan(bank, 8)
    Winv = dense_matrix(plan, inverse=True)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(256)
    np.testing.assert_allclose(idwt(w, plan), Winv @ w, atol=1e-12)


def test_dual_transform_identities():
    for name in ("cdf22", "cdf35"):
        bank = filter_bank(name)
        n = 256
        W = dense_matrix(TransformPlan(bank, 8))
        Wd = dense_matrix(TransformPlan(bank, 8, "dual"))
        Winv = dense_matrix(TransformPlan(bank, 8), inverse=True)
        # W* = Wdual^{-1}  and  (W^{-1})* = Wdual
        assert np.abs(W.T @ Wd - np.eye(n)).max() < 1e-12
        assert np.abs(Winv.T - Wd).max() < 1e-12


def test_orthogonal_dual_is_primal():
    bank = filter_bank("db2")
    v = np.random.default_rng(2).standard_normal(64)
    np.testing.assert_allclose(dwt(v, TransformPlan(bank, 6)),
                               dual_dwt(v, bank, 6), atol=1e-14)
    np.testing.assert_allclose(idwt(v, TransformPlan(bank, 6)),
                               dual_idwt(v, bank, 6), atol=1e-14)


def test_lemma1_column_nonzeros():
    """Per-column nonzeros of W grow O(J); total nnz is O(J 2^J)."""
    maxima, totals = [], []
    Js = range(6, 13)
    for J in Js:
        W = dense_matrix(TransformPlan(filter_bank("db2"), J))
        nz = np.abs(W) > 1e-14
        maxima.append(nz.sum(axis=0).max())
        totals.append(nz.sum() / (J * 2 ** J))
    slope = np.polyfit(np.log(list(Js)), np.log(maxima), 1)[0]
    assert 0.8 <= slope <= 1.2, (slope, maxima)
    assert max(totals) < 8.0


def test_column_filters_match_dense():
    for name in ("db2", "cdf33"):
        bank = filter_bank(name)
        J = 6
        n = 2 ** J
        Winv = dense_matrix(TransformPlan(bank, J), inverse=True)
        filt = column_filters_periodized(bank, J)
        for idx in range(n):
            l, m = column_scale(idx, J)
            base = filt[J] if idx == 0 else filt[l]
            col = np.roll(base, m * 2 ** (J - l)) if idx else base
            np.testing.assert_allclose(Winv[:, idx], col, atol=1e-12)


def test_column_filters_haar_j2():
    filt = idwt_column_filters(filter_bank("db1"), 2)
    s = 1 / np.sqrt(2.0)
    np.testing.assert_allclose(filt[0][1], [0.5, 0.5, -0.5, -0.5], atol=1e-14)
    np.testing.assert_allclose(filt[1][1], [s, -s], atol=1e-14)
    np.testing.assert_allclose(filt[2][1], [0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_sparse_rows_match_dense():
    for name in ("db2", "cdf42"):
        bank = filter_bank(name)
        J = 7
        Winv = dense_matrix(TransformPlan(bank, J), inverse=True)
        S = sparse_idwt_rows(np.arange(2 ** J), bank, J)
        assert np.abs(S.toarray() - Winv).max() < 1e-12


def test_sparse_rows_empty():
    S = sparse_idwt_rows(np.array([], dtype=int), filter_bank("db2"), 6)
    assert S.shape == (0, 64) and S.nnz == 0


def test_sparse_rows_nnz_linear_in_J():
    bank = filter_bank("cdf33")
    for J in (6, 8, 10):
        rows = np.array([0, 1, 5, 2 ** J - 1])
        S = sparse_idwt_rows(rows, bank, J)
        assert S.nnz <= rows.size * 6 * J


def test_operator_norms_dual_blowup():
    """With fewer dual than primal vanishing moments the dual transform norm
    exceeds the primal analysis norm."""
    norms = operator_norms(filter_bank("cdf51"), 10)
    # the primal analysis applies the dual masks, so it carries the blow-up
    assert norms["W"] > 100.0 > norms["Wdual"]
    balanced = operator_norms(filter_bank("db2"), 10)
    assert abs(balanced["W"] - 1.0) < 1e-6   # orthogonal: all norms 1


def test_bad_lengths():
    plan = TransformPlan(filter_bank("db2"), 4)
    with pytest.raises(TransformError):
        dwt(np.zeros(15), plan)
    with pytest.raises(TransformError):
        TransformPlan(filter_bank("db2"), 0)
    with pytest.raises(TransformError):
        dense_matrix(TransformPlan(filter_bank("db1"), 13))


@given(fam=st.sampled_from(ALL_FAMILIES),
       J=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=30, deadline=None)
def test_perfect_reconstruction_property(fam, J, seed):
    bank = filter_bank(fam)
    v = np.random.default_rng(seed).standard_normal(2 ** J)
    plan = TransformPlan(bank, J)
    assert np.abs(idwt(dwt(v, plan), plan) - v).max() < 1e-10
    dplan = TransformPlan(bank, J, "dual")
    assert np.abs(idwt(dwt(v, dplan), dplan) - v).max() < 1e-10


@given(fam=st.sampled_from(["db2", "cdf33"]),
       J=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=15, deadline=None)
def test_adjoint_identity_property(fam, J, seed):
    """<W x, y> = <x, Wdual^{-1} y> for random vectors."""
    bank = filter_bank(fam)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 2 ** J))
    plan = TransformPlan(bank, J)
    dplan = TransformPlan(bank, J, "dual")
    lhs = np.dot(dwt(x, plan), y)
    rhs = np.dot(x, idwt(y, dplan))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
