import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse

from wavext import dwt as dwt_mod
from wavext.dwt import (TransformError, TransformPlan, dwt, idwt,
                        idwt_column_filters, operator_norms, sparse_idwt_rows)
from wavext.filters import filter_bank
from wavext.system import FrameOperator

from support import (ALL_FAMILIES, banks, dense_matrix,
                     reference_analysis_step, reference_synthesis_step,
                     selected_winv_rows)


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
                               dwt(v, TransformPlan(bank, 6, "dual")),
                               atol=1e-14)
    np.testing.assert_allclose(idwt(v, TransformPlan(bank, 6)),
                               idwt(v, TransformPlan(bank, 6, "dual")),
                               atol=1e-14)


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
        # each filter periodized to length n, scale order as returned
        filt = []
        for off, taps in idwt_column_filters(bank, J):
            filt.append(np.zeros(n))
            np.add.at(filt[-1], (off + np.arange(taps.size)) % n, taps)
        for idx in range(n):
            # wavelet (l, m) is filter l shifted by m 2^(J-l); 0 is scaling
            l = idx.bit_length() - 1 if idx else J
            m = idx - 2**l if idx else 0
            col = np.roll(filt[l], m * 2 ** (J - l))
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
    # d-D rows, unsorted and repeated: rows of the Kronecker product
    rng = np.random.default_rng(0)
    for name, N in (("db2", (16, 16)), ("cdf42", (8, 8, 8))):
        bank = filter_bank(name)
        dense = np.ones((1, 1))
        for n in N:
            dense = np.kron(dense, dense_matrix(
                TransformPlan(bank, n.bit_length() - 1), inverse=True))
        rows = rng.integers(0, dense.shape[0], 60)
        rows[-5:] = rows[:5]
        S = selected_winv_rows(rows, bank, N)
        assert np.abs(S.toarray() - dense[rows]).max() < 1e-12


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


def _with_reference_kernel(monkeypatch, fn):
    """fn() evaluated once with the sparse level products and the
    wrap-padded kernel, and once with the per-tap modular oracle
    substituted for both."""
    fast = fn()
    with monkeypatch.context() as mp:
        mp.setattr(dwt_mod, "SPARSE_MAX_N", 0)
        mp.setattr(dwt_mod, "_analysis_step", reference_analysis_step)
        mp.setattr(dwt_mod, "_synthesis_step", reference_synthesis_step)
        ref = fn()
    return fast, ref


@pytest.mark.parametrize("J", [1, 2, 3, 4, 5, 6, 12, 13, 15])
def test_kernel_matches_modular_oracle(banks, J, monkeypatch):
    """The step cascade is bit-identical to per-tap index arithmetic modulo
    n, also where the taps wrap more than once, on both sides and with
    leading batch axes: with the levels of up to SPARSE_MAX_N points as
    sparse products (J = 13 has one longer level), and with every level
    on the blocked kernel.  At J = 15 the blocks are STEP_BLOCK = 3000
    outputs, so the steps of 2^15 to 2^13 points span 6, 3 and 2 blocks
    and end on a partial one, and only the first and last read across the
    ends of the input (four banks: the oracle is slow there).  The layout
    is the oracle's too, since a BLAS product of the result (the dense
    transform matrix) takes its bits from it.  It is called directly: dwt
    and idwt take the dense path up to DENSE_MAX_N points."""
    if J > 13:
        monkeypatch.setattr(dwt_mod, "STEP_BLOCK", 3000)
        banks = {k: banks[k] for k in ("db1", "db4", "cdf33", "cdf51")}
    rng = np.random.default_rng(J)
    for sparse_max_n in (dwt_mod.SPARSE_MAX_N, 0):
        monkeypatch.setattr(dwt_mod, "SPARSE_MAX_N", sparse_max_n)
        for name, bank in banks.items():
            for side in ("primal", "dual"):
                plan = TransformPlan(bank, J, side)
                for shape in ((2**J,), (2, 3, 2**J)):
                    v = rng.standard_normal(shape)
                    for steps in ("_dwt_steps", "_idwt_steps"):
                        fast, ref = _with_reference_kernel(
                            monkeypatch,
                            lambda: getattr(dwt_mod, steps)(v, plan))
                        assert np.array_equal(fast, ref), \
                            (name, side, shape, steps, sparse_max_n)
                        assert fast.strides == ref.strides, (name, steps)


@pytest.mark.parametrize("N", [(8, 16), (4, 8, 4)])
def test_kernel_matches_oracle_trailing_batch(banks, N, monkeypatch):
    """The same through FrameOperator block applies, whose transforms run
    on moved axes with the block's columns as a trailing batch axis; the
    dense path is off, so every transform runs the step cascade."""
    monkeypatch.setattr(dwt_mod, "DENSE_MAX_N", 0)
    n = int(np.prod(N))
    rng = np.random.default_rng(len(N))
    X = rng.standard_normal((n, 3))
    for name in ("db1", "db4", "cdf33", "cdf51"):
        op = FrameOperator(scipy.sparse.identity(n, format="csr"),
                           banks[name], N)
        for fn in (op.matmat, op.rmatmat):
            fast, ref = _with_reference_kernel(monkeypatch, lambda: fn(X))
            assert np.array_equal(fast, ref), (name, N, fn)


@pytest.mark.parametrize("J", [1, 3, 6, 7])
def test_dense_path_matches_steps(banks, J):
    """Up to DENSE_MAX_N = 64 points dwt and idwt are one product with the
    cached dense matrix and agree with the step cascade to round-off;
    longer transforms are the step cascade, bit for bit."""
    dense = 2**J <= dwt_mod.DENSE_MAX_N
    rng = np.random.default_rng(J)
    for name, bank in banks.items():
        for side in ("primal", "dual"):
            plan = TransformPlan(bank, J, side)
            v = rng.standard_normal((2, 3, 2**J))
            for fn, steps in ((dwt, dwt_mod._dwt_steps),
                              (idwt, dwt_mod._idwt_steps)):
                out, ref = fn(v, plan), steps(v, plan)
                assert out.shape == v.shape
                if dense:
                    M = dwt_mod._dense_matrix(plan, steps)
                    np.testing.assert_array_equal(
                        out, (v.reshape(-1, 2**J) @ M).reshape(v.shape))
                    err = np.linalg.norm(out - ref)
                    assert err <= 1e-15 * np.linalg.norm(ref), \
                        (name, side, fn, err)
                else:
                    assert np.array_equal(out, ref), (name, side, fn)


def test_dense_cache_keyed_by_masks():
    """A bank that shares another's family name but not its masks gets its
    own dense matrices."""
    a = filter_bank("db2")
    b = dataclasses.replace(filter_bank("db3"), family="db2")
    for side in ("primal", "dual"):
        pa, pb = TransformPlan(a, 5, side), TransformPlan(b, 5, side)
        for fn, steps in ((dwt, dwt_mod._dwt_steps),
                          (idwt, dwt_mod._idwt_steps)):
            Ma = dwt_mod._dense_matrix(pa, steps)
            Mb = dwt_mod._dense_matrix(pb, steps)
            assert Ma is not Mb and not np.allclose(Ma, Mb)
            e = np.eye(32)
            np.testing.assert_allclose(fn(e, pb), steps(e, pb), atol=1e-15)
