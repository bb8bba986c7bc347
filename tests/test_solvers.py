import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.solvers import (BLOCK_SIZE, DEFAULT_TOL, NOISE_REL, SolverError,
                            _frontal_qr, pivoted_qr_solve,
                            randomized_lowrank_solve, sparse_qr_solve)

from support import (check_sparse_factor, estimate_rank, sparse_qr_factor,
                     sparse_qr_reference, truncated_svd_solve)


def test_randomized_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(100)
    rep = randomized_lowrank_solve(np.eye(100), b, seed=1)
    np.testing.assert_allclose(rep.solution, b, atol=1e-10)
    assert rep.rank == 100


def test_randomized_rank3():
    rng = np.random.default_rng(1)
    A = sum(np.outer(rng.standard_normal(60), rng.standard_normal(40))
            for _ in range(3))
    x = rng.standard_normal(40)
    rep = randomized_lowrank_solve(A, A @ x, tol=1e-10, seed=2)
    assert rep.rank == 3
    assert rep.residual < 1e-10 * np.linalg.norm(A)


def test_randomized_stops_at_rank_above_noise():
    """A rank-37 operator plus noise far below the truncation level: the
    range basis ends within one block of the rank instead of filling up."""
    rng = np.random.default_rng(9)
    U = np.linalg.qr(rng.standard_normal((120, 37)))[0]
    V = np.linalg.qr(rng.standard_normal((90, 37)))[0]
    A = U @ np.diag(np.logspace(0, -6, 37)) @ V.T
    A += 1e-13 * rng.standard_normal(A.shape)
    rep = randomized_lowrank_solve(A, A @ rng.standard_normal(90), seed=4)
    assert rep.rank == 37
    assert rep.diagnostics["range_dim"] <= 37 + BLOCK_SIZE


def test_randomized_bit_reproducible():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 30))
    b = rng.standard_normal(40)
    r1 = randomized_lowrank_solve(A, b, seed=7)
    r2 = randomized_lowrank_solve(A, b, seed=7)
    assert np.array_equal(r1.solution, r2.solution)
    assert r1.residual == r2.residual


def test_qr_identity_and_truncation():
    b = np.array([3.0, 4.0])
    rep = pivoted_qr_solve(np.eye(2), b)
    np.testing.assert_allclose(rep.solution, b)
    rep = pivoted_qr_solve(np.diag([1.0, 1e-14]), b, tol=1e-10)
    assert rep.rank == 1
    assert rep.solution[1] == 0.0


def test_qr_vs_svd_ill_conditioned():
    rng = np.random.default_rng(4)
    U = np.linalg.qr(rng.standard_normal((50, 30)))[0]
    V = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    A = U @ np.diag(np.logspace(0, -14, 30)) @ V.T
    b = rng.standard_normal(50)
    rq = pivoted_qr_solve(A, b, tol=1e-10)
    rs = truncated_svd_solve(A, b, tol=1e-10)
    assert rq.residual < 10 * rs.residual + 1e-14
    assert rs.residual < 10 * rq.residual + 1e-14


def test_svd_exact_consistent():
    rng = np.random.default_rng(5)
    A = np.outer(rng.standard_normal(20), rng.standard_normal(10))
    x = rng.standard_normal(10)
    rep = truncated_svd_solve(A, A @ x)
    assert rep.residual < 1e-12 * np.linalg.norm(A)


def test_sparse_identity():
    b = np.arange(1.0, 6.0)
    rep = sparse_qr_solve(scipy.sparse.eye(5, format="csr"), b)
    np.testing.assert_allclose(rep.solution, b)


def test_sparse_requires_sparse():
    with pytest.raises(SolverError):
        sparse_qr_solve(np.eye(3), np.zeros(3))


def test_sparse_vs_dense_parity():
    rng = np.random.default_rng(6)
    S = scipy.sparse.random(80, 60, density=0.05, random_state=7, format="csr")
    b = rng.standard_normal(80)
    rsp = sparse_qr_solve(S, b)
    rd = pivoted_qr_solve(S.toarray(), b)
    assert rsp.residual < 10 * rd.residual + 1e-12
    assert rd.residual < 10 * rsp.residual + 1e-12


def _sparse_case(kind):
    if kind == "zero":
        return scipy.sparse.csr_matrix((90, 70))
    if kind == "rank9":
        B = scipy.sparse.random(90, 9, density=0.3, random_state=4)
        return (B @ scipy.sparse.random(9, 70, density=0.3,
                                        random_state=5)).tocsr()
    S = scipy.sparse.random(90, 70, density=0.08, random_state=3, format="lil")
    S[:, 5] = 0     # an empty column and row, which the factor strips
    S[7, :] = 0
    return S.tocsr()


def test_sparse_factor_core_ignores_stored_zeros():
    """The core's rows and columns, in the order the factor eliminates
    them, are those of A.nonzero(): a row and a column that hold stored
    zeros only are stripped, a duplicate pair that cancels still counts, as
    in A.nonzero()."""
    S = _sparse_case("full")
    assert S.indptr[4] > S.indptr[3] and 9 in S.indices
    S.data[S.indptr[3]:S.indptr[4]] = 0.0        # row 3: stored zeros only
    S.data[S.indices == 9] = 0.0                 # column 9 likewise
    A = scipy.sparse.csr_matrix(
        (np.concatenate([S.data, [1.0, -1.0]]),
         np.concatenate([S.indices, [5, 5]]),
         np.concatenate([S.indptr, [S.nnz + 2]])), shape=(91, 70))
    factor = sparse_qr_factor(A)
    assert np.array_equal(np.sort(factor.rows), np.unique(A.nonzero()[0]))
    assert np.array_equal(np.sort(factor.cols), np.unique(A.nonzero()[1]))
    assert 3 not in factor.rows and 9 not in factor.cols
    assert 90 in factor.rows and 5 in factor.cols


@pytest.mark.parametrize("kind", ["full", "rank9", "zero"])
def test_sparse_factor_reuse_is_bit_identical(kind):
    """One factor solves any right-hand side with the bits of the one-shot
    sparse QR solve, keeps only its rank-truncated parts, and matches the
    full pivoted QR of the core in rank and residual (its pivots are those
    of the triangular factor, so not in bits)."""
    S = _sparse_case(kind)
    factor = sparse_qr_factor(S)
    r = factor.rank
    assert factor.H.shape == (factor.cols.size, r)
    assert factor.tau.shape == factor.piv.shape == (r,)
    assert factor.H.flags.f_contiguous
    assert r == {"full": 69, "rank9": 9, "zero": 0}[kind]
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = rng.standard_normal(90)
        x, ref_rank = sparse_qr_reference(S, b)
        ref_residual = np.linalg.norm(S @ x - b)
        rep = factor.solve(b)
        assert rep.rank == ref_rank == r
        assert abs(rep.residual - ref_residual) <= 0.01 * ref_residual
        one_shot = sparse_qr_solve(S, b)
        assert np.array_equal(one_shot.solution, rep.solution)
        assert one_shot.diagnostics == rep.diagnostics


def _low_rank_sparse(m, n, rank, seed):
    """A Gaussian rank-``rank`` (m, n) matrix, stored sparse."""
    rng = np.random.default_rng(seed)
    return scipy.sparse.csr_matrix(rng.standard_normal((m, rank))
                                   @ rng.standard_normal((rank, n)))


def _rank37_plus_noise():
    rng = np.random.default_rng(9)
    U = np.linalg.qr(rng.standard_normal((120, 37)))[0]
    V = np.linalg.qr(rng.standard_normal((90, 37)))[0]
    A = U @ np.diag(np.logspace(0, -6, 37)) @ V.T
    return scipy.sparse.csr_matrix(A + 1e-13 * rng.standard_normal(A.shape))


FACTOR_CASES = {
    "rank0": (lambda: scipy.sparse.csr_matrix((90, 70)), 0),
    "rank1": (lambda: _low_rank_sparse(90, 70, 1, 11), 1),
    "rank16": (lambda: _low_rank_sparse(90, 70, 16, 12), 16),
    "rank32": (lambda: _low_rank_sparse(90, 70, 32, 13), 32),
    "tall": (lambda: _low_rank_sparse(120, 40, 40, 14), 40),
    "wide": (lambda: _low_rank_sparse(40, 120, 40, 15), 40),
    "rank37_noise": (_rank37_plus_noise, 37),
}


@pytest.mark.parametrize("case", list(FACTOR_CASES))
def test_sketched_factor_matches_full_qrcp(case):
    """The banded QR, then the pivoted QR of its triangular factor, give the
    full QRCP's rank and residual: at ranks that fill whole steps of the
    front, at full rank, on dense matrices (a front as wide as the core)
    and above a noise floor.  (The name is that of the sketched pivoting
    this factor replaced.)"""
    make, rank = FACTOR_CASES[case]
    _, rep = check_sparse_factor(make())
    assert rep.rank == rank


def _banded(m, n, band, seed):
    """A random (m, n) matrix whose row i holds ``band`` consecutive columns
    from i (n - band) / (m - 1) on, its rows and columns shuffled and one
    column scaled by 1e-11: a boundary-like block that reverse
    Cuthill-McKee makes banded again."""
    rng = np.random.default_rng(seed)
    starts = np.arange(m) * (n - band) // (m - 1)
    rows = np.repeat(np.arange(m), band)
    cols = (starts[:, None] + np.arange(band)).ravel()
    A = scipy.sparse.csr_matrix((rng.standard_normal(rows.size), (rows, cols)),
                                shape=(m, n))
    A = A[rng.permutation(m)][:, rng.permutation(n)].tolil()
    A[:, 7] *= 1e-11
    return A.tocsr()


@pytest.mark.parametrize("scale", [None, 1e-3])
def test_sparse_factor_banded_front(scale):
    """A shuffled banded matrix: the front stays within the band and a step,
    well below the core's width, and the factor matches the full QRCP at
    the cut tol * min(|R[0, 0]|, scale), which a scale below the largest
    column norm lowers to keep the column scaled by 1e-11."""
    A = _banded(300, 200, 6, 3)
    factor, rep = check_sparse_factor(A, scale=scale)
    assert factor.front_width <= 6 + 2 * BLOCK_SIZE < factor.cols.size
    assert rep.rank == (200 if scale else 199)


@pytest.mark.parametrize("case", list(FACTOR_CASES) + ["banded"])
def test_sparse_svd_factor_is_the_truncated_svd(case):
    """The frontal factor's ``svd`` reveals the rank on the triangle R_B by
    its SVD: the rank of the dense truncated SVD at max(tol s_0, NOISE_REL
    scale) and its minimum-norm solution to round-off, ||x - x_ref|| <= 100
    eps kappa ||x_ref|| for kappa = s_0 / s_(r-1), on the frontal part of
    sparse_qr_factor in every bit.  Both reveals of one factor share its
    arrays."""
    if case == "banded":
        A, rank = _banded(300, 200, 6, 3), 199
    else:
        make, rank = FACTOR_CASES[case]
        A = make()
    factor, qr = _frontal_qr(A).svd(DEFAULT_TOL, 1.0), sparse_qr_factor(A)
    frontal = _frontal_qr(A)
    for reveal in (frontal.svd(DEFAULT_TOL, 1.0), frontal.qr(DEFAULT_TOL, None)):
        assert reveal.R_B is frontal.R_B and reveal.steps is frontal.steps
    for name in ("rows", "cols"):
        assert np.array_equal(getattr(factor, name), getattr(qr, name))
    assert factor.front_width == qr.front_width
    for (r0, r1, V, T), (s0, s1, W, U) in zip(factor.steps, qr.steps,
                                              strict=True):
        assert (r0, r1) == (s0, s1)
        assert np.array_equal(V, W) and np.array_equal(T, U)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    ref = truncated_svd_solve(A.toarray(), b, floor=NOISE_REL)
    rep = factor.solve(b)
    assert rep.rank == factor.rank == ref.rank == rank
    kappa = factor.s[0] / factor.s[-1] if rank else 0.0
    bound = 100 * np.finfo(float).eps * kappa * np.linalg.norm(ref.solution)
    assert np.linalg.norm(rep.solution - ref.solution) <= bound
    assert rep.diagnostics["front_width"] == factor.front_width


def test_dense_guard():
    with pytest.raises(SolverError):
        pivoted_qr_solve(np.zeros((5000, 2)), np.zeros(5000))


def test_estimate_rank():
    rng = np.random.default_rng(8)
    A = sum(np.outer(rng.standard_normal(50), rng.standard_normal(50))
            for _ in range(5))
    assert estimate_rank(A, tol=1e-10, seed=0) == 5


@given(seed=st.integers(0, 999), m=st.integers(5, 30), n=st.integers(3, 25))
@settings(max_examples=25, deadline=None)
def test_residual_recomputed_property(seed, m, n):
    """Reported residual always equals an independent recomputation."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    for rep in (pivoted_qr_solve(A, b), truncated_svd_solve(A, b),
                randomized_lowrank_solve(A, b, seed=seed)):
        again = np.linalg.norm(A @ rep.solution - b)
        assert abs(rep.residual - again) <= 1e-12 * max(1.0, again)


@given(seed=st.integers(0, 999))
@settings(max_examples=15, deadline=None)
def test_solver_agreement_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((25, 15)) @ np.diag(np.logspace(0, -12, 15))
    b = rng.standard_normal(25)
    res = [pivoted_qr_solve(A, b, tol=1e-10).residual,
           truncated_svd_solve(A, b, tol=1e-10).residual,
           randomized_lowrank_solve(A, b, tol=1e-10, seed=seed).residual]
    assert max(res) <= 10 * min(res) + 1e-12


def _counting_operator(A):
    """A as a LinearOperator that counts its column applies (both sides)."""
    calls = [0]

    def apply(M):
        def fn(x):
            calls[0] += 1
            return M @ x
        return fn

    op = scipy.sparse.linalg.LinearOperator(
        A.shape, matvec=apply(A), rmatvec=apply(A.T), dtype=float)
    return op, calls


@pytest.mark.parametrize("m, n, rank", [(12, 40, 7), (50, 10, 6)])
def test_small_block_is_formed_exactly(m, n, rank):
    """A block with at most BLOCK_SIZE rows or columns is formed from its
    smaller side in min(m, n) applies and solved like the dense oracle; a
    dense array is taken as it is, with the same rank and bits."""
    rng = np.random.default_rng(m)
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    b = rng.standard_normal(m)
    op, calls = _counting_operator(A)
    rep = randomized_lowrank_solve(op, b, seed=0)
    ref = truncated_svd_solve(A, b)
    assert rep.rank == ref.rank == rank
    assert (np.linalg.norm(rep.solution - ref.solution)
            <= 1e-12 * np.linalg.norm(ref.solution))
    assert rep.diagnostics["range_dim"] == min(m, n)
    assert calls[0] == min(m, n)    # the block; the residual is the block's
    dense = randomized_lowrank_solve(A, b, seed=0)
    assert dense.rank == rep.rank
    assert np.array_equal(dense.solution, rep.solution)
    assert dense.residual == np.linalg.norm(A @ dense.solution - b)
