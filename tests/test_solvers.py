import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext.solvers import (BLOCK_SIZE, SolverError, pivoted_qr_solve,
                            randomized_lowrank_solve, sparse_qr_factor,
                            sparse_qr_solve, truncated_svd_solve)

from support import estimate_rank


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
    assert rep.warning is None


def test_randomized_rank_cap_warning():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((50, 50))
    rep = randomized_lowrank_solve(A, rng.standard_normal(50), max_rank=8)
    assert rep.warning is not None


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


def _sparse_qr_reference(A, b, tol=1e-10):
    """The one-shot sparse QR solve: pivoted QR of the compacted core."""
    A = A.tocsr()
    rows, cols = np.unique(A.nonzero()[0]), np.unique(A.nonzero()[1])
    rep = pivoted_qr_solve(A[rows][:, cols].toarray(), b[rows], tol=tol,
                           _guard=False)
    x = np.zeros(A.shape[1])
    x[cols] = rep.solution
    return x, rep.rank


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


@pytest.mark.parametrize("kind", ["full", "rank9", "zero"])
def test_sparse_factor_reuse_is_bit_identical(kind):
    """One factor solves any right-hand side with the bits of the one-shot
    pivoted QR of the core, and keeps only its rank-truncated parts."""
    S = _sparse_case(kind)
    factor = sparse_qr_factor(S)
    r = factor.rank
    assert factor.Q.shape == (factor.rows.size, r)
    assert factor.R.shape == (r, r) and factor.piv.shape == (r,)
    assert factor.Q.flags.f_contiguous
    assert r == {"full": 69, "rank9": 9, "zero": 0}[kind]
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = rng.standard_normal(90)
        x, ref_rank = _sparse_qr_reference(S, b)
        rep = factor.solve(b)
        assert rep.rank == ref_rank == r
        assert np.array_equal(rep.solution, x)
        assert rep.residual == np.linalg.norm(S @ x - b)
        one_shot = sparse_qr_solve(S, b)
        assert np.array_equal(one_shot.solution, x)
        assert one_shot.diagnostics == rep.diagnostics


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
    smaller side in min(m, n) applies and solved like the dense oracle."""
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
    assert calls[0] == min(m, n) + 1    # the block, then the residual matvec
