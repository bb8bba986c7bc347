import dataclasses
import gc
import weakref

import numpy as np
import pytest

from wavext import az
from wavext.domain import (DomainError, DomainMask, ball, disk, interval,
                           whole_box)
from wavext.filters import filter_bank
from wavext.solvers import (BLOCK_SIZE, pivoted_qr_solve,
                            randomized_lowrank_solve, truncated_svd_solve)
from wavext.system import dense_A

from support import banks, plunge_rank, reference_scaling_plunge


def exp1d(p):
    return np.exp(p[:, 0])


def exp2d(p):
    return np.exp(p[:, 0] * p[:, 1])


@pytest.fixture(scope="module")
def prob1d():
    return az.make_problem(exp1d, interval(0.0, 0.5),
                           filter_bank("cdf33"), 256, 2)


@pytest.fixture(scope="module")
def prob2d():
    return az.make_problem(exp2d, disk(0.5, 0.5, 0.35),
                           filter_bank("cdf33"), 32, 2)


def test_box_reduces_to_projection():
    # periodic f: on the full box the frame is an exact dual pair, so the
    # plunge vanishes and the solve collapses to the dual projection
    f = lambda p: np.sin(2 * np.pi * p[:, 0]) + 2.0
    prob = az.make_problem(f, whole_box(1), filter_bank("cdf33"), 64, 2)
    sol = az.az_solve(prob, seed=0)
    assert sol.plunge_rank == 0
    direct = prob.Zstar(prob.b)
    assert np.abs(sol.x - direct).max() < 1e-10
    assert sol.residual < 1e-3    # best-approximation level for smooth f


def test_convergence_monotone():
    res = []
    for n in (64, 128, 256):
        prob = az.make_problem(exp1d, interval(0.0, 0.5),
                               filter_bank("cdf33"), n, 2)
        res.append(az.az_solve(prob, seed=0).residual)
    assert res[0] > res[1] > res[2]


def test_vanilla_matches_dense_baseline(prob1d):
    sol = az.az_solve(prob1d, seed=0)
    rep = pivoted_qr_solve(dense_A(prob1d.A), prob1d.b)
    assert sol.residual <= 10 * rep.residual + 1e-14
    assert rep.residual <= 10 * sol.residual + 1e-14


def test_reduced_parity_and_dimensions(prob1d):
    s1 = az.az_solve(prob1d, seed=0)
    s2 = az.reduced_az_solve(prob1d, seed=0)
    assert s2.residual <= 10 * s1.residual
    assert s1.residual <= 10 * s2.residual
    assert prob1d.Mrows.size < prob1d.grid.M / 4
    assert prob1d.L.size < prob1d.grid.n_basis / 4


def test_reduced_zero_rhs():
    prob = az.make_problem(lambda p: np.zeros(p.shape[0]),
                           interval(0.0, 0.5), filter_bank("cdf33"), 64, 2)
    sol = az.reduced_az_solve(prob, seed=0)
    assert np.abs(sol.x).max() < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sparse_plunge_matches_dense(dim):
    """The explicit plunge equals the matrix-free columns; outside the
    (Mrows, L) block it is zero."""
    prob = _block_case(dim)
    P = az.sparse_plunge(prob).toarray()
    dense = az._plunge_apply(prob, np.eye(prob.grid.n_basis))
    assert np.abs(P - dense).max() < 1e-10
    P[np.ix_(prob.Mrows, prob.L)] = 0
    assert not P.any()


def test_sparse_plunge_supports(prob1d):
    P = az.sparse_plunge(prob1d)
    rows, cols = P.nonzero()
    assert np.isin(np.unique(cols), prob1d.L).all()
    assert np.isin(np.unique(rows), prob1d.Mrows).all()
    J = 8
    assert P.nnz <= 4 * J * prob1d.K.size


def test_sparse_pipeline_parity(prob1d, prob2d):
    for prob in (prob1d, prob2d):
        s1 = az.az_solve(prob, seed=0)
        s3 = az.sparse_az_solve(prob)
        assert s3.residual <= 10 * s1.residual
        assert s1.residual <= 10 * s3.residual


def test_sparse_nnz_growth():
    """nnz of the sparse plunge grows ~ J in 1-D (N^{(d-1)/d} log N)."""
    nnzs, Js = [], []
    for n in (128, 256, 512, 1024):
        prob = az.make_problem(exp1d, interval(0.0, 0.5),
                               filter_bank("cdf33"), n, 2)
        nnzs.append(az.sparse_plunge(prob).nnz)
        Js.append(int(np.log2(n)))
    growth = nnzs[-1] / nnzs[0]
    assert growth < 3.0     # logarithmic, nowhere near linear (8x)


def test_smoothed_identity_weights(prob1d):
    wprob = dataclasses.replace(prob1d, weights=np.ones(prob1d.grid.n_basis))
    s1 = az.az_solve(prob1d, seed=3)
    s2 = az.smoothed_az_solve(wprob, seed=3)
    assert np.array_equal(s1.x, s2.x)


def test_smoothed_geometric_weights_decay():
    bank = filter_bank("cdf33")
    prob = az.make_problem(exp1d, interval(0.0, 0.6), bank, 256, 2)
    e = [0.2 ** i for i in range(9)]
    wprob = dataclasses.replace(prob, weights=az.scale_weights(e, prob.grid.N))
    sw = az.smoothed_az_solve(wprob, seed=0)
    su = az.reduced_az_solve(prob, seed=0)
    ext = az.extension_index_set(prob)
    nw = az.per_scale_norms(sw.x, prob.grid.N, select=ext)
    nu = az.per_scale_norms(su.x, prob.grid.N, select=ext)
    assert nw[-1] < nw[-2] < nw[-3]
    assert not (nu[-1] < nu[-2] < nu[-3])
    assert sw.residual <= 10 * su.residual


def test_nonpositive_weights_rejected(prob1d):
    with pytest.raises(az.AZError):
        dataclasses.replace(prob1d, weights=np.zeros(prob1d.grid.n_basis))


def test_wrong_length_weights_rejected(prob1d):
    with pytest.raises(az.AZError):
        dataclasses.replace(prob1d, weights=np.ones(prob1d.grid.n_basis - 1))


def test_adaptive_weight_history_decreasing():
    _, sol = az.adaptive_weighted_solve(exp1d, interval(0.0, 0.6),
                                       filter_bank("cdf33"), 256, 2, seed=0)
    e = sol.diagnostics["weight_history"]
    assert all(a > b for a, b in zip(e, e[1:]))


def test_adaptive_degenerate_single_level():
    """When the coarsest admissible n already equals N the loop degenerates
    to one smoothed solve with the scalar weight ||b||."""
    bank = filter_bank("cdf33")
    n0 = az.coarsest_n(bank)
    _, sol = az.adaptive_weighted_solve(exp1d, interval(0.0, 0.6), bank, n0, 2,
                                       seed=0)
    prob = az.make_problem(exp1d, interval(0.0, 0.6), bank, n0, 2)
    wprob = dataclasses.replace(
        prob, weights=az.scale_weights([np.linalg.norm(prob.b)], prob.grid.N))
    ref = az.smoothed_az_solve(wprob, seed=0)
    assert np.array_equal(sol.x, ref.x)


def test_adaptive_below_coarsest_n():
    """N below coarsest_n starts the ladder at N: one smoothed solve with
    the scalar weight ||b||, as when N equals coarsest_n."""
    bank = filter_bank("cdf33")
    mask = interval(0.0, 0.9)
    assert 8 < az.coarsest_n(bank)
    prob, sol = az.adaptive_weighted_solve(exp1d, mask, bank, 8, 4, seed=0)
    assert len(sol.diagnostics["weight_history"]) == 2
    wprob = dataclasses.replace(
        prob, weights=az.scale_weights([np.linalg.norm(prob.b)], prob.grid.N))
    assert np.array_equal(sol.x, az.smoothed_az_solve(wprob, seed=0).x)


def test_adaptive_2d_extension_decay():
    bank = filter_bank("cdf33")
    mask = interval(0.0, 0.5)

    def square(p):
        return (p[:, 0] <= 0.5) & (p[:, 1] <= 0.5)

    from wavext.domain import DomainMask
    dom = DomainMask(2, square, "square")
    _, sol = az.adaptive_weighted_solve(exp2d, dom, bank, (32, 32), (4, 4),
                                       seed=0)
    prob = az.make_problem(exp2d, dom, bank, (32, 32), (4, 4))
    base = az.az_solve(prob, seed=0)
    ext = az.extension_index_set(prob)
    na = az.per_scale_norms(sol.x, prob.grid.N, select=ext)
    nb = az.per_scale_norms(base.x, prob.grid.N, select=ext)
    # adaptive damps the finest extension scales below the unweighted run
    assert na[-1] < nb[-1]
    assert na[-1] < na[-3]


def test_plunge_rank_box():
    prob = az.make_problem(exp1d, whole_box(1), filter_bank("db2"), 64, 2)
    assert plunge_rank(prob) == 0


def test_plunge_rank_constant_1d():
    bank = filter_bank("db2")
    ranks = []
    for n in (64, 256, 1024):
        prob = az.make_problem(exp1d, interval(0.0, 0.5), bank, n, 2)
        r = plunge_rank(prob)
        assert r <= prob.K.size
        ranks.append(r)
    assert max(ranks) - min(ranks) <= 1


def test_plunge_rank_dense_crosscheck():
    prob = az.make_problem(exp1d, interval(0.0, 0.5),
                           filter_bank("db2"), 128, 2)
    n = prob.grid.n_basis
    dense = np.column_stack([az._plunge_apply(prob, e) for e in np.eye(n)])
    s = np.linalg.svd(dense, compute_uv=False)
    dense_rank = int(np.sum(s > 1e-10 * max(s[0], 1e-300)))
    assert plunge_rank(prob) == dense_rank


def test_determinism_full_pipeline(prob1d):
    a = az.reduced_az_solve(prob1d, seed=11)
    b = az.reduced_az_solve(prob1d, seed=11)
    assert a.residual == b.residual
    assert np.array_equal(a.per_scale_norms, b.per_scale_norms)
    assert np.array_equal(a.x, b.x)


def _weighted(prob):
    """prob with per-scale weights halving from the coarsest scale."""
    e = [0.5 ** i for i in range(12)]
    return dataclasses.replace(prob, weights=az.scale_weights(e, prob.grid.N))


@pytest.mark.parametrize("r, n", [(0.34, 16), (0.30, 32), (0.34, 32)])
def test_range_dim_stops_at_rank(r, n):
    """The range finder stops within one block of the numerical rank, for
    ranks that are not multiples of the block size too."""
    prob = az.make_problem(exp2d, disk(0.5, 0.5, r), filter_bank("cdf33"),
                           (n, n), (2, 2))
    for sol in (az.az_solve(prob, seed=0), az.reduced_az_solve(prob, seed=0),
                az.smoothed_az_solve(_weighted(prob), seed=0)):
        d = sol.diagnostics
        assert d["rank"] == sol.plunge_rank > 0
        assert d["range_dim"] <= d["rank"] + BLOCK_SIZE, d
        assert sol.warning is None


def test_sparse_diagnostics(prob1d):
    sol = az.sparse_az_solve(prob1d)
    d = sol.diagnostics
    assert d["rank"] == sol.plunge_rank
    assert d["nnz"] > 0 and d["core_shape"][0] * d["core_shape"][1] > 0


@pytest.fixture(scope="module")
def off_centre_disk():
    prob = az.make_problem(exp2d, disk(0.49, 0.51, 0.335),
                           filter_bank("cdf33"), (32, 32), (2, 2))
    return prob, pivoted_qr_solve(dense_A(prob.A), prob.b).residual


@pytest.mark.parametrize("seed", range(4))
def test_az_off_centre_disk_all_seeds(off_centre_disk, seed):
    """Every probe seed returns, near the dense oracle (seed 3 used to stop
    in LinAlgError: SVD did not converge, on a range basis of full width)."""
    prob, ref = off_centre_disk
    sol = az.az_solve(prob, seed=seed)
    assert sol.residual <= 10 * ref
    assert ref <= 10 * sol.residual


def test_adaptive_short_interval():
    """The ladder starts at the first level with more samples than unknowns;
    only a requested N without them raises."""
    bank = filter_bank("cdf33")
    mask = interval(0.1324, 0.6524)
    with pytest.raises(DomainError):
        az.make_problem(exp1d, mask, bank, az.coarsest_n(bank), 2)
    _, sol = az.adaptive_weighted_solve(exp1d, mask, bank, 4096, 2, seed=0)
    plain = az.reduced_az_solve(az.make_problem(exp1d, mask, bank, 4096, 2),
                                seed=0)
    assert sol.residual <= 10 * plain.residual + 1e-12
    assert len(sol.diagnostics["weight_history"]) == 9  # levels 32 .. 4096
    with pytest.raises(DomainError):
        az.adaptive_weighted_solve(exp1d, interval(0.1, 0.2), bank, 16, 2)


def test_reduced_1d_small_block_is_exact():
    """The explicit 1-D reduced block has fewer than BLOCK_SIZE rows, so step
    1 forms it exactly; the residual stays within 10x of the sampled range
    finder's on the same block, which a rank cap keeps on its loop."""
    prob = az.make_problem(exp1d, interval(0.0, 0.5), filter_bank("cdf33"),
                           2**14, 2)
    sol = az.reduced_az_solve(prob, seed=0)
    assert sol.diagnostics["range_dim"] == prob.Mrows.size <= BLOCK_SIZE
    op = az.sparse_plunge(prob)[prob.Mrows][:, prob.L]
    rep = randomized_lowrank_solve(op, az.plunge_rhs(prob)[prob.Mrows],
                                   seed=0, max_rank=min(op.shape),
                                   scale=az._reference_scale(prob))
    assert rep.diagnostics["range_dim"] < prob.Mrows.size
    x = np.zeros(prob.grid.n_basis)
    x[prob.L] = rep.solution
    x += prob.Zstar(prob.b - prob.A @ x)
    assert sol.residual <= 10 * np.linalg.norm(prob.A @ x - prob.b)


def _block_case(dim):
    bank = filter_bank("cdf33")
    if dim == 1:
        return az.make_problem(exp1d, interval(0.2, 0.8), bank, 64, 2)
    if dim == 2:
        return az.make_problem(exp2d, disk(0.5, 0.5, 0.35), bank, 16, 2)
    return az.make_problem(lambda p: np.exp(p[:, 0] * p[:, 1] * p[:, 2]),
                           ball(0.5, 0.5, 0.5, 0.4), bank, 8, 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cap", [None, 2])
def test_block_applies_match_columns(dim, cap, monkeypatch):
    """matmat/rmatmat of every operator equal the column-by-column applies,
    also when the block is split into chunks, and are adjoint."""
    prob = _block_case(dim)
    if cap is not None:   # chunks of `cap` columns
        monkeypatch.setattr(az, "BLOCK_ENTRIES", cap * prob.grid.n_basis)
    rng = np.random.default_rng(0)
    ops = {"A": prob.A, "plunge": az.plunge_operator(prob),
           "smoothed": az.plunge_operator(_weighted(prob))}

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for name, op in ops.items():
        m, n = op.shape
        X = rng.standard_normal((n, 5))
        Y = rng.standard_normal((m, 5))
        AX, AtY = op.matmat(X), op.rmatmat(Y)
        assert close(AX, np.column_stack([op.matvec(x) for x in X.T])), name
        assert close(AtY, np.column_stack([op.rmatvec(y) for y in Y.T])), name
        lhs, rhs_ = np.sum(AX * Y), np.sum(X * AtY)
        assert abs(lhs - rhs_) <= 1e-12 * np.linalg.norm(AX) * np.linalg.norm(Y), name
    Y = rng.standard_normal((prob.grid.M, 5))
    assert close(prob.Zstar(Y), np.column_stack([prob.Zstar(y) for y in Y.T]))


def test_weighted_explicit_block_parity():
    """On a weighted disk problem, reduced and sparse scale the columns of
    the explicit block and stay within 10x of the matrix-free smoothed
    residual; reduced finds the same minimum-norm weighted solution."""
    prob = _weighted(_block_case(2))
    ref = az.smoothed_az_solve(prob, seed=0)
    reduced = az.reduced_az_solve(prob, seed=0)
    for sol in (reduced, az.sparse_az_solve(prob)):
        assert sol.residual <= 10 * ref.residual
        assert ref.residual <= 10 * sol.residual
    assert np.linalg.norm(reduced.x - ref.x) <= 1e-8 * np.linalg.norm(ref.x)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaling_plunge_is_boundary_local(dim, banks):
    """Forming only the columns K gives the same bits as the global
    A_hat - A_hat Z_hat* A_hat, for every filter family.  Outside K the
    global form holds cancellation fuzz only; where the whole plunge is fuzz
    (cdf22 at q = 2 samples the hat function at its knots, so Z_hat
    reproduces it exactly) its relative pruning keeps fuzz in every column,
    and both forms are fuzz."""
    mask, n = {1: (interval(0.2, 0.8), 64), 2: (disk(0.5, 0.5, 0.35), 16),
               3: (ball(0.5, 0.5, 0.5, 0.4), 8)}[dim]
    for name, bank in banks.items():
        prob = az.make_problem(lambda p: np.ones(p.shape[0]), mask, bank, n, 2)
        P, ref = az.scaling_plunge(prob), reference_scaling_plunge(prob)
        fuzz = 1e-13 * np.abs(prob.scaling.A_hat.data).max()
        outside = np.ones(prob.grid.n_basis, dtype=bool)
        outside[prob.K] = False
        assert np.abs(ref[:, outside].data).max(initial=0) <= fuzz, name
        if np.abs(ref.data).max() <= fuzz:
            assert np.abs(P.data).max(initial=0) <= fuzz, name
            continue
        assert P.nnz == ref.nnz > 0, name
        assert (P != ref).nnz == 0, name


def _sparse_geometries():
    cdf33, db4 = filter_bank("cdf33"), filter_bank("db4")
    return [(disk(0.5, 0.5, 0.34), cdf33, (32, 32)),
            (disk(0.5, 0.5, 0.34), db4, (32, 32)),
            (interval(0.13, 0.71), cdf33, (1024,))]


@pytest.mark.parametrize("case", range(3))
def test_sparse_step1_reuse_is_bit_identical(case):
    """A second geometry-equal problem reuses the factor of the first and
    returns the bits of a cold solve of its own right-hand side."""
    mask, bank, N = _sparse_geometries()[case]
    f1 = lambda p: np.exp(p.sum(axis=1))
    f2 = lambda p: np.cos(3 * p[:, 0]) + p[:, -1] ** 2
    az.clear_step1_cache()
    cold1 = az.sparse_az_solve(az.make_problem(f1, mask, bank, N, 2))
    hit = az.sparse_az_solve(az.make_problem(f2, mask, bank, N, 2))
    az.clear_step1_cache()
    cold2 = az.sparse_az_solve(az.make_problem(f2, mask, bank, N, 2))
    assert not cold1.diagnostics["step1_reused"]
    assert hit.diagnostics.pop("step1_reused")
    assert not cold2.diagnostics.pop("step1_reused")
    assert np.array_equal(hit.x, cold2.x)
    assert hit.residual == cold2.residual
    assert hit.plunge_rank == cold2.plunge_rank > 0
    assert hit.diagnostics == cold2.diagnostics
    assert hit.stage_times["assembly"] == 0 < cold2.stage_times["assembly"]


def test_sparse_step1_key_separates_geometries():
    """Problems that differ in anything the block depends on never share a
    factor, also when their masks carry the same description."""
    bank = filter_bank("cdf33")
    f = lambda p: np.exp(p[:, 0])
    left = DomainMask(1, lambda p: (p[:, 0] >= 0.15) & (p[:, 0] <= 0.75))
    right = DomainMask(1, lambda p: (p[:, 0] >= 0.2) & (p[:, 0] <= 0.8))
    assert left.description == right.description == "predicate"
    base = az.make_problem(f, left, bank, 256, 2)
    variants = [
        (az.make_problem(f, right, bank, 256, 2), {}),
        (az.make_problem(f, left, bank, 256, 4), {}),
        (az.make_problem(f, left, filter_bank("cdf35"), 256, 2), {}),
        (base, {"tol": 1e-8}),
        (_weighted(base), {}),
        (dataclasses.replace(base, weights=2 * _weighted(base).weights), {}),
    ]
    az.clear_step1_cache()
    az.sparse_az_solve(base)
    for prob, kw in variants:
        assert not az.sparse_az_solve(prob, **kw).diagnostics["step1_reused"]
    for prob, kw in [(base, {})] + variants:
        assert az.sparse_az_solve(prob, **kw).diagnostics["step1_reused"]


def test_sparse_step1_cache_stays_within_budget(monkeypatch):
    """More geometries than fit evict the least recently used factors."""
    bank = filter_bank("cdf33")
    probs = [az.make_problem(exp1d, interval(0.1 + 0.01 * i, 0.7), bank,
                             512, 2) for i in range(6)]
    az.clear_step1_cache()
    az.sparse_az_solve(probs[0])
    one = sum(f.nbytes for f in az._step1_cache.values())
    monkeypatch.setattr(az, "STEP1_CACHE_BYTES", int(2.5 * one))
    for prob in probs[1:]:
        az.sparse_az_solve(prob)
        assert sum(f.nbytes for f in az._step1_cache.values()) <= 2.5 * one
    assert 0 < len(az._step1_cache) < len(probs)
    assert az.sparse_az_solve(probs[-1]).diagnostics["step1_reused"]
    assert not az.sparse_az_solve(probs[0]).diagnostics["step1_reused"]
    az.clear_step1_cache()


def test_sparse_step1_cache_holds_no_problem():
    """The cache keeps boundary-sized factors only: the problem and its grid
    are freed after the solve."""
    az.clear_step1_cache()
    prob = az.make_problem(exp2d, disk(0.5, 0.5, 0.34), filter_bank("cdf33"),
                           (32, 32), (2, 2))
    az.sparse_az_solve(prob)
    refs = [weakref.ref(prob), weakref.ref(prob.grid),
            weakref.ref(prob.scaling)]
    del prob
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(az._step1_cache) == 1
