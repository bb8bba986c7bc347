import copy
import dataclasses
import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from wavext import az, cli, dwt, solvers, system
from wavext.domain import (DomainError, DomainMask, ball, disk, interval,
                           whole_box)
from wavext.filters import filter_bank
from wavext.solvers import (BLOCK_SIZE, DEFAULT_TOL, pivoted_qr_solve,
                            randomized_lowrank_solve)
from wavext.system import dense_A

import support
from support import (ALL_FAMILIES, UNCOMPRESSED_1D_FAMILIES, az_steps23,
                     banks, check_sparse_factor, frontal_qr_reveal,
                     heldout_interior_error, plunge_apply, plunge_operator,
                     plunge_rank, plunge_rapply,
                     reference_per_scale_norms, reference_plunge_apply,
                     reference_plunge_rapply, reference_plunge_rhs,
                     reference_scaling_plunge, selected_winv_rows,
                     sparse_qr_factor, sparse_qr_reference,
                     transform_sampled_az, transform_winv_block,
                     truncated_svd_solve, wavelet_block)


def exp1d(p):
    return np.exp(p[:, 0])


def exp2d(p):
    return np.exp(p[:, 0] * p[:, 1])


def exp3d(p):
    return np.exp(p[:, 0] * p[:, 1] * p[:, 2])


@pytest.fixture(scope="module")
def prob1d():
    return az.make_problem(exp1d, interval(0.0, 0.5),
                           filter_bank("cdf33"), 256, 2)


@pytest.fixture(scope="module")
def prob2d():
    return az.make_problem(exp2d, disk(0.5, 0.5, 0.35),
                           filter_bank("cdf33"), 32, 2)


_BOX_SOLVES = {
    "az": az.az_solve,
    "reduced": lambda prob: az.reduced_az_solve(prob),
    "sparse": az.sparse_az_solve,
    "smoothed": lambda prob: az.smoothed_az_solve(dataclasses.replace(
        prob, weights=az.scale_weights([3, 1, 0.1], prob.grid.N))),
}
def _box_cases():
    for dim in (1, 2):
        for family in ALL_FAMILIES:
            for pipeline in _BOX_SOLVES:
                yield pytest.param(dim, family, pipeline,
                                   id=f"{dim}d-{family}-{pipeline}")


@pytest.mark.parametrize("dim, family, pipeline", _box_cases())
def test_box_reduces_to_projection(dim, family, pipeline, banks):
    """Periodic f: on the full box the frame is an exact dual pair, so the
    plunge vanishes and every pipeline's solve collapses to the dual
    projection Z* b.  The box is a valid domain.  Every step 1 runs on the
    plunge's rows Mrows and on the columns K or L, which the box leaves
    empty, so az and smoothed draw nothing; the matrix-free plunge over
    every column cancels to fuzz instead, which db4's minimal dual (norm
    241 at q = 2) lifts above the noise floor (rank 176-182 for weighted
    samples of it)."""
    def f(p):
        return (np.sin(2 * np.pi * p[:, 0])
                * np.cos(2 * np.pi * p[:, 1:]).prod(axis=1) + 2.0)
    N = 64 if dim == 1 else (16, 16)
    prob = az.make_problem(f, whole_box(dim), banks[family], N, 2)
    sol = _BOX_SOLVES[pipeline](prob)
    assert sol.plunge_rank == 0
    assert np.abs(sol.x - prob.Zstar(prob.b)).max() < 1e-10
    if (dim, family) == (1, "cdf33"):
        assert sol.residual < 1e-3    # best-approximation level for smooth f


def test_convergence_monotone():
    res = []
    for n in (64, 128, 256):
        prob = az.make_problem(exp1d, interval(0.0, 0.5),
                               filter_bank("cdf33"), n, 2)
        res.append(az.az_solve(prob).residual)
    assert res[0] > res[1] > res[2]


def test_vanilla_matches_dense_baseline(prob1d):
    sol = az.az_solve(prob1d)
    rep = pivoted_qr_solve(dense_A(prob1d.A), prob1d.b)
    assert sol.residual <= 10 * rep.residual + 1e-14
    assert rep.residual <= 10 * sol.residual + 1e-14


def test_reduced_parity_and_dimensions(prob1d):
    s1 = az.az_solve(prob1d)
    s2 = az.reduced_az_solve(prob1d)
    assert s2.residual <= 10 * s1.residual
    assert s1.residual <= 10 * s2.residual
    assert prob1d.Mrows.size < prob1d.grid.M / 4
    assert prob1d.L.size < prob1d.grid.n_basis / 4


def test_reduced_zero_rhs():
    prob = az.make_problem(lambda p: np.zeros(p.shape[0]),
                           interval(0.0, 0.5), filter_bank("cdf33"), 64, 2)
    sol = az.reduced_az_solve(prob)
    assert np.abs(sol.x).max() < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sparse_plunge_matches_dense(dim):
    """The explicit plunge equals the matrix-free columns; outside the
    (Mrows, L) block it is zero."""
    prob = _block_case(dim)
    P = az.sparse_plunge(prob).toarray()
    dense = plunge_apply(prob, np.eye(prob.grid.n_basis))
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
        s1 = az.az_solve(prob)
        s3 = az.sparse_az_solve(prob)
        assert s3.residual <= 10 * s1.residual
        assert s1.residual <= 10 * s3.residual


def test_explicit_block_of_cancelled_plunge_is_empty():
    """cdf22 at q = 2 samples the hat function at its knots, so Z_hat
    reproduces it and the exact plunge vanishes: the explicit pipelines
    find rank 0, as az does, instead of fitting cancellation fuzz."""
    prob = az.make_problem(exp1d, interval(0.2, 0.8), filter_bank("cdf22"),
                           64, 2)
    ref = az.az_solve(prob)
    assert ref.plunge_rank == 0
    for sol in (az.sparse_az_solve(prob), az.reduced_az_solve(prob)):
        assert sol.plunge_rank == 0
        assert np.array_equal(sol.x, ref.x)


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
    """Weights all equal to c are no weights: D = c I scales y by 1 / c
    and leaves x1 = D y and the cut's directions as they are.  On the
    all-ones weights of prob1d and on c 1 for c in (1e-3, 1, 7.5, ||b||)
    on the 1-, 2- and 3-D block cases, smoothed gives az's x in every bit,
    its rank and its ``gram_cond``."""
    cases = [(prob1d, (1.0,))] + [
        (_block_case(dim), (1e-3, 1.0, 7.5, None)) for dim in (1, 2, 3)]
    for prob, scales in cases:
        s1 = az.az_solve(prob)
        for c in scales:
            c = float(np.linalg.norm(prob.b)) if c is None else c
            wprob = dataclasses.replace(
                prob, weights=np.full(prob.grid.n_basis, c))
            s2 = az.smoothed_az_solve(wprob)
            assert np.array_equal(s1.x, s2.x), c
            assert s2.plunge_rank == s1.plunge_rank > 0, c
            assert s2.diagnostics["gram_cond"] == s1.diagnostics["gram_cond"]


def test_smoothed_geometric_weights_decay():
    bank = filter_bank("cdf33")
    prob = az.make_problem(exp1d, interval(0.0, 0.6), bank, 256, 2)
    e = [0.2 ** i for i in range(9)]
    wprob = dataclasses.replace(prob, weights=az.scale_weights(e, prob.grid.N))
    sw = az.smoothed_az_solve(wprob)
    su = az.reduced_az_solve(prob)
    ext = az.extension_index_set(prob)
    nw = az.per_scale_norms(sw.x, prob.grid.N, select=ext)
    nu = az.per_scale_norms(su.x, prob.grid.N, select=ext)
    assert nw[-1] < nw[-2] < nw[-3]
    assert not (nu[-1] < nu[-2] < nu[-3])
    assert sw.residual <= 10 * su.residual


def test_nonpositive_weights_rejected(prob1d):
    with pytest.raises(az.AZError):
        dataclasses.replace(prob1d, weights=np.zeros(prob1d.grid.n_basis))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_weights_rejected(prob1d, bad):
    """A NaN weight would reach LAPACK as an SVD that does not converge,
    and poison the reference scale's rms(w)."""
    w = np.ones(prob1d.grid.n_basis)
    w[3] = bad
    with pytest.raises(az.AZError, match="finite"):
        dataclasses.replace(prob1d, weights=w)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scale_weights_rejects_nonfinite(bad):
    with pytest.raises(az.AZError, match="finite"):
        az.scale_weights([bad, 1.0], (64,))


@pytest.mark.parametrize("bad, match", [
    (lambda b: np.r_[b[:-1], np.nan], "finite"),
    (lambda b: np.r_[np.inf, b[1:]], "finite"),
    (lambda b: b[None], "one sample per grid row"),
    (lambda b: b[1:], "one sample per grid row")])
def test_rhs_array_must_be_a_finite_vector(prob1d, bad, match):
    """An array b is checked as a callable's samples are: a NaN would give
    reduced and az a NaN residual and sparse a scipy error, and a (1, M)
    array passed a check of its size alone.  The samples themselves pass."""
    mask, bank = interval(0.0, 0.5), filter_bank("cdf33")
    with pytest.raises(az.AZError, match=match):
        az.make_problem(bad(prob1d.b), mask, bank, 256, 2)
    prob = az.make_problem(prob1d.b, mask, bank, 256, 2)
    assert np.array_equal(prob.b, prob1d.b)


def test_wrong_length_weights_rejected(prob1d):
    with pytest.raises(az.AZError):
        dataclasses.replace(prob1d, weights=np.ones(prob1d.grid.n_basis - 1))


def test_adaptive_weight_history_decreasing():
    _, sol = az.adaptive_weighted_solve(exp1d, interval(0.0, 0.6),
                                       filter_bank("cdf33"), 256, 2)
    e = sol.diagnostics["weight_history"]
    assert all(a > b for a, b in zip(e, e[1:]))


def test_adaptive_degenerate_single_level():
    """When the coarsest admissible n already equals N the loop degenerates
    to one smoothed solve with the scalar weight ||b||."""
    bank = filter_bank("cdf33")
    n0 = az.coarsest_n(bank)
    _, sol = az.adaptive_weighted_solve(exp1d, interval(0.0, 0.6), bank, n0, 2)
    prob = az.make_problem(exp1d, interval(0.0, 0.6), bank, n0, 2)
    wprob = dataclasses.replace(
        prob, weights=az.scale_weights([np.linalg.norm(prob.b)], prob.grid.N))
    ref = az.smoothed_az_solve(wprob)
    assert np.array_equal(sol.x, ref.x)


def test_adaptive_below_coarsest_n():
    """N below coarsest_n starts the ladder at N: one smoothed solve with
    the scalar weight ||b||, as when N equals coarsest_n."""
    bank = filter_bank("cdf33")
    mask = interval(0.0, 0.9)
    assert 8 < az.coarsest_n(bank)
    prob, sol = az.adaptive_weighted_solve(exp1d, mask, bank, 8, 4)
    assert len(sol.diagnostics["weight_history"]) == 2
    wprob = dataclasses.replace(
        prob, weights=az.scale_weights([np.linalg.norm(prob.b)], prob.grid.N))
    assert np.array_equal(sol.x, az.smoothed_az_solve(wprob).x)


def test_adaptive_2d_extension_decay():
    bank = filter_bank("cdf33")
    mask = interval(0.0, 0.5)

    def square(p):
        return (p[:, 0] <= 0.5) & (p[:, 1] <= 0.5)

    from wavext.domain import DomainMask
    dom = DomainMask(2, square, "square")
    _, sol = az.adaptive_weighted_solve(exp2d, dom, bank, (32, 32), (4, 4))
    prob = az.make_problem(exp2d, dom, bank, (32, 32), (4, 4))
    base = az.az_solve(prob)
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
    dense = np.column_stack([plunge_apply(prob, e) for e in np.eye(n)])
    s = np.linalg.svd(dense, compute_uv=False)
    dense_rank = int(np.sum(s > 1e-10 * max(s[0], 1e-300)))
    assert plunge_rank(prob) == dense_rank


def test_determinism_full_pipeline(prob1d):
    a = az.reduced_az_solve(prob1d)
    b = az.reduced_az_solve(prob1d)
    assert a.residual == b.residual
    assert np.array_equal(a.per_scale_norms, b.per_scale_norms)
    assert np.array_equal(a.x, b.x)


@pytest.mark.parametrize("N", [(2,), (64,), (16, 8), (4, 32), (8, 8, 8),
                               (2, 16, 4)], ids=str)
def test_per_scale_norms_match_label_oracle(N):
    """The corner-block sums equal the label and bincount form to 1e-12
    relative at every scale, with and without a sub-mask, on coefficients
    that shrink by 1e-3 per scale, so a scale is never read off as a
    difference of larger sums."""
    rng = np.random.default_rng(len(N))
    n = int(np.prod(N))
    x = rng.standard_normal(n) * 1e-3 ** az.scale_levels(N)
    for select in (None, rng.choice(n, n // 3, replace=False)):
        got = az.per_scale_norms(x, N, select=select)
        ref = reference_per_scale_norms(x, N, select=select)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), (got, ref)


def test_geometry_computes_L_once(monkeypatch):
    """No pipeline reads L, so neither the cold assembly nor any solve
    computes it; the first read does, once, read-only."""
    calls, wavelet_set = [], az.wavelet_boundary_set

    def counted(*args):
        calls.append(args)
        return wavelet_set(*args)

    monkeypatch.setattr(az, "wavelet_boundary_set", counted)
    az.clear_caches()
    prob = _block_case(2)
    for solve in _PIPELINES.values():
        solve(prob)
    az.adaptive_weighted_solve(exp2d, disk(0.5, 0.5, 0.35),
                               filter_bank("cdf33"), 16, 2)
    assert calls == []
    L = prob.L
    assert len(calls) == 1 and prob.L is L and not L.flags.writeable
    assert np.array_equal(L, wavelet_set(prob.geometry.kflags, prob.bank,
                                         prob.grid.N)[0])


@pytest.mark.parametrize("dim", [1, 2])
def test_reference_scale_is_frobenius_norm_of_A_hat(dim):
    """The reference scale is ||A_hat||_F unweighted and ||A_hat||_F rms(w)
    with weights w; all-ones weights give the unweighted bits."""
    prob = _block_case(dim)
    A_hat = prob.scaling.A_hat
    scale = az._reference_scale(prob)
    assert scale == np.linalg.norm(A_hat.data) > 0
    assert np.isclose(scale, np.linalg.norm(A_hat.toarray()), rtol=1e-13)
    weighted = _weighted(prob)
    w = weighted.weights
    assert az._reference_scale(weighted) == scale * np.sqrt(np.mean(w * w))
    ones = dataclasses.replace(prob, weights=np.ones(prob.grid.n_basis))
    assert az._reference_scale(ones) == scale


def _weighted(prob):
    """prob with per-scale weights halving from the coarsest scale."""
    e = [0.5 ** i for i in range(12)]
    return dataclasses.replace(prob, weights=az.scale_weights(e, prob.grid.N))


def _deep_weighted(prob):
    """prob with per-scale weights falling 100x a scale to 1e-10, the
    floor of adaptive's weights at the default tol: squared, they leave
    the Gram of R_L D_L singular in floating point."""
    e = [10.0 ** -k for k in range(0, 11, 2)]
    return dataclasses.replace(prob, weights=az.scale_weights(e, prob.grid.N))


def _sampler_case(case, bank):
    """The 1-, 2- and 3-D block cases by dimension; 4096: the 1-D case at
    N = 4096; 32: the 2-D case at 32^2."""
    f, mask, n = _BLOCK_CASES[{4096: 1, 32: 2}.get(case, case)]
    return az.make_problem(f, mask, bank, case if case in (32, 4096) else n,
                           2)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("case", [1, 2, 3, 4096, 32])
def test_scaling_sampler_matches_transform_sampler(case, family, banks,
                                                   monkeypatch):
    """Step 1 of az and smoothed reveals the boundary block C = R_B
    R_L[cols] D_L exactly (``_solve``) and takes no wavelet transform: the
    randomized kernel runs only on an uncompressed factor (1-D), on the
    formed R_B T, and a compressed one calls it not at all.  Unweighted,
    under halving weights and, on the 1-, 2- and 3-D block cases, under
    weights down to 1e-10 (``_deep_weighted``), step 1 keeps the rank of
    the oracle that samples the whole plunge P D G^T through the
    transform, with a residual and ||x|| within 2x of the oracle's either
    way; the 1-, 2- and 3-D block cases, the 1-D case at N = 4096 and the
    2-D case at 32^2.  Both finish by ``_solve``'s steps 2-3, so the
    bounds compare step 1: at N = 4096 the residuals sit at round-off, and
    two finishes would differ by up to 13x there."""
    prob = _sampler_case(case, banks[family])
    kernel, inside = az.randomized_lowrank_solve, []
    calls = _count_transforms(monkeypatch)

    def traced(*args, **kw):
        calls.update(dwt=0, idwt=0)
        rep = kernel(*args, **kw)
        inside.append(dict(calls))
        return rep

    monkeypatch.setattr(az, "randomized_lowrank_solve", traced)
    problems = [prob, _weighted(prob)]
    if case in (1, 2, 3):
        problems.append(_deep_weighted(prob))
    for problem in problems:
        inside.clear()
        sol = az.smoothed_az_solve(problem)
        kernel_runs = _uncompressed(problem.geometry)
        assert inside == [{"dwt": 0, "idwt": 0}] * kernel_runs, inside
        ref, x, res = transform_sampled_az(problem)
        msg = (problem.weights is None, sol.plunge_rank, ref.rank,
               sol.residual, res, sol.coefficient_norm, np.linalg.norm(x))
        assert sol.plunge_rank == ref.rank, msg
        assert sol.residual <= 2 * res and res <= 2 * sol.residual, msg
        assert (sol.coefficient_norm <= 2 * np.linalg.norm(x)
                and np.linalg.norm(x) <= 2 * sol.coefficient_norm), msg


def _uncompressed(geometry):
    """Whether the geometry's scaling block is its own factor, R_B = B."""
    return geometry.factor.R_B is geometry.factor.A


def _compressed(geometry, U):
    """Q_B^T U, column by column, for U on the rows Mrows: the rows of the
    compressed boundary block C of ``geometry``; U itself for an
    uncompressed factor."""
    QtU = np.column_stack([geometry.factor.qtb(u) for u in U.T])
    assert not _uncompressed(geometry) or np.array_equal(QtU, U)
    return QtU


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("case", [1, 2, 3, 4096])
def test_az_sketches_the_boundary_block(case, family, banks, monkeypatch):
    """smoothed's step 1 is the exact truncated SVD of the compressed
    boundary block C = Q_B^T B R_L D_L, of shape (|cols|, |L|) with cols
    the core columns of the geometry's frontal factor, B =
    scaling_plunge(geometry) and R_L from the selected rows of W^-1
    (``selected_winv_rows``).  The thin QR M^T = Q_w U of M = R_L[cols]
    D_L (``_weighted_qr``) gives C = (R_B U^T) Q_w^T to 1e-12 of C's
    largest entry, with Q_w^T Q_w = I to 1e-12; the reveal of R_B U^T
    keeps C's rank at the cut max(tol s_0, NOISE_REL scale), its singular
    values within 1e-13 s_0 of C's, and the solve's residual and ||x|| are
    within 2x of those of the exact solve of B R_L D_L finished by the
    same steps 2-3.  So under halving weights and weights down to 1e-10
    (``_deep_weighted``).  A block of at most BLOCK_SIZE columns (1-D) is
    not compressed: C has the (|Mrows|, |L|) shape of B R_L D_L and the
    kernel forms R_B U^T, whose (|Mrows|, |K|) it records as
    ``core_shape``.  No solve records a ``sketch_shape``.  The QR takes no
    wavelet transform, and at N = 4096 allocates less than one
    N-vector."""
    prob = _sampler_case(case, banks[family])
    g, m, N = prob.geometry, prob.Mrows.size, prob.grid.n_basis
    B = az.scaling_plunge(g).toarray()
    winv = selected_winv_rows(prob.K, prob.bank, prob.grid.N)
    scale = az._reference_scale
    calls = _count_transforms(monkeypatch)
    assert _uncompressed(g) is (prob.grid.dimension == 1)
    for problem in (_weighted(prob), _deep_weighted(prob)):
        w = problem.weights
        sol = az.smoothed_az_solve(problem)
        calls.update(dwt=0, idwt=0)
        if case == 4096:
            tracemalloc.start()
        try:
            L, Qw, U = az._weighted_qr(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == {"dwt": 0, "idwt": 0}
        assert case != 4096 or peak < 8 * N, (peak, N)
        block = B @ (winv[:, L].toarray() * w[L])   # B R_L D_L
        C = _compressed(g, block)
        cols = g.factor.cols.size
        assert C.shape == (m if _uncompressed(g) else cols, L.size)
        assert Qw.shape == (L.size, cols)
        assert np.abs(g.factor.R_B @ U.T @ Qw.T - C).max() <= (
            1e-12 * np.abs(C).max())
        assert np.abs(Qw.T @ Qw - np.eye(cols)).max() <= 1e-12
        ref = truncated_svd_solve(block, az.plunge_rhs(problem), DEFAULT_TOL,
                                  solvers.NOISE_REL * scale(problem))
        s = np.linalg.svd(C, compute_uv=False)
        got = g.factor.svd(DEFAULT_TOL, scale(problem), U.T).s
        x1 = np.zeros(N)
        x1[L] = w[L] * ref.solution
        x, res = az_steps23(problem, x1)
        norm, d = np.linalg.norm(x), sol.diagnostics
        msg = (sol.plunge_rank, ref.rank, sol.residual, res,
               sol.coefficient_norm, norm)
        assert sol.plunge_rank == ref.rank == got.size, msg
        assert np.abs(got - s[:got.size]).max(initial=0) <= 1e-13 * s[0], msg
        assert sol.residual <= 2 * res and res <= 2 * sol.residual, msg
        assert (sol.coefficient_norm <= 2 * norm
                and norm <= 2 * sol.coefficient_norm), msg
        assert "sketch_shape" not in d and not d["step1_reused"], d
        if _uncompressed(g):
            assert d["core_shape"] == (m, prob.K.size), d


def _check_winv_block(prob, bits):
    """R_L of prob's geometry, built afresh, holds the rows K of W^-1 on
    the columns L, read-only: within 1e-14 of the rows built from the
    cascade filters (``selected_winv_rows``), which vanish outside L, with
    L in ``Geometry.L``.  With ``bits``, L and R_L are bit for bit those
    of the dual analysis of the unit vectors on K over all N points
    (``transform_winv_block``).  Returns L."""
    L, R = az.Geometry.winv_block.func(prob.geometry)   # uncached build
    assert R.shape == (prob.K.size, L.size)
    assert not (L.flags.writeable or R.flags.writeable)
    assert np.all(np.isin(L, prob.L))
    ref = selected_winv_rows(prob.K, prob.bank, prob.grid.N).tocsc()
    outside = np.setdiff1d(np.arange(prob.grid.n_basis), L)
    assert ref[:, outside].nnz == 0
    ref = ref[:, L].toarray()
    assert np.abs(R - ref).max() <= 1e-14 * np.abs(ref).max()
    if bits:
        L0, R0 = transform_winv_block(prob.geometry)
        assert np.array_equal(L, L0) and np.array_equal(R, R0)
    return L


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_winv_block_is_rows_K_of_winv(dim, family, chunk, banks,
                                      monkeypatch):
    """On the block cases R_L is the rows K of W^-1 (``_check_winv_block``)
    bit for bit, against the transform oracle run whole or in chunks of 3
    columns (``support.BLOCK_ENTRIES``), and its columns are
    ``Geometry.L``."""
    prob = _block_case(dim, banks[family])
    if chunk is not None:
        monkeypatch.setattr(support, "BLOCK_ENTRIES",
                            chunk * prob.grid.n_basis)
    assert np.array_equal(_check_winv_block(prob, bits=True), prob.L)


# Larger R_L cases: (f, mask, n, families).  1-D at N = 2^12 and 2^16 with
# the box-edge intervals, the 64^2 disk and 16^3 ball (no axis of more than
# 64 points), and the 128^2 disk, where axes of 128 points sum their levels
# in another order than the transform.
_WINV_CASES = {
    **{f"1d-{n}-{a}-{b}": (exp1d, interval(a, b), n, ALL_FAMILIES)
       for n in (2**12, 2**16) for a, b in ((0, 0.5), (0.001, 0.999))},
    "2d-64": (exp2d, disk(0.5, 0.5, 0.35), 64, ("cdf33", "db4")),
    "3d-16": (exp3d, ball(0.5, 0.5, 0.5, 0.35), 16, ("cdf33", "db4")),
    "2d-128": (exp2d, disk(0.5, 0.5, 0.35), 128, ("cdf33",)),
}


@pytest.mark.parametrize("case, family", [
    (case, family) for case, spec in _WINV_CASES.items()
    for family in spec[-1]])
def test_winv_block_bits_at_scale(case, family, banks):
    """R_L is the rows K of W^-1 (``_check_winv_block``) at scale, bit for
    bit in 1-D, also where K wraps round the box edge, and wherever no axis
    has more than 64 points."""
    f, mask, n, _ = _WINV_CASES[case]
    prob = az.make_problem(f, mask, banks[family], n, 2)
    _check_winv_block(prob, bits=prob.grid.dimension == 1 or n <= 64)


@pytest.mark.parametrize("family", ["cdf33", "db4"])
def test_winv_block_transforms_stay_short(family, banks, monkeypatch):
    """A 1-D R_L build runs the transform's own code on blocks of the same
    length at N = 2^12 and at 2^18, at most 64 points: the work of its
    transforms does not grow with N.  ``dwt.dwt`` and ``dwt._dwt_steps``
    are wrapped to record the longest length they see."""
    seen = []

    def recorded(fn):
        def run(v, plan):
            seen.append(v.shape[-1])
            return fn(v, plan)
        return run

    for name in ("dwt", "_dwt_steps"):
        monkeypatch.setattr(dwt, name, recorded(getattr(dwt, name)))
    longest = []
    for n in (2**12, 2**18):
        prob = az.make_problem(exp1d, interval(0.2, 0.75), banks[family], n,
                               2)
        seen.clear()
        az.Geometry.winv_block.func(prob.geometry)
        longest.append(max(seen))
    assert longest[0] == longest[1] <= dwt.DENSE_MAX_N, longest


@pytest.mark.parametrize("dim", [1, 2])
def test_winv_block_empty_on_the_box(dim):
    """On the box K is empty: R_L is (0, 0) and L empty."""
    prob = az.make_problem(lambda p: np.ones(len(p)), whole_box(dim),
                           filter_bank("cdf33"), 64 if dim == 1 else 16, 2)
    L, R = prob.geometry.winv_block
    assert prob.K.size == 0 and L.size == 0 and R.shape == (0, 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_boundary_operator_is_the_plunge_block(dim, weighted):
    """Step 1's factors make C = R_B M, M = R_L[cols] D_L, the block
    (Mrows, L) of the matrix-free plunge (I - A Z*) A D compressed by
    Q_B^T (``qtb``): M = T Q^T with Q of orthonormal columns on L, T = F
    and Q = R_L[cols]^T F^-T unweighted (``Geometry.gram``), T = U^T and
    Q = Q_w weighted (``_weighted_qr``), under halving weights and weights
    down to 1e-10.  (R_B T) Q^T X = Q_B^T (P D X)[Mrows] and its transpose
    maps Q_B^T U to (P D)^T U on L, to 1e-12 of the largest entry; Q^T Q =
    I to 1e-12; outside the block the matrix-free plunge holds
    cancellation fuzz only.  In 1-D the block is uncompressed, qtb the
    identity."""
    base = _block_case(dim)
    g = base.geometry
    f = g.factor
    assert _uncompressed(g) is (dim == 1)
    for prob in ((_weighted(base), _deep_weighted(base)) if weighted
                 else (base,)):
        if weighted:
            L, Q, U = az._weighted_qr(prob)
            T = U.T
        else:
            (L, R), T = g.winv_block, g.gram[0]
            Q = scipy.linalg.solve_triangular(T, R[f.cols], lower=True).T
        C = f.R_B @ T @ Q.T
        assert C.shape == ((prob.Mrows.size if dim == 1 else f.cols.size),
                           L.size)
        assert np.abs(Q.T @ Q - np.eye(f.cols.size)).max() <= 1e-12
        m, n = prob.A.shape
        rng = np.random.default_rng(dim)
        X, U = rng.standard_normal((n, 4)), rng.standard_normal((m, 4))
        U[np.setdiff1d(np.arange(m), prob.Mrows)] = 0.0
        off_rows = np.setdiff1d(np.arange(m), prob.Mrows)
        off_cols = np.setdiff1d(np.arange(n), L)
        QtU = np.column_stack([f.qtb(u) for u in U[prob.Mrows].T])
        PX, PtU = plunge_apply(prob, X), plunge_rapply(prob, U)
        for ref, got in ((_compressed(g, PX[prob.Mrows]), C @ X[L]),
                         (PtU[L], C.T @ QtU)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        for ref, off in ((PX, off_rows), (PtU, off_cols)):
            assert np.abs(ref[off]).max(initial=0) <= (
                1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_winv_block_built_once_per_geometry(dim):
    """az and smoothed report the forming and compression of the scaling
    block, and the cold build of the per-axis rows of W^-1 (az) or of R_L
    (smoothed), as ``stage_times["assembly"]``, above 0 when any of them
    is cold; a second solve on the same geometry reads 0.0 there and
    returns the same x, weighted or not.  On a geometry made after
    clear_caches, with its R_L built beforehand, the block's compression
    alone reads above 0 again and gives the same x."""
    az.clear_caches()
    prob = _block_case(dim)
    for solve in (lambda: az.az_solve(prob),
                  lambda: az.smoothed_az_solve(_weighted(prob))):
        cold = ("winv_block" not in vars(prob.geometry)
                or "factor" not in vars(prob.geometry))
        first, second = solve(), solve()
        assert (first.stage_times["assembly"] > 0) is cold
        assert second.stage_times["assembly"] == 0.0
        assert np.array_equal(first.x, second.x)
        assert first.plunge_rank == second.plunge_rank > 0
        az.clear_caches()
        prob = _block_case(dim)
        prob.geometry.winv_block
        third = solve()
        assert third.stage_times["assembly"] > 0
        assert np.array_equal(first.x, third.x)


@pytest.mark.parametrize("r, n", [(0.34, 16), (0.30, 32), (0.34, 32)])
def test_range_dim_stops_at_rank(r, n):
    """No pipeline runs a range finder on a 2-D block: reduced, az and
    smoothed (under halving weights and weights down to 1e-10) report the
    frontal factor's core, nnz and front width, with no range dimension or
    sketch shape, for ranks that are not multiples of the block size too;
    az reports the condition of its Gram, and smoothed a reveal made for
    its request (``step1_reused`` False)."""
    prob = az.make_problem(exp2d, disk(0.5, 0.5, r), filter_bank("cdf33"),
                           (n, n), (2, 2))
    for weighted in (None, _weighted, _deep_weighted):
        solves = ((az.reduced_az_solve(prob), az.az_solve(prob))
                  if weighted is None
                  else (az.smoothed_az_solve(weighted(prob)),))
        for sol in solves:
            d = sol.diagnostics
            assert d["rank"] == sol.plunge_rank > 0, d
            assert not {"range_dim", "sketch_shape"} & d.keys(), d
            assert d["rank"] <= d["core_shape"][1] <= prob.K.size
            assert d["nnz"] > 0 and 0 < d["front_width"] <= d["core_shape"][1]
            assert sol.warning is None
            assert weighted is None or not d["step1_reused"], d
    assert 1 <= az.az_solve(prob).diagnostics["gram_cond"] < 1e4


def _gram_cases():
    for dim in (1, 2, 3):
        for family in ALL_FAMILIES:
            yield pytest.param(*_BLOCK_CASES[dim], family,
                               id=f"{dim}d-{family}")
    for family in ("cdf33", "cdf51"):
        yield pytest.param(exp2d, disk(0.5, 0.5, 0.49), 32, family,
                           id=f"edge32-{family}")


@pytest.mark.parametrize("f, mask, n, family", _gram_cases())
def test_az_matches_exact_svd_of_boundary_block(f, mask, n, family, banks):
    """Unweighted az, on the Gram route, against the exact truncated SVD
    of the dense boundary block B R_L at the same cut, max(tol s_0,
    NOISE_REL scale), with R_L from the selected rows of W^-1
    (``selected_winv_rows``); C = Q_B^T B R_L has its singular values and
    minimizers.  The rank is the same, the kept singular values of R_B F
    are within 1e-13 s_0 of the block's, and the residual and ||x|| are
    within 2x of those of the exact solve finished by the same steps 2-3,
    either way.  Cases: the 1-, 2- and 3-D block cases of every family
    (cond(G) reaches 1.1e11 on the cdf51 8^3 ball) and the box-edge disks
    r = 0.49 at 32^2 (2e7 for cdf51).  For the orthogonal families G = I,
    and ``gram_cond`` is 1 within 1e-12."""
    prob = az.make_problem(f, mask, banks[family], n, 2)
    g, scale = prob.geometry, az._reference_scale(prob)
    sol = az.az_solve(prob)
    # B is the factor's block, which equals scaling_plunge in every bit
    # (test_dense_scaling_block_has_the_sparse_bits)
    R = selected_winv_rows(prob.K, prob.bank, prob.grid.N)[:, prob.L]
    C = np.asarray(g.factor.A @ R.toarray())
    ref = truncated_svd_solve(C, az.plunge_rhs(prob), DEFAULT_TOL,
                              solvers.NOISE_REL * scale)
    s = np.linalg.svd(C, compute_uv=False)
    got = g.factor.svd(DEFAULT_TOL, scale, g.gram[0]).s
    x1 = np.zeros(prob.grid.n_basis)
    x1[prob.L] = ref.solution
    x = x1 + prob.Zstar(prob.b - prob.A.matvec(x1))
    res, norm = np.linalg.norm(prob.A.matvec(x) - prob.b), np.linalg.norm(x)
    cond = sol.diagnostics["gram_cond"]
    msg = (sol.plunge_rank, ref.rank, sol.residual, res,
           sol.coefficient_norm, norm, cond)
    assert sol.plunge_rank == ref.rank == got.size, msg
    assert np.abs(got - s[:got.size]).max(initial=0) <= 1e-13 * s[0], msg
    assert sol.residual <= 2 * res and res <= 2 * sol.residual, msg
    assert (sol.coefficient_norm <= 2 * norm
            and norm <= 2 * sol.coefficient_norm), msg
    assert cond >= 1.0 and (abs(cond - 1.0) <= 1e-12
                            or not family.startswith("db")), msg


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rows_transposed_is_winv_block_transposed(dim):
    """``_rows_transposed`` applies R_L^T from the per-axis rows: for a
    Gaussian w on K it equals R_L^T w on L to 1e-14 of its largest entry
    and is zero outside L, also on the 64^2 disk, where L is not the whole
    grid of the axes' columns; on the box, K empty, it is all zero."""
    probs = [_block_case(dim)]
    if dim == 2:
        probs.append(az.make_problem(exp2d, disk(0.5, 0.5, 0.34),
                                     filter_bank("cdf33"), 64, 2))
    for prob in probs:
        g = prob.geometry
        L, R = g.winv_block
        w = np.random.default_rng(dim).standard_normal(prob.K.size)
        got = az._rows_transposed(g.winv_rows, prob.grid.N, w)
        ref = np.zeros(prob.grid.n_basis)
        ref[L] = R.T @ w
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    box = az.make_problem(lambda p: np.ones(len(p)), whole_box(dim),
                          filter_bank("cdf33"), 16 if dim < 3 else 8, 2)
    assert not az._rows_transposed(box.geometry.winv_rows, box.grid.N,
                                   np.zeros(0)).any()


def test_az_forms_no_winv_block():
    """Unweighted az never forms R_L: after a cold solve on the 64^2 disk
    the geometry holds no ``winv_block``, and the whole cold solve, step 1
    with the scaling block, its factor, the per-axis rows, the Gram and
    its reveal included, allocates less at its peak (``tracemalloc``)
    than R_L's |K| |L| 8 bytes, 7.8 MB there.  A warm repeat reuses the
    reveal (``step1_reused``) and returns the same bits.  A cold adaptive
    ladder of one rung, whose weights all equal ||b||, forms no R_L either
    and returns az's bits."""
    az.clear_caches()
    prob = az.make_problem(exp2d, disk(0.5, 0.5, 0.34), filter_bank("cdf33"),
                           (64, 64), (2, 2))
    winv_bytes = prob.K.size * prob.L.size * 8
    tracemalloc.start()
    try:
        cold = az.az_solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "winv_block" not in vars(prob.geometry)
    assert 7.5e6 < winv_bytes and peak < winv_bytes, (peak, winv_bytes)
    warm = az.az_solve(prob)
    assert not cold.diagnostics["step1_reused"]
    assert warm.diagnostics["step1_reused"]
    assert np.array_equal(warm.x, cold.x)
    assert warm.plunge_rank == cold.plunge_rank > 0
    # a cold one-rung adaptive ladder (16^2 = coarsest_n(cdf33)) is az too
    az.clear_caches()
    prob, sol = az.adaptive_weighted_solve(
        exp2d, disk(0.5, 0.5, 0.34), filter_bank("cdf33"), (16, 16), (2, 2))
    assert len(sol.diagnostics["weight_history"]) == 2
    assert "winv_block" not in vars(prob.geometry)
    assert np.array_equal(sol.x, az.az_solve(prob).x)


# (f, mask, family, n) of the compressed scaling blocks on which reduced's
# step 1 is checked against the dense truncated SVD, db1's at 16^2 on
# r = 0.34 with 21 columns among them
_SVD_FACTOR_CASES = {
    "disk16-cdf33": (exp2d, disk(0.5, 0.5, 0.35), "cdf33", 16),
    "disk16-db1": (exp2d, disk(0.5, 0.5, 0.34), "db1", 16),
    "disk32-cdf33": (exp2d, disk(0.5, 0.5, 0.35), "cdf33", 32),
    "disk32-db4": (exp2d, disk(0.5, 0.5, 0.35), "db4", 32),
    "disk32-cdf51": (exp2d, disk(0.5, 0.5, 0.35), "cdf51", 32),
    "ball8-cdf33": (exp3d, ball(0.5, 0.5, 0.5, 0.4), "cdf33", 8),
}


@pytest.mark.parametrize("case", sorted(_SVD_FACTOR_CASES))
def test_reduced_step1_is_the_truncated_svd_of_the_block(case):
    """On a scaling block with more than BLOCK_SIZE columns, which is
    sparse, reduced's step 1 is the block's truncated SVD at
    max(tol s_0, NOISE_REL ||A_hat||_F), taken on the frontal triangle R_B
    of the block's compression: the rank of the dense SVD oracle with the
    same floor, and its y to round-off, ||y - y_ref|| <= 100 eps kappa
    ||y_ref|| for kappa = s_0 / s_(r-1) the condition of the kept part; the
    solve's x is that of y_ref to the same bound.  The factor is cached: a
    warm solve on another right-hand side returns the bits of a cold solve
    of it, and after clear_caches the next solve is cold again."""
    f, mask, family, n = _SVD_FACTOR_CASES[case]
    d = mask.dimension
    bank, N, q = filter_bank(family), (n,) * d, (2,) * d
    az.clear_caches()
    prob = az.make_problem(f, mask, bank, N, q)
    block, scale = az._scaling_block(prob.geometry), az._reference_scale(prob)
    assert scipy.sparse.issparse(block) and block.shape[1] > BLOCK_SIZE
    dense, b1 = block.toarray(), az.plunge_rhs(prob)
    ref = truncated_svd_solve(dense, b1, floor=solvers.NOISE_REL * scale)
    cold = az.reduced_az_solve(prob)
    g = prob.geometry
    factor, reused = g.reveal("svd", DEFAULT_TOL)
    assert not _uncompressed(g)
    assert reused and not cold.diagnostics["step1_reused"]
    assert cold.plunge_rank == factor.rank == ref.rank > 0
    s = np.linalg.svd(dense, compute_uv=False)
    bound = 100 * np.finfo(float).eps * s[0] / s[ref.rank - 1]
    dy = np.linalg.norm(factor.solve(b1).solution - ref.solution)
    assert dy <= bound * np.linalg.norm(ref.solution), (dy, bound)
    x = _from_scaling_columns(prob, ref.solution)
    x += prob.Zstar(prob.b - prob.A @ x)
    dx = np.linalg.norm(cold.x - x)
    assert dx <= bound * np.linalg.norm(x), (dx, bound)

    g = lambda p: np.cos(3 * p[:, 0]) + p[:, -1] ** 2
    warm = az.reduced_az_solve(az.make_problem(g, mask, bank, N, q))
    az.clear_caches()
    fresh = az.reduced_az_solve(az.make_problem(g, mask, bank, N, q))
    assert warm.diagnostics["step1_reused"]
    assert not fresh.diagnostics["step1_reused"]
    assert np.array_equal(warm.x, fresh.x) and warm.residual == fresh.residual
    assert warm.plunge_rank == fresh.plunge_rank


@pytest.mark.parametrize("n", [32, 64, 128])
def test_reduced_and_sparse_share_the_frontal_factor(n):
    """The count form of the paper's 2-D claim: reduced and sparse compress
    the same disk block by the same frontal QR, to the same core and front
    width, and the front stays at most 50 columns wide from 32^2 to 128^2
    (40-45 measured), so the compression costs O(#rows w^2), linear in the
    boundary.  The compression is shared: sparse reads reduced's from the
    cache and forms no block (assembly 0.0), then reveals its own rank on
    it, so neither reveal is reused."""
    prob = az.make_problem(exp2d, disk(0.5, 0.5, 0.35), filter_bank("cdf33"),
                           (n, n), (2, 2))
    az.clear_caches()
    red, sp = az.reduced_az_solve(prob), az.sparse_az_solve(prob)
    assert red.stage_times["assembly"] > 0 == sp.stage_times["assembly"]
    red, sp = red.diagnostics, sp.diagnostics
    assert not red["step1_reused"] and not sp["step1_reused"]
    assert red["core_shape"] == sp["core_shape"], (red, sp)
    assert red["nnz"] == sp["nnz"]
    assert red["front_width"] == sp["front_width"] <= 50, (red, sp)


def test_sparse_diagnostics():
    """sparse reports its rank, the core's shape and nnz, the front width,
    which never exceeds |K|, and whether the factor was reused, in 1-, 2-
    and 3-D."""
    for dim in (1, 2, 3):
        prob = _block_case(dim)
        az.clear_caches()
        for reused in (False, True):
            sol = az.sparse_az_solve(prob)
            d = sol.diagnostics
            assert d["rank"] == sol.plunge_rank > 0
            assert d["nnz"] > 0 and d["core_shape"][0] * d["core_shape"][1] > 0
            assert d["core_shape"][1] <= prob.K.size
            assert 0 < d["front_width"] <= prob.K.size
            assert d["step1_reused"] is reused


@pytest.fixture(scope="module")
def off_centre_disk():
    prob = az.make_problem(exp2d, disk(0.49, 0.51, 0.335),
                           filter_bank("cdf33"), (32, 32), (2, 2))
    return prob, pivoted_qr_solve(dense_A(prob.A), prob.b).residual


@pytest.mark.parametrize("seed", range(4))
def test_az_off_centre_disk_all_seeds(off_centre_disk, seed):
    """Every seed returns, near the dense oracle (seed 3 used to stop in
    LinAlgError: SVD did not converge, on a range basis of full width).
    The CLI's ``--seed`` draws nothing: the run at each seed returns the
    bits of az_solve on the problem it made."""
    prob, ref = off_centre_disk
    problem, sol = cli.run_one(cli.RunConfig(
        command="approximate", family="cdf33", N=(32,), q=(2,),
        domain="disk:0.49,0.51,0.335", function="exp2d", solver="az",
        seed=seed).validate())
    assert problem.geometry.key == prob.geometry.key
    assert np.array_equal(sol.x, az.az_solve(problem).x)
    assert sol.residual <= 10 * ref
    assert ref <= 10 * sol.residual


def test_adaptive_short_interval():
    """The ladder starts at the first level with more samples than unknowns;
    only a requested N without them raises."""
    bank = filter_bank("cdf33")
    mask = interval(0.1324, 0.6524)
    with pytest.raises(DomainError):
        az.make_problem(exp1d, mask, bank, az.coarsest_n(bank), 2)
    _, sol = az.adaptive_weighted_solve(exp1d, mask, bank, 4096, 2)
    plain = az.reduced_az_solve(az.make_problem(exp1d, mask, bank, 4096, 2))
    assert sol.residual <= 10 * plain.residual + 1e-12
    assert len(sol.diagnostics["weight_history"]) == 9  # levels 32 .. 4096
    with pytest.raises(DomainError):
        az.adaptive_weighted_solve(exp1d, interval(0.1, 0.2), bank, 16, 2)


@pytest.mark.parametrize("a, b, k, w, p", [
    (0.1563, 0.6796, 0.6016, 1.9271, 0.4657),
    (0.2752, 0.8850, 0.5951, 1.2734, 0.0191)])
def test_adaptive_round_off_weights(a, b, k, w, p):
    """cdf33, N = 4096, q = 2, f = exp(k x) cos(w x + p): the level
    residuals fall geometrically to about 1e-12 by level 2048.  Weights made
    of them cut level 4096 at rank 3, where az finds rank 4, with residuals
    3.5e-5 and 2.0e-5; floored at tol ||b|| they keep rank 4, residuals
    6.3e-14 and 1.6e-14, against 4.9e-14 and 4.4e-14 for reduced."""
    def f(P):
        return np.exp(k * P[:, 0]) * np.cos(w * P[:, 0] + p)

    bank, mask = filter_bank("cdf33"), interval(a, b)
    _, sol = az.adaptive_weighted_solve(f, mask, bank, 4096, 2)
    plain = az.reduced_az_solve(az.make_problem(f, mask, bank, 4096, 2))
    assert sol.residual <= 10 * plain.residual + 1e-12


def test_reduced_1d_small_block_is_exact():
    """The explicit 1-D reduced block has fewer than BLOCK_SIZE columns, so
    step 1 forms it exactly; the residual stays within 10x of that of the
    sampled range finder on the same block, projected and solved as
    randomized_lowrank_solve does past its dense shortcut."""
    prob = az.make_problem(exp1d, interval(0.0, 0.5), filter_bank("cdf33"),
                           2**14, 2)
    sol = az.reduced_az_solve(prob)
    op = az.scaling_plunge(prob.geometry)
    assert op.shape == (prob.Mrows.size, prob.K.size)
    assert sol.diagnostics["range_dim"] == min(op.shape) <= BLOCK_SIZE
    b1 = az.plunge_rhs(prob)
    floor = solvers.NOISE_REL * az._reference_scale(prob)
    Q = solvers._range_basis(scipy.sparse.linalg.aslinearoperator(op),
                             DEFAULT_TOL, solvers._rng(0), floor)
    assert Q.shape[1] < min(op.shape)
    y, _ = solvers._svd_solve((op.T @ Q).T, Q.T @ b1, DEFAULT_TOL, floor)
    x = _from_scaling_columns(prob, y)
    x += prob.Zstar(prob.b - prob.A @ x)
    assert sol.residual <= 10 * np.linalg.norm(prob.A @ x - prob.b)


def _from_scaling_columns(prob, y):
    """x1 = W y for a step-1 solution y on the columns K."""
    full = np.zeros(prob.grid.n_basis)
    full[prob.K] = y
    return prob.A.analysis(full)


# (f, mask, n) of the small 1-, 2- and 3-D problems, q = 2
_BLOCK_CASES = {
    1: (exp1d, interval(0.2, 0.8), 64),
    2: (exp2d, disk(0.5, 0.5, 0.35), 16),
    3: (exp3d, ball(0.5, 0.5, 0.5, 0.4), 8),
}


def _block_case(dim, bank=None):
    f, mask, n = _BLOCK_CASES[dim]
    bank = filter_bank("cdf33") if bank is None else bank
    return az.make_problem(f, mask, bank, n, 2)


def _steps23_residual(prob, x1):
    """||A x - b|| for x = x1 + Z* (b - A x1)."""
    x = x1 + prob.Zstar(prob.b - prob.A.matvec(x1))
    return np.linalg.norm(prob.A.matvec(x) - prob.b)


# Cases where the (Mrows, K) form of reduced leaves the rank bound of
# test_scaling_block_matches_wavelet_block, with the ranks and residuals
# measured (K form vs the (Mrows, L) oracle).  cdf51 is biorthogonal: W^-1
# is not orthogonal, so the K block has other singular values than the L
# block, and the residual bound holds.
_K_FORM_DIVERGES = {
    (2, "cdf51"): "exact TSVD rank 164 vs 163: the K block has a clean gap "
                  "(s_164 = 59x the cut, s_165 = 1.2e-6x), the L block "
                  "cuts a direction at 0.93x the cut",
    (3, "cdf51"): "exact TSVD rank 504 vs 480 (K block s_504 = 1.05x the "
                  "cut, s_505 = 0.20x; L block s_481 = 0.74x), residual "
                  "2.035e-2 vs 2.141e-2 (dense pivoted QR 2.035e-2)",
}


def _parity_cases():
    for dim in (1, 2, 3):
        for family in ALL_FAMILIES:
            reason = _K_FORM_DIVERGES.get((dim, family))
            marks = [pytest.mark.xfail(strict=True, reason=reason)
                     ] if reason else []
            yield pytest.param(dim, family, marks=marks, id=f"{dim}d-{family}")


@pytest.mark.parametrize("dim, family", _parity_cases())
def test_scaling_block_matches_wavelet_block(dim, family, banks):
    """reduced's step 1 on the (Mrows, K) scaling block, x1 = W y (the exact
    truncated SVD, by its frontal factor in 2-D and 3-D), against the
    randomized kernel on the (Mrows, L) wavelet block, x1 = y on L: the
    oracle's rank (within one for db3 and db4, whose minimal duals at q = 2
    put singular values at the cut) and a residual within 10x of the
    oracle's either way."""
    prob = _block_case(dim, banks[family])
    sol = az.reduced_az_solve(prob)
    ref = randomized_lowrank_solve(wavelet_block(prob),
                                   az.plunge_rhs(prob), seed=0,
                                   scale=az._reference_scale(prob))
    x1 = np.zeros(prob.grid.n_basis)
    x1[prob.L] = ref.solution
    res = _steps23_residual(prob, x1)
    msg = (sol.plunge_rank, ref.rank, sol.residual, res)
    slack = 1 if family in ("db3", "db4") else 0
    assert abs(sol.plunge_rank - ref.rank) <= slack, msg
    assert sol.residual <= 10 * res and res <= 10 * sol.residual, msg


def test_reduced_skips_wavelet_block(monkeypatch):
    """reduced and sparse never assemble the wavelet-domain plunge: with
    sparse_plunge and the selected W^-1 rows made to raise, both solve."""
    def refuse(*args):
        raise AssertionError("wavelet-domain plunge assembled")

    monkeypatch.setattr(az, "sparse_plunge", refuse)
    monkeypatch.setattr(az, "sparse_idwt_rows", refuse)
    az.clear_caches()
    for dim in (1, 2, 3):
        prob = _block_case(dim)
        for sol in (az.reduced_az_solve(prob),
                    az.sparse_az_solve(prob)):
            assert sol.plunge_rank > 0 and np.isfinite(sol.residual)


# Cases where sparse misses the dense oracle by more than 10x, with the
# measured ratio of the residuals.  The minimal discrete duals of db3 and db4
# at q = 2 (ROADMAP item 2) leave the step-1 residual at the truncation
# level.
_SPARSE_MISSES_ORACLE = {
    (1, "db3"): "residual 28.7x the oracle's",
    (1, "db4"): "residual 432x the oracle's",
    (2, "db3"): "residual 13.1x the oracle's",
    (2, "db4"): "residual 123x the oracle's",
}


def _oracle_cases():
    for dim in (1, 2, 3):
        for family in ALL_FAMILIES:
            reason = _SPARSE_MISSES_ORACLE.get((dim, family))
            marks = [pytest.mark.xfail(strict=True, reason=reason)
                     ] if reason else []
            yield pytest.param(dim, family, marks=marks, id=f"{dim}d-{family}")


@pytest.mark.parametrize("dim, family", _oracle_cases())
def test_sparse_matches_dense_oracle(dim, family, banks):
    """sparse against the dense pivoted-QR solve of the whole system, within
    10x either way (plus 1e-12, the round-off of a residual at machine
    precision), for every family in 1-, 2- and 3-D; the 8^3 db4 ball is
    the case a cut against the block's own norm alone misses (0.37 against
    0.034)."""
    prob = _block_case(dim, banks[family])
    ref = pivoted_qr_solve(dense_A(prob.A), prob.b).residual
    az.clear_caches()
    sol = az.sparse_az_solve(prob)
    assert sol.residual <= 10 * ref + 1e-12, (sol.residual, ref)
    assert ref <= 10 * sol.residual + 1e-12, (sol.residual, ref)


@given(r=st.floats(0.3, 0.42), gap=st.floats(0.0, 0.03),
       along=st.floats(0.0, 1.0), side=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_explicit_pipelines_near_box_edge(r, gap, along, side):
    """Disks inside the box whose boundary comes within 0.03 of a box edge,
    so K wraps around the periodic box: reduced and sparse stay within 10x
    of the dense pivoted-QR residual (cdf33, 16^2, q = 2)."""
    axis = side // 2
    centre = [r + along * (1 - 2 * r)] * 2
    centre[axis] = r + gap if side % 2 == 0 else 1 - r - gap
    prob = az.make_problem(exp2d, disk(*centre, r), filter_bank("cdf33"),
                           (16, 16), (2, 2))
    k_axis = np.unravel_index(prob.K, prob.grid.N)[axis]
    assert k_axis.min() == 0 and k_axis.max() == prob.grid.N[axis] - 1
    ref = pivoted_qr_solve(dense_A(prob.A), prob.b).residual
    az.clear_caches()
    for sol in (az.reduced_az_solve(prob), az.sparse_az_solve(prob)):
        assert sol.residual <= 10 * ref and ref <= 10 * sol.residual, (
            centre, r, sol.residual, ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cap", [None, 2])
def test_block_applies_match_columns(dim, cap, monkeypatch):
    """matmat/rmatmat of every operator equal the column-by-column applies,
    also when the oracle plunge's block is split into chunks, and are
    adjoint."""
    prob = _block_case(dim)
    if cap is not None:   # chunks of `cap` columns
        monkeypatch.setattr(support, "BLOCK_ENTRIES",
                            cap * prob.grid.n_basis)
    rng = np.random.default_rng(0)
    ops = {"A": prob.A, "plunge": plunge_operator(prob),
           "smoothed": plunge_operator(_weighted(prob))}

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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_plunge_kernels_match_wavelet_level_oracles(dim, weighted):
    """The plunge applies through A Z* = A_hat Z_hat* equal the compositions
    of the wavelet-level operators (idwt -> dwt -> idwt, and dwt -> idwt ->
    dwt for the adjoint) to 1e-12 relative, on vectors and blocks, with and
    without column weights; the transform-free plunge right-hand side equals
    its dwt + idwt form on the rows Mrows."""
    prob = _block_case(dim)
    if weighted:
        prob = _weighted(prob)
    m, n = prob.A.shape
    w = np.ones(n) if prob.weights is None else prob.weights
    op = plunge_operator(prob)
    rng = np.random.default_rng(dim)
    X, Y = rng.standard_normal((n, 5)), rng.standard_normal((m, 5))

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    for x, y, apply, rapply in ((X[:, 0], Y[:, 0], op.matvec, op.rmatvec),
                                (X, Y, op.matmat, op.rmatmat)):
        assert close(apply(x), reference_plunge_apply(prob, (w * x.T).T))
        assert close(rapply(y), (w * reference_plunge_rapply(prob, y).T).T)
    assert close(az.plunge_rhs(prob), reference_plunge_rhs(prob)[prob.Mrows])


def _count_transforms(monkeypatch):
    """Counts of the dwt and idwt calls of the operators from here on, by
    name; each transform of a vector or block runs one call per axis."""
    calls = {"dwt": 0, "idwt": 0}

    def counted(name):
        fn = getattr(system, name)

        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    for name in calls:
        monkeypatch.setattr(system, name, counted(name))
    return calls


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plunge_kernels_run_one_transform(dim, monkeypatch):
    """A plunge apply runs one synthesis (one idwt per axis) and no
    analysis, its adjoint one dual analysis (one dwt per axis) and no
    synthesis, the plunge right-hand side no transform: A Z* = A_hat Z_hat*
    leaves the wavelet transforms out of the plunge.  Whole solves on a
    geometry, cold or warm: reduced and sparse run one analysis and no
    synthesis; az and smoothed one analysis (x = W u) and one synthesis
    (v = W^-1 x1), and no transform in step 1, also where the geometry
    builds R_L; the reference scale takes none."""
    prob = _block_case(dim)
    calls = _count_transforms(monkeypatch)
    op = plunge_operator(prob)
    m, n = op.shape
    for call, arg, expected in (
            (op.matvec, np.ones(n), {"dwt": 0, "idwt": dim}),
            (op.matmat, np.ones((n, 3)), {"dwt": 0, "idwt": dim}),
            (op.rmatvec, np.ones(m), {"dwt": dim, "idwt": 0}),
            (op.rmatmat, np.ones((m, 3)), {"dwt": dim, "idwt": 0}),
            (lambda _: az.plunge_rhs(prob), None, {"dwt": 0, "idwt": 0})):
        calls.update(dwt=0, idwt=0)
        call(arg)
        assert calls == expected, call

    az.clear_caches()
    prob = _block_case(dim)
    for solve in (lambda: az.reduced_az_solve(prob),
                  lambda: az.reduced_az_solve(prob),
                  lambda: az.sparse_az_solve(prob),
                  lambda: az.sparse_az_solve(prob)):
        calls.update(dwt=0, idwt=0)
        solve()
        assert calls == {"dwt": dim, "idwt": 0}

    # az and smoothed, cold geometry or warm: one analysis and one
    # synthesis; R_L is built with no transform of the operators
    for solve in (lambda: az.az_solve(prob),
                  lambda: az.az_solve(prob),
                  lambda: az.smoothed_az_solve(_weighted(prob))):
        cold = "winv_block" not in vars(prob.geometry)
        calls.update(dwt=0, idwt=0)
        solve()
        assert calls == {"dwt": dim, "idwt": dim}, cold


_PIPELINES = {
    "az": az.az_solve,
    "smoothed": lambda prob: az.smoothed_az_solve(_weighted(prob)),
    "reduced": lambda prob: az.reduced_az_solve(prob),
    "sparse": az.sparse_az_solve,
}


# A pipeline's held-out interior error may be at most this factor above
# that of the dense pivoted-QR oracle on the same problem.
HELDOUT_FACTOR = 10.0
HELDOUT_CASES = {
    "interval": (lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 0]),
                 interval(0.2, 0.8), 256),
    "disk": (lambda p: np.exp(p[:, 0] * p[:, 1]) * np.cos(2 * p[:, 0] + p[:, 1]),
             disk(0.5, 0.5, 0.34), (32, 32)),
}


@pytest.fixture(scope="module")
def heldout_cases():
    """Per case: the problem (cdf33, q = 2) and the held-out interior error
    of the dense pivoted-QR solve."""
    cases = {}
    for name, (f, mask, N) in HELDOUT_CASES.items():
        prob = az.make_problem(f, mask, filter_bank("cdf33"), N, 2)
        x = pivoted_qr_solve(dense_A(prob.A), prob.b).solution
        cases[name] = prob, heldout_interior_error(prob, f, x)
    return cases


@pytest.mark.parametrize("pipeline", [*_PIPELINES, "adaptive"])
@pytest.mark.parametrize("case", sorted(HELDOUT_CASES))
def test_heldout_error_within_factor_of_oracle(heldout_cases, case,
                                               pipeline):
    """Accuracy away from the collocation points: on the grid with twice
    the oversampling, each pipeline's interior error is at most
    HELDOUT_FACTOR times that of the dense pivoted-QR oracle."""
    prob, oracle = heldout_cases[case]
    f, mask, N = HELDOUT_CASES[case]
    if pipeline == "adaptive":
        prob, sol = az.adaptive_weighted_solve(f, mask, prob.bank, N, 2)
    else:
        sol = _PIPELINES[pipeline](prob)
    err = heldout_interior_error(prob, f, sol.x)
    assert err <= HELDOUT_FACTOR * oracle, (err, oracle)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reported_residual_is_that_of_x(dim, banks):
    """reduced and sparse form A x from A_hat without a synthesis; the
    residual every pipeline reports is still ||A x - b|| of the x it
    returns, to 1e-12 ||b||, for every family.  adaptive reports that of its
    last level."""
    for name, bank in banks.items():
        prob = _block_case(dim, bank)
        f, mask, n = _BLOCK_CASES[dim]
        solves = [(pipeline, prob, solve(prob))
                  for pipeline, solve in _PIPELINES.items()]
        solves.append(("adaptive", *az.adaptive_weighted_solve(
            f, mask, bank, n, 2)))
        for pipeline, prob, sol in solves:
            r = np.linalg.norm(prob.A.matvec(sol.x) - prob.b)
            assert abs(sol.residual - r) <= 1e-12 * np.linalg.norm(prob.b), (
                name, pipeline)


def test_weighted_explicit_pipelines_raise():
    """reduced and sparse set x1 = W y from the (Mrows, K) block, which has
    no place for column weights: a weighted problem raises AZError there,
    and only the matrix-free smoothed pipeline takes it.  Weights all
    equal are no weights, for every pipeline: reduced and sparse give the
    unweighted x."""
    prob = _weighted(_block_case(2))
    with pytest.raises(az.AZError, match="unweighted"):
        az.reduced_az_solve(prob)
    with pytest.raises(az.AZError, match="unweighted"):
        az.sparse_az_solve(prob)
    assert az.smoothed_az_solve(prob).plunge_rank > 0
    plain = _block_case(2)
    same = dataclasses.replace(plain, weights=np.full(plain.grid.n_basis, 3.0))
    for solve in (az.reduced_az_solve, az.sparse_az_solve):
        assert np.array_equal(solve(same).x, solve(plain).x)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaling_plunge_is_boundary_local(dim, banks):
    """The (Mrows, K) block formed from the rows Mrows alone equals in every
    bit that block of the global A_hat - A_hat Z_hat* A_hat, for every
    filter family.  Outside the columns K and outside the rows Mrows the
    global form holds cancellation fuzz only; where the whole plunge is fuzz
    (cdf22 at q = 2 samples the hat function at its knots, so Z_hat
    reproduces it exactly) its relative pruning keeps fuzz in every column,
    and both forms are fuzz."""
    mask, n = {1: (interval(0.2, 0.8), 64), 2: (disk(0.5, 0.5, 0.35), 16),
               3: (ball(0.5, 0.5, 0.5, 0.4), 8)}[dim]
    for name, bank in banks.items():
        prob = az.make_problem(lambda p: np.ones(p.shape[0]), mask, bank, n, 2)
        P, ref = (az.scaling_plunge(prob.geometry),
                  reference_scaling_plunge(prob))
        fuzz = 1e-13 * np.abs(prob.scaling.A_hat.data).max()
        outside = np.ones(prob.grid.n_basis, dtype=bool)
        outside[prob.K] = False
        assert np.abs(ref[:, outside].data).max(initial=0) <= fuzz, name
        off_rows = np.ones(prob.grid.M, dtype=bool)
        off_rows[prob.Mrows] = False
        assert np.abs(ref[off_rows].data).max(initial=0) <= fuzz, name
        if np.abs(ref.data).max() <= fuzz:
            assert np.abs(P.data).max(initial=0) <= fuzz, name
            continue
        block = ref[prob.Mrows][:, prob.K]
        assert P.shape == block.shape == (prob.Mrows.size, prob.K.size)
        assert P.nnz == block.nnz == ref.nnz > 0, name
        assert (P != block).nnz == 0, name


def _same_factor(f, g):
    """Two sparse QR factors with the same triangle, reflectors and pivots,
    and the same entries in their blocks."""
    assert (f.A != g.A).nnz == 0 and f.front_width == g.front_width
    for name in ("rows", "cols", "H", "tau", "piv"):
        assert np.array_equal(getattr(f, name), getattr(g, name)), name
    assert len(f.steps) == len(g.steps)
    for (r0, r1, V, T), (s0, s1, W, U) in zip(f.steps, g.steps):
        assert (r0, r1) == (s0, s1)
        assert np.array_equal(V, W) and np.array_equal(T, U)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dense_scaling_block_has_the_sparse_bits(dim, banks, monkeypatch):
    """Where step 1 forms the scaling block dense (at most BLOCK_SIZE
    columns: every 1-D block, db5's 16 included, also at the box edge and
    at 2^12, and the 8^2 disk blocks of db1 and cdf22), it equals the
    sparse ``scaling_plunge`` in every bit, signed zeros included, for
    every family, and the frontal factor of its CSR is that of the sparse
    block; wider blocks are the sparse block itself.  A dense block takes
    the sparse products (``scaling_plunge``) exactly when its terms array,
    rows x shared columns x |K|, has more than DENSE_TERMS_MAX entries:
    in 1-D db5's blocks, and no other family's."""
    plunge = az.scaling_plunge
    routed = []
    monkeypatch.setattr(az, "scaling_plunge",
                        lambda g: routed.append(g) or plunge(g))
    cases = {1: [(interval(0.2, 0.8), 64), (interval(0.0, 0.5), 256),
                 (interval(0.13, 0.71), 4096)],
             2: [(disk(0.5, 0.5, 0.3), 8), (disk(0.5, 0.5, 0.34), 16),
                 (disk(0.5, 0.5, 0.35), 16)],
             3: [(ball(0.5, 0.5, 0.5, 0.4), 8)]}[dim]
    if dim == 1:
        banks = {**banks, "db5": filter_bank("db5")}
    dense_cases, sparse_routed = set(), set()
    for name, bank in banks.items():
        for mask, n in cases:
            prob = az.make_problem(exp1d if dim == 1 else
                                   (lambda p: np.ones(p.shape[0])),
                                   mask, bank, n, 2)
            routed.clear()
            block, ref = (az._scaling_block(prob.geometry),
                          plunge(prob.geometry))
            if prob.K.size > BLOCK_SIZE:
                assert scipy.sparse.issparse(block), (name, n)
                continue
            rows = prob.geometry.boundary_rows[0]
            terms = (rows.shape[0] * np.unique(rows.indices).size
                     * prob.K.size)
            assert bool(routed) == (terms > az.DENSE_TERMS_MAX), (name, n)
            if routed:
                sparse_routed.add(name)
            dense_cases.add((name, mask.description))
            assert block.view(np.int64).tolist() == \
                ref.toarray().view(np.int64).tolist(), (name, n)
            _same_factor(sparse_qr_factor(
                scipy.sparse.csr_matrix(block), scale=1.0),
                sparse_qr_factor(ref, scale=1.0))
    assert sparse_routed == ({"db5"} if dim == 1 else set())
    if dim == 1:
        assert len(dense_cases) == len(banks) * len(cases)
    elif dim == 2:
        small = disk(0.5, 0.5, 0.3).description
        assert {(name, small) for name in ("db1", "cdf22")} == dense_cases
    else:
        assert not dense_cases


@pytest.mark.parametrize("family", UNCOMPRESSED_1D_FAMILIES)
def test_uncompressed_sparse_keeps_the_compressed_rank(family):
    """sparse on an uncompressed factor, the column-pivoted QR of the 1-D
    block B itself, keeps the rank of the column-pivoted QR of the frontal
    triangle of B's CSR at the same cut (``frontal_qr_reveal``), with a
    step-1 residual within 1 % of its (or of 1e-12 ||b1||): at 2^12 and
    2^16, on (0.2, 0.75) and at the box edge on (0.001, 0.999)."""
    bank = filter_bank(family)
    for mask in (interval(0.2, 0.75), interval(0.001, 0.999)):
        for N in (2**12, 2**16):
            prob = az.make_problem(exp1d, mask, bank, N, 2)
            g, scale = prob.geometry, az._reference_scale(prob)
            assert _uncompressed(g)
            ref = frontal_qr_reveal(g.factor.A, DEFAULT_TOL, scale)
            b1 = az.plunge_rhs(prob)
            got, want = g.reveal("qr", DEFAULT_TOL)[0].solve(b1), ref.solve(b1)
            msg = (family, mask.description, N, got.rank, want.rank,
                   got.residual, want.residual)
            assert got.rank == want.rank, msg
            assert abs(got.residual - want.residual) <= (
                0.01 * want.residual + 1e-12 * np.linalg.norm(b1)), msg
            assert az.sparse_az_solve(prob).plunge_rank == want.rank, msg


def _poison_outside_rows(prob):
    """prob on a copy of its geometry whose A_hat and Z_hat hold NaN in
    every column of the rows outside Mrows, so that any product reading
    such a row turns NaN; the rows Mrows keep their entries in order."""
    off = np.ones(prob.grid.M, dtype=bool)
    off[prob.Mrows] = False
    n = prob.grid.n_basis
    mats = []
    for S in (prob.scaling.A_hat, prob.scaling.Z_hat):
        cols, vals = [], []
        for m, (lo, hi) in enumerate(zip(S.indptr[:-1], S.indptr[1:])):
            cols.append(np.arange(n) if off[m] else S.indices[lo:hi])
            vals.append(np.full(n, np.nan) if off[m] else S.data[lo:hi])
        indptr = np.r_[0, np.cumsum([c.size for c in cols])]
        mats.append(scipy.sparse.csr_matrix(
            (np.concatenate(vals), np.concatenate(cols), indptr),
            shape=S.shape))
    geometry = copy.copy(prob.geometry)
    geometry.scaling = system.ScalingMatrices(*mats)
    # what was computed from the clean matrices before the copy
    geometry.__dict__.pop("boundary_rows", None)
    geometry.__dict__.pop("boundary_block", None)
    return dataclasses.replace(prob, geometry=geometry)


@pytest.mark.parametrize("dim", [1, 2])
def test_boundary_block_has_the_boundary_rows_bits(dim, banks, monkeypatch):
    """Where K has at most BLOCK_SIZE elements, the explicit pipelines read
    the rows Mrows of A_hat and Z_hat as the dense ``boundary_block``,
    with no CSR rows; the step-1 right-hand side, x and the residual of
    reduced and sparse are then, in every bit, those read through the CSR
    ``boundary_rows``, for every family, on the factor the first solve
    made."""
    cases = {1: [(interval(0.2, 0.8), 64), (interval(0.0, 0.5), 256),
                 (interval(0.13, 0.71), 4096)],
             2: [(disk(0.5, 0.5, 0.3), 8)]}[dim]
    f = exp1d if dim == 1 else (lambda p: np.exp(p[:, 0] - p[:, 1]))
    dense_boundary, seen = az._dense_boundary, 0
    solves = (az.reduced_az_solve, az.sparse_az_solve)
    for name, bank in banks.items():
        for mask, n in cases:
            az.clear_caches()
            prob = az.make_problem(f, mask, bank, n, 2)
            g = prob.geometry
            if not dense_boundary(g):
                continue
            seen += 1
            block = [az.plunge_rhs(prob)] + [solve(prob) for solve in solves]
            terms = g.K.size * g.boundary_block[1].size
            assert ("boundary_rows" in vars(g)) == (
                terms > az.DENSE_TERMS_MAX), (name, n)
            monkeypatch.setattr(az, "_dense_boundary", lambda g: False)
            rows = [az.plunge_rhs(prob)] + [solve(prob) for solve in solves]
            monkeypatch.setattr(az, "_dense_boundary", dense_boundary)
            assert block[0].tobytes() == rows[0].tobytes(), (name, n)
            for solve, a, b in zip(solves, block[1:], rows[1:]):
                case = (name, n, solve.__name__)
                assert a.x.tobytes() == b.x.tobytes(), case
                assert a.residual == b.residual, case
    assert seen >= (len(banks) * len(cases) if dim == 1 else 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step1_reads_boundary_rows_only(dim, banks, monkeypatch):
    """The explicit step 1 reads no row of A_hat and Z_hat outside Mrows:
    with those rows poisoned by NaN, the scaling block and the step-1
    right-hand side of the call a reduced solve makes (from the same
    c = Z_hat* b) come out in the bits of the clean problem, for every
    family.  The full-row right-hand side shows the poison wherever Mrows
    leaves a row out, which it does for some family in every dimension."""
    plunge_rhs, poisoned_rhs = az.plunge_rhs, []

    def on_poisoned(problem, *args, **kw):
        """Record the solve's call on the poisoned problem, then stop the
        solve: the rest of step 1 is not under test here."""
        poisoned_rhs.append(plunge_rhs(poisoned, *args, **kw))
        raise StopIteration

    monkeypatch.setattr(az, "plunge_rhs", on_poisoned)
    live = []
    for name, bank in banks.items():
        prob = _block_case(dim, bank)
        poisoned = _poison_outside_rows(prob)
        c = prob.scaling.Z_hat.T @ prob.b
        clean, block = (az.scaling_plunge(prob.geometry),
                        az.scaling_plunge(poisoned.geometry))
        assert block.shape == clean.shape, name
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, attr),
                                  getattr(clean, attr)), (name, attr)
        dense = az._scaling_block(poisoned.geometry)
        if isinstance(dense, np.ndarray):
            assert np.array_equal(dense,
                                  az._scaling_block(prob.geometry)), name
        poisoned_rhs.clear()
        with pytest.raises(StopIteration):
            az.reduced_az_solve(prob)
        b1, = poisoned_rhs
        assert np.array_equal(b1, plunge_rhs(prob)), name
        if prob.Mrows.size < prob.grid.M:
            full = poisoned.b - poisoned.scaling.A_hat @ c
            assert np.isnan(full).any(), name
            live.append(name)
    assert live


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
    az.clear_caches()
    cold1 = az.sparse_az_solve(az.make_problem(f1, mask, bank, N, 2))
    hit = az.sparse_az_solve(az.make_problem(f2, mask, bank, N, 2))
    az.clear_caches()
    cold2 = az.sparse_az_solve(az.make_problem(f2, mask, bank, N, 2))
    assert not cold1.diagnostics["step1_reused"]
    assert hit.diagnostics.pop("step1_reused")
    assert not cold2.diagnostics.pop("step1_reused")
    assert hit.diagnostics.pop("geometry_reused")
    assert not cold2.diagnostics.pop("geometry_reused")
    assert np.array_equal(hit.x, cold2.x)
    assert hit.residual == cold2.residual
    assert hit.plunge_rank == cold2.plunge_rank > 0
    assert hit.diagnostics == cold2.diagnostics
    assert hit.stage_times["assembly"] == 0 < cold2.stage_times["assembly"]


@pytest.mark.parametrize("family, n, q", [
    ("cdf33", 32, 2), ("cdf33", 64, 2), ("db4", 32, 2), ("cdf33", 16, 4)])
def test_sparse_step1_matches_full_qrcp(family, n, q):
    """The sparse step-1 factor of a disk's scaling block against the full
    pivoted QR of the block's core at the same cut, tol * min(|R[0, 0]|,
    reference scale): the factor on a Gaussian right-hand side, then the
    whole pipeline against steps 2-3 of the oracle's step 1."""
    prob = az.make_problem(exp2d, disk(0.5, 0.5, 0.34), filter_bank(family),
                           (n, n), (q, q))
    block, scale = az.scaling_plunge(prob.geometry), az._reference_scale(prob)
    factor, _ = check_sparse_factor(block, scale)
    assert factor.rank > 0
    y, _ = sparse_qr_reference(block, az.plunge_rhs(prob),
                               scale=scale)
    x1 = _from_scaling_columns(prob, y)
    ref = _steps23_residual(prob, x1)
    az.clear_caches()
    sol = az.sparse_az_solve(prob)
    msg = (sol.residual, ref, sol.coefficient_norm)
    assert sol.plunge_rank == factor.rank
    assert ref / 1.01 <= sol.residual <= 1.01 * ref, msg


# (f, mask, family, n, factor): cases where sparse's ||x|| exceeds reduced's
# by at least `factor`.  Readings (residual, ||x||, rank), sparse against
# reduced: db4 32^2 disk (4.68e-5, 116, 488) and (4.78e-5, 12.3, 329);
# cdf51 8^3 ball (2.03e-2, 6.57e5, 505) and (2.03e-2, 1.23e3, 504).  It does
# not hold everywhere: cdf33 on the 32^2 disk gives equal norms (0.839), and
# on the 8^3 db4 ball reduced misses sparse's residual by 9x (3.1e-1 against
# 3.5e-2) with the larger norm.
_COEFFICIENT_CASES = {
    "disk32-db4": (exp2d, disk(0.5, 0.5, 0.34), "db4", 32, 4.0),
    "ball8-cdf51": (exp3d, ball(0.5, 0.5, 0.5, 0.4), "cdf51", 8, 100.0),
}


@pytest.mark.parametrize("case", sorted(_COEFFICIENT_CASES))
def test_sparse_yields_larger_coefficients(case):
    """The paper's finding that sparse QR yields larger expansion
    coefficients: on these cases sparse's basic solution reaches the
    residual of reduced's minimum-norm one within 1.25x either way, with
    an x (not y: they differ for biorthogonal families) whose norm exceeds
    reduced's by the case's factor."""
    f, mask, family, n, factor = _COEFFICIENT_CASES[case]
    d = mask.dimension
    prob = az.make_problem(f, mask, filter_bank(family), (n,) * d, (2,) * d)
    sparse, reduced = az.sparse_az_solve(prob), az.reduced_az_solve(prob)
    msg = (sparse.residual, reduced.residual, sparse.coefficient_norm,
           reduced.coefficient_norm)
    assert sparse.residual <= 1.25 * reduced.residual, msg
    assert reduced.residual <= 1.25 * sparse.residual, msg
    assert sparse.coefficient_norm == np.linalg.norm(sparse.x)
    assert sparse.coefficient_norm > factor * reduced.coefficient_norm, msg


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
    ]
    az.clear_caches()
    az.sparse_az_solve(base)
    for prob, kw in variants:
        assert not az.sparse_az_solve(prob, **kw).diagnostics["step1_reused"]
    for prob, kw in [(base, {})] + variants:
        assert az.sparse_az_solve(prob, **kw).diagnostics["step1_reused"]


# (f, mask, family, N) of two uncompressed factors, a 1-D block and db1's
# 9-column block on the 8^2 disk, and of a compressed sparse block
_BYTES_CASES = {
    "interval-cdf33": (exp1d, interval(0.2, 0.8), "cdf33", (256,)),
    "disk8-db1": (exp2d, disk(0.5, 0.5, 0.3), "db1", (8, 8)),
    "disk32-cdf33": (exp2d, disk(0.5, 0.5, 0.34), "cdf33", (32, 32)),
}


def _bytes(*arrays):
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("case", sorted(_BYTES_CASES))
def test_geometry_bytes_grow_by_the_arrays_added(case):
    """Making the factor, then each reveal, grows ``Geometry.nbytes`` by
    exactly the bytes of the arrays each adds: an uncompressed factor its
    dense block once, as both A and R_B, and its rows and cols; a
    compressed one its sparse block's data, indices and indptr, R_B, rows,
    cols and the reflectors; a reveal only its own arrays, not the frontal
    ones it shares; a reveal already made nothing.  The per-axis rows of
    W^-1 add their arrays, and az's Gram reveal its U, s and Vt and the
    Gram factor F, which it shares with the geometry."""
    f, mask, family, N = _BYTES_CASES[case]
    az.clear_caches()
    g = az.make_problem(f, mask, filter_bank(family), N, 2).geometry
    before = g.nbytes
    # what the block is formed from: the dense boundary block of at most
    # BLOCK_SIZE boundary functions, else the CSR boundary rows
    if az._dense_boundary(g):
        made = g.boundary_block
    else:
        made = [a for S in g.boundary_rows
                for a in (S.data, S.indices, S.indptr)]
    sizes = [g.nbytes]
    assert sizes[0] - before == _bytes(*made)
    factor = g.factor
    sizes.append(g.nbytes)
    svd, _ = g.reveal("svd", DEFAULT_TOL)
    sizes.append(g.nbytes)
    qr, _ = g.reveal("qr", DEFAULT_TOL)
    sizes.append(g.nbytes)
    g.reveal("qr", DEFAULT_TOL)
    sizes.append(g.nbytes)
    rows = _bytes(*(a for axis in g.winv_rows for a in axis if a is not None))
    sizes.append(g.nbytes)
    gram, _ = g.reveal("gram", DEFAULT_TOL)
    sizes.append(g.nbytes)
    assert gram.right is g.gram[0]
    A = factor.A
    uncompressed = case != "disk32-cdf33"
    assert _uncompressed(g) is uncompressed
    assert scipy.sparse.issparse(A) is not uncompressed
    if uncompressed:
        assert not factor.steps and A.shape[1] <= BLOCK_SIZE
        block = A.nbytes
    else:
        block = _bytes(A.data, A.indices, A.indptr, factor.R_B)
    own = _bytes(factor.rows, factor.cols,
                 *(a for _, _, V, T in factor.steps for a in (V, T)))
    assert np.diff(sizes).tolist() == [
        block + own,
        _bytes(svd.U, svd.s, svd.Vt),
        _bytes(qr.H, qr.tau, qr.piv),
        0, rows,
        _bytes(gram.U, gram.s, gram.Vt, gram.right)]


def test_sparse_step1_cache_stays_within_budget(monkeypatch):
    """More geometries than fit evict the least recently used, with their
    factors; each geometry held keeps its reveals and is held with its
    current bytes.  The problems are made after the clear and dropped after
    their solves, as a live problem keeps its geometry's factor."""
    bank = filter_bank("cdf33")
    make = lambda i: az.make_problem(exp1d, interval(0.1 + 0.01 * i, 0.7),
                                     bank, 512, 2)
    az.clear_caches()
    az.sparse_az_solve(make(0))
    one = max(size for _, size in az._cache.values())
    budget = int(2.5 * one)   # some geometries
    monkeypatch.setattr(az, "CACHE_BYTES", budget)
    for i in range(1, 6):
        prob = make(i)
        az.reduced_az_solve(prob)
        az.sparse_az_solve(prob)
        del prob
        assert sum(size for _, size in az._cache.values()) <= budget
        assert all(size == g.nbytes and g.reveals
                   for g, size in az._cache.values())
    assert 0 < len(az._cache) < 6
    assert az.sparse_az_solve(make(5)).diagnostics["step1_reused"]
    assert not az.sparse_az_solve(make(0)).diagnostics["step1_reused"]
    az.clear_caches()
    assert not az._cache


def test_sparse_step1_factor_over_budget_leaves_cache(monkeypatch):
    """A geometry larger than the whole budget, with its block, factor and
    a reveal, is kept as the newest, alone: its miss evicts the geometries
    cached before it, and it leaves the cache at the next miss."""
    bank = filter_bank("cdf33")
    disk32 = (exp2d, disk(0.5, 0.5, 0.34), bank, (32, 32), (2, 2))
    az.clear_caches()
    small = az.make_problem(exp1d, interval(0.1, 0.7), bank, 512, 2)
    az.sparse_az_solve(small)
    budget = sum(size for _, size in az._cache.values())
    monkeypatch.setattr(az, "CACHE_BYTES", budget)
    big = az.make_problem(*disk32)
    assert [g for g, _ in az._cache.values()] == [big.geometry]
    g = big.geometry
    assert "factor" not in vars(g)
    before = g.nbytes
    g.reveal("qr", DEFAULT_TOL)
    assert g.nbytes > g.nbytes - before > budget
    az._keep(big.geometry)
    assert [g for g, _ in az._cache.values()] == [big.geometry]
    assert az.sparse_az_solve(big).diagnostics["step1_reused"]
    assert [g for g, _ in az._cache.values()] == [big.geometry]
    assert az.sparse_az_solve(
        az.make_problem(*disk32)).diagnostics["step1_reused"]
    small = az.make_problem(exp1d, interval(0.1, 0.7), bank, 512, 2)
    assert [g for g, _ in az._cache.values()] == [small.geometry]
    assert not az.sparse_az_solve(small).diagnostics["step1_reused"]
    az.clear_caches()


def test_sparse_step1_cache_holds_no_problem():
    """The cache keeps boundary-sized factors only: the problem and its grid
    are freed after the solve, and its scaling matrices once the geometry
    cache is cleared."""
    az.clear_caches()
    prob = az.make_problem(exp2d, disk(0.5, 0.5, 0.34), filter_bank("cdf33"),
                           (32, 32), (2, 2))
    az.sparse_az_solve(prob)
    refs = [weakref.ref(prob), weakref.ref(prob.grid)]
    scaling = weakref.ref(prob.scaling)
    del prob
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(az._cache) == 1
    az.clear_caches()
    gc.collect()
    assert scaling() is None


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_block_compressed_once_per_geometry(dim, monkeypatch):
    """Every pipeline starts step 1 from one factor per geometry: across
    reduced, sparse, az, smoothed and adaptive on db5's 1-D block at 64
    points, the 16^2 disk and the 8^3 ball (whose ladders have that one
    level), ``_scaling_block`` runs once while the geometry stays cached,
    and ``_frontal_qr`` once in 2-D and 3-D and never on the 1-D block of
    16 columns, which is its own factor; only the first solve reports the
    assembly, and each pipeline returns the x of a solve from cold caches.
    Each cold solve and the counted round run on a problem made after
    clear_caches, as a live problem keeps its geometry and all it has
    made; R_L is built before the round, so that the assembly there is the
    factor's alone."""
    f, mask, n = _BLOCK_CASES[dim]
    bank = filter_bank("db5") if dim == 1 else None
    prob = _block_case(dim, bank)
    solves = {
        "reduced": lambda: az.reduced_az_solve(prob),
        "sparse": lambda: az.sparse_az_solve(prob),
        "az": lambda: az.az_solve(prob),
        "smoothed": lambda: az.smoothed_az_solve(_weighted(prob)),
        "adaptive": lambda: az.adaptive_weighted_solve(
            f, mask, prob.bank, n, 2)[1]}
    cold = {}
    for name, solve in solves.items():
        az.clear_caches()
        prob = _block_case(dim, bank)
        cold[name] = solve().x
    counts = {"_scaling_block": 0, "_frontal_qr": 0}

    def counted(name):
        fn = getattr(az, name)

        def run(*args):
            counts[name] += 1
            return fn(*args)
        return run

    for name in counts:
        monkeypatch.setattr(az, name, counted(name))
    az.clear_caches()
    prob = _block_case(dim, bank)
    prob.geometry.winv_block
    for i, (name, solve) in enumerate(solves.items()):
        sol = solve()
        assert np.array_equal(sol.x, cold[name]), name
        assert (sol.stage_times["assembly"] > 0) is (i == 0), name
    assert counts == {"_scaling_block": 1, "_frontal_qr": int(dim > 1)}
    (geometry, size), = az._cache.values()
    assert geometry is prob.geometry and size == geometry.nbytes
    # reduced and az take no reveal of an uncompressed factor; az's Gram
    # reveal is the third on a compressed one
    assert len(geometry.reveals) == (1 if dim == 1 else 3)


_GEOMETRY_SOLVES = {
    "reduced": lambda f, mask, bank, N: az.reduced_az_solve(
        az.make_problem(f, mask, bank, N, 2)),
    "sparse": lambda f, mask, bank, N: az.sparse_az_solve(
        az.make_problem(f, mask, bank, N, 2)),
    "az": lambda f, mask, bank, N: az.az_solve(
        az.make_problem(f, mask, bank, N, 2)),
    "adaptive": lambda f, mask, bank, N: az.adaptive_weighted_solve(
        f, mask, bank, N, 2)[1],
}


@pytest.mark.parametrize("pipeline", sorted(_GEOMETRY_SOLVES))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_geometry_reuse_is_bit_identical(dim, pipeline, monkeypatch):
    """A problem on the geometry of the previous make_problem call shares its
    operators and index sets but samples its own b, and every pipeline
    solves it to the bits of a cold assembly.  adaptive meets the primed
    geometry at the first level of its ladder."""
    mask, N = {1: (interval(0.2, 0.8), (64,)),
               2: (disk(0.5, 0.5, 0.35), (16, 16)),
               3: (ball(0.5, 0.5, 0.5, 0.4), (8, 8, 8))}[dim]
    bank = filter_bank("cdf33")
    f1 = lambda p: np.exp(p.sum(axis=1))
    f2 = lambda p: np.cos(3 * p[:, 0]) + p[:, -1] ** 2
    first = N
    if pipeline == "adaptive":
        first = tuple(min(az.coarsest_n(bank), n) for n in N)
    made, make = [], az.make_problem

    def recorded(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(az, "make_problem", recorded)
    solve = _GEOMETRY_SOLVES[pipeline]
    az.clear_caches()
    cold = solve(f2, mask, bank, N)
    az.clear_caches()
    primer = make(f1, mask, bank, first, 2)
    made.clear()
    hit = solve(f2, mask, bank, N)
    assert made[0].geometry_reused and made[0].geometry_s == 0.0
    assert made[0].scaling is primer.scaling and made[0].K is primer.K
    assert not np.array_equal(made[0].b, primer.b)
    assert not cold.diagnostics["geometry_reused"]
    assert hit.diagnostics["geometry_reused"] == made[-1].geometry_reused
    assert hit.stage_times["geometry"] == made[-1].geometry_s
    assert np.array_equal(hit.x, cold.x)
    assert hit.residual == cold.residual
    assert hit.plunge_rank == cold.plunge_rank > 0


def test_geometry_key_separates_geometries():
    """Problems that differ in the mask, q, the family or N never share an
    assembly, also when their masks carry the same description and the
    others are cached; an equal geometry does, and ``base`` stays warm
    after each other geometry."""
    bank = filter_bank("cdf33")
    f = lambda p: np.exp(p[:, 0])
    left = DomainMask(1, lambda p: (p[:, 0] >= 0.15) & (p[:, 0] <= 0.75))
    right = DomainMask(1, lambda p: (p[:, 0] >= 0.2) & (p[:, 0] <= 0.8))
    assert left.description == right.description == "predicate"
    base = (f, left, bank, 256, 2)
    az.clear_caches()
    assert not az.make_problem(*base).geometry_reused
    for args in [(f, right, bank, 256, 2), (f, left, bank, 256, 4),
                 (f, left, filter_bank("cdf35"), 256, 2),
                 (f, left, bank, 128, 2)]:
        other = az.make_problem(*args)
        assert not other.geometry_reused
        again = az.make_problem(*args)
        assert again.geometry_reused and again.geometry is other.geometry
        warm = az.make_problem(*base)
        assert warm.geometry_reused and warm.geometry is not other.geometry
    assert len(az._cache) == 5


def test_geometry_cache_keeps_one_assembly(monkeypatch):
    """The cache keeps one assembly per geometry and never its mask: an
    equal geometry reuses it, and an eviction or a clear frees the scaling
    matrices."""
    bank = filter_bank("cdf33")
    mask = interval(0.2, 0.8)
    az.clear_caches()
    prob = az.make_problem(exp1d, mask, bank, 64, 2)
    first, held = weakref.ref(prob.scaling), weakref.ref(mask)
    monkeypatch.setattr(az, "CACHE_BYTES", prob.geometry.nbytes)
    del prob, mask
    gc.collect()
    assert first() is not None and held() is None
    again = az.make_problem(exp1d, interval(0.2, 0.8), bank, 64, 2)
    assert again.scaling is first()
    del again
    second = weakref.ref(
        az.make_problem(exp1d, interval(0.1, 0.8), bank, 64, 2).scaling)
    gc.collect()
    assert first() is None and second() is not None
    az.clear_caches()
    gc.collect()
    assert second() is None


def test_miss_frees_room_before_it_assembles(monkeypatch):
    """On a miss, make_problem evicts until a geometry as large as the
    largest held fits, before it assembles: with room for two geometries
    of one size, the least recently used of two (the one made last, as
    the other was made again since) is freed by the time
    ``assemble_scaling`` runs for a third, and the other stays."""
    bank = filter_bank("cdf33")
    masks = [interval(0.2, 0.8), interval(0.1, 0.7), interval(0.15, 0.75)]
    az.clear_caches()
    probs = [az.make_problem(exp1d, m, bank, 256, 2) for m in masks[:2]]
    size = max(p.geometry.nbytes for p in probs)
    monkeypatch.setattr(az, "CACHE_BYTES", int(2.5 * size))
    assert az.make_problem(exp1d, masks[0], bank, 256, 2).geometry_reused
    other, oldest = (weakref.ref(p.scaling) for p in probs)
    del probs
    seen, assemble = [], az.assemble_scaling

    def recorded(*args):
        seen.append((oldest(), other()))
        return assemble(*args)

    monkeypatch.setattr(az, "assemble_scaling", recorded)
    third = az.make_problem(exp1d, masks[2], bank, 256, 2)
    assert len(seen) == 1
    assert seen[0][0] is None and seen[0][1] is not None
    assert not third.geometry_reused and len(az._cache) == 2
    az.clear_caches()


_FIT_GEOMETRIES = [(interval(0.2, 0.8), 256), (interval(0.1, 0.7), 512),
                   (interval(0.15, 0.75), 1024), (disk(0.5, 0.5, 0.35), 16)]


@given(calls=st.lists(st.tuples(
           st.integers(0, len(_FIT_GEOMETRIES) - 1),
           st.sampled_from(["make", "reduced", "sparse", "az"])),
           min_size=1, max_size=10),
       budget=st.integers(0, 2**18))
@settings(max_examples=25, deadline=None)
def test_cache_fits_budget_unless_it_holds_one(calls, budget):
    """After any sequence of makes and solves, the geometries held take at
    most CACHE_BYTES unless there is one, the last one used is the newest,
    and each is held with its current bytes."""
    bank, saved = filter_bank("cdf33"), az.CACHE_BYTES
    az.CACHE_BYTES = budget
    try:
        az.clear_caches()
        for i, call in calls:
            mask, n = _FIT_GEOMETRIES[i]
            f = exp1d if mask.dimension == 1 else exp2d
            prob = az.make_problem(f, mask, bank, (n,) * mask.dimension, 2)
            if call != "make":
                _PIPELINES[call](prob)
            held = list(az._cache.values())
            assert sum(size for _, size in held) <= budget or len(held) == 1
            assert held[-1][0] is prob.geometry
            for g, size in held:
                assert size == g.nbytes
    finally:
        az.CACHE_BYTES = saved
        az.clear_caches()


def test_geometry_cache_is_thread_safe():
    """Threads that make problems on two geometries at once each get the
    operators and index sets of their own geometry."""
    bank = filter_bank("cdf33")
    masks = [interval(0.2, 0.8), interval(0.1, 0.7)]
    az.clear_caches()
    refs = [az.make_problem(exp1d, m, bank, 64, 2) for m in masks]
    wrong = []

    def work(i):
        for k in range(20):
            ref = refs[(i + k) % 2]
            p = az.make_problem(exp1d, masks[(i + k) % 2], bank, 64, 2)
            if not (np.array_equal(p.K, ref.K)
                    and np.array_equal(p.Mrows, ref.Mrows)
                    and (p.scaling.A_hat != ref.scaling.A_hat).nnz == 0):
                wrong.append((i, k))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval_s)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
