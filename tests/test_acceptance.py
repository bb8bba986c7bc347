"""End-to-end acceptance checks for the whole toolbox.

Each test pins one advertised guarantee at its stated tolerance and wall-time
budget: filter admissibility, perfect reconstruction, transform sparsity,
discrete duals, plunge-region structure, solver-pipeline parity, approximation
order, runtime scaling, scale-weighted smoothing, and bit-level determinism.
"""

import time
import warnings

import numpy as np

from wavext import az
from wavext.domain import disk, interval
from wavext.dual import dual_pair, pairing_residual
from wavext.dwt import TransformPlan, dwt, idwt
from wavext.filters import filter_bank, validate
from wavext.solvers import pivoted_qr_solve, randomized_lowrank_solve
from wavext.system import dense_A

from support import (ALL_FAMILIES, DUAL_COMBOS, dense_matrix, periodize_dual,
                     periodize_primal, plunge_apply, plunge_rank,
                     truncated_svd_solve)


def exp1d(p):
    return np.exp(p[:, 0])


def exp2d(p):
    return np.exp(p[:, 0] * p[:, 1])


def _slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


# ---------------------------------------------------------------------------
# 1. filter admissibility

def test_acceptance_filter_identities():
    t0 = time.perf_counter()
    for fam in ALL_FAMILIES:
        report = validate(filter_bank(fam))
        assert report.passed, fam
        worst = max(c["max_violation"] for c in report.checks.values())
        assert worst < 1e-12, (fam, worst)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. perfect reconstruction and transform identities

def test_acceptance_perfect_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x_big = rng.standard_normal(2 ** 16)
    for fam in ALL_FAMILIES:
        bank = filter_bank(fam)
        plan = TransformPlan(bank, 16)
        err = np.abs(idwt(dwt(x_big, plan), plan) - x_big).max()
        assert err < 1e-10, (fam, err)
        # dense identities at J = 8: W* = Wdual^{-1}, (W^{-1})* = Wdual
        W = dense_matrix(TransformPlan(bank, 8))
        Wd = dense_matrix(TransformPlan(bank, 8, "dual"))
        Winv = dense_matrix(TransformPlan(bank, 8), inverse=True)
        assert np.abs(W.T @ Wd - np.eye(256)).max() < 1e-12, fam
        assert np.abs(Winv.T - Wd).max() < 1e-12, fam
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. transform sparsity: O(J) entries per column, O(J 2^J) total

def test_acceptance_transform_sparsity():
    t0 = time.perf_counter()
    bank = filter_bank("db2")
    Js, percol, total = [], [], []
    for J in range(6, 13):
        W = dense_matrix(TransformPlan(bank, J))
        nz = np.abs(W) > 1e-12
        Js.append(J)
        percol.append(nz.sum(axis=0).max())
        total.append(nz.sum())
    assert 0.8 <= _slope(Js, percol) <= 1.2
    for J, t in zip(Js, total):
        assert t <= 8 * J * 2 ** J
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. discrete dual sequences

def test_acceptance_duals():
    t0 = time.perf_counter()
    for fam, q in DUAL_COMBOS:
        b, d = dual_pair(filter_bank(fam), q)
        assert pairing_residual(b, d) < 1e-10, (fam, q)
    # periodized Gram identity and coefficient reproduction
    bank = filter_bank("cdf33")
    N, q = 64, 2
    b, d = dual_pair(bank, q)
    P = np.stack([np.roll(periodize_primal(b, N), k * q) for k in range(N)])
    D = np.stack([np.roll(periodize_dual(d, N, q), k * q) for k in range(N)])
    assert np.abs(D @ P.T - np.eye(N)).max() < 1e-10
    c = np.random.default_rng(1).standard_normal(N)
    assert np.abs(D @ (P.T @ c) - c).max() < 1e-10
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 5. plunge-region structure

def test_acceptance_plunge_structure():
    t0 = time.perf_counter()
    bank = filter_bank("cdf33")

    # 1-D: rank bounded by the boundary set and constant across resolutions
    ranks = []
    for J in range(6, 13):
        prob = az.make_problem(exp1d, interval(0.0, 0.5), bank, 2 ** J, 2)
        r = plunge_rank(prob)
        assert r <= prob.K.size
        ranks.append(r)
    assert max(ranks) - min(ranks) <= 1

    # sparse plunge supports and size, with a dense SVD rank crosscheck
    prob = az.make_problem(exp1d, interval(0.0, 0.5), bank, 256, 2)
    P = az.sparse_plunge(prob)
    rows, cols = P.nonzero()
    assert np.isin(np.unique(cols), prob.L).all()
    assert np.isin(np.unique(rows), prob.Mrows).all()
    assert P.nnz <= 4 * 8 * prob.K.size
    dense = np.column_stack([plunge_apply(prob, e) for e in np.eye(256)])
    s = np.linalg.svd(dense, compute_uv=False)
    assert plunge_rank(prob) == int(np.sum(s > 1e-10 * s[0]))

    # 2-D disk: rank grows like sqrt(DOF)
    ranks2, dofs = [], []
    for n in (16, 32, 64):
        prob = az.make_problem(exp2d, disk(0.5, 0.5, 0.35), bank,
                               (n, n), (2, 2))
        r = plunge_rank(prob)
        assert r <= prob.K.size
        ranks2.append(r)
        dofs.append(n * n)
    assert 0.35 <= _slope(dofs, ranks2) <= 0.65
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 6. solver-pipeline parity

def _pipeline_residuals(prob, seed=0):
    res = [az.az_solve(prob, seed=seed).residual,
           az.reduced_az_solve(prob).residual,
           az.sparse_az_solve(prob).residual]
    Ad = dense_A(prob.A)
    res.append(pivoted_qr_solve(Ad, prob.b).residual)
    res.append(truncated_svd_solve(Ad, prob.b).residual)
    return res


def test_acceptance_pipeline_parity():
    t0 = time.perf_counter()
    bank = filter_bank("cdf33")
    p1 = az.make_problem(exp1d, interval(0.0, 0.5), bank, 256, 2)
    p2 = az.make_problem(exp2d, disk(0.5, 0.5, 0.35), bank, (32, 32), (2, 2))
    for prob in (p1, p2):
        res = _pipeline_residuals(prob)
        assert max(res) <= 10 * min(res) + 1e-12, res
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 7. approximation order on a curved domain

def test_acceptance_order_comparison():
    t0 = time.perf_counter()
    dom = disk(0.5, 0.5, 0.35)
    finest = {}
    for fam in ("cdf22", "cdf33", "cdf44"):
        bank = filter_bank(fam)
        res = []
        for n in (16, 32, 64):
            prob = az.make_problem(exp2d, dom, bank, (n, n), (4, 4))
            res.append(az.sparse_az_solve(prob).residual)
        assert res[0] > res[1] > res[2], (fam, res)
        finest[fam] = res[-1]
    assert finest["cdf44"] < finest["cdf33"] < finest["cdf22"]
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 8. runtime scaling

def _median_time(make, solve, reps=3):
    """Median time of solve(make()) from scratch: the caches are cleared
    before every repetition, so make() assembles each time."""
    ts = []
    for _ in range(reps):
        az.clear_caches()
        t0 = time.perf_counter()
        solve(make())
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def test_acceptance_timing_scaling_1d():
    bank = filter_bank("cdf33")
    ns, ts = [], []
    for J in range(10, 19, 2):
        n = 2 ** J
        ts.append(_median_time(
            lambda n=n: az.make_problem(exp1d, interval(0.0, 0.5), bank, n, 2),
            lambda p: az.reduced_az_solve(p)))
        ns.append(n)
    s = _slope(ns, ts)
    assert 0.5 <= s <= 1.7, s
    if not 0.8 <= s <= 1.4:
        warnings.warn(f"1-D runtime slope {s:.2f} outside the nominal "
                      "[0.8, 1.4] band (fixed overheads at small N)")


def test_acceptance_timing_scaling_2d():
    bank = filter_bank("cdf33")
    dofs, ts = [], []
    for n in (16, 32, 64, 128):
        ts.append(_median_time(
            lambda n=n: az.make_problem(exp2d, disk(0.5, 0.5, 0.35), bank,
                                        (n, n), (2, 2)),
            lambda p: az.reduced_az_solve(p)))
        dofs.append(n * n)
    s = _slope(dofs, ts)
    assert s <= 1.8, s


def test_acceptance_step23_at_most_linear_1d():
    """Steps 2-3 (x = W u and the residual, from step 1's solution) are
    linear in N: the log-log slope of the median stage_times["step23"] of
    reduced, sparse and az over N = 2^12 ... 2^18 on one interval stays
    under an upper bound.  Only an upper bound: a lower one fails whenever
    the O(N) work gets faster."""
    bank, ns = filter_bank("cdf33"), [2 ** J for J in range(12, 19)]
    solves = {"reduced": az.reduced_az_solve, "sparse": az.sparse_az_solve,
              "az": lambda p: az.az_solve(p, seed=0)}
    ts = {name: [] for name in solves}
    for n in ns:
        prob = az.make_problem(exp1d, interval(0.2, 0.75), bank, n, 2)
        for name, solve in solves.items():
            ts[name].append(float(np.median(
                [solve(prob).stage_times["step23"] for _ in range(5)])))
    slopes = {name: _slope(ns, t) for name, t in ts.items()}
    assert max(slopes.values()) <= 1.2, slopes


# ---------------------------------------------------------------------------
# 9. scale-weighted smoothing of the extension

def test_acceptance_weighted_smoothing():
    t0 = time.perf_counter()
    bank = filter_bank("cdf33")
    mask = interval(0.0, 0.6)
    _, adaptive = az.adaptive_weighted_solve(exp1d, mask, bank, 256, 2, seed=0)
    plain = az.reduced_az_solve(
        az.make_problem(exp1d, mask, bank, 256, 2))
    prob = az.make_problem(exp1d, mask, bank, 256, 2)
    ext = az.extension_index_set(prob)
    na = az.per_scale_norms(adaptive.x, prob.grid.N, select=ext)
    np_ = az.per_scale_norms(plain.x, prob.grid.N, select=ext)
    # weighted run: extension energy decays across the three finest scales
    assert na[-1] < na[-2] < na[-3], na
    # unweighted run does not exhibit that decay
    assert not (np_[-1] < np_[-2] < np_[-3]), np_
    assert adaptive.residual <= 10 * plain.residual + 1e-12
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 10. determinism

def test_acceptance_determinism():
    bank = filter_bank("cdf33")
    prob = az.make_problem(exp1d, interval(0.0, 0.5), bank, 256, 2)
    for solve in (lambda: az.az_solve(prob, seed=42),
                  lambda: az.reduced_az_solve(prob),
                  lambda: az.adaptive_weighted_solve(
                      exp1d, interval(0.0, 0.5), bank, 256, 2, seed=42)[1]):
        a, b = solve(), solve()
        assert np.array_equal(a.x, b.x)
        assert a.residual == b.residual
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 30))
    bvec = rng.standard_normal(40)
    r1 = randomized_lowrank_solve(A, bvec, seed=9)
    r2 = randomized_lowrank_solve(A, bvec, seed=9)
    assert np.array_equal(r1.solution, r2.solution)
