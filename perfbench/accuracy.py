"""Accuracy gate of one request, built from wavext's public API only.

Two checks, both run outside the timed region:

* parity: for n_basis <= ORACLE_MAX_BASIS the residual must be within
  PARITY_FACTOR of ``solvers.pivoted_qr_solve`` on ``system.dense_A`` (the
  factor and the 1e-12 floor of the repository's own parity test);
* held-out error: the approximation is evaluated on the grid with twice the
  oversampling (``masked_grid`` at 2q, ``assemble_scaling``,
  ``frame_operator_A``).  Points whose enclosing q-cell corners are all
  collocation points form the gated interior; the remaining points of the
  domain, beyond the outermost collocation nodes, give the ungated edge error.
"""

import numpy as np

from wavext.cli import parse_domain, parse_function
from wavext.domain import masked_grid
from wavext.filters import filter_bank
from wavext.system import assemble_scaling, dense_A, frame_operator_A
from wavext import az, solvers

ORACLE_MAX_BASIS = 1024
PARITY_FACTOR = 10.0
PARITY_FLOOR = 1e-12
# Interior held-out error bound by dimension, relative to max |f| on the
# domain.  Recorded about 10x above the largest interior error of a request
# that passes parity: 2.5e-8 (1-D, db4 at 2^12), 4.3e-5 (2-D, 16^2) and
# 3.6e-3 (3-D, 8^3 ball).
HELDOUT_THRESHOLD = {1: 1e-6, 2: 1e-3, 3: 3e-2}


def _setup(cfg):
    mask = parse_domain(cfg.domain)
    d = mask.dimension
    N = tuple(cfg.N) * d if len(cfg.N) == 1 else tuple(cfg.N)
    q = tuple(cfg.q) * d if len(cfg.q) == 1 else tuple(cfg.q)
    return mask, filter_bank(cfg.family), parse_function(cfg.function), N, q


def interior_points(fine):
    """Points of a 2q grid whose enclosing q-cell corners all lie in the domain.

    Coarse point j sits at fine index 2j, so the coarse indicator is the fine
    one taken at even indices; fine index i has corners i // 2 and
    (i + 1) // 2 along each axis, and the AND over all corners separates.
    """
    coarse = fine.inside_bool[tuple(slice(None, None, 2) for _ in fine.N)]
    acc = coarse
    for ax, g in enumerate(fine.grid_shape):
        i = np.arange(g)
        lo = np.take(acc, i // 2, axis=ax)
        hi = np.take(acc, ((i + 1) // 2) % acc.shape[ax], axis=ax)
        acc = lo & hi
    return acc & fine.inside_bool


class HeldoutEvaluator:
    """Held-out errors of coefficient vectors; caches the 2q operator per
    (domain, family, N) so requests sharing a geometry assemble it once per run."""

    def __init__(self):
        self._cache = {}

    def errors(self, cfg, x):
        """(interior max, edge max) of |approx - f| / max |f| on the 2q grid."""
        key = (cfg.domain, cfg.family, tuple(cfg.N), tuple(cfg.q))
        if key not in self._cache:
            mask, bank, _, N, q = _setup(cfg)
            fine = masked_grid(mask, N, tuple(2 * qi for qi in q))
            A2 = frame_operator_A(assemble_scaling(bank, fine), bank, fine)
            interior = interior_points(fine).ravel()[fine.inside]
            self._cache[key] = fine, A2, interior
        fine, A2, interior = self._cache[key]
        exact = parse_function(cfg.function)(fine.points())
        err = np.abs(A2.matvec(x) - exact) / np.abs(exact).max()
        edge = err[~interior]
        return float(err[interior].max()), float(edge.max()) if edge.size else 0.0


class ParityOracle:
    """Residual of the dense pivoted-QR solve; caches dense A per geometry, so
    each (domain, family, N) is materialized once per run."""

    def __init__(self):
        self._cache = {}

    def residual(self, cfg):
        key = (cfg.domain, cfg.family, tuple(cfg.N), tuple(cfg.q))
        mask, bank, f, N, q = _setup(cfg)
        if key not in self._cache:
            problem = az.make_problem(f, mask, bank, N, q)
            self._cache[key] = problem.grid, dense_A(problem.A)
        grid, Ad = self._cache[key]
        b = np.asarray(f(grid.points()), dtype=float)
        return solvers.pivoted_qr_solve(Ad, b, tol=cfg.tol).residual, float(np.linalg.norm(b))


def gate(cfg, n_basis, x, residual, heldout, oracle):
    """Accuracy record of one request; ``ok`` is the gate verdict."""
    N = _setup(cfg)[3]
    interior, edge = heldout.errors(cfg, x)
    rec = {"heldout_interior_max": interior, "heldout_edge_max": edge,
           "oracle_residual": None, "parity_ratio": None}
    ok = bool(np.all(np.isfinite(x))) and interior <= HELDOUT_THRESHOLD[len(N)]
    if n_basis <= ORACLE_MAX_BASIS:
        ores, bnorm = oracle.residual(cfg)
        rec["oracle_residual"] = ores
        rec["relative_residual"] = residual / bnorm
        rec["parity_ratio"] = residual / ores if ores > 0 else float("inf")
        ok = ok and residual <= PARITY_FACTOR * ores + PARITY_FLOOR
    rec["ok"] = ok
    return rec
