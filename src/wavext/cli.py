"""Command-line harness: approximation runs, sweeps, and diagnostics.

Records are JSON (self-describing, schema-versioned); sweep tables are CSV so
plots can be produced with external tooling.  Exit codes: 0 success, 1
runtime failure, 2 configuration error.
"""

import argparse
import ast
import csv
import datetime
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import az as az_mod
from . import solvers
from .cascade import scaling_at_dyadic, wavelet_at_dyadic
from .domain import (DomainError, ball, disk, interval, masked_grid,
                     plunge_row_set, scaling_boundary_set,
                     wavelet_boundary_set, whole_box)
from .dual import dual_pair, pairing_residual
from .dwt import operator_norms
from .filters import FilterError, filter_bank, validate
from .system import dense_A

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    family: str = "cdf33"
    N: tuple = (256,)
    q: tuple = (2,)
    domain: str = "interval:0,0.5"
    function: str = "exp1d"
    solver: str = "reduced"
    tol: float = solvers.DEFAULT_TOL
    seed: int = 0
    output: str | None = None

    def validate(self):
        if self.solver != "adaptive" and self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; "
                              f"choose from {sorted(SOLVERS)}")
        try:
            filter_bank(self.family)
        except FilterError as e:
            raise ConfigError(str(e)) from e
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        mask = parse_domain(self.domain)
        if len(self.N) not in (1, mask.dimension):
            raise ConfigError(f"N has {len(self.N)} entries for a "
                              f"{mask.dimension}-dimensional domain")
        return self


@dataclass
class RunRecord:
    schema_version: int
    config: dict
    residual: float
    coefficient_norm: float
    per_scale_norms: list
    plunge_rank: int
    index_sizes: dict
    stage_times: dict
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(
            datetime.timezone.utc).isoformat())


def serialize_record(rec: RunRecord) -> str:
    return json.dumps(asdict(rec), indent=2, sort_keys=True)


def parse_record(text: str) -> RunRecord:
    d = json.loads(text)
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported record schema {d.get('schema_version')}")
    return RunRecord(**d)


# ---------------------------------------------------------------------------
# spec parsers

_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
          "log": np.log, "tanh": np.tanh, "abs": np.abs}
_ALLOWED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def _compile_expression(text):
    """Whitelisted arithmetic expression over x, y, z -> vectorized callable."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"cannot parse function spec {text!r}: {e}") from e

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            raise ConfigError(f"unknown name {node.id!r} in function spec")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_OPS):
            ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                   ast.Div: np.divide, ast.Pow: np.power}
            return ops[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_OPS):
            v = ev(node.operand, env)
            return -v if isinstance(node.op, ast.USub) else +v
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCS and not node.keywords:
            return _FUNCS[node.func.id](*[ev(a, env) for a in node.args])
        raise ConfigError(f"disallowed syntax in function spec {text!r}")

    def f(pts):
        pts = np.atleast_2d(pts)
        env = {n: pts[:, i] for i, n in enumerate("xyz") if i < pts.shape[1]}
        return np.broadcast_to(ev(tree, env), (pts.shape[0],)).astype(float)

    return f


def parse_function(spec):
    builtins = {
        "exp1d": lambda p: np.exp(p[:, 0]),
        "exp2d": lambda p: np.exp(p[:, 0] * p[:, 1]),
        "exp3d": lambda p: np.exp(p[:, 0] * p[:, 1] * p[:, 2]),
    }
    if spec in builtins:
        return builtins[spec]
    return _compile_expression(spec)


def parse_domain(spec):
    try:
        kind, _, rest = spec.partition(":")
        args = [float(v) for v in rest.split(",")] if rest else []
        if kind == "interval":
            return interval(*args)
        if kind == "disk":
            return disk(*args)
        if kind == "ball":
            return ball(*args)
        if kind == "box":
            return whole_box(int(args[0]) if args else 1)
        raise ConfigError(f"unknown domain kind {kind!r}")
    except (TypeError, ValueError, DomainError) as e:
        raise ConfigError(f"bad domain spec {spec!r}: {e}") from e


def _per_dim(values, d):
    if len(values) == 1:
        return tuple(values) * d
    return tuple(values)


# ---------------------------------------------------------------------------
# solver dispatch

def _dense_qr(problem, tol, seed):
    """Baseline: pivoted QR of the densified frame operator."""
    rep = solvers.pivoted_qr_solve(dense_A(problem.A), problem.b, tol=tol)
    return az_mod.AZSolution(
        x=rep.solution, residual=rep.residual,
        coefficient_norm=rep.solution_norm,
        per_scale_norms=az_mod.per_scale_norms(rep.solution, problem.grid.N),
        stage_times={"solve": rep.wall_time}, plunge_rank=rep.rank,
        warning=rep.warning)


SOLVERS = {
    "az": lambda p, tol, seed: az_mod.az_solve(p, tol=tol, seed=seed),
    "reduced": lambda p, tol, seed: az_mod.reduced_az_solve(p, tol=tol, seed=seed),
    "sparse": lambda p, tol, seed: az_mod.sparse_az_solve(p, tol=tol),
    "smoothed": lambda p, tol, seed: az_mod.smoothed_az_solve(p, tol=tol, seed=seed),
    "qr": _dense_qr,
}


def run_one(cfg: RunConfig, N=None):
    """One approximation solve; returns (problem, solution)."""
    mask = parse_domain(cfg.domain)
    bank = filter_bank(cfg.family)
    f = parse_function(cfg.function)
    N = _per_dim(N if N is not None else cfg.N, mask.dimension)
    q = _per_dim(cfg.q, mask.dimension)
    if cfg.solver == "adaptive":
        return az_mod.adaptive_weighted_solve(f, mask, bank, N, q,
                                              tol=cfg.tol, seed=cfg.seed)
    problem = az_mod.make_problem(f, mask, bank, N, q)
    return problem, SOLVERS[cfg.solver](problem, cfg.tol, cfg.seed)


def record_for(cfg, problem, sol) -> RunRecord:
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        config={**asdict(cfg), "N": list(cfg.N), "q": list(cfg.q)},
        residual=float(sol.residual),
        coefficient_norm=float(sol.coefficient_norm),
        per_scale_norms=[float(v) for v in sol.per_scale_norms],
        plunge_rank=int(sol.plunge_rank),
        index_sizes={"K": int(problem.K.size), "L": int(problem.L.size),
                     "Mrows": int(problem.Mrows.size)},
        stage_times={k: float(v) for k, v in sol.stage_times.items()},
    )


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_csv(header, rows, path):
    dest = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(dest)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if path:
            dest.close()


def _slope(ns, ts):
    ns, ts = np.asarray(ns, float), np.asarray(ts, float)
    keep = ts > 0
    if keep.sum() < 2:
        return None
    return float(np.polyfit(np.log(ns[keep]), np.log(ts[keep]), 1)[0])


# ---------------------------------------------------------------------------
# subcommands

def cmd_approximate(cfg: RunConfig):
    problem, sol = run_one(cfg)
    _emit(serialize_record(record_for(cfg, problem, sol)), cfg.output)
    return 0


def cmd_convergence(cfg: RunConfig, n_list):
    rows = []
    for n in n_list:
        problem, sol = run_one(cfg, N=(n,))
        rows.append([n, sol.residual, sol.coefficient_norm, sol.plunge_rank])
    _emit_csv(["N", "residual", "coefnorm", "rank"], rows, cfg.output)
    return 0


def cmd_timing(cfg: RunConfig, n_list, repetitions):
    """Median wall time of a solve from scratch at each N: the sparse step-1
    cache is cleared before every repetition."""
    if repetitions < 3:
        raise ConfigError("timing requires at least 3 repetitions")
    rows = []
    for n in n_list:
        times = []
        for _ in range(repetitions):
            az_mod.clear_step1_cache()
            t0 = time.perf_counter()
            run_one(cfg, N=(n,))
            times.append(time.perf_counter() - t0)
        rows.append([n, float(np.median(times))])
    header = ["N", "median_seconds"]
    slope = _slope([r[0] for r in rows], [r[1] for r in rows])
    if slope is not None:
        rows.append(["slope", slope])
    _emit_csv(header, rows, cfg.output)
    return 0


def cmd_indexsets(cfg: RunConfig, n_list):
    mask = parse_domain(cfg.domain)
    bank = filter_bank(cfg.family)
    q = _per_dim(cfg.q, mask.dimension)
    rows = []
    for n in n_list:
        grid = masked_grid(mask, _per_dim((n,), mask.dimension), q)
        K, kflags = scaling_boundary_set(grid, bank)
        L, _ = wavelet_boundary_set(kflags, bank, grid.N)
        Mrows = plunge_row_set(kflags, bank, grid)
        rows.append([n, K.size, L.size, Mrows.size])
    slopes = []
    for col, name in ((1, "K"), (2, "L"), (3, "Mrows")):
        s = _slope([r[0] for r in rows], [r[col] for r in rows])
        if s is not None:
            slopes.append([f"slope_{name}", s, "", ""])
    rows.extend(slopes)
    _emit_csv(["N", "K", "L", "Mrows"], rows, cfg.output)
    return 0


def cmd_duals(cfg: RunConfig):
    bank = filter_bank(cfg.family)
    q = cfg.q[0]
    b, d = dual_pair(bank, q)
    out = {
        "family": cfg.family, "q": q,
        "primal_offset": int(b.offset), "primal": list(map(float, b.b)),
        "dual_offset": int(d.offset), "dual": list(map(float, d.b_dual)),
        "dual_norm": d.norm, "pairing_residual": float(pairing_residual(b, d)),
    }
    _emit(json.dumps(out, indent=2), cfg.output)
    return 0


def cmd_filters(cfg: RunConfig):
    bank = filter_bank(cfg.family)
    report = validate(bank)
    out = {
        "family": cfg.family, "orthogonal": bank.orthogonal,
        "p": bank.p, "p_dual": bank.p_dual,
        "h": {"offset": bank.h.offset, "taps": list(map(float, bank.h.taps))},
        "g": {"offset": bank.g.offset, "taps": list(map(float, bank.g.taps))},
        "h_dual": {"offset": bank.h_dual.offset,
                   "taps": list(map(float, bank.h_dual.taps))},
        "g_dual": {"offset": bank.g_dual.offset,
                   "taps": list(map(float, bank.g_dual.taps))},
        "checks": {k: {"pass": bool(v["pass"]),
                       "max_violation": float(v["max_violation"])}
                   for k, v in report.checks.items()},
        "valid": report.passed,
    }
    _emit(json.dumps(out, indent=2), cfg.output)
    return 0


def cmd_cascade(cfg: RunConfig, level, mother):
    bank = filter_bank(cfg.family)
    s = wavelet_at_dyadic(bank, level) if mother else \
        scaling_at_dyadic(bank.h, level)
    rows = [[float(t), float(v)] for t, v in zip(s.grid, s.values)]
    _emit_csv(["t", "value"], rows, cfg.output)
    return 0


def cmd_dwt_norms(cfg: RunConfig, J):
    bank = filter_bank(cfg.family)
    out = {"family": cfg.family, "J": J}
    out.update(operator_norms(bank, J))
    _emit(json.dumps(out, indent=2), cfg.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def build_parser():
    p = argparse.ArgumentParser(
        prog="wavext",
        description="Wavelet extension-frame approximation toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, sweep=False):
        sp.add_argument("--family", default="cdf33")
        sp.add_argument("--N", type=_int_list, default=[256],
                        help="per-dimension basis size(s), comma separated")
        sp.add_argument("--q", type=_int_list, default=[2])
        sp.add_argument("--domain", default="interval:0,0.5")
        sp.add_argument("--function", default="exp1d")
        sp.add_argument("--solver", default="reduced",
                        choices=sorted(SOLVERS) + ["adaptive"])
        sp.add_argument("--tol", type=float, default=solvers.DEFAULT_TOL)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--output", default=None)
        if sweep:
            sp.add_argument("--N-sweep", type=_int_list, required=True,
                            help="comma separated dyadic N values")

    common(sub.add_parser("approximate"))
    common(sub.add_parser("convergence"), sweep=True)
    t = sub.add_parser("timing")
    common(t, sweep=True)
    t.add_argument("--repetitions", type=int, default=3)
    common(sub.add_parser("indexsets"), sweep=True)
    common(sub.add_parser("duals"))
    common(sub.add_parser("filters"))
    c = sub.add_parser("cascade")
    common(c)
    c.add_argument("--level", type=int, default=6)
    c.add_argument("--mother", action="store_true")
    d = sub.add_parser("dwt-norms")
    common(d)
    d.add_argument("--J", type=int, default=8)
    return p


def _config_from(args) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("WAVEXT_SEED", "0"))
    return RunConfig(command=args.command, family=args.family,
                     N=tuple(args.N), q=tuple(args.q), domain=args.domain,
                     function=args.function, solver=args.solver,
                     tol=args.tol, seed=seed, output=args.output).validate()


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _config_from(args)
        if args.command == "approximate":
            return cmd_approximate(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg, args.N_sweep)
        if args.command == "timing":
            return cmd_timing(cfg, args.N_sweep, args.repetitions)
        if args.command == "indexsets":
            return cmd_indexsets(cfg, args.N_sweep)
        if args.command == "duals":
            return cmd_duals(cfg)
        if args.command == "filters":
            return cmd_filters(cfg)
        if args.command == "cascade":
            return cmd_cascade(cfg, args.level, args.mother)
        if args.command == "dwt-norms":
            return cmd_dwt_norms(cfg, args.J)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, FilterError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
