"""Command-line harness: approximation runs, sweeps, and diagnostics.

Each subcommand accepts only the options it reads: ``approximate``,
``convergence`` and ``timing`` take the solve options (``--N`` for one run,
``--N-sweep`` for the sweeps), the diagnostics take ``--family``,
``--output`` and their own few.  No command takes a seed, as no pipeline
draws a random number; a record's config keeps ``"seed": 0``.
``convergence`` and ``timing`` end with a ``slope`` row, the log-log slope
of the residual or of the wall time over N.

Records are JSON (self-describing, schema-versioned); sweep tables are CSV so
plots can be produced with external tooling.  Exit codes: 0 success, 1
runtime failure, 2 configuration error.
"""

import argparse
import ast
import csv
import datetime
import json
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

SCHEMA_VERSION = 3


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
    seed: int = 0       # recorded only: the benchmark's requests set it
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
    diagnostics: dict
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(
            datetime.timezone.utc).isoformat())


def serialize_record(rec: RunRecord) -> str:
    return json.dumps(asdict(rec), indent=2, sort_keys=True)


def parse_record(text: str) -> RunRecord:
    d = json.loads(text)
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported record schema version "
                          f"{d.get('schema_version')!r}; this wavext reads "
                          f"version {SCHEMA_VERSION}")
    return RunRecord(**d)


def _json_safe(v):
    """v with tuples and arrays as lists and numpy scalars as Python ones."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_json_safe(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


# ---------------------------------------------------------------------------
# spec parsers

_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
          "log": np.log, "tanh": np.tanh, "abs": np.abs}
# The operators the expression may use, by their ufuncs
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_UNARY = {ast.USub: np.negative, ast.UAdd: np.positive}


def _evaluate(node, env, text):
    """(value, owned) of a node of the parsed spec ``text`` over the named
    columns env: owned when value is an array this evaluation made, which
    the operator applied to it may overwrite."""
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env, text)
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value), False
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id], False
        raise ConfigError(f"unknown name {node.id!r} in function spec")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _apply(_BINOPS[type(node.op)], (node.left, node.right), env,
                      text)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _apply(_UNARY[type(node.op)], (node.operand,), env, text)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _FUNCS and not node.keywords:
        return _apply(_FUNCS[node.func.id], node.args, env, text)
    raise ConfigError(f"disallowed syntax in function spec {text!r}")


def _apply(ufunc, args, env, text):
    """ufunc of the evaluated args, into the first of them that is owned."""
    if len(args) != ufunc.nin:
        raise ConfigError(f"{ufunc.__name__} takes {ufunc.nin} argument(s) "
                          f"in function spec {text!r}")
    vals, out = [], None
    for a in args:
        value, owned = _evaluate(a, env, text)
        vals.append(value)
        if owned and out is None:
            out = value
    value = ufunc(*vals, out)
    return value, isinstance(value, np.ndarray)


def _compile_expression(text):
    """Whitelisted arithmetic expression over x, y, z -> vectorized callable.

    The callable takes an (npoints, d) array.  Each operator is its ufunc,
    evaluated into an operand that the evaluation made itself when there is
    one (``out=``), else into a new array (``_evaluate``): the bits of an
    out-of-place evaluation, with one vector per live temporary instead of
    one per operator, and the columns of the points passed in are never
    written."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"cannot parse function spec {text!r}: {e}") from e

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = {n: pts[:, i] for i, n in enumerate("xyz") if i < pts.shape[1]}
        value, owned = _evaluate(tree, env, text)
        if owned:
            return value
        return np.broadcast_to(value, (pts.shape[0],)).astype(float)

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

def _dense_qr(problem, tol):
    """Baseline: pivoted QR of the densified frame operator."""
    rep = solvers.pivoted_qr_solve(dense_A(problem.A), problem.b, tol=tol)
    return az_mod.AZSolution(
        x=rep.solution, residual=rep.residual,
        coefficient_norm=rep.solution_norm,
        per_scale_norms=az_mod.per_scale_norms(rep.solution, problem.grid.N),
        stage_times={"geometry": problem.geometry_s,
                     "samples": problem.samples_s, "solve": rep.wall_time},
        plunge_rank=rep.rank,
        diagnostics={"geometry_reused": problem.geometry_reused})


SOLVERS = {
    "az": lambda p, tol: az_mod.az_solve(p, tol=tol),
    "reduced": lambda p, tol: az_mod.reduced_az_solve(p, tol=tol),
    "sparse": lambda p, tol: az_mod.sparse_az_solve(p, tol=tol),
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
                                              tol=cfg.tol)
    problem = az_mod.make_problem(f, mask, bank, N, q)
    return problem, SOLVERS[cfg.solver](problem, cfg.tol)


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
        diagnostics=_json_safe(sol.diagnostics),
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
# subcommands: each takes the parsed arguments of its own subparser

def _config_from(args, **kw) -> RunConfig:
    """The validated RunConfig of a solving command's arguments."""
    return RunConfig(command=args.command, family=args.family,
                     q=tuple(args.q), domain=args.domain,
                     function=args.function, solver=args.solver,
                     tol=args.tol, output=args.output,
                     **kw).validate()


def cmd_approximate(args):
    cfg = _config_from(args, N=tuple(args.N))
    problem, sol = run_one(cfg)
    _emit(serialize_record(record_for(cfg, problem, sol)), cfg.output)
    return 0


def cmd_convergence(args):
    """Residual, coefficient norm and rank at each N, then the log-log
    slope of the residual."""
    cfg = _config_from(args)
    rows = []
    for n in args.N_sweep:
        problem, sol = run_one(cfg, N=(n,))
        rows.append([n, sol.residual, sol.coefficient_norm, sol.plunge_rank])
    slope = _slope([r[0] for r in rows], [r[1] for r in rows])
    if slope is not None:
        rows.append(["slope", slope])
    _emit_csv(["N", "residual", "coefnorm", "rank"], rows, cfg.output)
    return 0


# Stage times that `timing` reports beside the wall time: problem assembly,
# the grid and samples, step 1, the part of step 1 that forms the scaling
# block and its factor (and az's rows of W^-1), and steps 2-3
# (``AZSolution.stage_times``; NaN for a pipeline without the stage, such
# as qr).
TIMING_STAGES = ("geometry", "samples", "step1", "assembly", "step23")


def cmd_timing(args):
    """Median wall time of a solve from scratch at each N, and the median
    seconds of each of TIMING_STAGES: the geometry cache is cleared before
    every repetition, so every pipeline assembles its geometry and makes
    the factor of its scaling block (``Geometry.factor``) afresh each time
    (reduced and sparse report ``step1_reused`` False)."""
    if args.repetitions < 3:
        raise ConfigError("timing requires at least 3 repetitions")
    cfg = _config_from(args)
    rows = []
    for n in args.N_sweep:
        times, stages = [], []
        for _ in range(args.repetitions):
            az_mod.clear_caches()
            t0 = time.perf_counter()
            _, sol = run_one(cfg, N=(n,))
            times.append(time.perf_counter() - t0)
            stages.append([sol.stage_times.get(k, np.nan)
                           for k in TIMING_STAGES])
        rows.append([n, float(np.median(times)),
                     *(float(t) for t in np.median(stages, axis=0))])
    header = ["N", "median_seconds", *TIMING_STAGES]
    slope = _slope([r[0] for r in rows], [r[1] for r in rows])
    if slope is not None:
        rows.append(["slope", slope])
    _emit_csv(header, rows, cfg.output)
    return 0


def cmd_indexsets(args):
    mask = parse_domain(args.domain)
    bank = filter_bank(args.family)
    q = _per_dim(args.q, mask.dimension)
    rows = []
    for n in args.N_sweep:
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
    _emit_csv(["N", "K", "L", "Mrows"], rows, args.output)
    return 0


def cmd_duals(args):
    b, d = dual_pair(filter_bank(args.family), args.q)
    out = {
        "family": args.family, "q": args.q,
        "primal_offset": int(b.offset), "primal": list(map(float, b.b)),
        "dual_offset": int(d.offset), "dual": list(map(float, d.b_dual)),
        "dual_norm": d.norm, "pairing_residual": float(pairing_residual(b, d)),
    }
    _emit(json.dumps(out, indent=2), args.output)
    return 0


def cmd_filters(args):
    bank = filter_bank(args.family)
    report = validate(bank)
    out = {
        "family": args.family, "orthogonal": bank.orthogonal,
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
    _emit(json.dumps(out, indent=2), args.output)
    return 0


def cmd_cascade(args):
    bank = filter_bank(args.family)
    s = wavelet_at_dyadic(bank, args.level) if args.mother else \
        scaling_at_dyadic(bank.h, args.level)
    rows = [[float(t), float(v)] for t, v in zip(s.grid, s.values)]
    _emit_csv(["t", "value"], rows, args.output)
    return 0


def cmd_dwt_norms(args):
    out = {"family": args.family, "J": args.J}
    out.update(operator_norms(filter_bank(args.family), args.J))
    _emit(json.dumps(out, indent=2), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


# The options a command may take, by name; each command picks its own.
_OPTIONS = {
    "family": dict(default="cdf33"),
    "N": dict(type=_int_list, default=[256],
              help="per-dimension basis size(s), comma separated"),
    "q": dict(type=_int_list, default=[2]),
    "domain": dict(default="interval:0,0.5"),
    "function": dict(default="exp1d"),
    "solver": dict(default="reduced", choices=sorted(SOLVERS) + ["adaptive"]),
    "tol": dict(type=float, default=solvers.DEFAULT_TOL),
    "N-sweep": dict(type=_int_list, required=True,
                    help="comma separated dyadic N values"),
}
_SOLVE = ("q", "domain", "function", "solver", "tol")


def build_parser():
    p = argparse.ArgumentParser(
        prog="wavext",
        description="Wavelet extension-frame approximation toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, *options):
        """Subparser ``name`` running ``run(args)``, with --family, the
        named _OPTIONS and --output.  No abbreviations: --N must not pass
        for --N-sweep."""
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.set_defaults(run=run)
        for opt in ("family", *options):
            sp.add_argument(f"--{opt}", **_OPTIONS[opt])
        sp.add_argument("--output", default=None)
        return sp

    command("approximate", cmd_approximate, "N", *_SOLVE)
    command("convergence", cmd_convergence, *_SOLVE, "N-sweep")
    command("timing", cmd_timing, *_SOLVE, "N-sweep").add_argument(
        "--repetitions", type=int, default=3)
    command("indexsets", cmd_indexsets, "q", "domain", "N-sweep")
    command("duals", cmd_duals).add_argument("--q", type=int, default=2)
    command("filters", cmd_filters)
    c = command("cascade", cmd_cascade)
    c.add_argument("--level", type=int, default=6)
    c.add_argument("--mother", action="store_true")
    command("dwt-norms", cmd_dwt_norms).add_argument("--J", type=int,
                                                     default=8)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ConfigError, DomainError, FilterError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
