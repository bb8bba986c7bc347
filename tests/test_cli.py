import argparse
import ast
import csv
import json

import numpy as np
import pytest

from wavext import cli

from support import reference_expression


def run(args, **kw):
    return cli.main(args, **kw)


# ---------------------------------------------------------------------------
# records

def test_record_roundtrip():
    """Every pipeline's record, diagnostics included, survives JSON
    unchanged: tuples and numpy scalars are stored as lists and Python
    numbers.  A schema-3 record has no warning field.  At 1-D sizes (at
    most 16 rows) the randomized kernel forms its block exactly, sketches
    nothing and records the block's shape as ``core_shape``, as every
    exact reveal does: the (Mrows, K) scaling block for reduced, the
    (Mrows, K) R_B F of az's Gram route, and the (Mrows, L) boundary block
    of adaptive's last, weighted rung; sparse's factor has the core
    (Mrows, K).  No record has a ``sketch_shape``.  az records the
    condition of its Gram, ``gram_cond``."""
    for solver in sorted(cli.SOLVERS) + ["adaptive"]:
        cfg = cli.RunConfig(command="approximate", N=(64,),
                            solver=solver).validate()
        problem, sol = cli.run_one(cfg)
        rec = cli.record_for(cfg, problem, sol)
        block = [problem.Mrows.size, problem.K.size]
        core = {"az": block, "reduced": block, "sparse": block,
                "adaptive": [problem.Mrows.size, problem.L.size]}
        assert rec.diagnostics.get("core_shape") == core.get(solver)
        assert "sketch_shape" not in rec.diagnostics
        assert ("gram_cond" in rec.diagnostics) is (solver == "az")
        assert cli.parse_record(cli.serialize_record(rec)) == rec, solver
        assert rec.schema_version == 3 and not hasattr(rec, "warning")
        assert rec.diagnostics.keys() == sol.diagnostics.keys()
        assert rec.diagnostics["geometry_reused"] is \
            sol.diagnostics["geometry_reused"]
        if solver == "sparse":
            assert rec.diagnostics["core_shape"] == \
                list(sol.diagnostics["core_shape"])
        if solver == "adaptive":
            assert all(type(v) is float
                       for v in rec.diagnostics["weight_history"])


def test_record_diagnostics_json_safe():
    safe = cli._json_safe({"shape": (np.int64(3), 4), "s": np.float64(0.5),
                           "ok": np.bool_(True), "h": np.arange(2.0)})
    assert safe == {"shape": [3, 4], "s": 0.5, "ok": True, "h": [0.0, 1.0]}
    assert type(safe["shape"][0]) is int and type(safe["ok"]) is bool
    assert json.loads(json.dumps(safe)) == safe


def test_adaptive_reuses_the_ladder_problem(monkeypatch):
    """run_one assembles each ladder level once and records the index sets
    of the problem at N."""
    from wavext import az

    cfg = cli.RunConfig(command="approximate", N=(128,),
                        solver="adaptive").validate()
    built = []
    make = az.make_problem

    def counted(f, mask, bank, N, q, **kw):
        built.append(N)
        return make(f, mask, bank, N, q, **kw)

    monkeypatch.setattr(az, "make_problem", counted)
    problem, sol = cli.run_one(cfg)
    # one weight per level, after the initial ||b||
    assert len(built) == len(set(built)) == len(sol.diagnostics["weight_history"]) - 1
    assert problem.grid.N == (128,)
    assert problem.b.size == problem.grid.M and problem.weights is None


def test_record_schema_rejected():
    with pytest.raises(cli.ConfigError):
        cli.parse_record(json.dumps({"schema_version": 99}))
    for old in (1, 2):
        with pytest.raises(cli.ConfigError, match=f"version {old};"):
            cli.parse_record(json.dumps({"schema_version": old}))


# ---------------------------------------------------------------------------
# spec parsing

def test_expression_parser_evaluates():
    f = cli.parse_function("exp(x)*sin(y) + 1")
    pts = np.array([[0.0, 0.0], [1.0, np.pi / 2]])
    np.testing.assert_allclose(f(pts), [1.0, np.e + 1.0])


def test_expression_parser_constant_broadcast():
    f = cli.parse_function("2.5")
    assert f(np.zeros((7, 1))).shape == (7,)


@pytest.mark.parametrize("spec", [
    "x*x", "x+x*x", "sin(x)", "exp(-x)", "-x", "-x*y+z", "x**y", "2.5",
    "+x", "abs(-x)/2", "2*3", "sqrt(x)+tanh(y)-log(1+z)",
    "exp(1.1234*x)*cos(2.3456*x+0.4567)",
    "exp(0.8765*x*y)*cos(1.2345*x+2.5432*y+0.1234)",
    "exp(0.5*x*y*z)*cos(1.5*x+2.5*y+1.75*z+0.25)",
])
def test_expression_evaluator_matches_out_of_place(spec):
    """Every spec evaluates to the bits of the out-of-place evaluation,
    with one new array per operator (``support.reference_expression``),
    also where it reuses its own temporaries: repeated names, calls and
    unary minus on a bare name, powers, constants, and the benchmark's
    functions.  The points passed in, also on strided columns, are left
    unchanged, and the result is a new float vector of one value per
    point."""
    names = {node.id for node in ast.walk(ast.parse(spec))
             if isinstance(node, ast.Name)}
    rng = np.random.default_rng(7)
    for d in range(max(1, len(names & set("xyz"))), 4):
        pts = rng.uniform(0.05, 0.95, (257, d))
        before = pts.copy()
        out = cli.parse_function(spec)(pts)
        ref = reference_expression(spec)(pts)
        assert out.dtype == float and out.shape == (257,), (spec, d)
        assert out.view(np.int64).tolist() == ref.view(np.int64).tolist(), \
            (spec, d)
        assert np.array_equal(pts, before), (spec, d)
        assert not np.shares_memory(out, pts), (spec, d)


@pytest.mark.parametrize("bad", [
    "__import__('os')", "x.__class__", "open('x')", "lambda: 1",
    "x if x else y", "unknownname", "exp(x, key=1)", "[1,2]", "exp(x, x)",
    "sin()",
])
def test_expression_parser_rejects(bad):
    with pytest.raises(cli.ConfigError):
        cli.parse_function(bad)(np.zeros((2, 1)))


def test_parse_domain():
    assert cli.parse_domain("interval:0.1,0.6").dimension == 1
    assert cli.parse_domain("disk:0.5,0.5,0.3").dimension == 2
    assert cli.parse_domain("ball:0.5,0.5,0.5,0.3").dimension == 3
    assert cli.parse_domain("box:2").dimension == 2
    with pytest.raises(cli.ConfigError):
        cli.parse_domain("pentagon:1,2")
    with pytest.raises(cli.ConfigError):
        cli.parse_domain("interval:0.9,0.1")


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="approximate", solver="magic").validate()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="approximate", family="xx9").validate()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="approximate", tol=-1.0).validate()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(command="approximate", N=(8, 8),
                      domain="interval:0,0.5").validate()


# ---------------------------------------------------------------------------
# exit codes

SWEEP = ["--family", "cdf33", "--domain", "interval:0,0.5"]
BASE = [*SWEEP, "--N", "64"]


def test_exit_ok(tmp_path):
    out = tmp_path / "r.json"
    assert run(["approximate", *BASE, "--output", str(out)]) == 0
    rec = cli.parse_record(out.read_text())
    assert rec.residual < 1e-6


@pytest.mark.parametrize("solver", ["az", "reduced", "sparse", "qr",
                                    "adaptive"])
def test_every_solver_exits_ok(solver, tmp_path):
    out = tmp_path / "r.json"
    assert run(["approximate", *BASE, "--solver", solver,
                "--output", str(out)]) == 0
    assert cli.parse_record(out.read_text()).config["solver"] == solver


@pytest.mark.parametrize("solver", sorted(cli.SOLVERS) + ["adaptive"])
def test_record_times_the_geometry(solver, tmp_path):
    """The record carries the seconds the problem's geometry took to
    assemble: some on a cold assembly, none when the next request on the
    same geometry reuses it; and the seconds make_problem spent outside
    it, on the grid, the geometry key and b (``samples``), on every
    request."""
    from wavext import az

    az.clear_caches()
    times = []
    for _ in range(2):
        out = tmp_path / "r.json"
        assert run(["approximate", *BASE, "--solver", solver,
                    "--output", str(out)]) == 0
        times.append(cli.parse_record(out.read_text()).stage_times)
    assert times[0]["geometry"] > 0 == times[1]["geometry"]
    assert all(t["samples"] > 0 for t in times), solver


# (solver, family, n) of the requests of one pass of the disk-2d benchmark,
# all on one disk
DISK_PASS = [("sparse", "cdf33", 32), ("sparse", "cdf33", 64),
             ("az", "cdf33", 16), ("reduced", "cdf33", 16),
             ("adaptive", "cdf33", 16), ("sparse", "db4", 32)]


def test_disk_pass_keeps_every_geometry():
    """The geometries of a disk-2d pass fit the cache together: run twice
    through run_one, every request of the second round reuses its
    geometry, reduced and sparse their step-1 reveal, az and adaptive
    their compression (no assembly time), and every x keeps its bits.
    adaptive's one rung at 16^2 has weights all ||b||, so it is az on the
    geometry az has just solved on: it reuses az's reveal in both
    rounds."""
    from wavext import az

    az.clear_caches()
    rounds = []
    for _ in range(2):
        rounds.append([cli.run_one(cli.RunConfig(
            command="approximate", family=family, N=(n,), q=(2,),
            domain="disk:0.5000,0.5000,0.3400", solver=solver, seed=7,
            function="exp(1.1*x*y)*cos(2.1*x+1.3*y+0.4)").validate())[1]
            for solver, family, n in DISK_PASS])
    for (solver, _, _), first, sol in zip(DISK_PASS, *rounds):
        assert sol.diagnostics["geometry_reused"], solver
        if solver in ("reduced", "sparse"):
            assert sol.diagnostics["step1_reused"], solver
        else:
            assert sol.stage_times["assembly"] == 0, solver
        if solver == "adaptive":
            assert first.diagnostics["step1_reused"], solver
            assert sol.diagnostics["step1_reused"], solver
        assert np.array_equal(sol.x, first.x), solver


def test_smoothed_solver_is_gone(capsys):
    """The unweighted smoothed solve gave the bits of az; the CLI no longer
    offers it."""
    assert "smoothed" not in cli.SOLVERS
    assert run(["approximate", *BASE, "--solver", "smoothed"]) == 2
    capsys.readouterr()


def test_adaptive_below_coarsest_n_exits_ok(tmp_path):
    out = tmp_path / "r.json"
    assert run(["approximate", "--solver", "adaptive", "--N", "8",
                "--output", str(out)]) == 0
    assert cli.parse_record(out.read_text()).config["N"] == [8]


def test_exit_config_error(capsys):
    assert run(["approximate", "--family", "nosuch"]) == 2
    assert run(["approximate", "--domain", "blob:1"]) == 2
    assert run(["approximate", "--solver", "qr", "--N", "100"]) == 2  # non-dyadic
    capsys.readouterr()


def test_empty_domain_is_config_error(capsys):
    assert run(["approximate", "--domain", "disk:2,2,0.1", "--N", "16"]) == 2
    assert "empty domain" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value encountered in log")
def test_exit_runtime_error(capsys):
    # log of a negative argument yields NaN samples -> runtime failure
    assert run(["approximate", *BASE, "--function", "log(x-2)"]) == 1
    capsys.readouterr()


def test_unknown_flag_is_config_error(capsys):
    assert run(["approximate", "--nonsense", "1"]) == 2
    # an option the command does not read is refused, not ignored
    assert run(["convergence", *BASE, "--N-sweep", "64"]) == 2
    assert run(["filters", "--tol", "-1"]) == 2
    capsys.readouterr()


# The options each subcommand reads, and no others.
_SOLVE = {"family", "q", "domain", "function", "solver", "tol", "seed",
          "output"}
COMMAND_OPTIONS = {
    "approximate": _SOLVE | {"N"},
    "convergence": _SOLVE | {"N-sweep"},
    "timing": _SOLVE | {"N-sweep", "repetitions"},
    "indexsets": {"family", "q", "domain", "output", "N-sweep"},
    "duals": {"family", "q", "output"},
    "filters": {"family", "output"},
    "cascade": {"family", "output", "level", "mother"},
    "dwt-norms": {"family", "output", "J"},
}


def test_each_command_takes_the_options_it_reads():
    """The parser offers every subcommand exactly its options of
    COMMAND_OPTIONS: an option a command never reads has no way in."""
    parser = cli.build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    got = {name: {o[2:] for a in sp._actions for o in a.option_strings
                  if o.startswith("--") and o != "--help"}
           for name, sp in sub.choices.items()}
    assert got == COMMAND_OPTIONS


# ---------------------------------------------------------------------------
# determinism and seeding

def _strip_time(path):
    d = json.loads(path.read_text())
    d.pop("timestamp")
    d.pop("stage_times")
    return d


def test_bit_identical_given_seed(tmp_path):
    """Two runs of one seeded request write the same record but for the
    time and the flags of what the first left cached: the second reuses
    the geometry and step 1's reveal, whether or not the first did."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["approximate", *BASE, "--solver", "az", "--seed", "5"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    ja, jb = _strip_time(a), _strip_time(b)
    ja.pop("config"); jb.pop("config")
    for flag in ("geometry_reused", "step1_reused"):
        ja["diagnostics"].pop(flag)
        assert jb["diagnostics"].pop(flag) is True, flag
    assert ja == jb


def test_seed_from_option_only(tmp_path, monkeypatch):
    """The seed is --seed, 0 without it; the environment plays no part."""
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    monkeypatch.setenv("WAVEXT_SEED", "17")
    run(["approximate", *BASE, "--solver", "az", "--output", str(a)])
    monkeypatch.delenv("WAVEXT_SEED")
    run(["approximate", *BASE, "--solver", "az", "--seed", "0",
         "--output", str(b)])
    run(["approximate", *BASE, "--solver", "az", "--seed", "3",
         "--output", str(c)])
    assert json.loads(a.read_text())["config"]["seed"] == 0
    assert _strip_time(a)["residual"] == _strip_time(b)["residual"]
    assert json.loads(c.read_text())["config"]["seed"] == 3


# ---------------------------------------------------------------------------
# sweeps and diagnostics

def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_convergence_csv(tmp_path):
    """One row per N, the residual falling with N, then the log-log slope
    of the residual."""
    out = tmp_path / "c.csv"
    assert run(["convergence", *SWEEP, "--N-sweep", "64,128,256",
                "--output", str(out)]) == 0
    header, *rows, slope = _read_csv(out)
    assert header == ["N", "residual", "coefnorm", "rank"]
    assert [r[0] for r in rows] == ["64", "128", "256"]
    res = [float(r[1]) for r in rows]
    assert 1e-3 > res[0] > res[1] > res[2]
    assert slope[0] == "slope"
    assert float(slope[1]) == pytest.approx(cli._slope([64, 128, 256], res))
    assert float(slope[1]) < 0


def test_timing_single_n_no_slope(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["timing", *SWEEP, "--N-sweep", "64", "--repetitions", "3",
                "--output", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2 and rows[1][0] == "64"


def test_timing_solves_from_scratch(tmp_path, monkeypatch):
    """Every repetition of a sparse timing assembles the problem and factors
    step 1 afresh."""
    solves = []

    def recorded(cfg, N=None):
        problem, sol = run_one(cfg, N)
        solves.append(sol)
        return problem, sol

    run_one = cli.run_one
    monkeypatch.setattr(cli, "run_one", recorded)
    out = tmp_path / "t.csv"
    assert run(["timing", *SWEEP, "--solver", "sparse",
                "--N-sweep", "64,128",
                "--repetitions", "3", "--output", str(out)]) == 0
    assert [s.diagnostics["step1_reused"] for s in solves] == [False] * 6
    assert [s.diagnostics["geometry_reused"] for s in solves] == [False] * 6


DISK16 = ["--family", "cdf33", "--domain", "disk:0.5,0.5,0.35",
          "--function", "exp2d", "--solver", "reduced"]
FACTOR_KEYS = ("core_shape", "nnz", "front_width", "step1_reused")


def test_reduced_records_its_frontal_factor(tmp_path):
    """approximate --solver reduced on a 16^2 disk writes the frontal
    factor's counts into the record: the core's shape and nnz, the front
    width, and whether step 1 reused the cached factor (first cold, then
    warm)."""
    from wavext import az

    az.clear_caches()
    recs = []
    for _ in range(2):
        out = tmp_path / "r.json"
        assert run(["approximate", *DISK16, "--N", "16",
                    "--output", str(out)]) == 0
        recs.append(cli.parse_record(out.read_text()))
    for rec in recs:
        d = rec.diagnostics
        assert all(k in d for k in FACTOR_KEYS), d
        assert d["rank"] <= d["core_shape"][1] <= rec.index_sizes["K"]
        assert d["nnz"] > 0 and 0 < d["front_width"] <= d["core_shape"][1]
    assert [r.diagnostics["step1_reused"] for r in recs] == [False, True]
    assert recs[0].diagnostics["core_shape"] == \
        recs[1].diagnostics["core_shape"]


def test_reduced_timing_factors_afresh(tmp_path, monkeypatch):
    """Every repetition of a reduced timing on a disk factors step 1
    afresh, as timing clears the caches before each."""
    solves = []

    def recorded(cfg, N=None):
        problem, sol = run_one(cfg, N)
        solves.append(sol)
        return problem, sol

    run_one = cli.run_one
    monkeypatch.setattr(cli, "run_one", recorded)
    out = tmp_path / "t.csv"
    assert run(["timing", *DISK16, "--N-sweep", "16,32",
                "--repetitions", "3", "--output", str(out)]) == 0
    assert all(k in s.diagnostics for s in solves for k in FACTOR_KEYS)
    assert [s.diagnostics["step1_reused"] for s in solves] == [False] * 6


@pytest.mark.parametrize("solver", ["reduced", "sparse", "az", "adaptive",
                                    "qr"])
def test_timing_reports_stage_medians(tmp_path, solver):
    """Beside the wall time, timing reports the median seconds of the
    assembly, the grid and samples, step 1 and steps 2-3; the caches are
    cleared before every repetition, so every row assembles (geometry >
    0).  qr has no steps."""
    out = tmp_path / "t.csv"
    assert run(["timing", *SWEEP, "--solver", solver, "--N-sweep", "64,128",
                "--repetitions", "3", "--output", str(out)]) == 0
    header, *rows = _read_csv(out)
    assert header == ["N", "median_seconds", "geometry", "samples", "step1",
                      "step23"]
    rows = [[float(v) for v in r] for r in rows if r[0] != "slope"]
    assert [r[0] for r in rows] == [64, 128]
    for n, wall, geometry, samples, step1, step23 in rows:
        assert 0 < geometry < wall and 0 < samples < wall, (n, solver)
        if solver == "qr":
            assert np.isnan(step1) and np.isnan(step23), n
        else:
            assert 0 < step1 < wall and 0 < step23 < wall, (n, solver)


def test_timing_too_few_repetitions(capsys):
    assert run(["timing", *SWEEP, "--N-sweep", "64,128",
                "--repetitions", "1"]) == 2
    capsys.readouterr()


def test_indexsets_box_all_empty(tmp_path):
    out = tmp_path / "i.csv"
    assert run(["indexsets", "--family", "db2", "--domain", "box:1",
                "--N-sweep", "32,64", "--output", str(out)]) == 0
    rows = _read_csv(out)
    for r in rows[1:]:
        assert r[1] == "0" and r[2] == "0" and r[3] == "0"


def test_indexsets_interval_growth(tmp_path):
    out = tmp_path / "i.csv"
    assert run(["indexsets", *SWEEP, "--N-sweep", "64,128,256,512",
                "--output", str(out)]) == 0
    rows = _read_csv(out)
    data = [r for r in rows[1:] if not r[0].startswith("slope")]
    slopes = {r[0]: float(r[1]) for r in rows[1:] if r[0].startswith("slope")}
    ks = [int(r[1]) for r in data]
    assert max(ks) - min(ks) <= 2          # 1-D boundary set stays O(1)
    assert slopes["slope_L"] < 0.6         # logarithmic growth of L


def test_duals_json(capsys):
    assert run(["duals", "--family", "db2", "--q", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairing_residual"] < 1e-10
    assert out["q"] == 4
    assert run(["duals", "--q", "2,4"]) == 2     # one q, not a list
    capsys.readouterr()


def test_filters_json(capsys):
    assert run(["filters", "--family", "cdf22"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert all(c["pass"] for c in out["checks"].values())


def test_cascade_csv(tmp_path):
    out = tmp_path / "phi.csv"
    assert run(["cascade", "--family", "db1", "--level", "3",
                "--output", str(out)]) == 0
    rows = _read_csv(out)
    vals = [float(r[1]) for r in rows[1:]]
    # Haar scaling function: indicator of [0, 1) on the dyadic grid
    assert set(vals) <= {0.0, 1.0}
    assert sum(vals) == 8.0


def test_dwt_norms_json(capsys):
    assert run(["dwt-norms", "--family", "db2", "--J", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["W"] - 1.0) < 1e-8      # orthogonal transform
