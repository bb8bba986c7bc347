import csv
import json

import numpy as np
import pytest

from wavext import cli


def run(args, **kw):
    return cli.main(args, **kw)


# ---------------------------------------------------------------------------
# records

def test_record_roundtrip():
    cfg = cli.RunConfig(command="approximate", N=(64,)).validate()
    problem, sol = cli.run_one(cfg)
    rec = cli.record_for(cfg, problem, sol)
    back = cli.parse_record(cli.serialize_record(rec))
    assert back.residual == rec.residual
    assert back.per_scale_norms == rec.per_scale_norms
    assert back.index_sizes == rec.index_sizes


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


# ---------------------------------------------------------------------------
# spec parsing

def test_expression_parser_evaluates():
    f = cli.parse_function("exp(x)*sin(y) + 1")
    pts = np.array([[0.0, 0.0], [1.0, np.pi / 2]])
    np.testing.assert_allclose(f(pts), [1.0, np.e + 1.0])


def test_expression_parser_constant_broadcast():
    f = cli.parse_function("2.5")
    assert f(np.zeros((7, 1))).shape == (7,)


@pytest.mark.parametrize("bad", [
    "__import__('os')", "x.__class__", "open('x')", "lambda: 1",
    "x if x else y", "unknownname", "exp(x, key=1)", "[1,2]",
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

BASE = ["--family", "cdf33", "--N", "64", "--domain", "interval:0,0.5"]


def test_exit_ok(tmp_path):
    out = tmp_path / "r.json"
    assert run(["approximate", *BASE, "--output", str(out)]) == 0
    rec = cli.parse_record(out.read_text())
    assert rec.residual < 1e-6


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


@pytest.mark.filterwarnings("ignore:invalid value encountered in log")
def test_exit_runtime_error(capsys):
    # log of a negative argument yields NaN samples -> runtime failure
    assert run(["approximate", *BASE, "--function", "log(x-2)"]) == 1
    capsys.readouterr()


def test_unknown_flag_is_config_error(capsys):
    assert run(["approximate", "--nonsense", "1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism and seeding

def _strip_time(path):
    d = json.loads(path.read_text())
    d.pop("timestamp")
    d.pop("stage_times")
    return d


def test_bit_identical_given_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["approximate", *BASE, "--solver", "az", "--seed", "5"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    ja, jb = _strip_time(a), _strip_time(b)
    ja.pop("config"); jb.pop("config")
    assert ja == jb


def test_seed_from_environment(tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    monkeypatch.setenv("WAVEXT_SEED", "17")
    run(["approximate", *BASE, "--solver", "az", "--output", str(a)])
    monkeypatch.delenv("WAVEXT_SEED")
    run(["approximate", *BASE, "--solver", "az", "--seed", "17",
         "--output", str(b)])
    run(["approximate", *BASE, "--solver", "az", "--seed", "3",
         "--output", str(c)])
    assert json.loads(a.read_text())["config"]["seed"] == 17
    assert _strip_time(a)["residual"] == _strip_time(b)["residual"]
    assert json.loads(c.read_text())["config"]["seed"] == 3


# ---------------------------------------------------------------------------
# sweeps and diagnostics

def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_convergence_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["convergence", *BASE, "--N-sweep", "64,128,256",
                "--output", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["N", "residual", "coefnorm", "rank"]
    res = [float(r[1]) for r in rows[1:]]
    assert res[0] > res[1] > res[2]


def test_timing_single_n_no_slope(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["timing", *BASE, "--N-sweep", "64", "--repetitions", "3",
                "--output", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2 and rows[1][0] == "64"


def test_timing_solves_from_scratch(tmp_path, monkeypatch):
    """Every repetition of a sparse timing factors step 1 afresh."""
    solves = []

    def recorded(cfg, N=None):
        problem, sol = run_one(cfg, N)
        solves.append(sol)
        return problem, sol

    run_one = cli.run_one
    monkeypatch.setattr(cli, "run_one", recorded)
    out = tmp_path / "t.csv"
    assert run(["timing", *BASE, "--solver", "sparse", "--N-sweep", "64,128",
                "--repetitions", "3", "--output", str(out)]) == 0
    assert [s.diagnostics["step1_reused"] for s in solves] == [False] * 6


def test_timing_too_few_repetitions(capsys):
    assert run(["timing", *BASE, "--N-sweep", "64,128",
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
    assert run(["indexsets", *BASE, "--N-sweep", "64,128,256,512",
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
