"""Tests of the benchmark itself: inputs, tracing, failure counting, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

import metrics
import run
import tracing
import worker
import workloads
from wavext import cli
from conftest import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(solver, N=64, domain="interval:0.2,0.75"):
    return workloads.Request(
        rid=f"t.{solver}.{N}",
        config=cli.RunConfig(command="approximate", family="cdf33", N=(N,), q=(2,),
                             domain=domain, function="exp(x)*cos(2*x)", solver=solver))


TINY = [_tiny(s) for s in workloads.PIPELINES]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_request_lists_are_deterministic_per_seed(name):
    a = workloads.make_pass(name, 7, 1)
    assert a == workloads.make_pass(name, 7, 1)
    assert a != workloads.make_pass(name, 8, 1)
    assert a != workloads.make_pass(name, 7, 2)
    assert {r.pipeline for r in a} == set(workloads.PIPELINES)


def test_traced_run_matches_untraced_bits_and_counts():
    plain = [worker.timed(r) for r in TINY]
    runs = []
    for _ in range(2):
        tr = tracing.install(tracing.Tracer())
        try:
            tr.active = True
            out = []
            for r in TINY:
                tr.rid = r.rid
                out.append(worker.timed(r))
        finally:
            tr.restore()
        counts = {(rid, k): v for rid, c in tr.request_counts.items()
                  for k, v in c.items() if not k.endswith(".s")}
        calls = {n: t["calls"] for n, t in tr.layer_totals().items()}
        runs.append((out, counts, calls))
    for (_, sol, err), (_, tsol, terr) in zip(plain, runs[0][0]):
        assert err is None and terr is None
        assert np.array_equal(sol.x, tsol.x)
    assert runs[0][1:] == runs[1][1:]
    for r, (_, sol, _) in zip(TINY, plain):
        if r.pipeline in ("reduced", "az"):
            assert runs[0][1][r.rid, "solvers.lowrank.rank"] == sol.plunge_rank
    # wrappers are gone after restore
    from wavext import az, system
    assert az.make_problem.__module__ == "wavext.az"
    assert "matvec" not in vars(system.FrameOperator)


def test_raising_request_is_counted_as_failed():
    bad = _tiny("sparse", N=48)  # not a power of two: run_one raises
    passes = [[(r, *worker.timed(r)) for r in (TINY[1], bad, TINY[0])]]
    rows, failed = worker.check(passes)
    assert failed == 1
    assert [row["failure"] is None for row in rows] == [True, False, True]
    assert "DomainError" in rows[1]["failure"]
    # a request that raised has no time to solution: only the others are summed
    times, _ = worker.pass_metrics(passes, workloads.PIPELINES)
    assert times["wall_s"] == passes[0][0][1] + passes[0][2][1]
    assert times["sparse_s"] == passes[0][0][1]


def test_printed_metric_names_match_benchmark_json():
    assert run.WORKLOADS == workloads.WORKLOADS == tuple(
        w["name"] for w in DECLARED["workloads"])
    e2e = [m["name"] for m in DECLARED["end_to_end"]]
    layers = [m["name"] for m in DECLARED["per_layer"]]
    res = {"times": {k: 1.0 for k in ("wall_s", "reduced_s", "sparse_s", "az_s",
                                      "adaptive_s")},
           "peak_rss_mb": 100.0, "gauge_s": metrics.REFERENCE_GAUGE_S / 2}
    out, raw = run.end_to_end(res, [(1.0, res["gauge_s"]), (2.0, res["gauge_s"]),
                                    (3.0, res["gauge_s"])])
    assert list(out) == e2e and set(raw) == set(e2e)
    # the gauge ran in half the reference time: the host is twice as fast,
    # so times at reference speed are twice the measured ones; memory stays
    assert out["wall_s"]["value"] == 2.0 and out["setup_s"]["value"] == 4.0
    assert out["peak_rss_mb"]["value"] == raw["peak_rss_mb"] == 100.0
    for m in DECLARED["end_to_end"]:
        assert (m["unit"], m["better"], m["bound"]) == metrics.END_TO_END[m["name"]]
    for m in DECLARED["per_layer"]:
        assert (m["unit"], m["better"]) == metrics.PER_LAYER[m["name"]][:2]

    tr = tracing.install(tracing.Tracer())
    try:
        tr.active = True
        for r in TINY:
            tr.rid = r.rid
            worker.timed(r)
    finally:
        tr.restore()
    out = metrics.per_layer(tr, {r.rid for r in TINY},
                            {"times": {"wall_s": 1.0}, "untraced_wall_s": 1.0})
    assert list(out) == layers
    assert all(np.isfinite(v["value"]) for v in out.values())


def test_gate_flags_parity_miss():
    import accuracy
    req = _tiny("sparse", N=64)
    _, sol, err = worker.timed(req)
    heldout, oracle = accuracy.HeldoutEvaluator(), accuracy.ParityOracle()
    ok = accuracy.gate(req.config, req.n_basis, sol.x, sol.residual, heldout, oracle)
    assert ok["ok"] and ok["parity_ratio"] <= accuracy.PARITY_FACTOR
    bad = accuracy.gate(req.config, req.n_basis, sol.x, 1e3 * sol.residual + 1e-6,
                        heldout, oracle)
    assert not bad["ok"]
