"""Benchmark worker: one fresh process per run, started by ``run.py``.

The worker imports wavext from the checkout's ``src``, checks that BLAS is
pinned to one thread, sets up (imports, filter banks and duals of the
workload, one tiny warm-up solve per pipeline) and then issues the workload's
requests back to back as a single closed-loop client.  A request is timed from
the call of ``wavext.cli.run_one`` until it returns.  Accuracy checks run
after the timed loop, so neither their time nor their memory is measured.

    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --t0 MONOTONIC_START --mode main|setup --out RESULT.json
"""

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # loads scipy's own OpenBLAS, so the pin check covers it
from wavext import cli, dual, filters

import accuracy
import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count reported by every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.split()[-1].startswith("/")})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, s) for s in BLAS_THREAD_SYMBOLS if hasattr(lib, s)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            out[Path(path).name] = fn()
    return out


def git_sha():
    """Commit of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def provenance(seed):
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "wavext").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


def setup(workload):
    for fam in workloads.FAMILIES[workload]:
        dual.dual_pair(filters.filter_bank(fam), workloads.Q)
    for cfg in workloads.warmup_requests():
        cli.run_one(cfg)


def timed(req):
    """One closed-loop request: (seconds, solution or None, error or None)."""
    t0 = time.perf_counter()
    try:
        _, sol = cli.run_one(req.config)
        err = None
    except Exception as e:  # a raising request is counted as failed
        sol, err = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t0, sol, err


def gauge():
    """Seconds of a fixed pure-Python loop: the host's speed at this moment."""
    t0 = time.perf_counter()
    s = 0
    for i in range(metrics.GAUGE_LOOP):
        s += i * i
    return time.perf_counter() - t0


def run_passes(workload, seed, seconds):
    """round(seconds / nominal pass time) passes over fresh seeded request
    lists, and the gauge time taken before each request."""
    n = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    passes, gauges = [], []
    for k in range(n):
        results = []
        for r in workloads.make_pass(workload, seed, k):
            gauges.append(gauge())
            results.append((r, *timed(r)))
        passes.append(results)
    return passes, gauges


def check(passes):
    """Gate every request; returns per-request rows and the failure count."""
    heldout, oracle = accuracy.HeldoutEvaluator(), accuracy.ParityOracle()
    rows, failed = [], 0
    for k, results in enumerate(passes):
        for req, dt, sol, err in results:
            cfg = req.config
            row = {"rid": req.rid, "pass": k, "pipeline": req.pipeline,
                   "family": cfg.family, "N": cfg.N[0], "dim": req.dimension,
                   "n_basis": req.n_basis, "domain": cfg.domain,
                   "function": cfg.function, "time_s": dt}
            if err is None:
                row.update(rank=int(sol.plunge_rank), residual=sol.residual,
                           step1_s=float(sol.stage_times.get("step1", np.nan)),
                           step23_s=float(sol.stage_times.get("step23", np.nan)),
                           warning=sol.warning)
                if sol.warning:
                    err = f"solver warning: {sol.warning}"
                try:
                    row.update(accuracy.gate(cfg, req.n_basis, sol.x, sol.residual,
                                             heldout, oracle))
                except Exception as e:
                    err = err or f"gate raised {type(e).__name__}: {e}"
                if err is None and not row["ok"]:
                    err = "accuracy gate missed"
            row["failure"] = err
            failed += err is not None
            rows.append(row)
    return rows, failed


def pass_metrics(passes, pipelines):
    """Time of one pass, from the mean time of each of its requests.

    Slot i of every pass holds a fresh seeded request of the same pipeline,
    family and size; its time is the mean over the passes of the requests
    that returned (one that raised has no time to solution and counts only as
    failed).  The host's speed also drifts within a run, and a mean over
    passes spread through the run averages that drift better than a median.
    ``wall_s`` sums every slot, ``<pipeline>_s`` that pipeline's.
    """
    slots = {}
    for results in passes:
        for i, (req, dt, _, err) in enumerate(results):
            times = slots.setdefault(i, (req.pipeline, []))[1]
            if err is None:
                times.append(dt)
    means = {i: (pipe, statistics.fmean(t)) for i, (pipe, t) in slots.items() if t}
    out = {"wall_s": sum(m for _, m in means.values())}
    for pipe in pipelines:
        out[f"{pipe}_s"] = sum(m for p, m in means.values() if p == pipe)
    return out, {i: t for i, (_, t) in slots.items()}


def slopes(rows, workload):
    """Log-log slopes of step1/step23 against DOF on the workload's ladders."""
    ladders = {"interval-1d": [("reduced", 1), ("sparse", 1)],
               "disk-2d": [("sparse", 2)]}.get(workload, [])
    out = {}
    for pipe, dim in ladders:
        sel = [r for r in rows if r["pipeline"] == pipe and r["family"] == "cdf33"
               and r["dim"] == dim and r["failure"] is None]
        dofs = sorted({r["n_basis"] for r in sel})
        if len(dofs) < 2:
            continue
        for stage in ("step1_s", "step23_s"):
            t = [statistics.median(r[stage] for r in sel if r["n_basis"] == n) for n in dofs]
            out[f"{pipe}.{stage[:-2]}"] = {
                "dof": dofs, "median_s": t,
                "slope": float(np.polyfit(np.log(dofs), np.log(t), 1)[0])}
    return out


def _same(a, b):
    """Two (solution, error) outcomes of one request agree bit for bit."""
    (sol, err), (sol2, err2) = a, b
    if err is not None or err2 is not None:
        return err == err2
    return sol.plunge_rank == sol2.plunge_rank and np.array_equal(sol.x, sol2.x)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--mode", choices=("main", "setup"), default="main")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "wavext":
        raise SystemExit(f"wavext imported from {cli.__file__}, not the checkout")
    threads = blas_threads()
    if not threads or any(n != 1 for n in threads.values()):
        raise SystemExit(f"BLAS not pinned to one thread: {threads}")

    tracer = tracing.install(tracing.Tracer()) if args.trace else None
    if tracer:
        tracer.rid, tracer.active = "setup", True
    setup(args.workload)
    if tracer:
        tracer.active = False
    setup_s = time.monotonic() - args.t0
    # the gauge right after set-up, for the set-up time at reference speed
    result = {"setup_s": setup_s,
              "setup_gauge_s": statistics.median(gauge() for _ in range(9))}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    if tracer:
        # pass 0 once untraced to warm the allocator and caches, then each
        # request untraced and traced back to back: the overhead and the
        # bit-identity of x come from the same, equally warm inputs
        reqs = workloads.make_pass(args.workload, args.seed, 0)
        for r in reqs:
            timed(r)
        plain, traced = [], []
        for r in reqs:
            plain.append((r, *timed(r)))
            tracer.rid, tracer.active = r.rid, True
            traced.append((r, *timed(r)))
            tracer.active = False
        passes = [traced]
        same = all(_same(a[2:], b[2:]) for a, b in zip(plain, traced))
        result["untraced_wall_s"] = pass_metrics([plain], ())[0]["wall_s"]
    else:
        passes, gauges = run_passes(args.workload, args.seed, args.seconds)
        result["gauge_s"], result["gauges_s"] = statistics.median(gauges), gauges
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # reproducibility: the cheapest request of pass 0 again, untimed
        req, _, sol, err = min(passes[0], key=lambda r: r[1])
        same = _same((sol, err), timed(req)[1:])

    rows, failed = check(passes)
    times, slot_times = pass_metrics(passes, workloads.PIPELINES)
    result.update(
        provenance=provenance(args.seed), workload=args.workload,
        passes=len(passes), attempted=len(rows), failed=failed,
        reproducible=bool(same), times=times, slot_times=slot_times,
        requests=rows, slopes=slopes(rows, args.workload))
    if tracer:
        tracer.restore()
        rids = {r.rid for r, *_ in passes[0]}
        result["layers"] = metrics.per_layer(tracer, rids, result)
        result["request_counts"] = {rid: dict(c) for rid, c in tracer.request_counts.items()}
        result["span_tree"] = tracer.tree(rids)
        result["spans"] = tracer.export()
    Path(args.out).write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
