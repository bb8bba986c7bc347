"""wavext benchmark: one closed-loop client issuing seeded approximation requests.

    python3 perfbench/run.py --workload interval-1d|disk-2d \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Every run starts fresh worker processes
with BLAS pinned to one thread and ``src`` on the path.  With ``--trace 0``
it measures the end-to-end metrics: set-up time (median of SETUP_SAMPLES
fresh workers), the time of a whole request list and of each pipeline's
requests (each request's mean over round(T / nominal pass time) passes,
summed) and peak memory; the times are reported at the reference host speed
(see ``metrics``), with the measured seconds printed beside them.
With ``--trace 1`` it runs pass 0 once to warm up, then each of its requests
untraced and traced back to back, and reports the per-layer metrics, the span
tree and the tracing overhead.  The last line of standard output is one JSON object;
the per-request table, provenance and span tree go to ``perfbench/results``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
# the same names as workloads.WORKLOADS, which this process does not import:
# it starts no wavext code itself
WORKLOADS = ("interval-1d", "disk-2d")
SETUP_SAMPLES = 5
DEADLINE_S = 170


def worker(args, mode, out, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), "--mode", mode, "--out", str(out)]
    # subprocess.run kills and reaps the worker if the deadline passes
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    res = json.loads(out.read_text())
    if mode == "setup":
        out.unlink()  # its one number is kept in the main result file
    return res


def end_to_end(res, setups):
    """Declared end-to-end metrics of an untraced worker result, with every
    time taken to the reference speed, and the measured values.

    ``setups`` holds (set-up seconds, gauge seconds) of each fresh worker;
    the request times are scaled by the main worker's median gauge.
    """
    ref = metrics.REFERENCE_GAUGE_S
    raw = dict(res["times"], setup_s=statistics.median(s for s, _ in setups),
               peak_rss_mb=res["peak_rss_mb"])
    at_ref = {k: v * ref / res["gauge_s"] for k, v in res["times"].items()}
    at_ref["setup_s"] = statistics.median(s * ref / g for s, g in setups)
    out = {k: {"value": at_ref.get(k, raw[k]), "unit": unit}
           for k, (unit, _, _) in metrics.END_TO_END.items()}
    return out, raw


def _num(v, fmt):
    return format(v, fmt) if isinstance(v, (int, float)) else "-"


def table(rows, counts):
    """Per-request table; range and core shape come from a traced run's counts."""
    head = ("rid", "pipeline", "fam", "N", "time_s", "rank", "step1_s", "step23_s",
            "range", "core", "parity", "hold_in", "hold_edge", "status")
    lines = ["  ".join(f"{h:>9}" for h in head)]
    for r in rows:
        c = counts.get(r["rid"], {})
        core = c.get("core_shape")
        cells = (r["rid"], r["pipeline"], r["family"], r["N"], _num(r["time_s"], ".3f"),
                 r.get("rank", "-"), _num(r.get("step1_s"), ".3f"),
                 _num(r.get("step23_s"), ".3f"),
                 _num(c.get("solvers.lowrank.range_dim"), ".0f"),
                 "x".join(map(str, core)) if core else "-",
                 _num(r.get("parity_ratio"), ".2g"), _num(r.get("heldout_interior_max"), ".1e"),
                 _num(r.get("heldout_edge_max"), ".1e"), r["failure"] or "ok")
        lines.append("  ".join(f"{v!s:>9}" for v in cells))
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "wavext" / "cli.py").is_file():
        raise SystemExit(f"no wavext sources under {ROOT / 'src'}")
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"

    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            r = worker(args, "setup", RESULTS / f"{tag}_setup{i}.json", deadline)
            setups.append((r["setup_s"], r["setup_gauge_s"]))
    res = worker(args, "main", RESULTS / f"{tag}.json", deadline)
    setups.append((res["setup_s"], res["setup_gauge_s"]))

    out, raw = (res["layers"], None) if args.trace else end_to_end(res, setups)
    res["metrics"], res["measured"] = out, raw
    res["setup_samples"] = setups  # (seconds, gauge seconds) per fresh worker
    (RESULTS / f"{tag}.json").write_text(json.dumps(res, default=str))

    prov = res["provenance"]
    print(f"# wavext benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  passes={res['passes']}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(table(res["requests"], res.get("request_counts", {})))
    for path, (calls, secs) in sorted(res.get("span_tree", {}).items()):
        *_, leaf = path.split(" > ")
        print(f"# span {'  ' * path.count(' > ')}{leaf}: {calls} calls, {secs:.3f} s")
    for name, s in res["slopes"].items():
        print(f"# slope {name} vs DOF: {s['slope']:.3f}  (dof {s['dof']})")
    if raw:
        print(f"# gauge {res['gauge_s'] * 1e3:.4g} ms (reference "
              f"{metrics.REFERENCE_GAUGE_S * 1e3:.4g} ms); times at reference speed")
    for name, m in out.items():
        measured = f"  (measured {raw[name]:.6g})" if raw and m["unit"] == "s" else ""
        print(f"{name:>32} {m['value']:.6g} {m['unit']}{measured}")
    print(f"{'failed_frac':>32} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} requests)")
    print(json.dumps({"correct": res["reproducible"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
