"""Declared metrics: end-to-end (untraced runs) and per-layer (traced runs).

``BENCHMARK.json`` carries name, unit and direction; this table adds, for
each per-layer metric, the end-to-end metric and workload it should move.

The shared host this benchmark was built on runs the same code up to 1.5x
faster or slower for minutes at a time, and a plain Python loop speeds up and
slows down with it (over a run, its time correlates at about 0.9 with the
wall_s of disk-2d).  So the untraced worker times a fixed loop of GAUGE_LOOP
integer steps (the gauge) before every request, and every end-to-end time is
reported at the reference speed: measured seconds x REFERENCE_GAUGE_S / the
run's median gauge time (for set-up, each worker's gauge right after its
set-up).  The measured seconds are printed beside them.
"""

GAUGE_LOOP = 20000
# median gauge time on a 2-core x86-64 VM (Xeon, 2.0 GHz), the reference host
REFERENCE_GAUGE_S = 1.74e-3

END_TO_END = {
    # name: (unit, better, bound)
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "reduced_s": ("s", "lower", 0.25),
    "sparse_s": ("s", "lower", 0.25),
    "az_s": ("s", "lower", 0.25),
    "adaptive_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_LOWRANK = "reduced_s, az_s on disk-2d (range_dim far above rank); sparse_s unchanged"
_DWT = "reduced_s on interval-1d (O(N) matvecs up to N=2^18); small share on disk-2d"
_SPARSE = "sparse_s on disk-2d (dense QR of the core); ~0 on interval-1d"
_PLUNGE = "sparse_s on interval-1d (global O(N) plunge assembly) and disk-2d (per-row loops)"
_ASSEMBLY = ("wall_s on disk-2d (one disk reassembled per request); "
             "adaptive_s (assembly per level plus one more in cli.run_one); "
             "sparse_s at large N on interval-1d")
_SETUP = "setup_s on every workload (set-up only)"

PER_LAYER = {
    # name: (unit, better, what it should move)
    "solvers.lowrank.calls": ("count", "lower", _LOWRANK),
    "solvers.lowrank.s": ("s", "lower", _LOWRANK),
    "solvers.lowrank.self_s": ("s", "lower", _LOWRANK),
    "solvers.lowrank.range_dim": ("count", "lower", _LOWRANK),
    "solvers.lowrank.rank": ("count", "higher", _LOWRANK),
    "solvers.lowrank.rank_per_range": ("ratio", "higher", _LOWRANK),
    "system.A.matvec.calls": ("count", "lower", _LOWRANK),
    "system.A.matvec.s": ("s", "lower", _LOWRANK),
    "system.A.rmatvec.calls": ("count", "lower", _LOWRANK),
    "system.A.rmatvec.s": ("s", "lower", _LOWRANK),
    "system.Zstar.calls": ("count", "lower", _LOWRANK),
    "system.Zstar.s": ("s", "lower", _LOWRANK),
    "dwt.dwt.calls": ("count", "lower", _DWT),
    "dwt.idwt.calls": ("count", "lower", _DWT),
    "dwt.dwt.s": ("s", "lower", _DWT),
    "dwt.idwt.s": ("s", "lower", _DWT),
    "dwt.elems": ("count", "lower", _DWT),
    "dwt.bytes_computed": ("B", "lower", _DWT + "; 16 bytes per element, computed"),
    "solvers.sparse_qr.s": ("s", "lower", _SPARSE),
    "solvers.sparse_qr.core_elems": ("count", "lower", _SPARSE),
    "solvers.sparse_qr.nnz": ("count", "lower", _SPARSE),
    "solvers.pivoted_qr.s": ("s", "lower", _SPARSE),
    "az.scaling_plunge.s": ("s", "lower", _PLUNGE),
    "az.sparse_plunge.s": ("s", "lower", _PLUNGE),
    "dwt.sparse_idwt_rows.s": ("s", "lower", _PLUNGE),
    "az.make_problem.calls": ("count", "lower", _ASSEMBLY),
    "az.make_problem.s": ("s", "lower", _ASSEMBLY),
    "domain.masked_grid.s": ("s", "lower", _ASSEMBLY),
    "domain.index_sets.s": ("s", "lower", _ASSEMBLY),
    "domain.L": ("count", "lower", _ASSEMBLY),
    "domain.Mrows": ("count", "lower", _ASSEMBLY),
    "system.assemble_scaling.s": ("s", "lower", _ASSEMBLY),
    "system.rhs.s": ("s", "lower", _ASSEMBLY),
    "az.step1.s": ("s", "lower", "reduced_s, az_s, sparse_s; flat in N on interval-1d"),
    "az.step23.s": ("s", "lower", "every pipeline metric; linear in N"),
    "az.az_solve.s": ("s", "lower", "az_s on every workload"),
    "az.reduced_az_solve.s": ("s", "lower", "reduced_s on every workload"),
    "az.sparse_az_solve.s": ("s", "lower", "sparse_s on every workload"),
    "az.smoothed_az_solve.s": ("s", "lower", "adaptive_s on every workload"),
    "az.adaptive_weighted_solve.s": ("s", "lower", "adaptive_s on every workload"),
    "cli.run_one.calls": ("count", "lower", "wall_s on every workload"),
    "cli.run_one.s": ("s", "lower", "wall_s on every workload"),
    "cli.run_one.self_s": ("s", "lower", "adaptive_s (the second assembly sits in run_one)"),
    "dual.dual_pair.calls": ("count", "lower", _SETUP),
    "dual.dual_pair.s": ("s", "lower", _SETUP),
    "cascade.scaling_at_dyadic.s": ("s", "lower", _SETUP),
    "filters.filter_bank.s": ("s", "lower", _SETUP),
    "trace.wall_s": ("s", "lower", "traced wall_s of pass 0"),
    "trace.overhead_pct": ("%", "lower", "tracing cost against the untraced wall_s of pass 0"),
}

# layers whose work happens during set-up: their spans are summed over the
# whole traced run, every other layer over the workload's requests only
SETUP_LAYERS = ("dual.", "cascade.", "filters.")


def per_layer(tracer, rids, result):
    """Value of every declared per-layer metric from one traced pass."""
    work = tracer.layer_totals(rids)
    everything = tracer.layer_totals()
    counts = {}
    for rid in rids:
        for k, v in tracer.request_counts[rid].items():
            if k != "core_shape":
                counts[k] = counts.get(k, 0) + v
    wall = result["times"]["wall_s"]
    derived = {
        "solvers.lowrank.rank_per_range": counts.get("solvers.lowrank.rank", 0)
        / max(counts.get("solvers.lowrank.range_dim", 0), 1),
        "dwt.bytes_computed": 16 * counts.get("dwt.elems", 0),
        "trace.wall_s": wall,
        "trace.overhead_pct": 100 * (wall / result["untraced_wall_s"] - 1),
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        else:
            layer, _, field = name.rpartition(".")
            totals = everything if name.startswith(SETUP_LAYERS) else work
            value = totals.get(layer, {}).get(field, 0)
        out[name] = {"value": value, "unit": PER_LAYER[name][0]}
    return out
