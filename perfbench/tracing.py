"""In-memory span tracer that wraps wavext's public functions from outside.

Each wrapper is installed on the name where the caller looks it up (a module
global or a class attribute), records a span (name, start, end, parent,
request id) while the tracer is active, and reads counts off return values.
Nothing in the wrapped functions changes, so a traced solve returns the same
bits as an untraced one.
"""

import functools
import time
from collections import defaultdict

import numpy as np
from wavext import az, cli, domain, dual, filters, solvers, system


class Tracer:
    def __init__(self):
        self.active = False
        self.rid = None
        self.spans = []       # [name index, start, end, parent, rid]
        self.request_counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._name_ids = {}
        self._patches = []

    # -- installation -------------------------------------------------------

    def wrap(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_return(tracer, result, args)`` records counts read off the return
        value (or the arguments) of a call made while the tracer is active.
        """
        had_own = attr in vars(owner)
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer, out, args)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, had_own))

    def restore(self):
        for owner, attr, orig, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), None, parent, self.rid])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value):
        self.request_counts[self.rid][key] += value

    # -- summaries ----------------------------------------------------------

    def span_names(self):
        return sorted(self._name_ids, key=self._name_ids.get)

    def layer_totals(self, rids=None):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in this single-threaded tracer.
        """
        names = self.span_names()
        child = np.zeros(len(self.spans))
        for nid, t0, t1, parent, rid in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
        for i, (nid, t0, t1, parent, rid) in enumerate(self.spans):
            if rids is not None and rid not in rids:
                continue
            rec = out[names[nid]]
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[i]
        return out

    def tree(self, rids=None):
        """Aggregated span tree: {"a > b > c": [calls, seconds]} by name path."""
        names = self.span_names()
        paths, out = [], {}
        for nid, t0, t1, parent, rid in self.spans:
            paths.append((paths[parent] + " > " if parent >= 0 else "") + names[nid])
            if rids is None or rid in rids:
                rec = out.setdefault(paths[-1], [0, 0.0])
                rec[0] += 1
                rec[1] += t1 - t0
        return out

    def export(self):
        return {"names": self.span_names(),
                "fields": ["name", "start", "end", "parent", "rid"],
                "spans": self.spans}


# ---------------------------------------------------------------------------
# what to wrap, and the counts read off each call

def _lowrank(tr, rep, args):
    rd = rep.diagnostics.get("range_dim", 0)
    tr.count("solvers.lowrank.range_dim", rd)
    tr.count("solvers.lowrank.rank", rep.rank)


def _sparse_qr(tr, rep, args):
    shape = rep.diagnostics.get("core_shape", (0, 0))
    tr.count("solvers.sparse_qr.core_elems", shape[0] * shape[1])
    tr.count("solvers.sparse_qr.nnz", rep.diagnostics.get("nnz", 0))
    tr.request_counts[tr.rid]["core_shape"] = shape


def _transform(tr, out, args):
    tr.count("dwt.elems", np.size(args[0]))


def _stage_times(tr, sol, args):
    for stage in ("step1", "step23"):
        tr.count(f"az.{stage}.s", sol.stage_times.get(stage, 0.0))


def _wavelet_set(tr, out, args):
    tr.count("domain.L", out[0].size)


def _row_set(tr, out, args):
    tr.count("domain.Mrows", out.size)


def install(tracer):
    """Wrap the lookup sites the pipelines use; returns the tracer."""
    w = tracer.wrap
    w(cli, "run_one", "cli.run_one")
    for name in ("az_solve", "reduced_az_solve", "sparse_az_solve", "smoothed_az_solve"):
        w(az, name, f"az.{name}", _stage_times)
    w(az, "adaptive_weighted_solve", "az.adaptive_weighted_solve")
    w(az, "make_problem", "az.make_problem")
    w(az, "masked_grid", "domain.masked_grid")
    w(az, "scaling_boundary_set", "domain.index_sets")
    w(az, "wavelet_boundary_set", "domain.index_sets", _wavelet_set)
    w(az, "plunge_row_set", "domain.index_sets", _row_set)
    w(az, "assemble_scaling", "system.assemble_scaling")
    w(az, "rhs", "system.rhs")
    w(az, "scaling_plunge", "az.scaling_plunge")
    w(az, "sparse_plunge", "az.sparse_plunge")
    w(az, "sparse_idwt_rows", "dwt.sparse_idwt_rows")
    w(az, "randomized_lowrank_solve", "solvers.lowrank", _lowrank)
    w(az, "sparse_qr_solve", "solvers.sparse_qr", _sparse_qr)
    w(solvers, "pivoted_qr_solve", "solvers.pivoted_qr")
    w(system, "dwt", "dwt.dwt", _transform)
    w(system, "idwt", "dwt.idwt", _transform)
    w(system.FrameOperator, "matvec", "system.A.matvec")
    w(system.FrameOperator, "rmatvec", "system.A.rmatvec")
    w(system.ZStarOperator, "__call__", "system.Zstar")
    for mod in (dual, system, domain):
        w(mod, "dual_pair", "dual.dual_pair")
    w(dual, "scaling_at_dyadic", "cascade.scaling_at_dyadic")
    for mod in (filters, cli):
        w(mod, "filter_bank", "filters.filter_bank")
    return tracer
