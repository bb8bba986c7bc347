"""Seeded request lists for the benchmark workloads.

A workload is a function of (seed, pass index) that returns one pass: a list
of ``wavext.cli.RunConfig`` requests, the inputs of ``wavext.cli.run_one``.
The seed draws the domain geometry, the function coefficients and the
solver's probe seed; the program only ever sees the generated configs.

Two properties of the program make disk-2d keep one fixed disk and let the
seed draw only the functions and probe seeds:

* the cost of the ``sparse`` pipeline grows like r^3 (a dense QR of a
  boundary-sized core), so disk radii drawn from 0.30-0.38 spread the cost of
  a pass 2x between seeds;
* the randomized range finder fills its range unless the numerical rank is a
  multiple of its block size (16), in which case it stops at the rank and the
  solve is 4-7x faster.  The rank of a disk at 16^2 moves over 56-67 under
  centre shifts of 0.01; the fixed disk has rank 56 (full-range mode).

The ``adaptive`` pipeline raises DomainError on intervals shorter than about
0.53, where its coarsest level (N=16, q=2) has no more samples than unknowns.
interval-1d draws lengths from 0.52 and shows that failure in about one pass
in fourteen.

disk-2d solves on one disk in every pass, while interval-1d draws a new
interval per pass: reuse across requests on one geometry shows on the first.
"""

from dataclasses import dataclass

import numpy as np

from wavext.cli import RunConfig

Q = 2
FAMILIES = {
    "interval-1d": ("cdf33", "db4"),
    "disk-2d": ("cdf33", "db4"),
}
WORKLOADS = tuple(FAMILIES)
PIPELINES = ("reduced", "sparse", "az", "adaptive")
# Wall time of one pass on a 2-core x86-64 VM with one BLAS thread.  A run of
# T seconds makes round(T / this) passes (at least one), so every run does the
# same work whatever the machine's speed at the time.
NOMINAL_PASS_S = {"interval-1d": 10.0, "disk-2d": 10.0}


@dataclass(frozen=True)
class Request:
    rid: str
    config: RunConfig

    @property
    def pipeline(self):
        return self.config.solver

    @property
    def dimension(self):
        return {"interval": 1, "disk": 2, "ball": 3}[self.config.domain.split(":")[0]]

    @property
    def n_basis(self):
        return self.config.N[0] ** self.dimension


def _fmt(*values):
    return ",".join(f"{v:.4f}" for v in values)


def _interval(rng):
    a = rng.uniform(0.1, 0.3)
    return "interval:" + _fmt(a, a + rng.uniform(0.52, 0.62))


DISK_2D = "disk:0.5000,0.5000,0.3400"


def _function(rng, dim):
    """Smooth seeded function exp(a * prod x_i) * cos(sum b_i x_i + c)."""
    names = "xyz"[:dim]
    a = rng.uniform(0.5, 1.5)
    b = rng.uniform(1.0, 3.0, dim)
    c = rng.uniform(0.0, 1.0)
    prod = "*".join(names)
    phase = "+".join(f"{bi:.4f}*{n}" for bi, n in zip(b, names))
    return f"exp({a:.4f}*{prod})*cos({phase}+{c:.4f})"


def _rng(workload, seed, index):
    return np.random.default_rng([WORKLOADS.index(workload), seed, index])


def make_pass(workload, seed, index=0):
    """Request list of pass ``index`` of ``workload`` under ``seed``."""
    if workload not in FAMILIES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed, index)
    specs = []  # (solver, N, family, domain, function)
    if workload == "interval-1d":
        dom, fn = _interval(rng), _function(rng, 1)
        # reduced/sparse ladder 2^12..2^18, the small requests spread over it
        order = [("reduced", 2**12, "cdf33"), ("sparse", 2**12, "cdf33"),
                 ("az", 2**12, "cdf33"), ("adaptive", 2**12, "cdf33"),
                 ("reduced", 2**14, "cdf33"), ("sparse", 2**14, "cdf33"),
                 ("reduced", 2**12, "db4"), ("reduced", 2**16, "cdf33"),
                 ("sparse", 2**16, "cdf33"), ("az", 2**14, "cdf33"),
                 ("reduced", 2**18, "cdf33"), ("sparse", 2**18, "cdf33")]
        specs += [(s, n, fam, dom, fn) for s, n, fam in order]
    else:
        dom, fn = DISK_2D, _function(rng, 2)
        specs += [("sparse", 32, "cdf33", dom, fn), ("sparse", 64, "cdf33", dom, fn),
                  ("az", 16, "cdf33", dom, fn), ("reduced", 16, "cdf33", dom, fn),
                  ("adaptive", 16, "cdf33", dom, fn), ("sparse", 32, "db4", dom, fn)]
    probe_seeds = rng.integers(0, 2**31, len(specs))
    return [Request(rid=f"p{index}.r{i}",
                    config=RunConfig(command="approximate", family=fam, N=(n,), q=(Q,),
                                     domain=dom, function=fn, solver=solver,
                                     seed=int(ps)).validate())
            for i, ((solver, n, fam, dom, fn), ps) in enumerate(zip(specs, probe_seeds))]


def warmup_requests():
    """Tiny 1-D solve per pipeline, run during set-up."""
    return [RunConfig(command="approximate", family="cdf33", N=(32,), q=(Q,),
                      domain="interval:0.2,0.75", function="exp1d", solver=s)
            for s in PIPELINES]
