"""Print one line per request of the benchmark's passes: what each returned.

    PYTHONPATH=src python scripts/request_digest.py --workload interval-1d \
        --seed 5 --passes 2

The requests are those of ``perfbench/workloads.py`` (passes 0 .. K-1 of
the workload under the seed), run in order through ``wavext.cli.run_one``.
Each line holds the request id, pipeline, family, N, the plunge rank, the
residual ||A x - b|| and ||x|| (``%.3e``), and the SHA-256 of the bytes of
x + 0.0 (which turns -0.0 into +0.0), or the type of the exception a failed
request raised.  Two trees that give the same lines return the same rank
and the same x bits on every request; where bits move at round-off, the
residual and ||x|| show by how much the answers differ.
"""

import argparse
import hashlib
import pathlib
import sys

sys.dont_write_bytecode = True    # write nothing under perfbench/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import workloads  # noqa: E402
from wavext import cli  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args(argv)
    for k in range(args.passes):
        for req in workloads.make_pass(args.workload, args.seed, k):
            cfg = req.config
            head = f"{req.rid} {cfg.solver} {cfg.family} {cfg.N[0]}"
            try:
                _, sol = cli.run_one(cfg)
            except Exception as e:  # a failed request is a line too
                print(f"{head} {type(e).__name__}", flush=True)
                continue
            x = hashlib.sha256((sol.x + 0.0).tobytes()).hexdigest()
            print(f"{head} {sol.plunge_rank} {sol.residual:.3e} "
                  f"{sol.coefficient_norm:.3e} {x}", flush=True)


if __name__ == "__main__":
    main()
