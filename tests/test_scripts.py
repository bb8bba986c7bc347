"""Smoke runs of the example scripts, so a library name they use cannot
disappear unnoticed."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)


def test_smoothing_demo():
    out = run_script("smoothing_demo.py", "--N", "64")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("residual  plain=")
    assert lines[1].startswith("scale")
    assert lines[-1].startswith("weight history:")
    # one row per scale of the 64-coefficient basis: levels 0..5
    assert [int(l.split()[0]) for l in lines[2:-1]] == list(range(6))


@pytest.mark.parametrize("workload, requests, first", [
    ("disk-2d", 6, ("p0.r0", "sparse", "cdf33", "32")),
    ("interval-1d", 12, ("p0.r0", "reduced", "cdf33", "4096"))],
    ids=["disk-2d", "interval-1d"])
def test_request_digest(workload, requests, first):
    """One line per request of a pass of the workload, the same on a second
    run, with the geometry's front width and R_B digest."""
    runs = [run_script("request_digest.py", "--workload", workload,
                       "--passes", "1") for _ in range(2)]
    for out in runs:
        assert out.returncode == 0, out.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == requests and lines == runs[1].stdout.splitlines()
    (rid, pipeline, family, n, rank, residual, norm, digest, width,
     factor) = lines[0].split()
    assert (rid, pipeline, family, n) == first
    assert int(rank) > 0 and len(digest) == 64
    assert int(width) > 0 and len(factor) == 64
    assert float(residual) > 0 and float(norm) > 0 and "e" in residual
