"""Test-session setup: BLAS runs on one thread, as in the benchmark workers
(``perfbench/run.py``), unless the caller set a thread count.

An OpenBLAS worker thread keeps spinning for a while after each threaded
call.  Left behind by a test that factors large dense blocks, it competed
with the single-threaded work of the next test: the 2^10 and 2^12 points of
``test_acceptance_timing_scaling_1d`` then ran up to 2-3x slower while the
process used twice their wall time in CPU, and the slope fell below its
bound.  The variables take effect only if set before numpy is imported,
which pytest guarantees by loading this file before the test modules.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
