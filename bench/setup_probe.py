"""Time one fresh interpreter's ``import qcantor`` plus input generation.

    python3 bench/setup_probe.py <src dir> <workload> <seed> <work dir>

Prints the seconds as a single float.  run.py starts this several times per
run and reports the median as ``setup_s``.
"""
import sys
import time

t0 = time.perf_counter()
src, workload, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)
import qcantor  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(workload, int(seed), workdir)
print(repr(time.perf_counter() - t0))
