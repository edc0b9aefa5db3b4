#!/usr/bin/env python3
"""Rewrite golden.json: every job's checked output values at the golden seed.

    python3 bench/make_golden.py

Run from the root of a checkout.  run.py compares each job's values against
this file whenever it runs with the golden seed; regenerate it only when a
change is meant to alter the numbers, and say so with the change.
"""
import contextlib
import json
import os
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main():
    build_root = run.ROOT / ".bench_build"
    build_root.mkdir(exist_ok=True)
    golden = {}
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="golden-", dir=build_root)
        try:
            workloads.generate(workload, run.GOLDEN_SEED, workdir)
            values = {}
            for job in workloads.jobs(workload, run.GOLDEN_SEED, workdir,
                                      os.path.join(workdir, "out")):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    rc = job.run()
                if rc != 0:
                    raise SystemExit(f"{workload}/{job.name}: exit code {rc}")
                values[job.name] = job.check()
            golden[workload] = values
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        build_root.rmdir()
    with open(run.GOLDEN_PATH, "w") as f:
        json.dump({"seed": run.GOLDEN_SEED, **golden}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {run.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
