#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and metric list.

    python3 bench/selftest.py

Runs the depth-6 ``content`` job of gauge-content twice under the tracer and
asserts exact counts: 16,383 ``h_node`` calls (three h passes over 5,461
nodes), ``distance_evals`` = ``node_atom_distances.calls`` x 4,096 atoms,
identical counts on both runs, self times that sum to no more than the job's
wall time, every ``from ... import`` alias rebound while tracing and every
binding restored afterwards.  It also checks that BENCHMARK.json lists
exactly the metrics run.py prints.  Exit code 0 when all hold.
"""
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time

import run

sys.path.insert(0, str(run.SRC))
import tracer  # noqa: E402
import workloads  # noqa: E402
from qcantor import capacity, cli, experiments, gauges, potentials  # noqa: E402

DEPTH = 6
NODES = sum(4 ** g for g in range(DEPTH + 1))
ATOMS = 4 ** DEPTH


def main():
    failures = []

    def expect(what, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    expect("BENCHMARK.json end_to_end matches run.py",
           [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END))
    expect("BENCHMARK.json per_layer matches run.py",
           [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == run.per_layer_metrics())

    original_content, original_wolff = gauges.content_Mh_tree, potentials.wolff_tree
    build_root = run.ROOT / ".bench_build"
    build_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=build_root)
    try:
        workloads.generate("gauge-content", run.GOLDEN_SEED, workdir)
        job = next(j for j in workloads.jobs("gauge-content", run.GOLDEN_SEED, workdir,
                                             os.path.join(workdir, "out"))
                   if j.name == f"content-d{DEPTH}-source")
        snaps, walls = [], []
        with tracer.Tracer() as tr:
            bindings = tr.patched()
            expect("aliases in cli, experiments and gauges rebound",
                   cli.content_Mh_tree is gauges.content_Mh_tree
                   is experiments.content_Mh_tree is not original_content)
            expect("aliases in capacity and experiments rebound",
                   capacity.wolff_tree is experiments.wolff_tree
                   is potentials.wolff_tree is not original_wolff)
            for _ in range(2):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    t0 = time.perf_counter()
                    rc = job.run()
                    walls.append(time.perf_counter() - t0)
                snaps.append(tr.take())
                expect("job exits 0", rc == 0)
        expect("every binding restored after tracing",
               all((vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr))
                   is orig for owner, attr, orig in bindings))
        expect("content_Mh_tree restored", gauges.content_Mh_tree is original_content)
        job.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            build_root.rmdir()

    snap = snaps[0]
    calls, counters = snap["calls"], snap["counters"]
    expect(f"gauges.h_node.calls = {calls['gauges.h_node']} == {3 * NODES}",
           calls["gauges.h_node"] == 3 * NODES)
    expect(f"distinct h nodes = {counters['gauges.h_nodes_distinct']} == {NODES}",
           counters["gauges.h_nodes_distinct"] == NODES)
    expect("realization.distance_evals == node_atom_distances.calls x n_atoms",
           counters["realization.distance_evals"]
           == calls["realization.node_atom_distances"] * ATOMS)
    expect("counts repeat exactly between runs",
           snaps[1]["calls"] == snap["calls"] and snaps[1]["counters"] == snap["counters"])
    for s, wall in zip(snaps, walls):
        total = sum(s["self_s"].values())
        expect(f"self times sum {total:.4f} s within job wall {wall:.4f} s",
               0.0 < total <= wall and min(s["self_s"].values()) >= 0.0)
    print("selftest: " + ("PASS" if not failures else f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
