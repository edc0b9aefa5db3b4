"""The benchmark's contract with the library: names it patches, numbers it pins.

``bench/tracer.py`` wraps every entry of its ``TARGETS`` table on install and
fails on a missing attribute, so an API change that drops or moves one of
those names would break ``bench/run.py --trace 1``.  ``bench/workloads.py``
defines the jobs whose checked values ``bench/golden.json`` pins at the
golden seed; one untimed pass over every workload must reproduce them.  Both
modules are loaded read-only (no bytecode written next to them).
"""
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from qcantor.capacity import CapacityIndices, direct_capacity_lower

import support

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"qcantor_bench_{stem}",
                                                  BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TRACER_MODULE = _load("tracer")
TARGETS = TRACER_MODULE.TARGETS
WORKLOADS = _load("workloads")
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def test_tracer_targets_table_is_nonempty():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("name,owner,attr", [t[:3] for t in TARGETS],
                         ids=[f"{t[1].__name__}.{t[2]}" for t in TARGETS])
def test_tracer_target_resolves(name, owner, attr):
    if isinstance(owner, type):
        # methods are patched on the class that defines them
        assert attr in owner.__dict__, f"{name}: {owner.__name__} defines no {attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_direct_capacity_record_feeds_quadrature_counter():
    # the tracer rebuilds the quadrature grid from these record keys
    mu = support.uniform_disk(32, seed=1)
    est = direct_capacity_lower(mu, CapacityIndices(0.8, 1.6), cells=16)
    assert {"cells", "farfield_factor", "diam"} <= set(est.normalization)
    tr = SimpleNamespace(counters=Counter())
    TRACER_MODULE._count_quadrature(tr, est, (mu,), {})
    assert 0 < tr.counters["capacity.quadrature_evals"] <= 16 * 16 * mu.n_atoms


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_workload_pass_matches_golden(workload, tmp_path):
    seed, golden = GOLDEN["seed"], GOLDEN[workload]
    workdir, out_dir = tmp_path / "work", str(tmp_path / "out")
    workdir.mkdir()
    WORKLOADS.generate(workload, seed, str(workdir))
    jobs = WORKLOADS.jobs(workload, seed, str(workdir), out_dir)
    assert sorted(job.name for job in jobs) == sorted(golden)
    for job in jobs:
        assert job.run() == 0, job.name
        WORKLOADS.compare_golden(job.name, job.check(), golden[job.name])
