"""The benchmark tracer patches library names by attribute; keep them resolvable.

``bench/tracer.py`` wraps every entry of its ``TARGETS`` table on install and
fails on a missing attribute, so an API change that drops or moves one of
those names would break ``bench/run.py --trace 1``.  The tracer module is
loaded read-only (no bytecode written next to it).
"""
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from qcantor.capacity import CapacityIndices, direct_capacity_lower
from qcantor.measure import PlanarMeasure

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qcantor_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


TRACER_MODULE = _load_tracer()
TARGETS = TRACER_MODULE.TARGETS


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
    mu = PlanarMeasure.uniform_disk(32, seed=1)
    est = direct_capacity_lower(mu, CapacityIndices(0.8, 1.6), cells=16)
    assert {"cells", "farfield_factor", "diam"} <= set(est.normalization)
    tr = SimpleNamespace(counters=Counter())
    TRACER_MODULE._count_quadrature(tr, est, (mu,), {})
    assert 0 < tr.counters["capacity.quadrature_evals"] <= 16 * 16 * mu.n_atoms
