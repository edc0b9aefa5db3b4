"""Outside-in tracer for qcantor: wraps public functions from the benchmark side.

Nothing under ``src/`` is edited.  ``Tracer.install()`` replaces each traced
function with a wrapper that records a span, and rebinds every alias of it
that a ``from ... import`` left in any loaded ``qcantor`` module (``cli``,
``experiments`` and ``capacity`` all hold such aliases), so calls made through
those names are traced too.  Methods are wrapped on their class.

A layer's self time is its span minus the time covered by the spans of the
traced calls it made.  Work counters are updated by per-function hooks that
run after the span closes; their cost is removed from the caller's self
time, so it shows only in the traced wall time (``trace.overhead_frac``).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from qcantor import (cantor, capacity, cli, experiments, gauges, measure, potentials,
                     realization)


def _count_distances(tr, result, args, kwargs):
    tr.counters["realization.distance_evals"] += args[0].n_atoms


def _count_atoms(tr, result, args, kwargs):
    tr.counters["realization.atoms"] += args[0].n_atoms


def _count_levels(tr, result, args, kwargs):
    tr.counters["cantor.tree_levels"] += result.depth


def _count_h_node(tr, result, args, kwargs):
    # keyed on the gauge object itself: an id() could be reused by a later
    # gauge of the same job once the earlier one is freed
    tr.h_nodes.add((args[0], tuple(args[1])))


def _count_pairs(tr, result, args, kwargs):
    n = args[0].n_atoms
    tr.counters["measure.pair_evals"] += n * n if n >= 2 else 0


def _count_quadrature(tr, result, args, kwargs):
    """Grid cells inside the far-field disk times live atoms.

    Rebuilds the estimator's grid from the record it returns (same float
    operations, so the same cells fall inside).
    """
    rec = result.normalization
    if "diam" not in rec:
        return
    mu = args[0]
    center = mu.support_center()
    cells = rec["cells"]
    r_far = rec["farfield_factor"] * rec["diam"]
    h = 2.0 * r_far / cells
    ax = center[0] - r_far + h * (np.arange(cells) + 0.5)
    ay = center[1] - r_far + h * (np.arange(cells) + 0.5)
    gx, gy = np.meshgrid(ax, ay)
    inside = np.count_nonzero(np.hypot(gx.ravel() - center[0],
                                       gy.ravel() - center[1]) <= r_far)
    live = int(np.count_nonzero(mu.weights > 0))
    tr.counters["capacity.quadrature_evals"] += int(inside) * live


def _count_triples(tr, result, args, kwargs):
    tr.counters["potentials.triples"] += result.triples


# (metric name, owner, attribute, counter hook).  The owner is a module for
# functions and a class for methods; several entries may share a name.
TARGETS = (
    ("realization.node_atom_distances", realization.CantorRealization,
     "node_atom_distances", _count_distances),
    ("realization.node_eps", realization.CantorRealization, "node_eps", None),
    ("realization.realize", realization.CantorRealization, "__init__", _count_atoms),
    ("cantor.node_index", cantor.CantorTree, "node_index", None),
    ("cantor.build_tree", cantor, "build_tree", _count_levels),
    ("gauges.h_node", gauges.TreeSmoothedDensityGauge, "h_node", _count_h_node),
    ("gauges.h_node", gauges.DistortedTreeGauge, "h_node", _count_h_node),
    ("gauges.psi_a", gauges, "psi_a", None),
    ("gauges.content_Mh_tree", gauges, "content_Mh_tree", None),
    ("gauges.frostman_tree", gauges, "frostman_tree", None),
    ("gauges.eps_mu_a", gauges, "eps_mu_a", None),
    ("gauges.check_G1", gauges, "check_G1", None),
    ("gauges.check_G2", gauges, "check_G2", None),
    ("measure.diameter", measure.PlanarMeasure, "diameter", _count_pairs),
    ("measure.distances", measure.PlanarMeasure, "distances", None),
    ("measure.ball_mass_profile", measure.PlanarMeasure, "ball_mass_profile", None),
    ("capacity.direct_capacity_lower", capacity, "direct_capacity_lower",
     _count_quadrature),
    ("capacity.wolff_capacity_lower", capacity, "wolff_capacity_lower", None),
    ("potentials.menger_curvature", potentials, "menger_curvature", _count_triples),
    ("potentials.wolff_dyadic", potentials, "wolff_dyadic", None),
    ("potentials.riesz_potential", potentials, "riesz_potential", None),
    ("potentials.wolff_tree", potentials, "wolff_tree", None),
    ("cli.main", cli, "main", None),
    ("experiments.report_write", experiments.ExperimentReport, "write", None),
)

SPANS = tuple(dict.fromkeys(name for name, *_ in TARGETS))
COUNTERS = ("realization.distance_evals", "realization.atoms", "cantor.tree_levels",
            "measure.pair_evals", "capacity.quadrature_evals", "potentials.triples",
            "gauges.h_nodes_distinct")


class Tracer:
    """Span and counter recorder; use ``with Tracer() as tr:`` to trace."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.h_nodes = set()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += span - child
                if stack:
                    stack[-1] += span
            if hook is not None:
                t1 = clock()
                hook(self, result, args, kwargs)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "qcantor" or k.startswith("qcantor."))]
        for name, owner, attr, hook in TARGETS:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, alias, orig))
                        setattr(mod, alias, wrapped)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def patched(self):
        """(owner, attribute, original) of every binding currently replaced."""
        return list(self._patches)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self):
        """Return the totals recorded since the last take, and reset them."""
        if self._stack:
            raise RuntimeError("take() inside a traced call")
        self.counters["gauges.h_nodes_distinct"] += len(self.h_nodes)
        snap = {"calls": {n: self.calls.get(n, 0) for n in SPANS},
                "self_s": {n: self.self_s.get(n, 0.0) for n in SPANS},
                "counters": {n: self.counters.get(n, 0) for n in COUNTERS}}
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        self.h_nodes.clear()
        return snap


def add_into(total, snap):
    """Accumulate one ``take()`` snapshot into another."""
    for part in ("calls", "self_s", "counters"):
        for k, v in snap[part].items():
            total[part][k] = total[part].get(k, 0) + v
    return total


def empty():
    return {"calls": {}, "self_s": {}, "counters": {}}


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
