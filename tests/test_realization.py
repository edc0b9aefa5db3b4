"""Batched per-generation eps against the frame-exact per-node oracle."""
import gc
import weakref

import numpy as np
import pytest

from qcantor.cantor import (SOURCE, SIDES, build_tree, harmonic_schedule,
                            schedules_from_config)
from qcantor.gauges import psi_a

A = 0.1
ROUNDOFF = 2.0 ** -53


def _harmonic(depth, seed):
    return build_tree(harmonic_schedule(2.0, depth), depth, seed=seed)


def _mixed(seed):
    cfg = {"K": 2, "depth": 5, "seed": seed,
           "levels": [{"M": m, "d": "harmonic"} for m in (3, 4, 2, 3, 4)]}
    schedules, depth, seed = schedules_from_config(cfg)
    return build_tree(schedules, depth, seed=seed)


def _sampled_paths(tree, per_generation=40):
    for g in range(tree.depth + 1):
        paths = list(tree.paths_at(g))
        yield from paths[::max(1, len(paths) // per_generation)]


CASES = [("harmonic", 1), ("harmonic", 4), ("mixed", 1), ("mixed", 4)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-spl{c[1]}")
def realized(request):
    kind, spl = request.param
    tree = _harmonic(5, seed=3) if kind == "harmonic" else _mixed(seed=3)
    return tree.realize(seed=3, samples_per_leaf=spl)


@pytest.mark.parametrize("side", SIDES)
def test_batched_eps_matches_node_oracle(realized, side):
    tree = realized.tree
    eps = realized.eps_by_generation(side, A)
    assert [len(e) for e in eps] == [tree.n_nodes(g) for g in range(tree.depth + 1)]
    for path in _sampled_paths(tree):
        exact = realized.node_eps(side, path, A)
        got = eps[len(path)][tree.node_index(path)]
        assert abs(got - exact) <= 1e-13 * exact


@pytest.mark.parametrize("side", SIDES)
def test_dropped_ring_share_within_recorded_bound(realized, side):
    tree = realized.tree
    s = realized.samples_per_leaf
    rings = realized.eps_rings(side, A)
    assert all(tail <= ROUNDOFF for _, tail in rings)
    dropped_somewhere = False
    for path in _sampled_paths(tree):
        g = len(path)
        kept, tail = rings[g]
        r = np.exp(tree.log_radius(side, g))
        terms = realized.weights * psi_a(realized.node_atom_distances(side, path) / r, A)
        # rings 0..kept are the atoms below the generation-(g - kept) ancestor
        lo, hi = realized.leaf_range(path[:g - kept])
        near = np.zeros(realized.n_atoms, dtype=bool)
        near[lo * s:hi * s] = True
        share = terms[~near].sum() / terms.sum()
        assert share <= tail
        dropped_somewhere |= share > 0.0
    assert dropped_somewhere


def test_two_atom_tree_matches_oracle():
    tree = build_tree(harmonic_schedule(2.0, 1, branching=2), 1, seed=0)
    real = tree.realize(seed=0)
    assert real.n_atoms == 2
    for side in SIDES:
        eps = real.eps_by_generation(side, A)
        for path in [(), (0,), (1,)]:
            exact = real.node_eps(side, path, A)
            assert eps[len(path)][tree.node_index(path)] == pytest.approx(exact, rel=1e-13)


def test_nonpositive_kernel_parameter_rejected(real_k2_d3):
    with pytest.raises(ValueError, match="positive"):
        real_k2_d3.eps_by_generation(SOURCE, 0.0)


@pytest.mark.parametrize("a", [float("nan"), float("inf")])
def test_non_finite_kernel_parameter_rejected_by_ring_bounds(real_k2_d3, a):
    with pytest.raises(ValueError, match="positive and finite"):
        real_k2_d3.eps_rings(SOURCE, a)


def test_eps_cache_is_read_only_and_shared(real_k2_d3):
    eps = real_k2_d3.eps_by_generation(SOURCE, A)
    assert real_k2_d3.eps_by_generation(SOURCE, A) is eps
    with pytest.raises(ValueError):
        eps[1][0] = 0.0


def test_realization_cache_does_not_keep_realizations_alive():
    tree = _harmonic(2, seed=4)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        real = tree.realize(seed=4)
        real.eps_by_generation(SOURCE, A)
        ref = weakref.ref(real)
        del real
        assert ref() is None  # freed by refcount alone: no tree <-> realization cycle
    finally:
        if was_enabled:
            gc.enable()
