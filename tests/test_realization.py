"""Batched per-generation eps against the frame-exact per-node oracle."""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcantor import realization
from qcantor.cantor import (SOURCE, SIDES, TARGET, build_tree, harmonic_schedule,
                            schedules_from_config)
from qcantor.gauges import psi_a
from qcantor.measure import PlanarMeasure

import support

A = 0.1
ROUNDOFF = 2.0 ** -53


def _harmonic(depth, seed):
    return build_tree(harmonic_schedule(2.0, depth), depth, seed=seed)


def _mixed(seed, branchings=(3, 4, 2, 3, 4)):
    cfg = {"K": 2, "depth": len(branchings), "seed": seed,
           "levels": [{"M": m, "d": "harmonic"} for m in branchings]}
    schedules, depth, seed = schedules_from_config(cfg)
    return build_tree(schedules, depth, seed=seed)


def _sampled_paths(tree, per_generation=40):
    for g in range(tree.depth + 1):
        paths = list(support.paths_at(tree, g))
        yield from paths[::max(1, len(paths) // per_generation)]


CASES = [("harmonic", 1), ("harmonic", 4), ("mixed", 1), ("mixed", 4),
         ("single", 1), ("single", 4)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-spl{c[1]}")
def realized(request):
    # "single" has an interior M = 1 level: its rings there have no siblings
    kind, spl = request.param
    tree = {"harmonic": lambda: _harmonic(5, seed=3), "mixed": lambda: _mixed(seed=3),
            "single": lambda: _mixed(seed=3, branchings=(3, 1, 2, 4, 3))}[kind]()
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


@pytest.mark.parametrize("chunk", [61, 1000])
def test_batched_eps_in_tiny_chunks_matches_node_oracle(realized, chunk, monkeypatch):
    # every ring wider than a chunk is cut into pieces, over its members and
    # over the nodes of each group
    monkeypatch.setattr(realization, "_CHUNK", chunk)
    real = realized.tree.realize(seed=3, samples_per_leaf=realized.samples_per_leaf)
    tree = real.tree
    for side in SIDES:
        eps = real.eps_by_generation(side, A)
        for path in _sampled_paths(tree, per_generation=12):
            exact = realized.node_eps(side, path, A)
            got = eps[len(path)][tree.node_index(path)]
            assert abs(got - exact) <= 1e-13 * exact


def _dropped_shares(real, side):
    """Per sampled node: the share of its eps sum from the rings the plan drops,
    each checked against the plan's recorded tail bound."""
    tree, s = real.tree, real.samples_per_leaf
    plans = real.eps_rings(side, A)
    assert all(plan.tail <= plan.bound <= ROUNDOFF for plan in plans)
    shares = []
    for path in _sampled_paths(tree):
        g = len(path)
        kept, tail = len(plans[g].levels), plans[g].tail
        r = np.exp(tree.log_radius(side, g))
        terms = real.weights * psi_a(real.node_atom_distances(side, path) / r, A)
        # rings 0..kept are the atoms below the generation-(g - kept) ancestor
        lo, hi = support.leaf_range(real.tree, path[:g - kept])
        near = np.zeros(real.n_atoms, dtype=bool)
        near[lo * s:hi * s] = True
        share = terms[~near].sum() / terms.sum()
        assert share <= tail
        shares.append(share)
    return shares


@pytest.mark.parametrize("side", SIDES)
def test_dropped_ring_share_within_recorded_bound(realized, side):
    assert _dropped_shares(realized, side)


@pytest.mark.parametrize("spl", [1, 4])
def test_dropped_ring_share_within_bound_where_every_ring_is_kept(spl):
    real = _mixed(seed=3, branchings=(3, 1, 2, 4)).realize(seed=3, samples_per_leaf=spl)
    assert set(_dropped_shares(real, TARGET)) == {0.0}


@pytest.mark.parametrize("spl", [1, 4])
@pytest.mark.parametrize("side", SIDES)
def test_some_sampled_ring_is_dropped_on_the_depth5_harmonic_tree(side, spl):
    real = _harmonic(5, seed=3).realize(seed=3, samples_per_leaf=spl)
    assert max(_dropped_shares(real, side)) > 0.0


def _ring_sums(real, side, a, g):
    """Generation g's ring psi sums at every node, ring 0 first, each as
    ``_add_ring`` evaluates it on a fresh fill."""
    plan = real.eps_rings(side, a)[g]
    fill = realization._RingFill(real.tree.node_counts[g], 1 + len(plan.levels))
    return [real._add_ring(side, a, g, fill) for _ in range(fill.size)]


def _ring_errors(real, side, a=A):
    """Per planned ring of each sampled node: (level, k, |batched - exact| / eps,
    planned remainder), with ring j of a generation-g node facing the siblings
    of its generation-k ancestor, k = g - j + 1, and the exact ring sum taken
    from the per-node oracle's distances."""
    tree, s = real.tree, real.samples_per_leaf
    plans = real.eps_rings(side, a)
    rings = [_ring_sums(real, side, a, g) for g in range(tree.depth + 1)]
    for path in _sampled_paths(tree):
        g = len(path)
        r = np.exp(tree.log_radius(side, g))
        terms = psi_a(real.node_atom_distances(side, path) / r, a)  # equal weights
        i = tree.node_index(path)
        for j, (level, rem) in enumerate(zip(plans[g].levels, plans[g].remainders), start=1):
            lo, hi = support.leaf_range(real.tree, path[:g - j])
            own_lo, own_hi = support.leaf_range(real.tree, path[:g - j + 1])
            exact = terms[lo * s:own_lo * s].sum() + terms[own_hi * s:hi * s].sum()
            yield level, g - j + 1, abs(rings[g][j][i] - exact) / terms.sum(), rem


@pytest.mark.parametrize("side", SIDES)
def test_expansion_error_within_planned_remainder(realized, side):
    # the remainders bound the Taylor truncation; the two sums' frame
    # arithmetic differs by rounding, which one unit round-off of eps covers
    errors = list(_ring_errors(realized, side))
    assert all(err <= rem + ROUNDOFF for *_, err, rem in errors)
    assert any(level == k for level, k, *_ in errors)  # expanded at its own generation
    if side == TARGET and realized.samples_per_leaf == 4:
        assert any(k < level <= realized.depth for level, k, *_ in errors)  # descended


def test_remainder_bounds_truncation_at_a_loose_budget(realized, monkeypatch):
    # a 2**-16 budget expands the target rings at their own generation, where
    # the truncation error stands far above rounding and tests the bound itself;
    # from a = 3 on this budget drops every ring, leaving nothing to expand
    monkeypatch.setattr(realization, "EXPANSION_BUDGET", 2.0 ** -16)
    monkeypatch.setattr(realization, "_REMAINDER", 2.0 ** -17)
    real = realized.tree.realize(seed=3, samples_per_leaf=realized.samples_per_leaf)
    for a in (A, 1.0):
        errors = list(_ring_errors(real, TARGET, a))
        assert all(err <= rem + ROUNDOFF for *_, err, rem in errors)
        if realized.samples_per_leaf == 4:
            assert max(err for *_, err, _ in errors) > 1e3 * ROUNDOFF


def test_fill_work_counter_depth_8():
    # kernel evaluations of the depth-8 fill: ring 0's atoms plus every kept
    # ring's blocks or atoms, per generation; deterministic for the schedule
    tree = _harmonic(8, seed=0)
    real = tree.realize(seed=0)
    work = {side: sum(plan.evaluations for plan in real.eps_rings(side, A)) for side in SIDES}
    assert work == {SOURCE: 1_114_092, TARGET: 1_834_656}
    assert work[TARGET] <= 2 * work[SOURCE]
    # summing the kept rings atom by atom costs N (1 + sum_{j <= L} (M - 1) M^(j - 1))
    # per generation: L = 2 rings (source) and up to 4 (target) give these counts
    n = real.n_atoms
    atom_by_atom = {SOURCE: [0, 1] + [2] * 7, TARGET: [0, 1, 2, 3] + [4] * 5}
    for side, rings in atom_by_atom.items():
        assert [len(plan.levels) for plan in real.eps_rings(side, A)] == rings
        parent = sum(n * (1 + sum(3 * 4 ** (j - 1) for j in range(1, L + 1))) for L in rings)
        assert parent == {SOURCE: 7_667_712, TARGET: 89_456_640}[side]
        assert work[side] < parent


@pytest.mark.parametrize("spl", [1, 4])
@pytest.mark.parametrize("K", [1.5, 2.0, 10.0, "mixed"])
def test_lifted_frames_equal_reference_bit_for_bit(K, spl):
    # every frame is the leaf-frame atoms plus the offsets of generations
    # depth, depth - 1, ..., g + 1, added in that order
    tree = _mixed(seed=3) if K == "mixed" else build_tree(harmonic_schedule(K, 5), 5, seed=3)
    real = tree.realize(seed=3, samples_per_leaf=spl)
    reference = support.reference_frames(tree, 3, spl)
    for side in SIDES:
        ref, atoms = reference[side], real._atoms[side]
        frames = real._frames(side)
        for g in range(tree.depth + 1):
            assert np.array_equal(real._lift(side, atoms, g, tree.depth).T, ref[g])
            assert np.array_equal(frames[g].T, ref[g])
        assert np.array_equal(real.measure(side).points, ref[0])
        # each leaf's own origin lifted: the 1-sample reference atoms
        assert np.array_equal(real.leaf_centers(side),
                              support.reference_frames(tree, 3, 1)[side][0])


def test_leaf_centers_are_the_single_sample_atoms():
    tree = _mixed(seed=3)
    single = tree.realize(seed=3)
    real = tree.realize(seed=3, samples_per_leaf=4)
    for side in SIDES:
        assert np.array_equal(real.leaf_centers(side), single.measure(side).points)


@pytest.mark.parametrize("spl", [1, 4, 64])
def test_leaf_blocks_equal_grouped_atoms(spl):
    # every generation's moments and radii against its reference frame's
    # atoms, centroids against the flat cloud (depth 3 keeps its sibling
    # separations)
    for K in (1.5, 2.0, 10.0):
        tree = build_tree(harmonic_schedule(K, 3), 3, seed=3)
        real = tree.realize(seed=3, samples_per_leaf=spl)
        reference = support.reference_frames(tree, 3, spl)
        for side in SIDES:
            levels = real.leaf_blocks(side)
            assert len(levels) == tree.depth + 1
            for g, blocks in enumerate(levels):
                atoms = real.n_atoms // tree.node_counts[g]
                local = support.leaf_blocks(PlanarMeasure(reference[side][g], real.weights),
                                            atoms)
                flat = support.leaf_blocks(real.measure(side), atoms)
                assert blocks.atoms == atoms
                assert blocks.centroids.shape == (tree.node_counts[g], 2)
                np.testing.assert_allclose(blocks.moments, local.moments, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(blocks.centroids, flat.centroids, rtol=0.0,
                                           atol=1e-15)
                # a bound on the largest atom distance, up to rounding
                assert np.all(blocks.radii >= local.radii * (1.0 - 1e-12))
            np.testing.assert_allclose(levels[-1].radii, local.radii, rtol=1e-12, atol=0.0)


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
    assert real_k2_d3.eps_rings(SOURCE, A) is real_k2_d3.eps_rings(SOURCE, A)
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=support.drawn_trees(), a=st.sampled_from([0.1, 1.0, 3.0]))
@example(drawn=({"K": 2.0, "depth": 5, "seed": 3,
                 "levels": [{"M": m, "d": "harmonic"} for m in (3, 1, 2, 4, 3)]}, 4), a=0.1)
def test_each_kept_ring_sum_is_within_its_a_priori_share(drawn, a):
    # the bound the content DP's upper ends rest on: ring j's psi sum at every
    # node is nonnegative and at most B_j of the generation's whole sum
    real = support.realize_or_none(*drawn)
    assume(real is not None)
    for side in SIDES:
        for g, plan in enumerate(real.eps_rings(side, a)):
            rings = _ring_sums(real, side, a, g)
            total = sum(rings)
            assert len(plan.shares) == len(plan.levels) == len(rings) - 1
            for ring, share in zip(rings[1:], plan.shares):
                assert np.all(ring >= 0.0)
                assert np.all(ring <= share * total)
            for k in range(1, len(rings) + 1):
                assert plan.rest(k) == sum(plan.shares[k - 1:]) + sum(plan.remainders[k - 1:])
