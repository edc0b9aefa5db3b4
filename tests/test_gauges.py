import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcantor import gauges
from qcantor import measure as measure_mod
from qcantor.cantor import (SOURCE, TARGET, ConfigError, ConstructionError, build_tree,
                            doubly_exponential_schedule, harmonic_schedule,
                            schedules_from_config)
from qcantor.gauges import (MAX_PAIRS, DistortedTreeGauge, TreeSmoothedDensityGauge, check_G1,
                            check_G2, check_G2_tree_gauge, content_Mh_tree, eps_mu_a,
                            frostman_tree, generation_cover_sum, psi_a, sample_ball_pairs)
from qcantor.measure import PlanarMeasure
from qcantor.potentials import (conjugate_minus_one, default_dyadic_range,
                                diagnose_divergence, standard_query_points,
                                wolff_dyadic)

import support


# -- paper-lemma checks ---------------------------------------------------------
#
# Numerical forms of lemmas about the smoothed density; the library itself
# never evaluates them, so they live with their tests.


def h_mu_a(measure, x, t, a) -> float:
    return t * eps_mu_a(measure, x, t, a)


@dataclass(frozen=True)
class EpsIntegralResult:
    dyadic_sum: float
    wolff_total: float
    ratio: float
    divergent_eps: bool
    divergent_wolff: bool


def eps_integral_check(measure, x, a, p, k_min, k_max) -> EpsIntegralResult:
    """Dyadic sum of eps_mu_a(x, 2^k)^(p'-1) against the Wolff sum at (1/p, p).

    The smoothed-density integral is dominated by the Wolff potential; the
    ratio and both divergence flags are returned for inspection.
    """
    if measure.n_atoms == 0:
        return EpsIntegralResult(0.0, 0.0, 0.0, False, False)
    eta = conjugate_minus_one(p)
    ks = np.arange(k_max, k_min - 1, -1)
    terms = np.array([eps_mu_a(measure, x, 2.0 ** float(k), a) ** eta for k in ks])
    div_eps, _ = diagnose_divergence(list(ks), terms, "dyadic")
    wolff = wolff_dyadic(measure, x, 1.0 / p, p, k_min, k_max, sub_scale_tail=False)
    total = float(np.sum(terms))
    ratio = total / wolff.total if wolff.total > 0 else math.inf
    return EpsIntegralResult(total, wolff.total, ratio, div_eps, wolff.divergent)


def geometric_kernel_sum_constant(a, b, radii=None) -> float:
    """Empirical constant C with sum_k 2^(-bk) psi-type term <= C/(|z|^m + 1),
    m = min(a, b).  The constant blows up as a -> b, which is excluded."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if a == b:
        raise ValueError("a == b is excluded")
    m = min(a, b)
    if radii is None:
        radii = np.concatenate([[0.0], np.power(2.0, np.arange(-12.0, 24.0, 0.25))])
    worst = 0.0
    for z in np.asarray(radii, dtype=float):
        k_top = int(math.ceil((64.0 + a * math.log2(1.0 + z)) / b)) + 4
        k = np.arange(k_top + 1, dtype=float)
        lhs = float(np.sum(2.0 ** (-b * k) / ((2.0 ** (-k) * z) ** a + 1.0)))
        worst = max(worst, lhs * (z ** m + 1.0))
    return worst


# -- kernel and smoothed density ----------------------------------------------


def test_psi_at_origin():
    assert psi_a(0.0, 0.7) == pytest.approx(1.0)


def test_psi_at_unit_point():
    assert psi_a(1.0, 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_psi_rejects_bad_kernel_parameter(a):
    with pytest.raises(ValueError, match="positive and finite"):
        psi_a(np.array([0.5]), a)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_eps_rejects_bad_kernel_parameter(a):
    # psi_a's rule: eps_mu_a once returned 0.3125, 0.5, nan and 0.125 here
    mu = PlanarMeasure(np.array([[1.0, 0.0], [0.0, 3.0]]), np.array([0.25, 0.75]))
    with pytest.raises(ValueError, match="positive and finite"):
        eps_mu_a(mu, (0.0, 0.0), 1.0, a)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_psi_radially_decreasing(a, r1, r2):
    lo, hi = sorted((r1, r2))
    assert psi_a(hi, a) <= psi_a(lo, a) + 1e-15


def test_eps_single_atom_at_center():
    mu = PlanarMeasure(np.array([[0.3, -0.2]]), np.array([1.0]))
    for t in (0.1, 1.0, 7.0):
        assert eps_mu_a(mu, (0.3, -0.2), t, 0.5) == pytest.approx(1.0 / t, rel=1e-12)


def test_eps_two_atom_measure_sums_per_atom():
    # two distances must not be read as one planar point
    mu = PlanarMeasure(np.array([[1.0, 0.0], [0.0, 3.0]]), np.array([0.25, 0.75]))
    want = 0.25 / (1.0 ** 1.5 + 1.0) + 0.75 / (3.0 ** 1.5 + 1.0)
    assert eps_mu_a(mu, (0.0, 0.0), 1.0, 0.5) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("x", [[0.0, 0.0, 5.0], np.zeros((4, 3))], ids=["one", "many"])
def test_eps_refuses_a_centre_that_is_not_planar(x):
    # the three-coordinate centre once read as (0, 0), silently
    mu = PlanarMeasure(np.array([[1.0, 0.0], [0.0, 3.0]]), np.array([0.25, 0.75]))
    with pytest.raises(ValueError, match=re.escape(f"(2,) or (..., 2), got {np.shape(x)}")):
        eps_mu_a(mu, x, 1.0, 0.1)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.01, 4.0))
def test_eps_doubling_bound(a, t):
    mu = support.uniform_disk(40, seed=12)
    x = (0.2, 0.1)
    assert eps_mu_a(mu, x, 2.0 * t, a) <= 2.0 ** a * eps_mu_a(mu, x, t, a) * (1 + 1e-12)


def test_eps_dominates_plain_density():
    # psi_a(1) = 1/2 at a = 1, so eps >= mu(B(x,t)) / (2t)
    mu = support.uniform_disk(200, seed=13)
    for t in (0.2, 0.7, 1.5):
        x = (0.1, 0.0)
        assert eps_mu_a(mu, x, t, 1.0) >= mu.ball_mass(x, t) / (2.0 * t) - 1e-15


def test_gauge_h_vanishes_monotonically():
    mu = support.uniform_disk(100, seed=14)
    x = (0.05, 0.05)
    hs = [h_mu_a(mu, x, 2.0 ** -k, 0.5) for k in range(6, 17)]
    assert all(b < a for a, b in zip(hs, hs[1:]))


# -- eps integral vs Wolff ----------------------------------------------------


def test_eps_integral_empty_measure():
    mu = PlanarMeasure(np.zeros((0, 2)), np.zeros(0))
    res = eps_integral_check(mu, (0.0, 0.0), 0.1, 1.5, -10, 2)
    assert res.dyadic_sum == 0.0


def test_eps_integral_single_atom_flags_agree():
    mu = PlanarMeasure(np.zeros((1, 2)), np.ones(1))
    res = eps_integral_check(mu, (0.0, 0.0), 0.5, 1.5, -40, 2)
    assert res.divergent_eps and res.divergent_wolff


def test_eps_integral_ratio_bounded(tree_k2_d3, real_k2_d3):
    mu = real_k2_d3.measure(SOURCE)
    pts, _ = standard_query_points(real_k2_d3, SOURCE, seed=2)
    k_min, k_max = default_dyadic_range(tree_k2_d3, SOURCE)
    ratios = [eps_integral_check(mu, x, 0.1, 1.5, k_min, k_max).ratio
              for x in pts[:50]]
    assert all(r <= 64.0 for r in ratios)


# -- regularity classes -------------------------------------------------------


def test_constant_gauge_doubling_constants():
    eps = lambda x, r: 1.0  # noqa: E731
    pairs = sample_ball_pairs((0.0, 0.0), 1.0, 64, seed=3)
    g1 = check_G1(eps, pairs)
    assert g1.c0 == pytest.approx(1.0)
    g2 = check_G2(eps, [(np.zeros(2), 0.5)], swallow_radius=2.0)
    # sum_k 2^-k = 2, and the geometric remainder bound reproduces it exactly
    assert g2.c0_prime == pytest.approx(2.0, rel=1e-12)


def test_smoothed_gauge_in_G1():
    mu = support.uniform_disk(150, seed=15)
    a = 0.4
    pairs = sample_ball_pairs((0.0, 0.0), 1.0, 400, seed=5, log_r_range=(-6.0, 1.0))
    report = check_G1(lambda x, r: eps_mu_a(mu, x, r, a), pairs)
    assert report.c0 <= 4.0 * 2.0 ** (1.0 + a)


def test_inverse_radius_gauge_summable():
    report = check_G2(lambda x, r: 1.0 / r, [(np.zeros(2), 0.25)], swallow_radius=2.0)
    # eps = 1/r telescopes: sum 2^-k eps(2^k r) = (4/3) eps(r)
    assert report.c0_prime == pytest.approx(4.0 / 3.0, rel=0.05)


def test_distorted_gauge_chain_summability(real_k2_d3):
    gauge = DistortedTreeGauge(real_k2_d3, a=0.1)
    tree = real_k2_d3.tree
    report = check_G2_tree_gauge(gauge, 3, 8)
    assert math.isfinite(report.c0_prime)
    assert "ancestor-chain" in report.notes
    # the node-array chain against one walked path by path, in the same order
    worst = 0.0
    for path in list(support.paths_at(tree, 3))[:8]:
        total = 0.0
        for g in range(3, -1, -1):
            ratio = math.exp(tree.log_radius(TARGET, g) - tree.log_radius(TARGET, 3))
            total += float(gauge._eps_power(g)[tree.node_index(path[:g])]) / ratio
        worst = max(worst, total / float(gauge._eps_power(3)[tree.node_index(path)]))
    assert (report.c0_prime, report.pairs) == (worst, 8)


def test_G2_evaluates_every_ball_in_one_call():
    mu = support.uniform_disk(40, seed=3)
    balls = [(np.array([0.1 * k, -0.2]), 0.03 * (k + 1)) for k in range(5)]
    calls = []

    def eps(x, r):
        calls.append((np.shape(x), np.shape(r)))
        return eps_mu_a(mu, x, r, 0.3)

    report = check_G2(eps, balls, swallow_radius=2.0)
    rows = calls[0][1][0]
    assert calls == [((rows, 2), (rows,))]
    # the same report as one call per ball
    one_by_one = [check_G2(lambda x, r: eps_mu_a(mu, x, r, 0.3), [ball], 2.0) for ball in balls]
    assert report.c0_prime == max(r.c0_prime for r in one_by_one)
    assert report.truncation_k == max(r.truncation_k for r in one_by_one)


def test_ball_pairs_refuse_an_oversized_count_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"--pairs {10 ** 9}: at most {MAX_PAIRS}"):
            sample_ball_pairs((0.0, 0.0), 1.0, 10 ** 9, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(sample_ball_pairs((0.0, 0.0), 1.0, MAX_PAIRS, seed=0)) == MAX_PAIRS


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40])
def test_ball_pairs_equal_the_loop_of_uniform_draws(seed):
    for args in (((0.0, 0.0), 1.0, 200, seed), ((0.3, -2.0), 0.25, 57, seed, (-3.0, 2.0)),
                 ((0.0, 0.0), 1.0, 0, seed)):
        got, want = sample_ball_pairs(*args), support.sample_ball_pairs_loop(*args)
        assert len(got) == len(want) == args[2]
        for ((x, r), (y, s)), ((x0, r0), (y0, s0)) in zip(got, want):
            assert (x.tolist(), r, y.tolist(), s) == (x0.tolist(), r0, y0.tolist(), s0)


# -- leaf expansions of eps_mu_a ----------------------------------------------


def _test_balls(mu, seed):
    """check-gauge's sampled balls, plus balls centred on atoms, whose own
    leaf takes its atoms.  No radius is below 1e-3: at depths 3-4 the flat
    cloud's coordinates, rounded once per lifted generation, are off by
    about 1e-16, more than a leaf radius (ROADMAP item 2), so on smaller
    balls the flat sum itself drifts by 1e-16 / t relative."""
    pairs = sample_ball_pairs((0.0, 0.0), 1.0, 24, seed)
    centres = [c for pair in pairs for c, _ in pair]
    radii = [r for pair in pairs for _, r in pair]
    rng = np.random.default_rng(seed)
    for x in mu.points[rng.choice(mu.n_atoms, 4, replace=False)]:
        centres += [x, x]
        radii += [1e-3, 0.1]
    return np.array(centres), np.array(radii)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
def test_leaf_expansions_match_flat_eps(K, depth):
    tree = build_tree(harmonic_schedule(K, depth), depth, seed=depth)
    for spl in (1, 4, 64):
        real = tree.realize(seed=depth, samples_per_leaf=spl)
        for side in (SOURCE, TARGET):
            mu = real.measure(side)
            centres, radii = _test_balls(mu, depth)
            for a in (0.1, 1.0, 50.0):
                flat = eps_mu_a(support.without_blocks(mu), centres, radii, a)
                got = eps_mu_a(mu, centres, radii, a)
                if spl == 1:  # one atom per leaf: no blocks, the flat route
                    assert mu.blocks is None
                    assert np.array_equal(got, flat)
                    continue
                np.testing.assert_allclose(got, flat, rtol=1e-12, atol=0.0)


def test_ball_centred_inside_a_leaf_takes_its_atoms(monkeypatch):
    # one leaf, and a budget that takes every expansion outside it
    real = build_tree(harmonic_schedule(2.0, 1), 1, seed=0).realize(seed=0, samples_per_leaf=64)
    mu = real.measure(TARGET)
    leaf = PlanarMeasure(mu.points[:64], mu.weights[:64],
                         blocks=(measure_mod.LeafBlocks(*(b[:1] for b in mu.blocks[-1][:3]), 64),))
    monkeypatch.setattr(measure_mod, "EXPANSION_BUDGET", math.inf)
    rho = float(leaf.blocks[-1].radii[0])
    inside = np.vstack([leaf.points[:8], leaf.blocks[-1].centroids])
    t = np.geomspace(0.01, 10.0, 7)[:, None] * rho
    flat = support.without_blocks(leaf)
    np.testing.assert_allclose(eps_mu_a(leaf, inside, t, 0.1), eps_mu_a(flat, inside, t, 0.1),
                               rtol=1e-12, atol=0.0)
    # just outside the leaf the loose budget expands, far from the atoms' sum
    outside = leaf.blocks[-1].centroids + [[1.5 * rho, 0.0]]
    near = eps_mu_a(leaf, outside, 0.1 * rho, 0.1)
    assert abs(near / eps_mu_a(flat, outside, 0.1 * rho, 0.1) - 1.0) > 1e-6


@pytest.mark.parametrize("a", [0.1, 1.0, 3.0, 10.0])
def test_leaf_expansion_eps_error_within_its_share(monkeypatch, a):
    # depth 1: four wide leaves; balls a few leaf radii to a thousand away
    real = build_tree(harmonic_schedule(2.0, 1), 1, seed=0).realize(seed=0, samples_per_leaf=64)
    mu = real.measure(TARGET)
    rho = float(mu.blocks[-1].radii.max())
    angle = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]
    offsets = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    centres = np.vstack([c + f * rho * offsets for c in mu.blocks[-1].centroids
                         for f in (3.0, 30.0, 300.0, 1000.0)])
    centres = np.repeat(centres, 3, axis=0)
    radii = np.tile([rho, 10.0 * rho, 100.0 * rho], centres.shape[0] // 3)
    exact = eps_mu_a(support.without_blocks(mu), centres, radii, a)
    assert eps_mu_a(mu, centres, radii, a) == pytest.approx(exact, rel=1e-12, abs=0.0)
    monkeypatch.setattr(measure_mod, "EXPANSION_BUDGET", 2.0 ** -16)
    kernel = gauges._PsiKernel(a, radii[:, None])
    sums, share = measure_mod._leaf_sums(mu, centres, kernel)
    assert 2.0 ** -40 < share <= 2.0 ** -16  # pairs expanded, far above rounding
    assert np.all(np.abs(sums / radii - exact) <= (share + 2.0 ** -52) * exact)
    assert np.array_equal(eps_mu_a(mu, centres, radii, a), sums / radii)


# -- two-parameter kernel sum bound -------------------------------------------


def test_kernel_sum_constant_at_zero():
    # z = 0: LHS = 1/(1 - 2^-b); b = 2 gives 4/3
    c = geometric_kernel_sum_constant(1.0, 2.0, radii=[0.0])
    assert c == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_kernel_sum_constant_finite_on_grid():
    c = geometric_kernel_sum_constant(1.0, 2.0)
    assert math.isfinite(c)
    assert c >= 4.0 / 3.0


def test_kernel_sum_constant_blows_up_near_diagonal():
    cs = [geometric_kernel_sum_constant(1.0, b) for b in (1.5, 1.1, 1.01)]
    assert cs[0] < cs[1] < cs[2]


def test_kernel_sum_equal_exponents_rejected():
    with pytest.raises(ValueError, match="excluded"):
        geometric_kernel_sum_constant(1.0, 1.0)


# -- contents: DP vs exhaustive enumeration ------------------------------------


def _random_integer_gauge(tree, rng):
    table = {}
    for g in range(tree.depth + 1):
        for path in support.paths_at(tree, g):
            table[path] = float(rng.integers(1, 1000))
    return table


def _all_cuts(tree, path=()):
    """Every antichain cover below a node, as explicit path lists."""
    g = len(path)
    if g == tree.depth:
        return [[path]]
    combos = [[]]
    for j in range(tree.branching(g + 1)):
        child = _all_cuts(tree, path + (j,))
        combos = [acc + c for acc in combos for c in child]
    return [[path]] + combos


@pytest.mark.parametrize("branching,depth", [(2, 2), (2, 3), (3, 2)])
def test_content_dp_equals_enumeration(branching, depth):
    tree = build_tree(harmonic_schedule(2.0, depth, branching=branching), depth)
    rng = np.random.default_rng(100 * branching + depth)
    for trial in range(20):
        table = _random_integer_gauge(tree, rng)
        got = content_Mh_tree(support.TableGauge(tree, table)).value
        assert got == support.content_by_enumeration(tree, table)  # integer sums: exact


@pytest.mark.parametrize("branching,depth", [(2, 4), (5, 2), (3, 3)])
def test_content_dp_equals_cut_enumeration_wider(branching, depth):
    # up to 32 leaves: the bitmask oracle is out of reach, explicitly listing
    # every antichain cover and summing it is not
    tree = build_tree(harmonic_schedule(2.0, depth, branching=branching), depth)
    assert tree.n_leaves <= 32
    cuts = _all_cuts(tree)
    rng = np.random.default_rng(7 * branching + depth)
    for trial in range(5):
        table = _random_integer_gauge(tree, rng)
        got = content_Mh_tree(support.TableGauge(tree, table)).value
        assert got == min(sum(table[p] for p in cut) for cut in cuts)


def test_content_mass_gauge_returns_total_mass():
    tree = build_tree(harmonic_schedule(2.0, 3), 3)
    table = {path: math.exp(tree.log_mass(g))
             for g in range(4) for path in support.paths_at(tree, g)}
    got = content_Mh_tree(support.TableGauge(tree, table)).value
    assert got == pytest.approx(math.exp(tree.log_total_mass()), rel=1e-12)


def test_content_root_optimal_when_subadditive():
    tree = build_tree(harmonic_schedule(2.0, 2), 2)
    table = {(): 1.0}
    for g in (1, 2):
        for path in support.paths_at(tree, g):
            table[path] = 2.0  # children always cost more
    res = content_Mh_tree(support.TableGauge(tree, table))
    assert res.value == 1.0
    assert res.cover_size == 1
    assert _cover_by_recursion(tree, table) == (1.0, [()])


def _cover_by_recursion(tree, table, path=()):
    """(cost, cover) of the optimal antichain below a node, depth-first with
    children in order; the node's own ball wins ties, as in the DP."""
    if len(path) == tree.depth:
        return table[path], [path]
    cost, cover = 0.0, []
    for j in range(tree.branching(len(path) + 1)):
        c, sub = _cover_by_recursion(tree, table, path + (j,))
        cost += c
        cover += sub
    return (table[path], [path]) if table[path] <= cost else (cost, cover)


def _mixed_tree(branchings, seed=0):
    cfg = {"K": 2, "depth": len(branchings), "seed": seed,
           "levels": [{"M": m, "d": "harmonic"} for m in branchings]}
    return build_tree(*schedules_from_config(cfg))


@pytest.mark.parametrize("branchings", [(2, 2, 2, 2), (3, 1, 2, 3), (4, 1, 1, 2), (1, 3, 2)])
def test_cover_size_from_the_take_masks_equals_the_walked_cover(branchings):
    tree = _mixed_tree(branchings)
    rng = np.random.default_rng(sum(branchings))
    for trial in range(25):
        # small integers: many ties, and covers at every depth
        table = {path: float(rng.integers(1, 6 ** (tree.depth - len(path) + 1)))
                 for g in range(tree.depth + 1) for path in support.paths_at(tree, g)}
        res = content_Mh_tree(support.TableGauge(tree, table))
        cost, cover = _cover_by_recursion(tree, table)
        assert res.value == cost
        assert res.cover_size == len(cover)


def test_root_only_cover_counts_one_ball():
    tree = _mixed_tree((3, 1, 2))
    table = {path: 1.0 if not path else 5.0
             for g in range(tree.depth + 1) for path in support.paths_at(tree, g)}
    res = content_Mh_tree(support.TableGauge(tree, table))
    assert res.cover_size == 1
    assert _cover_by_recursion(tree, table) == (1.0, [()])


def test_cover_is_antichain_partition(tree_k2_d3, real_k2_d3):
    gauge = TreeSmoothedDensityGauge(real_k2_d3, 0.1, side=SOURCE)
    table = {path: h for g, hs in enumerate(gauge.h_values())
             for path, h in zip(support.paths_at(tree_k2_d3, g), hs)}
    cost, cover = _cover_by_recursion(tree_k2_d3, table)
    for a in cover:
        for b in cover:
            if a != b:
                assert a != b[:len(a)]  # no ancestor pairs
    leaves = list(support.paths_at(tree_k2_d3, 3))
    assert all(any(leaf[:len(c)] == c for c in cover) for leaf in leaves)
    res = content_Mh_tree(gauge)
    assert res.cover_size == len(cover)
    assert res.value == pytest.approx(cost, rel=1e-12)


def _node_gauge(real, kind, a):
    if kind == "distorted":
        return DistortedTreeGauge(real, a)
    return TreeSmoothedDensityGauge(real, a, side=kind)


def _content_against_the_reference(cfg, spl, kind, a):
    """content_Mh_tree on one realization against the reference DP over the
    full h_values() of a second, fresh one: value (as hex), cover size and
    far-field bound, or the same refusal.  Returns the first realization,
    None where the config is refused before any gauge is read."""
    real, fresh = (support.realize_or_none(cfg, spl) for _ in range(2))
    if real is None:
        return None
    gauge, ref = _node_gauge(real, kind, a), _node_gauge(fresh, kind, a)
    try:
        value, cover_size = support.content_reference(ref)
    except ConstructionError as exc:
        with pytest.raises(ConstructionError) as refused:
            content_Mh_tree(gauge)
        assert str(refused.value) == str(exc)
        return real
    res = content_Mh_tree(gauge)
    assert (res.value.hex(), res.cover_size) == (value.hex(), cover_size)
    assert res.far_field_bound == ref.far_field_bound()
    return real


def _harmonic_config(K, depth, branchings=None):
    levels = [{"M": m, "d": "harmonic"} for m in branchings or [4] * depth]
    return {"K": K, "depth": depth, "seed": 0, "levels": levels}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(drawn=support.drawn_trees(), kind=st.sampled_from([SOURCE, TARGET, "distorted"]),
       a=st.sampled_from([0.1, 1.0, 3.0]))
@example(drawn=(_harmonic_config(2.0, 0), 1), kind=SOURCE, a=0.1)
@example(drawn=(_harmonic_config(2.0, 0), 1), kind="distorted", a=1.0)
@example(drawn=(_harmonic_config(2.0, 5, (3, 1, 2, 4, 3)), 4), kind=TARGET, a=0.1)
@example(drawn=(_harmonic_config(1.5, 4, (1, 4, 1, 4)), 1), kind="distorted", a=0.1)
@example(drawn=(_harmonic_config(30.0, 3), 1), kind="distorted", a=0.1)  # refused
def test_content_equals_the_reference_dp_over_full_h(drawn, kind, a):
    # the DP sums eps only as far as its decisions and its cover need, and
    # gives the bits of the DP over every generation in full
    _content_against_the_reference(*drawn, kind, a)


class _BracketGauge:
    """Hand-set h per generation, bracketed ring by ring: below its last ring,
    ring n of generation g gives h (1 - w) and h (1 + w), w = widths[g][n - 1],
    and its last ring gives h itself."""

    def __init__(self, tree, h, widths):
        self.tree, self.h, self.widths = tree, h, widths

    def _h_bracket(self, g, rings):
        if rings > len(self.widths[g]):
            return self.h[g], self.h[g], True
        w = self.widths[g][rings - 1]
        return self.h[g] * (1.0 - w), self.h[g] * (1.0 + w), False


@pytest.mark.parametrize("branchings", [(2, 2, 2, 2), (3, 1, 2, 3), (1, 4, 1, 2), (4, 4, 4)])
def test_bracketed_cover_takes_the_full_dp_decisions(branchings):
    # h near the children's cost sums, so that many comparisons are close, and
    # brackets of every width: the DP on the pass's arrays gives the bits of
    # the DP on h itself
    tree = _mixed_tree(branchings)
    rng = np.random.default_rng(len(branchings) + sum(branchings))
    for trial in range(200):
        h = [None] * (tree.depth + 1)
        h[-1] = rng.uniform(1.0, 2.0, tree.node_counts[-1])
        cost = h[-1]
        for g in range(tree.depth - 1, -1, -1):
            child = cost.reshape(-1, tree.branching(g + 1)).sum(axis=1)
            h[g] = child * np.exp(rng.normal(0.0, rng.choice([1e-1, 1e-3, 1e-6]), len(child)))
            cost = np.minimum(h[g], child)
        widths = [sorted(rng.choice([0.5, 1e-2, 1e-4, 1e-7, 0.0], rng.integers(0, 4)))[::-1]
                  for _ in range(tree.depth + 1)]
        got = gauges._content_dp(tree, gauges._cover_h(_BracketGauge(tree, h, widths)))
        want = gauges._content_dp(tree, h)
        assert (got[0][0][0].hex(), got[1]) == (want[0][0][0].hex(), want[1])


@pytest.mark.parametrize("K,a,kind,depth", [(1.1, 0.1, SOURCE, 7), (1.5, 0.1, SOURCE, 7),
                                            (1.5, 0.1, SOURCE, 8), (1.1, 1.0, TARGET, 7)])
def test_content_adds_rings_where_ring_0_does_not_decide(K, a, kind, depth):
    # near-conformal trees, where the smoothed DP's margins are about 1 + 1e-4:
    # a generation above the cover takes rings past ring 0 before every
    # comparison is settled, and the content keeps the reference bits
    real = _content_against_the_reference(_harmonic_config(K, depth), 1, kind, a)
    fills = real._fills[(kind, a)]
    assert any(fill.added > 1 for fill in fills[:depth - 1])
    assert any(fill.added < fill.size for fill in fills)


def test_content_fills_ring_0_and_the_cover_generation():
    # the depth-6 source content of the benchmark: every comparison is
    # settled by ring 0, and only the cover's generation 5 takes its rings,
    # 34,816 of the fill's 61,420 kernel evaluations
    tree = build_tree(harmonic_schedule(2.0, 6), 6, seed=0)
    real = tree.realize(seed=0)
    res = content_Mh_tree(TreeSmoothedDensityGauge(real, 0.1, side=SOURCE))
    assert res.cover_size == tree.node_counts[5]
    added = [fill.added for fill in real._fills[(SOURCE, 0.1)]]
    plans = real.eps_rings(SOURCE, 0.1)
    assert added == [1, 1, 1, 1, 1, 1 + len(plans[5].levels), 1]
    assert sum(plan.evaluations for plan in plans) == 61_420
    assert 7 * real.n_atoms + plans[5].evaluations - real.n_atoms == 34_816


# -- Frostman flow -------------------------------------------------------------


def test_frostman_equals_content_on_random_gauges():
    tree = build_tree(harmonic_schedule(2.0, 3, branching=2), 3)
    real = tree.realize()
    rng = np.random.default_rng(77)
    for trial in range(20):
        table = _random_integer_gauge(tree, rng)
        fr = frostman_tree(support.TableGauge(tree, table))
        # max flow = min cut: the flow value is the DP value bitwise, the
        # leaf split re-sums to it and respects every node's capacity
        assert fr.value == content_Mh_tree(support.TableGauge(tree, table)).value
        assert fr.leaf_weights.sum() == pytest.approx(fr.value, rel=1e-12)
        for path, h in table.items():
            lo, hi = support.leaf_range(real.tree, path)
            assert fr.leaf_weights[lo:hi].sum() <= h * (1 + 1e-12)


def test_frostman_feasibility():
    tree = build_tree(harmonic_schedule(2.0, 3), 3, seed=2)
    tree.realize(seed=2)
    real = tree.realize(seed=2)
    gauge = TreeSmoothedDensityGauge(real, 0.1, side=SOURCE)
    fr = frostman_tree(gauge)
    w = fr.leaf_weights
    for g in range(4):
        for path in support.paths_at(tree, g):
            lo, hi = support.leaf_range(real.tree, path)
            assert np.sum(w[lo:hi]) <= gauge.h_node(path) * (1 + 1e-9)


def test_frostman_mass_gauge_proportional():
    tree = build_tree(harmonic_schedule(2.0, 2), 2)
    table = {path: math.exp(tree.log_mass(g))
             for g in range(3) for path in support.paths_at(tree, g)}
    fr = frostman_tree(support.TableGauge(tree, table))
    assert fr.value == pytest.approx(math.exp(tree.log_total_mass()), rel=1e-12)
    leaf_mass = math.exp(tree.log_mass(2))
    np.testing.assert_allclose(fr.leaf_weights, leaf_mass, rtol=1e-12, atol=0.0)


# -- distorted gauge -----------------------------------------------------------


def test_distorted_gauge_k1_reduces_to_smoothed():
    tree = build_tree(harmonic_schedule(1.0, 2), 2, seed=3)
    real = tree.realize(seed=3)
    dist = DistortedTreeGauge(real, a=0.2)
    plain = TreeSmoothedDensityGauge(real, 0.2, side=SOURCE)
    assert dist.gamma == pytest.approx(1.0)
    for path in [(), (0,), (0, 1)]:
        # K = 1: exponent collapses and source radii equal target radii
        node = tree.node_index(path)
        assert dist._eps_power(len(path))[node] == pytest.approx(
            plain._eps_power(len(path))[node], rel=1e-12)
        assert dist.h_node(path) == pytest.approx(plain.h_node(path), rel=1e-12)


def test_distorted_gauge_is_the_smoothed_body_with_k_exponents():
    # one node-gauge body: the subclass supplies data only, plus the per-class
    # h_node entry that bench/tracer.py patches
    body = ("_eps_power", "h_values", "far_field_bound")
    assert not set(body) & set(vars(DistortedTreeGauge))
    assert vars(DistortedTreeGauge)["h_node"] is vars(TreeSmoothedDensityGauge)["h_node"]
    tree = build_tree(harmonic_schedule(1.0, 3), 3, seed=3)
    real = tree.realize(seed=3)
    dist = DistortedTreeGauge(real, a=0.2)
    plain = TreeSmoothedDensityGauge(real, 0.2, side=SOURCE)
    # K = 1: both exponents are 1 and source radii equal target radii, bit for bit
    assert (dist.gamma, dist.exponent, dist.side) == (1.0, 1.0, TARGET)
    for h_dist, h_plain in zip(dist.h_values(), plain.h_values()):
        assert np.array_equal(h_dist, h_plain)
    assert dist.far_field_bound() == plain.far_field_bound()


def test_distorted_gauge_root_ball_closed_form(real_k2_d3):
    real = real_k2_d3
    K = real.tree.K
    dist = DistortedTreeGauge(real, a=0.3)
    eps0 = real.node_eps(SOURCE, (), 0.3)
    assert dist._eps_power(0)[0] == pytest.approx(eps0 ** (2 * K / (K + 1)), rel=1e-12)
    assert dist.h_node(()) == pytest.approx(dist._eps_power(0)[0], rel=1e-12)  # t = 1


def test_main_lemma_ratio_stable_small_depths():
    K, a = 2.0, 0.1
    schedules = harmonic_schedule(K, 5)
    ratios = []
    for depth in range(2, 6):
        tree = build_tree(schedules, depth, seed=5)
        real = tree.realize(seed=5)
        h0 = TreeSmoothedDensityGauge(real, a, side=SOURCE)
        m_src = content_Mh_tree(h0).value
        m_tgt = content_Mh_tree(DistortedTreeGauge(real, a)).value
        ratios.append(m_src / m_tgt ** ((K + 1.0) / (2.0 * K)))
    assert min(ratios) >= 0.1 * max(ratios)


def test_source_eps_filled_once_across_gauges():
    # every ring of the source fill is evaluated once, whichever gauge asks first
    tree = build_tree(harmonic_schedule(2.0, 3), 3, seed=6)
    real = tree.realize(seed=6)
    rings = []
    add_ring = real._add_ring

    def counting(side, a, g, fill):
        rings.append((side, float(a), g, fill.added))
        return add_ring(side, a, g, fill)

    real._add_ring = counting
    smoothed = TreeSmoothedDensityGauge(real, 0.1, side=SOURCE)
    distorted = DistortedTreeGauge(real, 0.1)
    content_Mh_tree(smoothed)
    frostman_tree(smoothed)  # reads every generation in full
    content_Mh_tree(distorted)
    distorted.h_node((1, 2))
    assert len(rings) == len(set(rings))
    assert len(rings) == sum(1 + len(plan.levels) for plan in real.eps_rings(SOURCE, 0.1))
    assert list(real._fills) == list(real._plans) == [(SOURCE, 0.1)]


def test_tree_gauges_h_node_indexes_h_values(real_k2_d3):
    tree = real_k2_d3.tree
    for gauge in (TreeSmoothedDensityGauge(real_k2_d3, 0.1, side=TARGET),
                  DistortedTreeGauge(real_k2_d3, 0.1)):
        h = gauge.h_values()
        for path in [(), (2,), (3, 1), (0, 3, 2)]:
            assert gauge.h_node(path) == h[len(path)][tree.node_index(path)]


def test_far_field_bound_recorded_on_results(tree_k2_d3, real_k2_d3):
    smoothed = TreeSmoothedDensityGauge(real_k2_d3, 0.1, side=SOURCE)
    res = content_Mh_tree(smoothed)
    bounds = [plan.bound for plan in real_k2_d3.eps_rings(SOURCE, 0.1)]
    assert 0.0 < res.far_field_bound == max(bounds) <= 2.0 ** -53
    fr = frostman_tree(smoothed)
    assert fr.far_field_bound == res.far_field_bound
    distorted = DistortedTreeGauge(real_k2_d3, 0.1)
    res_t = content_Mh_tree(distorted)
    assert res_t.far_field_bound == pytest.approx(distorted.exponent * max(bounds), rel=1e-15)
    table = {path: 1.0 for g in range(4) for path in support.paths_at(tree_k2_d3, g)}
    assert content_Mh_tree(support.TableGauge(tree_k2_d3, table)).far_field_bound == 0.0


# -- generation cover sums ----------------------------------------------------


def test_generation_sum_unit_gauge_closed_form():
    for K in (1.0, 2.0, 3.5):
        tree = build_tree(harmonic_schedule(K, 8), 8)
        for n in (1, 4, 8):
            got = generation_cover_sum(tree, lambda log_r: 1.0, n)
            assert got == pytest.approx((n + 1) ** (2 * K / (K + 1)), rel=1e-13)


def test_generation_sum_exact_branch_follows_gamma_not_constructor():
    # the sum is telescoped symbolically; a log-space formula would cancel
    # log radii of size e^20 here
    K = 2.0
    tree = build_tree(doubly_exponential_schedule(K, 20), 20)
    for n in (5, 12, 20):
        got = generation_cover_sum(tree, lambda lr: 1.0, n)
        assert got == pytest.approx((n + 1) ** (2 * K / (K + 1)), rel=1e-12)


def test_generation_sum_k1_is_linear():
    tree = build_tree(harmonic_schedule(1.0, 6), 6)
    for n in (2, 5):
        assert generation_cover_sum(tree, lambda log_r: 1.0, n) == pytest.approx(
            n + 1.0, rel=1e-13)
