import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcantor import measure as measure_mod
from qcantor.cantor import SOURCE, TARGET, ConfigError, ConstructionError, \
    build_tree, harmonic_schedule, schedules_from_config, sharpness_exponent, \
    sharpness_schedule, shrunk_schedule
from qcantor.capacity import (DEFINITION, FARFIELD_FACTOR, MAX_CELLS, WOLFF_SUP,
                              CapacityEstimate, CapacityIndices, direct_capacity_lower,
                              distorted_index_map, distortion_indices, melnikov_gamma_lower,
                              tree_wolff_capacity, wolff_capacity_lower)
from qcantor.experiments import (TARGET_INDICES, _wolff_sums, gauge_criterion_experiment,
                                 verify_riesz_distortion)
from qcantor.measure import EXPANSION_BUDGET, PlanarMeasure
from qcantor.potentials import (IndexDomainError, default_dyadic_range, menger_curvature,
                                standard_query_points, wolff_dyadic, wolff_tree)

import support


# -- index algebra ------------------------------------------------------------


def test_distortion_indices_k1():
    idx = distortion_indices(1.0)
    assert idx.alpha == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert idx.p == pytest.approx(1.5, rel=1e-15)
    assert idx.homogeneity == pytest.approx(1.0, abs=1e-15)


def test_distortion_indices_k2():
    idx = distortion_indices(2.0)
    assert idx.alpha == pytest.approx(0.8, rel=1e-15)
    assert idx.p == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert idx.homogeneity == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_distortion_outer_exponent():
    # p' - 1 = (K+1)/K for every K
    for K in np.linspace(1.0, 9.0, 17):
        idx = distortion_indices(K)
        assert idx.conjugate_minus_one == pytest.approx((K + 1.0) / K, rel=1e-13)


def test_distortion_requires_k_at_least_one():
    with pytest.raises(ConstructionError):
        distortion_indices(0.5)


@pytest.mark.parametrize("K", [0.5, math.inf, math.nan])
@pytest.mark.parametrize("entry", [
    lambda K: harmonic_schedule(K, 0), lambda K: sharpness_exponent(K, 3.0),
    lambda K: shrunk_schedule(K, 0, lambda n: 0.0), distortion_indices,
    lambda K: distorted_index_map(0.5, 2.0, K), gauge_criterion_experiment],
    ids=["harmonic", "sharpness", "shrunk", "distortion", "index_map", "criterion"])
def test_every_distortion_entry_point_gives_one_message(entry, K):
    with pytest.raises(ConstructionError) as info:
        entry(K)
    assert str(info.value) == f"distortion K must be >= 1, got {K} (K must also be finite)"


def test_index_map_identity_on_grid():
    worst = 0.0
    for K in np.linspace(1.0, 6.0, 10):
        for p in np.linspace(1.1, 3.0, 10):
            for alpha in np.linspace(0.05, 1.9 / p, 10):
                di = distorted_index_map(alpha, p, K)
                worst = max(worst, abs(2.0 - di.beta * di.q - di.t_prime))
                assert di.image.p > 1.0 and 0.0 < di.beta * di.q < 2.0
    assert worst <= 1e-12


def test_index_map_alpha_equals_one_over_p():
    for K in (1.0, 1.7, 3.0):
        for p in (1.3, 2.0, 2.8):
            di = distorted_index_map(1.0 / p, p, K)
            assert di.t == pytest.approx(1.0, abs=1e-15)
            assert di.beta == pytest.approx(2 * K / (2 * K * p - K + 1), rel=1e-13)
            assert di.q == pytest.approx((2 * K * p - K + 1) / (K + 1), rel=1e-13)
            assert di.t_prime == pytest.approx(2.0 / (K + 1.0), rel=1e-13)


def test_index_map_k1_identity_on_t1_line():
    # at K = 1 the map preserves homogeneity; on alpha = 1/p it is the identity
    for p in (1.4, 2.0, 2.6):
        di = distorted_index_map(1.0 / p, p, 1.0)
        assert di.beta == pytest.approx(1.0 / p, rel=1e-13)
        assert di.q == pytest.approx(p, rel=1e-13)
    di = distorted_index_map(0.3, 2.0, 1.0)
    assert di.t_prime == pytest.approx(di.t, rel=1e-13)


def test_distortion_indices_match_map_at_p32():
    for K in (1.0, 2.0, 4.5):
        di = distorted_index_map(2.0 / 3.0, 1.5, K)
        idx = distortion_indices(K)
        assert di.beta == pytest.approx(idx.alpha, rel=1e-13)
        assert di.q == pytest.approx(idx.p, rel=1e-13)


# -- wolff estimator ----------------------------------------------------------


def _benchmark_tree():
    """The tree of the flat-estimators clouds: depth 3, K = 2, seed 0."""
    return build_tree(harmonic_schedule(2.0, 3), 3, seed=0)


@pytest.mark.parametrize("spl", [1, 64])
def test_oracle_sup_is_the_largest_pointwise_wolff_total(spl):
    tree = _benchmark_tree()
    real = tree.realize(samples_per_leaf=spl)
    mu = real.measure(TARGET)
    points, _ = standard_query_points(real, TARGET, seed=0)
    k_range = default_dyadic_range(tree, TARGET)
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    est = wolff_capacity_lower(mu, idx, query_points=points, k_range=k_range)
    assert est.normalization["sup"] == max(wolff_dyadic(mu, x, idx.alpha, idx.p, *k_range).total
                                           for x in points)


def test_tree_estimate_mass_scaling_invariance():
    tree = build_tree(harmonic_schedule(2.0, 6), 6)
    idx = distortion_indices(2.0)
    a = wolff_capacity_lower(tree, idx, side=SOURCE)
    b = wolff_capacity_lower(tree, idx, side=SOURCE, mass_convention="realized")
    # both conventions rescale out the potential sup; realized just carries a
    # different (tiny) mass and a different sup
    assert a.value > 0 and b.value > 0


@pytest.mark.parametrize("side", [SOURCE, TARGET])
def test_tree_series_prefixes_equal_each_prefix_own_series(side):
    # a sweep's sums and terms come from one profile of the deepest tree
    tree = build_tree(sharpness_schedule(2.0, 2.5, 12, branching=4), 12, seed=2)
    idx = distortion_indices(2.0)
    sums, terms = _wolff_sums(tree, side, idx)
    assert all(type(v) is float for v in sums + terms)  # no numpy scalar reaches a row
    for depth in (0, 1, 5, 11, 12):
        prefix = tree.prefix(depth)
        own = wolff_tree(prefix, side, idx.alpha, idx.p)
        assert sums[depth] == own.total
        assert terms[:depth] == own.contributions.tolist()
        est = wolff_capacity_lower(prefix, idx, side=side)
        assert tree_wolff_capacity(sums[depth], depth, side, idx, tree.scale) == (
            est.normalization["sup"], est.value)
        # a realized estimate reads its own prefix's realized series
        realized = wolff_capacity_lower(prefix, idx, side=side, mass_convention="realized")
        if depth:
            assert realized.normalization["sup"] == wolff_tree(prefix, side, idx.alpha, idx.p,
                                                               "realized").total


@pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
def test_harmonic_series_totals_are_zeta_partial_sums(K):
    # thm1's two series on a harmonic tree: the target at (2/3, 3/2) and the
    # source at the distortion indices both have the terms (n+1)^-2
    depth = 10_000
    tree = build_tree(harmonic_schedule(K, depth), depth)
    want = np.array(support.zeta_partial_sums(2.0, depth)[1:])
    for side, idx in ((TARGET, TARGET_INDICES), (SOURCE, distortion_indices(K))):
        got = np.array(_wolff_sums(tree, side, idx)[0][1:])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13, side


def test_tree_series_refuses_exactly_the_depths_past_the_doubles():
    # the third source term at (1.3, 1.01) is exp(851): the series of the depth-1 and
    # depth-2 prefixes keep their values, and every deeper one refuses with its message
    tree = build_tree(harmonic_schedule(3.0, 4), 4)
    idx = CapacityIndices(1.3, 1.01)
    for depth in (1, 2):
        prefix = tree.prefix(depth)
        sums = _wolff_sums(prefix, SOURCE, idx)[0]
        assert sums[depth] == wolff_tree(prefix, SOURCE, 1.3, 1.01).total
        est = wolff_capacity_lower(prefix, idx, side=SOURCE)
        assert tree_wolff_capacity(sums[depth], depth, SOURCE, idx, tree.scale) == (
            est.normalization["sup"], est.value)
    for depth in (3, 4):
        with pytest.raises(IndexDomainError) as refused:
            _wolff_sums(tree.prefix(depth), SOURCE, idx)
        assert "at generation 3 (log term 851" in str(refused.value)


def _outcome(read):
    """read()'s value, or the type and text of what it raised."""
    try:
        return read()
    except (IndexDomainError, ConstructionError) as exc:
        return type(exc), str(exc)


_SERIES_TREES = {"harmonic": lambda K, depth: harmonic_schedule(K, depth),
                 "sharpness": lambda K, depth: sharpness_schedule(K, (3 * K + 1) / (K + 1), depth)}


@pytest.mark.parametrize("kind", sorted(_SERIES_TREES))
@pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
def test_realized_series_equal_each_prefix_to_depth_2000(K, kind):
    # a realized estimate is its prefix's own realized series: the same sup, the
    # value mass * sup^(-1/(p'-1)), and the same refusal where a term leaves the doubles
    tree = build_tree(_SERIES_TREES[kind](K, 2000), 2000)
    depths = [*range(1, 100, 6), *range(100, 2000, 97), 1999, 2000]  # capacities to ~90
    for side in (SOURCE, TARGET):
        for idx in (distortion_indices(K), CapacityIndices(2.0 / 3.0, 1.5)):
            for depth in depths:
                prefix = tree.prefix(depth)
                own = _outcome(lambda: wolff_tree(prefix, side, idx.alpha, idx.p, "realized"))
                est = _outcome(lambda: wolff_capacity_lower(prefix, idx, side=side,
                                                            mass_convention="realized"))
                if isinstance(own, tuple):  # refused: the estimate names the same generation
                    assert est == own
                    continue
                if isinstance(est, tuple):  # the capacity itself leaves the doubles
                    assert f"leaves double precision (Wolff sup {own.total:.6g}, " in est[1]
                    continue
                mass = math.exp(prefix.log_total_mass("realized"))
                assert est.normalization["sup"] == own.total
                assert est.value == mass * own.total ** (-1.0 / idx.conjugate_minus_one)
                assert est.normalization.get("divergence_rate") == own.divergence_rate


@pytest.mark.parametrize("kind", sorted(_SERIES_TREES))
def test_ideal_series_bit_for_bit_below_a_refused_generation(kind):
    # the source log term at (1.3, 1.01) passes 709 at generation 3, at (1.2, 1.05) at 9
    # a sweep over the depths below it reads them all from its deepest prefix, bit for bit
    tree = build_tree(_SERIES_TREES[kind](3.0, 12), 12)
    for idx, refused in ((CapacityIndices(1.3, 1.01), 3), (CapacityIndices(1.2, 1.05), 9)):
        sums, terms = _wolff_sums(tree.prefix(refused - 1), SOURCE, idx)
        for depth in range(13):
            prefix = tree.prefix(depth)
            own = _outcome(lambda: wolff_tree(prefix, SOURCE, idx.alpha, idx.p))
            est = _outcome(lambda: wolff_capacity_lower(prefix, idx, side=SOURCE))
            if depth >= refused:
                assert f"at generation {refused} " in own[1]
                assert est == own == _outcome(lambda: _wolff_sums(prefix, SOURCE, idx))
                continue
            assert sums[depth] == own.total
            assert terms[:depth] == own.contributions.tolist()
            assert tree_wolff_capacity(sums[depth], depth, SOURCE, idx, tree.scale) == (
                est.normalization["sup"], est.value)


def test_realized_refusals_name_each_depth_own_generation():
    # realized log terms shrink with the depth, so each depth refuses at its own
    # generation, with the message of its prefix's own series
    tree = build_tree(harmonic_schedule(3.0, 8), 8)
    idx = CapacityIndices(1.3, 1.01)
    named = []
    for depth in range(1, 9):
        prefix = tree.prefix(depth)
        own = _outcome(lambda: wolff_tree(prefix, SOURCE, 1.3, 1.01, "realized"))
        est = _outcome(lambda: wolff_capacity_lower(prefix, idx, side=SOURCE,
                                                    mass_convention="realized"))
        if depth < 3:
            assert est.normalization["sup"] == own.total
            continue
        assert est == own
        named.append(int(own[1].split("at generation ")[1].split()[0]))
    assert named == [3, 4, 5, 6, 6, 7]


def test_realized_total_next_to_the_limit_is_read_not_refused():
    # scaled so the one realized depth-1 term is exp(708.5), just below LOG_TERM_MAX
    idx = CapacityIndices(2.0 / 3.0, 1.5)  # 2 - alpha*p = 1, p' - 1 = 2
    tree = build_tree(harmonic_schedule(2.0, 3), 3, scale=math.exp(-354.25 - math.log(2.0)))
    own = wolff_tree(tree.prefix(1), TARGET, idx.alpha, idx.p, "realized")
    assert own.log_terms == pytest.approx((708.5,), abs=1e-9)
    est = wolff_capacity_lower(tree.prefix(1), idx, side=TARGET, mass_convention="realized")
    assert est.normalization["sup"] == own.total == math.exp(own.log_terms[0])
    assert est.value > 0.0


def test_depth_10000_estimate_forms_no_node_counts():
    tree = build_tree(harmonic_schedule(2.0, 10_000), 10_000)
    est = wolff_capacity_lower(tree, distortion_indices(2.0), side=TARGET)
    assert "node_counts" not in vars(tree)
    assert est.normalization["log_ideal_total"] == (float(tree.log_node_counts[-1])
                                                    + tree.log_mass(10_000, "ideal"))


def test_index_map_refuses_indices_it_sends_past_the_doubles():
    # at p = 1e308 the map's numerator overflows: beta = 0 and q = inf, caused by p
    with pytest.raises(IndexDomainError) as info:
        distorted_index_map(1e-308, 1e308, 2.0)
    message = str(info.value)
    assert message.startswith("alpha = 1e-308, p = 1e+308 map to beta = 0.0, q = inf")
    assert "K" not in message
    with pytest.raises(ConfigError, match=r"^thm2a: p = 1e\+308: alpha = 1e-308, p = 1e\+308 "):
        verify_riesz_distortion(2.0, p=1e308)


def test_normalized_measure_estimate_returns_mass():
    # rescale so the potential sup is exactly 1: the estimate is the mass
    mu = support.uniform_disk(200, seed=1)
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    pts = mu.points[::25]
    first = wolff_capacity_lower(mu, idx, query_points=pts, k_range=(-12, 3))
    c = first.normalization["sup"] ** (-1.0 / idx.conjugate_minus_one)
    normalized = PlanarMeasure(mu.points, mu.weights * c)
    est = wolff_capacity_lower(normalized, idx, query_points=pts, k_range=(-12, 3))
    assert est.normalization["sup"] == pytest.approx(1.0, rel=1e-12)
    assert est.value == pytest.approx(normalized.total_mass, rel=1e-12)


def test_measure_estimate_mass_scaling_invariance():
    mu = support.uniform_disk(300, seed=2)
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    pts = mu.points[::30]
    a = wolff_capacity_lower(mu, idx, query_points=pts, k_range=(-12, 3))
    b = wolff_capacity_lower(PlanarMeasure(mu.points, mu.weights * 7.3), idx,
                             query_points=pts, k_range=(-12, 3))
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_tree_estimate_records_normalization():
    tree = build_tree(harmonic_schedule(2.0, 4), 4)
    est = wolff_capacity_lower(tree, distortion_indices(2.0), side=SOURCE)
    assert est.convention == WOLFF_SUP
    assert est.normalization["sup"] > 0
    assert "tree_paths" in est.normalization["query_set"]
    # the ideal mass defect log prod_{k <= N} M_k R_k^2: the ideal masses of
    # generation 4 sum to about e^-34.5, while the estimate takes mass 1
    defect = est.normalization["log_ideal_total"]
    assert defect == math.log(tree.n_nodes(4)) + tree.log_mass(4, "ideal")
    assert defect == pytest.approx(-34.5, abs=0.05)
    assert est.normalization["mass"] == 1.0


def test_finite_tree_capacity_is_finite_where_the_limit_diverges():
    # depth 12: the divergence diagnosis fires on the realized masses, but the
    # finite tree's Wolff sup (about 0.0059) gives a positive capacity
    tree = build_tree(harmonic_schedule(2.0, 12), 12)
    idx = distortion_indices(2.0)
    est = wolff_capacity_lower(tree, idx, side=SOURCE, mass_convention="realized")
    record = est.normalization
    assert record["divergence_rate"] > 0.0
    assert record["sup"] == pytest.approx(0.0059, rel=0.01)
    assert est.value > 0.0
    assert est.value == record["mass"] * record["sup"] ** (-1.0 / idx.conjugate_minus_one)


def test_depth_zero_tree_estimate_finite():
    tree = build_tree(harmonic_schedule(2.0, 4), 0)
    est = wolff_capacity_lower(tree, distortion_indices(2.0), side=SOURCE)
    assert est.value > 0 and math.isfinite(est.value)


def test_depth_zero_root_ball_past_the_doubles_is_refused():
    # at scale e^-400 the root term at (2/3, 3/2) is e^800: refused, not an OverflowError
    tree = build_tree(harmonic_schedule(2.0, 4), 0, scale=math.exp(-400.0))
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    want = (f"the Wolff capacity at alpha = 0.666667, p = 1.5 on the {TARGET} side at depth 0 "
            "leaves double precision (Wolff sup inf, capacity 0)")
    for read in (lambda: wolff_capacity_lower(tree, idx, side=TARGET),
                 lambda: tree_wolff_capacity(0.0, 0, TARGET, idx, tree.scale)):
        with pytest.raises(IndexDomainError) as info:
            read()
        assert str(info.value) == want


@pytest.mark.parametrize("schedules,depth,indices,side,why", [
    # (1e-5, 1e5) on the target: mass * sup^(-(p-1)) underflows to 0
    (harmonic_schedule(2.0, 2), 2, CapacityIndices(1e-5, 1e5), TARGET, "capacity 0"),
    # d_1 = 2^749 on the sharpness schedule at q = 1000: the sup underflows to 0
    (sharpness_schedule(2.0, 1000.0, 8), 8, distortion_indices(2.0), SOURCE, "Wolff sup 0"),
    # K = 20, (0.1, 4) and (0.1, 9.5): subnormal capacities, written with 8 and 5
    # digits that the doubles do not hold
    (harmonic_schedule(20.0, 5), 5, CapacityIndices(0.1, 4.0), SOURCE,
     r"capacity 2\.04767e-316\)"),
    (harmonic_schedule(20.0, 8), 8, CapacityIndices(0.1, 9.5), SOURCE,
     r"capacity 1\.27765e-320\)"),
], ids=["capacity-underflow", "sup-underflow", "subnormal-capacity-d5", "subnormal-capacity-d8"])
def test_tree_estimate_refuses_capacity_outside_the_doubles(schedules, depth, indices,
                                                            side, why):
    tree = build_tree(schedules, depth)
    with pytest.raises(IndexDomainError, match=f"leaves double precision.*{why}"):
        wolff_capacity_lower(tree, indices, side=side)


@pytest.mark.parametrize("weight,indices,k_min,why", [
    # (1e-160)^(p'-1) with p' - 1 = 100: every dyadic term underflows to 0
    (1e-160, CapacityIndices(0.5, 1.01), -4, "Wolff sup 0"),
    # p' - 1 = 1000: the unit atom at the query point overflows the terms
    (1.0, CapacityIndices(0.5, 1.001), -8, "Wolff sup inf"),
    # p' - 1 = 10: a subnormal sup, whose few digits gave a normal-looking capacity
    (1e-33, CapacityIndices(0.5, 1.1), -4, r"Wolff sup 3\.40648e-313"),
], ids=["sup-underflow", "sup-overflow", "sup-subnormal"])
def test_cloud_estimate_refuses_capacity_outside_the_doubles(weight, indices, k_min, why):
    mu = PlanarMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.full(2, weight), label="pair")
    with pytest.raises(IndexDomainError, match=rf"alpha = 0.5, p = {indices.p:.6g} on the "
                                               rf"2-atom measure 'pair' leaves double "
                                               rf"precision \({why}"):
        wolff_capacity_lower(mu, indices, query_points=[(0.0, 0.0), (0.5, 0.0)],
                             k_range=(k_min, 2))


def test_sharpness_capacity_decays_to_zero():
    K, q = 2.0, 7.0 / 3.0
    beta = 2 * K / ((K + 1) * q)
    idx = CapacityIndices(beta, q)
    values = []
    schedules = sharpness_schedule(K, q, 64)
    for depth in (8, 16, 32, 64):
        tree = build_tree(schedules, depth)
        values.append(wolff_capacity_lower(tree, idx, side=SOURCE).value)
    assert all(b < a for a, b in zip(values, values[1:]))
    # value = (sum 1/(n+1))^{-1/(q'-1)}: fitted exponent vs log log N
    x = [math.log(math.log(d)) for d in (8, 16, 32, 64)]
    slope = np.polyfit(x, np.log(values), 1)[0]
    assert slope == pytest.approx(-(q - 1.0), rel=0.12)


def test_monotone_under_separated_union():
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    mu = support.uniform_disk(200, seed=3)
    far = mu.points + (10.0, 0.0)
    both = PlanarMeasure(np.vstack([mu.points, far]), np.tile(mu.weights, 2))
    pts = np.vstack([mu.points[::20], far[::20]])
    a = wolff_capacity_lower(mu, idx, query_points=pts, k_range=(-12, 5))
    b = wolff_capacity_lower(both, idx, query_points=pts, k_range=(-12, 5))
    assert b.value >= a.value * (1 - 1e-12)


# -- quadrature estimator -----------------------------------------------------


def test_direct_zero_measure():
    mu = PlanarMeasure(np.zeros((3, 2)), np.zeros(3))
    est = direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5))
    assert est.value == 0.0


@pytest.mark.parametrize("cells", [0, -4])
@pytest.mark.parametrize("mass", [1.0, 0.0])
def test_direct_refuses_nonpositive_cells(cells, mass):
    # an empty grid would leave the far-field tail alone as the value
    mu = support.uniform_disk(200, seed=1)
    mu = PlanarMeasure(mu.points, mu.weights * mass)
    with pytest.raises(ConfigError, match="cells"):
        direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5), cells=cells)


def test_direct_homogeneity_within_tolerance():
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    mu = support.uniform_disk(800, seed=4)
    base = direct_capacity_lower(mu, idx, cells=64)
    for lam in (0.25, 0.5, 2.0):
        scaled = direct_capacity_lower(PlanarMeasure(mu.points * lam, mu.weights), idx,
                                       cells=64)
        expected = base.value * lam ** idx.homogeneity
        assert scaled.value == pytest.approx(expected, rel=0.01)


def test_direct_vs_wolff_on_resolvable_measures():
    # grid-resolvable supports: the two lower estimators stay within a fixed
    # recorded factor of each other (atomic multi-scale clouds are out of any
    # feasible grid's reach; see the uniform-disk and segment cases)
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    records = []
    for mu, k_range in [(support.uniform_disk(2000, seed=5), (-12, 4)),
                        (support.uniform_segment(2000), (-14, 3))]:
        direct = direct_capacity_lower(mu, idx, cells=96)
        wolff = wolff_capacity_lower(mu, idx, query_points=mu.points[::100],
                                     k_range=k_range)
        assert direct.convention == DEFINITION
        records.append(direct.wolff_scale() / wolff.value)
    assert all(1.0 / 50.0 <= r <= 50.0 for r in records)


def test_direct_farfield_tail_closed_form():
    # the analytic tail int_{|x|>R} (m/(|x|-D))^((2-alpha)p') dx against a
    # dense radial quadrature oracle
    alpha, p = 2.0 / 3.0, 1.5
    p_prime = p / (p - 1.0)
    a = (2.0 - alpha) * p_prime
    m, diam = 0.7, 1.3
    r_far = 4.0 * diam
    u = r_far - diam
    closed = 2.0 * math.pi * m ** p_prime * (u ** (2.0 - a) / (a - 2.0)
                                             + diam * u ** (1.0 - a) / (a - 1.0))
    r = np.linspace(r_far, r_far + 4000.0, 2_000_001)
    numeric = np.trapezoid(m ** p_prime * (r - diam) ** (-a) * 2.0 * np.pi * r, r)
    assert closed == pytest.approx(float(numeric), rel=1e-5)


def test_direct_atom_in_cell_finite():
    mu = PlanarMeasure(np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([0.5, 0.5]))
    est = direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5), cells=32)
    assert math.isfinite(est.value) and est.value > 0


def _grid(measure, cells):
    diam = measure.diameter() or 1e-9
    center = measure.support_center()
    r_far = FARFIELD_FACTOR * diam
    h = 2.0 * r_far / cells
    ax = center[0] - r_far + h * (np.arange(cells) + 0.5)
    ay = center[1] - r_far + h * (np.arange(cells) + 0.5)
    return diam, center, r_far, h, ax, ay


def _lambda_blocked(measure, indices, cells):
    """Reference copy of the quadrature's first implementation: a fresh
    array per operation over blocks of 2^22 kernel evaluations."""
    alpha, p_prime = indices.alpha, indices.p_prime
    diam, center, r_far, h, ax, ay = _grid(measure, cells)
    gx, gy = np.meshgrid(ax, ay)
    cc = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cc = cc[np.hypot(cc[:, 0] - center[0], cc[:, 1] - center[1]) <= r_far]
    cap = 2.0 / alpha * (h / math.sqrt(math.pi)) ** (alpha - 2.0)
    live = measure.weights > 0
    pts, w = measure.points[live], measure.weights[live]
    vals = np.empty(cc.shape[0])
    step = max(1, (1 << 22) // max(1, pts.shape[0]))
    for i in range(0, cc.shape[0], step):
        d = np.hypot(cc[i:i + step, None, 0] - pts[None, :, 0],
                     cc[i:i + step, None, 1] - pts[None, :, 1])
        with np.errstate(divide="ignore"):
            kern = np.where(d > 0, d ** (alpha - 2.0), np.inf)
        vals[i:i + step] = np.sum(w[None, :] * np.minimum(kern, cap), axis=1)
    cell_sum = float(np.sum(vals ** p_prime)) * h * h
    a = (2.0 - alpha) * p_prime
    u = r_far - diam
    tail = 2.0 * math.pi * measure.total_mass ** p_prime * (
        u ** (2.0 - a) / (a - 2.0) + diam * u ** (1.0 - a) / (a - 1.0))
    return (cell_sum + tail) ** (1.0 / p_prime)


def _square_with_centre_atom(cells):
    """Corner atoms, one zero-weight atom, and an atom placed exactly on the
    cell centre nearest the middle (inside the square, so the grid is the
    same with or without it)."""
    corners = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    _, _, _, _, ax, ay = _grid(PlanarMeasure(corners, np.ones(4)), cells)
    x, y = ax[np.argmin(np.abs(ax))], ay[np.argmin(np.abs(ay))]
    assert abs(x) < 1.0 and abs(y) < 1.0
    pts = np.vstack([corners, [[0.3, -0.2], [x, y]]])
    return PlanarMeasure(pts, np.array([0.1, 0.2, 0.3, 0.15, 0.0, 0.25]))


@pytest.mark.parametrize("cells", [1, 16, 64])
@pytest.mark.parametrize("case", ["square", "single", "disk", "tree"])
def test_direct_lambda_equals_blocked_reference(cells, case):
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    if case == "square":
        mu = _square_with_centre_atom(cells)
    elif case == "single":
        # diameter 0: the nominal support still centres a cell on the atom
        mu = PlanarMeasure(np.array([[0.25, -3.0]]), np.array([2.0]))
    elif case == "disk":
        w = np.random.default_rng(3).uniform(size=700)
        w[::7] = 0.0
        mu = PlanarMeasure(support.uniform_disk(700, seed=3).points, w)
    else:
        tree = build_tree(harmonic_schedule(2.0, 3), 3, seed=5)
        mu = support.without_blocks(tree.realize(seed=5, samples_per_leaf=3).measure(SOURCE))
    est = direct_capacity_lower(mu, idx, cells=cells)
    assert est.normalization["lambda"] == _lambda_blocked(mu, idx, cells)


@pytest.mark.parametrize("cells", [MAX_CELLS + 1, 200_000])
def test_direct_refuses_oversized_grid_before_allocating(cells):
    mu = support.uniform_disk(200, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"--cells {cells}: at most {MAX_CELLS}"):
            direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5), cells=cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- leaf centroid expansions -------------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
def test_leaf_expansions_match_flat_quadrature(K, depth):
    idx = distortion_indices(K)
    tree = build_tree(harmonic_schedule(K, depth), depth, seed=depth)
    for spl in (1, 4, 64):
        real = tree.realize(seed=depth, samples_per_leaf=spl)
        for side in (SOURCE, TARGET):
            mu = real.measure(side)
            for cells in (1, 16, 64):
                flat = direct_capacity_lower(support.without_blocks(mu), idx, cells=cells)
                est = direct_capacity_lower(mu, idx, cells=cells)
                if spl == 1:  # one atom per leaf: the flat route
                    assert est == flat
                    continue
                record = dict(est.normalization)
                assert 0.0 <= record.pop("expansion_bound") <= EXPANSION_BUDGET
                assert record == pytest.approx(flat.normalization, rel=1e-12, abs=0.0)
                assert est.value == pytest.approx(flat.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spl", [64, 128])
def test_benchmark_cells_take_generation_two(monkeypatch, spl):
    mu = _benchmark_tree().realize(samples_per_leaf=spl).measure(TARGET)
    served = {}
    block_sums = measure_mod._block_sums

    def spy(measure, blocks, centres, todo, *args, **kwargs):
        rest = block_sums(measure, blocks, centres, todo, *args, **kwargs)
        served[blocks.atoms // spl] = todo.size - rest.size  # leaves per block
        return rest

    monkeypatch.setattr(measure_mod, "_block_sums", spy)
    direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5), cells=64)
    assert sum(served.values()) == 3228
    assert served[4] >= 3220  # the 16 generation-2 blocks


def _corner_leaves_and_centre_leaf(cells):
    """Five leaves of three equal atoms within 1e-9 of each other: four
    reaching inwards from the corners of a square, which fix the grid, and
    one whose first atom sits exactly on the cell centre nearest the middle.
    Its remainder bound is tiny, so only the cap keeps it exact."""
    corners = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    _, _, _, _, ax, ay = _grid(PlanarMeasure(corners, np.ones(4)), cells)
    anchors = np.vstack([corners, [[ax[np.argmin(np.abs(ax))], ay[np.argmin(np.abs(ay))]]]])
    towards = np.vstack([-corners, [[1.0, 1.0]]])
    shape = np.array([[0.0, 0.0], [1e-9, 0.0], [0.0, 1e-9]])
    pts = (anchors[:, None] + shape * towards[:, None]).reshape(-1, 2)
    return PlanarMeasure(pts, np.repeat([0.1, 0.2, 0.3, 0.15, 0.25], 3) / 3.0)


def _with_blocks(mu, atoms):
    return PlanarMeasure(mu.points, mu.weights, blocks=(support.leaf_blocks(mu, atoms),))


@pytest.mark.parametrize("cells", [16, 64])
def test_leaf_expansions_cap_an_atom_on_a_cell_centre(cells):
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    mu = _corner_leaves_and_centre_leaf(cells)
    flat = direct_capacity_lower(mu, idx, cells=cells)
    assert math.isfinite(flat.value) and flat.value > 0
    # one atom per leaf takes the flat route: the same estimate, bit for bit
    assert direct_capacity_lower(_with_blocks(mu, 1), idx, cells=cells) == flat
    est = direct_capacity_lower(_with_blocks(mu, 3), idx, cells=cells)
    assert est.value == pytest.approx(flat.value, rel=1e-12, abs=0.0)
    assert est.normalization["lambda"] == pytest.approx(flat.normalization["lambda"],
                                                        rel=1e-12, abs=0.0)


def test_leaf_expansion_error_within_recorded_bound(monkeypatch):
    # at depth 1 no pair fits the default budget; a loose one expands pairs
    # whose remainder stands far above rounding
    idx = distortion_indices(2.0)
    real = build_tree(harmonic_schedule(2.0, 1), 1, seed=0).realize(seed=0, samples_per_leaf=64)
    mu = real.measure(TARGET)
    exact = direct_capacity_lower(support.without_blocks(mu), idx).normalization["lambda"]
    assert direct_capacity_lower(mu, idx).normalization["expansion_bound"] == 0.0
    monkeypatch.setattr(measure_mod, "EXPANSION_BUDGET", 2.0 ** -16)
    est = direct_capacity_lower(mu, idx)
    bound = est.normalization["expansion_bound"]
    assert 2.0 ** -30 < bound <= 2.0 ** -16
    assert abs(est.normalization["lambda"] - exact) <= (bound + 2.0 ** -52) * exact


def test_leaf_blocks_must_cover_the_measure():
    mu = support.uniform_disk(12, seed=2)
    with pytest.raises(ValueError, match="do not cover"):
        short = PlanarMeasure(mu.points[:9], mu.weights[:9])
        PlanarMeasure(mu.points, mu.weights, blocks=(support.leaf_blocks(short, 3),))
    with pytest.raises(ValueError, match="equal weights"):
        PlanarMeasure(mu.points, np.arange(1.0, 13.0), blocks=(support.leaf_blocks(mu, 3),))


# -- Melnikov gamma proxy -----------------------------------------------------


def test_melnikov_admissible_measure_returns_mass():
    mu = support.uniform_segment(100)
    est = melnikov_gamma_lower(mu.total_mass, 1.0, growth=1.0)
    assert est.value == pytest.approx(mu.total_mass, rel=1e-12)
    assert est.kind == "analytic_capacity"


def test_melnikov_mass_scaling_invariance():
    mu = support.uniform_segment(200)
    curv = menger_curvature(mu)  # zero for a line
    g = 1.4
    a = melnikov_gamma_lower(mu.total_mass, curv.sup_pointwise, growth=g)
    doubled = PlanarMeasure(mu.points, mu.weights * 2.0)
    curv2 = menger_curvature(doubled)
    b = melnikov_gamma_lower(doubled.total_mass, curv2.sup_pointwise, growth=2.0 * g)
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_melnikov_segment_value_one():
    mu = support.uniform_segment(1001)
    est = melnikov_gamma_lower(mu.total_mass, 0.0, growth=1.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_melnikov_curvature_binding():
    mu = support.uniform_disk(50, seed=6)
    est = melnikov_gamma_lower(mu.total_mass, 9.0, growth=0.1)
    # curvature bound 9 -> rescale 1/3 beats 1/growth = 10
    assert est.value == pytest.approx(mu.total_mass / 3.0, rel=1e-12)


def test_melnikov_rejects_bad_growth():
    mu = support.uniform_segment(10)
    with pytest.raises(ValueError, match="growth"):
        melnikov_gamma_lower(mu.total_mass, 0.0, growth=math.inf)


# -- homogeneity of the tree estimator ---------------------------------------


def test_tree_estimator_geometric_homogeneity_exact():
    idx = distortion_indices(2.0)
    tree = build_tree(harmonic_schedule(2.0, 5), 5)
    base = wolff_capacity_lower(tree, idx, side=SOURCE).value
    for lam in (0.25, 0.5, 2.0):
        scaled = wolff_capacity_lower(tree.scaled(lam), idx, side=SOURCE).value
        assert scaled == pytest.approx(base * lam ** idx.homogeneity, rel=1e-12)


_LAMBDA = st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                    st.sampled_from([0.25, 0.5, 2.0]))


@st.composite
def _random_trees(draw):
    """(schedules, depth) of a config with K in (1, 50], depth <= 6 and per level
    M <= 40 and d a number or harmonic; None where the config is refused."""
    depth = draw(st.integers(0, 6))
    cfg = {"K": draw(st.floats(1.0 + 1e-4, 50.0)), "depth": depth,
           "levels": [{"M": draw(st.integers(1, 40)),
                       "d": draw(st.one_of(st.floats(1.0, 5.0), st.just("harmonic")))}
                      for _ in range(depth)]}
    try:
        return schedules_from_config(cfg)[:2]
    except ConfigError:
        return None


#: (alpha, p) with 0 < alpha*p < 2
_INDICES = st.tuples(st.floats(1.001, 10.0), st.floats(0.005, 0.995)).map(
    lambda pu: CapacityIndices(2.0 * pu[1] / pu[0], pu[0]))
_TREE_CASE = dict(tree=_random_trees(), idx=_INDICES, side=st.sampled_from([SOURCE, TARGET]),
                  convention=st.sampled_from(["ideal", "realized"]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lam=_LAMBDA, **_TREE_CASE)
# a subnormal base capacity, 2.05e-316, carried too few digits for its normal scaled value
@example(lam=1e6, tree=(harmonic_schedule(20.0, 5), 5), idx=CapacityIndices(0.1, 4.0),
         side=SOURCE, convention="ideal")
def test_random_tree_capacity_scales_by_lambda_to_the_homogeneity(lam, tree, idx, side,
                                                                  convention):
    if tree is None:
        return
    tree = build_tree(*tree)
    base, scaled = (_outcome(lambda: wolff_capacity_lower(t, idx, side=side,
                                                          mass_convention=convention))
                    for t in (tree, tree.scaled(lam)))
    if isinstance(base, tuple) or isinstance(scaled, tuple):  # refused: nothing to compare
        return
    want = base.value * lam ** idx.homogeneity
    assert scaled.value == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)), **_TREE_CASE)
def test_random_tree_formulas_do_not_depend_on_the_seed(seeds, tree, idx, side, convention):
    if tree is None:
        return
    reads = []
    for seed in seeds:
        t = build_tree(*tree, seed=seed)
        reads.append([
            _outcome(lambda: wolff_tree(t, side, idx.alpha, idx.p, convention)),
            _outcome(lambda: wolff_capacity_lower(t, idx, side=side,
                                                  mass_convention=convention)),
            [t.log_radius(side, g) for g in range(t.depth + 1)],
            [t.log_mass(g, convention) for g in range(t.depth + 1)]])
    assert repr(reads[0]) == repr(reads[1])


def test_estimate_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CapacityEstimate(-1.0, WOLFF_SUP, None, {"sup": 1.0})
    for convention in (WOLFF_SUP, DEFINITION):
        with pytest.raises(ValueError, match="normalization"):
            CapacityEstimate(1.0, convention, None, {})


def test_wolff_scale_conversion():
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    est = CapacityEstimate(8.0, DEFINITION, idx, {"lambda": 1.0})
    assert est.wolff_scale() == pytest.approx(8.0 ** (1.0 / 1.5), rel=1e-12)
