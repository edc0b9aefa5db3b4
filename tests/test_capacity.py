import math
import tracemalloc

import numpy as np
import pytest

from qcantor import measure as measure_mod
from qcantor.cantor import SOURCE, TARGET, ConfigError, ConstructionError, build_tree, \
    harmonic_schedule, sharpness_exponent, sharpness_schedule, shrunk_schedule
from qcantor.capacity import (DEFINITION, FARFIELD_FACTOR, LOWER_BOUND, MAX_CELLS, WOLFF_SUP,
                              CapacityEstimate, CapacityIndices, direct_capacity_lower,
                              distorted_index_map, distortion_indices, melnikov_gamma_lower,
                              wolff_capacity_lower)
from qcantor.experiments import gauge_criterion_experiment
from qcantor.measure import EXPANSION_BUDGET, PlanarMeasure
from qcantor.potentials import IndexDomainError, menger_curvature

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


def test_tree_estimate_mass_scaling_invariance():
    tree = build_tree(harmonic_schedule(2.0, 6), 6)
    idx = distortion_indices(2.0)
    a = wolff_capacity_lower(tree, idx, side=SOURCE)
    b = wolff_capacity_lower(tree, idx, side=SOURCE, mass_convention="realized")
    # both conventions rescale out the potential sup; realized just carries a
    # different (tiny) mass and a different sup
    assert a.value > 0 and b.value > 0


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
    assert est.direction == LOWER_BOUND
    assert est.convention == WOLFF_SUP
    assert est.normalization["sup"] > 0
    assert "tree_paths" in est.normalization["query_set"]


def test_depth_zero_tree_estimate_finite():
    tree = build_tree(harmonic_schedule(2.0, 4), 0)
    est = wolff_capacity_lower(tree, distortion_indices(2.0), side=SOURCE)
    assert est.value > 0 and math.isfinite(est.value)


@pytest.mark.parametrize("schedules,depth,indices,side,why", [
    # (1e-5, 1e5) on the target: mass * sup^(-(p-1)) underflows to 0
    (harmonic_schedule(2.0, 2), 2, CapacityIndices(1e-5, 1e5), TARGET, "capacity 0"),
    # d_1 = 2^749 on the sharpness schedule at q = 1000: the sup underflows to 0
    (sharpness_schedule(2.0, 1000.0, 8), 8, distortion_indices(2.0), SOURCE, "Wolff sup 0"),
], ids=["capacity-underflow", "sup-underflow"])
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
], ids=["sup-underflow", "sup-overflow"])
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
    return PlanarMeasure(mu.points, mu.weights, blocks=support.leaf_blocks(mu, atoms))


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
        PlanarMeasure(mu.points, mu.weights,
                      blocks=support.leaf_blocks(PlanarMeasure(mu.points[:9], mu.weights[:9]), 3))
    with pytest.raises(ValueError, match="equal weights"):
        PlanarMeasure(mu.points, np.arange(1.0, 13.0), blocks=support.leaf_blocks(mu, 3))


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


def test_estimate_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        CapacityEstimate(-1.0, LOWER_BOUND, WOLFF_SUP, None, {"sup": 1.0})
    with pytest.raises(ValueError, match="normalization"):
        CapacityEstimate(1.0, LOWER_BOUND, WOLFF_SUP, None, {})


def test_wolff_scale_conversion():
    idx = CapacityIndices(2.0 / 3.0, 1.5)
    est = CapacityEstimate(8.0, LOWER_BOUND, DEFINITION, idx, {"lambda": 1.0})
    assert est.wolff_scale() == pytest.approx(8.0 ** (1.0 / 1.5), rel=1e-12)
