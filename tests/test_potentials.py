import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcantor.cantor import SOURCE, TARGET, ConfigError, build_tree, doubly_exponential_schedule, \
    harmonic_schedule, sharpness_schedule, shrunk_schedule
from qcantor.capacity import CapacityIndices, distortion_indices
from qcantor.measure import PlanarMeasure
from qcantor import potentials
from qcantor.potentials import (IndexDomainError, _guide_table, _invert_cdf,
                                default_dyadic_range, menger_curvature, riesz_potential,
                                standard_query_points, wolff_dyadic, wolff_tree)

import support


# -- tree formula -------------------------------------------------------------


def test_harmonic_target_terms_are_inverse_squares():
    tree = build_tree(harmonic_schedule(2.0, 16), 16)
    prof = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5)
    for n, contribution in prof.entries:
        assert contribution == pytest.approx(1.0 / (n + 1) ** 2, rel=1e-13)
    # limit of the full series
    assert prof.total < math.pi ** 2 / 6.0 - 1.0


def test_sharpness_source_terms_are_harmonic():
    K, q = 2.0, 7.0 / 3.0
    beta = 2 * K / ((K + 1) * q)
    tree = build_tree(sharpness_schedule(K, q, 24), 24)
    prof = wolff_tree(tree, SOURCE, beta, q)
    for n, contribution in prof.entries:
        assert contribution == pytest.approx(1.0 / (n + 1), rel=1e-13)


def test_cross_side_identity_term_by_term():
    for K in (1.0, 1.5, 2.0, 5.0):
        tree = build_tree(harmonic_schedule(K, 12), 12)
        idx = distortion_indices(K)
        src = wolff_tree(tree, SOURCE, idx.alpha, idx.p)
        tgt = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5)
        for (_, a), (_, b) in zip(src.entries, tgt.entries):
            assert a == pytest.approx(b, rel=1e-12)


def test_index_domain_errors():
    tree = build_tree(harmonic_schedule(2.0, 2), 2)
    with pytest.raises(IndexDomainError):
        wolff_tree(tree, SOURCE, 1.5, 1.5)  # alpha*p > 2
    with pytest.raises(IndexDomainError):
        wolff_tree(tree, SOURCE, 0.5, 1.0)  # p = 1


def test_path_independence_on_realization(real_k2_d3):
    # every leaf of a level-uniform tree sees identical generation data
    tree = real_k2_d3.tree
    prof = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5, mass_convention="realized")
    mu = real_k2_d3.measure(TARGET)
    for path in list(support.paths_at(tree, 3))[:5]:
        total = 0.0
        for n in range(1, 4):
            center = support.node_center(real_k2_d3, TARGET, path[:n])
            radius = math.exp(tree.log_radius(TARGET, n))
            m = mu.ball_mass(center, radius * (1 + 1e-9))
            total += (m / radius) ** 2
        assert total == pytest.approx(prof.total, rel=1e-9)


def test_realized_convention_matches_ball_masses(real_k2_d3):
    tree = real_k2_d3.tree
    mu = real_k2_d3.measure(TARGET)
    prof = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5, mass_convention="realized")
    center = support.node_center(real_k2_d3, TARGET, (0, 0))
    radius = math.exp(tree.log_radius(TARGET, 2))
    m = mu.ball_mass(center, radius * (1 + 1e-9))
    assert prof.entries[1][1] == pytest.approx((m / radius) ** 2, rel=1e-9)


# -- dyadic brute force -------------------------------------------------------


def test_point_mass_divergent_with_rate():
    pm = PlanarMeasure(np.zeros((1, 2)), np.ones(1))
    prof = wolff_dyadic(pm, (0.0, 0.0), 2.0 / 3.0, 1.5, -40, 2, sub_scale_tail=False)
    assert prof.divergent
    # slope of log-term vs log-scale: -(2 - alpha p)(p' - 1) = -2
    assert prof.divergence_rate == pytest.approx(-2.0, rel=1e-6)


def test_far_query_point_top_term():
    mu = PlanarMeasure(np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([0.3, 0.7]))
    x = (3.0, 0.0)
    prof = wolff_dyadic(mu, x, 2.0 / 3.0, 1.5, -10, 2, sub_scale_tail=False)
    terms = dict(prof.entries)
    assert terms[2] == pytest.approx((1.0 / 2.0 ** 2) ** 2, rel=1e-12)
    assert all(terms[k] == 0.0 for k in range(-10, 2))


def test_mass_scaling_law_exact():
    mu = support.uniform_disk(200, seed=1)
    x = (0.2, -0.1)
    c = 3.7
    base = wolff_dyadic(mu, x, 0.7, 1.4, -20, 2)
    scaled = wolff_dyadic(PlanarMeasure(mu.points, mu.weights * c), x, 0.7, 1.4, -20, 2)
    eta = 1.0 / (1.4 - 1.0)
    assert scaled.total == pytest.approx(c ** eta * base.total, rel=1e-12)


def test_spatial_scaling_law_dyadic():
    # geometry * 2, mass * 2^(2 - alpha p), indices shifted by one
    mu = support.uniform_disk(150, seed=2)
    alpha, p = 2.0 / 3.0, 1.5
    homog = 2.0 - alpha * p
    x = np.array([0.3, 0.1])
    base = wolff_dyadic(mu, x, alpha, p, -18, 3)
    moved = wolff_dyadic(PlanarMeasure(mu.points * 2.0, mu.weights * 2.0 ** homog), 2.0 * x,
                         alpha, p, -17, 4)
    for (_, a), (_, b) in zip(base.entries, moved.entries):
        assert b == pytest.approx(a, rel=1e-12) or (a == 0.0 and b == 0.0)
    assert moved.total == pytest.approx(base.total, rel=1e-12)


def test_oracle_comparability_depth3(tree_k2_d3, real_k2_d3):
    idx = distortion_indices(2.0)
    mu = real_k2_d3.measure(SOURCE)
    pts, _ = standard_query_points(real_k2_d3, SOURCE, seed=3)
    k_range = default_dyadic_range(tree_k2_d3, SOURCE)
    tree_total = wolff_tree(tree_k2_d3, SOURCE, idx.alpha, idx.p,
                            mass_convention="realized").total
    ratios = [wolff_dyadic(mu, x, idx.alpha, idx.p, *k_range).total / tree_total
              for x in pts]
    assert all(1.0 / 32.0 <= r <= 32.0 for r in ratios)


def test_profile_csv_rows():
    tree = build_tree(harmonic_schedule(2.0, 3), 3)
    prof = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5)
    rows = prof.csv_rows()
    assert [r[0] for r in rows] == [1, 2, 3]
    assert rows[-1][2] == pytest.approx(prof.total, rel=1e-12)


def _tree_profiles():
    for K in (1.5, 2.0, 3.0):
        for schedule, depth in ((harmonic_schedule(K, 64), 64),
                                (sharpness_schedule(K, 2.5, 40), 40),
                                (doubly_exponential_schedule(K, 9), 9)):
            tree = build_tree(schedule, depth, seed=1)
            for side in (SOURCE, TARGET):
                for idx in (distortion_indices(K), CapacityIndices(2.0 / 3.0, 1.5)):
                    for convention in ("ideal", "realized"):
                        try:
                            yield wolff_tree(tree, side, idx.alpha, idx.p,
                                             mass_convention=convention)
                        except IndexDomainError:  # a term past the doubles
                            continue


def test_profile_totals_are_their_csv_running_totals():
    profiles = list(_tree_profiles())
    assert len(profiles) > 50
    tree = build_tree(harmonic_schedule(2.0, 3), 3, seed=0)
    real = tree.realize(samples_per_leaf=16)
    for side in (SOURCE, TARGET):
        mu = real.measure(side)
        points, _ = standard_query_points(real, side, seed=0)
        for x in points[:8]:
            for tail in (True, False):
                profiles.append(wolff_dyadic(mu, x, 2.0 / 3.0, 1.5,
                                             *default_dyadic_range(tree, side),
                                             sub_scale_tail=tail))
    for prof in profiles:
        terms = [c for _, c in prof.entries]
        assert prof.total == prof.csv_rows()[-1][2] + prof.tail  # the same bits
        exact = math.fsum(terms) + prof.tail
        assert prof.total == pytest.approx(exact, rel=1e-14, abs=0.0)


# -- Riesz potential ----------------------------------------------------------


def test_riesz_single_atom():
    mu = PlanarMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert riesz_potential(mu, (0.0, 0.0), 1.0) == pytest.approx(1.0)


def test_riesz_two_atoms():
    mu = PlanarMeasure(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0.5, 0.5]))
    assert riesz_potential(mu, (0.0, 0.0), 1.0) == pytest.approx(0.75)


def test_riesz_coincidence_divergent():
    mu = PlanarMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    assert riesz_potential(mu, (0.0, 0.0), 1.0) == math.inf


def test_riesz_refuses_a_point_that_is_not_planar():
    mu = PlanarMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match=re.escape("shape (2,), got (3,)")):
        riesz_potential(mu, [0.0, 0.0, 5.0], 1.0)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
def test_blocked_riesz_equals_the_flat_atom_sum(K, depth):
    tree = build_tree(harmonic_schedule(K, depth), depth, seed=depth)
    for spl in (4, 64):
        for side in (SOURCE, TARGET):
            mu = tree.realize(seed=depth, samples_per_leaf=spl).measure(side)
            flat = support.without_blocks(mu)
            assert mu.blocks is not None and len(mu.blocks) > 1
            leaves = mu.blocks[-1]
            rho = float(leaves.radii.max())
            points = [(2.0, 0.0), mu.support_center(), leaves.centroids[1],
                      leaves.centroids[2] + [3.0 * rho, 0.0], mu.points[5] + [0.0, 1e3 * rho]]
            for x in points:
                for alpha in (0.5, 1.0, 1.5):
                    assert riesz_potential(mu, x, alpha) == pytest.approx(
                        riesz_potential(flat, x, alpha), rel=1e-12, abs=0.0)
            assert riesz_potential(mu, mu.points[5], 1.0) == math.inf  # an atom at x


def test_riesz_uniform_disk_closed_form():
    # I_1 at the center of the unit-disk area measure: int_0^1 (1/r) 2r dr = 2.
    # Deterministic oracle first: equal-area rings give midpoint quadrature of
    # int_0^1 t^(-1/2) dt; the singular first cell contributes (2-sqrt2)/sqrt(n)
    # and the convexity of the remaining cells another ~0.05/sqrt(n).
    n = 20_000
    radii = np.sqrt((np.arange(n) + 0.5) / n)
    th = 2.0 * np.pi * (np.arange(n) * 0.61803398875 % 1.0)
    rings = PlanarMeasure(np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1),
                          np.full(n, 1.0 / n))
    assert riesz_potential(rings, (0.0, 0.0), 1.0) == pytest.approx(
        2.0, abs=0.7 / math.sqrt(n))
    # the seeded Monte Carlo cloud lands in a fixed band (the 1/r kernel has
    # infinite variance under the area measure, so a plain stderr window
    # under-covers; the band is wide and the draw deterministic)
    mu = support.uniform_disk(10_000, seed=8)
    assert riesz_potential(mu, (0.0, 0.0), 1.0) == pytest.approx(2.0, abs=0.15)


# -- circumradius and curvature ----------------------------------------------


def test_circumradius_right_triangle():
    assert support.circumradius((0, 0), (1, 0), (0, 1)) == pytest.approx(math.sqrt(2) / 2,
                                                                         rel=1e-14)


def test_circumradius_equilateral():
    h = math.sqrt(3) / 2
    assert support.circumradius((0, 0), (1, 0), (0.5, h)) == pytest.approx(1 / math.sqrt(3),
                                                                           rel=1e-12)


def test_circumradius_collinear_infinite():
    assert support.circumradius((0, 0), (1, 0), (2, 0)) == math.inf
    assert support.circumradius((0, 0), (0, 0), (1, 0)) == math.inf


def test_curvature_line_measure_zero():
    mu = support.uniform_segment(30)
    est = menger_curvature(mu)
    assert est.value == 0.0
    assert est.sup_pointwise == 0.0


def test_curvature_right_triangle_exact():
    mu = PlanarMeasure(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(3))
    est = menger_curvature(mu)
    # 6 ordered triples, each contributing 1/R^2 = 2
    assert est.value == 12.0
    assert est.stderr == 0.0


def test_curvature_too_few_atoms():
    mu = PlanarMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(ValueError, match="at least 3"):
        menger_curvature(mu)


@pytest.mark.parametrize("n", [200, 20, 2])  # sampled, enumerated, too few atoms
@pytest.mark.parametrize("triples", [0, -1])
def test_curvature_refuses_nonpositive_triples(n, triples):
    mu = support.uniform_disk(n, seed=1)
    with pytest.raises(ConfigError, match="triples"):
        menger_curvature(mu, triples=triples)


def _one_draw_curvature(measure, triples, seed):
    """Reference: every sampled value of one Generator.choice draw of all the
    triples, then of each query's 2m indices, reduced by numpy in one piece."""
    n, pts, w = measure.n_atoms, measure.points, measure.weights
    total = measure.total_mass
    rng = np.random.default_rng(seed)
    prob = w / total
    idx = rng.choice(n, size=(triples, 3), p=prob)
    vals = support.inv_circumradius_sq(pts[idx[:, 0]], pts[idx[:, 1]], pts[idx[:, 2]])
    queries = rng.choice(n, size=min(16, int(np.count_nonzero(w))), replace=False, p=prob)
    m = max(2000, triples // 64)
    sup, sup_effective = 0.0, None
    for qi in queries:
        jk = rng.choice(n, size=2 * m, p=prob)
        v = support.inv_circumradius_sq(pts[qi][None, :], pts[jk[:m]], pts[jk[m:]])
        if total ** 2 * float(np.mean(v)) > sup:
            sup, sup_effective = total ** 2 * float(np.mean(v)), np.sum(v) ** 2 / np.sum(v * v)
    return vals, total ** 3, sup, sup_effective


@pytest.mark.parametrize("triples", [4097, 20_000, 300_000])  # 2, 5 and 74 chunks
def test_sampled_curvature_merges_its_chunks_to_the_one_draw_statistics(triples):
    # from 64 * 4097 triples on, each query's m pairs span two chunks as well
    mu = support.uniform_disk(200, seed=2)
    est = menger_curvature(mu, triples=triples, seed=3)
    vals, scale, sup, sup_effective = _one_draw_curvature(mu, triples, 3)
    assert est.value == pytest.approx(scale * np.mean(vals), rel=1e-14)
    assert est.stderr == pytest.approx(scale * np.std(vals) / math.sqrt(triples), rel=1e-12)
    assert est.sup_pointwise == pytest.approx(sup, rel=1e-14)
    assert est.effective_samples == pytest.approx(np.sum(vals) ** 2 / np.sum(vals * vals),
                                                  rel=1e-12)
    assert est.max_share == pytest.approx(np.max(vals) / np.sum(vals), rel=1e-12)
    # the count of the query that sets the sup, over its m pair values
    assert est.sup_effective_samples == pytest.approx(sup_effective, rel=1e-12)
    assert 1.0 <= est.sup_effective_samples <= max(2000, triples // 64)


def test_curvature_diagnostics_are_null_where_nothing_is_sampled():
    enumerated = menger_curvature(support.uniform_disk(20, seed=1))
    collinear = menger_curvature(support.uniform_segment(200), triples=5000)
    for est in (enumerated, collinear):
        assert (est.effective_samples, est.max_share, est.sup_effective_samples) == (None,) * 3
    assert collinear.value == 0.0 and collinear.to_json_dict()["max_share"] is None


def test_curvature_traced_memory_does_not_grow_with_the_triples():
    # the sampled values are reduced chunk by chunk as they are drawn: 16 times
    # the triples, the same scratch
    mu = support.uniform_disk(200, seed=1)
    peaks = []
    tracemalloc.start()
    try:
        for triples in (1 << 16, 1 << 20):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            menger_curvature(mu, triples=triples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.5 * 2 ** 20, peaks


def test_curvature_montecarlo_vs_enumeration():
    # 120 atoms forces the sampling path; the test's own oracle enumerates
    mu = support.uniform_disk(120, seed=3)
    est = menger_curvature(mu, triples=400_000, seed=5)
    pts, w = mu.points, mu.weights
    i, j, k = np.meshgrid(np.arange(120), np.arange(120), np.arange(120),
                          indexing="ij")
    distinct = (i != j) & (j != k) & (i != k)
    a = pts[j] - pts[i]
    b = pts[k] - pts[i]
    c = pts[k] - pts[j]
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    d2 = np.sum(a * a, -1) * np.sum(b * b, -1) * np.sum(c * c, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where(d2 > 0, 4 * cross * cross / np.where(d2 > 0, d2, 1), 0.0)
    exact = float(np.sum(np.where(distinct, inv2 * w[i] * w[j] * w[k], 0.0)))
    assert abs(est.value - exact) <= 4.0 * est.stderr
    assert est.sup_pointwise > 0


def test_curvature_rigid_motion_invariance():
    mu = support.uniform_disk(60, seed=4)
    a = menger_curvature(mu)
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, -s], [s, c]])
    b = menger_curvature(PlanarMeasure(mu.points @ rot.T + (3.0, -1.0), mu.weights))
    assert b.value == pytest.approx(a.value, rel=1e-9)


def test_curvature_permutation_invariance():
    mu = support.uniform_disk(200, seed=4)
    perm = np.random.default_rng(1).permutation(200)
    shuffled = PlanarMeasure(mu.points[perm], mu.weights[perm])
    a = menger_curvature(mu, triples=150_000, seed=8)
    b = menger_curvature(shuffled, triples=150_000, seed=9)
    assert abs(a.value - b.value) <= 3.0 * (a.stderr + b.stderr)


def test_curvature_cantor_realization_finite(real_k2_d3):
    mu = real_k2_d3.measure(TARGET)
    est = menger_curvature(mu, triples=50_000, seed=2)
    assert math.isfinite(est.value) and est.value >= 0.0


def _cloud_with_live_atoms(n, live, seed=0):
    """n distinct atoms of a disk, of which the first live have positive weight."""
    pts = support.uniform_disk(n, seed=seed).points
    return PlanarMeasure(pts, np.where(np.arange(n) < live, 1.0 / max(live, 1), 0.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("live", [0, 1, 2])
def test_curvature_below_three_live_atoms_is_exactly_zero(live):
    # sampling used to divide by a zero total (live = 0) or ask for 16 distinct
    # queries among fewer positive-weight atoms
    est = menger_curvature(_cloud_with_live_atoms(120, live), triples=5000, seed=1)
    assert (est.value, est.stderr, est.sup_pointwise) == (0.0, 0.0, 0.0)
    assert est.triples == 120 * 119 * 118


def test_curvature_with_fewer_than_sixteen_live_atoms():
    mu = _cloud_with_live_atoms(120, 10, seed=2)
    est = menger_curvature(mu, triples=200_000, seed=4)
    live = PlanarMeasure(mu.points[:10], mu.weights[:10])
    exact = menger_curvature(live)  # 10 atoms: enumerated
    assert est.triples == 200_000 and est.stderr > 0
    assert abs(est.value - exact.value) <= 4.0 * est.stderr
    assert 0.0 < est.sup_pointwise


def _weights(draw):
    """Atom weights with zeros, ties and, when heavy, one atom holding almost all
    of the mass; at least one weight is positive."""
    w = draw(st.lists(st.one_of(st.just(0.0), st.just(0.25), st.floats(1e-9, 1.0)),
                      min_size=1, max_size=70))
    w[draw(st.integers(0, len(w) - 1))] = draw(st.sampled_from([1.0, 1e12]))
    return np.array(w)


@st.composite
def _sampler_cases(draw):
    prob = _weights(draw)
    prob /= prob.sum()
    buckets = 1 << (prob.size - 1).bit_length()
    edges = np.arange(buckets) / buckets
    u = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0),
                        draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))])
    return prob, u


@settings(max_examples=300, deadline=None)
@given(_sampler_cases())
def test_guide_table_inversion_is_the_binary_search(case):
    prob, u = case
    cdf, guide = _guide_table(prob)
    want = prob.cumsum()
    want /= want[-1]
    assert np.array_equal(cdf, want)
    got = _invert_cdf(cdf, guide, u, np.empty(u.size, dtype=np.intp))
    assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


@st.composite
def _profiles(draw):
    """Nonnegative profile terms: a random head, then a tail that rises at every
    scale by a random factor (so the finest terms may or may not carry a tenth of
    the running total), with one term sometimes replaced by a zero, a tie, inf or
    a huge value."""
    head = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(1e-300, 1e-200)),
                         max_size=30))
    tail, value = [], draw(st.floats(1e-12, 1e3))
    for factor in draw(st.lists(st.floats(1.0, 3.0, exclude_min=True), min_size=8,
                                max_size=24)):
        value *= factor
        tail.append(value)
    terms = head + tail
    if draw(st.booleans()):
        at = draw(st.integers(0, len(terms) - 1))
        terms[at] = draw(st.sampled_from([0.0, math.inf, 1e308, terms[at - 1]]))
    return np.array(terms, dtype=float), draw(st.sampled_from(["generation", "dyadic"]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_profiles())
def test_divergence_diagnosis_equals_the_running_fractions_first(case):
    # the rising test goes first and the running fractions are formed only where it
    # holds: the same verdicts and rates, bit for bit, with no new RuntimeWarning
    terms, kind = case
    labels = range(1, terms.size + 1) if kind == "generation" else range(terms.size, 0, -1)
    with warnings.catch_warnings(record=True) as before:
        warnings.simplefilter("always", RuntimeWarning)
        want = support.diagnose_divergence_running_first(labels, terms, kind)
    with warnings.catch_warnings(record=True) as after:
        warnings.simplefilter("always", RuntimeWarning)
        got = potentials.diagnose_divergence(labels, terms, kind)
    assert got == want
    assert len(after) <= len(before)


@pytest.mark.parametrize("n", [1, 5, 64, 300])
def test_guide_table_inversion_with_one_heavy_atom(n):
    # one heavy atom first: the rest of the cdf piles into the last bucket
    prob = np.full(n, 1e-6)
    prob[0] = 1.0
    prob /= prob.sum()
    buckets = 1 << (n - 1).bit_length()
    edges = np.arange(buckets) / buckets
    u = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0),
                        np.linspace(prob[0], 1.0, 997, endpoint=False)])
    u = u[u < 1.0]  # n = 1: prob[0] = 1
    cdf, guide = _guide_table(prob)
    want = np.searchsorted(cdf, u, side="right")
    assert np.array_equal(_invert_cdf(cdf, guide, u, np.empty(u.size, dtype=np.intp)), want)
    if n == 300:  # the binary-search fallback is taken
        steps = want - guide[(u * buckets).astype(np.intp)]
        assert steps.max() > potentials._GUIDE_STEPS


@pytest.mark.parametrize("weights", ["equal", "random", "zeros", "heavy"])
def test_sampler_draws_the_indices_and_state_of_choice(weights):
    n = 1000
    w = {"equal": np.ones(n), "random": np.random.default_rng(1).random(n) ** 4,
         "zeros": np.where(np.arange(n) % 3 == 0, 0.0, 1.0),
         "heavy": np.where(np.arange(n) == 7, 1e6, 1.0)}[weights]
    prob = w / w.sum()
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    cdf, guide = _guide_table(prob)
    for size in (5000, 1, 3 * 5000):
        got = _invert_cdf(cdf, guide, ours.random(size), np.empty(size, dtype=np.intp))
        assert np.array_equal(got, theirs.choice(n, size=size, p=prob))
    assert ours.bit_generator.state == theirs.bit_generator.state


# -- growth and proxy ---------------------------------------------------------


def test_growth_single_atom_unbounded():
    mu = PlanarMeasure(np.zeros((1, 2)), np.ones(1))
    assert support.linear_growth_constant(mu, -40, 0) >= 2.0 ** 40


def test_growth_uniform_disk():
    mu = support.uniform_disk(20_000, seed=6)
    got = support.linear_growth_constant(mu, -8, 4, points=np.zeros((1, 2)))
    # mu(B(0,r)) = r^2 for r <= 1, so sup over dyadic radii of r is 1
    assert got == pytest.approx(1.0, rel=0.05)


def test_growth_scales_linearly_in_mass():
    mu = support.uniform_disk(500, seed=7)
    a = support.linear_growth_constant(mu, -10, 2)
    b = support.linear_growth_constant(PlanarMeasure(mu.points, mu.weights * 3.0), -10, 2)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_proxy_empty_annuli_zero():
    mu = PlanarMeasure(np.array([[10.0, 0.0]]), np.ones(1))
    assert support.dyadic_curvature_proxy(mu, (0.0, 0.0), -10, 2) == 0.0


def test_proxy_dominates_growth_term():
    mu = support.uniform_disk(300, seed=9)
    x = (0.1, 0.2)
    proxy = support.dyadic_curvature_proxy(mu, x, -12, 3)
    radii = 2.0 ** np.arange(-12, 4, dtype=float)
    best = max((mu.ball_mass(x, r) / r) ** 2 for r in radii)
    assert proxy >= best


def test_proxy_matches_tree_sum_within_factor(tree_k2_d3, real_k2_d3):
    mu = real_k2_d3.measure(TARGET)
    tree_total = wolff_tree(tree_k2_d3, TARGET, 2.0 / 3.0, 1.5,
                            mass_convention="realized").total
    k_range = default_dyadic_range(tree_k2_d3, TARGET)
    for x in real_k2_d3.leaf_centers(TARGET)[:10]:
        proxy = support.dyadic_curvature_proxy(mu, x, *k_range)
        assert 1.0 / 8.0 <= proxy / tree_total <= 8.0


def _wolff_tree_loop(tree, side, alpha, p, mass_convention="ideal"):
    """Reference copy of wolff_tree's first implementation: one log term per
    generation, inf where the term leaves the doubles.  Returns the entries."""
    eta = 1.0 / (p - 1.0)
    homog = 2.0 - alpha * p
    if side == TARGET:
        coef_log_r, coef_log_d = 2.0 - 2.0 * homog, -homog
    else:
        coef_log_r, coef_log_d = 2.0 - homog * (tree.K + 1.0), -homog * tree.K
    log_scale = math.log(tree.scale)
    entries = []
    for n in range(1, tree.depth + 1):
        log_ratio = (0.5 * coef_log_r * tree.cum_log_mass[n]
                     + coef_log_d * tree.cum_log_d[n]
                     - homog * log_scale)
        if mass_convention == "realized":
            log_ratio += tree.cum_log_keep[tree.depth] - tree.cum_log_keep[n]
        x = eta * log_ratio
        entries.append((n, math.exp(x) if x < 709.0 else math.inf))
    return tuple(entries)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.8), st.floats(1.1, 3.0))
def test_tree_terms_nonnegative_property(alpha, p):
    if not (0.0 < alpha * p < 2.0):
        return
    tree = build_tree(harmonic_schedule(2.0, 6), 6)
    want = _wolff_tree_loop(tree, SOURCE, alpha, p)
    past = [n for n, c in want if math.isinf(c)]
    if past:  # a term past the doubles is refused, never summed into an inf total
        with pytest.raises(IndexDomainError, match=f"at generation {past[0]} "):
            wolff_tree(tree, SOURCE, alpha, p)
        return
    prof = wolff_tree(tree, SOURCE, alpha, p)
    assert all(0.0 <= c < math.inf for _, c in prof.entries)
    assert prof.total == pytest.approx(sum(c for _, c in prof.entries), rel=1e-12)


_WOLFF_TREES = {
    "harmonic": lambda: build_tree(harmonic_schedule(2.0, 64), 64),
    "sharpness": lambda: build_tree(sharpness_schedule(3.0, 2.5, 64, branching=3), 64),
    "shrunk": lambda: build_tree(shrunk_schedule(2.0, 10, lambda n: -float((n + 1) ** 3)), 10),
    "doubly-exponential": lambda: build_tree(doubly_exponential_schedule(2.5, 12), 12),
    "explicit-eps": lambda: build_tree(harmonic_schedule(1.5, 40, branching=3, eps=0.99993),
                                       40, scale=0.37),
}


@pytest.mark.parametrize("convention", ["ideal", "realized"])
@pytest.mark.parametrize("kind", sorted(_WOLFF_TREES))
def test_wolff_tree_equals_loop_reference(kind, convention):
    tree = _WOLFF_TREES[kind]()
    for side in (SOURCE, TARGET):
        for alpha, p in ((2.0 / 3.0, 1.5), (0.8, 5.0 / 3.0), (0.3, 2.5), (0.05, 1.2)):
            want = _wolff_tree_loop(tree, side, alpha, p, convention)
            if any(math.isinf(c) for _, c in want):
                with pytest.raises(IndexDomainError, match=f"the {side} Wolff term"):
                    wolff_tree(tree, side, alpha, p, mass_convention=convention)
                continue
            got = wolff_tree(tree, side, alpha, p, mass_convention=convention)
            assert got.entries == want
            for depth in (0, 1, tree.depth // 2):
                short = wolff_tree(tree.prefix(depth), side, alpha, p,
                                   mass_convention=convention)
                assert short.entries == _wolff_tree_loop(tree.prefix(depth), side, alpha, p,
                                                         convention)


def test_wolff_tree_refuses_a_term_past_the_doubles():
    # K = 3, four 4-way harmonic levels: the third source term would be exp(851)
    tree = build_tree(harmonic_schedule(3.0, 4), 4)
    with pytest.raises(IndexDomainError) as info:
        wolff_tree(tree, SOURCE, 1.3, 1.01)
    assert str(info.value).startswith("the source Wolff term at alpha = 1.3, p = 1.01 leaves "
                                      "double precision at generation 3 ")


def test_profiles_record_the_log_term_of_each_entry():
    # tree route: the exponent of each term, also where the term underflows to 0
    tree = build_tree(harmonic_schedule(2.0, 64), 64)
    prof = wolff_tree(tree, SOURCE, 1.2, 1.5)
    assert len(prof.log_terms) == 64 and all(map(math.isfinite, prof.log_terms))
    assert all(math.exp(x) == c for x, (_, c) in zip(prof.log_terms, prof.entries))
    assert prof.entries[-1][1] == 0.0 and prof.log_terms[-1] < -745.0
    assert [row[3] for row in prof.csv_rows()] == list(prof.log_terms)
    # dyadic route: the term before clipping, -inf for an empty ball
    mu = PlanarMeasure(np.array([[1.0, 0.0], [1.5, 0.0]]), np.array([1e-3, 1e-3]))
    alpha, p = 0.5, 1.001
    prof = wolff_dyadic(mu, (0.0, 0.0), alpha, p, -4, 2)
    eta, homog = 1.0 / (p - 1.0), 2.0 - alpha * p
    for (k, c), x in zip(prof.entries, prof.log_terms):
        mass = mu.ball_mass((0.0, 0.0), 2.0 ** k)
        if mass == 0.0:
            assert c == 0.0 and x == -math.inf
        else:
            assert x == pytest.approx(eta * (math.log(mass) - homog * k * math.log(2.0)),
                                      rel=1e-14)
            assert x < -745.0 and c < 1e-300
