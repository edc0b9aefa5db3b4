"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not calibrated: exact identities at 1e-12,
comparability as recorded constants with a no-drift bound, inequality
verdicts as ratio stability within one decade.  Run with -s to see the
per-criterion lines.
"""
import json
import math
import os
import time

import numpy as np
import pytest

from qcantor import experiments as ex
from qcantor.cantor import (SOURCE, TARGET, build_tree, harmonic_schedule,
                            sharpness_schedule)
from qcantor.capacity import (CapacityIndices, direct_capacity_lower,
                              melnikov_gamma_lower, distorted_index_map,
                              distortion_indices, wolff_capacity_lower)
from qcantor.cli import main
from qcantor.gauges import (DistortedTreeGauge, TableGauge, TreeSmoothedDensityGauge,
                            content_Mh_tree, frostman_tree)
from qcantor.measure import PlanarMeasure
from qcantor.potentials import (circumradius, default_dyadic_range, menger_curvature,
                                wolff_dyadic, wolff_tree)


def _report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS — {text}")


def test_criterion_01_index_algebra():
    t0 = time.time()
    worst_h, worst_id, worst_spec = 0.0, 0.0, 0.0
    for K in np.linspace(1.0, 6.0, 10):
        idx = distortion_indices(K)
        worst_h = max(worst_h, abs(idx.homogeneity - 2.0 / (K + 1.0)))
        for p in np.linspace(1.1, 3.0, 10):
            di_spec = distorted_index_map(1.0 / p, p, K)
            worst_spec = max(
                worst_spec,
                abs(di_spec.beta - 2 * K / (2 * K * p - K + 1)),
                abs(di_spec.q - (2 * K * p - K + 1) / (K + 1)))
            for alpha in np.linspace(0.05, 1.9 / p, 10):
                di = distorted_index_map(alpha, p, K)
                worst_id = max(worst_id, abs(2.0 - di.beta * di.q - di.t_prime))
    elapsed = time.time() - t0
    assert worst_h <= 1e-12 and worst_id <= 1e-12 and worst_spec <= 1e-12
    assert elapsed < 1.0
    _report(1, f"index algebra on 1000-point grid: max errors "
               f"{worst_h:.2e}/{worst_id:.2e}/{worst_spec:.2e} in {elapsed:.2f}s")


def test_criterion_02_exact_series_harmonic_target():
    t0 = time.time()
    tree = build_tree(harmonic_schedule(2.0, 64), 64)
    prof = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5)
    partial = 0.0
    worst = 0.0
    for n, contribution in prof.entries:
        partial += contribution
        expected = sum(1.0 / (m + 1) ** 2 for m in range(1, n + 1))
        worst = max(worst, abs(partial - expected))
    limit = math.pi ** 2 / 6.0 - 1.0
    tail_bound = 1.0 / 65.0  # sum_{n>64} 1/(n+1)^2 <= 1/65
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert 0.0 < limit - partial <= tail_bound
    assert elapsed < 1.0
    _report(2, f"target series = sum 1/(n+1)^2 (max err {worst:.2e}), "
               f"approaches pi^2/6 - 1 within {limit - partial:.4f}")


def test_criterion_03_exact_series_sharpness_source():
    t0 = time.time()
    K, q = 2.0, 7.0 / 3.0
    beta = 2 * K / ((K + 1) * q)
    tree = build_tree(sharpness_schedule(K, q, 64), 64)
    prof = wolff_tree(tree, SOURCE, beta, q)
    worst, partial = 0.0, 0.0
    sums = {}
    for n, contribution in prof.entries:
        partial += contribution
        expected = sum(1.0 / (m + 1) for m in range(1, n + 1))
        worst = max(worst, abs(partial - expected))
        sums[n] = partial
    assert worst <= 1e-12
    depths = np.arange(8, 65)
    y = np.array([sums[d] for d in depths])
    # the partial sums equal H_{N+1} - 1, so the closed form's natural
    # log argument is N + 1; the plain ln N fit carries the finite-size
    # off-by-one and is held to 10%
    slope_shift = np.polyfit(np.log(depths + 1), y, 1)[0]
    slope_plain = np.polyfit(np.log(depths), y, 1)[0]
    elapsed = time.time() - t0
    assert abs(slope_shift - 1.0) <= 0.05
    assert abs(slope_plain - 1.0) <= 0.10
    assert elapsed < 1.0
    _report(3, f"source series = sum 1/(n+1) (max err {worst:.2e}); log-slope "
               f"{slope_shift:.4f} (vs ln(N+1)), {slope_plain:.4f} (vs ln N)")


def test_criterion_04_cross_side_identity():
    worst = 0.0
    for K in (1.0, 1.5, 2.0, 5.0):
        tree = build_tree(harmonic_schedule(K, 32), 32)
        idx = distortion_indices(K)
        src = wolff_tree(tree, SOURCE, idx.alpha, idx.p)
        tgt = wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5)
        for (_, a), (_, b) in zip(src.entries, tgt.entries):
            worst = max(worst, abs(a - b) / b)
    assert worst <= 1e-12
    _report(4, f"cross-side identity term-by-term, K in {{1,1.5,2,5}} to depth 32: "
               f"max rel err {worst:.2e}")


def test_criterion_05_oracle_comparability():
    # target side at (2/3, 3/2): the flat atom cloud resolves depth 4 there
    # (the source side collapses below double precision one level earlier,
    # which is why the frame-based evaluators exist for contents)
    t0 = time.time()
    K = 2.0
    alpha, p = 2.0 / 3.0, 1.5
    schedules = harmonic_schedule(K, 4)
    per_depth_c = {}
    total_points = 0
    for depth in (2, 3, 4):
        tree = build_tree(schedules, depth, seed=9)
        real = tree.realize(seed=9, samples_per_leaf=1)
        assert tree.n_leaves <= 4096
        mu = real.measure(TARGET)
        pts = real.leaf_centers(TARGET)
        if len(pts) > 64:
            pts = pts[:: len(pts) // 64][:64]
        total_points += len(pts)
        k_range = default_dyadic_range(tree, TARGET)
        tree_total = wolff_tree(tree, TARGET, alpha, p,
                                mass_convention="realized").total
        worst = 1.0
        for x in pts:
            ratio = wolff_dyadic(mu, x, alpha, p, *k_range).total / tree_total
            worst = max(worst, ratio, 1.0 / ratio)
        per_depth_c[depth] = worst
    c_all = max(per_depth_c.values())
    elapsed = time.time() - t0
    assert total_points >= 50
    assert c_all <= 32.0                                  # recorded constant
    assert per_depth_c[4] / per_depth_c[2] <= 2.0          # no drift with depth
    assert elapsed < 120.0
    _report(5, f"dyadic oracle vs tree formula: recorded C = {c_all:.3f} over "
               f"{total_points} query points, drift C(4)/C(2) = "
               f"{per_depth_c[4] / per_depth_c[2]:.3f}, {elapsed:.1f}s")


def test_criterion_06_scaling_laws():
    # mass scaling of the brute-force potential
    mu = PlanarMeasure.uniform_disk(250, seed=4)
    x = (0.1, -0.2)
    c, (alpha, p) = 2.6, (0.7, 1.4)
    eta = 1.0 / (p - 1.0)
    base = wolff_dyadic(mu, x, alpha, p, -18, 3)
    scaled = wolff_dyadic(mu.weighted(c), x, alpha, p, -18, 3)
    assert scaled.total == pytest.approx(c ** eta * base.total, rel=1e-12)

    # geometric homogeneity: exact for the tree estimator, <= 1% for quadrature
    idx = distortion_indices(2.0)
    tree = build_tree(harmonic_schedule(2.0, 5), 5)
    tree_base = wolff_capacity_lower(tree, idx, side=SOURCE).value
    disk_idx = CapacityIndices(2.0 / 3.0, 1.5)
    quad_base = direct_capacity_lower(mu, disk_idx, cells=64).value
    worst_tree, worst_quad = 0.0, 0.0
    for lam in (0.25, 0.5, 2.0):
        tv = wolff_capacity_lower(tree.scaled(lam), idx, side=SOURCE).value
        worst_tree = max(worst_tree,
                         abs(tv / (tree_base * lam ** idx.homogeneity) - 1.0))
        qv = direct_capacity_lower(mu.scaled(lam), disk_idx, cells=64).value
        worst_quad = max(worst_quad,
                         abs(qv / (quad_base * lam ** disk_idx.homogeneity) - 1.0))
    assert worst_tree <= 1e-12
    assert worst_quad <= 0.01
    _report(6, f"mass scaling exact; homogeneity: tree err {worst_tree:.2e}, "
               f"quadrature err {worst_quad:.2e}")


def test_criterion_07_curvature_units():
    line = PlanarMeasure.uniform_segment(25)
    assert menger_curvature(line).value == 0.0
    tri = PlanarMeasure(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(3))
    assert menger_curvature(tri).value == 12.0
    assert circumradius((0, 0), (1, 0), (2, 0)) == math.inf
    seg = PlanarMeasure.uniform_segment(1001)
    est = melnikov_gamma_lower(seg.total_mass, 0.0, growth=1.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    _report(7, "collinear 0 exact, triangle value 12 exact, segment proxy 1±1e-9")


def test_criterion_08_contents():
    rng = np.random.default_rng(21)
    checked = 0
    for branching, depth in ((2, 2), (2, 3), (3, 2)):
        tree = build_tree(harmonic_schedule(2.0, depth, branching=branching), depth)
        real = tree.realize()
        nodes = [p for g in range(depth + 1) for p in tree.paths_at(g)]
        leaves = list(tree.paths_at(depth))
        for _ in range(7):
            table = {p: float(rng.integers(1, 1000)) for p in nodes}
            got = content_Mh_tree(TableGauge(tree, table)).value
            best = math.inf
            for mask in range(1, 1 << len(nodes)):
                chosen = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
                if all(any(leaf[:len(c)] == c for c in chosen) for leaf in leaves):
                    best = min(best, sum(table[c] for c in chosen))
            assert got == best  # integer-valued gauges: exact equality
            # max flow = min cut: the flow value is the DP value bitwise, the
            # leaf split re-sums to it and respects every node's capacity
            fr = frostman_tree(TableGauge(tree, table))
            assert fr.value == got
            assert fr.leaf_weights.sum() == pytest.approx(fr.value, rel=1e-12)
            for p in nodes:
                lo, hi = real.leaf_range(p)
                assert fr.leaf_weights[lo:hi].sum() <= table[p] * (1 + 1e-12)
            checked += 1
    assert checked >= 20

    K, a = 2.0, 0.1
    schedules = harmonic_schedule(K, 6)
    ratios = []
    for depth in range(2, 7):
        tree = build_tree(schedules, depth, seed=5)
        real = tree.realize(seed=5)
        h0 = TreeSmoothedDensityGauge(real, a, side=SOURCE)
        m_src = content_Mh_tree(h0).value
        m_tgt = content_Mh_tree(DistortedTreeGauge(real, a)).value
        ratios.append(m_src / m_tgt ** ((K + 1.0) / (2.0 * K)))
    assert min(ratios) >= 0.1 * max(ratios)
    _report(8, f"DP = enumeration on {checked} random gauges (exact); "
               f"Frostman = DP (exact); distortion-content ratio span "
               f"{max(ratios) / min(ratios):.4f} over depths 2-6")


def test_criterion_09_distortion_theorems_desk_scale():
    t0 = time.time()
    r1 = ex.verify_gamma_distortion(2.0, range(2, 7))
    assert r1.passed
    ratios1 = [r["ratio"] for r in r1.rows]
    r2 = ex.verify_riesz_distortion(2.0, 2.0, range(2, 6))
    assert r2.passed
    ratios2 = [r["ratio"] for r in r2.rows]
    elapsed = time.time() - t0
    assert max(ratios1) / min(ratios1) < 10.0
    assert max(ratios2) / min(ratios2) < 10.0
    assert elapsed < 300.0
    _report(9, f"distortion inequality ratios span {max(ratios1)/min(ratios1):.3f} "
               f"(analytic side) and {max(ratios2)/min(ratios2):.3f} (Wolff side) "
               f"in {elapsed:.1f}s")


def test_criterion_10_gauge_criteria():
    gc = ex.gauge_criterion_experiment(2.0)
    assert gc.passed
    div = [r for r in gc.rows if r["exponent"] <= 1.0]
    conv = [r for r in gc.rows if r["exponent"] > 1.0]
    assert len(div) == 10 and len(conv) == 10
    assert all(r["classified"] == "divergent" for r in div)
    assert all(r["classified"] == "convergent" for r in conv)

    K = 2.0
    vc = ex.vanishing_content_experiment(K, range(2, 17))
    assert vc.passed
    worst = max(abs(r["unit_gauge_sum"] - (r["depth"] + 1) ** (2 * K / (K + 1)))
                / r["closed_form"] for r in vc.rows)
    assert worst <= 1e-12
    de = ex.doubly_exponential_experiment(K, range(1, 33))
    assert de.passed
    sums = [r["gauge_sum"] for r in de.rows]
    assert all(b < a for a, b in zip(sums, sums[1:]))
    _report(10, f"gauge boundary classified 10/10 each side; generation sums "
                f"match closed form (err {worst:.2e}) and vanish under both "
                f"shrink schedules")


def test_criterion_11_determinism(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    for out in (out1, out2):
        assert main(["verify", "thm1", "--K", "2", "--depths", "2..5",
                     "--seed", "13", "--out", out]) == 0
    for name in ("thm1.csv", "thm1.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2
    _report(11, "verify reruns with a fixed seed are byte-identical (CSV and JSON)")
