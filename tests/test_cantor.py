import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcantor import cantor
from qcantor.cantor import (SOURCE, TARGET, ConfigError, ConstructionError,
                            LevelSchedule, PackingError, build_tree,
                            doubly_exponential_schedule, harmonic_schedule,
                            pack_disks, schedules_from_config, sharpness_schedule,
                            shrunk_schedule)
from qcantor.potentials import tree_log_ratios

import support


def test_harmonic_multipliers():
    sch = harmonic_schedule(1.5, 6)
    assert sch[0].multiplier == 2.0
    assert sch[4].multiplier == 1.2
    # telescoping: prod d_j = n + 1
    prod = 1.0
    for lv in sch:
        prod *= lv.multiplier
    assert prod == pytest.approx(7.0, rel=1e-14)


def test_schedule_from_eps_matches_area_split():
    lv = LevelSchedule.from_eps(1, 4, 1.0, 0.9996, 1.0)
    assert lv.protect == pytest.approx(0.01, rel=1e-12)
    assert lv.eps == pytest.approx(0.9996, rel=1e-12)
    assert lv.branching * lv.protect ** 2 == pytest.approx(1.0 - 0.9996, rel=1e-12)


def test_smallness_violation_names_level():
    # M=4, eps=0.75 forces R = 1/4 > 1/100
    with pytest.raises(ConstructionError, match="level 1"):
        LevelSchedule.from_eps(1, 4, 1.0, 0.75, 1.0)


def test_sigma_smallness_enforced():
    # R admissible but sigma = R*d too large
    with pytest.raises(ConstructionError, match="sigma"):
        LevelSchedule(1, 4, 1.9, math.log(0.0099), 1.0)


@pytest.mark.parametrize("K", [0.5, math.inf, math.nan])
def test_level_distortion_outside_one_to_infinity_rejected(K):
    with pytest.raises(ConstructionError, match=f"distortion K must be >= 1, got {K}"):
        LevelSchedule(1, 4, 1.0, math.log(0.005), K)


def test_multiplier_below_one_rejected():
    with pytest.raises(ConstructionError):
        LevelSchedule(1, 4, 0.9, math.log(0.005), 1.0)


def test_depth_zero_tree():
    tree = build_tree(harmonic_schedule(2.0, 4), 0)
    assert math.exp(tree.log_radius(SOURCE, 0)) == 1.0
    assert math.exp(tree.log_radius(TARGET, 0)) == 1.0
    assert math.exp(tree.log_mass(0)) == 1.0  # empty products


def test_explicit_eps_spec_example():
    # one level with M=4, eps=0.9996, d=1: node radii s = t = sigma*R = 1e-4
    lv = LevelSchedule.from_eps(1, 4, 1.0, 0.9996, 1.0)
    tree = build_tree([lv], 1)
    assert math.exp(tree.log_radius(SOURCE, 1)) == pytest.approx(1e-4, rel=1e-12)
    assert math.exp(tree.log_radius(TARGET, 1)) == pytest.approx(1e-4, rel=1e-12)
    assert math.exp(tree.log_mass(1)) == pytest.approx(1e-4, rel=1e-12)


def test_source_target_ratio_is_sigma_power():
    # s = t * prod sigma_k^(K-1)
    K = 2.0
    sch = [LevelSchedule(j, 4, 2.0, math.log(0.005), K) for j in (1, 2, 3)]
    tree = build_tree(sch, 3)
    for n in range(1, 4):
        log_sigma_sum = sum(lv.log_sigma for lv in sch[:n])
        got = tree.log_radius(SOURCE, n) - tree.log_radius(TARGET, n)
        assert got == pytest.approx((K - 1.0) * log_sigma_sum, rel=1e-12)


def test_radius_product_identity_independent_accumulation():
    sch = harmonic_schedule(2.5, 8)
    tree = build_tree(sch, 8)
    for n in range(1, 9):
        s_indep = math.fsum(lv.distortion * lv.log_sigma + lv.log_protect
                            for lv in sch[:n])
        t_indep = math.fsum(lv.log_sigma + lv.log_protect for lv in sch[:n])
        assert tree.log_radius(SOURCE, n) == pytest.approx(s_indep, rel=1e-12)
        assert tree.log_radius(TARGET, n) == pytest.approx(t_indep, rel=1e-12)


def test_source_not_larger_than_target():
    for K in (1.0, 1.5, 3.0):
        tree = build_tree(harmonic_schedule(K, 6), 6)
        for n in range(7):
            assert tree.log_radius(SOURCE, n) <= tree.log_radius(TARGET, n) + 1e-15


def test_generating_inside_protecting():
    tree = build_tree(harmonic_schedule(2.0, 4), 4)
    for side in (SOURCE, TARGET):
        for n in range(1, 5):
            assert tree.log_radius(side, n) < tree.log_protect_radius(side, n)


def test_generation_mass_conservation():
    tree = build_tree(harmonic_schedule(2.0, 5), 5)
    total = math.exp(tree.log_total_mass())
    for n in range(6):
        gen_sum = tree.n_nodes(n) * math.exp(tree.log_mass(n))
        assert gen_sum == pytest.approx(total, rel=1e-12)


def test_every_mass_reader_refuses_an_unknown_convention():
    # one owner of the rule: the per-node and total masses and the Wolff log ratios
    tree = build_tree(harmonic_schedule(2.0, 3), 3)
    for read in (lambda: tree.log_mass(2, "bogus"), lambda: tree.log_total_mass("bogus"),
                 lambda: tree_log_ratios(tree, SOURCE, 0.8, 5.0 / 3.0, "bogus")):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == "unknown mass convention 'bogus'"


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.floats(1.0, 1.8), st.integers(1, 5),
       st.floats(1.0, 4.0))
def test_mass_conservation_property(m, d, depth, K):
    sch = [LevelSchedule(j, m, d, math.log(0.01 / d) - 0.1 * j, K)
           for j in range(1, depth + 1)]
    tree = build_tree(sch, depth)
    total = tree.log_total_mass()
    for n in range(depth + 1):
        gen = math.log(tree.n_nodes(n)) + tree.log_mass(n)
        assert gen == pytest.approx(total, abs=1e-10)


def test_sharpness_schedule_boundary_excluded():
    K = 2.0
    q_min = (2 * K + 1) / (K + 1)
    with pytest.raises(ConstructionError, match="sharpness regime"):
        sharpness_schedule(K, q_min, 4)
    with pytest.raises(ConstructionError, match="sharpness regime"):
        sharpness_schedule(K, q_min - 0.2, 4)


def test_sharpness_exponent_rejects_infinite_q():
    with pytest.raises(ConstructionError, match="sharpness regime.*got q = inf"):
        cantor.sharpness_exponent(2.0, math.inf)


@pytest.mark.parametrize("eps", [1.0, 1.5])
@pytest.mark.parametrize("build", [
    lambda eps: harmonic_schedule(2.0, 3, eps=eps),
    lambda eps: sharpness_schedule(2.0, 7.0 / 3.0, 3, eps=eps),
], ids=["harmonic", "sharpness"])
def test_schedule_eps_out_of_range_names_level(build, eps):
    with pytest.raises(ConstructionError, match="level 1: eps must lie in"):
        build(eps)


def test_sharpness_multiplier_formula():
    K, q = 2.0, 7.0 / 3.0
    sch = sharpness_schedule(K, q, 5)
    e = (K + 1) / (2 * K * (1.0 / (q - 1.0)))
    for j, lv in enumerate(sch, start=1):
        assert lv.multiplier == pytest.approx(((j + 1) / j) ** e, rel=1e-14)
    # the defining property: d_j^(2(q'-1)K/(K+1)) = (j+1)/j
    qc = 1.0 / (q - 1.0)
    for j, lv in enumerate(sch, start=1):
        assert lv.multiplier ** (2 * qc * K / (K + 1)) == pytest.approx((j + 1) / j,
                                                                        rel=1e-12)


def test_doubly_exponential_caps():
    K = 2.0
    sch = doubly_exponential_schedule(K, 8)
    tree = build_tree(sch, 8)
    for n in range(1, 9):
        cap = -math.exp(n)
        assert tree.log_radius(SOURCE, n) <= cap + 1e-9 * (1 + abs(cap))
    # once the cap binds it binds with equality
    assert tree.log_radius(SOURCE, 8) == pytest.approx(-math.exp(8), rel=1e-12)
    # reference values: e^{-e} ~ 0.0659, e^{-e^3} = e^{-20.09...}
    assert math.exp(-math.exp(1)) == pytest.approx(0.06598803584531254, rel=1e-12)
    assert -math.exp(3) == pytest.approx(-20.085536923187668, rel=1e-12)


def test_doubly_exponential_cap_stays_in_the_doubles_to_depth_709():
    # -e^709 is the last cap a double holds; e^710 overflows
    tree = build_tree(doubly_exponential_schedule(2.0, 709), 709)
    assert tree.log_radius(SOURCE, 709) == pytest.approx(-math.exp(709), rel=1e-12)
    for depth in (710, 5000):
        with pytest.raises(ConstructionError, match=rf"^doubly-exponential schedule: depth "
                           rf"{depth}: past N = 709, log s_N <= -e\^N leaves double precision$"):
            doubly_exponential_schedule(2.0, depth)


def test_pack_single_disk_at_origin():
    assert np.allclose(pack_disks(1, 0.3), [[0.0, 0.0]])


def test_pack_seven_disks_third_radius():
    pts = pack_disks(7, 1.0 / 3.0, seed=4)
    assert pts.shape == (7, 2)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(norms <= 1.0 - 1.0 / 3.0 + 1e-9)
    for i in range(7):
        for j in range(i + 1, 7):
            assert np.hypot(*(pts[i] - pts[j])) >= 2.0 / 3.0 - 1e-9


def test_pack_area_bound_violation():
    with pytest.raises(PackingError, match="area bound"):
        pack_disks(4, 0.9)


def test_pack_deterministic_per_seed():
    a = pack_disks(12, 0.05, seed=3)
    b = pack_disks(12, 0.05, seed=3)
    c = pack_disks(12, 0.05, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pack_layouts_are_shared_and_read_only():
    a = pack_disks(12, 0.05, seed=3)
    assert pack_disks(12, 0.05, seed=3) is a
    assert not a.flags.writeable and not pack_disks(1, 0.3).flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    for _ in range(2):  # refusals are not cached: every bad call raises
        with pytest.raises(PackingError, match="area bound"):
            pack_disks(4, 0.9)


def test_build_depth_exceeds_schedules():
    with pytest.raises(ConstructionError, match="depth"):
        build_tree(harmonic_schedule(2.0, 3), 4)


def test_realization_total_mass(tree_k2_d3):
    for side in (SOURCE, TARGET):
        mu = tree_k2_d3.realize(seed=11).measure(side)
        assert mu.total_mass == pytest.approx(math.exp(tree_k2_d3.log_total_mass()),
                                              rel=1e-12)


def test_single_sample_atoms_at_leaf_centers(real_k2_d3):
    mu = real_k2_d3.measure(TARGET)
    centers = real_k2_d3.leaf_centers(TARGET)
    assert np.array_equal(mu.points, centers)
    leaf_mass = math.exp(real_k2_d3.tree.log_mass(3))
    np.testing.assert_allclose(mu.weights, leaf_mass, rtol=1e-12, atol=0.0)


def test_generation_ball_mass_query():
    # depth-2, M=3: mu(generation-1 disk) = R_1^2 * (1 - eps_2)
    tree = build_tree(harmonic_schedule(2.0, 2, branching=3), 2, seed=5)
    real = tree.realize(seed=5)
    mu = real.measure(TARGET)
    center = support.node_center(real, TARGET, (0,))
    radius = math.exp(tree.log_radius(TARGET, 1))
    got = mu.ball_mass(center, radius * (1 + 1e-9))
    lv1, lv2 = tree.schedules
    expected = lv1.protect ** 2 * (1.0 - lv2.eps)
    assert got == pytest.approx(expected, rel=1e-12)


def test_nesting_and_sibling_disjointness(real_k2_d3):
    tree = real_k2_d3.tree
    for side in (SOURCE, TARGET):
        for g in (1, 2):
            parent_r = math.exp(tree.log_radius(side, g - 1))
            child_protect = math.exp(tree.log_protect_radius(side, g))
            for path in support.paths_at(tree, g - 1):
                offs = [support.node_center(real_k2_d3, side, path + (j,))
                        - support.node_center(real_k2_d3, side, path)
                        for j in range(tree.branching(g))]
                for o in offs:
                    assert np.hypot(*o) + child_protect < parent_r  # strict
                for i in range(len(offs)):
                    for j in range(i + 1, len(offs)):
                        d = np.hypot(*(offs[i] - offs[j]))
                        assert d > 2 * child_protect - 1e-15


def test_frame_distances_match_absolute_oracle():
    # the blockwise frame assembly must reproduce plain |atom - center|
    # wherever the flat coordinates can represent the separation at all;
    # below the coordinate ulp the flat route returns 0 and only the frames
    # carry the true value (which is their reason to exist)
    tree = build_tree(harmonic_schedule(2.0, 3, branching=3), 3, seed=21)
    real = tree.realize(seed=21, samples_per_leaf=2)
    for side in (SOURCE, TARGET):
        atoms = real.measure(side).points
        noise = float(np.max(np.abs(atoms))) * 2.0 ** -52
        for path in [(), (1,), (0, 2), (2, 1, 0)]:
            center = support.node_center(real, side, path)
            brute = np.hypot(atoms[:, 0] - center[0], atoms[:, 1] - center[1])
            framed = real.node_atom_distances(side, path)
            ok = brute >= 1e4 * noise
            assert np.allclose(framed[ok], brute[ok], rtol=1e-9)
            # where the flat route degenerates, the frames still see structure
            assert np.all(framed > 0.0)


def test_tree_json_values_match_node_logs():
    tree = build_tree(harmonic_schedule(2.0, 2), 2, seed=3)
    doc = json.loads(tree.to_json())
    by_depth = {}
    for node in doc["nodes"]:
        by_depth.setdefault(len(node["path"]), node)
    for g, node in by_depth.items():
        assert node["s_log"] == pytest.approx(tree.log_radius(SOURCE, g), rel=1e-15)
        assert node["t_log"] == pytest.approx(tree.log_radius(TARGET, g), rel=1e-15)
        assert node["mass_log"] == pytest.approx(tree.log_mass(g), rel=1e-15)


def test_logspace_schedule_cannot_realize():
    tree = build_tree(doubly_exponential_schedule(2.0, 8), 8)
    with pytest.raises(ConstructionError, match="underflow"):
        tree.realize(seed=0)


def test_realization_seeds_do_not_alias_modulo_2_32():
    tree = build_tree(harmonic_schedule(2.0, 2), 2)
    points = {seed: tree.realize(seed=seed).measure(SOURCE).points for seed in (0, 2**32)}
    assert not np.array_equal(points[0], points[2**32])


def test_negative_realization_seed_refused():
    tree = build_tree(harmonic_schedule(2.0, 2), 2)
    with pytest.raises(ConstructionError, match="seed -1"):
        tree.realize(seed=-1)


def test_atom_cap_refuses_before_allocating():
    tree = build_tree(harmonic_schedule(2.0, 3), 3)
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError, match="64000000000000 atoms"):
            tree.realize(seed=0, samples_per_leaf=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scaling_moves_ball_mass_ratio():
    # scaling the picture by lam multiplies mu(B)/r(B)^gamma by lam^(-gamma)
    tree = build_tree(harmonic_schedule(2.0, 3), 3)
    lam, gamma = 4.0, 2.0 / 3.0
    scaled = tree.scaled(lam)
    for n in range(1, 4):
        before = tree.log_mass(n) - gamma * tree.log_radius(TARGET, n)
        after = scaled.log_mass(n) - gamma * scaled.log_radius(TARGET, n)
        assert after - before == pytest.approx(-gamma * math.log(lam), rel=1e-12)


def test_tree_json_export():
    tree = build_tree(harmonic_schedule(2.0, 2), 2, seed=3)
    doc = json.loads(tree.to_json())
    assert doc["K"] == 2.0 and doc["depth"] == 2 and doc["seed"] == 3
    assert len(doc["nodes"]) == 1 + 4 + 16
    node = doc["nodes"][-1]
    assert set(node) == {"path", "s_log", "t_log", "mass_log"}


def _reference_tree_json(tree):
    """The export as one json.dumps over node dicts, path by path."""
    nodes = [{"path": list(path), "s_log": tree.log_radius(SOURCE, g),
              "t_log": tree.log_radius(TARGET, g), "mass_log": tree.log_mass(g)}
             for g in range(tree.depth + 1) for path in support.paths_at(tree, g)]
    doc = {"K": tree.K, "depth": tree.depth, "seed": tree.seed, "scale": tree.scale,
           "nodes": nodes}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _mixed_config_tree():
    schedules, depth, seed = schedules_from_config(
        {"K": 2, "depth": 3, "seed": 9,
         "levels": [{"M": 4, "d": "example2"}, {"M": 4, "d": "harmonic"},
                    {"M": 4, "d": {"sharpness_q": 7.0 / 3.0}}, {"M": 4, "d": 1.25}]})
    return build_tree(schedules, depth, seed=seed)


@pytest.mark.parametrize("make", [
    *(lambda K=K, d=d: build_tree(harmonic_schedule(K, d, branching=4), d)
      for K in (1.5, 2.0, 3.0) for d in (0, 1, 5)),
    lambda: build_tree(harmonic_schedule(2.0, 3, branching=4), 3, seed=3).scaled(0.37),
    _mixed_config_tree])
def test_tree_json_export_is_canonical_json_bytes(make):
    tree = make()
    assert tree.to_json() == _reference_tree_json(tree)


def test_tree_json_export_keeps_its_node_cap(monkeypatch):
    tree = build_tree(harmonic_schedule(2.0, 5, branching=4), 5)
    monkeypatch.setattr(cantor, "MAX_EXPORT_NODES", 1365)
    assert len(json.loads(tree.to_json())["nodes"]) == 1365
    monkeypatch.setattr(cantor, "MAX_EXPORT_NODES", 1364)
    with pytest.raises(ConfigError, match="1365 nodes exceed the export cap of 1364"):
        tree.to_json()


def test_schedule_config_roundtrip():
    cfg = {"K": 2, "depth": 3, "seed": 9,
           "levels": [{"M": 4, "d": "example2"},
                      {"M": 4, "d": "harmonic"},
                      {"M": 4, "d": {"sharpness_q": 7.0 / 3.0}},
                      {"M": 4, "d": 1.25}]}
    schedules, depth, seed = schedules_from_config(cfg)
    assert depth == 3 and seed == 9 and len(schedules) == 4
    assert schedules[0].multiplier == 2.0
    assert schedules[1].multiplier == 1.5
    assert schedules[3].multiplier == 1.25
    tree = build_tree(schedules, depth, seed=seed)
    assert tree.n_leaves == 64


def test_schedule_config_with_explicit_eps():
    cfg = {"K": 1, "depth": 1, "levels": [{"M": 4, "eps": 0.9996, "d": 1.0}]}
    schedules, _, _ = schedules_from_config(cfg)
    assert schedules[0].protect == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("cfg,msg", [
    ({"K": 2}, "missing"),
    ({"K": 2, "depth": 2, "levels": [{"M": 4, "d": 1.0}]}, "at least depth"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": "nope"}]}, "d must be"),
    ({"K": 2, "depth": 1, "levels": [{"d": 1.0}]}, "needs keys"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": 1.0, "eps": 0.5}]}, "level 1"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": 1.0, "eps": "x"}]},
     "level 1: eps must be a number, got 'x'"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": {"sharpness_q": "x"}}]},
     "level 1: sharpness_q must be a number, got 'x'"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": {"sharpness_q": None}}]},
     "level 1: sharpness_q must be a number, got None"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": {"sharpness_q": 1e4}}]},
     "level 1: d = .* overflows"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": 0}]}, "level 1: multiplier d must be >= 1"),
    ({"K": 2, "depth": 1, "levels": [{"M": float("inf"), "d": 1.0}]},
     "level 1: M must be an integer, got inf"),
    ({"K": 10**400, "depth": 1, "levels": []}, "K must be a number"),
    ({"K": 2, "depth": 1, "levels": [{"M": 10**400, "d": "harmonic"}]},
     r"level 1: M\*R\^2 = exp\(.*\) exceeds 1"),
    # numbers are not truncated, and booleans and strings are not numbers
    ({"K": 2, "depth": 2.7, "levels": [{"M": 4, "d": "harmonic"}] * 3},
     "^depth must be an integer, got 2.7$"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4.5, "d": "harmonic"}]},
     "^level 1: M must be an integer, got 4.5$"),
    ({"K": 2, "depth": 1, "seed": 1.9, "levels": [{"M": 4, "d": "harmonic"}]},
     "^seed must be an integer, got 1.9$"),
    ({"K": True, "depth": 1, "levels": [{"M": 4, "d": "harmonic"}]},
     "^K must be a number, got True$"),
    ({"K": "2", "depth": 1, "levels": [{"M": 4, "d": "harmonic"}]},
     "^K must be a number, got '2'$"),
    ({"K": 2, "depth": True, "levels": [{"M": 4, "d": "harmonic"}]},
     "^depth must be an integer, got True$"),
    ({"K": 2, "depth": 1, "seed": "0", "levels": [{"M": 4, "d": "harmonic"}]},
     "^seed must be an integer, got '0'$"),
    ({"K": 2, "depth": 1, "levels": [{"M": False, "d": "harmonic"}]},
     "^level 1: M must be an integer, got False$"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": "harmonic", "eps": True}]},
     "^level 1: eps must be a number, got True$"),
    ({"K": 2, "depth": 1, "levels": [{"M": 4, "d": {"sharpness_q": "2.5"}}]},
     "^level 1: sharpness_q must be a number, got '2.5'$"),
])
def test_schedule_config_errors(cfg, msg):
    with pytest.raises(ConfigError, match=msg):
        schedules_from_config(cfg)


def test_schedule_config_reads_integral_floats_as_integers():
    levels = [{"M": 4, "d": "harmonic"}] * 2
    want = schedules_from_config({"K": 2, "depth": 2, "seed": 3, "levels": levels})
    got = schedules_from_config({"K": 2, "depth": 2.0, "seed": 3.0,
                                 "levels": [{"M": 4.0, "d": "harmonic"}] * 2})
    assert got == want
    assert type(got[1]) is type(got[2]) is type(got[0][0].branching) is int


@pytest.mark.parametrize("K", [-1.0, 0.5])
@pytest.mark.parametrize("levels", [[], [{"M": 4, "d": "harmonic"}]])
def test_schedule_config_rejects_bad_k_at_any_depth(K, levels):
    cfg = {"K": K, "depth": len(levels), "levels": levels}
    with pytest.raises(ConfigError) as info:
        schedules_from_config(cfg)
    assert str(info.value) == f"distortion K must be >= 1, got {K} (K must also be finite)"


def test_huge_branching_with_eps_keeps_the_area_fraction():
    # M beyond the float range: M*R^2 = 1 - eps still holds, in log space
    (lv,), _, _ = schedules_from_config({"K": 2, "depth": 1,
                                         "levels": [{"M": 10**400, "d": 1.0, "eps": 0.5}]})
    assert lv.log_keep == pytest.approx(math.log(0.5), rel=1e-12)


def test_depth_zero_tree_keeps_k():
    # K comes from every level supplied, not only from the first depth levels
    tree = build_tree(harmonic_schedule(2.0, 3), 0)
    assert tree.K == 2.0 and tree.scaled(3.0).K == 2.0
    with pytest.raises(ConstructionError, match="share one distortion K"):
        build_tree(harmonic_schedule(2.0, 1) + harmonic_schedule(3.0, 2)[1:], 1)


_CUMULATIVE = ("cum_log_t", "cum_log_s", "cum_log_mass", "cum_log_d", "cum_log_keep")


def _cumulative_loop(levels):
    """Reference copy of the tree's first cumulative fill: one addition per level."""
    cum = {name: np.zeros(len(levels) + 1) for name in _CUMULATIVE}
    for g, lv in enumerate(levels, start=1):
        steps = (lv.log_target_step, lv.log_source_step, 2.0 * lv.log_protect,
                 math.log(lv.multiplier), lv.log_keep)
        for name, step in zip(_CUMULATIVE, steps):
            cum[name][g] = cum[name][g - 1] + step
    return cum


_SWEEP_LEVELS = {
    "harmonic": lambda: harmonic_schedule(2.0, 40),
    "sharpness": lambda: sharpness_schedule(3.0, 2.5, 40, branching=3),
    "shrunk": lambda: shrunk_schedule(2.0, 12, lambda n: -float((n + 1) ** 3)),
    "doubly-exponential": lambda: doubly_exponential_schedule(2.5, 12),
    "explicit-eps": lambda: harmonic_schedule(1.5, 40, branching=3, eps=0.99993),
}


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("kind", sorted(_SWEEP_LEVELS))
def test_prefix_equals_the_tree_built_at_its_depth(kind, scale):
    levels = _SWEEP_LEVELS[kind]()
    full = build_tree(levels, len(levels), seed=3, scale=scale)
    for depth in range(len(levels) + 1):
        tree, want = full.prefix(depth), build_tree(levels, depth, seed=3, scale=scale)
        ref = _cumulative_loop(levels[:depth])
        for name in _CUMULATIVE:
            got = getattr(tree, name)
            assert np.array_equal(got, getattr(want, name)) and np.array_equal(got, ref[name])
        assert (tree.depth, tree.schedules, tree.node_counts, tree.seed, tree.scale, tree.K) \
            == (want.depth, want.schedules, want.node_counts, want.seed, want.scale, want.K)
        assert tree.log_total_mass() == want.log_total_mass()
        assert tree.scaled(2.0).cum_log_s.tolist() == want.scaled(2.0).cum_log_s.tolist()


def test_node_counts_are_formed_on_first_use_and_prefixes_slice_them():
    levels = harmonic_schedule(2.0, 9, branching=3)
    full = build_tree(levels, 9)
    assert "node_counts" not in vars(full)
    lazy = full.prefix(5)
    assert "node_counts" not in vars(lazy) and lazy.node_counts == (1, 3, 9, 27, 81, 243)
    assert full.n_leaves == 3 ** 9
    formed = full.prefix(5)
    assert vars(formed)["node_counts"] == lazy.node_counts  # sliced, not formed again


def test_log_node_counts_are_the_logs_of_the_exact_counts():
    # mixed branching, 1 to 7 children, to depth 64: a float cumsum of log M_k
    cfg = {"K": 2, "depth": 64, "seed": 0,
           "levels": [{"M": (3, 1, 2, 4, 7, 5)[g % 6], "d": "harmonic"} for g in range(64)]}
    schedules, depth, _ = schedules_from_config(cfg)
    tree = build_tree(schedules, depth)
    for g in range(depth + 1):
        want = math.log(tree.n_nodes(g))
        assert abs(float(tree.log_node_counts[g]) - want) <= 1e-14 * want
    assert np.array_equal(tree.prefix(17).log_node_counts, tree.log_node_counts[:18])


def test_prefix_shares_read_only_arrays():
    full = build_tree(harmonic_schedule(2.0, 6), 6)
    tree = full.prefix(3)
    assert np.shares_memory(tree.cum_log_t, full.cum_log_t)
    with pytest.raises(ValueError):
        tree.cum_log_t[1] = 0.0
    for depth in (-1, 7):
        with pytest.raises(ConstructionError, match=f"prefix depth {depth} outside 0..6"):
            full.prefix(depth)
