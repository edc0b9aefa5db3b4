"""The flat-cloud kernels give the same bits for any block budget, on the
calling thread, through one atom route.

direct_capacity_lower, eps_mu_a, riesz_potential and PlanarMeasure.diameter
run their distance rows in blocks of the scratch budget, and menger_curvature
draws its triples in blocks; none of this may change a value.  The first
three reach the atoms through measure._kernel_sums alone: leaf blocks where
the measure has them and every weight is positive, the atoms of positive
weight otherwise.
"""
import json
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcantor import capacity as capacity_mod
from qcantor import gauges
from qcantor import measure as measure_mod
from qcantor.capacity import FARFIELD_FACTOR, CapacityIndices, direct_capacity_lower
from qcantor.cantor import SIDES, SOURCE, build_tree, harmonic_schedule
from qcantor.cli import main
from qcantor.gauges import eps_mu_a
from qcantor.measure import PlanarMeasure
from qcantor.potentials import _CappedPower, menger_curvature, riesz_potential, wolff_dyadic

import support


def _set_budget(monkeypatch, budget=None):
    if budget is not None:
        monkeypatch.setattr(measure_mod, "BLOCK_ELEMENTS", budget)


@pytest.fixture(scope="module")
def cloud():
    """A 256-atom realized cloud (depth-3 harmonic tree, 4 atoms per leaf),
    which carries its leaf blocks."""
    tree = build_tree(harmonic_schedule(2.0, 3), 3, seed=4)
    return tree.realize(seed=4, samples_per_leaf=4).measure(SOURCE)


@pytest.fixture(scope="module")
def flat(cloud):
    """The same atoms without blocks: the flat route."""
    return support.without_blocks(cloud)


@pytest.fixture()
def config_path(tmp_path):
    cfg = {"K": 2, "depth": 3, "seed": 7, "levels": [{"M": 4, "d": "harmonic"}] * 3}
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _outputs(cloud, flat, config_path, out):
    lam = [direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5),
                                 cells=16).normalization["lambda"] for mu in (cloud, flat)]
    curv = menger_curvature(cloud, triples=3000, seed=2)
    assert main(["check-gauge", "--config", config_path, "--side", "target",
                 "--samples-per-leaf", "3", "--pairs", "40", "--out", out]) == 0
    with open(out, "rb") as f:
        gauge = f.read()
    # three atoms per leaf: the quadrature sums leaf centroid expansions
    assert main(["capacity", "--config", config_path, "--side", "target",
                 "--samples-per-leaf", "3", "--estimator", "direct", "--alpha", "0.8",
                 "--p", "1.6", "--cells", "16", "--out", out]) == 0
    with open(out, "rb") as f:
        quadrature = f.read()
    # a collinear cloud's two-vertex hull keeps all 300 atoms: 300 distance rows
    segment = support.uniform_segment(300).diameter()
    return (lam, (curv.value, curv.stderr, curv.sup_pointwise), gauge, quadrature,
            cloud.diameter(), segment, riesz_potential(cloud, (2.0, 0.0), 1.0))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", [None, 1000, 1])
def test_outputs_do_not_depend_on_workers_or_block_budget(cloud, flat, config_path, tmp_path,
                                                          monkeypatch, workers, budget):
    """Under any block budget, each of `workers` caller threads running the
    kernels at once gets the single caller's bits: the rows share no state
    between calls."""
    want = _outputs(cloud, flat, config_path, str(tmp_path / "want.json"))
    _set_budget(monkeypatch, budget)
    got = [None] * workers

    def run(i):
        got[i] = _outputs(cloud, flat, config_path, str(tmp_path / f"got{i}.json"))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * workers


def _one_shot_curvature(measure, triples, seed):
    """Reference copy of the sampled estimator before blocking: one draw of
    all the triples, then the pointwise sup from the same generator."""
    n, pts, w = measure.n_atoms, measure.points, measure.weights
    total = measure.total_mass
    rng = np.random.default_rng(seed)
    prob = w / total
    idx = rng.choice(n, size=(int(triples), 3), p=prob)
    i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
    distinct = (i != j) & (j != k) & (i != k)
    vals = np.where(distinct, support.inv_circumradius_sq(pts[i], pts[j], pts[k]), 0.0)
    scale = total ** 3
    value = scale * float(np.mean(vals))
    stderr = scale * float(np.std(vals)) / math.sqrt(len(vals))
    queries = rng.choice(n, size=min(16, n), replace=False, p=prob)
    m = max(2000, int(triples) // 64)
    sup = 0.0
    for qi in queries:
        jj = rng.choice(n, size=m, p=prob)
        kk = rng.choice(n, size=m, p=prob)
        ok = (jj != kk) & (jj != qi) & (kk != qi)
        v = np.where(ok, support.inv_circumradius_sq(pts[qi][None, :], pts[jj], pts[kk]), 0.0)
        sup = max(sup, total ** 2 * float(np.mean(v)))
    return value, stderr, sup


@pytest.mark.parametrize("triples", [70, 300, 250])  # below a block, 3 blocks, 2.5 blocks
def test_blocked_curvature_equals_one_shot_draw(cloud, monkeypatch, triples):
    _set_budget(monkeypatch, 6 * 100)  # 100 triples per block
    est = menger_curvature(cloud, triples=triples, seed=9)
    assert (est.value, est.stderr, est.sup_pointwise) == _one_shot_curvature(cloud, triples, 9)



@pytest.mark.parametrize("budget", [15 * 7, 15 * 5000, 15 * 3 * 4096])
def test_curvature_over_several_chunks_does_not_depend_on_block_budget(cloud, monkeypatch,
                                                                       budget):
    # blocks of one chunk (7 and 5000 triples round to 4096) and of three
    want = menger_curvature(cloud, triples=10_000, seed=5)
    _set_budget(monkeypatch, budget)
    assert menger_curvature(cloud, triples=10_000, seed=5) == want


@pytest.mark.parametrize("weights", ["skewed", "zeros"])
def test_curvature_on_uneven_weights_equals_one_shot_draw(cloud, monkeypatch, weights):
    _set_budget(monkeypatch, 6 * 100)
    n = cloud.n_atoms
    if weights == "skewed":  # 0.999 of the mass on atom 0: the rest of the cdf
        w = np.full(n, 1e-3 / (n - 1))  # shares one guide bucket
        w[0] = 0.999
    else:
        w = np.where(np.arange(n) % 4 == 1, 0.0, cloud.weights)
    mu = PlanarMeasure(cloud.points, w)
    est = menger_curvature(mu, triples=3000, seed=6)
    assert (est.value, est.stderr, est.sup_pointwise) == _one_shot_curvature(mu, 3000, 6)

def _eps_reference(measure, x, t, a):
    """The single-ball formula: distances, psi_a, weighted sum, over t."""
    d = measure.distances(x)
    with np.errstate(over="ignore"):
        return float(np.sum(measure.weights * (1.0 / ((d / t) ** (1.0 + a) + 1.0))) / t)


def _check_batched_eps(mu, monkeypatch, a):
    """Batched calls give each ball the single-ball value, bit for bit; the
    flat route is the single-ball formula itself, and the leaf route is
    within 2^-53 of it per leaf, plus rounding."""
    _set_budget(monkeypatch, 3 * mu.n_atoms)
    rng = np.random.default_rng(1)
    centres = np.vstack([rng.uniform(-1.0, 1.0, size=(37, 2)), mu.points[:3]])
    radii = np.exp(rng.uniform(-9.0, 2.0, size=centres.shape[0]))
    many = eps_mu_a(mu, centres, radii, a)
    chain = eps_mu_a(mu, centres[0], radii, a)
    one_radius = eps_mu_a(mu, centres, radii[0], a)
    assert many.shape == chain.shape == one_radius.shape == (centres.shape[0],)
    for i, (x, t) in enumerate(zip(centres, radii)):
        single = eps_mu_a(mu, x, t, a)
        assert isinstance(single, float)
        if mu.blocks is None:
            assert single == _eps_reference(mu, x, t, a)
        else:
            assert single == pytest.approx(_eps_reference(mu, x, t, a), rel=1e-12, abs=0.0)
        assert many[i] == single
        assert chain[i] == eps_mu_a(mu, centres[0], t, a)
        assert one_radius[i] == eps_mu_a(mu, x, radii[0], a)


@pytest.mark.parametrize("a", [0.1, 1.0, 2.5])
def test_batched_eps_equals_single_ball_calls(flat, monkeypatch, a):
    _check_batched_eps(flat, monkeypatch, a)


@pytest.mark.parametrize("a", [0.1, 1.0, 2.5])
def test_batched_leaf_eps_equals_single_ball_calls(cloud, monkeypatch, a):
    _check_batched_eps(cloud, monkeypatch, a)


def _square_with_atom_on_cell_centre(cells):
    """Corner atoms and one atom exactly on a cell centre of the quadrature grid."""
    corners = np.array([[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    base = PlanarMeasure(corners, np.ones(4))
    center, r_far = base.support_center(), FARFIELD_FACTOR * base.diameter()
    h = 2.0 * r_far / cells
    ax = center[0] - r_far + h * (np.arange(cells) + 0.5)
    ay = center[1] - r_far + h * (np.arange(cells) + 0.5)
    x, y = ax[np.argmin(np.abs(ax))], ay[np.argmin(np.abs(ay))]
    return PlanarMeasure(np.vstack([corners, [[x, y]]]), np.full(5, 0.2))


@pytest.mark.filterwarnings("error")
def test_flat_kernels_keep_the_calling_threads_errstate(monkeypatch):
    # 0^-s and psi_a past the doubles raise no floating-point warning
    _set_budget(monkeypatch, 5)  # one cell per block
    mu = _square_with_atom_on_cell_centre(16)
    est = direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5), cells=16)
    assert math.isfinite(est.value) and est.value > 0
    # (|y - x| / t)^(1 + a) past the doubles: psi_a reads 0 but for the atom at x
    eps = eps_mu_a(mu, mu.points[[4] * 8], 1e-300, 1.0)
    assert np.array_equal(eps, np.full(8, 0.2 / 1e-300))


def test_dyadic_terms_are_the_exponentials_of_their_log_terms():
    # the two-atom measure's log terms reach -6907: its entries underflow to 0
    mu = PlanarMeasure(np.array([[1.0, 0.0], [1.5, 0.0]]), np.array([1e-3, 1e-3]))
    for alpha, p in ((0.5, 1.001), (2.0 / 3.0, 1.5)):
        prof = wolff_dyadic(mu, (0.0, 0.0), alpha, p, -4, 2)
        assert all(math.exp(x) == c for x, (_, c) in zip(prof.log_terms, prof.entries))
    prof = wolff_dyadic(mu, (0.0, 0.0), 0.5, 1.001, -4, 2)
    assert prof.total == 0.0 and prof.tail == 0.0


class _CountingKernel:
    """A kernel that records the (rows, blocks) shape of every expansion it forms."""

    def __init__(self, kernel):
        self.kernel, self.radius, self.power = kernel, kernel.radius, kernel.power
        self.expanded = []

    def atoms(self, d, rows):
        self.kernel.atoms(d, rows)

    def expand(self, u, *args):
        self.expanded.append(u.shape)
        return self.kernel.expand(u, *args)


@pytest.mark.parametrize("budget", [None, 64, 1])
def test_each_row_is_expanded_only_at_the_generation_that_serves_it(cloud, monkeypatch,
                                                                    budget):
    _set_budget(monkeypatch, budget)
    leaves = cloud.blocks[-1]
    rho = float(leaves.radii.max())
    # far away (the root serves), a few leaf radii off a leaf, and on atoms (the leaves)
    centres = np.vstack([[[3.0, 0.0], [0.0, -5.0]], leaves.centroids[::7] + 3.0 * rho,
                         cloud.points[::37], [[0.5, 0.25], [-0.2, 0.1]]])
    kernel = _CountingKernel(_CappedPower(1.0, math.inf))
    vals, _ = measure_mod._leaf_sums(cloud, centres, kernel)
    assert sum(rows for rows, _ in kernel.expanded) == centres.shape[0]
    assert len({blocks for _, blocks in kernel.expanded}) >= 3  # served at three generations
    single = [measure_mod._leaf_sums(cloud, c[None], kernel)[0][0] for c in centres]
    assert np.array_equal(vals, single)  # a row's value is its own, bit for bit


@settings(max_examples=40, deadline=None, derandomize=True)
@given(K=st.sampled_from([1.5, 2.0, 3.0]), depth=st.integers(1, 3),
       spl=st.sampled_from([2, 4, 16, 64]), side=st.sampled_from(SIDES), seed=st.integers(0, 3),
       budget=st.sampled_from([measure_mod.EXPANSION_BUDGET, 2.0 ** -30, 2.0 ** -16]),
       a=st.sampled_from([0.1, 1.0, 3.0]))
def test_leaf_sums_bound_is_the_largest_share_of_the_generations_that_serve(
        K, depth, spl, side, seed, budget, a):
    # the bound against a per-row array of shares, each row's taken at the
    # generation that serves it: the quadrature's cells, eps_mu_a balls and
    # Riesz points on atoms, a few block radii off each generation's blocks
    # and far off
    tree = build_tree(harmonic_schedule(K, depth), depth, seed=seed)
    mu = tree.realize(seed=seed, samples_per_leaf=spl).measure(side)
    off = [b.centroids + f * b.radii[:, None] for b in mu.blocks for f in (3.0, 30.0)]
    points = np.vstack([mu.points[::7], *off, [[3.0, 0.0], [0.0, -1e7]]])
    radii = np.geomspace(mu.blocks[-1].radii.min(), 10.0, len(points))[:, None]
    calls, kernel_sums = [], capacity_mod._kernel_sums

    def spy(measure, centres, kernel):
        calls.append((centres, kernel))
        return kernel_sums(measure, centres, kernel)

    with mock.patch.object(measure_mod, "EXPANSION_BUDGET", budget), \
            mock.patch.object(capacity_mod, "_kernel_sums", spy):
        est = direct_capacity_lower(mu, CapacityIndices(2.0 / 3.0, 1.5), cells=32)
        (cells, kernel), = calls
        assert est.normalization["expansion_bound"] == support.leaf_sums_bound(mu, cells, kernel)
        bounds = []
        for kernel in (gauges._PsiKernel(a, radii), _CappedPower(1.0, math.inf)):
            bounds.append(measure_mod._leaf_sums(mu, points, kernel)[1])
            assert bounds[-1] == support.leaf_sums_bound(mu, points, kernel)
    if budget == 2.0 ** -16:
        assert min(bounds) > 0.0  # shares far above rounding are taken


#: each flat kernel at a few queries: eps_mu_a at many balls and at one centre's
#: radii, the quadrature's cells, and riesz at a point off the cloud and on an atom
FLAT_KERNELS = {
    "eps_mu_a": lambda mu: (eps_mu_a(mu, mu.points[::5], 0.05, 1.0),
                            eps_mu_a(mu, mu.points[3], np.geomspace(1e-3, 1.0, 40), 1.0)),
    "direct_capacity_lower": lambda mu: direct_capacity_lower(
        mu, CapacityIndices(2.0 / 3.0, 1.5), cells=16).normalization,
    "riesz_potential": lambda mu: (riesz_potential(mu, (2.0, 0.0), 1.0),
                                   riesz_potential(mu, mu.points[21], 1.0)),
}


@pytest.mark.parametrize("kernel", sorted(FLAT_KERNELS))
def test_flat_kernels_run_on_the_calling_thread(cloud, flat, monkeypatch, kernel):
    """Every kernel evaluation runs on the calling thread, and no thread is started."""
    calls = []
    for cls in (gauges._PsiKernel, _CappedPower):
        for name in ("atoms", "expand"):
            def record(self, *args, _method=getattr(cls, name)):
                calls.append((threading.get_ident(), threading.active_count()))
                return _method(self, *args)
            monkeypatch.setattr(cls, name, record)
    _set_budget(monkeypatch, 64)  # a few distance rows per block: many blocks
    before = threading.active_count()
    for mu in (cloud, flat):
        FLAT_KERNELS[kernel](mu)
    assert calls and set(calls) == {(threading.get_ident(), before)}
    assert threading.active_count() == before


@pytest.mark.parametrize("kernel", sorted(FLAT_KERNELS))
def test_zero_weight_atoms_take_the_atom_route(cloud, kernel):
    """On blocks with a dead leaf a flat kernel sums the live atoms, bit for bit
    as without blocks; riesz is finite at a dead atom, and no expansion bound
    is recorded."""
    w = cloud.weights.copy()
    w[20:24] = 0.0  # leaf 5, which holds the atom riesz is taken at
    # coarser blocks would hold unequal weights: the leaves alone
    blocked = PlanarMeasure(cloud.points, w, blocks=cloud.blocks[-1:])
    got, want = FLAT_KERNELS[kernel](blocked), FLAT_KERNELS[kernel](PlanarMeasure(cloud.points, w))
    if kernel == "eps_mu_a":
        assert all(np.array_equal(g, v) for g, v in zip(got, want))
    else:
        assert got == want
    if kernel == "riesz_potential":
        assert all(map(math.isfinite, got))
    if kernel == "direct_capacity_lower":
        assert "expansion_bound" not in got
