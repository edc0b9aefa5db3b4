import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcantor.cantor import SOURCE, TARGET, build_tree, harmonic_schedule
from qcantor import measure as measure_mod
from qcantor.measure import PlanarMeasure

import support

# integer grid points tie many distances; weights k/8 with k <= 8 keep every
# partial sum exact, so both routes must agree bit for bit in any order
_atoms = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 8)),
                  min_size=1, max_size=30)
_center = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=100, deadline=None)
@given(_atoms, _center, st.lists(st.integers(0, 1000), max_size=8))
def test_ball_mass_profile_equals_ball_mass(atoms, center, picks):
    mu = PlanarMeasure(np.array([(x, y) for x, y, _ in atoms], dtype=float),
                       np.array([k / 8.0 for _, _, k in atoms]))
    d = np.unique(mu.distances(center))
    # exact atom distances (closed-ball ties), the gaps between them, and
    # radii below and above the support
    chosen = [d[i % len(d)] for i in picks]
    gaps = list((d[:-1] + d[1:]) / 2.0)
    radii = np.sort(np.array([0.0, d[0] / 2.0, *chosen, *gaps, 2.0 * d[-1] + 1.0]))
    got = mu.ball_mass_profile(center, radii)
    want = [mu.ball_mass(center, r) for r in radii]
    assert got.tolist() == want


def _diameter_oracle(pts):
    """Largest hypot of coordinate differences over all n^2 ordered pairs,
    256 rows at a time."""
    best = 0.0
    for i in range(0, len(pts), 256):
        d = pts[i:i + 256, None, :] - pts[None, :, :]
        best = max(best, float(np.max(np.hypot(d[..., 0], d[..., 1]))))
    return best


def _realized_cloud(side):
    """A depth-3 harmonic cloud at 64 atoms per leaf: 4,096 atoms in 64 tight
    clusters, most of them inside the octagon of the extreme atoms."""
    tree = build_tree(harmonic_schedule(2.0, 3), 3, seed=0)
    return tree.realize(seed=0, samples_per_leaf=64).measure(side).points


_grid = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=40)


@st.composite
def _clouds(draw):
    """Grid points (duplicates, collinear runs), lines, and tight clusters,
    scaled and offset, then moved by a few ulps per coordinate."""
    kind = draw(st.sampled_from(["grid", "line", "clusters"]))
    base = np.array(draw(_grid), dtype=float).reshape(-1, 2)
    if kind == "line":
        base = base[:, :1] * np.array([[1.0, draw(st.sampled_from([0.0, 0.5, 3.0]))]])
    elif kind == "clusters":
        base = np.repeat(base, 3, axis=0) + draw(st.sampled_from([1e-12, 1e-9])) * \
            np.tile([[0.0, 0.0], [1.0, 0.3], [-0.4, 1.0]], (len(base), 1))
    pts = base * draw(st.sampled_from([1.0, 0.1, 1e-7, 3e5])) + \
        draw(st.sampled_from([0.0, 0.7, -1e4]))
    ulps = np.array(draw(st.lists(st.integers(-3, 3), min_size=pts.size,
                                  max_size=pts.size)), dtype=float).reshape(pts.shape)
    return pts + ulps * np.spacing(pts)


@settings(max_examples=300, deadline=None)
@given(_clouds())
@example(np.zeros((0, 2)))
@example(np.array([[0.5, -2.0]]))
@example(np.array([[0.5, -2.0], [0.5, -2.0]]))
@example(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
@example(np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 1e-300]]))
@example(_realized_cloud(SOURCE))
@example(_realized_cloud(TARGET))
def test_diameter_equals_pairwise_oracle(pts):
    mu = PlanarMeasure(pts, np.ones(len(pts)))
    assert mu.diameter() == _diameter_oracle(mu.points)


def test_zero_atom_constructors_give_empty_measures():
    for mu in (support.uniform_disk(0), support.uniform_segment(0)):
        assert mu.n_atoms == 0
        assert mu.points.shape == (0, 2)
        assert mu.total_mass == 0.0
        assert mu.diameter() == 0.0


# -- whole-leaf ball masses ------------------------------------------------------


@pytest.mark.parametrize("depth,spl", [(1, 64), (2, 16), (3, 4), (3, 64)])
@pytest.mark.parametrize("side", [SOURCE, TARGET])
def test_leaf_ball_mass_profile_counts_equal_flat(side, depth, spl):
    real = build_tree(harmonic_schedule(2.0, depth), depth, seed=depth).realize(
        seed=depth, samples_per_leaf=spl)
    mu = real.measure(side)
    blocks = mu.blocks[-1]
    # unit weights keep every partial sum exact, so the masses are the counts
    ones = PlanarMeasure(mu.points, np.ones(mu.n_atoms), blocks=mu.blocks)
    flat_ones, flat = (PlanarMeasure(mu.points, w) for w in (ones.weights, mu.weights))
    rng = np.random.default_rng(depth)
    lo, hi = mu.points.min(axis=0), mu.points.max(axis=0)
    centres = np.vstack([mu.points[rng.choice(mu.n_atoms, 6, replace=False)],
                         blocks.centroids[rng.choice(len(blocks.centroids), 3, replace=False)],
                         rng.uniform(lo, hi, size=(3, 2))])
    for x in centres:
        d = flat.distances(x)
        u = np.hypot(*(blocks.centroids - x).T)
        # computed atom distances (closed-ball ties) and their neighbouring
        # doubles, the leaves' own edges u -+ rho, and dyadic radii
        picks = d[rng.choice(mu.n_atoms, 16, replace=False)]
        edges = np.concatenate([u - blocks.radii, u + blocks.radii])
        radii = np.concatenate([[0.0], picks, np.nextafter(picks, 0.0), np.nextafter(picks, 9.0),
                                edges[edges > 0], 2.0 ** np.arange(-60.0, 2.0)])
        rng.shuffle(radii)
        assert np.array_equal(ones.ball_mass_profile(x, radii),
                              flat_ones.ball_mass_profile(x, radii))
        np.testing.assert_allclose(mu.ball_mass_profile(x, radii),
                                   flat.ball_mass_profile(x, radii), rtol=1e-12, atol=0.0)


def test_leaf_blocks_of_one_atom_are_dropped():
    mu = support.uniform_disk(12, seed=2)
    for atoms, kept in ((1, None), (3, 3)):
        blocks = PlanarMeasure(mu.points, mu.weights,
                               blocks=(support.leaf_blocks(mu, atoms),)).blocks
        assert (blocks and blocks[-1].atoms) == kept


def _harmonic_cloud():
    """The depth-3 K = 2 harmonic target cloud, 16 atoms per leaf."""
    return build_tree(harmonic_schedule(2.0, 3), 3, seed=1).realize(
        seed=1, samples_per_leaf=16).measure(TARGET)


def _edited(blocks, g, name, edit):
    """blocks with edit applied to a copy of the named array of generation g."""
    blocks = list(blocks)
    blocks[g] = blocks[g]._replace(**{name: edit(getattr(blocks[g], name).copy())})
    return tuple(blocks)


def _leaves(mu, name, edit):
    """mu's leaf blocks alone, with edit applied to a copy of the named array."""
    return _edited(mu.blocks[-1:], 0, name, edit)


def _set(index, value):
    def edit(arr):
        arr[index] = value
        return arr
    return edit


def test_blocks_with_nan_radii_are_refused():
    mu = _harmonic_cloud()
    assert PlanarMeasure(mu.points, mu.weights, blocks=mu.blocks[-1:]).diameter() == \
        support.without_blocks(mu).diameter()
    with pytest.raises(ValueError, match="level 0: radii must be finite"):
        PlanarMeasure(mu.points, mu.weights, blocks=_leaves(mu, "radii", _set(..., np.nan)))


#: malformed blocks of the harmonic cloud, and the message that refuses them
MALFORMED_BLOCKS = {
    "nan-radii-at-level-2": (lambda mu: _edited(mu.blocks, 2, "radii", _set(..., np.nan)),
                             "level 2: radii must be finite"),
    "inf-centroid": (lambda mu: _leaves(mu, "centroids", _set((5, 1), np.inf)),
                     "level 0: centroids must be finite"),
    "nan-moment": (lambda mu: _leaves(mu, "moments", _set((5, 1), np.nan)),
                   "level 0: moments must be finite"),
    "negative-radius": (lambda mu: _leaves(mu, "radii", _set(3, -1e-3)),
                        "level 0: radii must be nonnegative"),
    "centroids-transposed": (lambda mu: _leaves(mu, "centroids", np.transpose),
                             "level 0: centroids has shape"),
    "moments-two-columns": (lambda mu: _leaves(mu, "moments", lambda a: a[:, :2]),
                            "level 0: moments has shape"),
    "radii-a-column": (lambda mu: _leaves(mu, "radii", lambda a: a[:, None]),
                       "level 0: radii has shape"),
    "radii-one-short": (lambda mu: _leaves(mu, "radii", lambda a: a[:-1]),
                        "level 0: radii has shape"),
    # a bare LeafBlocks is itself a tuple, of arrays
    "bare-leaf-blocks": (lambda mu: mu.blocks[-1], "level 0 is not a LeafBlocks"),
    "empty": (lambda mu: (), "at least one generation"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
def test_malformed_blocks_are_refused(case):
    mu = _harmonic_cloud()
    blocks, message = MALFORMED_BLOCKS[case]
    with pytest.raises(ValueError, match=message):
        PlanarMeasure(mu.points, mu.weights, blocks=blocks(mu))


@pytest.mark.parametrize("depth,spl", [(1, 64), (3, 4), (3, 64)])
@pytest.mark.parametrize("side", [SOURCE, TARGET])
def test_batched_ball_mass_profile_rows_equal_single_calls(monkeypatch, side, depth, spl):
    mu = build_tree(harmonic_schedule(2.0, depth), depth, seed=depth).realize(
        seed=depth, samples_per_leaf=spl).measure(side)
    ones = PlanarMeasure(mu.points, np.ones(mu.n_atoms), blocks=mu.blocks)
    flat_ones = support.without_blocks(ones)
    rng = np.random.default_rng(depth)
    lo, hi = mu.points.min(axis=0), mu.points.max(axis=0)
    centres = np.vstack([mu.points[rng.choice(mu.n_atoms, 5, replace=False)],
                         mu.blocks[-1].centroids[:3], rng.uniform(lo, hi, size=(3, 2))])
    d = mu.distances(centres[0])
    radii = np.concatenate([d[rng.choice(mu.n_atoms, 8, replace=False)],
                            2.0 ** np.arange(-50.0, -2.0)])
    rng.shuffle(radii)
    radii = radii.reshape(8, -1)
    # three centres per batch of rows
    monkeypatch.setattr(measure_mod, "BLOCK_ELEMENTS", 6 * mu.n_atoms)
    for m in (mu, support.without_blocks(mu), ones, flat_ones):
        batch = m.ball_mass_profile(centres, radii)
        assert batch.shape == (len(centres),) + radii.shape
        for row, x in zip(batch, centres):
            assert np.array_equal(row, m.ball_mass_profile(x, radii))
    # unit weights: every mass is a count, and the counts are the flat ones
    assert np.array_equal(ones.ball_mass_profile(centres, radii),
                          flat_ones.ball_mass_profile(centres, radii))


def _blocked(mu, atoms):
    return PlanarMeasure(mu.points, mu.weights, blocks=(support.leaf_blocks(mu, atoms),))


@pytest.mark.parametrize("depth,spl", [(1, 64), (2, 16), (3, 4), (3, 64), (3, 128)])
@pytest.mark.parametrize("side", [SOURCE, TARGET])
def test_blocked_diameter_equals_hull_diameter(side, depth, spl):
    for seed in (0, 1, 2, 3):
        mu = build_tree(harmonic_schedule(2.0, depth), depth, seed=seed).realize(
            seed=seed, samples_per_leaf=spl).measure(side)
        assert mu.blocks is not None
        assert mu.diameter() == support.without_blocks(mu).diameter()


def test_blocked_diameter_of_overlapping_and_collinear_leaves():
    # leaves that overlap, and a segment whose leaves all lie on one line
    for mu in (support.uniform_disk(600, seed=4), support.uniform_segment(300)):
        for atoms in (3, 20, 300):
            blocked = _blocked(mu, atoms)
            assert blocked.diameter() == _diameter_oracle(mu.points)


def test_blocked_diameter_reached_by_a_wide_leaf():
    # the farthest centroids are those of the two narrow leaves, 6.73 apart,
    # but an end of the wide leaf lies 8.01 from an atom of the first
    shape = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pts = np.vstack([3.0 * shape, [5.0, 0.0] + 0.01 * shape, [0.0, 4.5] + 0.01 * shape])
    mu = _blocked(PlanarMeasure(pts, np.ones(12)), 4)
    assert mu.diameter() == _diameter_oracle(mu.points) == pytest.approx(8.01)
