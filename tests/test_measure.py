import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcantor.cantor import SOURCE, TARGET, build_tree, harmonic_schedule
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
