import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcantor.measure import PlanarMeasure

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
