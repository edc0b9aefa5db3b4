"""Fixtures and oracles that only the tests use: test clouds, drawn trees, a
hand-set node gauge, absolute node centres, node paths and leaf ranges, reference
realization frames, every generation's eps, the reference leaf-sum bound, the
brute-force content, the reference content DP, circumradii and dyadic growth and
curvature surrogates."""
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from qcantor import cantor
from qcantor import measure as measure_mod
from qcantor.measure import LeafBlocks, PlanarMeasure, _taylor
from qcantor.potentials import (DIVERGENCE_FRACTION, DIVERGENCE_RUN, _inv_r2, _scale_x,
                                line_fit)


def uniform_disk(n, seed=0):
    """n equal atoms sampled uniformly (by area) in the unit disk."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(size=n))
    th = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return PlanarMeasure(pts, np.full(n, 1.0) / n, label=f"uniform_disk(n={n},seed={seed})")


def uniform_segment(n):
    """n equal atoms at the midpoints of n equal subsegments of [0, 1] x {0}."""
    t = (np.arange(n) + 0.5) / n
    pts = np.stack([t, np.zeros(n)], axis=1)
    return PlanarMeasure(pts, np.full(n, 1.0) / n, label=f"uniform_segment(n={n})")


#: the most atoms a drawn tree realizes, so that each example stays fast
MAX_DRAWN_ATOMS = 2048


@st.composite
def drawn_trees(draw, max_depth=6):
    """(config, samples per leaf): a schedule config of depth at most
    max_depth, K up to 50, M in 1..40 per level (interior M = 1 levels
    included) while the atoms stay within MAX_DRAWN_ATOMS, and d harmonic or
    a number; 1, 2 or 4 samples per leaf."""
    depth, leaves, levels = draw(st.integers(0, max_depth)), 1, []
    for _ in range(depth):
        m = draw(st.one_of(st.just(1), st.integers(1, min(40, MAX_DRAWN_ATOMS // leaves))))
        leaves *= m
        levels.append({"M": m, "d": draw(st.one_of(st.just("harmonic"), st.floats(1.0, 3.0)))})
    spl = draw(st.sampled_from([s for s in (1, 2, 4) if leaves * s <= MAX_DRAWN_ATOMS]))
    K = draw(st.one_of(st.sampled_from([1.0, 1.1, 1.5, 2.0, 3.0, 50.0]), st.floats(1.0, 50.0)))
    return {"K": K, "depth": depth, "seed": draw(st.integers(0, 3)), "levels": levels}, spl


def realize_or_none(cfg, samples_per_leaf):
    """The config's realization, or None where it is refused (a level that
    does not pack, radii or masses past the doubles)."""
    try:
        schedules, depth, seed = cantor.schedules_from_config(cfg)
        tree = cantor.build_tree(schedules, depth, seed=seed)
        return tree.realize(seed=seed, samples_per_leaf=samples_per_leaf)
    except cantor.ConstructionError:
        return None


def without_blocks(measure):
    """The same atoms with no leaf blocks: every kernel takes its flat route."""
    return PlanarMeasure(measure.points, measure.weights, label=measure.label)


def leaf_blocks(measure, atoms):
    """LeafBlocks of a cloud whose leaves are its consecutive groups of
    ``atoms`` atoms, by direct sums over each group's points, the moments in
    LeafBlocks' format (sxx, 2 sxy, syy)."""
    pts = measure.points.reshape(-1, atoms, 2)
    centroids = pts.mean(axis=1)
    dx, dy = (pts - centroids[:, None]).transpose(2, 0, 1)
    moments = np.stack([(dx * dx).sum(axis=1), 2.0 * (dx * dy).sum(axis=1),
                        (dy * dy).sum(axis=1)], axis=1)
    return LeafBlocks(centroids, moments, np.hypot(dx, dy).max(axis=1), atoms)


def node_center(real, side, path):
    """Absolute centre of a realized node: the sum of its per-level offsets
    (meaningful to ~1e-16 of the coordinate size)."""
    c = np.zeros(2)
    for g in range(1, len(path) + 1):
        c = c + real._offsets[side][g][:, real.tree.node_index(path[:g])]
    return c


def paths_at(tree, generation):
    """All paths of a generation, in index order (an iterator)."""
    return itertools.product(*(range(tree.branching(g)) for g in range(1, generation + 1)))


def leaf_range(tree, path):
    """Half-open range of leaf indices below a node."""
    stride = tree.n_leaves // tree.node_counts[len(path)]
    idx = tree.node_index(path)
    return idx * stride, (idx + 1) * stride


def reference_frames(tree, seed, samples_per_leaf):
    """{side: [frame_0, ..., frame_depth]}: every atom relative to its
    generation-g ancestor, as (n_atoms, 2) rows, built generation by
    generation from the same seeded draws as a realization: the layouts
    rotated by stacked 2x2 matrices, then frame_g = frame_(g+1) plus the
    generation-(g + 1) offsets repeated over each node's atoms."""
    depth, s, counts = tree.depth, samples_per_leaf, tree.node_counts
    n_atoms = tree.n_leaves * s
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    offsets = {side: [None] for side in cantor.SIDES}
    for g in range(1, depth + 1):
        lv = tree.level(g)
        layout = cantor.pack_disks(lv.branching, lv.protect, seed=int(rng.integers(2**32)))
        phis = rng.uniform(0.0, 2.0 * np.pi, size=counts[g - 1])
        cos, sin = np.cos(phis), np.sin(phis)
        rot = np.stack([np.stack([cos, -sin], axis=-1),
                        np.stack([sin, cos], axis=-1)], axis=-2)
        units = np.einsum("pij,cj->pci", rot, layout).reshape(counts[g], 2)
        for side in cantor.SIDES:
            offsets[side].append(units * math.exp(tree.log_radius(side, g - 1)))
    if s == 1:
        unit_atoms = np.zeros((n_atoms, 2))
    else:
        r = np.sqrt(rng.uniform(size=n_atoms))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n_atoms)
        unit_atoms = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    frames = {}
    for side in cantor.SIDES:
        rel = [None] * (depth + 1)
        rel[depth] = unit_atoms * math.exp(tree.log_radius(side, depth))
        for g in range(depth - 1, -1, -1):
            rel[g] = rel[g + 1] + np.repeat(offsets[side][g + 1], n_atoms // counts[g + 1], axis=0)
        frames[side] = rel
    return frames


def eps_generations(real, side, a):
    """eps_mu_a of every node ball, one array per generation: each generation
    summed over every ring of its plan, the read-only array its fill holds."""
    return [real.eps_partial(side, a, g, math.inf)[0] for g in range(real.depth + 1)]


def leaf_sums_bound(measure, centres, kernel):
    """The largest remainder share ``measure._leaf_sums`` takes over the rows
    centres (rows, 2), from a per-row array of shares: generation by
    generation of ``measure.blocks``, each row not yet served is served where
    every block is admissible for it (at the leaves, always), and records the
    largest share among its admissible blocks there.  Distances, shares and
    admissibility are formed as ``measure._block_sums`` forms them."""
    power, radius = kernel.power, kernel.radius
    taylor, leaves = _taylor(power), len(measure.blocks) - 1
    shares, todo = np.zeros(len(centres)), np.ones(len(centres), dtype=bool)
    for g, blocks in enumerate(measure.blocks):
        rho = blocks.radii
        u = np.hypot(blocks.centroids[:, 0] - centres[:, 0:1],
                     blocks.centroids[:, 1] - centres[:, 1:2])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = rho / np.maximum(u - rho, radius)
            t = (2.0 * x + 1.0) ** power * x * x * x * taylor
        far = (u - rho > radius) & (t <= measure_mod.EXPANSION_BUDGET)
        serve = todo & (far.all(axis=1) | (g == leaves))
        shares[serve] = np.max(t, axis=1, where=far, initial=0.0)[serve]
        todo &= ~serve
    return float(shares.max(initial=0.0))


class TableGauge:
    """Explicit per-node h values of a tree, keyed by path; for hand-set gauges."""

    description = "table"

    def __init__(self, tree, table):
        self.tree = tree
        self.table = {tuple(k): float(v) for k, v in table.items()}

    def h_values(self):
        """h over every node of the tree, one array per generation 0..depth."""
        return [np.array([self.table[path] for path in paths_at(self.tree, g)], dtype=float)
                for g in range(self.tree.depth + 1)]

    def far_field_bound(self):
        """0: the table values are exact."""
        return 0.0


def content_by_enumeration(tree, table):
    """Min of sum h over all node subsets that cover every leaf.

    Every subset of the n nodes is listed by doubling: the subsets holding
    node i are those without it, each extended by i's leaves and h value.
    """
    nodes = [p for g in range(tree.depth + 1) for p in paths_at(tree, g)]
    leaves = list(paths_at(tree, tree.depth))
    cover, cost = np.zeros(1, dtype=np.int64), np.zeros(1)
    for node in nodes:
        bits = sum(1 << j for j, leaf in enumerate(leaves) if leaf[:len(node)] == node)
        cover = np.concatenate([cover, cover | bits])
        cost = np.concatenate([cost, cost + table[node]])
    return float(cost[cover == (1 << len(leaves)) - 1].min())


def content_reference(gauge):
    """(value, cover size) of the tree content over the gauge's full
    h_values(): the bottom-up min-cut, cost = min(h, sum of the children's
    cost) with a node's own ball winning ties, and the cover's size counted
    alongside, in the same numpy operations as the content DP."""
    tree, h = gauge.tree, gauge.h_values()
    cost, size = h[-1], np.ones(len(h[-1]), dtype=np.int64)
    for g in range(tree.depth - 1, -1, -1):
        m = tree.branching(g + 1)
        child = cost.reshape(-1, m).sum(axis=1)
        take = h[g] <= child
        cost = np.where(take, h[g], child)
        size = np.where(take, 1, size.reshape(-1, m).sum(axis=1))
    return float(cost[0]), int(size[0])


def inv_circumradius_sq(x, y, z):
    """1/R^2 of the triangles of the points x, y, z (..., 2), by _inv_r2."""
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    out = np.empty(np.broadcast_shapes(x.shape, y.shape, z.shape)[:-1])
    return _inv_r2(x[..., 0], x[..., 1], y[..., 0], y[..., 1], z[..., 0], z[..., 1], out)


def circumradius(x, y, z) -> float:
    """Radius of the circle through three points; inf when collinear."""
    inv_sq = float(inv_circumradius_sq(x, y, z))
    if inv_sq == 0.0:
        return math.inf
    return 1.0 / math.sqrt(inv_sq)


def linear_growth_constant(measure, k_min, k_max, points=None) -> float:
    """sup over sampled (x, 2^k) of mu(B(x, 2^k)) / 2^k.

    Evaluation at atom locations biases the sup upward, which is the safe
    direction for an admissibility constraint.
    """
    if measure.n_atoms == 0:
        raise ValueError("measure must be nonempty")
    if points is None:
        points = np.vstack([measure.points, measure.support_center()[None, :]])
    radii = np.power(2.0, np.arange(k_min, k_max + 1, dtype=float))
    best = 0.0
    for x in np.asarray(points, dtype=float):
        masses = measure.ball_mass_profile(x, radii)
        best = max(best, float(np.max(masses / radii)))
    return best


def dyadic_curvature_proxy(measure, x, k_min, k_max) -> float:
    """sum_k (mu(B(x, 2^k)) / 2^k)^2, the cheap upper surrogate for
    growth^2 + pointwise curvature."""
    radii = np.power(2.0, np.arange(k_min, k_max + 1, dtype=float))
    masses = measure.ball_mass_profile(x, radii)
    return float(np.sum((masses / radii) ** 2))


def sample_ball_pairs_loop(center, spread, n, seed, log_r_range=(-8.0, 0.0)):
    """Reference copy of ``gauges.sample_ball_pairs`` as a loop of numpy
    uniform draws, six per pair in the order x, x, log r, angle, length, s / r."""
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    pairs = []
    for _ in range(n):
        x = center + spread * rng.uniform(-1.0, 1.0, size=2)
        r = math.exp(rng.uniform(*log_r_range))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        rad = rng.uniform(0.0, 2.0 * r)
        y = x + rad * np.array([math.cos(phi), math.sin(phi)])
        s = r * rng.uniform(0.5, 2.0)
        pairs.append(((x, r), (y, s)))
    return pairs


def zeta_partial_sums(s, depth):
    """[sum over n = 1..N of (n+1)^-s, for N = 0..depth]: the running sums of the
    rounded terms, each carried exactly as hi + lo by math.fsum and rounded
    once, so each entry is within about 2^-104 of the exact sum of its terms."""
    hi = lo = 0.0
    sums = [0.0]
    for n in range(1, depth + 1):
        term = (n + 1.0) ** -s
        total = math.fsum((hi, lo, term))
        hi, lo = total, math.fsum((hi, lo, term, -total))
        sums.append(hi)
    return sums


def diagnose_divergence_running_first(labels, contributions, kind):
    """``potentials.diagnose_divergence`` as it was before the rising test went
    first: the running fractions are formed for every profile of at least
    DIVERGENCE_RUN + 2 scales."""
    n = len(contributions)
    if n < DIVERGENCE_RUN + 2:
        return False, None
    running = np.cumsum(contributions)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(running > 0, contributions / running, 0.0)
    window = contributions[-DIVERGENCE_RUN:]
    divergent = bool(np.all(frac[-DIVERGENCE_RUN:] >= DIVERGENCE_FRACTION)
                     and np.all(np.diff(window) > 0))
    if not divergent and not np.any(np.isinf(contributions)):
        return False, None
    m = min(n, 2 * DIVERGENCE_RUN)
    x = _scale_x(list(labels)[-m:], kind)
    y = contributions[-m:]
    pos = (y > 0) & np.isfinite(y)
    if np.count_nonzero(pos) < 3:
        return True, None
    slope, _ = line_fit(x[pos], np.log(y[pos]))
    return True, float(slope)
