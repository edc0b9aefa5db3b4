"""Fixtures and oracles that only the tests use: test clouds, a hand-set
node gauge, absolute node centres, reference realization frames and the
brute-force content."""
import math

import numpy as np

from qcantor import cantor
from qcantor.measure import LeafBlocks, PlanarMeasure


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


def without_blocks(measure):
    """The same atoms with no leaf blocks: every kernel takes its flat route."""
    return PlanarMeasure(measure.points, measure.weights, label=measure.label)


def leaf_blocks(measure, atoms):
    """LeafBlocks of a cloud whose leaves are its consecutive groups of
    ``atoms`` atoms, by direct sums over each group's points."""
    pts = measure.points.reshape(-1, atoms, 2)
    centroids = pts.mean(axis=1)
    dx, dy = (pts - centroids[:, None]).transpose(2, 0, 1)
    moments = np.stack([(dx * dx).sum(axis=1), (dx * dy).sum(axis=1), (dy * dy).sum(axis=1)],
                       axis=1)
    return LeafBlocks(centroids, moments, np.hypot(dx, dy).max(axis=1), atoms)


def node_center(real, side, path):
    """Absolute centre of a realized node: the sum of its per-level offsets
    (meaningful to ~1e-16 of the coordinate size)."""
    c = np.zeros(2)
    for g in range(1, len(path) + 1):
        c = c + real._offsets[side][g][:, real.tree.node_index(path[:g])]
    return c


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


class TableGauge:
    """Explicit per-node h values of a tree, keyed by path; for hand-set gauges."""

    description = "table"

    def __init__(self, tree, table):
        self.tree = tree
        self.table = {tuple(k): float(v) for k, v in table.items()}

    def h_values(self):
        """h over every node of the tree, one array per generation 0..depth."""
        return [np.array([self.table[path] for path in self.tree.paths_at(g)], dtype=float)
                for g in range(self.tree.depth + 1)]

    def far_field_bound(self):
        """0: the table values are exact."""
        return 0.0


def content_by_enumeration(tree, table):
    """Min of sum h over all node subsets that cover every leaf.

    Every subset of the n nodes is listed by doubling: the subsets holding
    node i are those without it, each extended by i's leaves and h value.
    """
    nodes = [p for g in range(tree.depth + 1) for p in tree.paths_at(g)]
    leaves = list(tree.paths_at(tree.depth))
    cover, cost = np.zeros(1, dtype=np.int64), np.zeros(1)
    for node in nodes:
        bits = sum(1 << j for j, leaf in enumerate(leaves) if leaf[:len(node)] == node)
        cover = np.concatenate([cover, cover | bits])
        cost = np.concatenate([cost, cost + table[node]])
    return float(cost[cover == (1 << len(leaves)) - 1].min())
