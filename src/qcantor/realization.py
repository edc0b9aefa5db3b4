"""Realized geometry of a CantorTree: centers, leaf atoms, relative frames.

Absolute coordinates lose sibling separations once node radii drop below
~1e-16 of the coordinate magnitude (around generation 5 under the smallness
convention), so next to the flat atom cloud the realization keeps, for every
generation g, each atom's position *relative to its generation-g ancestor*.
Distances from a node center to the atoms are then assembled blockwise at the
scale of the deepest common ancestor, which is exact at every depth.

Atoms are stored in leaf order, so the atoms below any node are one
contiguous block.  Seen from a generation-g node, the atoms fall into
*rings*: ring 0 is the node's own subtree, ring j >= 1 the atoms whose
deepest common ancestor with the node sits at generation g - j.
``node_eps`` sums every ring per node (the frame-exact oracle);
``eps_by_generation`` evaluates all nodes of a generation at once, ring by
ring, and keeps only the near rings.  Sibling disks are separated by their
protecting radii, so ring j's share of eps falls by a factor of roughly
1e-4 to 1e-6 per level, and the rings beyond L contribute at most an
a-priori tail computed from the tree's log radii (``eps_rings``).  L is the
smallest ring count whose tail is at most 2**-53, which keeps the batched
values within round-off of the oracle at O(M^L * N) work per generation for
N atoms, instead of O(nodes * N).
"""
from __future__ import annotations

import math

import numpy as np

from .measure import PlanarMeasure
from . import cantor

#: largest node x atom block evaluated at once by eps_by_generation
_CHUNK = 1 << 15
#: relative tail of eps that the batched evaluator may drop: one unit round-off
_TAIL = 2.0 ** -53


class CantorRealization:
    def __init__(self, tree, seed, samples_per_leaf=1):
        if samples_per_leaf < 1:
            raise ValueError("samples_per_leaf must be >= 1")
        depth = tree.depth
        n_leaves = tree.n_leaves
        if n_leaves > cantor.MAX_REALIZED_LEAVES:
            raise cantor.ConstructionError(
                f"{n_leaves} leaves exceed the realization cap of "
                f"{cantor.MAX_REALIZED_LEAVES}")
        for side in cantor.SIDES:
            if tree.log_radius(side, depth) < cantor._LOG_UNDERFLOW:
                raise cantor.ConstructionError(
                    "leaf radii underflow double precision; this schedule is "
                    "log-space only and cannot be realized")
        if tree.log_mass(depth) < cantor._LOG_UNDERFLOW:
            raise cantor.ConstructionError("leaf masses underflow double precision")

        self.tree = tree
        self.seed = int(seed)
        self.samples_per_leaf = int(samples_per_leaf)
        self.depth = depth
        self.n_leaves = n_leaves
        self.n_atoms = n_leaves * samples_per_leaf

        counts = tree.node_counts
        self._leaf_stride = [n_leaves // c for c in counts]  # leaves per node

        rng = np.random.default_rng(np.random.SeedSequence([self.seed & (2**32 - 1), 0xC0]))

        # one packed layout per level, rotated by a seeded angle per parent
        # (rotation preserves the packing), expanded to offsets per side
        self._offsets = {side: [None] for side in cantor.SIDES}  # index g >= 1
        for g in range(1, depth + 1):
            lv = tree.level(g)
            layout = cantor.pack_disks(lv.branching, lv.protect,
                                       seed=int(rng.integers(2**32)))
            phis = rng.uniform(0.0, 2.0 * np.pi, size=counts[g - 1])
            cos, sin = np.cos(phis), np.sin(phis)
            rot = np.stack([np.stack([cos, -sin], axis=-1),
                            np.stack([sin, cos], axis=-1)], axis=-2)
            units = np.einsum("pij,cj->pci", rot, layout).reshape(counts[g], 2)
            for side in cantor.SIDES:
                parent_radius = math.exp(tree.log_radius(side, g - 1))
                self._offsets[side].append(units * parent_radius)

        # per-leaf atom positions, as unit-disk samples shared by both sides
        s = samples_per_leaf
        if s == 1:
            unit_atoms = np.zeros((self.n_atoms, 2))
        else:
            r = np.sqrt(rng.uniform(size=self.n_atoms))
            th = rng.uniform(0.0, 2.0 * np.pi, size=self.n_atoms)
            unit_atoms = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

        # relative frames: atom position w.r.t. its generation-g ancestor center
        self._atom_rel = {}
        for side in cantor.SIDES:
            leaf_radius = math.exp(tree.log_radius(side, depth))
            rel = [None] * (depth + 1)
            rel[depth] = unit_atoms * leaf_radius
            for g in range(depth - 1, -1, -1):
                step = np.repeat(self._offsets[side][g + 1],
                                 self._leaf_stride[g + 1] * s, axis=0)
                rel[g] = rel[g + 1] + step
            self._atom_rel[side] = rel

        leaf_mass = math.exp(tree.log_mass(depth))
        self.weights = np.full(self.n_atoms, leaf_mass / s)
        self.weights.setflags(write=False)
        self._eps_cache = {}

    # -- indexing ----------------------------------------------------------

    def leaf_range(self, path):
        """Half-open range of leaf indices below a node."""
        idx = self.tree.node_index(path)
        stride = self._leaf_stride[len(path)]
        return idx * stride, (idx + 1) * stride

    # -- geometry ----------------------------------------------------------

    def measure(self, side) -> PlanarMeasure:
        """Flat atom cloud with absolute positions.

        Safe for brute-force oracles while sibling separations stay above
        the double-precision floor (depth <= 4 under the smallness
        convention); at greater depth use the frame-based evaluators.
        """
        cantor._check_side(side)
        return PlanarMeasure(self._atom_rel[side][0], self.weights,
                             label=f"cantor:{side}:depth{self.depth}:seed{self.seed}")

    def node_atom_distances(self, side, path) -> np.ndarray:
        """Distances from a node center to every atom, assembled blockwise.

        Atoms below the node use the node's own frame; the rest are grouped
        by the generation of the deepest common ancestor and measured in that
        ancestor's frame, so no catastrophic cancellation occurs.
        """
        cantor._check_side(side)
        d = len(path)
        s = self.samples_per_leaf
        rel = self._atom_rel[side]
        out = np.empty(self.n_atoms)
        lo_leaf, hi_leaf = self.leaf_range(path)
        lo, hi = lo_leaf * s, hi_leaf * s
        below = rel[d][lo:hi]
        out[lo:hi] = np.hypot(below[:, 0], below[:, 1])

        nrel = np.zeros(2)
        prev_lo, prev_hi = lo, hi
        for g in range(d - 1, -1, -1):
            nrel = nrel + self._offsets[side][g + 1][self.tree.node_index(path[:g + 1])]
            blo_leaf, bhi_leaf = self.leaf_range(path[:g])
            blo, bhi = blo_leaf * s, bhi_leaf * s
            for a, b in ((blo, prev_lo), (prev_hi, bhi)):
                if a < b:
                    diff = rel[g][a:b] - nrel
                    out[a:b] = np.hypot(diff[:, 0], diff[:, 1])
            prev_lo, prev_hi = blo, bhi
        return out

    def node_eps(self, side, path, a) -> float:
        """Smoothed density of the realized measure on a node's generating ball."""
        from .gauges import psi_a
        r = math.exp(self.tree.log_radius(side, len(path)))
        dist = self.node_atom_distances(side, path)
        return float(np.sum(self.weights * psi_a(dist / r, a)) / r)

    def eps_rings(self, side, a):
        """Per generation g: (L, tail), the rings kept and the dropped share.

        Ring j of a generation-g node holds the M_k - 1 siblings of its
        generation-k ancestor, k = g - j + 1.  Sibling protecting disks
        (radius P_k = R_k * r_{k-1}) are disjoint and every atom of a
        generation-k subtree lies within r_k of its center, so each ring atom
        is at least 2 (P_k - r_k) from the node's center.  Every atom of the
        node's own subtree lies within r_g of it, so eps(node) >= psi_a(1)
        m_g / r_g = m_g / (2 r_g), and ring j's share of eps is at most

            B_j = 2 (M_k - 1) (n_g / n_k) psi_a(2 (P_k - r_k) / r_g),

        with n_g / n_k = m_k / m_g the mass ratio of the equal split.  L is
        the smallest ring count with sum_{j > L} B_j <= 2**-53, and tail is
        that sum: the batched eps is low by at most tail * eps.
        """
        cantor._check_side(side)
        if not 0.0 < a < math.inf:
            raise ValueError(f"kernel parameter a must be positive and finite, got {a}")
        tree = self.tree
        out = []
        for g in range(self.depth + 1):
            log_r = tree.log_radius(side, g)
            bound = [0.0] * (g + 1)
            for j in range(1, g + 1):
                k = g - j + 1
                m = tree.branching(k)
                if m == 1:
                    continue
                log_p = tree.log_protect_radius(side, k)
                log_gap = (math.log(2.0) + log_p - log_r
                           + math.log1p(-math.exp(tree.log_radius(side, k) - log_p)))
                t = (1.0 + a) * log_gap                 # log |u|^(1+a)
                log_psi = -(max(t, 0.0) + math.log1p(math.exp(-abs(t))))
                bound[j] = math.exp(math.log(2.0 * (m - 1) * tree.node_counts[g]
                                             / tree.node_counts[k]) + log_psi)
            rings, tail = g, 0.0
            while rings > 0 and tail + bound[rings] <= _TAIL:
                tail += bound[rings]
                rings -= 1
            out.append((rings, tail))
        return tuple(out)

    def eps_by_generation(self, side, a):
        """eps_mu_a of every node ball, one read-only array per generation.

        Per generation, ring 0 and the near rings 1..L of ``eps_rings`` are
        evaluated exactly, ring j in the frame of the generation-(g - j)
        ancestor (the frame arithmetic of ``node_atom_distances``); farther
        rings are dropped.  Cached per (side, a).
        """
        key = (side, float(a))
        if key not in self._eps_cache:
            weight = float(self.weights[0])  # atoms carry equal weights
            eps = []
            for g, (rings, _) in enumerate(self.eps_rings(side, a)):
                n = self.tree.node_counts[g]
                r = math.exp(self.tree.log_radius(side, g))
                center = np.zeros((n, 2))  # node center in its gen-(g - j) frame
                total = self._ring_psi_sums(side, g, g, center, r, a)
                for k in range(g - 1, g - rings - 1, -1):
                    step = self._offsets[side][k + 1]
                    center = center + np.repeat(step, n // len(step), axis=0)
                    total += self._ring_psi_sums(side, k, g, center, r, a)
                values = total * weight / r
                values.setflags(write=False)
                eps.append(values)
            self._eps_cache[key] = tuple(eps)
        return self._eps_cache[key]

    def _ring_psi_sums(self, side, k, g, center, r, a):
        """Sum of psi_a(|y - c| / r) over one ring, for every generation-g node.

        The ring holds the atoms of each node's generation-k ancestor; for
        k < g the block of the ancestor's child that contains the node is
        masked out.  ``center`` gives the node centers in the frame of that
        ancestor.  Work is split into blocks of about _CHUNK distances, or
        one node's ring where that is larger.
        """
        from .gauges import psi_a
        counts = self.tree.node_counts
        n_anc = counts[k]
        per_anc = counts[g] // n_anc
        atoms = self._atom_rel[side][k].reshape(n_anc, -1, 2)
        block = atoms.shape[1]
        children = counts[k + 1] // n_anc if k < g else 1
        own = np.arange(per_anc) // (per_anc // children)
        center = center.reshape(n_anc, per_anc, 2)
        out = np.empty((n_anc, per_anc))
        nodes_step = max(1, min(per_anc, _CHUNK // block))
        anc_step = max(1, _CHUNK // (per_anc * block)) if nodes_step == per_anc else 1
        for a0 in range(0, n_anc, anc_step):
            y = atoms[a0:a0 + anc_step, None]
            for b0 in range(0, per_anc, nodes_step):
                c = center[a0:a0 + anc_step, b0:b0 + nodes_step, None]
                dist = y[..., 0] - c[..., 0]
                dist = np.hypot(dist, y[..., 1] - c[..., 1], out=dist)
                dist /= r
                psi = psi_a(dist, a)
                sums = psi.reshape(psi.shape[:2] + (children, -1)).sum(axis=3)
                if k < g:
                    nodes = np.arange(sums.shape[1])
                    sums[:, nodes, own[b0:b0 + nodes_step]] = 0.0
                out[a0:a0 + anc_step, b0:b0 + nodes_step] = sums.sum(axis=2)
        return out.ravel()

    def leaf_centers(self, side) -> np.ndarray:
        """Absolute leaf centers (one per leaf, regardless of samples)."""
        rel0 = self._atom_rel[side][0]
        s = self.samples_per_leaf
        leaf_frame = self._atom_rel[side][self.depth]
        return (rel0 - leaf_frame)[::s]
