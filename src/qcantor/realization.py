"""Realized geometry of a CantorTree: level offsets, leaf-frame atoms, frames.

Absolute coordinates lose sibling separations once node radii drop below
~1e-16 of the coordinate magnitude (around generation 5 under the smallness
convention), so the realization stores none: per side, only each node
center's offset from its parent's center and each atom's position in its
leaf's frame, as (x, y) rows.  One routine, ``_lift``, adds the offsets
upward to form every ancestor-relative frame and the flat cloud on demand;
distances from a node center to the atoms are assembled blockwise in the
frame of the deepest common ancestor, which is exact at every depth.

Atoms are stored in leaf order, so the atoms below any node are one
contiguous block.  Seen from a generation-g node, the atoms fall into
*rings*: ring 0 is the node's own subtree, ring j >= 1 the atoms whose
deepest common ancestor with the node sits at generation g - j.
``node_eps`` sums every ring per node (the frame-exact oracle);
``eps_by_generation`` evaluates all nodes of a generation at once, ring by
ring, under a plan fixed a priori from the tree's log radii and the
realized block moments (``eps_rings``).  Sibling disks are separated by
their protecting radii, so ring j's share of eps falls by a factor of
roughly 1e-4 to 1e-6 per level: the rings beyond L are dropped under an
a-priori tail bound, and ring 0 is summed over its atoms exactly.  Each
kept ring is summed over blocks, the subtrees of the siblings or of their
descendants, each replaced by its expansion about its centroid (the
monopole and the quadrupole; the dipole vanishes there, in the manner of
Barnes-Hut and Greengard-Rokhlin), at the first generation whose
third-order remainder bound fits the budget, or over its exact atoms past
the leaves.  Tail plus remainders stay at most 2**-53 of eps, either sign.
A generation then costs N atoms for ring 0 plus O(nodes * M * L) block
terms, instead of the O(M^L * N) of summing the kept rings atom by atom.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .gauges import psi_a
from .measure import LeafBlocks, PlanarMeasure
from . import cantor

#: largest block of kernel terms evaluated at once by eps_by_generation
_CHUNK = 1 << 15
#: relative error of eps that the batched evaluator may commit: one unit round-off
_BUDGET = 2.0 ** -53
#: the part of it kept back from the dropped rings for the expansion remainders
_REMAINDER = 2.0 ** -56


class RingPlan(NamedTuple):
    """How eps_by_generation evaluates one generation's rings 1..L.

    levels[j - 1] is the generation whose blocks stand for ring j (depth + 1
    for its exact atoms); remainders[j - 1] bounds that ring's expansion
    error and tail the dropped rings' share, both relative to eps.
    evaluations counts the generation's kernel terms: its N atoms for ring 0,
    plus for every node the blocks or atoms of each kept ring.
    """

    levels: tuple
    remainders: tuple
    tail: float
    evaluations: int

    @property
    def bound(self):
        """Relative error bound of the generation's eps, either sign."""
        return self.tail + sum(self.remainders)


class CantorRealization:
    def __init__(self, tree, seed, samples_per_leaf=1):
        if samples_per_leaf < 1:
            raise ValueError("samples_per_leaf must be >= 1")
        if seed < 0:
            raise cantor.ConstructionError(f"seed {seed}: need a nonnegative integer")
        depth, n_leaves, s = tree.depth, tree.n_leaves, operator.index(samples_per_leaf)
        if n_leaves * s > cantor.MAX_REALIZED_ATOMS:
            raise cantor.ConstructionError(
                f"{n_leaves * s} atoms ({n_leaves} leaves x {s} samples) exceed the "
                f"realization cap of {cantor.MAX_REALIZED_ATOMS}")
        for side in cantor.SIDES:
            if tree.log_radius(side, depth) < cantor._LOG_UNDERFLOW:
                raise cantor.ConstructionError(
                    "leaf radii underflow double precision; this schedule is "
                    "log-space only and cannot be realized")
        if tree.log_mass(depth) < cantor._LOG_UNDERFLOW:
            raise cantor.ConstructionError("leaf masses underflow double precision")

        self.tree = tree
        self.seed = int(seed)
        self.samples_per_leaf = s
        self.depth = depth
        self.n_leaves = n_leaves
        self.n_atoms = n_leaves * s

        counts = tree.node_counts
        self._leaf_stride = [n_leaves // c for c in counts]  # leaves per node
        self._radii = {side: [math.exp(tree.log_radius(side, g)) for g in range(depth + 1)]
                       for side in cantor.SIDES}

        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xC0]))

        # one packed layout per level, rotated by a seeded angle per parent
        # (rotation preserves the packing), scaled to offsets per side
        self._offsets = {side: [None] for side in cantor.SIDES}  # index g >= 1
        for g in range(1, depth + 1):
            lv = tree.level(g)
            x, y = cantor.pack_disks(lv.branching, lv.protect,
                                     seed=int(rng.integers(2**32))).T
            phis = rng.uniform(0.0, 2.0 * np.pi, size=(counts[g - 1], 1))
            cos, sin = np.cos(phis), np.sin(phis)
            units = np.stack([cos * x - sin * y, sin * x + cos * y]).reshape(2, counts[g])
            for side in cantor.SIDES:
                self._offsets[side].append(units * self._radii[side][g - 1])

        # per-leaf atom positions, as unit-disk samples shared by both sides
        if s == 1:
            unit_atoms = np.zeros((2, self.n_atoms))
        else:
            r = np.sqrt(rng.uniform(size=self.n_atoms))
            th = rng.uniform(0.0, 2.0 * np.pi, size=self.n_atoms)
            unit_atoms = np.stack([r * np.cos(th), r * np.sin(th)])
        self._atoms = {side: unit_atoms * self._radii[side][depth] for side in cantor.SIDES}

        leaf_mass = math.exp(tree.log_mass(depth))
        self.weights = np.full(self.n_atoms, leaf_mass / s)
        self.weights.setflags(write=False)
        self._eps_cache, self._plans, self._block_cache = {}, {}, {}
        self._leaf_block_cache = {}

    # -- indexing ----------------------------------------------------------

    def leaf_range(self, path):
        """Half-open range of leaf indices below a node."""
        idx = self.tree.node_index(path)
        stride = self._leaf_stride[len(path)]
        return idx * stride, (idx + 1) * stride

    # -- geometry ----------------------------------------------------------

    def _lift(self, side, pos, f, g, nodes=None):
        """Positions in generation-g frames (x, y rows) moved to the frames of
        their generation-f ancestors, f <= g, by adding the offsets of generations
        g, g - 1, ..., f + 1 in that order.  The columns cover generation-g nodes
        lo .. hi - 1 (nodes = (lo, hi), by default all) in order, equally many each."""
        counts = self.tree.node_counts
        lo, hi = nodes or (0, counts[g])
        for h in range(g, f, -1):
            per = counts[g] // counts[h]  # generation-g nodes per generation-h node
            step = self._offsets[side][h][:, lo // per:(hi - 1) // per + 1]
            pos = pos + np.repeat(step, pos.shape[1] // step.shape[1], axis=1)
        return pos

    def _frames(self, side):
        """Every atom in its generation-g frame, g = 0 .. depth, each lifted once."""
        frames = [self._atoms[side]]
        for g in range(self.depth - 1, -1, -1):
            frames.append(self._lift(side, frames[-1], g, g + 1))
        return frames[::-1]

    def measure(self, side) -> PlanarMeasure:
        """Flat atom cloud with absolute positions, formed on each call by
        lifting the leaf-frame atoms to the root frame.  At more than one
        sample per leaf it carries ``leaf_blocks(side)``, so the flat kernels
        that read blocks work leaf by leaf.

        Safe for brute-force oracles while sibling separations stay above
        the double-precision floor (depth <= 4 under the smallness
        convention); at greater depth use the frame-based evaluators.
        """
        cantor._check_side(side)
        return PlanarMeasure(self._lift(side, self._atoms[side], 0, self.depth).T, self.weights,
                             label=f"cantor:{side}:depth{self.depth}:seed{self.seed}",
                             blocks=self.leaf_blocks(side) if self.samples_per_leaf > 1 else None)

    def node_atom_distances(self, side, path) -> np.ndarray:
        """Distances from a node center to every atom, assembled blockwise.

        Atoms below the node use the node's own frame; the rest are grouped
        by the generation of the deepest common ancestor and measured in that
        ancestor's frame, so no catastrophic cancellation occurs.
        """
        cantor._check_side(side)
        d, s, atoms = len(path), self.samples_per_leaf, self._atoms[side]
        node, out = self.tree.node_index(path), np.empty(self.n_atoms)
        inner = None  # the leaves below the generation-(g + 1) ancestor
        for g in range(d, -1, -1):
            lo, hi = self.leaf_range(path[:g])
            # the node's center in the frame of its generation-g ancestor
            center = self._lift(side, np.zeros((2, 1)), g, d, (node, node + 1))
            for a, b in ((lo, inner[0]), (inner[1], hi)) if inner else ((lo, hi),):
                if a < b:
                    ring = self._lift(side, atoms[:, a * s:b * s], g, self.depth, (a, b))
                    out[a * s:b * s] = np.hypot(*(ring - center))
            inner = lo, hi
        return out

    def node_eps(self, side, path, a) -> float:
        """Smoothed density of the realized measure on a node's generating ball."""
        dist = self.node_atom_distances(side, path)
        r = self._radii[side][len(path)]
        return float(np.sum(self.weights * psi_a(dist / r, a)) / r)

    def eps_rings(self, side, a):
        """Per generation g, the ``RingPlan`` by which its eps are evaluated.

        Ring j of a generation-g node holds the M_k - 1 siblings of its
        generation-k ancestor, k = g - j + 1.  Sibling protecting disks
        (radius P_k = R_k * r_{k-1}) are disjoint and every atom of a
        generation-k subtree lies within r_k of its center, so each ring atom
        is at least gap = 2 (P_k - r_k) from the node's center.  Every atom of
        the node's own subtree lies within r_g of it, so eps(node) >= psi_a(1)
        m_g / r_g = m_g / (2 r_g), and ring j's share of eps is at most

            B_j = 2 (M_k - 1) (n_g / n_k) psi_a(u),   u = gap / r_g,

        with n_g / n_k = m_k / m_g the mass ratio of the equal split.  L is
        the smallest ring count with tail = sum_{j > L} B_j <= 2**-53 - 2**-56,
        so that at least 2**-56 of the 2**-53 budget is left for the rings
        kept.

        A kept ring is summed over blocks, the generation-l nodes below its
        siblings (l >= k), each replaced by its moments about its centroid
        (``_blocks``).  Every segment from a centroid to an atom of its block
        stays in the sibling's disk, at least gap from the node's center.
        The third directional derivative of |x|^-q is at most
        (q)_3 |x|^-(q+3) (Gegenbauer), and psi_a(u) = sum_m (-1)^(m+1)
        u^-(m p) for u > 1, p = 1 + a, so the Taylor remainder of ring j is
        at most a share

            B_j (1 + x) (p)_3 (1 + 4x + x^2) / (6 (1 - x)^4) * (rho_l / gap)^3

        of eps, with x = u^-p and rho_l the largest block radius about the
        centroid at generation l.  Each ring takes the first l whose bound is
        at most (2**-53 - tail) / L, and is summed over its exact atoms
        (l = depth + 1) when none is, or when the blocks are single atoms.
        Computed once and cached per (side, a).
        """
        cantor._check_side(side)
        if not 0.0 < a < math.inf:
            raise ValueError(f"kernel parameter a must be positive and finite, got {a}")
        key = (side, float(a))
        if key not in self._plans:
            self._plans[key] = tuple(self._plan(side, float(a)))
        return self._plans[key]

    def _plan(self, side, a):
        tree, depth, p = self.tree, self.depth, 1.0 + a
        counts = tree.node_counts
        radii = [float(rad.max()) for *_, rad in self._blocks(side)]
        taylor = p * (p + 1.0) * (p + 2.0) / 6.0
        for g in range(depth + 1):
            log_r = tree.log_radius(side, g)
            share, far = [0.0] * (g + 1), [None] * (g + 1)
            for j in range(1, g + 1):
                k = g - j + 1
                m = tree.branching(k)
                if m == 1:
                    continue
                log_p = tree.log_protect_radius(side, k)
                log_gap = (math.log(2.0) + log_p
                           + math.log1p(-math.exp(tree.log_radius(side, k) - log_p)))
                t = p * (log_gap - log_r)               # log u^p
                log_psi = -(max(t, 0.0) + math.log1p(math.exp(-abs(t))))
                share[j] = math.exp(math.log(2.0 * (m - 1) * counts[g] / counts[k])
                                    + log_psi)
                x = math.exp(-max(t, 0.0))
                if x < 1.0:  # u > 1: the expansion converges
                    far[j] = (share[j] * (1.0 + x) * taylor * (1.0 + 4.0 * x + x * x)
                              / (1.0 - x) ** 4, math.exp(log_gap))
            rings, tail = g, 0.0
            while rings > 0 and tail + share[rings] <= _BUDGET - _REMAINDER:
                tail += share[rings]
                rings -= 1
            budget = (_BUDGET - tail) / max(rings, 1)
            levels, remainders, evaluations = [], [], self.n_atoms
            for j in range(1, rings + 1):
                k = g - j + 1
                level, rem = depth + 1, 0.0
                if far[j] is not None:
                    scale, gap = far[j]
                    for lv in range(k, depth + 1):  # single-atom blocks are the atoms
                        b = scale * (radii[lv] / gap) ** 3
                        if 0.0 < radii[lv] and b <= budget:
                            level, rem = lv, b
                            break
                levels.append(level)
                remainders.append(rem)
                members = counts[level] if level <= depth else self.n_atoms
                evaluations += counts[g] * (tree.branching(k) - 1) * members // counts[k]
            yield RingPlan(tuple(levels), tuple(remainders), tail, evaluations)

    def _blocks(self, side):
        """Per generation: each node's atom centroid relative to its center
        (x, y rows), the second moment of its atoms about that centroid in
        units of the node radius r (sxx, 2 sxy, syy rows, over r^2, so that
        no square of a coordinate underflows), and each node's largest atom
        distance from its centroid.

        Bottom-up by the parallel-axis rule, with each node's radius bounded
        by max over children c of |mu_c - mu| + rho_c.  Cached per side.
        """
        if side not in self._block_cache:
            tree = self.tree
            # (x, y) x member x node: a leaf's atoms, then a node's children
            pos = self._atoms[side].reshape(2, self.n_leaves, -1).transpose(0, 2, 1)
            members, rad, mom = 1, 0.0, 0.0
            out = []
            for g in range(self.depth, -1, -1):
                pos = np.ascontiguousarray(pos)
                r_g = self._radii[side][g]
                mu = pos.sum(axis=1) / pos.shape[1]
                dev = pos - mu[:, None]
                dev /= r_g
                sq = dev * dev
                rad = (np.sqrt(sq[0] + sq[1]) * r_g + rad).max(axis=0)
                mom = mom + members * np.stack([sq[0].sum(axis=0),
                                                2.0 * (dev[0] * dev[1]).sum(axis=0),
                                                sq[1].sum(axis=0)])
                out.append((mu, mom, rad))
                if g:
                    m = tree.branching(g)
                    members = self.n_atoms // tree.node_counts[g]
                    pos = self._lift(side, mu, g - 1, g).reshape(2, -1, m).transpose(0, 2, 1)
                    shrink = math.exp(2.0 * (tree.log_radius(side, g)
                                             - tree.log_radius(side, g - 1)))
                    mom = mom.reshape(3, -1, m).sum(axis=2) * shrink
                    rad = rad.reshape(-1, m).T
            self._block_cache[side] = tuple(reversed(out))
        return self._block_cache[side]

    def leaf_blocks(self, side) -> LeafBlocks:
        """Each leaf's atoms summarized about their centroid, for the far
        field of flat-cloud kernels: the centroids lifted to the root frame
        (the frame of ``measure(side)``), the second moments about them in
        absolute units, and the largest atom distance from them.  Computed
        once per side; the arrays are read-only and shared by every call."""
        cantor._check_side(side)
        if side not in self._leaf_block_cache:
            mu, mom, rad = self._blocks(side)[self.depth]
            r2 = self._radii[side][self.depth] ** 2
            blocks = LeafBlocks(self._lift(side, mu, 0, self.depth).T,
                                mom.T * np.array([r2, 0.5 * r2, r2]), rad.copy(),
                                self.samples_per_leaf)
            for arr in blocks[:3]:
                arr.setflags(write=False)
            self._leaf_block_cache[side] = blocks
        return self._leaf_block_cache[side]

    def eps_by_generation(self, side, a):
        """eps_mu_a of every node ball, one read-only array per generation.

        Ring 0 is summed over its atoms exactly.  Each kept ring j >= 1 of the
        plan (``eps_rings``) is summed in the frame of the generation-(g - j)
        ancestor, the frame arithmetic of ``node_atom_distances``: over its
        exact atoms, or over its blocks' centroid expansions
        W psi_a(|mu - c| / r) + tr(H S) / 2, whose dipole term vanishes about
        the centroid.  Farther rings are dropped.  The result is within the
        plan's bound (tail plus remainders, at most 2**-53) of the exact eps,
        on either side.  Cached per (side, a).
        """
        key = (side, float(a))
        if key not in self._eps_cache:
            plans = self.eps_rings(side, a)
            frames, radii = self._frames(side), self._radii[side]
            weight = float(self.weights[0])  # atoms carry equal weights
            eps = []
            for g, plan in enumerate(plans):
                values = sum(self._ring_sums(side, g, a, plan.levels, frames)) * weight / radii[g]
                values.setflags(write=False)
                eps.append(values)
            self._eps_cache[key] = tuple(eps)
        return self._eps_cache[key]

    def _ring_sums(self, side, g, a, levels, frames):
        """Per ring j = 0 .. len(levels), its psi sum at every generation-g node;
        ring j >= 1 is evaluated at generation levels[j - 1] (depth + 1: atoms).
        frames[f] holds every atom in its generation-f frame (``_frames``)."""
        r = self._radii[side][g]
        center = np.zeros((2, self.tree.node_counts[g]))  # in the gen-f frame
        yield self._ring_psi_sums(side, g, g, center, r, a, self.depth + 1, frames[g])
        for f, level in zip(range(g - 1, -1, -1), levels):
            center = self._lift(side, center, f, f + 1)
            yield self._ring_psi_sums(side, f, g, center, r, a, level, frames[f])

    def _ring_psi_sums(self, side, f, g, center, r, a, level, atoms):
        """Sum of psi_a(|y - c| / r) over one ring, for every generation-g node.

        For f = g the ring is the node's own atoms, in its own frame.  For
        f < g it is what lies below the siblings of the node's
        generation-(f + 1) ancestor, in the frame of the generation-f
        ancestor, where ``center`` gives the node centers and ``atoms`` every
        atom (x, y rows).  It is taken as its exact atoms when level is
        depth + 1, and otherwise as the centroid expansions of its
        generation-level blocks.  Coordinates are scaled by 1/r before they
        are squared, so nothing underflows; terms are laid out (ring member,
        node within group, group), groups innermost, and evaluated in pieces
        of about _CHUNK terms.
        """
        counts = self.tree.node_counts
        if f == g:
            rel = atoms / r
            psi = psi_a(np.sqrt(rel[0] ** 2 + rel[1] ** 2), a)
            return psi.reshape(counts[g], -1).sum(axis=1)
        if level > self.depth:
            data, q = atoms / r, None
        else:
            mu, mom, _ = self._blocks(side)[level]
            weight = self.n_atoms // counts[level]
            q = self._radii[side][level] / r
            data = np.concatenate([self._lift(side, mu, f, level) / r, mom])
        # each gen-(f + 1) ancestor faces the blocks of its m - 1 siblings:
        # data[:, s * b + i, c + m * A] is sibling s of child c of ancestor A
        m, rows = self.tree.branching(f + 1), len(data)
        src = data.reshape(rows, counts[f], m, -1).transpose(0, 2, 3, 1)
        data = np.empty((rows, m - 1) + src.shape[2:] + (m,))
        for c in range(m):
            data[:, :c, ..., c] = src[:, :c]
            data[:, c:, ..., c] = src[:, c + 1:]
        groups = counts[f + 1]
        data = data.reshape(rows, -1, groups)
        members, per_group = data.shape[1], counts[g] // groups
        center = (center / r).reshape(2, groups, per_group).transpose(0, 2, 1).copy()
        out = np.zeros((per_group, groups))
        m_step = max(1, min(members, _CHUNK // groups))
        n_step = max(1, _CHUNK // (m_step * groups))
        p = 1.0 + a
        for m0 in range(0, members, m_step):
            y = data[:, m0:m0 + m_step, None]
            for n0 in range(0, per_group, n_step):
                c = center[:, None, n0:n0 + n_step]
                dx, dy = y[0] - c[0], y[1] - c[1]
                with np.errstate(over="ignore"):  # past 1e154 radii: u = inf, psi = 0
                    u = np.sqrt(dx * dx + dy * dy)
                psi = psi_a(u, a)
                if q is not None:
                    # tr(H S) / 2 of psi_a(|y - c| / r) for the block moments
                    # S = r_level^2 (sxx, 2 sxy, syy), with psi (1 - psi) =
                    # u^p psi^2 and (dx, dy) turned into the unit direction
                    dx /= u
                    dy /= u
                    quad = dx * (y[2] * dx + y[3] * dy) + y[4] * dy * dy
                    quad *= (p + 2.0) - 2.0 * p * psi
                    quad -= y[2] + y[4]
                    u = q / u  # r_level / |y - c|
                    quad *= (0.5 * p) * psi * (1.0 - psi) * u * u
                    psi *= weight
                    psi += quad
                out[n0:n0 + n_step] += psi.sum(axis=0)
        return out.T.ravel()

    def leaf_centers(self, side) -> np.ndarray:
        """Absolute leaf centers (one per leaf, regardless of samples)."""
        first = self._atoms[side][:, ::self.samples_per_leaf]
        return (self._lift(side, first, 0, self.depth) - first).T
