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
``eps_partial`` evaluates all nodes of a generation at once, ring by ring,
under a plan fixed a priori from the tree's log radii and the realized block
moments (``eps_rings``), and ``eps_by_generation`` is every generation
summed over every ring.  Sibling disks are separated by
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

A fill evaluates ring by ring, each ring in pieces of at most _CHUNK
terms, and keeps each generation's running sum, so that a reader takes only
the rings it needs: the content DP (``gauges._cover_h``) reads ring 0 of
every generation and further rings only where its decisions or its cover
need them.  The fills of the eight realizations in a gauge-content
benchmark pass make 57 ring calls over 93,212 terms (108 over 170,000 when
every generation is summed in full), about 3.5 ms on a 2-vCPU Xeon host: 21
block rings of under 1,000 terms cost about 50 us each, mostly numpy call
overhead, and the large rings about 27 ns per term.  Evaluating several
rings per kernel call was measured and did not pay: each ring still lifts,
lays out and scales its own items and node centers, which costs about what
the saved calls did.
"""
from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .gauges import _PsiKernel, check_kernel_a, psi_a
from .measure import EXPANSION_BUDGET, LeafBlocks, PlanarMeasure, _quadrupole, _taylor
from . import cantor

#: largest block of kernel terms evaluated at once by eps_by_generation
_CHUNK = 1 << 15
#: the part of EXPANSION_BUDGET kept back from the dropped rings for the expansion remainders
_REMAINDER = 2.0 ** -56


class RingPlan(NamedTuple):
    """How eps_by_generation evaluates one generation's rings 1..L.

    levels[j - 1] is the generation whose blocks stand for ring j (depth + 1
    for its exact atoms); shares[j - 1] bounds that ring's share of eps a
    priori (B_j of ``eps_rings``), remainders[j - 1] its expansion error and
    tail the dropped rings' share, all relative to eps.
    evaluations counts the generation's kernel terms: its N atoms for ring 0,
    plus for every node the blocks or atoms of each kept ring.
    """

    levels: tuple
    remainders: tuple
    tail: float
    evaluations: int
    shares: tuple

    @property
    def bound(self):
        """Relative error bound of the generation's eps, either sign."""
        return self.tail + sum(self.remainders)

    def rest(self, added):
        """A-priori bound, relative to eps, on what the kept rings after the
        first ``added`` (ring 0 first, added >= 1) add to the sum: their
        shares plus their remainders."""
        return sum(self.shares[added - 1:]) + sum(self.remainders[added - 1:])


class _RingFill:
    """One generation's eps under its plan, summed ring by ring in plan order.

    total is the running sum 0 + ring 0 + ring 1 + ... of the rings added so
    far, center the nodes' centers in the frame of the last ring's ancestor,
    and eps = total * weight / r, read-only.  Once all size rings are in,
    eps is the generation's full fill.
    """

    __slots__ = ("size", "added", "center", "total", "eps")

    def __init__(self, nodes, size):
        self.size, self.added = size, 0
        self.center = np.zeros((2, nodes))
        self.total, self.eps = 0, None


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
            log_r = tree.log_radius(side, depth)
            if log_r < cantor._LOG_UNDERFLOW:
                raise cantor.ConstructionError(
                    f"{side} side, depth {depth}: leaf radii underflow double precision "
                    f"(log radius {log_r:.6g}); this schedule is log-space only and cannot "
                    "be realized")
        log_m = tree.log_mass(depth)
        if log_m < cantor._LOG_UNDERFLOW:
            raise cantor.ConstructionError(f"depth {depth}: leaf masses underflow double "
                                           f"precision (log mass {log_m:.6g})")

        self.tree = tree
        self.seed = int(seed)
        self.samples_per_leaf = s
        self.depth = depth
        self.n_leaves = n_leaves
        self.n_atoms = n_leaves * s

        counts = tree.node_counts
        self._radii = {side: [math.exp(tree.log_radius(side, g)) for g in range(depth + 1)]
                       for side in cantor.SIDES}

        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xC0]))

        # one packed layout per level, rotated by a seeded angle per parent
        # (rotation preserves the packing), scaled to offsets per side
        self._offsets = {side: [None] for side in cantor.SIDES}  # index g >= 1
        for g in range(1, depth + 1):
            lv = tree.level(g)
            try:
                x, y = cantor.pack_disks(lv.branching, lv.protect,
                                         seed=int(rng.integers(2**32))).T
            except cantor.PackingError as exc:
                raise cantor.PackingError(f"level {g} (M = {lv.branching}): {exc}") from None
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
        self._leaf_block_cache, self._fills, self._frame_cache = {}, {}, {}

    # -- geometry ----------------------------------------------------------

    def _lift(self, side, pos, f, g):
        """Positions in generation-g frames (x, y rows) moved to the frames of
        their generation-f ancestors, f <= g, by adding the offsets of generations
        g, g - 1, ..., f + 1 in that order.  The columns cover every generation-g
        node in order, equally many each."""
        counts = self.tree.node_counts
        for h in range(g, f, -1):
            step = self._offsets[side][h]
            pos = (pos.reshape(2, counts[h], -1) + step[:, :, None]).reshape(2, -1)
        return pos

    def _frames(self, side):
        """Every atom in its generation-g frame, g = 0 .. depth, each lifted
        once.  Cached per side; the arrays are shared by every caller."""
        if side not in self._frame_cache:
            frames = [self._atoms[side]]
            for g in range(self.depth - 1, -1, -1):
                frames.append(self._lift(side, frames[-1], g, g + 1))
            self._frame_cache[side] = frames[::-1]
        return self._frame_cache[side]

    def measure(self, side) -> PlanarMeasure:
        """Flat atom cloud with absolute positions, formed on each call by
        lifting the leaf-frame atoms to the root frame.  At more than one
        sample per leaf it carries ``leaf_blocks(side)``, the blocks of every
        generation from the root to the leaves, which flat kernels work over.

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
        ancestor's frame (``_frames``), so no catastrophic cancellation
        occurs.  The center moves up one ancestor's offset at a time.
        """
        cantor._check_side(side)
        d, s, frames = len(path), self.samples_per_leaf, self._frames(side)
        node, counts = self.tree.node_index(path), self.tree.node_counts
        out = np.empty(self.n_atoms)
        center = np.zeros((2, 1))  # the node's center in its generation-g ancestor's frame
        inner = None  # the leaves below the generation-(g + 1) ancestor
        for g in range(d, -1, -1):
            anc = node // (counts[d] // counts[g])  # the generation-g ancestor
            stride = self.n_leaves // counts[g]  # leaves per generation-g node
            lo, hi = anc * stride, (anc + 1) * stride
            for a, b in ((lo, inner[0]), (inner[1], hi)) if inner else ((lo, hi),):
                if a < b:
                    out[a * s:b * s] = np.hypot(*(frames[g][:, a * s:b * s] - center))
            inner = lo, hi
            if g:
                center = center + self._offsets[side][g][:, anc:anc + 1]
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

        with n_g / n_k = m_k / m_g the mass ratio of the equal split, recorded
        per kept ring as ``RingPlan.shares``.  L is
        the smallest ring count with tail = sum_{j > L} B_j <= 2**-53 - 2**-56,
        so that at least 2**-56 of the 2**-53 budget is left for the rings
        kept.

        A kept ring is summed over blocks, the generation-l nodes below its
        siblings (l >= k), each replaced by its moments about its centroid
        (``_blocks``).  Every segment from a centroid to an atom of its block
        stays in the sibling's disk, at least gap from the node's center,
        where the psi_a kernel's remainder bound (``gauges._PsiKernel``)
        makes ring j's Taylor remainder at most a share

            B_j (p)_3 / 6 * (rho_l / gap)^3,   p = 1 + a,

        of eps, with rho_l the largest block radius about the centroid at
        generation l.  Each ring takes the first l whose bound is at most
        (2**-53 - tail) / L, and is summed over its exact atoms
        (l = depth + 1) when none is, or when the blocks are single atoms.
        Computed once and cached per (side, a).
        """
        cantor._check_side(side)
        check_kernel_a(a)
        key = (side, float(a))
        if key not in self._plans:
            self._plans[key] = tuple(self._plan(side, float(a)))
        return self._plans[key]

    def _plan(self, side, a):
        tree, depth, p = self.tree, self.depth, 1.0 + a
        counts = tree.node_counts
        radii = [float(rad.max()) for *_, rad in self._blocks(side)]
        taylor = _taylor(p)
        log_r = [tree.log_radius(side, g) for g in range(depth + 1)]
        gaps = [None]  # per generation k >= 1 of M_k > 1: (M_k, log gap, gap)
        for k in range(1, depth + 1):
            m = tree.branching(k)
            if m == 1:
                gaps.append(None)
                continue
            log_p = tree.log_protect_radius(side, k)
            log_gap = math.log(2.0) + log_p + math.log1p(-math.exp(log_r[k] - log_p))
            gaps.append((m, log_gap, math.exp(log_gap)))
        for g in range(depth + 1):
            share, far = [0.0] * (g + 1), [None] * (g + 1)
            for j in range(1, g + 1):
                k = g - j + 1
                if gaps[k] is None:
                    continue
                m, log_gap, gap = gaps[k]
                t = p * (log_gap - log_r[g])               # log u^p
                log_psi = -(max(t, 0.0) + math.log1p(math.exp(-abs(t))))
                share[j] = math.exp(math.log(2.0 * (m - 1) * counts[g] / counts[k])
                                    + log_psi)
                far[j] = share[j] * taylor, gap
            rings, tail = g, 0.0
            while rings > 0 and tail + share[rings] <= EXPANSION_BUDGET - _REMAINDER:
                tail += share[rings]
                rings -= 1
            budget = (EXPANSION_BUDGET - tail) / max(rings, 1)
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
            yield RingPlan(tuple(levels), tuple(remainders), tail, evaluations,
                           tuple(share[1:rings + 1]))

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
            tree, radii, offsets = self.tree, self._radii[side], self._offsets[side]
            # (x, y) x member x node: a leaf's atoms, then a node's children
            pos = self._atoms[side].reshape(2, self.n_leaves, -1).transpose(0, 2, 1)
            members, rad, mom = 1, 0.0, 0.0
            out = []
            for g in range(self.depth, -1, -1):
                pos = np.ascontiguousarray(pos)
                if g == self.depth and self.samples_per_leaf == 1:
                    # one atom per leaf: its own centroid, with no spread about it
                    mu = pos[:, 0].copy()
                    mom, rad = np.zeros((3, self.n_leaves)), np.zeros(self.n_leaves)
                else:
                    r_g = radii[g]
                    mu = np.add.reduce(pos, axis=1) / pos.shape[1]
                    dev = pos - mu[:, None]
                    dev /= r_g
                    sq = dev * dev
                    rad = np.maximum.reduce(np.sqrt(sq[0] + sq[1]) * r_g + rad, axis=0)
                    sums = np.add.reduce(sq, axis=1)
                    mom = mom + members * np.stack([
                        sums[0], 2.0 * np.add.reduce(dev[0] * dev[1], axis=0), sums[1]])
                out.append((mu, mom, rad))
                if g:
                    m = tree.branching(g)
                    members = self.n_atoms // tree.node_counts[g]
                    pos = (mu + offsets[g]).reshape(2, -1, m).transpose(0, 2, 1)
                    shrink = math.exp(2.0 * (tree.log_radius(side, g)
                                             - tree.log_radius(side, g - 1)))
                    mom = np.add.reduce(mom.reshape(3, -1, m), axis=2) * shrink
                    rad = rad.reshape(-1, m).T
            self._block_cache[side] = tuple(reversed(out))
        return self._block_cache[side]

    def leaf_blocks(self, side) -> tuple[LeafBlocks, ...]:
        """Each node's atoms summarized about their centroid, for the far
        field of flat-cloud kernels: one LeafBlocks per generation 0 ..
        depth, from the root to the leaves, of the centroids lifted to the
        root frame (the frame of ``measure(side)``), the second moments about
        them in absolute units, in ``_blocks``' format (sxx, 2 sxy, syy), and
        the radii, at the leaves the largest atom distance from the centroid
        and above them a bound on it (``_blocks``).
        Computed once per side from ``_blocks(side)``; the arrays are
        read-only and shared by every call."""
        cantor._check_side(side)
        if side not in self._leaf_block_cache:
            levels = []
            for g, (mu, mom, rad) in enumerate(self._blocks(side)):
                r2 = self._radii[side][g] ** 2
                level = LeafBlocks(self._lift(side, mu, 0, g).T, mom.T * r2, rad.copy(),
                                   self.n_atoms // self.tree.node_counts[g])
                for arr in level[:3]:
                    arr.setflags(write=False)
                levels.append(level)
            self._leaf_block_cache[side] = tuple(levels)
        return self._leaf_block_cache[side]

    def eps_by_generation(self, side, a):
        """eps_mu_a of every node ball, one read-only array per generation.

        Ring 0 is summed over its atoms exactly.  Each kept ring j >= 1 of the
        plan (``eps_rings``) is summed in the frame of the generation-(g - j)
        ancestor, the frame arithmetic of ``node_atom_distances``: over its
        exact atoms, or over its blocks' monopoles plus quadrupoles about their
        centroids (``_PsiKernel.expand``).  Farther rings are dropped.  The
        result is within the plan's bound (tail plus remainders, at most
        2**-53) of the exact eps, on either side.  Every generation is the
        fully refined ``eps_partial``; the tuple is cached per (side, a).
        """
        key = (side, float(a))
        if key not in self._eps_cache:
            self._eps_cache[key] = tuple(self.eps_partial(side, a, g, math.inf)[0]
                                         for g in range(self.depth + 1))
        return self._eps_cache[key]

    def eps_partial(self, side, a, g, rings):
        """(eps, n): every generation-g node's eps summed over the first n of
        its plan's rings, ring 0 first, n = min(rings, 1 + len(plan.levels))
        for rings >= 1 (math.inf for every ring).

        The generation's running sum is kept per (side, a) and only extended,
        in plan order: each ring is evaluated once, whichever caller asks
        first, and the full sum has the same bits whatever the order of the
        calls.  Each ring's sum is nonnegative, so eps only grows with n; a
        kept ring j not yet added adds at most its share B_j plus its
        remainder of eps (``RingPlan.rest``).
        """
        key = (side, float(a))
        if key not in self._fills:
            self._fills[key] = [_RingFill(self.tree.node_counts[h], 1 + len(plan.levels))
                                for h, plan in enumerate(self.eps_rings(side, a))]
        fill = self._fills[key][g]
        while fill.added < min(rings, fill.size):
            self._add_ring(side, a, g, fill)
        return fill.eps, fill.added

    def _add_ring(self, side, a, g, fill):
        """Evaluate generation g's next ring (fill.added), add it to the fill's
        running sum and return its psi sums at every node; ring j >= 1 is
        evaluated at generation levels[j - 1] of the plan (depth + 1: atoms)."""
        j, frames, r = fill.added, self._frames(side), self._radii[side][g]
        if j:
            f = g - j
            fill.center = self._lift(side, fill.center, f, f + 1)
            level = self.eps_rings(side, a)[g].levels[j - 1]
        else:
            f, level = g, self.depth + 1
        ring = self._ring_psi_sums(side, f, g, fill.center, r, a, level, frames[f])
        fill.total = fill.total + ring
        fill.added += 1
        fill.eps = fill.total * float(self.weights[0]) / r  # atoms carry equal weights
        fill.eps.setflags(write=False)
        return ring

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
        kernel = _PsiKernel(a)
        for m0 in range(0, members, m_step):
            y = data[:, m0:m0 + m_step, None]
            for n0 in range(0, per_group, n_step):
                c = center[:, None, n0:n0 + n_step]
                dx, dy = y[0] - c[0], y[1] - c[1]
                with np.errstate(over="ignore"):  # past 1e154 radii: u = inf, psi = 0
                    u = np.sqrt(dx * dx + dy * dy)
                if q is None:
                    psi = psi_a(u, a)
                else:
                    # the block moments S = r_level^2 (sxx, 2 sxy, syy) along
                    # the unit direction, with scale r_level / |y - c|
                    dx /= u
                    dy /= u
                    quad = _quadrupole(dx, dy, y[2], y[3], y[4])
                    psi = kernel.expand(u, quad, y[2] + y[4], q / u, weight)
                out[n0:n0 + n_step] += psi.sum(axis=0)
        return out.T.ravel()

    def leaf_centers(self, side) -> np.ndarray:
        """Absolute leaf centers: each leaf frame's origin lifted to the root frame."""
        return self._lift(side, np.zeros((2, self.n_leaves)), 0, self.depth).T
