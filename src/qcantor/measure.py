"""Finite weighted atom clouds in the plane.

A PlanarMeasure is the discrete realization used by every brute-force
oracle: potentials, curvature and quadrature all reduce to sums over
its atoms. Instances are immutable after construction.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: atoms deeper than this fraction of the bounding-box diagonal inside the
#: convex hull cannot attain the diameter (see PlanarMeasure.diameter)
HULL_MARGIN = 2.0 ** -40
#: scratch elements per array of one blocked kernel call
BLOCK_ELEMENTS = 1 << 18
#: largest remainder bound, relative to the leaf's exact share, at which a
#: leaf-expansion kernel takes a leaf's centroid expansion, and the relative
#: error of the tree eps fill (``CantorRealization.eps_rings``): one unit round-off
EXPANSION_BUDGET = 2.0 ** -53
#: slack of the whole-leaf ball tests, in units of the largest coordinate
#: magnitude (see PlanarMeasure.ball_mass_profile)
LEAF_MARGIN = 2.0 ** -40


def _block_rows(row_elements) -> int:
    """Rows of row_elements each that fit the scratch budget, BLOCK_ELEMENTS."""
    return max(1, BLOCK_ELEMENTS // max(1, row_elements))


def _distance_rows(pts, centres, reduce, extra=0):
    """reduce(d, lo, hi) of the distance rows lo..hi, one value per row.

    Row i holds |c_i - y_j| over the atoms y_j of pts (n, 2), c_i row i of
    centres (m, 2); one centre is one row.  reduce may overwrite d.  The rows
    run on the calling thread in blocks of BLOCK_ELEMENTS elements per
    scratch array, under one errstate: 0^-s and powers past the doubles give
    inf silently.  A reduce that holds up to extra more arrays of d's size
    at once gets blocks shrunk by 2 / (2 + extra), so that the call's arrays
    together fit the scratch of two.  No value depends on the block size.
    """
    n, rows = pts.shape[0], centres.shape[0]
    px, py = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    out = np.empty(rows)
    step = _block_rows(n * (2 + extra) // 2)
    d = np.empty((min(step, rows), n))
    dy = np.empty_like(d)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(0, rows, step):
            k = min(step, rows - i)
            np.subtract(px, centres[i:i + k, 0:1], out=d[:k])
            np.subtract(py, centres[i:i + k, 1:2], out=dy[:k])
            np.hypot(d[:k], dy[:k], out=d[:k])
            out[i:i + k] = reduce(d[:k], i, i + k)
    return out


def _kernel_sums(measure, centres, kernel):
    """Per row c_i of centres (m, 2), sum_j w_j k(|c_i - y_j|) over the atoms
    y_j of the measure, and the largest remainder share taken (None on the
    atom route).

    The one route of the flat kernels (``eps_mu_a``, ``direct_capacity_lower``,
    ``riesz_potential``).  On a measure with blocks and no atom of zero
    weight the rows are ``_leaf_sums``; otherwise each row sums over the
    atoms of positive weight, ``kernel.atoms(d, rows)`` turning their
    distances d into kernel values in place (so a dead atom at c_i, where k
    is inf, adds nothing).
    """
    live = measure.weights > 0
    if measure.blocks is not None and live.all():
        return _leaf_sums(measure, centres, kernel)
    w = measure.weights[live]

    def atom_sums(d, lo, hi):
        kernel.atoms(d, slice(lo, hi))
        d *= w
        return np.sum(d, axis=1)

    return _distance_rows(measure.points[live], centres, atom_sums), None


def _inside(pts, v, margin) -> np.ndarray:
    """Mask of the atoms more than margin inside every edge of the
    counterclockwise polygon v (k, 2) of distinct consecutive vertices;
    nothing is inside one of fewer than three."""
    inside = np.full(pts.shape[0], len(v) >= 3)
    for (vx, vy), (ex, ey) in zip(v, np.roll(v, -1, axis=0) - v):
        inside &= ex * (pts[:, 1] - vy) - ey * (pts[:, 0] - vx) > margin * np.hypot(ex, ey)
    return inside


def _convex_hull(pts, margin) -> list:
    """Indices of the convex hull vertices in counterclockwise order
    (Andrew's monotone chain; collinear and repeated atoms are skipped).

    The chain sees only the atoms not more than margin inside the octagon of
    the extreme atoms in x, x + y, y, y - x and their opposites (Akl and
    Toussaint), which are hull points in counterclockwise order."""
    s, t = pts[:, 0] + pts[:, 1], pts[:, 1] - pts[:, 0]
    ext = [np.argmax(pts[:, 0]), np.argmax(s), np.argmax(pts[:, 1]), np.argmax(t),
           np.argmin(pts[:, 0]), np.argmin(s), np.argmin(pts[:, 1]), np.argmin(t)]
    octagon = pts[ext]
    octagon = octagon[np.any(octagon != np.roll(octagon, 1, axis=0), axis=1)]
    outer = np.flatnonzero(~_inside(pts, octagon, margin))
    xs, ys = pts[outer, 0].tolist(), pts[outer, 1].tolist()
    order = np.lexsort((ys, xs)).tolist()

    def chain(seq):
        keep = []
        for b in seq:
            while len(keep) >= 2:
                o, a = keep[-2], keep[-1]
                # keep a where o -> a -> b turns strictly counterclockwise
                if (xs[b] - xs[o]) * (ys[a] - ys[o]) < (ys[b] - ys[o]) * (xs[a] - xs[o]):
                    break
                keep.pop()
            keep.append(b)
        return keep

    return outer[chain(order)[:-1] + chain(order[::-1])[:-1]].tolist()


def _hull_candidates(pts) -> np.ndarray:
    """Mask of the atoms within HULL_MARGIN * diagonal of the hull boundary."""
    margin = HULL_MARGIN * float(np.hypot(*np.ptp(pts, axis=0)))
    return ~_inside(pts, pts[_convex_hull(pts, margin)], margin)


class LeafBlocks(NamedTuple):
    """One tree generation's blocks: a measure's atoms in consecutive groups
    of ``atoms`` of equal weight within each group, and per group the
    centroid (x, y), the second moments (sxx, 2 sxy, syy) of its atom
    positions about the centroid, unweighted, in the format of
    ``_quadrupole`` and of the tree eps fill (``CantorRealization._blocks``),
    and a bound on the largest atom distance from the centroid, at the leaves
    that distance (to within the rounding of a few additions per tree
    generation, far below LEAF_MARGIN times the largest coordinate magnitude)."""

    centroids: np.ndarray
    moments: np.ndarray
    radii: np.ndarray
    atoms: int


def _taylor(power):
    """(k)_3 / 6 = k (k + 1) (k + 2) / 6: the third-order remainder constant
    of a kernel of power k, |x|^-k or psi_a with k = 1 + a (``_leaf_sums``)."""
    return power * (power + 1.0) * (power + 2.0) / 6.0


def _quadrupole(dx, dy, sxx, sxy2, syy):
    """Q = d.S d = (dx sxy2) dy + dx^2 sxx + dy^2 syy along the unit
    directions (dx, dy), for second moments S in the format (sxx, 2 sxy, syy)
    of ``LeafBlocks.moments``, broadcast against the directions: the one
    quadrupole form of the block expansions (``_block_sums`` and the tree
    eps fill).  Overwrites dx and dy, and allocates only Q."""
    quad = np.multiply(dx, sxy2)
    quad *= dy
    dx *= dx
    dx *= sxx
    quad += dx
    dy *= dy
    dy *= syy
    quad += dy
    return quad


def _leaf_sums(measure, centres, kernel):
    """Per row c of centres (rows, 2), sum_j w_j k(|c - y_j|) over the atoms
    y_j of the measure, block by block over ``measure.blocks``, and the
    largest remainder share taken: ``_kernel_sums``' route on a measure with
    blocks and no atom of zero weight.

    A block of weight W, atom weight w, centroid y, second moments S and
    radius rho lies at u = |y - c| from c.  It is admissible for c where
    gap = u - rho exceeds kernel.radius and the kernel's remainder share

        (k)_3 / 6 * x^3 * (1 + 2 x)^k,   x = rho / gap,   k = kernel.power,

    (so 1 + 2 x = (u + rho) / gap) is at most EXPANSION_BUDGET of the
    block's exact share; it is then replaced by its monopole plus quadrupole
    about the centroid (the dipole vanishes there),

        W k(u) + (k''(u) Q + k'(u) / u (tr - Q)) / 2,   Q = d.(w S) d,
        tr = w tr S,   d = (y - c) / u,

    which ``kernel.expand(u, Q, tr, 1 / u, W, rows)`` forms over u (rows
    selects the kernel's per-row parameters).

    Each row takes the coarsest generation of ``measure.blocks`` whose every
    block is admissible for it, and is the sum of their expansions.  A row
    that no generation above the leaves serves is summed leaf by leaf: the
    admissible leaves by their expansions, the others as the atom route of
    ``_kernel_sums`` does, ``kernel.atoms(d, rows)`` turning their atoms'
    distances d into kernel values in place and the weights multiplying
    them.  A row's value so depends on that row alone.  A share that is not
    finite is never taken.
    """
    rows, leaves = centres.shape[0], len(measure.blocks) - 1
    vals, bound, todo = np.empty(rows), 0.0, np.arange(rows)
    for g, blocks in enumerate(measure.blocks):
        if todo.size:
            todo, share = _block_sums(measure, blocks, centres, todo, kernel, vals, g == leaves)
            bound = max(bound, share)
    return vals, bound


def _block_sums(measure, blocks, centres, todo, kernel, vals, exact=False):
    """``_leaf_sums`` of the rows todo over one generation's blocks: writes
    the values of the rows it serves into vals, and returns the others and
    the largest remainder share taken for the served rows.  It serves the
    rows whose every block is admissible, and every row when exact (a block
    that is not admissible then gives its atoms)."""
    s, n_blocks = blocks.atoms, blocks.centroids.shape[0]
    weights = measure.weights.reshape(n_blocks, s)
    block_w, w = weights.sum(axis=1), weights[:, 0]
    sxx, sxy2, syy = (w * mom for mom in blocks.moments.T)
    trace = sxx + syy
    rho = blocks.radii
    mx, my = blocks.centroids[:, 0], blocks.centroids[:, 1]
    px, py = (measure.points[:, k].reshape(n_blocks, s) for k in (0, 1))
    radius, power = kernel.radius, kernel.power
    taylor = _taylor(power)
    centres = centres[todo]
    share, served = np.zeros(todo.size), np.ones(todo.size, dtype=bool)

    def admissible(u):
        """The mask of the admissible pairs of the distances u, and per row
        the largest remainder share among those."""
        x = u - rho
        far = x > radius
        with np.errstate(invalid="ignore"):  # a pair inside its block: inf or nan, not far
            np.maximum(x, radius, out=x)
            np.divide(rho, x, out=x)
            t = 2.0 * x
            t += 1.0
            np.power(t, power, out=t)
            for _ in range(3):
                t *= x
            t *= taylor
            far &= t <= EXPANSION_BUDGET
        return far, np.max(t, axis=1, where=far, initial=0.0)

    def expand(u, c, rows):
        """Overwrite u, the distances of the centres c (rows todo[rows]), with
        the expansions."""
        # x and t are the unit direction d, then x the scale 1 / u
        x = np.subtract(mx, c[:, 0:1])
        t = np.subtract(my, c[:, 1:2])
        with np.errstate(invalid="ignore"):  # u = 0 is a near pair, replaced later
            x /= u
            t /= u
            quad = _quadrupole(x, t, sxx, sxy2, syy)
            del t  # the kernel's scratch takes its place
            return kernel.expand(u, quad, trace, np.divide(1.0, u, out=x), block_w, todo[rows])

    def block_sums(u, lo, hi):
        far, share[lo:hi] = admissible(u)
        if not exact:
            # only the rows whose every block is admissible are expanded
            ok = served[lo:hi] = np.all(far, axis=1)
            if ok.all():  # the usual case: no copy of u
                return np.sum(expand(u, centres[lo:hi], slice(lo, hi)), axis=1)
            rows = lo + np.flatnonzero(ok)
            out = np.zeros(hi - lo)
            out[ok] = np.sum(expand(u[ok], centres[rows], rows), axis=1)
            return out
        u = expand(u, centres[lo:hi], slice(lo, hi))
        # the near blocks' atoms, in pieces no larger than this block of pairs
        rows, cols = np.nonzero(~far)
        step = max(1, u.size // s)
        for k in range(0, rows.size, step):
            i, j = rows[k:k + step], cols[k:k + step]
            d, e = px[j], py[j]
            d -= centres[lo + i, 0:1]
            e -= centres[lo + i, 1:2]
            np.hypot(d, e, out=d)
            kernel.atoms(d, todo[lo + i])
            d *= w[j, None]
            u[i, j] = np.sum(d, axis=1)
        return np.sum(u, axis=1)

    # block_sums holds up to four more arrays of u's size: x, t and quad, then
    # x, quad and the kernel's two scratch arrays, or the near pairs' indices
    # and atom coordinates
    out = _distance_rows(blocks.centroids, centres, block_sums, extra=4)
    vals[todo[served]] = out[served]
    return todo[~served], float(share.max(where=served, initial=0.0))


def _check_level(g, level, w):
    """Raise ValueError naming generation g of a measure's blocks unless level
    is valid for the atoms of weights w (``PlanarMeasure``)."""
    if not isinstance(level, LeafBlocks):
        raise ValueError(f"blocks level {g} is not a LeafBlocks")
    s, n_blocks = level.atoms, len(np.atleast_1d(level.centroids))
    for name, cols in (("centroids", (2,)), ("moments", (3,)), ("radii", ())):
        arr, shape = getattr(level, name), (n_blocks, *cols)
        if np.shape(arr) != shape:
            raise ValueError(f"blocks level {g}: {name} has shape {np.shape(arr)}, not {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"blocks level {g}: {name} must be finite")
    if np.any(np.less(level.radii, 0.0)):
        raise ValueError(f"blocks level {g}: radii must be nonnegative")
    if n_blocks * s != w.shape[0]:
        raise ValueError(f"blocks level {g}: {n_blocks} blocks x {s} atoms do not cover "
                         f"the {w.shape[0]}-atom measure")
    group = w.reshape(n_blocks, s)
    if np.any(group != group[:, :1]):
        raise ValueError(f"blocks level {g}: atoms of one block must carry equal weights")


@dataclass(frozen=True)
class PlanarMeasure:
    """Atoms ``points[i]`` with nonnegative weights ``weights[i]``.

    ``blocks`` optionally groups the atoms into a tuple of ``LeafBlocks``, one
    per tree generation from the root to the leaves, as
    ``CantorRealization.measure`` does; the kernels that read it
    (``eps_mu_a``, ``direct_capacity_lower``, ``riesz_potential``) then take
    each query at the coarsest generation that serves it, and
    ``ball_mass_profile`` and ``diameter`` work leaf by leaf, over
    ``blocks[-1]``.  Every generation's blocks must cover the atoms, with
    equal weights within each block, finite arrays of one row per block and
    nonnegative radii; blocks of one atom per leaf are dropped, since each
    such leaf is its atom.
    """

    points: np.ndarray
    weights: np.ndarray
    label: str = field(default="", compare=False)
    blocks: tuple[LeafBlocks, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must have shape (n,)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        blocks = self.blocks
        if blocks is not None:
            if not blocks:
                raise ValueError("blocks must hold at least one generation")
            for g, level in enumerate(blocks):
                _check_level(g, level, w)
            if blocks[-1].atoms == 1:
                object.__setattr__(self, "blocks", None)

    @functools.cached_property
    def _extent(self) -> float:
        """The largest coordinate magnitude any leaf reaches, |centroid| + radius."""
        blocks = self.blocks[-1]
        extent = np.abs(blocks.centroids).max(axis=1) + blocks.radii
        return float(extent.max(initial=0.0))

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def distances(self, x) -> np.ndarray:
        d = self.points - np.asarray(x, dtype=float)[None, :]
        return np.hypot(d[:, 0], d[:, 1])

    def ball_mass(self, center, radius) -> float:
        """Mass of the closed ball B(center, radius)."""
        return float(np.sum(self.weights[self.distances(center) <= radius]))

    def ball_mass_profile(self, center, radii) -> np.ndarray:
        """Closed-ball masses for an array of radii: the atoms whose computed
        distance (``distances``) is at most the radius.  center is one
        centre (2,), giving an array of radii's shape, or many (m, 2),
        giving one such row per centre; a single centre is one row of the
        batch, bit for bit.

        Each row weighs items, each keyed at a distance: a key counts
        towards every radius at or above it, so the row is the running sum,
        over the sorted radii, of its items' weights binned at the first
        radius at or above their keys.  Without blocks the items are the
        atoms, keyed at their distances, n per row.  With blocks a leaf at
        computed centroid distance u and radius rho lies wholly inside a
        ball of radius R when u + rho + m <= R and wholly outside when
        u - rho - m > R.  The margin m = LEAF_MARGIN * S, S the largest
        coordinate magnitude of the centre and the leaves' reach, covers the
        rounding of the computed distances (two subtractions and a hypot,
        under 2^-50 S each for the atoms and the centroid) and of the lifted
        coordinates behind the blocks (one rounding per generation, under
        2^-52 S each), with room for hundreds of generations.  A leaf that
        no radius straddles so is one item of its weight; only a straddling
        leaf, such as the one holding the centre, gives its atoms.  Every
        count of atoms inside a ball is then the flat count exactly, and
        the masses differ only in the order of summation.  Cost: the leaves
        plus the atoms of the straddling ones per row, instead of n.  The
        rows run in batches whose items fit BLOCK_ELEMENTS.
        """
        radii = np.asarray(radii, dtype=float)
        x = np.asarray(center, dtype=float)
        centres = x.reshape(-1, 2)
        rows, n = centres.shape[0], self.n_atoms
        order = np.argsort(radii, axis=None, kind="stable")
        steps = radii.ravel()[order]
        bins = steps.size + 1  # the last bin: keys above every radius
        binned = np.empty((rows, bins))
        step = _block_rows(2 * n)
        for lo in range(0, rows, step):
            c = centres[lo:lo + step]
            row, bin_, mass = self._ball_items(c, steps)
            bin_ += row * bins
            binned[lo:lo + step] = np.bincount(bin_, mass, c.shape[0] * bins).reshape(-1, bins)
        masses = np.empty((rows, steps.size))
        masses[:, order] = np.cumsum(binned, axis=1)[:, :-1]
        masses = masses.reshape((rows,) + radii.shape)
        return masses[0] if x.ndim == 1 else masses

    def _ball_items(self, centres, steps):
        """(row, bin, weight) of the items that ``ball_mass_profile`` bins for
        the centres (k, 2) and sorted radii steps, bin being the index of the
        first radius at or above the item's key; each row's items come in a
        fixed order, its whole leaves and then its atoms."""
        k, n = centres.shape[0], self.n_atoms
        cx, cy = centres[:, 0:1], centres[:, 1:2]
        if self.blocks is None:
            d = np.hypot(self.points[:, 0] - cx, self.points[:, 1] - cy)
            return (np.arange(k).repeat(n), np.searchsorted(steps, d.ravel(), side="left"),
                    np.tile(self.weights, k))
        blocks = self.blocks[-1]
        mu, s = blocks.centroids, blocks.atoms
        u = np.hypot(mu[:, 0] - cx, mu[:, 1] - cy)
        scale = np.maximum(np.abs(centres).max(axis=1, keepdims=True), self._extent)
        reach = blocks.radii + LEAF_MARGIN * scale
        inner = np.searchsorted(steps, u - reach, side="left")
        # a leaf straddles when some radius lies in [u - reach, u + reach)
        split = np.searchsorted(steps, u + reach, side="left") > inner
        whole, (row_s, leaf_s) = np.nonzero(~split), np.nonzero(split)
        atoms = (leaf_s[:, None] * s + np.arange(s)).ravel()
        row_a = row_s.repeat(s)
        d = np.hypot(self.points[atoms, 0] - cx[row_a, 0], self.points[atoms, 1] - cy[row_a, 0])
        leaf_w = self.weights.reshape(-1, s).sum(axis=1)[whole[1]]
        return (np.concatenate([whole[0], row_a]),
                np.concatenate([inner[whole], np.searchsorted(steps, d, side="left")]),
                np.concatenate([leaf_w, self.weights[atoms]]))

    def diameter(self) -> float:
        """Exact support diameter: the largest ``hypot`` of coordinate
        differences over all atom pairs, bit for bit.

        With blocks, a pair of leaves i, j at computed centroid distance u
        holds no atom pair farther apart than u + reach_i + reach_j and
        none closer than u - reach_i - reach_j, where reach is the leaf's
        radius plus LEAF_MARGIN times the largest coordinate magnitude any
        leaf reaches: the margin that covers the rounding of the computed
        distances and of the lifted coordinates (``ball_mass_profile``).  The
        largest lower bound over all leaf pairs is so at most the diameter,
        every pair of leaves whose upper bound falls below it is skipped,
        and the atom pairs of the others are maximised exactly.  Cost: the
        leaves^2 bounds plus s^2 atom pairs per leaf pair kept, s atoms per
        leaf.

        Without blocks only atoms near the convex hull boundary can attain
        it.  If an atom p lies at distance t inside a polygon whose vertices
        are atoms, then for every atom q the point p + t (p - q)/|p - q| is
        in the hull, so |p - q| + t <= D, the exact diameter.  An atom is
        dropped when it lies more than HULL_MARGIN times the bounding-box
        diagonal inside every edge of the monotone-chain hull; the computed
        edge tests err by under 2^-50 of the diagonal, so a dropped atom has
        t > 2^-41 * diagonal >= 2^-41 D.  Rounding moves a computed
        distance by a few ulps (< 2^-50 D), so no pair with a dropped atom
        can exceed the computed distance of the two hull vertices that
        realise D, and the row maxima over the distinct kept atoms give the
        max over all pairs.  A hull with fewer than three vertices (a
        collinear cloud) drops nothing.  Cost: 8 n octagon tests, an
        O(m log m) sort of the m atoms not inside the octagon (``_convex_hull``),
        O(n h) edge tests for h hull vertices, and the k^2 pairs of k kept
        atoms.
        """
        pts = self.points
        if pts.shape[0] < 2:
            return 0.0
        row_max = lambda d, lo, hi: np.max(d, axis=1)  # noqa: E731
        if self.blocks is None:
            pts = np.unique(pts[_hull_candidates(pts)], axis=0)
            return float(np.max(_distance_rows(pts, pts, row_max)))
        blocks = self.blocks[-1]
        mu, s = blocks.centroids, blocks.atoms
        reach = blocks.radii + LEAF_MARGIN * self._extent
        lower = _distance_rows(mu, mu, lambda u, lo, hi: np.max(u - reach, axis=1))
        best = float(np.max(lower - reach))
        upper = _distance_rows(mu, mu, lambda u, lo, hi: np.max(u + reach, axis=1))
        diam = 0.0
        for i in np.flatnonzero(upper + reach >= best):
            u = np.hypot(mu[i:, 0] - mu[i, 0], mu[i:, 1] - mu[i, 1])
            kept = i + np.flatnonzero(u + reach[i:] + reach[i] >= best)
            if not kept.size:  # its pairs were kept by the earlier leaves
                continue
            atoms = (kept[:, None] * s + np.arange(s)).ravel()
            diam = max(diam, float(np.max(_distance_rows(pts[atoms], pts[i * s:(i + 1) * s],
                                                         row_max))))
        return diam

    def support_center(self) -> np.ndarray:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return (lo + hi) / 2.0
