"""Finite weighted atom clouds in the plane.

A PlanarMeasure is the discrete realization used by every brute-force
oracle: potentials, curvature and quadrature all reduce to sums over
its atoms. Instances are immutable after construction.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: atoms deeper than this fraction of the bounding-box diagonal inside the
#: convex hull cannot attain the diameter (see PlanarMeasure.diameter)
HULL_MARGIN = 2.0 ** -40
#: scratch elements of one blocked kernel call, shared by all its workers
BLOCK_ELEMENTS = 1 << 18
#: largest remainder bound, relative to the leaf's exact share, at which a
#: leaf-expansion kernel takes a leaf's centroid expansion: one unit round-off
EXPANSION_BUDGET = 2.0 ** -53
#: slack of the whole-leaf ball tests, in units of the largest coordinate
#: magnitude (see PlanarMeasure.ball_mass_profile)
LEAF_MARGIN = 2.0 ** -40


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_rows(row_elements, workers=1) -> int:
    """Rows of row_elements each that fit one worker's share of the scratch."""
    return max(1, BLOCK_ELEMENTS // workers // max(1, row_elements))


def _distance_rows(pts, centres, rows, reduce, extra=0):
    """reduce(d, lo, hi) of the distance rows lo..hi, one value per row.

    Row i holds |c_i - y_j| over the atoms y_j of pts (n, 2): c_i is row i of
    centres (rows, 2), or one centre (2,) whose row is computed once for all.
    reduce may overwrite d and calls nothing bench/tracer.py traces (it keeps
    one span stack per process).  Rows run in one contiguous range per CPU in
    a thread pool (numpy ufuncs release the GIL), in blocks of BLOCK_ELEMENTS
    / workers elements per scratch array, each range under its own errstate
    (np.errstate does not reach pool threads): 0^-s and powers past the
    doubles give inf silently.  A reduce that holds up to extra more arrays
    of d's size at once gets blocks shrunk by 2 / (2 + extra), so that the
    call's arrays together fit the scratch of two.  No value depends on the
    split.
    """
    n = pts.shape[0]
    px, py = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    centres = np.asarray(centres, dtype=float)
    one = centres.ndim == 1
    row = np.hypot(px - centres[0], py - centres[1]) if one else None
    out = np.empty(rows)
    workers = max(1, min(_cpus(), rows))
    step = _block_rows(n * (2 + extra) // 2, workers)

    def run(lo, hi):
        d = np.empty((min(step, hi - lo), n))
        dy = None if one else np.empty_like(d)
        with np.errstate(divide="ignore", over="ignore"):
            for i in range(lo, hi, step):
                k = min(step, hi - i)
                if one:
                    d[:k] = row
                else:
                    np.subtract(px, centres[i:i + k, 0:1], out=d[:k])
                    np.subtract(py, centres[i:i + k, 1:2], out=dy[:k])
                    np.hypot(d[:k], dy[:k], out=d[:k])
                out[i:i + k] = reduce(d[:k], i, i + k)

    if workers == 1 or rows <= step:
        run(0, rows)
        return out
    from concurrent.futures import ThreadPoolExecutor
    bounds = [rows * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        for f in [pool.submit(run, lo, hi) for lo, hi in zip(bounds, bounds[1:])]:
            f.result()
    return out


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
    """A measure's atoms in consecutive groups of ``atoms`` (its leaves) of
    equal weight within each group: per group, the centroid (x, y), the
    second moments (sxx, sxy, syy) of its atom positions about the centroid,
    unweighted, and the largest atom distance from the centroid (to within
    the rounding of a few additions per tree generation, far below
    LEAF_MARGIN times the largest coordinate magnitude)."""

    centroids: np.ndarray
    moments: np.ndarray
    radii: np.ndarray
    atoms: int


def _leaf_sums(measure, centres, kernel):
    """Per row c of centres (rows, 2), sum_j w_j k(|c - y_j|) over the atoms
    y_j of the measure, leaf by leaf over ``measure.blocks``, and the largest
    remainder share taken.

    A leaf of weight W, atom weight w, centroid y, second moments S and
    radius rho lies at u = |y - c| from c.  Where gap = u - rho exceeds
    kernel.radius and the kernel's remainder share

        kernel.taylor * x^3 * (1 + 2 x)^kernel.power,   x = rho / gap,

    (so 1 + 2 x = (u + rho) / gap) is at most EXPANSION_BUDGET of the
    leaf's exact share, the leaf is replaced by its monopole plus quadrupole
    about the centroid (the dipole vanishes there),

        W k(u) + (k''(u) Q + k'(u) / u (tr - Q)) / 2,   Q = d.(w S) d,
        tr = w tr S,   d = (y - c) / u,

    which ``kernel.expand(u, Q, 1 / u^2, work, W, tr, rows)`` forms over u
    (work is free scratch of u's shape; rows selects the kernel's per-row
    parameters).  Elsewhere the leaf's atoms are summed as the flat route
    does: ``kernel.atoms(d, rows)`` turns their distances d into kernel
    values in place, and the weights multiply them.  A share that is not
    finite is never taken.  Neither kernel method may call anything
    bench/tracer.py traces: they run on ``_distance_rows``' pool threads.
    """
    blocks = measure.blocks
    s, n_leaves = blocks.atoms, blocks.centroids.shape[0]
    leaf_w, w, _ = measure._leaves
    sxx, sxy, syy = (w * mom for mom in blocks.moments.T)
    sxy *= 2.0
    trace = sxx + syy
    rho = blocks.radii
    mx, my = blocks.centroids[:, 0], blocks.centroids[:, 1]
    px, py = (measure.points[:, k].reshape(n_leaves, s) for k in (0, 1))
    radius, taylor, power = kernel.radius, kernel.taylor, kernel.power
    shares = np.zeros(centres.shape[0])

    def expand(u, lo, hi):
        """Overwrite u with the expansions; the mask of the pairs that take
        them, and the largest remainder share among those."""
        c = centres[lo:hi]
        x = u - rho
        far = x > radius
        with np.errstate(invalid="ignore"):  # a pair inside its leaf: inf or nan, not far
            np.maximum(x, radius, out=x)
            np.divide(rho, x, out=x)
            t = 2.0 * x
            t += 1.0
            np.power(t, power, out=t)
            for _ in range(3):
                t *= x
            t *= taylor
            far &= t <= EXPANSION_BUDGET
        share = np.max(t, axis=1, where=far, initial=0.0)
        dx, dy = np.subtract(mx, c[:, 0:1], out=x), np.subtract(my, c[:, 1:2], out=t)
        quad = dx * dy
        quad *= sxy
        dx *= dx
        dx *= sxx
        quad += dx
        dy *= dy
        dy *= syy
        quad += dy
        inv = np.multiply(u, u, out=dx)
        with np.errstate(invalid="ignore"):  # u = 0 is a near pair, replaced later
            np.reciprocal(inv, out=inv)
            quad *= inv
            u = kernel.expand(u, quad, inv, dy, leaf_w, trace, slice(lo, hi))
        return u, far, share

    def leaf_sums(u, lo, hi):
        u, far, shares[lo:hi] = expand(u, lo, hi)
        # the near leaves' atoms, in pieces no larger than this block of pairs
        rows, cols = np.nonzero(~far)
        step = max(1, u.size // s)
        for k in range(0, rows.size, step):
            i, j = rows[k:k + step], cols[k:k + step]
            d, e = px[j], py[j]
            d -= centres[lo + i, 0:1]
            e -= centres[lo + i, 1:2]
            np.hypot(d, e, out=d)
            kernel.atoms(d, lo + i)
            d *= w[j, None]
            u[i, j] = np.sum(d, axis=1)
        return np.sum(u, axis=1)

    # leaf_sums holds up to four more arrays of u's size: x, t and quad, or
    # the near pairs' indices and atom coordinates
    vals = _distance_rows(blocks.centroids, centres, centres.shape[0], leaf_sums, extra=4)
    return vals, float(shares.max(initial=0.0))


@dataclass(frozen=True)
class PlanarMeasure:
    """Atoms ``points[i]`` with nonnegative weights ``weights[i]``.

    ``blocks`` optionally groups the atoms into leaves (``LeafBlocks``), as
    ``CantorRealization.measure`` does; the kernels that read it
    (``eps_mu_a``, ``direct_capacity_lower``, ``ball_mass_profile``) then
    work leaf by leaf.  Blocks must cover the atoms, with equal weights
    within each leaf; blocks of one atom per leaf are dropped, since each
    such leaf is its atom.
    """

    points: np.ndarray
    weights: np.ndarray
    label: str = field(default="", compare=False)
    blocks: LeafBlocks | None = field(default=None, compare=False)

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
            s, n_leaves = blocks.atoms, blocks.centroids.shape[0]
            if n_leaves * s != pts.shape[0]:
                raise ValueError(f"blocks of {n_leaves} leaves x {s} atoms do not cover the "
                                 f"{pts.shape[0]}-atom measure")
            leaves = w.reshape(n_leaves, s)
            if np.any(leaves != leaves[:, :1]):
                raise ValueError("atoms of one leaf must carry equal weights")
            if s == 1:
                object.__setattr__(self, "blocks", None)

    @functools.cached_property
    def _leaves(self):
        """Per leaf of the blocks, its weight and its atoms' common weight, and
        the largest coordinate magnitude any leaf reaches, |centroid| + radius."""
        blocks = self.blocks
        weights = self.weights.reshape(-1, blocks.atoms)
        extent = np.abs(blocks.centroids).max(axis=1) + blocks.radii
        return weights.sum(axis=1), weights[:, 0], float(extent.max(initial=0.0))

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
        distance (``distances``) is at most the radius.

        Without blocks every atom's distance is sorted, n terms.  With blocks
        a leaf at computed centroid distance u and radius rho lies wholly
        inside a ball of radius R when u + rho + m <= R and wholly outside
        when u - rho - m > R.  The margin m = LEAF_MARGIN * S, S the largest
        coordinate magnitude of the centre and the leaves' reach, covers the
        rounding of the computed distances (two subtractions and a hypot,
        under 2^-50 S each for the atoms and the centroid) and of the lifted
        coordinates behind the blocks (one rounding per generation, under
        2^-52 S each), with room for hundreds of generations.  A leaf that
        no radius straddles so stands for its weight, keyed at u + rho + m;
        only a straddling leaf, such as the one holding the centre, is
        replaced by its atoms' computed distances.  Every count of atoms
        inside a ball is then the flat count exactly, and the masses differ
        only in the order of summation.  Cost: the leaves plus the atoms of
        the straddling ones, instead of n.
        """
        radii = np.asarray(radii, dtype=float)
        blocks = self.blocks
        if blocks is None:
            d = self.distances(center)
            order = np.argsort(d, kind="stable")
            cw = np.concatenate([[0.0], np.cumsum(self.weights[order])])
            idx = np.searchsorted(d[order], radii, side="right")
            return cw[idx]
        x = np.asarray(center, dtype=float)
        mu, s = blocks.centroids, blocks.atoms
        leaf_w, _, extent = self._leaves
        u = np.hypot(mu[:, 0] - x[0], mu[:, 1] - x[1])
        reach = blocks.radii + LEAF_MARGIN * max(float(np.abs(x).max()), extent)
        inner, outer = u - reach, u + reach
        # a leaf straddles when the first radius >= inner lies below outer
        steps = np.append(np.sort(radii, axis=None), np.inf)
        split = steps[np.searchsorted(steps, inner, side="left")] < outer
        whole = np.flatnonzero(~split)
        atoms = (np.flatnonzero(split)[:, None] * s + np.arange(s)).ravel()
        d = self.points[atoms] - x[None, :]
        keys = np.concatenate([outer[whole], np.hypot(d[:, 0], d[:, 1])])
        mass = np.concatenate([leaf_w[whole], self.weights[atoms]])
        order = np.argsort(keys, kind="stable")
        cw = np.concatenate([[0.0], np.cumsum(mass[order])])
        return cw[np.searchsorted(keys[order], radii, side="right")]

    def diameter(self) -> float:
        """Exact support diameter: the largest ``hypot`` of coordinate
        differences over all atom pairs, bit for bit.

        Only atoms near the convex hull boundary can attain it.  If an atom
        p lies at distance t inside a polygon whose vertices are atoms, then
        for every atom q the point p + t (p - q)/|p - q| is in the hull, so
        |p - q| + t <= D, the exact diameter.  An atom is dropped when it
        lies more than HULL_MARGIN times the bounding-box diagonal inside
        every edge of the monotone-chain hull; the computed edge tests err
        by under 2^-50 of the diagonal, so a dropped atom has
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
        pts = np.unique(pts[_hull_candidates(pts)], axis=0)
        return float(np.max(_distance_rows(pts, pts, pts.shape[0],
                                           lambda d, lo, hi: np.max(d, axis=1))))

    def support_center(self) -> np.ndarray:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return (lo + hi) / 2.0
