"""Finite weighted atom clouds in the plane.

A PlanarMeasure is the discrete realization used by every brute-force
oracle: potentials, curvature and quadrature all reduce to sums over
its atoms. Instances are immutable after construction.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

#: atoms deeper than this fraction of the bounding-box diagonal inside the
#: convex hull cannot attain the diameter (see PlanarMeasure.diameter)
HULL_MARGIN = 2.0 ** -40
#: scratch elements of one blocked kernel call, shared by all its workers
BLOCK_ELEMENTS = 1 << 18


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_rows(row_elements, workers=1) -> int:
    """Rows of row_elements each that fit one worker's share of the scratch."""
    return max(1, BLOCK_ELEMENTS // workers // max(1, row_elements))


def _distance_rows(pts, centres, rows, reduce):
    """reduce(d, lo, hi) of the distance rows lo..hi, one value per row.

    Row i holds |c_i - y_j| over the atoms y_j of pts (n, 2): c_i is row i of
    centres (rows, 2), or one centre (2,) whose row is computed once for all.
    reduce may overwrite d and calls nothing bench/tracer.py traces (it keeps
    one span stack per process).  Rows run in one contiguous range per CPU in
    a thread pool (numpy ufuncs release the GIL), in blocks of BLOCK_ELEMENTS
    / workers elements per scratch array, each range under its own errstate
    (np.errstate does not reach pool threads): 0^-s and powers past the
    doubles give inf silently.  No value depends on the split.
    """
    n = pts.shape[0]
    px, py = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    centres = np.asarray(centres, dtype=float)
    one = centres.ndim == 1
    row = np.hypot(px - centres[0], py - centres[1]) if one else None
    out = np.empty(rows)
    workers = max(1, min(_cpus(), rows))
    step = _block_rows(n, workers)

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


def _convex_hull(pts) -> list:
    """Indices of the convex hull vertices in counterclockwise order
    (Andrew's monotone chain; collinear and repeated atoms are skipped)."""
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()

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

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def _hull_candidates(pts) -> np.ndarray:
    """Mask of the atoms within HULL_MARGIN * diagonal of the hull boundary."""
    margin = HULL_MARGIN * float(np.hypot(*np.ptp(pts, axis=0)))
    v = pts[_convex_hull(pts)]
    deep = np.ones(pts.shape[0], dtype=bool)
    for (vx, vy), (ex, ey) in zip(v, np.roll(v, -1, axis=0) - v):
        deep &= ex * (pts[:, 1] - vy) - ey * (pts[:, 0] - vx) > margin * np.hypot(ex, ey)
    return ~deep


@dataclass(frozen=True)
class PlanarMeasure:
    """Atoms ``points[i]`` with nonnegative weights ``weights[i]``."""

    points: np.ndarray
    weights: np.ndarray
    label: str = field(default="", compare=False)

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

    @classmethod
    def uniform_disk(cls, n, seed=0, center=(0.0, 0.0), radius=1.0, mass=1.0):
        """n equal atoms sampled uniformly (by area) in a disk."""
        rng = np.random.default_rng(seed)
        r = radius * np.sqrt(rng.uniform(size=n))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1) + np.asarray(center, float)
        return cls(pts, np.full(n, mass) / n, label=f"uniform_disk(n={n},seed={seed})")

    @classmethod
    def uniform_segment(cls, n, start=(0.0, 0.0), end=(1.0, 0.0), mass=1.0):
        """n equal atoms at the midpoints of n equal subsegments."""
        t = (np.arange(n) + 0.5) / n
        a, b = np.asarray(start, float), np.asarray(end, float)
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        return cls(pts, np.full(n, mass) / n, label=f"uniform_segment(n={n})")

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
        """Closed-ball masses for an increasing array of radii."""
        d = self.distances(center)
        order = np.argsort(d, kind="stable")
        cw = np.concatenate([[0.0], np.cumsum(self.weights[order])])
        idx = np.searchsorted(d[order], np.asarray(radii, dtype=float), side="right")
        return cw[idx]

    def scaled(self, lam) -> "PlanarMeasure":
        """Scale the geometry by lam, keeping weights."""
        return PlanarMeasure(self.points * float(lam), self.weights, label=self.label)

    def weighted(self, c) -> "PlanarMeasure":
        """Scale every weight by c >= 0."""
        return PlanarMeasure(self.points, self.weights * float(c), label=self.label)

    def translated(self, v) -> "PlanarMeasure":
        return PlanarMeasure(self.points + np.asarray(v, float)[None, :], self.weights,
                             label=self.label)

    def rotated(self, theta) -> "PlanarMeasure":
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        return PlanarMeasure(self.points @ rot.T, self.weights, label=self.label)

    def union(self, other: "PlanarMeasure") -> "PlanarMeasure":
        return PlanarMeasure(np.vstack([self.points, other.points]),
                             np.concatenate([self.weights, other.weights]))

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
        collinear cloud) drops nothing.  Cost: an O(n log n) sort, O(n h)
        edge tests for h hull vertices, and the k^2 pairs of k kept atoms.
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
