"""Finite weighted atom clouds in the plane.

A PlanarMeasure is the discrete realization used by every brute-force
oracle: potentials, curvature and quadrature all reduce to sums over
its atoms. Instances are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
        return cls(pts, np.full(n, mass / n), label=f"uniform_disk(n={n},seed={seed})")

    @classmethod
    def uniform_segment(cls, n, start=(0.0, 0.0), end=(1.0, 0.0), mass=1.0):
        """n equal atoms at the midpoints of n equal subsegments."""
        t = (np.arange(n) + 0.5) / n
        a, b = np.asarray(start, float), np.asarray(end, float)
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        return cls(pts, np.full(n, mass / n), label=f"uniform_segment(n={n})")

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
        """Exact support diameter (blocked pairwise max)."""
        pts = self.points
        n = pts.shape[0]
        if n < 2:
            return 0.0
        best = 0.0
        block = 1024
        for i in range(0, n, block):
            chunk = pts[i:i + block]
            d = chunk[:, None, :] - pts[None, :, :]
            best = max(best, float(np.max(np.hypot(d[..., 0], d[..., 1]))))
        return best

    def support_center(self) -> np.ndarray:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return (lo + hi) / 2.0
