"""Riesz capacity estimators and the distortion index algebra.

Two normalization conventions coexist and are recorded on every estimate:
"wolff_sup" estimates sup{mu(F) : W(x) <= 1} (mass after renormalizing the
potential sup to 1), while "definition" estimates sup mu(F)^p over measures
with ||I_alpha(mu)||_{p'} <= 1.  Cross-estimator comparisons take the p-th
root of definitional values (``wolff_scale``) so conventions never mix
silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cantor import CantorTree, ConfigError, check_distortion
from .measure import PlanarMeasure, _distance_rows, _leaf_sums
from .potentials import (IndexDomainError, check_indices, conjugate_minus_one, wolff_dyadic,
                         wolff_tree)

#: the quadrature grid spans FARFIELD_FACTOR support diameters around the
#: support centre; beyond it a closed-form tail takes over
FARFIELD_FACTOR = 4.0
#: largest quadrature grid side: cells^2 grid points are held at once
MAX_CELLS = 2048

LOWER_BOUND = "lower_bound"
WOLFF_SUP = "wolff_sup"
DEFINITION = "definition"


@dataclass(frozen=True)
class CapacityIndices:
    """Indices (alpha, p) with 0 < alpha*p < 2 and p > 1."""

    alpha: float
    p: float

    def __post_init__(self):
        check_indices(self.alpha, self.p)

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def conjugate_minus_one(self) -> float:
        """p' - 1 = 1/(p - 1), the outer exponent of the Wolff integrand."""
        return conjugate_minus_one(self.p)

    @property
    def homogeneity(self) -> float:
        """Scaling degree 2 - alpha*p of the capacity."""
        return 2.0 - self.alpha * self.p


def _check_k_indices(alpha, p, K):
    """Refuse, naming K, indices that K sends to alpha*p = 2 (or nan) in double
    precision: 2 - alpha*p ~ 2/(K+1) is below the ulp of 2 once K passes ~1e16."""
    if not alpha * p < 2.0:
        raise IndexDomainError(f"K = {K}: the indices it gives round to alpha*p = "
                               f"{alpha * p!r}, outside 0 < alpha*p < 2 (K is too large "
                               "for double precision)")


def distortion_indices(K) -> CapacityIndices:
    """(2K/(2K+1), (2K+1)/(K+1)): the source-side indices paired with
    analytic capacity on the distorted side; homogeneity 2/(K+1)."""
    check_distortion(K)
    alpha, p = 2.0 * K / (2.0 * K + 1.0), (2.0 * K + 1.0) / (K + 1.0)
    _check_k_indices(alpha, p, K)
    return CapacityIndices(alpha, p)


@dataclass(frozen=True)
class DistortedIndices:
    """Index algebra mapping target-side (alpha, p) to source-side (beta, q).

    t = 2 - alpha*p is the target homogeneity, t' = 2t/(2K - K*t + t) the
    source one; the identity 2 - beta*q = t' holds for all inputs.
    """

    alpha: float
    p: float
    K: float
    t: float
    t_prime: float
    beta: float
    q: float

    @property
    def image(self) -> CapacityIndices:
        return CapacityIndices(self.beta, self.q)


def distorted_index_map(alpha, p, K) -> DistortedIndices:
    check_indices(alpha, p)
    check_distortion(K)
    t = 2.0 - alpha * p
    denom = 2.0 * K - K * t + t
    t_prime = 2.0 * t / denom
    num = 2.0 * K * p * t - 3.0 * K * t + 2.0 * K + t
    beta = (4.0 * K - 2.0 * K * t) / num
    q = num / denom
    _check_k_indices(beta, q, K)
    return DistortedIndices(alpha, p, K, t, t_prime, beta, q)


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity value with its direction, indices and normalization record."""

    value: float
    direction: str
    convention: str
    indices: CapacityIndices | None
    normalization: dict
    kind: str = "riesz"

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("capacity estimates are nonnegative")
        if self.direction == LOWER_BOUND and not self.normalization:
            raise ValueError("lower bounds must record their normalization")

    def wolff_scale(self) -> float:
        """Value in the wolff_sup convention (p-th root of definitional)."""
        if self.convention == WOLFF_SUP or self.indices is None:
            return self.value
        return self.value ** (1.0 / self.indices.p)

    def to_json_dict(self):
        d = {"value": self.value, "direction": self.direction,
             "convention": self.convention, "kind": self.kind,
             "normalization": self.normalization}
        if self.indices is not None:
            d["alpha"] = self.indices.alpha
            d["p"] = self.indices.p
            d["homogeneity"] = self.indices.homogeneity
        return d


def _admissible_mass(mass, sup, indices, where) -> float:
    """mass * sup^(-1/(p'-1)), refused (naming where) unless a positive finite double."""
    try:
        value = mass * sup ** (-1.0 / indices.conjugate_minus_one)
    except (ZeroDivisionError, OverflowError):  # 0.0 ** -x, or a power past the range
        value = math.inf
    if not 0.0 < value < math.inf:
        raise IndexDomainError(f"the Wolff capacity at alpha = {indices.alpha:.6g}, p = "
                               f"{indices.p:.6g} {where} leaves "
                               f"double precision (Wolff sup {sup:.6g}, capacity {value:.6g})")
    return value


def wolff_capacity_lower(obj, indices, *, side=None, mass_convention="ideal", query_points=None,
                         k_range=None, seed=0, query_set_id=None) -> CapacityEstimate:
    """mass * S^(-1/(p'-1)) where S is the Wolff sup over the query set.

    The mass scaling law W(c*mu) = c^(p'-1) W(mu) makes the measure with
    potential sup exactly 1 a rescale of mu, so this is the admissible-mass
    lower estimate in the wolff_sup convention.  On a CantorTree the sup over
    paths is the exact tree sum (path independent) at the tree's depth (pass
    tree.prefix(depth) for a shallower one); depth-0 trees fall back to the
    closed-form single-ball term.  A divergent tree potential yields value
    0 with the divergence rate recorded; any other value of 0 or inf is refused.
    """
    eta = indices.conjugate_minus_one
    if isinstance(obj, CantorTree):
        if side is None:
            raise ValueError("side required for tree estimates")
        depth = obj.depth
        mass = math.exp(obj.log_total_mass(mass_convention))
        if depth == 0:
            # uniform unit ball: area law below the radius, constant mass above
            homog = indices.homogeneity
            log_ball = obj.log_mass(0, mass_convention) - homog * math.log(obj.scale)
            sup = math.exp(eta * log_ball) * (1.0 / ((2.0 - homog) * eta)
                                              + 1.0 / (homog * eta))
            profile, query_set = None, "root_ball_closed_form"
        else:
            profile = wolff_tree(obj, side, indices.alpha, indices.p,
                                 mass_convention=mass_convention)
            sup, query_set = profile.total, f"tree_paths:{side}:depth={depth}"
        record = {"sup": sup, "query_set": query_set,
                  "seed": seed, "mass": mass, "mass_convention": mass_convention}
        if profile is not None and profile.divergent:
            record["divergence_rate"] = profile.divergence_rate
            return CapacityEstimate(0.0, LOWER_BOUND, WOLFF_SUP, indices, record)
        value = _admissible_mass(mass, sup, indices, f"on the {side} side at depth {depth}")
        return CapacityEstimate(value, LOWER_BOUND, WOLFF_SUP, indices, record)

    if not isinstance(obj, PlanarMeasure):
        raise TypeError("expected a CantorTree or PlanarMeasure")
    if query_points is None or k_range is None:
        raise ValueError("measure estimates need query_points and k_range")
    k_min, k_max = k_range
    sup = 0.0
    for x in np.asarray(query_points, dtype=float):
        sup = max(sup, wolff_dyadic(obj, x, indices.alpha, indices.p, k_min, k_max).total)
    record = {"sup": sup, "query_set": query_set_id or f"points[{len(query_points)}]",
              "seed": seed, "mass": obj.total_mass, "k_range": [k_min, k_max]}
    value = _admissible_mass(obj.total_mass, sup, indices,
                             f"on the {obj.n_atoms}-atom measure {obj.label!r}")
    return CapacityEstimate(value, LOWER_BOUND, WOLFF_SUP, indices, record)


def direct_capacity_lower(measure, indices, cells=64) -> CapacityEstimate:
    """(mass / ||I_alpha(mu)||_{p'})^p by planar quadrature.

    The L^{p'} norm is a cell sum over a support-relative grid (so geometric
    scaling is exact) plus a closed-form far-field tail using
    I_alpha(mu)(x) <= mass / (|x - c| - diam)^{2 - alpha} beyond
    FARFIELD_FACTOR * diam.  Cells near an atom use the equal-area disk
    average of the kernel, so no infinities propagate.  The cells are split
    over the usable CPUs; each cell's value, and so the result, is the same
    bits for any CPU count.

    Without blocks each cell sums the kernel over every live atom, about
    0.79 * cells^2 * n terms for n atoms.  On a measure with blocks (such as
    ``CantorRealization.measure``) each cell takes each leaf's monopole plus
    quadrupole about its centroid where no atom of the leaf reaches the cap
    and the third-order remainder bound is at most EXPANSION_BUDGET of the
    leaf's exact share, and the leaf's atoms otherwise (``measure._leaf_sums``
    with ``_CappedPower``): about 0.79 * cells^2 * leaves expansions plus the
    atoms of the near (cell, leaf) pairs.  Every share, and so every cell
    value, is then within EXPANSION_BUDGET of its exact value, relative; the
    largest bound taken is recorded as expansion_bound.
    """
    if cells < 1:
        raise ConfigError(f"cells {cells}: need a positive count")
    if cells > MAX_CELLS:
        raise ConfigError(f"--cells {cells}: at most {MAX_CELLS} (the grid holds "
                          "cells^2 points)")
    alpha, p = indices.alpha, indices.p
    p_prime = indices.p_prime
    m = measure.total_mass
    if m == 0.0:
        return CapacityEstimate(0.0, LOWER_BOUND, DEFINITION, indices,
                                {"lambda": 0.0, "cells": cells, "note": "zero measure"})
    diam = measure.diameter()
    if diam == 0.0:
        diam = 1e-9  # single atom: pick a nominal support size
    center = measure.support_center()
    r_far = FARFIELD_FACTOR * diam
    h = 2.0 * r_far / cells
    ax = center[0] - r_far + h * (np.arange(cells) + 0.5)
    ay = center[1] - r_far + h * (np.arange(cells) + 0.5)
    gx, gy = np.meshgrid(ax, ay)
    cc = np.stack([gx.ravel(), gy.ravel()], axis=1)
    inside = np.hypot(cc[:, 0] - center[0], cc[:, 1] - center[1]) <= r_far
    cc = cc[inside]
    rho = h / math.sqrt(math.pi)
    kernel = _CappedPower(alpha, 2.0 / alpha * rho ** (alpha - 2.0))
    bound = None
    if measure.blocks is None:
        live = measure.weights > 0
        pts, w = measure.points[live], measure.weights[live]

        def cell_values(d, lo, hi):
            # sum_j w_j min(|c - x_j|^(alpha-2), cap); an atom on c gives inf, capped
            kernel.atoms(d, slice(lo, hi))
            d *= w
            return np.sum(d, axis=1)

        vals = _distance_rows(pts, cc, cc.shape[0], cell_values)
    else:
        vals, bound = _leaf_sums(measure, cc, kernel)
    cell_sum = float(np.sum(vals ** p_prime)) * h * h

    a = (2.0 - alpha) * p_prime  # > 2 whenever 0 < alpha*p < 2
    u = r_far - diam
    tail = 2.0 * math.pi * m ** p_prime * (
        u ** (2.0 - a) / (a - 2.0) + diam * u ** (1.0 - a) / (a - 1.0))
    lam = (cell_sum + tail) ** (1.0 / p_prime)
    value = (m / lam) ** p
    record = {"lambda": lam, "cells": cells, "farfield_factor": FARFIELD_FACTOR,
              "farfield_tail": tail, "diam": diam}
    if bound is not None:
        record["expansion_bound"] = bound
    return CapacityEstimate(value, LOWER_BOUND, DEFINITION, indices, record)


class _CappedPower:
    """min(|x|^-q, cap), q = 2 - alpha: the quadrature's kernel for
    ``measure._leaf_sums``.

    With k(u) = u^-q, k' = -q u^-(q+1) and k'' = q (q + 1) u^-(q+2), the
    quadrupole (k'' Q + k' / u (tr - Q)) / 2 is q u^-(q+2) ((q + 2) Q - tr) / 2.
    Where gap = u - rho exceeds cap^(-1/q) no atom of the leaf reaches the
    cap.  The third directional derivative of |x|^-q is at most
    (q)_3 |x|^-(q+3) (Gegenbauer) on the segments from the centroid to the
    atoms, all at least gap from the cell centre, and the leaf's exact share
    is at least W (u + rho)^-q, so the Taylor remainder is at most a share
    (q)_3 / 6 (rho / gap)^3 ((u + rho) / gap)^q of it.
    """

    def __init__(self, alpha, cap):
        q = self.power = 2.0 - alpha
        self.cap = cap
        self.radius = cap ** (-1.0 / q)
        self.taylor = q * (q + 1.0) * (q + 2.0) / 6.0

    def atoms(self, d, rows):
        np.power(d, -self.power, out=d)
        np.minimum(d, self.cap, out=d)

    def expand(self, u, quad, inv, work, leaf_w, trace, rows):
        # u^-q (W + q / u^2 ((q + 2) Q - tr) / 2)
        q = self.power
        quad *= q + 2.0
        quad -= trace
        quad *= inv
        quad *= 0.5 * q
        quad += leaf_w
        np.power(u, -q, out=u)
        u *= quad
        return u


def melnikov_gamma_lower(mass, sup_curvature, growth) -> CapacityEstimate:
    """Analytic-capacity lower proxy: rescale a measure of the given total
    mass until linear growth and pointwise curvature are both admissible,
    then report the rescaled mass.  sup_curvature is the sup of the pointwise
    curvature c^2_mu(x), for example CurvatureEstimate.sup_pointwise.

    Growth scales linearly and curvature quadratically in the mass, so the
    admissible rescale is c = min(1/growth, sup_curvature^(-1/2)) and the
    value c * mass is invariant under global mass scaling.
    """
    if not (growth > 0.0) or not math.isfinite(growth):
        raise ValueError(
            "growth must be positive and finite; realize the measure at "
            "sufficient sampling density before estimating")
    if sup_curvature < 0:
        raise ValueError("curvature sup must be nonnegative")
    c = 1.0 / growth if sup_curvature == 0.0 else min(1.0 / growth, sup_curvature ** -0.5)
    record = {"growth": growth, "sup_curvature": sup_curvature, "rescale": c}
    return CapacityEstimate(c * mass, LOWER_BOUND, WOLFF_SUP,
                            None, record, kind="analytic_capacity")
