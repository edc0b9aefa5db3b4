"""Riesz capacity estimators and the distortion index algebra.

Every estimate records its normalization convention, which also says what
kind of number it is; none is a certified bound.  "wolff_sup" values,
sup{mu(F) : W(x) <= 1} after renormalizing the potential sup to 1, are
comparable to the capacity up to constants of the indices; a "definition"
value estimates sup mu(F)^p over ||I_alpha(mu)||_{p'} <= 1 by quadrature.
``wolff_scale`` takes its p-th root, so conventions never mix silently.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cantor import CantorTree, ConfigError, check_distortion
from .measure import PlanarMeasure, _kernel_sums
from .potentials import (IndexDomainError, _CappedPower, _dyadic_terms, check_indices,
                         conjugate_minus_one, wolff_tree)

#: the quadrature grid spans FARFIELD_FACTOR support diameters around the
#: support centre; beyond it a closed-form tail takes over
FARFIELD_FACTOR = 4.0
#: largest quadrature grid side: cells^2 grid points are held at once
MAX_CELLS = 2048

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


class IndexOverflowError(IndexDomainError):
    """Indices (alpha, p) that the distortion map sends past the doubles."""


def distorted_index_map(alpha, p, K) -> DistortedIndices:
    check_indices(alpha, p)
    check_distortion(K)
    t = 2.0 - alpha * p
    denom = 2.0 * K - K * t + t
    t_prime = 2.0 * t / denom
    num = 2.0 * K * p * t - 3.0 * K * t + 2.0 * K + t
    beta = (4.0 * K - 2.0 * K * t) / num
    q = num / denom
    # denom depends on K and t alone: past the doubles it is K's, refused below;
    # otherwise num overflowed, for a huge p
    if math.isfinite(denom) and not (math.isfinite(beta) and math.isfinite(q)):
        raise IndexOverflowError(f"alpha = {alpha!r}, p = {p!r} map to beta = {beta!r}, "
                               f"q = {q!r}, outside double precision")
    _check_k_indices(beta, q, K)
    return DistortedIndices(alpha, p, K, t, t_prime, beta, q)


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity value, with no side claimed, its indices and its record."""

    value: float
    convention: str
    indices: CapacityIndices | None
    normalization: dict
    kind: str = "riesz"

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("capacity estimates are nonnegative")
        if not self.normalization:
            raise ValueError("capacity estimates must record their normalization")

    def wolff_scale(self) -> float:
        """Value in the wolff_sup convention (p-th root of definitional)."""
        if self.convention == WOLFF_SUP or self.indices is None:
            return self.value
        return self.value ** (1.0 / self.indices.p)

    def to_json_dict(self):
        d = {"value": self.value, "convention": self.convention, "kind": self.kind,
             "normalization": self.normalization}
        if self.indices is not None:
            d["alpha"] = self.indices.alpha
            d["p"] = self.indices.p
            d["homogeneity"] = self.indices.homogeneity
        return d


def _admissible_mass(mass, sup, indices, where) -> float:
    """mass * sup^(-1/(p'-1)), refused (naming where) unless it and the sup are
    normal finite doubles: a subnormal carries fewer digits than it prints."""
    try:
        value = mass * sup ** (-1.0 / indices.conjugate_minus_one)
    except (ZeroDivisionError, OverflowError):  # 0.0 ** -x, or a power past the range
        value = math.inf
    if not (sys.float_info.min <= value < math.inf and sup >= sys.float_info.min):
        raise IndexDomainError(f"the Wolff capacity at alpha = {indices.alpha:.6g}, p = "
                               f"{indices.p:.6g} {where} leaves "
                               f"double precision (Wolff sup {sup:.6g}, capacity {value:.6g})")
    return value


def tree_wolff_capacity(total, depth, side, indices, scale, mass=1.0):
    """(sup, value) of the Wolff capacity of a tree of the given depth, the one
    rule of every tree estimate and sweep row.  The sup is the tree sum total,
    or at depth 0 the closed form of the root alone, a uniform ball of mass 1
    and radius scale, by the area law below the radius and constant mass
    above (inf past the doubles).  The value is mass * sup^(-1/(p'-1)),
    refused, naming the side and the depth, unless it and the sup are normal
    finite doubles."""
    if not depth:
        eta, homog = indices.conjugate_minus_one, indices.homogeneity
        log_ball = -homog * math.log(scale)  # the log of the root's mass over radius^homog
        try:
            total = math.exp(eta * log_ball) * (1.0 / ((2.0 - homog) * eta) + 1.0 / (homog * eta))
        except OverflowError:
            total = math.inf
    return total, _admissible_mass(mass, total, indices, f"on the {side} side at depth {depth}")


def wolff_capacity_lower(obj, indices, *, side=None, mass_convention="ideal", query_points=None,
                         k_range=None, seed=0, query_set_id=None) -> CapacityEstimate:
    """mass * S^(-1/(p'-1)) where S is the Wolff sup over the query set.

    The mass scaling law W(c*mu) = c^(p'-1) W(mu) makes the measure with
    potential sup exactly 1 a rescale of mu, so this is the admissible mass
    in the wolff_sup convention, comparable to the capacity.  On a CantorTree
    the sup over paths is the exact tree sum (path independent) at its depth,
    ``wolff_tree(tree, ...).total`` under either mass convention, whose
    divergence diagnosis (its fitted rate) the record carries, and
    ``tree_wolff_capacity`` turns it into the value, as it does for every
    verify sweep row; depth-0 trees take the closed-form single-ball term.
    The mass is exp(``tree.log_total_mass``): 1 under the ideal convention.
    A finite tree's sup is finite, so its value is too, also where the
    divergence diagnosis fires for the limit; a value of 0, inf or below the
    normal doubles is refused.
    Every tree record carries log_ideal_total, log prod_{k <= N} M_k R_k^2:
    the log of the ideal convention's generation-N total mass.  On a measure
    the sup is the largest ``wolff_dyadic`` total over the query points, all
    taken from one ``ball_mass_profile`` call.
    """
    if isinstance(obj, CantorTree):
        if side is None:
            raise ValueError("side required for tree estimates")
        depth = obj.depth
        profile = wolff_tree(obj, side, indices.alpha, indices.p, mass_convention)
        mass = math.exp(obj.log_total_mass(mass_convention))
        sup, value = tree_wolff_capacity(profile.total, depth, side, indices, obj.scale, mass)
        record = {"sup": sup,
                  "query_set": f"tree_paths:{side}:depth={depth}" if depth
                  else "root_ball_closed_form",
                  "seed": seed, "mass": mass, "mass_convention": mass_convention,
                  "log_ideal_total": float(obj.log_node_counts[depth])
                  + obj.log_mass(depth, "ideal")}
        if profile.divergent:
            record["divergence_rate"] = profile.divergence_rate
        return CapacityEstimate(value, WOLFF_SUP, indices, record)

    if not isinstance(obj, PlanarMeasure):
        raise TypeError("expected a CantorTree or PlanarMeasure")
    if query_points is None or k_range is None:
        raise ValueError("measure estimates need query_points and k_range")
    k_min, k_max = k_range
    _, _, terms, tails = _dyadic_terms(obj, np.asarray(query_points, dtype=float).reshape(-1, 2),
                                       indices.alpha, indices.p, k_min, k_max)
    # each point's total is its running sum, as ``PotentialProfile.total`` takes it
    sup = float(np.max(np.cumsum(terms, axis=1)[:, -1] + tails, initial=0.0))
    record = {"sup": sup, "query_set": query_set_id or f"points[{len(query_points)}]",
              "seed": seed, "mass": obj.total_mass, "k_range": [k_min, k_max]}
    value = _admissible_mass(obj.total_mass, sup, indices,
                             f"on the {obj.n_atoms}-atom measure {obj.label!r}")
    return CapacityEstimate(value, WOLFF_SUP, indices, record)


def direct_capacity_lower(measure, indices, cells=64) -> CapacityEstimate:
    """(mass / ||I_alpha(mu)||_{p'})^p by planar quadrature.

    The L^{p'} norm is a cell sum over a support-relative grid (so geometric
    scaling is exact) plus a closed-form far-field tail using
    I_alpha(mu)(x) <= mass / (|x - c| - diam)^{2 - alpha} beyond
    FARFIELD_FACTOR * diam.  Cells near an atom use the equal-area disk
    average of the kernel; a cap, sum or value past the doubles is refused.

    Each cell is one row of ``measure._kernel_sums`` with ``_CappedPower``.
    Without blocks, or with an atom of zero weight, it sums the kernel over
    every live atom, about 0.79 * cells^2 * n terms for n atoms.  On a
    measure with blocks (such as ``CantorRealization.measure``) and no atom
    of zero weight a block is admissible for a cell where none of its atoms
    reaches the cap and its third-order remainder bound is at most
    EXPANSION_BUDGET of its exact share (``measure._leaf_sums``).  Each cell
    takes the coarsest tree generation whose every block is admissible, one
    monopole plus quadrupole per block, and a cell that none above the
    leaves serves takes each admissible leaf's expansion and the other
    leaves' atoms.  On the 64-leaf benchmark clouds generation 2 serves
    nearly every cell: 16 expansions instead of 64.
    Every share, and so every cell value, is within EXPANSION_BUDGET of its
    exact value, relative; the largest bound taken is recorded as
    expansion_bound.
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
        return CapacityEstimate(0.0, DEFINITION, indices,
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
    a = (2.0 - alpha) * p_prime  # > 2 whenever 0 < alpha*p < 2
    u = r_far - diam
    cell_sum = tail = lam = value = math.inf  # past the doubles until computed
    try:  # a Python float power past the range raises
        kernel = _CappedPower(alpha, 2.0 / alpha * rho ** (alpha - 2.0))
        # sum_j w_j min(|c - x_j|^(alpha-2), cap); an atom on c gives inf, capped
        vals, bound = _kernel_sums(measure, cc, kernel)
        with np.errstate(over="ignore"):
            cell_sum = float(np.sum(vals ** p_prime)) * h * h
        tail = 2.0 * math.pi * m ** p_prime * (
            u ** (2.0 - a) / (a - 2.0) + diam * u ** (1.0 - a) / (a - 1.0))
        lam = (cell_sum + tail) ** (1.0 / p_prime)
        value = (m / lam) ** p
    except (OverflowError, ZeroDivisionError):  # a power past the range, or lambda 0
        pass
    if not all(0.0 < v < math.inf for v in (cell_sum, tail, lam, value)):
        raise ConfigError(f"the quadrature at alpha = {alpha:.6g}, p = {p:.6g} on the measure "
                          f"{measure.label!r} leaves double precision (cell radius {rho:.6g}, "
                          f"cell sum {cell_sum:.6g}, tail {tail:.6g}, lambda {lam:.6g}, "
                          f"capacity {value:.6g})")
    record = {"lambda": lam, "cells": cells, "farfield_factor": FARFIELD_FACTOR,
              "farfield_tail": tail, "diam": diam}
    if bound is not None:
        record["expansion_bound"] = bound
    return CapacityEstimate(value, DEFINITION, indices, record)


def melnikov_gamma_lower(mass, sup_curvature, growth) -> CapacityEstimate:
    """Analytic-capacity proxy, no side claimed: rescale a measure of the
    given total mass until linear growth and pointwise curvature are both
    admissible, then report the rescaled mass.  sup_curvature is the sup of
    the pointwise curvature c^2_mu(x), e.g. CurvatureEstimate.sup_pointwise.

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
    return CapacityEstimate(c * mass, WOLFF_SUP, None, record, kind="analytic_capacity")
