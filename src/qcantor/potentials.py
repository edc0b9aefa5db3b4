"""Nonlinear potentials and curvature.

The Wolff potential of a planar measure at indices (alpha, p),

    W(x) = int_0^infty (mu(B(x,r)) / r^(2 - alpha*p))^(p'-1) dr/r,

is evaluated two ways: exactly on a CantorTree, where the generation terms
are closed products of the schedule (wolff_tree), and by brute force on a
realized atom cloud over dyadic annuli (wolff_dyadic).  The two routes are
comparable with constants depending only on (alpha, p); tests record the
empirical constant.

Menger curvature c^2(mu) is the triple integral of the inverse squared
circumradius; small measures are enumerated exactly, larger ones sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cantor import TARGET, ConfigError, _check_side

LN2 = math.log(2.0)

#: a profile is flagged divergent when its finest terms each carry at least
#: this fraction of the running total ...
DIVERGENCE_FRACTION = 0.10
#: ... for this many consecutive scales
DIVERGENCE_RUN = 10


class IndexDomainError(ValueError):
    """Indices outside 0 < alpha*p < 2, p > 1."""


def check_indices(alpha, p):
    if not (p > 1.0):
        raise IndexDomainError(f"p must exceed 1, got {p}")
    if not (0.0 < alpha * p < 2.0):
        raise IndexDomainError(f"need 0 < alpha*p < 2, got alpha*p = {alpha * p}")


def conjugate_minus_one(p) -> float:
    """p' - 1 = 1/(p - 1)."""
    return 1.0 / (p - 1.0)


@dataclass(frozen=True)
class PotentialProfile:
    """Per-scale contributions to a potential sum, coarse scale first.

    Labels are generations (tree route) or dyadic exponents k (brute force).
    ``tail`` holds the closed-form sub-finest-scale term, included in the
    total.  A divergence flag always comes with a fitted log-slope rate.
    """

    alpha: float
    p: float
    label: str
    entries: tuple
    tail: float = 0.0
    divergent: bool = False
    divergence_rate: float | None = None

    @property
    def contributions(self) -> np.ndarray:
        return np.array([c for _, c in self.entries], dtype=float)

    @property
    def total(self) -> float:
        return float(np.sum(self.contributions)) + self.tail

    def csv_rows(self):
        """(scale_label, contribution, running_total, contribution_log) rows."""
        rows = []
        running = 0.0
        for lab, c in self.entries:
            running += c
            rows.append((lab, c, running, math.log(c) if c > 0 else -math.inf))
        return rows


def _scale_x(labels, kind):
    if kind == "dyadic":
        return np.array(labels, dtype=float) * LN2
    return np.log(np.array(labels, dtype=float))


def diagnose_divergence(labels, contributions, kind):
    """Divergence heuristic plus a fitted rate over the finest scales."""
    n = len(contributions)
    if n < DIVERGENCE_RUN + 2:
        return False, None
    running = np.cumsum(contributions)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(running > 0, contributions / running, 0.0)
    window = contributions[-DIVERGENCE_RUN:]
    # genuine runaway growth keeps rising scale after scale; the band structure
    # of a Cantor measure (growth inside a generating/protecting plateau, dip
    # across the gap) oscillates and must not be flagged
    divergent = bool(np.all(frac[-DIVERGENCE_RUN:] >= DIVERGENCE_FRACTION)
                     and np.all(np.diff(window) > 0))
    if not divergent and not np.any(np.isinf(contributions)):
        return False, None
    m = min(n, 2 * DIVERGENCE_RUN)
    x = _scale_x(list(labels)[-m:], kind)
    y = contributions[-m:]
    pos = (y > 0) & np.isfinite(y)
    if np.count_nonzero(pos) < 3:
        return True, None
    slope = np.polyfit(x[pos], np.log(y[pos]), 1)[0]
    return True, float(slope)


def wolff_tree(tree, side, alpha, p, depth=None, mass_convention="ideal"):
    """Generation terms (mass_N / r_N^(2-alpha*p))^(p'-1) of a Cantor tree.

    With level-uniform schedules every root-to-leaf path sees the same
    per-generation ball data, so the sum is path independent.  The default
    "ideal" convention uses mass_N = prod(R_k^2) (total mass 1 kept at every
    level); "realized" uses the depth-truncated area-split masses and matches
    the realized atom cloud exactly.  Contributions run over generations
    1..depth; the root term is excluded.

    The log-ratio is assembled per level as coefficients on sum(log R) and
    sum(log d), so when 2 - alpha*p rounds to exactly 1.0 (as at
    (2/3, 3/2)) the target radius products cancel symbolically; otherwise a
    residual ~|sum log R| * 1e-16 remains, which is harmless for
    smallness-sized radii but matters for doubly-exponential schedules.
    The log terms of all generations are one array expression; each term is
    exponentiated by math.exp (libm), and a log term at or past 709, where
    the term leaves the doubles, is refused with IndexDomainError.
    """
    _check_side(side)
    check_indices(alpha, p)
    if depth is None:
        depth = tree.depth
    if depth > tree.depth:
        raise ValueError(f"requested depth {depth} exceeds tree depth {tree.depth}")
    if mass_convention not in ("ideal", "realized"):
        raise ValueError(f"unknown mass convention {mass_convention!r}")
    eta = conjugate_minus_one(p)
    homog = 2.0 - alpha * p
    K = tree.K
    if side == TARGET:
        coef_log_r = 2.0 - 2.0 * homog        # on sum(log R_k); 0 exactly at homog=1
        coef_log_d = -homog
    else:
        coef_log_r = 2.0 - homog * (K + 1.0)
        coef_log_d = -homog * K
    gens = slice(1, depth + 1)
    log_ratio = (0.5 * coef_log_r * tree.cum_log_mass[gens]
                 + coef_log_d * tree.cum_log_d[gens]
                 - homog * math.log(tree.scale))
    if mass_convention == "realized":
        log_ratio += tree.cum_log_keep[depth] - tree.cum_log_keep[gens]
    x = eta * log_ratio
    past = np.flatnonzero(~(x < 709.0))
    if past.size:
        n = int(past[0]) + 1
        raise IndexDomainError(
            f"the {side} Wolff term at alpha = {alpha:.6g}, p = {p:.6g} leaves double "
            f"precision at generation {n} (log term {x[n - 1]:.6g})")
    labels, terms = range(1, depth + 1), [math.exp(v) for v in x.tolist()]
    divergent, rate = diagnose_divergence(labels, np.array(terms), "generation")
    return PotentialProfile(alpha, p, f"tree:{side}:{mass_convention}", tuple(zip(labels, terms)),
                            divergent=divergent, divergence_rate=rate)


def wolff_dyadic(measure, x, alpha, p, k_min, k_max, sub_scale_tail=True):
    """Brute-force dyadic Wolff sum of an atom cloud at a point.

    Sums (mu(B(x, 2^k)) / 2^(k(2-alpha*p)))^(p'-1) for k_max >= k >= k_min
    (closed balls, radii treated as exact dyadics) and, when requested, adds
    the closed-form tail of a leaf-uniform density below 2^k_min,
    term(k_min) / (alpha*p*(p'-1)), which removes the truncation bias of
    shallow realizations.
    """
    check_indices(alpha, p)
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    if measure.n_atoms == 0:
        raise ValueError("measure must be nonempty")
    eta = conjugate_minus_one(p)
    homog = 2.0 - alpha * p
    ks = np.arange(k_max, k_min - 1, -1)
    radii_sorted = np.power(2.0, ks[::-1].astype(float))
    masses = measure.ball_mass_profile(x, radii_sorted)[::-1]
    with np.errstate(over="ignore"):
        terms = np.where(
            masses > 0,
            np.exp(np.clip(eta * (np.log(np.where(masses > 0, masses, 1.0))
                                  - homog * ks * LN2), -745.0, 710.0)),
            0.0)
    entries = tuple((int(k), float(t)) for k, t in zip(ks, terms))
    tail = 0.0
    divergent, rate = False, None
    if sub_scale_tail:
        # area-law continuation below 2^k_min: the sum is finite by model
        if terms[-1] > 0:
            tail = float(terms[-1]) / (alpha * p * eta)
    else:
        # literal atomic measure: an atom at x makes the potential infinite,
        # and runaway growth of the finest terms is flagged heuristically
        atom_at_x = measure.ball_mass(x, 0.0) > 0.0
        divergent, rate = diagnose_divergence(list(ks), terms, "dyadic")
        if atom_at_x:
            divergent = True
            if rate is None:
                rate = -homog * eta  # slope of log-term vs log-scale at an atom
    return PotentialProfile(alpha, p, f"dyadic:{measure.label}", entries, tail=tail,
                            divergent=divergent, divergence_rate=rate)


def default_dyadic_range(tree, side):
    """Dyadic exponents spanning root scale down to the leaf scale."""
    k_max = int(math.ceil(tree.log_radius(side, 0) / LN2)) + 2
    k_min = int(math.floor(tree.log_radius(side, tree.depth) / LN2))
    return k_min, k_max


def riesz_potential(measure, x, alpha) -> float:
    """I_alpha(mu)(x) = sum w_i / |x - y_i|^(2 - alpha); inf on coincidence."""
    if not (0.0 < alpha < 2.0):
        raise IndexDomainError(f"need 0 < alpha < 2, got {alpha}")
    d = measure.distances(x)
    hit = (d == 0.0) & (measure.weights > 0)
    if np.any(hit):
        return math.inf
    live = measure.weights > 0
    return float(np.sum(measure.weights[live] * d[live] ** (alpha - 2.0)))


# -- curvature ---------------------------------------------------------------


def _inv_circumradius_sq(x, y, z):
    """4 * area^2 * 16 / ... : vectorized 1/R^2 via squared side lengths.

    Zero for collinear or coincident points, with no square roots so that
    rational inputs give exact dyadic values.
    """
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    a = y - x
    b = z - x
    c = z - y
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    d2 = (np.sum(a * a, axis=-1) * np.sum(b * b, axis=-1) * np.sum(c * c, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(d2 > 0, 4.0 * cross * cross / np.where(d2 > 0, d2, 1.0), 0.0)
    return out


def circumradius(x, y, z) -> float:
    """Radius of the circle through three points; inf when collinear."""
    inv_sq = float(_inv_circumradius_sq(np.asarray(x), np.asarray(y), np.asarray(z)))
    if inv_sq == 0.0:
        return math.inf
    return 1.0 / math.sqrt(inv_sq)


@dataclass(frozen=True)
class CurvatureEstimate:
    """Triple-integral curvature c^2(mu) with sampling metadata."""

    value: float
    stderr: float
    sup_pointwise: float
    triples: int
    seed: int | None = None
    method: str = field(default="", compare=False)

    def to_json_dict(self):
        return {"value": self.value, "stderr": self.stderr,
                "sup_pointwise": self.sup_pointwise, "triples": self.triples,
                "seed": self.seed}


_EXACT_CURVATURE_ATOMS = 85


def menger_curvature(measure, triples=200_000, seed=0) -> CurvatureEstimate:
    """c^2(mu) over ordered distinct-index triples.

    Measures with at most 85 atoms are enumerated exactly (stderr 0);
    otherwise triples are sampled with probability proportional to weight and
    degenerate draws (any repeated index) contribute zero, which keeps the
    estimator unbiased for the distinct-triple sum.  Also reports the largest
    pointwise c^2_mu(x) seen over a seeded subset of atoms.
    """
    n = measure.n_atoms
    if n < 3:
        raise ConfigError(f"curvature needs at least 3 atoms, got {n}")
    pts, w = measure.points, measure.weights
    total = measure.total_mass
    if n <= _EXACT_CURVATURE_ATOMS:
        i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        distinct = (i != j) & (j != k) & (i != k)
        inv2 = _inv_circumradius_sq(pts[i], pts[j], pts[k])
        contrib = np.where(distinct, inv2 * w[i] * w[j] * w[k], 0.0)
        value = float(np.sum(contrib))
        pointwise = np.sum(contrib, axis=(1, 2))
        return CurvatureEstimate(value, 0.0, float(np.max(pointwise)),
                                 int(n * (n - 1) * (n - 2)), seed, method="exact")

    rng = np.random.default_rng(seed)
    prob = w / total
    idx = rng.choice(n, size=(int(triples), 3), p=prob)
    i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
    distinct = (i != j) & (j != k) & (i != k)
    vals = np.where(distinct, _inv_circumradius_sq(pts[i], pts[j], pts[k]), 0.0)
    scale = total ** 3
    value = scale * float(np.mean(vals))
    stderr = scale * float(np.std(vals)) / math.sqrt(len(vals))

    n_query = min(16, n)
    queries = rng.choice(n, size=n_query, replace=False, p=prob)
    m = max(2000, int(triples) // 64)
    sup = 0.0
    for qi in queries:
        jj = rng.choice(n, size=m, p=prob)
        kk = rng.choice(n, size=m, p=prob)
        ok = (jj != kk) & (jj != qi) & (kk != qi)
        v = np.where(ok, _inv_circumradius_sq(pts[qi][None, :], pts[jj], pts[kk]), 0.0)
        sup = max(sup, total ** 2 * float(np.mean(v)))
    return CurvatureEstimate(value, stderr, sup, int(triples), seed, method="montecarlo")


def linear_growth_constant(measure, k_min, k_max, points=None) -> float:
    """sup over sampled (x, 2^k) of mu(B(x, 2^k)) / 2^k.

    Evaluation at atom locations biases the sup upward, which is the safe
    direction for an admissibility constraint.
    """
    if measure.n_atoms == 0:
        raise ValueError("measure must be nonempty")
    if points is None:
        points = np.vstack([measure.points, measure.support_center()[None, :]])
    radii = np.power(2.0, np.arange(k_min, k_max + 1, dtype=float))
    best = 0.0
    for x in np.asarray(points, dtype=float):
        masses = measure.ball_mass_profile(x, radii)
        best = max(best, float(np.max(masses / radii)))
    return best


def dyadic_curvature_proxy(measure, x, k_min, k_max) -> float:
    """sum_k (mu(B(x, 2^k)) / 2^k)^2, the cheap upper surrogate for
    growth^2 + pointwise curvature."""
    radii = np.power(2.0, np.arange(k_min, k_max + 1, dtype=float))
    masses = measure.ball_mass_profile(x, radii)
    return float(np.sum((masses / radii) ** 2))


def standard_query_points(realization, side, seed=0):
    """Documented, reproducible stand-in for 'for all x': up to 64 leaf
    centers plus 16 seeded atoms.  Returns (points, query_set_id)."""
    _check_side(side)
    centers = realization.leaf_centers(side)
    if centers.shape[0] > 64:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        pick = rng.choice(centers.shape[0], size=64, replace=False)
        centers = centers[np.sort(pick)]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    atoms = realization.measure(side).points
    extra = atoms[rng.choice(atoms.shape[0], size=min(16, atoms.shape[0]),
                             replace=False)]
    pts = np.vstack([centers, extra])
    qid = f"leaf_centers[{centers.shape[0]}]+atoms[{extra.shape[0]}]:seed={seed}"
    return pts, qid
