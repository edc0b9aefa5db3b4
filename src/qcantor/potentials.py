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
from dataclasses import dataclass

import numpy as np

from .cantor import TARGET, ConfigError, _check_side
from .measure import _block_rows, _distance_rows

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
    ``log_terms`` holds each entry's log term as formed before exponentiation
    (-inf for an empty ball), so a term that underflows keeps its log.
    ``tail`` holds the closed-form sub-finest-scale term, included in the
    total.  A divergence flag always comes with a fitted log-slope rate.
    """

    alpha: float
    p: float
    label: str
    entries: tuple
    log_terms: tuple
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
        for (lab, c), log_c in zip(self.entries, self.log_terms):
            running += c
            rows.append((lab, c, running, log_c))
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


def wolff_tree(tree, side, alpha, p, mass_convention="ideal"):
    """Generation terms (mass_N / r_N^(2-alpha*p))^(p'-1) of a Cantor tree.

    With level-uniform schedules every root-to-leaf path sees the same
    per-generation ball data, so the sum is path independent.  The default
    "ideal" convention uses mass_N = prod(R_k^2) (total mass 1 kept at every
    level); "realized" uses the depth-truncated area-split masses and matches
    the realized atom cloud exactly.  Contributions run over generations
    1..tree.depth; the root term is excluded; tree.prefix(depth) gives the
    sum of a shallower tree.

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
    depth = tree.depth
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
    logs = x.tolist()
    labels, terms = range(1, depth + 1), [math.exp(v) for v in logs]
    divergent, rate = diagnose_divergence(labels, np.array(terms), "generation")
    return PotentialProfile(alpha, p, f"tree:{side}:{mass_convention}", tuple(zip(labels, terms)),
                            tuple(logs), divergent=divergent, divergence_rate=rate)


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
    logs = np.where(masses > 0,
                    eta * (np.log(np.where(masses > 0, masses, 1.0)) - homog * ks * LN2),
                    -np.inf)
    with np.errstate(over="ignore"):  # a term past the doubles is inf; one below them 0
        terms = np.exp(logs)
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
    return PotentialProfile(alpha, p, f"dyadic:{measure.label}", entries, tuple(logs.tolist()),
                            tail=tail, divergent=divergent, divergence_rate=rate)


def default_dyadic_range(tree, side):
    """Dyadic exponents spanning root scale down to the leaf scale."""
    k_max = int(math.ceil(tree.log_radius(side, 0) / LN2)) + 2
    k_min = int(math.floor(tree.log_radius(side, tree.depth) / LN2))
    return k_min, k_max


def riesz_potential(measure, x, alpha) -> float:
    """I_alpha(mu)(x) = sum w_i / |x - y_i|^(2 - alpha); inf on coincidence."""
    if not (0.0 < alpha < 2.0):
        raise IndexDomainError(f"need 0 < alpha < 2, got {alpha}")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"point x must have shape (2,), got {x.shape}")
    live = measure.weights > 0
    w = measure.weights[live]

    def total(d, lo, hi):
        d **= alpha - 2.0  # an atom at x gives inf
        d *= w
        return np.sum(d, axis=1)

    return float(_distance_rows(measure.points[live], x, 1, total)[0])


# -- curvature ---------------------------------------------------------------


def _inv_r2(xi, yi, xj, yj, xk, yk, out, work=None):
    """out = 1/R^2 of the triangles (i, j, k), from coordinate columns that
    broadcast to out's shape; returns out.

    4 * cross^2 / (|a|^2 |b|^2 |c|^2) for the sides a = j - i, b = k - i,
    c = k - j, each |.|^2 as a0*a0 + a1*a1 and the product left to right.
    Zero for collinear or coincident points, so a triangle with a repeated
    index gives zero; no square roots, so rational inputs give exact dyadic
    values.  work holds five float arrays and one bool array of out's shape,
    overwritten (allocated when omitted).
    """
    if work is None:
        work = [np.empty(out.shape) for _ in range(5)], np.empty(out.shape, dtype=bool)
    (a0, a1, b0, b1, t), positive = work
    np.subtract(xj, xi, out=a0)
    np.subtract(yj, yi, out=a1)
    np.subtract(xk, xi, out=b0)
    np.subtract(yk, yi, out=b1)
    np.multiply(a0, b1, out=out)
    np.multiply(a1, b0, out=t)
    np.subtract(out, t, out=out)  # cross

    def norm2(s0, s1):  # s0 * s0 + s1 * s1, into s0
        np.multiply(s0, s0, out=s0)
        np.multiply(s1, s1, out=s1)
        return np.add(s0, s1, out=s0)

    np.multiply(norm2(a0, a1), norm2(b0, b1), out=a0)
    np.subtract(xk, xj, out=a1)
    np.subtract(yk, yj, out=b1)
    np.multiply(a0, norm2(a1, b1), out=a0)  # d2
    np.multiply(out, 4.0, out=t)
    np.multiply(t, out, out=t)
    np.greater(a0, 0.0, out=positive)
    with np.errstate(invalid="ignore"):
        np.divide(t, a0, out=out, where=positive)
    np.logical_not(positive, out=positive)
    np.copyto(out, 0.0, where=positive)
    return out


def _inv_circumradius_sq(x, y, z):
    """1/R^2 of the triangles of the points x, y, z (..., 2), by _inv_r2."""
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    out = np.empty(np.broadcast_shapes(x.shape, y.shape, z.shape)[:-1])
    return _inv_r2(x[..., 0], x[..., 1], y[..., 0], y[..., 1], z[..., 0], z[..., 1], out)


def circumradius(x, y, z) -> float:
    """Radius of the circle through three points; inf when collinear."""
    inv_sq = float(_inv_circumradius_sq(x, y, z))
    if inv_sq == 0.0:
        return math.inf
    return 1.0 / math.sqrt(inv_sq)


#: forward steps from a guide-table start before a draw finishes by binary search
_GUIDE_STEPS = 4


def _guide_table(prob):
    """(cdf, guide) of the inverse-cdf sampler _invert_cdf over the atoms' prob.

    cdf is built as numpy's Generator.choice(n, p=prob) builds it, prob.cumsum()
    divided by its last entry.  guide has B = 2^ceil(log2 n) buckets, so that
    u*B and b/B are exact: guide[b] counts the cdf entries <= b/B (Chen & Asau
    1974; Devroye 1986, III.2.4).
    """
    cdf = np.cumsum(prob)
    cdf /= cdf[-1]
    buckets = 1 << (cdf.size - 1).bit_length()
    return cdf, cdf.searchsorted(np.arange(buckets) / buckets, side="right")


def _invert_cdf(cdf, guide, u, out, probe=None, short=None):
    """out = cdf.searchsorted(u, side="right") for u in [0, 1); returns out.

    With u = rng.random(size) these are the indices that Generator.choice(n,
    size, p=prob) draws with replacement from the same generator state, which
    it advances by the same size uniforms.  guide[b] is a lower bound on the
    count of cdf entries <= u for every u in bucket b = floor(u*B); stepping
    forward from it while cdf[idx] <= u reaches the count in an expected O(1)
    probes, against ceil(log2 n) for a binary search.  Draws still short
    after _GUIDE_STEPS steps (weight piled into a few buckets) finish with
    searchsorted.  probe (float) and short (bool) are scratch of u's size,
    allocated when omitted.
    """
    probe = np.empty(u.size) if probe is None else probe
    short = np.empty(u.size, dtype=bool) if short is None else short
    bucket = probe.view(np.intp)
    np.multiply(u, guide.size, out=probe)
    np.copyto(out, probe, casting="unsafe")  # floor: u*B is exact and >= 0
    np.take(guide, out, out=bucket, mode="clip")
    np.copyto(out, bucket)
    for _ in range(_GUIDE_STEPS):
        np.take(cdf, out, out=probe, mode="clip")
        np.less_equal(probe, u, out=short)
        if not short.any():
            return out
        np.add(out, short, out=out)  # cdf[-1] = 1 > u: never past n - 1
    rest = np.flatnonzero(cdf[out] <= u)
    out[rest] = cdf.searchsorted(u[rest], side="right")
    return out


@dataclass(frozen=True)
class CurvatureEstimate:
    """Triple-integral curvature c^2(mu) with sampling metadata."""

    value: float
    stderr: float
    sup_pointwise: float
    triples: int
    seed: int | None = None

    def to_json_dict(self):
        return {"value": self.value, "stderr": self.stderr,
                "sup_pointwise": self.sup_pointwise, "triples": self.triples,
                "seed": self.seed}


_EXACT_CURVATURE_ATOMS = 85


def menger_curvature(measure, triples=200_000, seed=0) -> CurvatureEstimate:
    """c^2(mu) over ordered distinct-index triples.

    Measures with at most 85 atoms, or fewer than 3 of positive weight, are
    evaluated exactly (stderr 0); otherwise triples are sampled with
    probability proportional to weight and degenerate draws (any repeated
    index) contribute zero, which keeps the estimator unbiased for the
    distinct-triple sum.  Also reports the largest pointwise c^2_mu(x) seen
    over a seeded subset of up to 16 positive-weight atoms.
    """
    n = measure.n_atoms
    if n < 3:
        raise ConfigError(f"curvature needs at least 3 atoms, got {n}")
    pts, w = measure.points, measure.weights
    total = measure.total_mass
    live = int(np.count_nonzero(w))
    if live < 3:  # every distinct triple holds an atom of weight zero
        return CurvatureEstimate(0.0, 0.0, 0.0, n * (n - 1) * (n - 2), seed)
    px, py = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    if n <= _EXACT_CURVATURE_ATOMS:
        xs, ys, ws = ([a.reshape(s) for s in ((n, 1, 1), (1, n, 1), (1, 1, n))]
                      for a in (px, py, w))  # along the axes of i, j and k
        inv2 = _inv_r2(xs[0], ys[0], xs[1], ys[1], xs[2], ys[2], np.empty((n, n, n)))
        contrib = inv2 * ws[0] * ws[1] * ws[2]
        value = float(np.sum(contrib))
        pointwise = np.sum(contrib, axis=(1, 2))
        return CurvatureEstimate(value, 0.0, float(np.max(pointwise)),
                                 int(n * (n - 1) * (n - 2)), seed)

    rng = np.random.default_rng(seed)
    prob = w / total
    cdf, guide = _guide_table(prob)
    rows = int(triples)
    m = max(2000, rows // 64)
    # scratch per triple: three uniforms and three probes (then the atoms'
    # x and y), three indices and _inv_r2's five arrays
    step = max(1, min(_block_rows(14), rows))
    draws, cols = max(3 * step, 2 * m), max(step, m)
    buf, idx = np.empty((2, draws)), np.empty(draws, dtype=np.intp)
    flags, floats = np.empty(draws, dtype=bool), np.empty((5, cols))

    def work(k):
        return [a[:k] for a in floats], flags[:k]

    def draw(count):
        """x and y of the atoms at the indices choice(n, count, p=prob) draws
        from the next count uniforms of rng."""
        u, probe = buf[:, :count]
        rng.random(out=u)
        ix = _invert_cdf(cdf, guide, u, idx[:count], probe, flags[:count])
        return np.take(px, ix, out=u, mode="clip"), np.take(py, ix, out=probe, mode="clip")

    # consecutive draws continue one uniform stream, so blocks of triples give
    # the indices (and generator state) of one draw of all of them; a repeated
    # index repeats a point, so _inv_r2 gives the degenerate draw zero
    vals = np.empty(rows)
    for lo in range(0, rows, step):
        k = min(step, rows - lo)
        x, y = (c.reshape(k, 3) for c in draw(3 * k))
        _inv_r2(x[:, 0], y[:, 0], x[:, 1], y[:, 1], x[:, 2], y[:, 2], vals[lo:lo + k],
                work(k))
    scale = total ** 3
    value = scale * float(np.mean(vals))
    stderr = scale * float(np.std(vals)) / math.sqrt(len(vals))

    queries = rng.choice(n, size=min(16, live), replace=False, p=prob)
    v = np.empty(m)
    sup = 0.0
    for qi in queries:
        x, y = draw(2 * m)  # m draws for j, then m for k
        _inv_r2(px[qi], py[qi], x[:m], y[:m], x[m:], y[m:], v, work(m))
        sup = max(sup, total ** 2 * float(np.mean(v)))
    return CurvatureEstimate(value, stderr, sup, int(triples), seed)


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
