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

from .cantor import TARGET, ConfigError, _check_side, check_mass_convention
from .measure import _block_rows, _kernel_sums

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
    def running_totals(self) -> np.ndarray:
        """The sums of the first 1, 2, ... contributions, added in order: the
        one summation rule of every Wolff total."""
        return np.cumsum(self.contributions)

    @property
    def total(self) -> float:
        """The last running total plus the tail."""
        running = self.running_totals
        return (float(running[-1]) if running.size else 0.0) + self.tail

    def csv_rows(self):
        """(scale_label, contribution, running_total, contribution_log) rows."""
        return [(lab, c, running, log_c) for (lab, c), running, log_c
                in zip(self.entries, self.running_totals.tolist(), self.log_terms)]


def _scale_x(labels, kind):
    if kind == "dyadic":
        return np.array(labels, dtype=float) * LN2
    return np.log(np.array(labels, dtype=float))


def line_fit(x, y):
    """The least-squares line through the points (x, y): (slope, intercept), in
    closed form about the mean of x, slope = dx.dy / dx.dx with dx and dy the
    centred coordinates.  y may hold several series on the one x along its
    leading axes; slope and intercept then have those axes' shape."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x_mean, y_mean = np.mean(x), np.mean(y, axis=-1)
    dx = x - x_mean
    slope = (y - y_mean[..., None]) @ dx / (dx @ dx)
    return slope, y_mean - slope * x_mean


def diagnose_divergence(labels, contributions, kind):
    """Divergence heuristic plus a fitted rate over the finest scales."""
    n = len(contributions)
    if n < DIVERGENCE_RUN + 2:
        return False, None
    # genuine runaway growth keeps rising scale after scale; the band structure
    # of a Cantor measure (growth inside a generating/protecting plateau, dip
    # across the gap) oscillates and must not be flagged.  Most profiles fail
    # that test, so the running fractions are formed only where it holds.
    with np.errstate(invalid="ignore", divide="ignore"):
        divergent = bool(np.all(np.diff(contributions[-DIVERGENCE_RUN:]) > 0))
        if divergent:
            running = np.cumsum(contributions)
            frac = np.where(running > 0, contributions / running, 0.0)
            divergent = bool(np.all(frac[-DIVERGENCE_RUN:] >= DIVERGENCE_FRACTION))
    if not divergent and not np.any(np.isinf(contributions)):
        return False, None
    m = min(n, 2 * DIVERGENCE_RUN)
    x = _scale_x(list(labels)[-m:], kind)
    y = contributions[-m:]
    pos = (y > 0) & np.isfinite(y)
    if np.count_nonzero(pos) < 3:
        return True, None
    slope, _ = line_fit(x[pos], np.log(y[pos]))
    return True, float(slope)


#: a log term at or past this leaves the doubles: math.exp overflows just above 709.78
LOG_TERM_MAX = 709.0


def tree_log_ratios(tree, side, alpha, p, mass_convention="ideal"):
    """log(mass_n / r_n^(2-alpha*p)) of generations 1..tree.depth, read from the
    tree's cumulative arrays.

    The one owner of the tree Wolff log terms: generation n's log term is
    (p'-1) times its log ratio, and ``wolff_tree`` alone exponentiates them.
    The ideal ratios of ``tree.prefix(depth)`` are the first depth of the
    tree's own; a realized ratio adds the tail keep Lambda_depth - Lambda_n,
    Lambda = ``cum_log_keep``, so it depends on the depth.

    The log-ratio is assembled per level as coefficients on sum(log R) and
    sum(log d), so when 2 - alpha*p rounds to exactly 1.0 (as at
    (2/3, 3/2)) the target radius products cancel symbolically; otherwise a
    residual ~|sum log R| * 1e-16 remains, which is harmless for
    smallness-sized radii but matters for doubly-exponential schedules.
    """
    _check_side(side)
    check_indices(alpha, p)
    check_mass_convention(mass_convention)
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
    return log_ratio


def wolff_tree(tree, side, alpha, p, mass_convention="ideal"):
    """Generation terms (mass_N / r_N^(2-alpha*p))^(p'-1) of a Cantor tree.

    With level-uniform schedules every root-to-leaf path sees the same
    per-generation ball data, so the sum is path independent.  The default
    "ideal" convention uses mass_N = prod(R_k^2), whose generation total
    prod(M_k R_k^2) is 1 only when M_k R_k^2 = 1 (the default trees keep
    4e-4/d_k^2 per level); "realized" uses the depth-truncated area-split
    masses and matches the realized atom cloud exactly.  Contributions run
    over generations 1..tree.depth; the root term is excluded.  The log
    terms are (p'-1) times ``tree_log_ratios``.  An ideal prefix's terms are
    the first depth of the tree's own, so each verify sweep reads every
    depth from one profile of its deepest tree: running total d is the sum
    of ``tree.prefix(d)``.  This is also the tree sup of
    ``capacity.wolff_capacity_lower`` under either convention.

    Each term is exponentiated by math.exp (libm), and a log term at or past
    LOG_TERM_MAX = 709, where the term leaves the doubles, is refused with
    IndexDomainError.
    """
    log_ratio = tree_log_ratios(tree, side, alpha, p, mass_convention)  # checks the inputs
    x = conjugate_minus_one(p) * log_ratio
    past = np.flatnonzero(~(x < LOG_TERM_MAX))
    if past.size:
        n = int(past[0]) + 1
        raise IndexDomainError(
            f"the {side} Wolff term at alpha = {alpha:.6g}, p = {p:.6g} leaves double "
            f"precision at generation {n} (log term {x[n - 1]:.6g})")
    logs = x.tolist()
    labels, terms = range(1, tree.depth + 1), [math.exp(v) for v in logs]
    divergent, rate = diagnose_divergence(labels, np.array(terms), "generation")
    return PotentialProfile(alpha, p, f"tree:{side}:{mass_convention}", tuple(zip(labels, terms)),
                            tuple(logs), divergent=divergent, divergence_rate=rate)


def _dyadic_terms(measure, x, alpha, p, k_min, k_max):
    """The dyadic Wolff terms of an atom cloud at one point x (2,) or at each
    of many (m, 2), from one ``ball_mass_profile`` call.

    Returns the exponents ks = k_max .. k_min, the log terms and terms
    (mu(B(x, 2^k)) / 2^(k(2-alpha*p)))^(p'-1) over ks (-inf and 0 for an
    empty ball), one row per point, and per point the closed-form tail
    term(k_min) / (alpha*p*(p'-1)) of a leaf-uniform density below 2^k_min
    (0 where that term is 0).
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
    masses = measure.ball_mass_profile(x, radii_sorted)[..., ::-1]
    logs = np.where(masses > 0,
                    eta * (np.log(np.where(masses > 0, masses, 1.0)) - homog * ks * LN2),
                    -np.inf)
    with np.errstate(over="ignore"):  # a term past the doubles is inf; one below them 0
        terms = np.exp(logs)
    finest = terms[..., -1]
    tails = np.where(finest > 0, finest / (alpha * p * eta), 0.0)
    return ks, logs, terms, tails


def wolff_dyadic(measure, x, alpha, p, k_min, k_max, sub_scale_tail=True):
    """Brute-force dyadic Wolff sum of an atom cloud at a point.

    Sums (mu(B(x, 2^k)) / 2^(k(2-alpha*p)))^(p'-1) for k_max >= k >= k_min
    (closed balls, radii treated as exact dyadics) and, when requested, adds
    the closed-form tail of a leaf-uniform density below 2^k_min,
    term(k_min) / (alpha*p*(p'-1)), which removes the truncation bias of
    shallow realizations (``_dyadic_terms``).
    """
    ks, logs, terms, tail = _dyadic_terms(measure, x, alpha, p, k_min, k_max)
    entries = tuple((int(k), float(t)) for k, t in zip(ks, terms))
    # the area-law continuation below 2^k_min keeps the sum finite by model
    tail = float(tail) if sub_scale_tail else 0.0
    divergent, rate = False, None
    if not sub_scale_tail:
        # literal atomic measure: an atom at x makes the potential infinite,
        # and runaway growth of the finest terms is flagged heuristically
        atom_at_x = measure.ball_mass(x, 0.0) > 0.0
        divergent, rate = diagnose_divergence(list(ks), terms, "dyadic")
        if atom_at_x:
            divergent = True
            if rate is None:
                # slope of log-term vs log-scale at an atom
                rate = -(2.0 - alpha * p) * conjugate_minus_one(p)
    return PotentialProfile(alpha, p, f"dyadic:{measure.label}", entries, tuple(logs.tolist()),
                            tail=tail, divergent=divergent, divergence_rate=rate)


def default_dyadic_range(tree, side):
    """Dyadic exponents spanning root scale down to the leaf scale."""
    k_max = int(math.ceil(tree.log_radius(side, 0) / LN2)) + 2
    k_min = int(math.floor(tree.log_radius(side, tree.depth) / LN2))
    return k_min, k_max


def riesz_potential(measure, x, alpha) -> float:
    """I_alpha(mu)(x) = sum w_i / |x - y_i|^(2 - alpha); inf on coincidence.

    The one row x[None] of ``measure._kernel_sums`` with the uncapped
    ``_CappedPower``: on a measure with blocks and no atom of zero weight the
    sum runs over block expansions (``measure._leaf_sums``), each block's
    share within EXPANSION_BUDGET of its exact value, relative; otherwise
    over every atom of positive weight, so an atom of zero weight at x adds
    nothing.
    """
    if not (0.0 < alpha < 2.0):
        raise IndexDomainError(f"need 0 < alpha < 2, got {alpha}")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"point x must have shape (2,), got {x.shape}")
    return float(_kernel_sums(measure, x[None], _CappedPower(alpha, math.inf))[0][0])


class _CappedPower:
    """min(|x|^-q, cap), q = 2 - alpha: the kernel of the direct-capacity
    quadrature and, uncapped (cap = inf, so radius 0), of the Riesz sum, for
    ``measure._kernel_sums``.

    With k(u) = u^-q, k' = -q u^-(q+1) and k'' = q (q + 1) u^-(q+2), the
    quadrupole (k'' Q + k' / u (tr - Q)) / 2 is q u^-q ((q + 2) Q - tr) / 2
    times scale^2 = 1 / u^2.  Where gap = u - rho exceeds cap^(-1/q) no atom
    of the leaf reaches the cap.  The third directional derivative of |x|^-q
    is at most (q)_3 |x|^-(q+3) (Gegenbauer) on the segments from the
    centroid to the atoms, all at least gap from the cell centre, and the
    leaf's exact share is at least W (u + rho)^-q, so the Taylor remainder is
    at most a share (q)_3 / 6 (rho / gap)^3 ((u + rho) / gap)^q of it.
    """

    def __init__(self, alpha, cap):
        q = self.power = 2.0 - alpha
        self.cap = cap
        self.radius = cap ** (-1.0 / q)

    def atoms(self, d, rows):
        np.power(d, -self.power, out=d)
        np.minimum(d, self.cap, out=d)

    def expand(self, u, quad, trace, scale, weight, rows):
        # u^-q (W + q scale^2 ((q + 2) Q - tr) / 2)
        q = self.power
        quad *= q + 2.0
        quad -= trace
        quad *= scale
        quad *= scale
        quad *= 0.5 * q
        quad += weight
        np.power(u, -q, out=u)
        u *= quad
        return u


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
    """Triple-integral curvature c^2(mu) with sampling metadata.

    ``stderr`` is the Monte Carlo standard error (0 when enumerated).  On the
    sampled path, over the sampled values v (degenerate draws included as
    zeros), ``effective_samples`` is (sum v)^2 / sum v^2, the count of equal
    values that would carry the same spread, and ``max_share`` is max v /
    sum v, the share of the estimate held by its largest triple; both are None
    when enumerated or when every sampled value is zero.
    ``sup_effective_samples`` is the same count over the pair values of the
    query that sets ``sup_pointwise`` (its m pairs), None when enumerated or
    when every query's mean is zero: a sup set by a handful of heavy pairs
    shows a small count.
    """

    value: float
    stderr: float
    sup_pointwise: float
    triples: int
    seed: int | None = None
    effective_samples: float | None = None
    max_share: float | None = None
    sup_effective_samples: float | None = None

    def to_json_dict(self):
        return {"value": self.value, "stderr": self.stderr,
                "sup_pointwise": self.sup_pointwise, "triples": self.triples,
                "seed": self.seed, "effective_samples": self.effective_samples,
                "max_share": self.max_share,
                "sup_effective_samples": self.sup_effective_samples}


_EXACT_CURVATURE_ATOMS = 85
#: values per chunk of the sampled statistics: a constant, so no estimate
#: depends on the scratch budget
CHUNK = 4096


def _stream_moments(count, fill, vals):
    """(mean, centred square sum, largest value) of count values, which
    fill(out) writes into out, a block of at most vals.size at a time.

    vals holds whole chunks of CHUNK values and is overwritten: every block
    but the last is whole chunks.  A chunk's mean is np.mean's (its pairwise
    sum over its count) and its centred square sum np.std's (the values less
    that mean, squared in place, pairwise summed); a block's chunks are
    reduced row-wise on a reshape, which gives the bits of a 1-D reduction of
    each.  The chunks merge in stream order by the update of Chan, Golub and
    LeVeque (1983).  So at most CHUNK values give np.mean's and np.std's bits,
    and no result depends on the block size.
    """
    n, mean, m2, top = 0, 0.0, 0.0, 0.0
    for lo in range(0, count, vals.size):
        k = min(vals.size, count - lo)
        fill(vals[:k])
        whole = k - k % CHUNK
        for chunks in (vals[:whole].reshape(-1, CHUNK), vals[whole:k].reshape(1, -1)):
            if not chunks.size:
                continue
            size = chunks.shape[1]
            means = np.add.reduce(chunks, axis=1) / size
            top = max(top, float(np.max(chunks)))
            chunks -= means[:, None]
            np.multiply(chunks, chunks, out=chunks)
            for chunk_mean, chunk_m2 in zip(means.tolist(),
                                            np.add.reduce(chunks, axis=1).tolist()):
                if n:
                    delta = chunk_mean - mean
                    mean += delta * size / (n + size)
                    m2 += chunk_m2 + delta * delta * n * size / (n + size)
                else:
                    mean, m2 = chunk_mean, chunk_m2
                n += size
    return mean, m2, top


def menger_curvature(measure, triples=200_000, seed=0) -> CurvatureEstimate:
    """c^2(mu) over ordered distinct-index triples.

    Measures with at most 85 atoms, or fewer than 3 of positive weight, are
    evaluated exactly (stderr 0), one i-slab of the (i, j, k) cube at a time;
    otherwise triples are sampled with probability proportional to weight and
    degenerate draws (any repeated index) contribute zero, which keeps the
    estimator unbiased for the distinct-triple sum.  Also reports the largest
    pointwise c^2_mu(x) seen over a seeded subset of up to 16 positive-weight
    atoms, with the effective sample count of the query that sets it.

    The sampled path runs in scratch of one block at any triple count: the
    values are reduced in chunks of CHUNK as they are drawn
    (``_stream_moments``), and each query's m pairs draw their j-half from the
    generator and their k-half from a second generator set to its state and
    advanced by m, which then carries the stream.  The uniforms, indices and
    generator state are those of one ``Generator.choice`` draw of all the
    triples followed by one of 2m indices per query.
    """
    if triples < 1:
        raise ConfigError(f"triples {triples}: need a positive count")
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
        # slab[j, k] = 1/R^2(i, j, k) w_i w_j w_k, multiplied in that order
        slab = np.empty((n, n))
        work = [np.empty((n, n)) for _ in range(5)], np.empty((n, n), dtype=bool)
        pointwise = np.empty(n)
        for i in range(n):
            _inv_r2(px[i], py[i], px[:, None], py[:, None], px, py, slab, work)
            slab *= w[i]
            slab *= w[:, None]
            slab *= w
            pointwise[i] = np.sum(slab)
        return CurvatureEstimate(float(np.sum(pointwise)), 0.0, float(np.max(pointwise)),
                                 int(n * (n - 1) * (n - 2)), seed)

    rng = np.random.default_rng(seed)
    prob = w / total
    cdf, guide = _guide_table(prob)
    rows = int(triples)
    m = max(2000, rows // 64)
    # scratch per triple: three uniforms and three probes (then the atoms'
    # x and y), three indices, _inv_r2's five arrays and the value; a block
    # is whole chunks, at least one
    step = _block_rows(15)
    step = max(CHUNK, step - step % CHUNK)
    vals = np.empty(step)
    buf, idx = np.empty((2, 3 * step)), np.empty(3 * step, dtype=np.intp)
    flags, floats = np.empty(3 * step, dtype=bool), np.empty((5, step))

    def work(k):
        return [a[:k] for a in floats], flags[:k]

    def draw(gen, lo, hi):
        """x and y of the atoms at the indices choice(n, hi - lo, p=prob) draws
        from the next hi - lo uniforms of gen, in buffer columns lo..hi."""
        u, probe = buf[:, lo:hi]
        gen.random(out=u)
        ix = _invert_cdf(cdf, guide, u, idx[lo:hi], probe, flags[lo:hi])
        return np.take(px, ix, out=u, mode="clip"), np.take(py, ix, out=probe, mode="clip")

    # consecutive draws continue one uniform stream, so blocks of triples give
    # the indices (and generator state) of one draw of all of them; a repeated
    # index repeats a point, so _inv_r2 gives the degenerate draw zero
    def triple_values(out):
        k = out.size
        x, y = (c.reshape(k, 3) for c in draw(rng, 0, 3 * k))
        _inv_r2(x[:, 0], y[:, 0], x[:, 1], y[:, 1], x[:, 2], y[:, 2], out, work(k))

    mean, m2, top = _stream_moments(rows, triple_values, vals)
    scale = total ** 3
    value = scale * mean
    stderr = scale * math.sqrt(m2 / rows) / math.sqrt(rows)
    effective = share = None
    if mean > 0.0:
        effective = rows / (1.0 + m2 / rows / mean / mean)
        share = top / (rows * mean)

    queries = rng.choice(n, size=min(16, live), replace=False, p=prob)
    sup, sup_effective = 0.0, None
    ahead = np.random.Generator(type(rng.bit_generator)())
    for qi in queries:
        # the k-half: this query's uniforms m..2m-1; ahead then carries the stream
        ahead.bit_generator.state = rng.bit_generator.state
        ahead.bit_generator.advance(m)

        def pair_values(out, qi=qi, near=rng, far=ahead):
            k = out.size
            xj, yj = draw(near, 0, k)
            xk, yk = draw(far, k, 2 * k)
            _inv_r2(px[qi], py[qi], xj, yj, xk, yk, out, work(k))

        pair_mean, pair_m2, _ = _stream_moments(m, pair_values, vals)
        if total ** 2 * pair_mean > sup:
            sup = total ** 2 * pair_mean
            sup_effective = m / (1.0 + pair_m2 / m / pair_mean / pair_mean)
        rng, ahead = ahead, rng
    return CurvatureEstimate(value, stderr, sup, rows, seed, effective, share, sup_effective)


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
