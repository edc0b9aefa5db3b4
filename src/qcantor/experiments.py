"""Depth-sweep verification experiments with recomputable verdicts.

Every experiment emits an ExperimentReport: parameters, one row per depth
(or per gauge), declared thresholds, and a verdict computed by a pure
function of the rows alone, so a report on disk can always be re-judged.
The distortion inequalities come with unquantified constants; "ratio stable"
operationalizes them as: the empirical ratio spans less than one decade over
the depth range.  Divergence is always reported with a fitted rate.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .cantor import SOURCE, TARGET, ConfigError, build_tree, check_distortion, \
    harmonic_schedule, shrunk_schedule, doubly_exponential_schedule, sharpness_exponent, \
    sharpness_schedule
from .capacity import (CapacityIndices, IndexOverflowError, distorted_index_map,
                       distortion_indices, melnikov_gamma_lower, tree_wolff_capacity)
from .gauges import (DistortedTreeGauge, TreeSmoothedDensityGauge, content_Mh_tree,
                     generation_cover_sum)
from .potentials import LN2, IndexDomainError, line_fit, wolff_tree

#: "spans less than one decade": min ratio >= RATIO_STABILITY * max ratio
RATIO_STABILITY = 0.1
#: the experiments' fixed construction: children per node at every level,
#: dyadic scales k = 2..N_SCALES of the gauge-criterion sums, thinned radii
#: log s_N <= -(N+1)^SHRINK_EXPONENT, and a in the doubly-exponential gauge
BRANCHING, N_SCALES, SHRINK_EXPONENT, CRITERION_A = 4, 4096, 3.0, 1.0
#: the target-side indices (2/3, 3/2) of the curvature proxy and the target sums
TARGET_INDICES = CapacityIndices(2.0 / 3.0, 1.5)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    rows: list
    thresholds: dict
    verdict: str = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.verdict, self.passed = recompute_verdict(self.experiment, self.rows,
                                                      self.thresholds)

    @property
    def columns(self) -> list:
        """Row keys in insertion order; every row carries the same keys."""
        return list(self.rows[0]) if self.rows else []

    def to_json(self) -> str:
        doc = {"experiment": self.experiment, "params": self.params,
               "columns": self.columns, "rows": self.rows,
               "thresholds": self.thresholds, "verdict": self.verdict,
               "passed": self.passed, "notes": ""}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def write(self, out_dir):
        import os
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, f"{self.experiment}.csv")
        json_path = os.path.join(out_dir, f"{self.experiment}.json")
        with open(csv_path, "w", newline="") as f:
            f.write(self.to_csv())
        with open(json_path, "w", newline="") as f:
            f.write(self.to_json())
        return csv_path, json_path


# -- verdict functions (pure in the rows) ------------------------------------


def _decade_stable(values, rho):
    values = [v for v in values if math.isfinite(v)]
    if not values or min(values) <= 0.0:
        return False
    return min(values) >= rho * max(values)


def _verdict_ratio_stable(rows, thresholds):
    ratios = [r["ratio"] for r in rows]
    ok = _decade_stable(ratios, thresholds["ratio_stability"])
    span = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    return f"ratio-stable: span {span:.4g} over {len(rows)} depths", ok


def _linfit(x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    slope, intercept = line_fit(x, y)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _verdict_sharpness(rows, thresholds):
    depths = [r["depth"] for r in rows]
    src = [r["source_sum"] for r in rows]
    slope, _, r2 = _linfit(np.log(depths), src)
    ok_src = thresholds["slope_lo"] <= slope <= thresholds["slope_hi"] \
        and r2 >= thresholds["r2_min"]
    tail_frac = rows[-1]["target_tail_fraction"]
    ok_tgt = tail_frac < thresholds["target_tail_max"]
    vs = [r["capacity"] for r in rows if r["capacity"] > 0]
    ls = [math.log(math.log(d)) for d, r in zip(depths, rows) if r["capacity"] > 0]
    vslope, _, _ = _linfit(ls, np.log(vs))
    expected = -thresholds["capacity_exponent"]
    ok_cap = abs(vslope - expected) <= thresholds["capacity_exponent_tol"] * abs(expected)
    ok_bounded = _decade_stable([r["bounded_source_capacity"] for r in rows],
                                thresholds["ratio_stability"])
    verdict = (f"divergent-at-rate: source slope {slope:.4f} (R2={r2:.5f}), "
               f"target tail {tail_frac:.4g}, capacity exponent {vslope:.4f} "
               f"vs {expected:.4f}")
    return verdict, bool(ok_src and ok_tgt and ok_cap and ok_bounded)


def _verdict_gauge_criterion(rows, thresholds):
    ok = all((r["exponent"] <= 1.0) == (r["classified"] == "divergent") for r in rows)
    n_div = sum(r["classified"] == "divergent" for r in rows)
    return f"boundary-consistent: {n_div} divergent / {len(rows) - n_div} convergent", ok


def _verdict_vanishing_content(rows, thresholds):
    tol = thresholds["closed_form_rtol"]
    ok_exact = all(abs(r["unit_gauge_sum"] - r["closed_form"]) <= tol * r["closed_form"]
                   for r in rows)
    sums = [r["shrunk_gauge_sum"] for r in rows]
    ok_vanish = all(b < a for a, b in zip(sums, sums[1:])) and \
        sums[-1] <= thresholds["vanish_factor"] * sums[0]
    targets = [r["target_total"] for r in rows]
    ok_target = max(targets) <= thresholds["target_bound"] and \
        all(b >= a for a, b in zip(targets, targets[1:]))
    tail = f"shrunk sums {sums[0]:.4g} -> {sums[-1]:.4g}, target bounded by {max(targets):.6g}"
    failed = [name for name, ok in (("closed form", ok_exact), ("vanishing", ok_vanish),
                                    ("target bound", ok_target)) if not ok]
    if not failed:
        return f"monotone: {tail}", True
    rise = next((k for k in range(1, len(sums)) if not sums[k] < sums[k - 1]), None)
    if rise is not None:
        tail += (f", first rising at depth {rows[rise]['depth']} "
                 f"({sums[rise - 1]:.4g} -> {sums[rise]:.4g})")
    return f"failed {', '.join(failed)}: {tail}", False


def _verdict_doubly_exponential(rows, thresholds):
    # caps are hit by accumulation, so allow ulp-scale slack relative to |cap|
    ok_cap = all(r["source_log_radius"] <= r["cap_log"] + 1e-9 * (1.0 + abs(r["cap_log"]))
                 for r in rows)
    sums = [r["gauge_sum"] for r in rows]
    ok_vanish = all(b < a for a, b in zip(sums, sums[1:]))
    tol = thresholds["schedule_equality_rtol"]
    ok_eq = all(abs(r["target_total"] - r["harmonic_target_total"])
                <= tol * r["harmonic_target_total"] for r in rows)
    return (f"monotone: gauge sums {sums[0]:.4g} -> {sums[-1]:.4g}",
            bool(ok_cap and ok_vanish and ok_eq))


_VERDICTS = {
    "thm1": _verdict_ratio_stable,
    "thm2a": _verdict_ratio_stable,
    "content_ratio": _verdict_ratio_stable,
    "sharpness": _verdict_sharpness,
    "gauge_criterion": _verdict_gauge_criterion,
    "vanishing_content": _verdict_vanishing_content,
    "doubly_exponential": _verdict_doubly_exponential,
}


def recompute_verdict(experiment, rows, thresholds):
    return _VERDICTS[experiment](rows, thresholds)


def _sweep(experiment, K, depths, seed, schedules, make_row, params, thresholds, minimum=0,
           why="a tree has no negative depth"):
    """The one depth-sweep driver.

    It owns the depth rule: depths as a list, none below the minimum, at least two
    and none repeated (one depth compares nothing; the sharpness fits are singular).
    Each schedule is a function of the depth and the branching; the driver builds
    one tree per schedule at the deepest depth and BRANCHING children per node.
    make_row(*trees) sees those deepest trees once, where it forms each Wolff
    series it needs by one ``wolff_tree`` call on its deepest tree
    (``_wolff_sums``), and returns row; row d is row(d), which reads the
    deepest trees at index d (a prefix's arrays are their slices) and its
    Wolff sums at entry d of those series, so a sweep builds no prefix tree
    and does O(1) work per row.  The report carries K,
    branching, seed and depths next to the experiment's own params.
    """
    depths = list(depths)
    for depth in depths:
        if depth < minimum:
            raise ConfigError(f"{experiment}: depth {depth} is below the minimum "
                              f"{minimum} ({why})")
    if len(depths) < 2 or len(set(depths)) < len(depths):
        raise ConfigError(f"{experiment}: depths {depths}: a sweep needs at least two "
                          "depths, none repeated")
    deepest = max(depths)
    trees = [build_tree(schedule(deepest, branching=BRANCHING), deepest, seed=seed)
             for schedule in schedules]
    row = make_row(*trees)
    rows = [row(depth) for depth in depths]
    return ExperimentReport(experiment, {"K": K, "branching": BRANCHING, "seed": seed,
                                         "depths": depths, **params}, rows, thresholds)


def _wolff_sums(tree, side=TARGET, indices=TARGET_INDICES):
    """The ideal Wolff sums of every prefix of tree, entry d that of
    ``tree.prefix(d)`` (0.0 at depth 0), and the generation terms, as Python
    floats, from one ``wolff_tree`` profile of the tree: a prefix's ideal log
    terms are the first depth of the tree's own, so these are its bits.  The
    profile refuses where any generation's term leaves the doubles."""
    profile = wolff_tree(tree, side, indices.alpha, indices.p)
    return [0.0] + profile.running_totals.tolist(), profile.contributions.tolist()


@contextlib.contextmanager
def _naming(flag):
    """Re-raise an index refusal as a ConfigError that names the flag that chose
    the indices (such as "thm2a: p = 2.0")."""
    try:
        yield
    except IndexDomainError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


# -- distortion inequality experiments ---------------------------------------


def _check_leaf_counts(depths):
    """Refuse a thm1 depth whose report cannot be written, before any tree is built:
    its n_leaves column is the exact count BRANCHING^depth, written in decimal, and the
    interpreter converts no integer of more than sys.get_int_max_str_digits() digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not (limit and depths):
        return
    depth = max(depths)
    # exact where the count is within a digit of the limit, so no huge power is formed
    if depth * math.log10(BRANCHING) > limit + 1 or BRANCHING ** depth >= 10 ** limit:
        raise ConfigError(f"verify thm1: depth {depth}: its n_leaves, {BRANCHING}^{depth}, "
                          f"has more than the {limit} digits this interpreter writes")


def verify_gamma_distortion(K, depths=range(2, 7), seed=0) -> ExperimentReport:
    """Source capacity at the distortion indices vs the analytic-capacity
    proxy of the rearranged side, normalized by ball diameters.

    Per depth N: LHS = Wolff estimate on the source tree at
    (2K/(2K+1), (2K+1)/(K+1)) over diam(B)^(2/(K+1)); RHS = Melnikov proxy
    (growth sup and pointwise-curvature proxy taken from ideal-convention
    tree data, the root mass 1) over diam of the image ball, 2 * scale;
    ratio = LHS / RHS^(2K/(K+1)).  Passes when the ratio spans less than
    one decade.  The ideal generation total prod(M_k R_k^2) is 1 only when
    M_k R_k^2 = 1; the default trees keep 4e-4/d_k^2 per level.  A depth
    whose n_leaves has more digits than the interpreter writes is refused.
    """
    depths = list(depths)
    _check_leaf_counts(depths)
    idx = distortion_indices(K)

    def make_row(deepest):
        source, target = _wolff_sums(deepest, SOURCE, idx)[0], _wolff_sums(deepest)[0]
        # the growth of depth N, the sup of the ideal target generation density over
        # generations 0..N, is entry N of one running max
        growth = list(itertools.accumulate(
            (math.exp(deepest.log_mass(n, "ideal") - deepest.log_radius(TARGET, n))
             for n in range(deepest.depth + 1)), max))
        diam_b = 2.0 * deepest.scale

        def row(depth):
            sup, value = tree_wolff_capacity(source[depth], depth, SOURCE, idx, deepest.scale)
            lhs = value / diam_b ** (2.0 / (K + 1.0))
            curv_proxy = target[depth]
            rhs = melnikov_gamma_lower(1.0, curv_proxy, growth[depth]).value / diam_b
            return {"depth": depth, "lhs": lhs, "rhs": rhs,
                    "ratio": lhs / rhs ** (2.0 * K / (K + 1.0)),
                    "wolff_sup": sup,
                    "growth": growth[depth], "curvature_proxy": curv_proxy,
                    # the realized total mass of the depth-N construction
                    "realized_mass": math.exp(float(deepest.cum_log_keep[depth])),
                    "n_leaves": deepest.n_nodes(depth)}
        return row

    return _sweep("thm1", K, depths, seed, [functools.partial(harmonic_schedule, K)], make_row,
                  {"alpha": idx.alpha, "p": idx.p,
                   "rhs_inputs": "growth and curvature proxy from ideal tree data"},
                  {"ratio_stability": RATIO_STABILITY})


def verify_riesz_distortion(K, p=2.0, depths=range(2, 6), seed=0) -> ExperimentReport:
    """Same pipeline with the Wolff estimator at (1/p, p) on the target side
    and the mapped indices (beta, q) on the source side."""
    flag = f"thm2a: p = {p}"
    if not 1.0 < p < math.inf:  # before 1/p is formed
        raise ConfigError(f"{flag}: need a finite p > 1")
    try:  # the map names the indices; p chose them
        di = distorted_index_map(1.0 / p, p, K)
    except IndexOverflowError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    source_idx, target_idx = di.image, CapacityIndices(1.0 / p, p)

    def make_row(deepest):
        with _naming(flag):  # the series and the estimator name the indices; p chose them
            source = _wolff_sums(deepest, SOURCE, source_idx)[0]
            target = _wolff_sums(deepest, TARGET, target_idx)[0]
        diam_b = 2.0 * deepest.scale

        def row(depth):
            with _naming(flag):
                source_sup, lhs_value = tree_wolff_capacity(source[depth], depth, SOURCE,
                                                            source_idx, deepest.scale)
                target_sup, rhs_value = tree_wolff_capacity(target[depth], depth, TARGET,
                                                            target_idx, deepest.scale)
            lhs = lhs_value / diam_b ** (2.0 / (K + 1.0))
            rhs = rhs_value / diam_b
            rhs_power = rhs ** (2.0 * K / (K + 1.0))
            if not lhs > 0.0 < rhs_power:
                raise ConfigError(f"{flag}: at depth {depth} lhs {lhs:.6g} or "
                                  f"rhs^(2K/(K+1)) underflows to 0 (rhs {rhs:.6g})")
            return {"depth": depth, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs_power,
                    "beta": di.beta, "q": di.q,
                    "source_sup": source_sup, "target_sup": target_sup}
        return row

    return _sweep("thm2a", K, depths, seed, [functools.partial(harmonic_schedule, K)], make_row,
                  {"p": p, "beta": di.beta, "q": di.q, "t": di.t, "t_prime": di.t_prime},
                  {"ratio_stability": RATIO_STABILITY})


def sharpness_experiment(K, q=None, depths=range(8, 65), seed=0) -> ExperimentReport:
    """Harmonic source divergence at the sharpness indices.

    The source Wolff partial sums must fit c * ln(N) (c in [1/2, 2],
    R^2 >= 0.99), the target sum at (2/3, 3/2) must converge (estimated tail
    beyond the final depth below 5% of the total), the capacity estimate must
    decay like (ln N)^(-1/(q'-1)) (fitted exponent within 10%), and the
    source capacity at the distortion indices must stay decade-stable.
    q defaults to (3K+1)/(K+1).  The source sum is the Wolff sup of the
    capacity estimate: one series on the deepest tree, read at each depth as
    its running sum.
    """
    thm1_idx = distortion_indices(K)  # refuses a bad K, naming one too large for the doubles
    if q is None:
        q = (3.0 * K + 1.0) / (K + 1.0)
    sharpness_exponent(K, q)  # refuses a q outside the sharpness regime
    beta = 2.0 * K / ((K + 1.0) * q)
    src_idx = CapacityIndices(beta, q)
    # convergence exponent of the target terms (n+1)^(-s)
    s = (K + 1.0) / (K * src_idx.conjugate_minus_one)
    flag = f"sharpness: q = {q}"

    def make_row(deepest):
        target, target_terms = _wolff_sums(deepest)
        # the series and the estimator name the indices; q chose them and the schedule
        with _naming(flag):
            source = _wolff_sums(deepest, SOURCE, src_idx)[0]
            bounded = _wolff_sums(deepest, SOURCE, thm1_idx)[0]

        def row(depth):
            tgt_total = target[depth]
            with _naming(flag):
                source_sum, cap = tree_wolff_capacity(source[depth], depth, SOURCE, src_idx,
                                                      deepest.scale)
                _, bounded_cap = tree_wolff_capacity(bounded[depth], depth, SOURCE, thm1_idx,
                                                     deepest.scale)
            tail = target_terms[depth - 1] * (depth + 1) / (s - 1.0)  # integral bound
            return {"depth": depth, "source_sum": source_sum, "target_total": tgt_total,
                    "target_tail_fraction": tail / (tgt_total + tail),
                    "capacity": cap, "bounded_source_capacity": bounded_cap}
        return row

    return _sweep("sharpness", K, depths, seed, [functools.partial(sharpness_schedule, K, q)],
                  make_row,
                  {"q": q, "beta": beta, "target_exponent": s},
                  {"slope_lo": 0.5, "slope_hi": 2.0, "r2_min": 0.99, "target_tail_max": 0.05,
                   "capacity_exponent": 1.0 / src_idx.conjugate_minus_one,
                   "capacity_exponent_tol": 0.10, "ratio_stability": RATIO_STABILITY},
                  minimum=2, why="the capacity decay is fitted against log(log N)")


def content_distortion_experiment(K, depths=range(2, 7), a=0.1, seed=0) -> ExperimentReport:
    """Distortion of h-contents on the realized pair.

    Per depth: the source content with h0 = s * eps_{nu,a} against the target
    content with the pulled-back gauge h = t^(2/(K+1)) * eps^(2K/(K+1)), both
    by exact tree DP; the ratio M_source / M_target^((K+1)/(2K)) must stay
    within one decade across the depth range.  The ratio is invariant under
    global mass scaling, so the truncation renormalization cancels.
    """
    def row(tree):
        real = tree.realize()
        m_src = content_Mh_tree(TreeSmoothedDensityGauge(real, a, side=SOURCE)).value
        m_tgt = content_Mh_tree(DistortedTreeGauge(real, a)).value
        return {"depth": tree.depth, "source_content": m_src, "target_content": m_tgt,
                "ratio": m_src / m_tgt ** ((K + 1.0) / (2.0 * K))}

    # the one sweep that realizes, so the one whose rows build their prefix trees
    return _sweep("content_ratio", K, depths, seed, [functools.partial(harmonic_schedule, K)],
                  lambda deepest: lambda depth: row(deepest.prefix(depth)), {"a": a},
                  {"ratio_stability": RATIO_STABILITY})


# -- gauge experiments --------------------------------------------------------


def gauge_criterion_experiment(K, betas=None, seed=0) -> ExperimentReport:
    """Classify log-power gauges by the divergence of the criterion sum.

    For eps(r) = log(1/r)^(-beta) the dyadic terms of the criterion integral
    are (k ln 2)^(-e) with e = beta * (1 + 1/K): divergent iff e <= 1.  The
    classifier fits the power-law exponent of the terms, which reproduces the
    boundary exactly; partial sums and tail fractions are reported alongside.
    """
    check_distortion(K)
    if betas is None:
        grid = np.concatenate([np.linspace(0.1, 1.0, 10), np.linspace(1.05, 2.0, 10)])
        betas = [float(e / (1.0 + 1.0 / K)) for e in grid]
    power = 1.0 + 1.0 / K
    ks = np.arange(2, N_SCALES + 1, dtype=float)
    exponents = [beta * power for beta in betas]
    # one row of terms (k ln 2)^(-e) per gauge, and one fit over the upper half of
    # the scales for every row
    table = (ks * LN2) ** -np.array(exponents, dtype=float)[:, None]
    half = ks >= ks[len(ks) // 2]
    slopes, _ = line_fit(np.log(ks[half]), np.log(table[:, half]))
    after = ks > 1000
    rows = []
    for beta, e, terms, slope in zip(betas, exponents, table, slopes.tolist()):
        fitted_e = -slope
        classified = "divergent" if fitted_e <= 1.0 + 1e-9 else "convergent"
        partial = float(np.sum(terms))
        tail_1000 = float(np.sum(terms[after])) / partial if np.any(after) else 0.0
        if fitted_e > 1.0 + 1e-9:
            rate = "convergent"
        elif abs(fitted_e - 1.0) <= 1e-9:
            rate = "log"
        else:
            rate = f"power:{1.0 - fitted_e:.6g}"
        rows.append({"beta": beta, "exponent": e, "fitted_exponent": fitted_e,
                     "classified": classified, "rate": rate,
                     "partial_sum": partial, "tail_fraction_1000": tail_1000})
    return ExperimentReport(
        "gauge_criterion",
        {"K": K, "n_scales": N_SCALES, "seed": seed, "betas": [float(b) for b in betas]},
        rows, {"boundary": 1.0})


def vanishing_content_experiment(K, depths=range(2, 17), seed=0) -> ExperimentReport:
    """Generation gauge sums vanish under thinning while the target potential
    stays bounded.

    With the unit gauge the generation sum is (N+1)^(2K/(K+1)) exactly.  With
    eps(r) = 1/log(1/r) -> 0 and radii thinned so that
    log s_N <= -(N+1)^SHRINK_EXPONENT, the sums tend to 0, monotonically
    where the cap binds.  Where the harmonic source radii already lie below
    the cap the thinning does nothing and a sum may rise: at the default
    depths K = 3.25 passes, while from K = 3.5 on the shrunk sum rises from
    depth 2 to depth 3 and the verdict fails, naming that depth.  Thinning
    leaves the multipliers untouched, so the target-side (2/3, 3/2) sum is
    unchanged and bounded by pi^2/6 - 1.
    """
    eps = lambda log_r: 1.0 / (-log_r)  # noqa: E731
    unit = lambda log_r: 1.0  # noqa: E731
    cap = lambda n: -float((n + 1) ** SHRINK_EXPONENT)  # noqa: E731

    def make_row(deepest):
        target = _wolff_sums(deepest)[0]

        def row(depth):
            return {"depth": depth,
                    "unit_gauge_sum": generation_cover_sum(deepest, unit, depth),
                    "closed_form": (depth + 1) ** (2.0 * K / (K + 1.0)),
                    "shrunk_gauge_sum": generation_cover_sum(deepest, eps, depth),
                    "source_log_radius": deepest.log_radius(SOURCE, depth),
                    "target_total": target[depth]}
        return row

    return _sweep("vanishing_content", K, depths, seed,
                  [functools.partial(shrunk_schedule, K, source_log_cap=cap)], make_row,
                  {"shrink_exponent": SHRINK_EXPONENT, "gauge": "eps=1/log(1/r)"},
                  {"closed_form_rtol": 1e-12, "vanish_factor": 1.0,
                   "target_bound": math.pi ** 2 / 6.0 - 1.0 + 1e-12},
                  minimum=1, why="eps = 1/log(1/r) is undefined at the unit root radius")


def doubly_exponential_experiment(K, depths=range(1, 33), seed=0) -> ExperimentReport:
    """Radii at log s_N <= -e^N kill every gauge with a convergent criterion
    integral, while the target side matches the plain harmonic schedule.

    Uses eps(s) = log(1/s)^(-2/a), a = CRITERION_A: its a-th power integrates
    like log(1/s)^(-2) ds/s, which converges.  Generation sums use the
    telescoped closed form, so log radii of size e^N never cancel.
    """
    eps = lambda log_r: (-log_r) ** (-2.0 / CRITERION_A)  # noqa: E731

    def make_row(deepest, harmonic_deepest):
        target, harmonic_target = _wolff_sums(deepest)[0], _wolff_sums(harmonic_deepest)[0]

        def row(depth):
            return {"depth": depth,
                    "source_log_radius": deepest.log_radius(SOURCE, depth),
                    "cap_log": -math.exp(depth),
                    "gauge_sum": generation_cover_sum(deepest, eps, depth),
                    "target_total": target[depth],
                    "harmonic_target_total": harmonic_target[depth]}
        return row

    return _sweep("doubly_exponential", K, depths, seed,
                  [functools.partial(doubly_exponential_schedule, K),
                   functools.partial(harmonic_schedule, K)], make_row,
                  {"criterion_a": CRITERION_A, "gauge": f"eps=log(1/s)^(-2/{CRITERION_A})"},
                  {"schedule_equality_rtol": 1e-12},
                  minimum=1, why="eps = log(1/s)^(-2/a) is undefined at the unit root radius")
