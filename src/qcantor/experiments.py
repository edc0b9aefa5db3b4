"""Depth-sweep verification experiments with recomputable verdicts.

Every experiment emits an ExperimentReport: parameters, one row per depth
(or per gauge), declared thresholds, and a verdict computed by a pure
function of the rows alone, so a report on disk can always be re-judged.
The distortion inequalities come with unquantified constants; "ratio stable"
operationalizes them as: the empirical ratio spans less than one decade over
the depth range.  Divergence is always reported with a fitted rate.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cantor import SOURCE, TARGET, ConfigError, build_tree, check_distortion, \
    harmonic_schedule, shrunk_schedule, doubly_exponential_schedule, sharpness_exponent, \
    sharpness_schedule
from .capacity import (CapacityIndices, melnikov_gamma_lower, distorted_index_map,
                       distortion_indices, wolff_capacity_lower)
from .gauges import (DistortedTreeGauge, TreeSmoothedDensityGauge, content_Mh_tree,
                     generation_cover_sum)
from .potentials import LN2, IndexDomainError, wolff_tree

#: "spans less than one decade": min ratio >= RATIO_STABILITY * max ratio
RATIO_STABILITY = 0.1
#: the experiments' fixed construction: children per node at every level,
#: dyadic scales k = 2..N_SCALES of the gauge-criterion sums, thinned radii
#: log s_N <= -(N+1)^SHRINK_EXPONENT, and a in the doubly-exponential gauge
BRANCHING, N_SCALES, SHRINK_EXPONENT, CRITERION_A = 4, 4096, 3.0, 1.0


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
    slope, intercept = np.polyfit(x, y, 1)
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
    return (f"monotone: shrunk sums {sums[0]:.4g} -> {sums[-1]:.4g}, "
            f"target bounded by {max(targets):.6g}",
            bool(ok_exact and ok_vanish and ok_target))


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


def _sweep(experiment, K, depths, seed, schedules, row, params, thresholds, minimum=0,
           why="a tree has no negative depth"):
    """The one depth-sweep driver.

    It owns the depth rule: depths as a list, none below the minimum, at least two
    and none repeated (one depth compares nothing; the sharpness fits are singular).
    Each schedule is a function of the depth and the branching; the driver builds
    one tree per schedule at the deepest depth and BRANCHING children per node,
    and row d is row(*prefixes) of the depth-d prefixes of those trees.  The
    report carries K, branching, seed and depths next to the experiment's own
    params.
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
    rows = [row(*(tree.prefix(depth) for tree in trees)) for depth in depths]
    return ExperimentReport(experiment, {"K": K, "branching": BRANCHING, "seed": seed,
                                         "depths": depths, **params}, rows, thresholds)


def _target_series(tree):
    """The target-side Wolff series at the pinned indices (2/3, 3/2)."""
    return wolff_tree(tree, TARGET, 2.0 / 3.0, 1.5)


# -- distortion inequality experiments ---------------------------------------


def _tree_growth(tree, side) -> float:
    """sup over the tree's generations of the ideal generation density."""
    return max(math.exp(tree.log_mass(n, "ideal") - tree.log_radius(side, n))
               for n in range(tree.depth + 1))


def verify_gamma_distortion(K, depths=range(2, 7), seed=0) -> ExperimentReport:
    """Source capacity at the distortion indices vs the analytic-capacity
    proxy of the rearranged side, normalized by ball diameters.

    Per depth N: LHS = wolff lower estimate on the source tree at
    (2K/(2K+1), (2K+1)/(K+1)) over diam(B)^(2/(K+1)); RHS = Melnikov proxy
    (growth sup and pointwise-curvature proxy taken from ideal-convention
    tree data, ideal total mass 1) over diam of the image ball, 2 * scale;
    ratio = LHS / RHS^(2K/(K+1)).  Passes when the ratio spans less than
    one decade.
    """
    idx = distortion_indices(K)

    def row(tree):
        lhs_est = wolff_capacity_lower(tree, idx, side=SOURCE, seed=seed)
        diam_b = 2.0 * tree.scale
        lhs = lhs_est.value / diam_b ** (2.0 / (K + 1.0))
        curv_proxy = _target_series(tree).total
        growth = _tree_growth(tree, TARGET)
        rhs = melnikov_gamma_lower(1.0, curv_proxy, growth).value / diam_b
        return {"depth": tree.depth, "lhs": lhs, "rhs": rhs,
                "ratio": lhs / rhs ** (2.0 * K / (K + 1.0)),
                "wolff_sup": lhs_est.normalization["sup"],
                "growth": growth, "curvature_proxy": curv_proxy,
                "realized_mass": math.exp(tree.log_total_mass()),
                "n_leaves": tree.n_leaves}

    return _sweep("thm1", K, depths, seed, [functools.partial(harmonic_schedule, K)], row,
                  {"alpha": idx.alpha, "p": idx.p,
                   "rhs_inputs": "growth and curvature proxy from ideal tree data"},
                  {"ratio_stability": RATIO_STABILITY})


def verify_riesz_distortion(K, p=2.0, depths=range(2, 6), seed=0) -> ExperimentReport:
    """Same pipeline with the Wolff estimator at (1/p, p) on the target side
    and the mapped indices (beta, q) on the source side."""
    if not 1.0 < p < math.inf:  # before 1/p is formed
        raise ConfigError(f"thm2a: p = {p}: need a finite p > 1")
    di = distorted_index_map(1.0 / p, p, K)
    source_idx, target_idx = di.image, CapacityIndices(1.0 / p, p)

    def row(tree):
        try:  # the estimator names the indices; p chose them
            lhs_est = wolff_capacity_lower(tree, source_idx, side=SOURCE, seed=seed)
            rhs_est = wolff_capacity_lower(tree, target_idx, side=TARGET, seed=seed)
        except IndexDomainError as exc:
            raise ConfigError(f"thm2a: p = {p}: {exc}") from None
        lhs = lhs_est.value / (2.0 * tree.scale) ** (2.0 / (K + 1.0))
        rhs = rhs_est.value / (2.0 * tree.scale)
        rhs_power = rhs ** (2.0 * K / (K + 1.0))
        if not lhs > 0.0 < rhs_power:
            raise ConfigError(f"thm2a: p = {p}: at depth {tree.depth} lhs {lhs:.6g} or "
                              f"rhs^(2K/(K+1)) underflows to 0 (rhs {rhs:.6g})")
        return {"depth": tree.depth, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs_power,
                "beta": di.beta, "q": di.q,
                "source_sup": lhs_est.normalization["sup"],
                "target_sup": rhs_est.normalization["sup"]}

    return _sweep("thm2a", K, depths, seed, [functools.partial(harmonic_schedule, K)], row,
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
    capacity estimate, one series per depth.
    """
    thm1_idx = distortion_indices(K)  # refuses a bad K, naming one too large for the doubles
    if q is None:
        q = (3.0 * K + 1.0) / (K + 1.0)
    sharpness_exponent(K, q)  # refuses a q outside the sharpness regime
    q_conj_minus_1 = 1.0 / (q - 1.0)
    beta = 2.0 * K / ((K + 1.0) * q)
    src_idx = CapacityIndices(beta, q)
    # convergence exponent of the target terms (n+1)^(-s)
    s = (K + 1.0) / (K * q_conj_minus_1)

    def row(tree):
        tgt = _target_series(tree)
        try:  # the estimator names the indices; q chose them and the schedule
            cap = wolff_capacity_lower(tree, src_idx, side=SOURCE, seed=seed)
            bounded = wolff_capacity_lower(tree, thm1_idx, side=SOURCE, seed=seed)
        except IndexDomainError as exc:
            raise ConfigError(f"sharpness: q = {q}: {exc}") from None
        tail = tgt.entries[-1][1] * (tree.depth + 1) / (s - 1.0)  # integral bound
        return {"depth": tree.depth, "source_sum": cap.normalization["sup"],
                "target_total": tgt.total,
                "target_tail_fraction": tail / (tgt.total + tail),
                "capacity": cap.value, "bounded_source_capacity": bounded.value}

    return _sweep("sharpness", K, depths, seed, [functools.partial(sharpness_schedule, K, q)], row,
                  {"q": q, "beta": beta, "target_exponent": s},
                  {"slope_lo": 0.5, "slope_hi": 2.0, "r2_min": 0.99, "target_tail_max": 0.05,
                   "capacity_exponent": 1.0 / q_conj_minus_1,
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

    return _sweep("content_ratio", K, depths, seed, [functools.partial(harmonic_schedule, K)],
                  row, {"a": a}, {"ratio_stability": RATIO_STABILITY})


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
    rows = []
    for beta in betas:
        e = beta * power
        terms = (ks * LN2) ** (-e)
        half = ks >= ks[len(ks) // 2]
        slope, _, _ = _linfit(np.log(ks[half]), np.log(terms[half]))
        fitted_e = -slope
        classified = "divergent" if fitted_e <= 1.0 + 1e-9 else "convergent"
        partial = float(np.sum(terms))
        after = ks > 1000
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
    log s_N <= -(N+1)^SHRINK_EXPONENT, the sums tend to 0 monotonically;
    thinning leaves the multipliers untouched, so the target-side (2/3, 3/2)
    sum is unchanged and bounded by pi^2/6 - 1.
    """
    eps = lambda log_r: 1.0 / (-log_r)  # noqa: E731
    unit = lambda log_r: 1.0  # noqa: E731
    cap = lambda n: -float((n + 1) ** SHRINK_EXPONENT)  # noqa: E731

    def row(tree):
        depth = tree.depth
        return {"depth": depth,
                "unit_gauge_sum": generation_cover_sum(tree, unit, depth),
                "closed_form": (depth + 1) ** (2.0 * K / (K + 1.0)),
                "shrunk_gauge_sum": generation_cover_sum(tree, eps, depth),
                "source_log_radius": tree.log_radius(SOURCE, depth),
                "target_total": _target_series(tree).total}

    return _sweep("vanishing_content", K, depths, seed,
                  [functools.partial(shrunk_schedule, K, source_log_cap=cap)], row,
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

    def row(tree, harmonic_tree):
        depth = tree.depth
        return {"depth": depth,
                "source_log_radius": tree.log_radius(SOURCE, depth),
                "cap_log": -math.exp(depth),
                "gauge_sum": generation_cover_sum(tree, eps, depth),
                "target_total": _target_series(tree).total,
                "harmonic_target_total": _target_series(harmonic_tree).total}

    return _sweep("doubly_exponential", K, depths, seed,
                  [functools.partial(doubly_exponential_schedule, K),
                   functools.partial(harmonic_schedule, K)], row,
                  {"criterion_a": CRITERION_A, "gauge": f"eps=log(1/s)^(-2/{CRITERION_A})"},
                  {"schedule_equality_rtol": 1e-12},
                  minimum=1, why="eps = log(1/s)^(-2/a) is undefined at the unit root radius")
