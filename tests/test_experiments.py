import json
import math
import re

import numpy as np
import pytest

from qcantor import capacity, potentials
from qcantor import experiments as ex
from qcantor.cantor import (SOURCE, TARGET, CantorTree, ConfigError, build_tree,
                            harmonic_schedule, sharpness_schedule)
from qcantor.potentials import IndexDomainError, line_fit, tree_log_ratios, wolff_tree

import support


def test_gamma_distortion_ratio_stable_and_rows_complete():
    report = ex.verify_gamma_distortion(2.0, range(2, 7))
    assert report.passed
    assert [r["depth"] for r in report.rows] == [2, 3, 4, 5, 6]
    ratios = [r["ratio"] for r in report.rows]
    assert min(ratios) >= 0.1 * max(ratios)


def test_gamma_distortion_k1_reduces_to_melnikov_pipeline():
    report = ex.verify_gamma_distortion(1.0, range(2, 6))
    assert report.passed
    assert report.params["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert report.params["p"] == pytest.approx(1.5, rel=1e-14)


def test_gamma_distortion_depth_zero_row_finite():
    report = ex.verify_gamma_distortion(2.0, [0, 1, 2])
    row0 = report.rows[0]
    assert row0["ratio"] > 0 and math.isfinite(row0["ratio"])


def test_riesz_distortion_constant_ratio():
    report = ex.verify_riesz_distortion(2.0, 2.0, range(2, 6))
    assert report.passed
    ratios = [r["ratio"] for r in report.rows]
    # on the Cantor family the two sides share the same telescoped sum, so the
    # ratio is the diameter normalization 2^(1 - 2/(K+1)) = 2^(2K/(K+1) - 1)
    for r in ratios:
        assert r == pytest.approx(ratios[0], rel=1e-12)


def test_riesz_distortion_p32_recovers_distortion_indices():
    report = ex.verify_riesz_distortion(2.0, 1.5, range(2, 5))
    assert report.params["beta"] == pytest.approx(4.0 / 5.0, rel=1e-13)
    assert report.params["q"] == pytest.approx(5.0 / 3.0, rel=1e-13)


def test_riesz_distortion_k1_identical_indices_constant_ratio():
    # K = 1 maps (1/p, p) to itself; both sides differ only by the diameter
    # normalization, so the ratio is constant 1 up to that convention
    report = ex.verify_riesz_distortion(1.0, 2.0, range(2, 6))
    assert report.params["beta"] == pytest.approx(0.5, rel=1e-13)
    assert report.params["q"] == pytest.approx(2.0, rel=1e-13)
    ratios = [r["ratio"] for r in report.rows]
    for r in ratios:
        assert r == pytest.approx(ratios[0], rel=1e-12)


def test_sharpness_report_passes():
    report = ex.sharpness_experiment(2.0, 7.0 / 3.0)
    assert report.passed
    assert "divergent-at-rate" in report.verdict


def test_sharpness_fails_near_critical_q():
    # q just above the admissible boundary: the target series decays too
    # slowly for the 5% tail threshold, an honest verdict failure
    report = ex.sharpness_experiment(2.0, 1.75, depths=range(8, 33))
    assert not report.passed


def test_gauge_criterion_classification():
    report = ex.gauge_criterion_experiment(2.0)
    assert report.passed
    rows = report.rows
    assert sum(r["classified"] == "divergent" for r in rows) == 10
    assert sum(r["classified"] == "convergent" for r in rows) == 10
    # boundary case beta*(1 + 1/K) = 1 is divergent with a log rate
    boundary = [r for r in rows if abs(r["exponent"] - 1.0) < 1e-12]
    assert boundary and boundary[0]["classified"] == "divergent"
    assert boundary[0]["rate"] == "log"


def test_gauge_criterion_beta_zero_divergent():
    report = ex.gauge_criterion_experiment(2.0, betas=[0.0])
    assert report.rows[0]["classified"] == "divergent"


def test_vanishing_content_exact_identity():
    K = 2.0
    report = ex.vanishing_content_experiment(K, range(2, 17))
    assert report.passed
    for row in report.rows:
        expected = (row["depth"] + 1) ** (2 * K / (K + 1))
        assert row["unit_gauge_sum"] == pytest.approx(expected, rel=1e-12)
    sums = [r["shrunk_gauge_sum"] for r in report.rows]
    assert all(b < a for a, b in zip(sums, sums[1:]))


def test_thin_content_holds_where_the_cap_binds():
    # at the default depths the cap binds up to K = 3.25; from K = 3.5 the harmonic
    # source radii lie below it already and the shrunk sum rises from depth 2 to 3
    assert ex.vanishing_content_experiment(3.25).passed
    report = ex.vanishing_content_experiment(3.5)
    assert not report.passed
    sums = [r["shrunk_gauge_sum"] for r in report.rows[:2]]
    assert sums[1] > sums[0]
    assert report.verdict.startswith("failed vanishing: shrunk sums ")
    assert report.verdict.endswith(f", first rising at depth 3 ({sums[0]:.4g} -> {sums[1]:.4g})")


def test_vanishing_content_k1_sum_linear():
    report = ex.vanishing_content_experiment(1.0, range(2, 8))
    for row in report.rows:
        assert row["unit_gauge_sum"] == pytest.approx(row["depth"] + 1.0, rel=1e-12)


def test_radial_gauges_recorded_in_params():
    thin = ex.vanishing_content_experiment(2.0, range(2, 5))
    assert thin.params["gauge"] == "eps=1/log(1/r)"
    doubly = ex.doubly_exponential_experiment(2.0, range(1, 5))
    assert doubly.params["gauge"] == "eps=log(1/s)^(-2/1.0)"


def test_doubly_exponential_schedule_equality():
    report = ex.doubly_exponential_experiment(2.0, range(1, 33))
    assert report.passed
    for row in report.rows:
        assert row["target_total"] == pytest.approx(row["harmonic_target_total"],
                                                    rel=1e-12)
        assert row["source_log_radius"] <= row["cap_log"] * (1 - 1e-12) + 1e-9


def test_content_ratio_experiment_stable():
    report = ex.content_distortion_experiment(2.0, range(2, 6), seed=5)
    assert report.passed
    ratios = [r["ratio"] for r in report.rows]
    assert min(ratios) >= 0.1 * max(ratios)


def test_verdict_recomputable_from_rows():
    for report in (ex.verify_gamma_distortion(2.0, range(2, 5)),
                   ex.verify_riesz_distortion(2.0, 2.0, range(2, 5)),
                   ex.sharpness_experiment(2.0, 7.0 / 3.0, depths=range(8, 33)),
                   ex.gauge_criterion_experiment(1.5),
                   ex.vanishing_content_experiment(2.0, range(2, 9)),
                   ex.doubly_exponential_experiment(2.0, range(1, 9)),
                   ex.content_distortion_experiment(2.0, range(2, 5))):
        # golden-file style: round-trip the rows through JSON, re-judge
        doc = json.loads(report.to_json())
        verdict, passed = ex.recompute_verdict(doc["experiment"], doc["rows"],
                                               doc["thresholds"])
        assert verdict == report.verdict
        assert passed == report.passed


def test_reports_byte_identical_across_runs():
    a = ex.verify_gamma_distortion(2.0, range(2, 5), seed=9)
    b = ex.verify_gamma_distortion(2.0, range(2, 5), seed=9)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_report_csv_shape():
    report = ex.verify_riesz_distortion(2.0, 2.0, range(2, 5))
    lines = report.to_csv().strip().split("\n")
    assert lines[0].split(",") == report.columns
    assert len(lines) == 1 + len(report.rows)


def test_report_write_roundtrip(tmp_path):
    report = ex.gauge_criterion_experiment(2.0)
    csv_path, json_path = report.write(tmp_path)
    doc = json.loads(open(json_path).read())
    assert doc["passed"] is True
    assert open(csv_path).read() == report.to_csv()


def test_report_judges_itself_on_construction():
    rows = ex.gauge_criterion_experiment(2.0, betas=[0.5, 1.0]).rows
    report = ex.ExperimentReport("gauge_criterion", {}, rows, {"boundary": 1.0})
    assert report.passed
    assert report.verdict == "boundary-consistent: 1 divergent / 1 convergent"
    with pytest.raises(TypeError):
        ex.ExperimentReport("gauge_criterion", {}, rows, {"boundary": 1.0},
                            verdict="forged", passed=True)


def test_report_json_keeps_empty_notes_without_a_field():
    report = ex.gauge_criterion_experiment(2.0)
    assert not hasattr(report, "notes")
    assert json.loads(report.to_json())["notes"] == ""


@pytest.mark.parametrize("run", [
    lambda d: ex.verify_gamma_distortion(2.0, d),
    lambda d: ex.verify_riesz_distortion(2.0, 2.0, d),
    lambda d: ex.sharpness_experiment(2.0, depths=[x + 6 for x in d]),
    lambda d: ex.vanishing_content_experiment(2.0, d),
    lambda d: ex.doubly_exponential_experiment(2.0, d),
    lambda d: ex.content_distortion_experiment(2.0, d)])
@pytest.mark.parametrize("depths", [[], [2], [2, 2], [2, 3, 2]])
def test_sweeps_need_two_distinct_depths(run, depths):
    with pytest.raises(ConfigError, match="a sweep needs at least two depths"):
        run(depths)


def test_experiment_defaults_are_plain_arguments():
    report = ex.verify_riesz_distortion(2.0)
    assert report.params["p"] == 2.0 and report.params["depths"] == [2, 3, 4, 5]
    assert ex.gauge_criterion_experiment(2.0, seed=3).params["seed"] == 3


@pytest.mark.parametrize("run,trees", [
    (ex.verify_gamma_distortion, 1), (ex.verify_riesz_distortion, 1),
    (ex.sharpness_experiment, 1), (ex.content_distortion_experiment, 1),
    (ex.vanishing_content_experiment, 1), (ex.doubly_exponential_experiment, 2)])
def test_sweeps_build_one_tree_per_schedule(monkeypatch, run, trees):
    built = []

    def counting(schedules, depth, **kwargs):
        built.append(depth)
        return build_tree(schedules, depth, **kwargs)

    monkeypatch.setattr(ex, "build_tree", counting)
    for depths in ([4, 2], [2, 3, 5, 4, 6]):
        built.clear()
        run(2.0, depths=depths)
        assert built == [max(depths)] * trees


@pytest.mark.parametrize("K,q", [(2.0, None), (3.0, 2.5)])
def test_sharpness_source_sum_is_the_source_wolff_series(K, q):
    # read from the capacity estimate's Wolff sup: the same series, bit for bit
    report = ex.sharpness_experiment(K, q=q, depths=[8, 12, 9, 30])
    q, beta = report.params["q"], report.params["beta"]
    tree = build_tree(sharpness_schedule(K, q, 30, branching=ex.BRANCHING), 30)
    for row in report.rows:
        want = wolff_tree(tree.prefix(row["depth"]), SOURCE, beta, q).total
        assert row["source_sum"] == want


@pytest.mark.parametrize("K,q", [(2.0, 7.0 / 3.0), (1.5, 2.2), (3.0, 2.6)])
def test_sharpness_sums_are_zeta_partial_sums(K, q):
    # the source terms are exactly 1/(n+1) and the target terms (n+1)^-s, so the
    # columns are H_(N+1) - 1 and a Hurwitz zeta partial sum at every depth
    depths = range(8, 4001)
    report = ex.sharpness_experiment(K, q=q, depths=depths)
    for column, s in (("source_sum", 1.0), ("target_total", report.params["target_exponent"])):
        want = np.array(support.zeta_partial_sums(s, depths[-1]))[depths.start:]
        got = np.array([row[column] for row in report.rows])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13, column


def test_sharpness_names_q_when_a_source_term_leaves_the_doubles(monkeypatch):
    def overflowing(tree, side, *args, **kwargs):
        ratios = tree_log_ratios(tree, side, *args, **kwargs)
        return ratios + 1e4 if side == SOURCE else ratios  # every source term past the doubles

    monkeypatch.setattr(potentials, "tree_log_ratios", overflowing)  # wolff_tree's log terms
    with pytest.raises(ConfigError, match=r"^sharpness: q = 2\.5: the source Wolff term"):
        ex.sharpness_experiment(3.0, q=2.5, depths=[8, 9])


@pytest.mark.parametrize("run", [ex.verify_gamma_distortion, ex.verify_riesz_distortion,
                                 ex.sharpness_experiment])
@pytest.mark.parametrize("K", [1e16, 1e300, 1e308])
def test_distortion_sweeps_name_a_k_too_large_for_the_doubles(run, K):
    with pytest.raises(IndexDomainError, match=re.escape(f"K = {K}: the indices it gives")):
        run(K)


class _Lookup:
    """entries[i] is read(i), computed where it is read."""

    def __init__(self, read):
        self.read = read

    def __getitem__(self, i):
        return self.read(i)


class _PerPrefixRoute:
    """The per-prefix route, patched in for ``_wolff_sums`` and ``tree_wolff_capacity``:
    each depth's own wolff_tree and wolff_capacity_lower call on ``tree.prefix(depth)``."""

    def __init__(self):
        self.trees = {}  # (side, indices) -> the deepest tree of its series

    def sums(self, tree, side=TARGET, indices=ex.TARGET_INDICES):
        self.trees[side, indices] = tree

        def own(depth):
            return wolff_tree(tree.prefix(depth), side, indices.alpha, indices.p)
        # sums[d] is depth d's total, terms[d - 1] depth d's last term
        return (_Lookup(lambda depth: own(depth).total),
                _Lookup(lambda n: float(own(n + 1).contributions[-1])))

    def capacity(self, total, depth, side, indices, scale):
        est = capacity.wolff_capacity_lower(self.trees[side, indices].prefix(depth), indices,
                                            side=side)
        return est.normalization["sup"], est.value


_WOLFF_SWEEPS = {
    "thm1": lambda K, depths: ex.verify_gamma_distortion(K, depths),
    "thm2a": lambda K, depths: ex.verify_riesz_distortion(K, 2.0, depths),
    "sharpness": lambda K, depths: ex.sharpness_experiment(K, depths=depths),
    "sharpness-q2.5": lambda K, depths: ex.sharpness_experiment(K, q=2.5, depths=depths),
    "thin-content": lambda K, depths: ex.vanishing_content_experiment(K, depths),
    "doubly-exp": lambda K, depths: ex.doubly_exponential_experiment(K, depths),
}


@pytest.mark.parametrize("sweep,K,depths", [
    *((name, K, depths) for K in (1.5, 2.0, 3.0)
      for name, depths in [*((name, [8, 12, 9, 30]) for name in _WOLFF_SWEEPS
                              if name != "sharpness-q2.5"),
                           ("thm1", [0, 1, 3]), ("thm2a", [0, 1, 3])]),
    ("sharpness-q2.5", 3.0, [8, 12, 9, 30])])
def test_sweep_rows_equal_the_per_prefix_route(monkeypatch, sweep, K, depths):
    report = _WOLFF_SWEEPS[sweep](K, depths)
    route = _PerPrefixRoute()
    monkeypatch.setattr(ex, "_wolff_sums", route.sums)
    monkeypatch.setattr(ex, "tree_wolff_capacity", route.capacity)
    reference = _WOLFF_SWEEPS[sweep](K, depths)
    assert [r["depth"] for r in report.rows] == depths
    assert report.rows == reference.rows  # every column, ==
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize("run,calls", [
    (lambda: ex.sharpness_experiment(2.0), 3),
    (lambda: ex.doubly_exponential_experiment(2.0), 2),
    (lambda: ex.verify_gamma_distortion(2.0), 2),
    (lambda: ex.verify_riesz_distortion(2.0), 2),
    (lambda: ex.vanishing_content_experiment(2.0), 1),
    (lambda: ex.content_distortion_experiment(2.0, depths=[2, 3]), 0)])
def test_sweeps_make_one_wolff_tree_call_per_series(monkeypatch, run, calls):
    # each series is one wolff_tree profile of the deepest tree, and no other route
    # forms tree Wolff log terms
    seen, logs = [], []

    def counting(tree, *args, **kwargs):
        seen.append(tree.depth)
        return wolff_tree(tree, *args, **kwargs)

    def counting_logs(tree, *args, **kwargs):
        logs.append(tree.depth)
        return tree_log_ratios(tree, *args, **kwargs)

    monkeypatch.setattr(ex, "wolff_tree", counting)
    monkeypatch.setattr(potentials, "tree_log_ratios", counting_logs)
    report = run()
    assert seen == logs == [max(report.params["depths"])] * calls


@pytest.mark.parametrize("run,prefixes", [
    (lambda: ex.sharpness_experiment(2.0), 0),
    (lambda: ex.doubly_exponential_experiment(2.0), 0),
    (lambda: ex.verify_gamma_distortion(2.0, [0, 1, 4, 3]), 0),
    (lambda: ex.verify_riesz_distortion(2.0), 0),
    (lambda: ex.vanishing_content_experiment(2.0), 0),
    (lambda: ex.content_distortion_experiment(2.0, depths=[2, 4, 3]), 3)])
def test_only_content_ratio_builds_prefix_trees(monkeypatch, run, prefixes):
    seen = []
    prefix = CantorTree.prefix

    def counting(tree, depth):
        seen.append(depth)
        return prefix(tree, depth)

    monkeypatch.setattr(CantorTree, "prefix", counting)
    report = run()
    assert len(seen) == prefixes
    if prefixes:  # one per row, at the row's depth
        assert seen == report.params["depths"]


@pytest.mark.parametrize("K", [1.5, 2.0, 3.0])
def test_thm1_growth_is_each_prefix_own_max(K):
    report = ex.verify_gamma_distortion(K, range(2, 301))
    tree = build_tree(harmonic_schedule(K, 300), 300)
    for row in report.rows:
        prefix = tree.prefix(row["depth"])
        own = max(math.exp(prefix.log_mass(n, "ideal") - prefix.log_radius(TARGET, n))
                  for n in range(prefix.depth + 1))
        assert row["growth"] == own  # bit for bit
        assert row["n_leaves"] == prefix.n_leaves
        assert row["realized_mass"] == math.exp(prefix.log_total_mass())


@pytest.mark.usefixtures("default_int_digits")
def test_thm1_refuses_a_leaf_count_it_cannot_write_before_any_tree(monkeypatch):
    built = []
    monkeypatch.setattr(ex, "build_tree", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ConfigError, match=r"^verify thm1: depth 7200: its n_leaves, 4\^7200, "
                                          "has more than the 4300 digits"):
        ex.verify_gamma_distortion(2.0, depths=[2, 7200])
    assert not built


def _polyfit_linfit(x, y):
    """The reference least-squares line: np.polyfit, with _linfit's R^2."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _polyfit_line(x, y):
    """line_fit's contract, one np.polyfit per series."""
    fits = np.array([np.polyfit(x, row, 1) for row in np.atleast_2d(y)])
    return fits[:, 0].reshape(np.shape(y)[:-1]), fits[:, 1].reshape(np.shape(y)[:-1])


@pytest.mark.parametrize("K", [1.0, 1.5, 2.0, 3.0, 7.0])
def test_closed_form_gauge_fits_equal_polyfit(monkeypatch, K):
    report = ex.gauge_criterion_experiment(K)
    monkeypatch.setattr(ex, "line_fit", _polyfit_line)
    reference = ex.gauge_criterion_experiment(K)
    for got, want in zip(report.rows, reference.rows):
        assert got["fitted_exponent"] == pytest.approx(want["fitted_exponent"], rel=1e-12)
        assert (got["classified"], got["rate"]) == (want["classified"], want["rate"])
        assert got["partial_sum"] == pytest.approx(want["partial_sum"], rel=1e-14)
    assert report.verdict == reference.verdict


@pytest.mark.parametrize("K,q", [(1.5, None), (2.0, None), (3.0, None), (3.0, 2.5)])
def test_closed_form_sharpness_fits_equal_polyfit(monkeypatch, K, q):
    report = ex.sharpness_experiment(K, q=q, depths=range(8, 201))
    depths = [r["depth"] for r in report.rows]
    inputs = [(np.log(depths), [r["source_sum"] for r in report.rows]),
              ([math.log(math.log(d)) for d in depths],
               np.log([r["capacity"] for r in report.rows]))]
    for x, y in inputs:
        got, want = ex._linfit(x, y), _polyfit_linfit(x, y)
        assert got == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(ex, "_linfit", _polyfit_linfit)
    assert ex.recompute_verdict("sharpness", report.rows, report.thresholds) == \
        (report.verdict, report.passed)


def test_line_fit_is_exact_on_a_line_and_fits_many_series_at_once():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept = line_fit(x, 3.0 * x - 2.0)
    assert slope == 3.0 and intercept == -2.0
    ys = np.array([[1.0, 0.0, 2.0, 5.0], [0.5, 0.5, 0.5, 0.5]])
    slopes, intercepts = line_fit(x, ys)
    for row, s, c in zip(ys, slopes, intercepts):
        assert (s, c) == pytest.approx(tuple(np.polyfit(x, row, 1)), rel=1e-12, abs=1e-15)
