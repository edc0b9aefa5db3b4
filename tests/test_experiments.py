import json
import math
import re

import pytest

from qcantor import capacity
from qcantor import experiments as ex
from qcantor.cantor import SOURCE, ConfigError, build_tree, sharpness_schedule
from qcantor.potentials import IndexDomainError, wolff_tree


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


def test_sharpness_names_q_when_a_source_term_leaves_the_doubles(monkeypatch):
    def refusing(tree, side, alpha, p, **kwargs):
        if side == SOURCE:
            raise IndexDomainError(f"the {side} Wolff term at alpha = {alpha:.6g}, p = "
                                   f"{p:.6g} leaves double precision at generation 1")
        return wolff_tree(tree, side, alpha, p, **kwargs)

    monkeypatch.setattr(capacity, "wolff_tree", refusing)  # under the source capacity
    with pytest.raises(ConfigError, match=r"^sharpness: q = 2\.5: the source Wolff term"):
        ex.sharpness_experiment(3.0, q=2.5, depths=[8, 9])


@pytest.mark.parametrize("run", [ex.verify_gamma_distortion, ex.verify_riesz_distortion,
                                 ex.sharpness_experiment])
@pytest.mark.parametrize("K", [1e16, 1e300])
def test_distortion_sweeps_name_a_k_too_large_for_the_doubles(run, K):
    with pytest.raises(IndexDomainError, match=re.escape(f"K = {K}: the indices it gives")):
        run(K)
