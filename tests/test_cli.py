import csv
import gc
import io
import json
import math
import os
import shlex

import pytest

from qcantor import cli
from qcantor.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture()
def config_path(tmp_path):
    cfg = {"K": 2, "depth": 3, "seed": 7,
           "levels": [{"M": 4, "d": "example2"}] * 3}
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_build_writes_tree(config_path, tmp_path):
    out = str(tmp_path / "tree.json")
    assert main(["build", "--config", config_path, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["depth"] == 3 and len(doc["nodes"]) == 1 + 4 + 16 + 64


def test_wolff_csv_inverse_squares(config_path, tmp_path, capsys):
    out = str(tmp_path / "w.csv")
    code = main(["wolff", "--config", config_path, "--side", "target",
                 "--alpha", "0.6666666666666666", "--p", "1.5", "--out", out])
    assert code == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "scale_label,contribution,running_total,contribution_log"
    for n, line in enumerate(lines[1:], start=1):
        contribution = float(line.split(",")[1])
        assert contribution == pytest.approx(1.0 / (n + 1) ** 2, rel=1e-12)


def test_wolff_json_format(config_path, tmp_path):
    out = str(tmp_path / "w.json")
    code = main(["wolff", "--config", config_path, "--side", "target",
                 "--alpha", "0.6666666666666666", "--p", "1.5",
                 "--format", "json", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert len(doc["entries"]) == 3 and doc["divergent"] is False


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wolff_streams_artifact_alone(config_path, capsys, fmt):
    code = main(["wolff", "--config", config_path, "--side", "target",
                 "--alpha", "0.6666666666666666", "--p", "1.5", "--format", fmt])
    assert code == 0
    out, err = capsys.readouterr()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4 and all(len(row) == 4 for row in rows)
    else:
        assert len(json.loads(out)["entries"]) == 3
    assert err.startswith("wolff: side=target")


def test_riesz_far_point(config_path, capsys):
    code = main(["riesz", "--config", config_path, "--side", "target",
                 "--alpha", "1.0", "--x", "3,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "riesz:" in out


@pytest.mark.parametrize("x", ["2", "nan,0", "0,inf", "1,2,3", "a,b"])
def test_riesz_rejects_bad_point(config_path, capsys, x):
    code = main(["riesz", "--config", config_path, "--side", "target",
                 "--alpha", "1.0", "--x", x])
    assert code == 2
    assert "--x" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["source", "target"])
def test_riesz_refuses_a_point_on_an_atom(config_path, tmp_path, capsys, side):
    # one atom per leaf puts an atom at the default --x 0,0: I_alpha is inf there,
    # which used to be written as the non-JSON token Infinity
    out = tmp_path / "riesz.json"
    code = main(["riesz", "--config", config_path, "--side", side, "--alpha", "0.5",
                 "--samples-per-leaf", "1", "--out", str(out)])
    assert code == 2
    assert "--x '0,0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,flag", [
    (["--cells", "5"], "--cells"), (["--samples-per-leaf", "3"], "--samples-per-leaf"),
    (["--cells", "5", "--samples-per-leaf", "3"], "--samples-per-leaf")])
def test_capacity_wolff_refuses_direct_flags(config_path, tmp_path, capsys, flags, flag):
    out = tmp_path / "cap.json"
    code = main(["capacity", "--config", config_path, "--side", "source",
                 "--alpha", "0.8", "--p", "1.6666666666666667", "--estimator", "wolff",
                 *flags, "--out", str(out)])
    assert code == 2
    assert f"capacity --estimator wolff does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_capacity_command(config_path, tmp_path):
    out = str(tmp_path / "cap.json")
    code = main(["capacity", "--config", config_path, "--side", "source",
                 "--alpha", "0.8", "--p", "1.6666666666666667", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["value"] > 0 and doc["convention"] == "wolff_sup"


@pytest.mark.parametrize("cells", ["0", "-3"])
def test_capacity_rejects_nonpositive_cells(config_path, capsys, cells):
    code = main(["capacity", "--config", config_path, "--side", "source",
                 "--alpha", "0.8", "--p", "1.6666666666666667",
                 "--estimator", "direct", "--cells", cells])
    assert code == 2
    assert f"--cells {cells}" in capsys.readouterr().err


def test_capacity_refuses_oversized_grid(config_path, tmp_path, capsys):
    out = tmp_path / "cap.json"
    code = main(["capacity", "--config", config_path, "--side", "target",
                 "--alpha", "0.8", "--p", "1.6666666666666667",
                 "--estimator", "direct", "--cells", "200000", "--out", str(out)])
    assert code == 2
    assert "--cells 200000: at most 2048" in capsys.readouterr().err
    assert not out.exists()


def test_curvature_command(config_path, tmp_path):
    out = str(tmp_path / "curv.json")
    code = main(["curvature", "--config", config_path, "--side", "target",
                 "--triples", "20000", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert set(doc) == {"value", "stderr", "sup_pointwise", "triples", "seed"}


@pytest.mark.parametrize("triples", ["0", "-5"])
@pytest.mark.parametrize("spl", ["1", "2"])
def test_curvature_rejects_nonpositive_triples(config_path, capsys, triples, spl):
    # 64 atoms are enumerated exactly, 128 are sampled
    code = main(["curvature", "--config", config_path, "--side", "target",
                 "--samples-per-leaf", spl, "--triples", triples])
    assert code == 2
    assert f"--triples {triples}" in capsys.readouterr().err


def test_curvature_refuses_fewer_than_three_atoms(config_path, tmp_path, capsys):
    out = tmp_path / "curv.json"
    code = main(["curvature", "--config", config_path, "--side", "target",
                 "--depth", "0", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "curvature needs at least 3 atoms, got 1" in err
    assert not out.exists()


def test_curvature_refuses_too_many_atoms(config_path, tmp_path, capsys):
    out = tmp_path / "curv.json"
    code = main(["curvature", "--config", config_path, "--side", "target",
                 "--samples-per-leaf", "1000000000", "--out", str(out)])
    assert code == 2
    assert "64000000000 atoms" in capsys.readouterr().err
    assert not out.exists()


def test_content_command(config_path, tmp_path):
    out = str(tmp_path / "content.json")
    code = main(["content", "--config", config_path, "--side", "source",
                 "--gauge", "smoothed:a=0.1", "--depth", "2", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["content"] > 0
    assert doc["frostman"] == pytest.approx(doc["content"], rel=1e-12)


def test_content_command_depth7_min_cut_equals_max_flow(tmp_path):
    cfg = {"K": 2, "depth": 7, "seed": 0, "levels": [{"M": 4, "d": "harmonic"}] * 7}
    config = tmp_path / "d7.json"
    config.write_text(json.dumps(cfg))
    out = str(tmp_path / "content.json")
    code = main(["content", "--config", str(config), "--side", "source",
                 "--gauge", "smoothed:a=0.1", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["content"] > 0
    assert doc["frostman"] == doc["content"]


@pytest.mark.parametrize("gauge,item", [
    ("smoothed:a=0.1,b=3", "'b=3'"), ("smoothed:b", "'b'"), ("smoothed:a=", "'a='"),
    ("distorted:a=-1", "'a=-1'"), ("distorted:a=nan", "'a=nan'")])
def test_content_rejects_bad_gauge_parameters(config_path, capsys, gauge, item):
    code = main(["content", "--config", config_path, "--side", "source",
                 "--gauge", gauge, "--depth", "2"])
    assert code == 2
    assert f"bad parameter {item}" in capsys.readouterr().err


def test_content_distorted_gauge_is_target_only(config_path, tmp_path, capsys):
    out = tmp_path / "content.json"
    code = main(["content", "--config", config_path, "--side", "source",
                 "--gauge", "distorted:a=0.1", "--depth", "2", "--out", str(out)])
    assert code == 2
    assert "--side target" in capsys.readouterr().err
    assert not out.exists()


def test_content_gauge_default_parameter(config_path, tmp_path):
    docs = []
    for gauge in ("distorted", "distorted:a=0.1"):
        out = str(tmp_path / "content.json")
        assert main(["content", "--config", config_path, "--side", "target",
                     "--gauge", gauge, "--depth", "2", "--out", out]) == 0
        docs.append(open(out).read())
    assert docs[0] == docs[1]


def test_check_gauge_command(config_path, tmp_path):
    out = str(tmp_path / "gauge.json")
    code = main(["check-gauge", "--config", config_path, "--depth", "2",
                 "--a", "0.2", "--pairs", "50", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["G1"]["C0"] >= 1.0


@pytest.mark.parametrize("a", ["nan", "inf", "-0.5"])
def test_check_gauge_rejects_bad_kernel_parameter(config_path, tmp_path, capsys, a):
    out = str(tmp_path / "gauge.json")
    code = main(["check-gauge", "--config", config_path, "--depth", "2",
                 "--a", a, "--out", out])
    assert code == 2
    assert f"--a {float(a)}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("a", ["nan", "inf"])
def test_verify_content_ratio_rejects_bad_kernel_parameter(tmp_path, capsys, a):
    code = main(["verify", "content-ratio", "--K", "2", "--depths", "2..3",
                 "--a", a, "--out", str(tmp_path)])
    assert code == 2
    assert f"--a {float(a)}" in capsys.readouterr().err
    assert not (tmp_path / "content_ratio.json").exists()


@pytest.mark.filterwarnings("error")  # numpy's overflow warning used to reach stderr
def test_check_gauge_refuses_constants_that_are_not_finite(tmp_path, capsys):
    # used to exit 0 with C0=inf C0'=inf and write Infinity into the report
    cfg = {"K": 2, "depth": 3, "levels": [{"M": 4, "d": "harmonic"}] * 3}
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "gauge.json"
    code = main(["check-gauge", "--config", str(path), "--a", "1e300", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --a 1e+300: the G1/G2 constants are not all finite (C0=inf")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_check_gauge_refuses_constants_that_are_not_finite_on_leaf_blocks(tmp_path, capsys):
    # at four atoms per leaf the balls sum leaf expansions; at a = 1e300 every
    # remainder share is inf, so each leaf takes its atoms, as the flat route does
    cfg = {"K": 2, "depth": 3, "levels": [{"M": 4, "d": "harmonic"}] * 3}
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "gauge.json"
    code = main(["check-gauge", "--config", str(path), "--a", "1e300", "--samples-per-leaf", "4",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --a 1e+300: the G1/G2 constants")
    assert not out.exists()


def test_check_gauge_refuses_oversized_pairs(config_path, tmp_path, capsys):
    out = tmp_path / "gauge.json"
    code = main(["check-gauge", "--config", config_path, "--pairs", "1000000000",
                 "--out", str(out)])
    assert code == 2
    assert "--pairs 1000000000: at most 65536" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_check_gauge_rejects_nonpositive_pairs(config_path, tmp_path, capsys, pairs):
    out = str(tmp_path / "gauge.json")
    code = main(["check-gauge", "--config", config_path, "--depth", "2",
                 "--pairs", pairs, "--out", out])
    assert code == 2
    assert f"--pairs {pairs}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_verify_thm1_exit_zero(tmp_path):
    code = main(["verify", "thm1", "--K", "2", "--depths", "2..5",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "thm1.csv").exists()
    assert (tmp_path / "thm1.json").exists()


@pytest.mark.parametrize("depths", ["5..2", "2..x", "", "2,,4"])
def test_verify_rejects_bad_depths(tmp_path, capsys, depths):
    code = main(["verify", "thm1", "--K", "2", "--depths", depths,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--depths" in capsys.readouterr().err
    assert not (tmp_path / "thm1.json").exists()


@pytest.mark.parametrize("target,depths,stem,bad,minimum", [
    ("thin-content", "0..3", "vanishing_content", 0, 1),
    ("doubly-exp", "0..3", "doubly_exponential", 0, 1),
    ("sharpness", "1..10", "sharpness", 1, 2),
    ("sharpness", "0..12", "sharpness", 0, 2)])
def test_verify_rejects_depths_below_minimum(tmp_path, capsys, target, depths, stem,
                                             bad, minimum):
    code = main(["verify", target, "--K", "2", "--depths", depths,
                 "--out", str(tmp_path)])
    assert code == 2
    assert f"depth {bad} is below the minimum {minimum}" in capsys.readouterr().err
    assert not (tmp_path / f"{stem}.json").exists()


@pytest.mark.parametrize("target,depths,listed", [
    ("thm1", "5", "[5]"), ("thm2a", "3,3", "[3, 3]"), ("sharpness", "8,8", "[8, 8]"),
    ("thin-content", "3", "[3]"), ("doubly-exp", "2,4,2", "[2, 4, 2]"),
    ("content-ratio", "2", "[2]")])
def test_verify_rejects_sweeps_without_two_distinct_depths(tmp_path, capsys, target,
                                                           depths, listed):
    out = tmp_path / "v"
    code = main(["verify", target, "--K", "2", "--depths", depths, "--out", str(out)])
    assert code == 2
    assert f"depths {listed}: a sweep needs at least two depths" in capsys.readouterr().err
    assert not out.exists()


_VERIFY_FLAGS = {"depths": "2..3", "p": "2", "q": "2.5", "a": "0.1"}
_UNREAD = [(target, flag) for target, reads in (
    ("thm1", "depths"), ("thm2a", "p depths"), ("sharpness", "q depths"),
    ("gauge-criterion", ""), ("thin-content", "depths"), ("doubly-exp", "depths"),
    ("content-ratio", "a depths")) for flag in _VERIFY_FLAGS if flag not in reads.split()]


@pytest.mark.parametrize("target,flag", _UNREAD)
def test_verify_refuses_flags_its_target_does_not_read(tmp_path, capsys, target, flag):
    out = tmp_path / "v"
    code = main(["verify", target, "--K", "2", f"--{flag}", _VERIFY_FLAGS[flag],
                 "--out", str(out)])
    assert code == 2
    assert f"verify {target} does not read --{flag}" in capsys.readouterr().err
    assert not out.exists()


def test_gauge_criterion_records_seed(tmp_path):
    assert main(["verify", "gauge-criterion", "--K", "2", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gauge_criterion.json").read_text())
    assert doc["params"]["seed"] == 4


def _readme_verify_lines():
    with open(README) as f:
        return [line.strip() for line in f if line.startswith("qcantor verify ")]


def test_readme_lists_every_verify_target():
    assert {shlex.split(line)[2] for line in _readme_verify_lines()} == set(cli._VERIFY)


@pytest.mark.parametrize("line", _readme_verify_lines())
def test_readme_verify_examples_pass(tmp_path, line):
    assert main(shlex.split(line)[1:] + ["--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("K", ["0", "0.5", "nan", "inf"])
def test_verify_gauge_criterion_rejects_k_below_one(tmp_path, capsys, K):
    code = main(["verify", "gauge-criterion", "--K", K, "--out", str(tmp_path)])
    assert code == 2
    assert f"distortion K must be >= 1, got {float(K)}" in capsys.readouterr().err
    assert not (tmp_path / "gauge_criterion.json").exists()


@pytest.mark.parametrize("target,stem", [("thin-content", "vanishing_content"),
                                         ("doubly-exp", "doubly_exponential"),
                                         ("thm1", "thm1"), ("sharpness", "sharpness")])
def test_verify_rejects_infinite_k(tmp_path, capsys, target, stem):
    code = main(["verify", target, "--K", "inf", "--out", str(tmp_path)])
    assert code == 2
    assert "distortion K must be >= 1, got inf" in capsys.readouterr().err
    assert not (tmp_path / f"{stem}.json").exists()


@pytest.mark.parametrize("q", ["inf", "nan"])
def test_verify_sharpness_rejects_nonfinite_q(tmp_path, capsys, q):
    code = main(["verify", "sharpness", "--K", "2", "--q", q, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "sharpness regime" in err and f"got q = {float(q)}" in err
    assert not (tmp_path / "sharpness.json").exists()


@pytest.mark.parametrize("p,why", [("inf", "need a finite p > 1"), ("nan", "need a finite p > 1"),
                                   ("0", "need a finite p > 1"),
                                   ("1e5", "leaves double precision")])
def test_verify_thm2a_names_p(tmp_path, capsys, p, why):
    # p = inf used to name alpha*p = nan; p = 0 and 1e5 ended in a ZeroDivisionError
    code = main(["verify", "thm2a", "--K", "2", "--p", p, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"thm2a: p = {float(p)}: " in err and why in err
    assert not (tmp_path / "thm2a.json").exists()


def test_verify_sharpness_refuses_capacity_that_leaves_the_doubles(tmp_path, capsys):
    # q = 1000: the bounded source capacity's Wolff sup underflows to 0
    code = main(["verify", "sharpness", "--K", "2", "--q", "1000", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "sharpness: q = 1000.0: " in err and "leaves double precision" in err
    assert not (tmp_path / "sharpness.json").exists()


def test_build_depth_zero_keeps_the_config_k(tmp_path, capsys):
    cfg = {"K": 2, "depth": 2, "levels": [{"M": 4, "d": "harmonic"}] * 2}
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "tree.json"
    assert main(["build", "--config", str(path), "--depth", "0", "--out", str(out)]) == 0
    assert "depth=0 K=2.0 " in capsys.readouterr().out
    assert json.loads(out.read_text())["K"] == 2.0


_SEEDED = {
    "build": [],
    "wolff": ["--side", "target", "--alpha", "0.5", "--p", "1.5"],
    "riesz": ["--side", "target", "--alpha", "1.0"],
    "curvature": ["--side", "target", "--triples", "100"],
    "capacity": ["--side", "source", "--alpha", "0.5", "--p", "1.5"],
    "content": ["--side", "source"],
    "check-gauge": ["--pairs", "10"],
}


@pytest.mark.parametrize("command,where", [
    *((command, where) for command in _SEEDED for where in ("flag", "config")),
    ("verify", "flag")])
def test_negative_seed_rejected(tmp_path, capsys, command, where):
    out = str(tmp_path / "out")
    if command == "verify":
        argv = ["verify", "gauge-criterion", "--K", "2", "--seed", "-1"]
    else:
        cfg = {"K": 2, "depth": 2, "seed": -1 if where == "config" else 7,
               "levels": [{"M": 4, "d": "harmonic"}] * 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), *_SEEDED[command]]
        if where == "flag":
            argv += ["--seed", "-1"]
    assert main(argv + ["--out", out]) == 2
    assert "seed -1: need a nonnegative integer" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["riesz", "curvature", "capacity", "content",
                                     "check-gauge"])
def test_nonpositive_samples_per_leaf_rejected(config_path, tmp_path, capsys, command):
    out = str(tmp_path / "out.json")
    code = main([command, "--config", config_path, *_SEEDED[command],
                 "--samples-per-leaf", "0", "--out", out])
    assert code == 2
    assert "--samples-per-leaf 0: need a positive integer" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_verify_failure_exit_one(tmp_path):
    # near-critical sharpness indices: target tail too fat, verdict fails
    code = main(["verify", "sharpness", "--K", "2", "--q", "1.75",
                 "--depths", "8..32", "--out", str(tmp_path)])
    assert code == 1


def test_verify_byte_identical_reruns(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["verify", "thm2a", "--K", "2", "--p", "2",
                     "--depths", "2..5", "--seed", "5", "--out", out]) == 0
    for name in ("thm2a.csv", "thm2a.json"):
        with open(os.path.join(out1, name), "rb") as f1, \
                open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_build_export_cap_names_the_depth(tmp_path, capsys):
    cfg = {"K": 2, "depth": 9, "seed": 0, "levels": [{"M": 4, "d": "harmonic"}] * 9}
    path = tmp_path / "d9.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "tree.json"
    assert main(["build", "--config", str(path), "--out", str(out)]) == 2
    assert "depth 9: 349525 nodes exceed the export cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("level", [{"M": 4, "d": 1.0, "eps": "x"},
                                   {"M": 4, "d": {"sharpness_q": "x"}},
                                   {"M": 4, "d": {"sharpness_q": 1e4}},
                                   {"M": 4, "d": -1},
                                   {"M": 10**400, "d": "harmonic"}])
def test_bad_level_value_exits_two(tmp_path, capsys, level):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"K": 2, "depth": 1, "levels": [level]}))
    out = tmp_path / "tree.json"
    assert main(["build", "--config", str(path), "--out", str(out)]) == 2
    assert "error: level 1: " in capsys.readouterr().err
    assert not out.exists()


def test_plain_value_error_is_not_a_configuration_exit(config_path, monkeypatch):
    # exit 2 is reserved for the validation errors; any other ValueError is a bug
    def broken(args):
        raise ValueError("internal bug")
    monkeypatch.setattr(cli, "_cmd_build", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["build", "--config", config_path])


def test_missing_config_exits_two(tmp_path):
    code = main(["wolff", "--config", str(tmp_path / "nope.json"),
                 "--side", "target", "--alpha", "0.5", "--p", "1.5"])
    assert code == 2


def test_invalid_schema_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"K": 2, "depth": 2,
                                "levels": [{"M": 4, "d": "bogus"}] * 2}))
    assert main(["build", "--config", str(path)]) == 2


def test_invalid_indices_exit_two(config_path):
    code = main(["wolff", "--config", config_path, "--side", "target",
                 "--alpha", "1.5", "--p", "1.5"])
    assert code == 2


def test_unknown_flag_exits_two(config_path):
    assert main(["wolff", "--config", config_path, "--side", "target",
                 "--alpha", "0.5", "--p", "1.5", "--bogus"]) == 2


def test_schema_rejection_precedes_output(tmp_path):
    out = str(tmp_path / "never.json")
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["build", "--config", str(path), "--out", out])
    assert code == 2
    assert not os.path.exists(out)


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("QCANTOR_OUT", str(tmp_path))
    code = main(["verify", "gauge-criterion", "--K", "2"])
    assert code == 0
    assert (tmp_path / "gauge_criterion.json").exists()


def test_wolff_csv_keeps_the_log_term_of_an_underflowed_generation(tmp_path):
    # generations 57-64 used to print contribution_log -inf, and 54-56 the log of a subnormal
    cfg = {"K": 2, "depth": 64, "levels": [{"M": 4, "d": "harmonic"}] * 64}
    path = tmp_path / "h64.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "wolff.csv"
    assert main(["wolff", "--config", str(path), "--side", "source", "--alpha", "1.2",
                 "--p", "1.5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    logs = [float(row["contribution_log"]) for row in rows]
    assert len(logs) == 64 and all(map(math.isfinite, logs))
    assert all(math.exp(x) == float(row["contribution"]) for x, row in zip(logs, rows))
    assert float(rows[-1]["contribution"]) == 0.0 and logs[-1] < -745.0


def test_wolff_refuses_a_term_past_the_doubles(tmp_path, capsys):
    # K = 3 at depth 4 used to print total=inf divergent=False and exit 0
    cfg = {"K": 3, "depth": 4, "levels": [{"M": 4, "d": "harmonic"}] * 4}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "wolff.json"
    code = main(["wolff", "--config", str(path), "--side", "source", "--alpha", "1.3",
                 "--p", "1.01", "--format", "json", "--out", str(out)])
    assert code == 2
    assert ("error: the source Wolff term at alpha = 1.3, p = 1.01 leaves double precision "
            "at generation 3 ") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target,stem", [("thm1", "thm1"), ("thm2a", "thm2a"),
                                         ("sharpness", "sharpness")])
@pytest.mark.parametrize("K", ["1e16", "1e300"])
def test_verify_names_a_k_too_large_for_the_doubles(tmp_path, capsys, target, stem, K):
    # the indices used to be named instead: need 0 < alpha*p < 2, got alpha*p = 2.0
    code = main(["verify", target, "--K", K, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: K = {float(K)}: the indices it gives round to alpha*p = 2.0" in err
    assert not (tmp_path / f"{stem}.json").exists()


def test_calls_share_one_parser_and_no_parsed_state(config_path, tmp_path, monkeypatch):
    builds, build_parser = [], cli.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        wolff = ["wolff", "--config", config_path, "--side", "target", "--alpha", "0.5",
                 "--p", "1.5"]
        assert main(["verify", "thm1", "--K", "2", "--depths", "2,3",
                     "--out", str(tmp_path / "v")]) == 0
        assert main(wolff + ["--depth", "2", "--out", str(tmp_path / "a.csv")]) == 0
        assert main(wolff + ["--out", str(tmp_path / "b.csv")]) == 0
        assert main(["build", "--config", config_path, "--out", str(tmp_path / "t.json")]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    rows = [len((tmp_path / name).read_text().splitlines()) - 1 for name in ("a.csv", "b.csv")]
    assert rows == [2, 3]  # --depth 2 reached the call that gave it, and no other
    assert json.loads((tmp_path / "t.json").read_text())["depth"] == 3


def test_commands_leave_no_reference_cycles(config_path, tmp_path):
    # with one parser per process, garbage cycles are seldom collected: a cycle
    # that holds a tree or DP arrays grows the peak RSS of a long-lived caller
    runs = [["build", "--config", config_path],
            ["content", "--config", config_path, "--side", "source"],
            ["content", "--config", config_path, "--side", "target", "--gauge", "distorted"],
            ["check-gauge", "--config", config_path, "--pairs", "10"],
            ["verify", "content-ratio", "--K", "2", "--depths", "2,3"]]
    cli._parser()  # building it leaves argparse's own formatter cycles, once per process
    gc.collect()
    gc.disable()
    try:
        for n, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / str(n))]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
