"""The three benchmark workloads: generated configs, job lists and output checks.

All jobs use K = 2 with 4-way harmonic levels.  A job is one in-process call
of ``qcantor.cli.main(argv)`` (argument parsing, config loading and artifact
writing included), except the dyadic Wolff oracle, which has no CLI command
and is called through the library.  Library calls go through module
attributes at call time, so the tracer's rebinding reaches them.

Every job has an output check built on invariants that hold for any seed;
``check()`` raises ``CheckError`` on a violation and otherwise returns the
documented values, which are compared against ``golden.json`` for the
golden seed.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qcantor import cantor, capacity, cli, experiments, potentials

WORKLOADS = ("gauge-content", "flat-estimators", "tree-sweeps")

K = 2
BRANCHING = 4
REL_TOL = 1e-12
TWO_THIRDS = repr(2.0 / 3.0)
#: flat-estimators cloud sizes: depth-3 target side, 64 leaves
SAMPLES_PER_LEAF = (64, 128)
FLAT_DEPTH = 3
TRIPLES = 200_000
#: verify target -> stem of the JSON report it writes
VERIFY_STEMS = {"content-ratio": "content_ratio", "sharpness": "sharpness",
                "thm1": "thm1", "thm2a": "thm2a", "thin-content": "vanishing_content",
                "doubly-exp": "doubly_exponential", "gauge-criterion": "gauge_criterion"}


class CheckError(Exception):
    """A job's output violates an invariant or differs from the golden values."""


class RefusedInput(Exception):
    """Generated inputs do not meet a workload's precondition."""


@dataclass
class Job:
    name: str
    kind: str                   # job class, for the per-class time metrics
    run: Callable[[], int]      # exit code
    check: Callable[[], dict]   # documented values; raises CheckError
    size: int = 0               # leaves or atoms, for scaling exponents


# -- inputs -------------------------------------------------------------------


def _config_path(workdir, depth):
    return os.path.join(workdir, f"harmonic-d{depth}.json")


def _tree(config_path):
    with open(config_path) as f:
        schedules, depth, seed = cantor.schedules_from_config(json.load(f))
    return cantor.build_tree(schedules, depth, seed=seed)


def _depths(workload):
    return {"gauge-content": (5, 6), "flat-estimators": (FLAT_DEPTH,),
            "tree-sweeps": (5, 64)}[workload]


def generate(workload, seed, workdir):
    """Write the workload's configs and check its preconditions."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    for depth in _depths(workload):
        cfg = {"K": K, "depth": depth, "seed": seed,
               "levels": [{"M": BRANCHING, "d": "harmonic"}] * depth}
        with open(_config_path(workdir, depth), "w") as f:
            json.dump(cfg, f)
    if workload == "flat-estimators":
        tree = _tree(_config_path(workdir, FLAT_DEPTH))
        for spl in SAMPLES_PER_LEAF:
            real = tree.realize(samples_per_leaf=spl)
            pts = real.measure(cantor.TARGET).points
            distinct = np.unique(pts, axis=0).shape[0]
            if distinct != real.n_atoms:
                raise RefusedInput(
                    f"flat cloud at {spl} samples per leaf has {distinct} distinct "
                    f"points of {real.n_atoms} atoms")


# -- checks -------------------------------------------------------------------


def _load(path):
    with open(path) as f:
        return json.load(f)


def _finite_positive(what, v):
    if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
        raise CheckError(f"{what} = {v!r} is not finite and positive")


def _close(what, got, want, rel=REL_TOL):
    if not abs(got - want) <= rel * max(abs(got), abs(want)):
        raise CheckError(f"{what}: {got!r} differs from {want!r} beyond {rel:g} relative")


def compare_golden(name, got, want):
    """Numbers at REL_TOL relative, everything else exactly, recursively."""
    if isinstance(want, dict):
        if set(got) != set(want):
            raise CheckError(f"{name}: keys {sorted(got)} differ from golden")
        for k in want:
            compare_golden(f"{name}.{k}", got[k], want[k])
    elif isinstance(want, list):
        if len(got) != len(want):
            raise CheckError(f"{name}: {len(got)} entries, golden has {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare_golden(f"{name}[{i}]", g, w)
    elif isinstance(want, float) and isinstance(got, (int, float)):
        if math.isfinite(want):
            _close(f"{name} vs golden", float(got), want)
        elif got != want:
            raise CheckError(f"{name}: {got!r} != golden {want!r}")
    elif got != want:
        raise CheckError(f"{name}: {got!r} != golden {want!r}")


def _check_content(path):
    def check():
        doc = _load(path)
        _finite_positive("content", doc["content"])
        _close("frostman (max-flow) vs content (min-cut)", doc["frostman"], doc["content"])
        return {"content": doc["content"], "frostman": doc["frostman"],
                "cover_size": doc["cover_size"]}
    return check


def _check_verify(out_dir, target):
    def check():
        doc = _load(os.path.join(out_dir, VERIFY_STEMS[target] + ".json"))
        verdict, ok = experiments.recompute_verdict(doc["experiment"], doc["rows"],
                                                    doc["thresholds"])
        if not (ok and doc["passed"]):
            raise CheckError(f"verify {target} re-judges to FAIL: {verdict}")
        rows = [[row[c] for c in doc["columns"]
                 if isinstance(row[c], (int, float)) and not isinstance(row[c], bool)]
                for row in doc["rows"]]
        return {"rows": rows}
    return check


def _check_wolff(path, depth):
    def check():
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != depth:
            raise CheckError(f"wolff profile has {len(rows)} rows, want {depth}")
        want = 0.0
        for row in rows:
            n = int(row["scale_label"])
            want += 1.0 / (n + 1) ** 2
            _close(f"wolff running total at generation {n}",
                   float(row["running_total"]), want)
        return {"total": float(rows[-1]["running_total"])}
    return check


def _check_estimate(path, keys):
    def check():
        doc = _load(path)
        values = {}
        for key in keys:
            v = doc
            for part in key.split("."):
                v = v[part]
            _finite_positive(key, v)
            values[key] = v
        return values
    return check


def _check_curvature(path):
    def check():
        doc = _load(path)
        if not math.isfinite(doc["value"]) or doc["triples"] != TRIPLES:
            raise CheckError(f"curvature {doc['value']!r} over {doc['triples']} triples, "
                             f"want finite over {TRIPLES}")
        return {"value": doc["value"], "stderr": doc["stderr"]}
    return check


def _check_riesz(path, config_path, spl, x, alpha):
    expected = []

    def check():
        if not expected:
            mu = _tree(config_path).realize(samples_per_leaf=spl).measure(cantor.TARGET)
            d = np.hypot(mu.points[:, 0] - x[0], mu.points[:, 1] - x[1])
            expected.append(float(np.sum(mu.weights / d ** (2.0 - alpha))))
        value = _load(path)["value"]
        _close("riesz value vs direct sum over the atoms", value, expected[0])
        return {"value": value}
    return check


def _check_build(path, depth):
    nodes = sum(BRANCHING ** g for g in range(depth + 1))

    def check():
        doc = _load(path)
        if doc["depth"] != depth or len(doc["nodes"]) != nodes:
            raise CheckError(f"build wrote depth {doc['depth']} with "
                             f"{len(doc['nodes'])} nodes, want {depth} and {nodes}")
        return {"nodes": len(doc["nodes"]), "K": doc["K"]}
    return check


# -- jobs ---------------------------------------------------------------------


def _cli(argv):
    return lambda: cli.main(argv)


def _verify(target, seed, out_dir, *extra):
    argv = ["verify", target, "--K", str(K), *extra, "--seed", str(seed), "--out", out_dir]
    kind = "content-ratio" if target == "content-ratio" else "verify"
    return Job(f"verify-{target}", kind, _cli(argv), _check_verify(out_dir, target))


def _oracle(config_path, spl):
    """Dyadic Wolff oracle on the flat cloud at the standard query points."""
    result = {}

    def run():
        result.clear()
        tree = _tree(config_path)
        real = tree.realize(samples_per_leaf=spl)
        mu = real.measure(cantor.TARGET)
        points, qid = potentials.standard_query_points(real, cantor.TARGET, seed=tree.seed)
        est = capacity.wolff_capacity_lower(
            mu, capacity.CapacityIndices(2.0 / 3.0, 1.5), query_points=points,
            k_range=potentials.default_dyadic_range(tree, cantor.TARGET),
            seed=tree.seed, query_set_id=qid)
        result["value"] = est.value
        result["sup"] = est.normalization["sup"]
        return 0

    def check():
        _finite_positive("wolff oracle capacity", result.get("value"))
        _finite_positive("wolff oracle sup", result.get("sup"))
        return dict(result)

    return run, check


def jobs(workload, seed, workdir, out_dir):
    """The workload's job list, in run order."""
    out = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if workload == "gauge-content":
        lst = []
        for depth, side, gauge in ((6, "source", "smoothed:a=0.1"),
                                   (5, "source", "smoothed:a=0.1"),
                                   (5, "target", "distorted:a=0.1")):
            name = f"content-d{depth}-{side}"
            argv = ["content", "--config", _config_path(workdir, depth), "--side", side,
                    "--gauge", gauge, "--out", out(name + ".json")]
            lst.append(Job(name, "content", _cli(argv), _check_content(out(name + ".json")),
                           size=BRANCHING ** depth))
        lst.append(_verify("content-ratio", seed, out("verify"), "--depths", "2..6"))
        return lst

    if workload == "flat-estimators":
        cfg = _config_path(workdir, FLAT_DEPTH)
        lst = []
        for spl in SAMPLES_PER_LEAF:
            atoms = BRANCHING ** FLAT_DEPTH * spl
            common = ["--config", cfg, "--side", "target", "--samples-per-leaf", str(spl)]
            p = {k: out(f"{k}-{atoms}.json") for k in ("capacity", "curvature", "gauge",
                                                         "riesz")}
            run, check = _oracle(cfg, spl)
            lst += [
                Job(f"capacity-direct-{atoms}", "capacity-direct",
                    _cli(["capacity", *common, "--estimator", "direct", "--alpha",
                          TWO_THIRDS, "--p", "1.5", "--out", p["capacity"]]),
                    _check_estimate(p["capacity"], ("value", "normalization.lambda")),
                    size=atoms),
                Job(f"curvature-{atoms}", "curvature",
                    _cli(["curvature", *common, "--triples", str(TRIPLES),
                          "--out", p["curvature"]]),
                    _check_curvature(p["curvature"]), size=atoms),
                Job(f"check-gauge-{atoms}", "check-gauge",
                    _cli(["check-gauge", *common, "--a", "0.1", "--out", p["gauge"]]),
                    _check_estimate(p["gauge"], ("G1.C0", "G2.C0_prime",
                                                 "G2_distorted_chain.C0_prime")),
                    size=atoms),
                Job(f"riesz-{atoms}", "riesz",
                    _cli(["riesz", *common, "--alpha", "1.0", "--x", "2,0",
                          "--out", p["riesz"]]),
                    _check_riesz(p["riesz"], cfg, spl, (2.0, 0.0), 1.0), size=atoms),
                Job(f"wolff-oracle-{atoms}", "wolff-oracle", run, check, size=atoms),
            ]
        return lst

    if workload == "tree-sweeps":
        cfg64, cfg5 = _config_path(workdir, 64), _config_path(workdir, 5)
        vdir = out("verify")
        lst = [_verify("sharpness", seed, vdir, "--depths", "8..64")]
        lst += [_verify(t, seed, vdir) for t in ("thm1", "thm2a", "thin-content",
                                                 "doubly-exp", "gauge-criterion")]
        lst += [
            Job("wolff-d64", "wolff",
                _cli(["wolff", "--config", cfg64, "--side", "target", "--alpha",
                      TWO_THIRDS, "--p", "1.5", "--out", out("wolff.csv")]),
                _check_wolff(out("wolff.csv"), 64)),
            # (0.8, 5/3) are the distortion indices 2K/(2K+1), (2K+1)/(K+1)
            Job("capacity-wolff-d64", "capacity-wolff",
                _cli(["capacity", "--config", cfg64, "--side", "source", "--estimator",
                      "wolff", "--alpha", "0.8", "--p", repr(5.0 / 3.0),
                      "--out", out("capacity.json")]),
                _check_estimate(out("capacity.json"), ("value", "normalization.sup"))),
            Job("build-d5", "build",
                _cli(["build", "--config", cfg5, "--out", out("tree.json")]),
                _check_build(out("tree.json"), 5)),
        ]
        return lst

    raise ValueError(f"unknown workload {workload!r}")
