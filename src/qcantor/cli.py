"""Command-line driver: build trees, evaluate potentials/capacities, verify.

Configs use the JSON schedule schema (see schedules_from_config); every
command validates its inputs before any computation, writes deterministic
CSV/JSON, and reports through exit codes: 0 success or verdict pass,
1 verdict fail, 2 configuration error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import experiments as exp
from .cantor import (SOURCE, TARGET, ConfigError, ConstructionError, build_tree,
                     schedules_from_config)
from .capacity import CapacityIndices, direct_capacity_lower, wolff_capacity_lower
from .gauges import (DistortedTreeGauge, TreeSmoothedDensityGauge, check_G1, check_G2,
                     check_G2_tree_gauge, content_Mh_tree, eps_mu_a, frostman_tree,
                     sample_ball_pairs)
from .potentials import IndexDomainError, menger_curvature, riesz_potential, wolff_tree


def _out_dir(args):
    return args.out or os.environ.get("QCANTOR_OUT", ".")


def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    return cfg


def _check_seed(seed):
    if seed < 0:
        raise ConfigError(f"seed {seed}: need a nonnegative integer")


def _tree_from_args(args):
    cfg = _load_config(args.config)
    schedules, depth, seed = schedules_from_config(cfg)
    if args.depth is not None:
        depth = args.depth
    if args.seed is not None:
        seed = args.seed
    _check_seed(seed)
    return build_tree(schedules, depth, seed=seed)


def _given(args, names, command=None, reads=()):
    """{name: value} of the flags in names that were given, so that the callee keeps
    its defaults.  With command, a given flag outside reads is refused."""
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    for name in given if command else ():
        if name not in reads:
            raise ConfigError(f"{command} does not read --{name.replace('_', '-')}")
    return given


def _realized(args, *counts, realize=True):
    """(tree, realization or None unless realize) of the config.  The count flags given
    (--samples-per-leaf and counts) must be positive integers, checked before the config."""
    for name in ("samples_per_leaf",) + counts:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ConfigError(f"--{name.replace('_', '-')} {value}: need a positive integer")
    tree = _tree_from_args(args)
    return tree, tree.realize(**_given(args, ("samples_per_leaf",))) if realize else None


def _parse_depths(text):
    lo, sep, hi = text.partition("..")
    try:
        depths = list(range(int(lo), int(hi) + 1)) if sep else [int(d) for d in text.split(",")]
    except ValueError:
        depths = []
    if not depths:
        raise ConfigError(f"--depths {text!r}: need a nonempty range lo..hi or list d1,d2")
    return depths


def _float(text):
    """float(text), or nan where text is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _emit(args, doc, summary, stream=False):
    """The one output route of the artifact commands.

    doc (text, or a dict written as canonical JSON) goes to --out.  Without
    --out it is dropped, or, for a streaming command, written to stdout; the
    summary line then goes to stderr so that stdout holds the artifact alone.
    """
    if not isinstance(doc, str):
        doc = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", newline="") as f:
            f.write(doc)
    elif stream:
        sys.stdout.write(doc)
    print(summary, file=sys.stderr if stream and not args.out else sys.stdout)


def _profile_csv(profile):
    lines = ["scale_label,contribution,running_total,contribution_log"]
    for lab, c, run, lc in profile.csv_rows():
        lines.append(f"{lab},{c:.17g},{run:.17g},{lc:.17g}")
    return "\n".join(lines) + "\n"


def _profile_json(profile):
    return {"alpha": profile.alpha, "p": profile.p, "label": profile.label,
            "entries": [[lab, c] for lab, c in profile.entries],
            "tail": profile.tail, "total": profile.total,
            "divergent": profile.divergent, "divergence_rate": profile.divergence_rate}


# -- subcommands --------------------------------------------------------------


def _cmd_build(args):
    tree = _tree_from_args(args)
    args.out = args.out or os.path.join(_out_dir(args), "tree.json")
    _emit(args, tree.to_json(),
          f"build: depth={tree.depth} K={tree.K} leaves={tree.n_leaves} -> {args.out}")
    return 0


def _cmd_wolff(args):
    tree = _tree_from_args(args)
    profile = wolff_tree(tree, args.side, args.alpha, args.p,
                         mass_convention=args.convention)
    doc = _profile_csv(profile) if args.format == "csv" else _profile_json(profile)
    _emit(args, doc, f"wolff: side={args.side} total={profile.total:.17g} "
          f"divergent={profile.divergent}", stream=True)
    return 0


def _cmd_riesz(args):
    x = tuple(_float(v) for v in args.x.split(","))
    if len(x) != 2 or not all(map(math.isfinite, x)):
        raise ConfigError(f"--x {args.x!r}: need two finite numbers 'x,y'")
    _, real = _realized(args)
    value = riesz_potential(real.measure(args.side), x, args.alpha)
    if not math.isfinite(value):
        raise ConfigError(f"--x {args.x!r}: I_alpha is infinite there (an atom of positive "
                          "weight sits at or too close to the point); choose another point")
    _emit(args, {"x": list(x), "alpha": args.alpha, "value": value},
          f"riesz: I_alpha at {x} = {value:.17g}")
    return 0


def _cmd_curvature(args):
    tree, real = _realized(args, "triples")
    est = menger_curvature(real.measure(args.side), triples=args.triples, seed=tree.seed)
    _emit(args, est.to_json_dict(), f"curvature: c2={est.value:.17g} "
          f"stderr={est.stderr:.3g} sup={est.sup_pointwise:.6g}")
    return 0


def _cmd_capacity(args):
    indices = CapacityIndices(args.alpha, args.p)
    tree, real = _realized(args, "cells", realize=args.estimator == "direct")
    if args.estimator == "wolff":
        _given(args, ("samples_per_leaf", "cells"), "capacity --estimator wolff")
        est = wolff_capacity_lower(tree, indices, side=args.side, seed=tree.seed)
    else:
        est = direct_capacity_lower(real.measure(args.side), indices, **_given(args, ("cells",)))
    _emit(args, est.to_json_dict(),
          f"capacity[{args.estimator}]: value={est.value:.17g} convention={est.convention}")
    return 0


def _make_gauge(descriptor, real, side):
    kind, _, rest = descriptor.partition(":")
    a = 0.1
    for n, item in enumerate(rest.split(",") if rest else ()):
        key, _, value = item.partition("=")
        a = _float(value)
        if n > 0 or key != "a" or not 0.0 < a < math.inf:
            raise ConfigError(f"gauge {descriptor!r}: bad parameter {item!r} "
                              "(only a=<positive float> is accepted)")
    if kind == "smoothed":
        return TreeSmoothedDensityGauge(real, a, side=side)
    if kind == "distorted":
        if side != TARGET:
            raise ConfigError(f"gauge {descriptor!r} measures target balls; "
                              f"use --side {TARGET}, not --side {side}")
        return DistortedTreeGauge(real, a)
    raise ConfigError(f"unknown gauge {descriptor!r} (use smoothed:a=… or distorted:a=…)")


def _cmd_content(args):
    _, real = _realized(args)
    gauge = _make_gauge(args.gauge, real, args.side)
    content = content_Mh_tree(gauge)
    frost = frostman_tree(gauge)
    _emit(args, {"content": content.value, "gauge": content.gauge,
                 "cover_size": len(content.cover), "frostman": frost.value},
          f"content: M^h={content.value:.17g} frostman={frost.value:.17g} "
          f"cover={len(content.cover)} balls")
    return 0


def _check_kernel_a(a):
    if not 0.0 < a < math.inf:
        raise ConfigError(f"--a {a}: need a positive finite kernel parameter")


def _cmd_check_gauge(args):
    _check_kernel_a(args.a)
    tree, real = _realized(args, "pairs")
    mu = real.measure(args.side)
    eps = lambda x, r: eps_mu_a(mu, x, r, args.a)  # noqa: E731
    pairs = sample_ball_pairs((0.0, 0.0), 1.0, args.pairs, tree.seed)
    g1 = check_G1(eps, pairs)
    balls = [(x, r) for (x, r), _ in pairs[:max(8, args.pairs // 8)]]
    g2 = check_G2(eps, balls, swallow_radius=4.0)
    doc = {"G1": g1.to_json_dict(), "G2": g2.to_json_dict()}
    distorted = DistortedTreeGauge(real, args.a)
    paths = [p for p in tree.paths_at(min(2, tree.depth))][:16]
    doc["G2_distorted_chain"] = check_G2_tree_gauge(distorted, paths).to_json_dict()
    chain = doc["G2_distorted_chain"]["C0_prime"]
    if not all(map(math.isfinite, (g1.c0, g2.c0_prime, chain))):
        raise ConfigError(f"--a {args.a}: the G1/G2 constants are not all finite (C0={g1.c0:.6g}, "
                          f"C0'={g2.c0_prime:.6g}, distorted chain C0'={chain:.6g})")
    _emit(args, doc, f"check-gauge: C0={g1.c0:.6g} C0'={g2.c0_prime:.6g}")
    return 0


#: target -> (experiment, the flags it reads besides --K, --seed, --out); it owns their defaults
_VERIFY = {
    "thm1": (exp.verify_gamma_distortion, ("depths",)),
    "thm2a": (exp.verify_riesz_distortion, ("p", "depths")),
    "sharpness": (exp.sharpness_experiment, ("q", "depths")),
    "gauge-criterion": (exp.gauge_criterion_experiment, ()),
    "thin-content": (exp.vanishing_content_experiment, ("depths",)),
    "doubly-exp": (exp.doubly_exponential_experiment, ("depths",)),
    "content-ratio": (exp.content_distortion_experiment, ("a", "depths")),
}


def _cmd_verify(args):
    experiment, reads = _VERIFY[args.target]
    flags = _given(args, ("depths", "p", "q", "a"), f"verify {args.target}", reads)
    if "depths" in flags:
        flags["depths"] = _parse_depths(flags["depths"])
    _check_seed(args.seed)
    if "a" in flags:
        _check_kernel_a(flags["a"])
    report = experiment(args.K, seed=args.seed, **flags)
    _, json_path = report.write(_out_dir(args))
    status = "PASS" if report.passed else "FAIL"
    print(f"verify {args.target}: {status} — {report.verdict} -> {json_path}")
    return 0 if report.passed else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="qcantor",
                                 description="Cantor-pair potential laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, cloud=False, side=True):
        p.add_argument("--config", required=True, help="schedule JSON")
        if side:
            p.add_argument("--side", choices=(SOURCE, TARGET), required=True)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if cloud:  # the commands that realize the tree as an atom cloud
            p.add_argument("--samples-per-leaf", type=int, help="atoms per leaf")

    p = sub.add_parser("build", help="build a tree and export node logs")
    add_common(p, side=False)

    p = sub.add_parser("wolff", help="tree-formula Wolff profile")
    add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--convention", choices=("ideal", "realized"), default="ideal")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("riesz", help="Riesz potential of a realization at a point")
    add_common(p, cloud=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", default="0,0", help="evaluation point 'x,y'")

    p = sub.add_parser("curvature", help="Menger curvature of a realization")
    add_common(p, cloud=True)
    p.add_argument("--triples", type=int, default=200_000)

    p = sub.add_parser("capacity", help="capacity lower estimate")
    add_common(p, cloud=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--estimator", choices=("wolff", "direct"), default="wolff")
    p.add_argument("--cells", type=int, help="direct estimator only")

    p = sub.add_parser("content", help="tree-aligned h-content and Frostman flow")
    add_common(p, cloud=True)
    p.add_argument("--gauge", default="smoothed:a=0.1")

    p = sub.add_parser("check-gauge", help="doubling/summability report")
    add_common(p, cloud=True, side=False)
    p.add_argument("--side", choices=(SOURCE, TARGET), default=SOURCE)
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--pairs", type=int, default=200)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument("target", choices=tuple(_VERIFY))
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--depths", help="e.g. 2..6 or 2,4,6")
    p.add_argument("--p", type=float, help="thm2a only")
    p.add_argument("--q", type=float, help="sharpness only")
    p.add_argument("--a", type=float, help="kernel parameter (content-ratio only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return ap


@functools.lru_cache(maxsize=None)
def _parser():
    """The process's one parser, built on the first main() call, not at import.
    Each parse_args call returns a fresh namespace, so calls share no parsed state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handler = globals()["_cmd_" + args.command.replace("-", "_")]  # looked up per call
    try:
        return handler(args)
    except (ConfigError, ConstructionError, IndexDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
