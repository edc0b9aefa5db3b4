"""The CLI contract, checked over random configs and flags.

Every case runs through ``cli.main`` in process, with RuntimeWarning made an
error.  Exit 0 writes an artifact whose numbers are all finite (RFC 8259
JSON, or a CSV of finite numbers); exit 1 is a verify verdict FAIL, with its
report written; exit 2 prints a message and writes nothing; and no case ends
in a traceback, which here is an exception out of ``main``.  An exit-2
message names what is at fault: a flag the case passed, a config key it set,
a level, generation or depth, or a side.
"""
import json
import math
import re
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcantor.cli import main

#: the most leaves a drawn tree has, so that the realizing commands stay fast
MAX_LEAVES = 1600

_K = st.one_of(st.floats(1.0 + 1e-4, 1000.0), st.sampled_from([1.0 + 1e-4, 1.5, 2.0, 3.0, 50.0]))
_D = st.one_of(st.floats(1.0, 5.0), st.sampled_from(["harmonic", "example2", 0.5]),
               st.builds(lambda q: {"sharpness_q": q}, st.floats(1.0, 10.0)))
_ALPHA = st.one_of(st.floats(0.01, 1.99), st.sampled_from([0.05, 0.5, 2.0 / 3.0, 1.9]))
_P = st.one_of(st.floats(1.001, 10.0), st.sampled_from([1.01, 1.5, 2.0, 100.0]))
_SIDE = st.sampled_from(["source", "target"])
_SPL = st.integers(1, 4).map(str)


@st.composite
def _configs(draw):
    """A schedule config of depth at most 3: M in 1..40 per level while the leaf
    count stays within MAX_LEAVES, d a number, a named multiplier or a sharpness q,
    and an optional eps."""
    depth, leaves, levels = draw(st.integers(0, 3)), 1, []
    for _ in range(depth):
        m = draw(st.integers(1, min(40, MAX_LEAVES // leaves)))
        leaves *= m
        level = {"M": m, "d": draw(_D)}
        if not draw(st.integers(0, 3)):  # most eps break smallness, so few levels set one
            level["eps"] = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.0)))
        levels.append(level)
    return {"K": draw(_K), "depth": depth, "seed": draw(st.integers(0, 3)), "levels": levels}


def _num(strategy):
    return strategy.map(repr)


_COMMANDS = st.one_of(
    st.just(["build"]),
    st.tuples(st.just("wolff"), st.just("--side"), _SIDE, st.just("--alpha"), _num(_ALPHA),
              st.just("--p"), _num(_P), st.just("--convention"),
              st.sampled_from(["ideal", "realized"]), st.just("--format"),
              st.sampled_from(["csv", "json"])),
    st.tuples(st.just("riesz"), st.just("--side"), _SIDE, st.just("--alpha"),
              _num(st.floats(0.01, 1.99)),
              # --x=..., as argparse takes a value such as -1,0 for an option
              st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
                  lambda x: f"--x={x[0]!r},{x[1]!r}"),
              st.just("--samples-per-leaf"), _SPL),
    st.tuples(st.just("curvature"), st.just("--side"), _SIDE, st.just("--triples"),
              st.integers(1, 2000).map(str), st.just("--samples-per-leaf"), _SPL),
    st.tuples(st.just("capacity"), st.just("--side"), _SIDE, st.just("--alpha"), _num(_ALPHA),
              st.just("--p"), _num(_P), st.just("--estimator"), st.just("wolff")),
    st.tuples(st.just("capacity"), st.just("--side"), _SIDE, st.just("--alpha"), _num(_ALPHA),
              st.just("--p"), _num(_P), st.just("--estimator"), st.just("direct"),
              st.just("--cells"), st.integers(1, 16).map(str), st.just("--samples-per-leaf"),
              _SPL),
    st.tuples(st.just("content"), st.just("--side"), _SIDE, st.just("--gauge"),
              st.tuples(st.sampled_from(["smoothed", "distorted"]),
                        st.floats(0.01, 10.0)).map(lambda g: f"{g[0]}:a={g[1]!r}"),
              st.just("--samples-per-leaf"), _SPL),
    st.tuples(st.just("check-gauge"), st.just("--side"), _SIDE, st.just("--a"),
              _num(st.floats(0.01, 10.0)), st.just("--pairs"), st.integers(1, 40).map(str),
              st.just("--samples-per-leaf"), _SPL),
).map(list)


def _depths(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=2, max_size=4, unique=True).map(
        lambda ds: ",".join(map(str, ds)))


#: the verify targets with their flags; content-ratio realizes every depth, so its
#: depths stay shallow, and doubly-exp's reach past 709, where its cap -e^N leaves
#: the doubles
_TARGETS = st.one_of(
    st.tuples(st.just("thm1"), st.just("--depths"), _depths(0, 40)),
    st.tuples(st.just("thm2a"), st.just("--p"),
              _num(st.one_of(st.floats(1.001, 10.0), st.floats(10.0, 1e4))),
              st.just("--depths"), _depths(0, 40)),
    st.tuples(st.just("sharpness"), st.just("--q"),
              _num(st.one_of(st.floats(1.0, 5.0), st.floats(5.0, 1e3))),
              st.just("--depths"), _depths(2, 40)),
    st.tuples(st.just("gauge-criterion")),
    st.tuples(st.just("thin-content"), st.just("--depths"), _depths(1, 24)),
    st.tuples(st.just("doubly-exp"), st.just("--depths"),
              st.one_of(_depths(1, 24), _depths(1, 1000))),
    st.tuples(st.just("content-ratio"), st.just("--a"), _num(st.floats(0.01, 10.0)),
              st.just("--depths"), _depths(1, 3)),
).map(list)


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=refuse)


def _finite_csv(text):
    """Every number of a CSV body below its header is finite; labels are skipped."""
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:  # a label, such as a verdict class
                continue
            assert math.isfinite(value), line


def _run(argv, capsys):
    """main(argv) under RuntimeWarning as an error: (exit code, stdout, stderr)."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


#: words that place a refusal in the tree or on a side
_PLACES = ("level", "levels", "generation", "depth", "side", "source", "target")


def _names(message, name):
    """Whether message names a flag or key: as --name, as a word if it is longer
    than one letter, and a one-letter name as "x =" or "x must"."""
    word = re.escape(name.lstrip("-"))
    bare = (rf"(?<![\w.-]){word}\s*(=|must\b)" if len(word) == 1
            else rf"(?<![\w-]){word}(?![\w-])")
    return re.search(rf"--{word}(?![\w-])|{bare}", message) is not None


def _refused(code, err, argv, cfg=None):
    """Exit 2 with the CLI's one-line "error: ..." message (every drawn flag is
    well formed, so argparse refuses none), naming a flag of argv, a key cfg
    sets, or a place (_PLACES)."""
    assert code == 2, code
    assert err.startswith("error: ") and len(err.strip()) > len("error:"), err
    names = [arg.partition("=")[0] for arg in argv if arg.startswith("--")]
    for level in cfg["levels"] if cfg else ():
        names += [*level, *(level["d"] if isinstance(level["d"], dict) else ())]
    names += [*(cfg or ()), *_PLACES]
    assert any(_names(err, name) for name in names), (names, err)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_configs(), command=_COMMANDS)
# the quadrature's lambda underflowed to 0 at p' = 101: a ZeroDivisionError traceback
@example(cfg={"K": 1.0, "depth": 2, "seed": 0, "levels": [{"M": 40, "d": 1.0}] * 2},
         command=["capacity", "--side", "source", "--estimator", "direct", "--alpha", "1.9",
                  "--p", "1.01", "--samples-per-leaf", "1", "--cells", "16"])
# refusals that named no level, depth or flag: a sharpness_q level outside the regime,
# and one atom for curvature
@example(cfg={"K": 2, "depth": 2, "seed": 0,
              "levels": [{"M": 4, "d": "harmonic"}, {"M": 4, "d": {"sharpness_q": 1.2}}]},
         command=["build"])
@example(cfg={"K": 2, "depth": 0, "seed": 0, "levels": []},
         command=["curvature", "--side", "target", "--triples", "100",
                  "--samples-per-leaf", "1"])
# numbers that the parser truncated or read from booleans, with exit 0
@example(cfg={"K": 2, "depth": 2.7, "seed": 0, "levels": [{"M": 4, "d": "harmonic"}] * 3},
         command=["build"])
@example(cfg={"K": 2, "depth": 1, "seed": 0, "levels": [{"M": 4.5, "d": "harmonic"}]},
         command=["build"])
@example(cfg={"K": 2, "depth": 1, "seed": 1.9, "levels": [{"M": 4, "d": "harmonic"}]},
         command=["build"])
@example(cfg={"K": True, "depth": 1, "seed": 0, "levels": [{"M": 4, "d": "harmonic"}]},
         command=["build"])
# a subnormal capacity, 2.05e-316, written as 2.0476725e-316 with exit 0
@example(cfg={"K": 20, "depth": 5, "seed": 0, "levels": [{"M": 4, "d": "harmonic"}] * 5},
         command=["capacity", "--estimator", "wolff", "--side", "source", "--alpha", "0.1",
                  "--p", "4"])
def test_artifact_commands_keep_the_contract(tmp_path_factory, capsys, cfg, command):
    tmp = tmp_path_factory.mktemp("contract")
    config, out = tmp / "cfg.json", tmp / "out"
    config.write_text(json.dumps(cfg))
    code, _, err = _run([*command, "--config", str(config), "--out", str(out)], capsys)
    if code == 0:
        text = out.read_text()
        if text.startswith("scale_label,"):  # the wolff command's CSV
            _finite_csv(text)
        else:
            assert isinstance(_strict_json(text), dict)
    else:
        _refused(code, err, command, cfg)
        assert not out.exists()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(K=_K, target=_TARGETS, seed=st.integers(0, 3))
# leaf radii past the doubles were refused without a side or depth
@example(K=400.0, target=["content-ratio", "--depths", "1,2"], seed=0)
# a doubly-exp cap past the doubles raised OverflowError
@example(K=2.0, target=["doubly-exp", "--depths", "1,710"], seed=0)
def test_verify_targets_keep_the_contract(tmp_path_factory, capsys, K, target, seed):
    out = tmp_path_factory.mktemp("verify")
    flags = [*target, "--K", repr(K), "--seed", str(seed)]
    code, stdout, err = _run(["verify", *flags, "--out", str(out)], capsys)
    if code == 2:
        _refused(code, err, flags)
        assert not list(out.iterdir())
        return
    assert code in (0, 1), code
    assert (" PASS " if code == 0 else " FAIL ") in stdout
    (json_path,) = out.glob("*.json")
    assert isinstance(_strict_json(json_path.read_text()), dict)
    _finite_csv(json_path.with_suffix(".csv").read_text())
