#!/usr/bin/env python3
"""Run one qcantor benchmark workload and print its metrics.

    python3 bench/run.py --workload gauge-content --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload gauge-content --seed 1 --seconds 25 --trace 1

Run it from the root of a checkout; the package is imported from ``src/``.
One client runs one job at a time (closed loop).  After set-up and one
warm-up pass, passes over the workload's job list repeat until ``--seconds``
have elapsed; every job's output is checked after it returns, outside the
timed region.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (``run_s``, ``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` half
the time runs untraced and half under the outside-in tracer, and the line
holds the per-layer metrics.  The lines before it print every metric by name
and unit, the workload-specific job-class times, and the run environment.

Exit code: 0 when every job passed its check, 1 when one failed, 2 when the
benchmark cannot run (no source tree, refused inputs).
"""
import os

# one BLAS/OpenMP thread; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"
#: the seed whose outputs are also compared against golden.json
GOLDEN_SEED = 0
#: fresh-interpreter set-up probes per run (after one discarded warm-up probe)
SETUP_PROBES = 9

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: job classes whose summed time per pass is printed as <class>_s
JOB_CLASSES = {"gauge-content": ("content", "content-ratio"),
               "flat-estimators": ("capacity-direct", "curvature", "check-gauge"),
               "tree-sweeps": ()}
#: (smaller job, larger job) whose times give a scaling exponent in job.size
CONTENT_SCALING = ("content-d5-source", "content-d6-source")
DIAMETER_SCALING = ("capacity-direct-4096", "capacity-direct-8192")


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    import tracer
    out = []
    for name in tracer.SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(name, "count", "lower") for name in tracer.COUNTERS
            if name != "gauges.h_nodes_distinct"]
    out += [("realization.distance_evals_per_s", "1/s", "higher"),
            ("capacity.quadrature_evals_per_s", "1/s", "higher"),
            ("gauges.h_reuse_ratio", "ratio", "higher"),
            ("cli.bytes_written", "bytes", "lower"),
            ("scaling.content_s_vs_leaves", "exponent", "lower"),
            ("scaling.diameter_self_s_vs_atoms", "exponent", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


# -- measurement --------------------------------------------------------------


def run_pass(job_list, out_dir, golden, tr=None):
    """One pass over the job list: per-job times, trace snapshots, failures."""
    import workloads
    shutil.rmtree(out_dir, ignore_errors=True)
    times, snaps, failures = {}, {}, []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for job in job_list:
            failure = None
            t0 = time.perf_counter()
            try:
                rc = job.run()
            except Exception:  # a crash is a failed job; keep running the rest
                rc, failure = None, traceback.format_exc(limit=3)
            times[job.name] = time.perf_counter() - t0
            if tr is not None:
                snaps[job.name] = tr.take()
            if failure is None and rc != 0:
                failure = f"exit code {rc}"
            if failure is None:
                try:
                    values = job.check()
                    if golden is not None and job.name in golden:
                        workloads.compare_golden(job.name, values, golden[job.name])
                except (workloads.CheckError, KeyError, TypeError, ValueError,
                        OSError) as e:
                    failure = f"check failed: {e}"
            if tr is not None:
                tr.take()  # drop calls the check made
            if failure is not None:
                failures.append((job.name, failure))
    written = 0
    if tr is not None:
        written = sum(p.stat().st_size for p in pathlib.Path(out_dir).rglob("*")
                      if p.is_file())
    return {"times": times, "total": sum(times.values()), "snaps": snaps,
            "failures": failures, "bytes": written}


def timed_passes(job_list, out_dir, golden, seconds, tr=None):
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(run_pass(job_list, out_dir, golden, tr))
    return passes


def setup_times(workload, seed, workdir):
    """Fresh-interpreter import plus input generation, one warm-up discarded."""
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed),
           probe_dir]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times[1:]


def exponent(t_small, t_large, n_small, n_large):
    if t_small <= 0 or t_large <= 0:
        return 0.0
    return math.log(t_large / t_small) / math.log(n_large / n_small)


def tail(values):
    """Highest order statistic with at least ten samples beyond it."""
    v = sorted(values)
    if len(v) < 11:
        return None, None
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def _median_job(passes, name):
    return statistics.median(p["times"][name] for p in passes)


def _sizes(job_list):
    return {job.name: job.size for job in job_list}


# -- reporting ----------------------------------------------------------------


def environment(seed):
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcantor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpus": os.cpu_count(), "seed": seed,
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0):
        ap.error("--seconds must be positive")

    if not (SRC / "qcantor" / "__init__.py").is_file():
        print(f"bench: no qcantor source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcantor
    if SRC.resolve() not in pathlib.Path(qcantor.__file__).resolve().parents:
        print(f"bench: imported qcantor from {qcantor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    build_root = ROOT / ".bench_build"
    build_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=build_root)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            build_root.rmdir()


def run(args, workdir):
    import tracer
    import workloads
    workload, seed = args.workload, args.seed
    load_before = os.getloadavg()
    try:
        workloads.generate(workload, seed, workdir)
    except workloads.RefusedInput as e:
        print(f"bench: refusing to run {workload}: {e}", file=sys.stderr)
        return 2
    golden = None
    if seed == GOLDEN_SEED:
        with open(GOLDEN_PATH) as f:
            golden = json.load(f)[workload]
    setup = None if args.trace else setup_times(workload, seed, workdir)

    out_dir = os.path.join(workdir, "out")
    job_list = workloads.jobs(workload, seed, workdir, out_dir)
    warm = run_pass(job_list, out_dir, golden)
    if args.trace:
        plain = timed_passes(job_list, out_dir, golden, args.seconds / 2)
        with tracer.Tracer() as tr:
            traced = timed_passes(job_list, out_dir, golden, args.seconds / 2, tr)
        everything = [warm] + plain + traced
    else:
        plain = timed_passes(job_list, out_dir, golden, args.seconds)
        traced = []
        everything = [warm] + plain
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for p in everything for f in p["failures"]]
    attempted = len(job_list) * len(everything)
    failed = len(failures)
    correct = failed == 0

    env = environment(seed)
    env.update(workload=workload, trace=args.trace, passes=len(plain) + len(traced),
               jobs_per_pass=len(job_list),
               loadavg_before=[round(x, 2) for x in load_before],
               loadavg_after=[round(x, 2) for x in os.getloadavg()])
    print("env: " + json.dumps(env, sort_keys=True))
    pass_times = [p["total"] for p in plain]
    run_s = statistics.median(pass_times)
    detail = [("jobs", attempted, "count"), ("jobs_failed", failed, "count"),
              ("passes", len(plain), "count")]
    for kind in JOB_CLASSES[workload]:
        names = [j.name for j in job_list if j.kind == kind]
        detail.append((f"{kind.replace('-', '_')}_s",
                       statistics.median(sum(p["times"][n] for n in names) for p in plain),
                       "s"))
    if workload == "tree-sweeps":
        value, pct = tail(pass_times)
        detail += [("round_p50_s", run_s, "s"),
                   (f"round_tail_s (p{pct:.1f})" if pct else "round_tail_s", value, "s"),
                   ("round_samples", len(pass_times), "count")]
    sizes = _sizes(job_list)
    if workload == "gauge-content":
        a, b = CONTENT_SCALING
        content_exp = exponent(_median_job(plain, a), _median_job(plain, b),
                               sizes[a], sizes[b])
        detail.append(("scaling.content_s_vs_leaves", content_exp, "exponent"))
    else:
        content_exp = 0.0

    if not args.trace:
        metrics = {"run_s": run_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        print_table(f"end-to-end: {workload} seed={seed}",
                    [(n, metrics[n], u) for n, u in END_TO_END])
        print_table("workload detail (not gated)", detail)
        units = dict(END_TO_END)
    else:
        metrics, mismatch = layer_metrics(traced, plain, job_list, content_exp)
        if mismatch:
            correct = False
            failures.append(("trace", mismatch))
        units = {n: u for n, u, _ in per_layer_metrics()}
        print_table(f"per-layer (traced): {workload} seed={seed}",
                    [(n, metrics[n], units[n]) for n in units])
        print_table("workload detail (untraced passes)", detail)
    for name, why in failures:
        print(f"bench: FAILED {name}: {why}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(traced, plain, job_list, content_exp):
    """Per-layer metrics from traced passes; counts must repeat exactly."""
    import tracer
    totals = []
    for p in traced:
        total = tracer.empty()
        for snap in p["snaps"].values():
            tracer.add_into(total, snap)
        total["counters"]["cli.bytes_written"] = p["bytes"]
        totals.append(total)
    first = totals[0]
    mismatch = None
    for i, t in enumerate(totals[1:], start=2):
        if t["calls"] != first["calls"] or t["counters"] != first["counters"]:
            mismatch = f"traced pass {i} counts differ from pass 1"
    self_s = {n: statistics.median(t["self_s"][n] for t in totals) for n in tracer.SPANS}
    c = first["counters"]
    m = {}
    for name in tracer.SPANS:
        m[f"{name}.calls"] = first["calls"][name]
        m[f"{name}.self_s"] = self_s[name]
    for name in tracer.COUNTERS:
        m[name] = c[name]
    h_calls = first["calls"]["gauges.h_node"]
    m["realization.distance_evals_per_s"] = tracer.rate(
        c["realization.distance_evals"], self_s["realization.node_atom_distances"])
    m["capacity.quadrature_evals_per_s"] = tracer.rate(
        c["capacity.quadrature_evals"], self_s["capacity.direct_capacity_lower"])
    m["gauges.h_reuse_ratio"] = c["gauges.h_nodes_distinct"] / h_calls if h_calls else 0.0
    m["cli.bytes_written"] = c["cli.bytes_written"]
    m["scaling.content_s_vs_leaves"] = content_exp
    sizes = _sizes(job_list)
    a, b = DIAMETER_SCALING
    if a in sizes:
        diam = [statistics.median(p["snaps"][n]["self_s"]["measure.diameter"]
                                  for p in traced) for n in (a, b)]
        m["scaling.diameter_self_s_vs_atoms"] = exponent(*diam, sizes[a], sizes[b])
    else:
        m["scaling.diameter_self_s_vs_atoms"] = 0.0
    m["trace.overhead_frac"] = (statistics.median(p["total"] for p in traced)
                                / statistics.median(p["total"] for p in plain) - 1.0)
    return m, mismatch


if __name__ == "__main__":
    sys.exit(main())
