"""centercut benchmark: one seeded workload per process, closed loop, one client.

    python3 perfbench/run.py --workload lattice-solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50

A run sets up (a fresh interpreter's imports, round-0 inputs and one untimed
warm-up job, repeated with the median kept), then runs whole rounds of jobs
one at a time until the next round would overrun ``--seconds``. Each job is
timed alone and checked after its timer stops. Count metrics come from
round 0, which every run completes, so they repeat exactly for a seed.

With ``--trace 1`` the run instead repeats round 0, running each job untraced
and then traced; per-layer metrics are per round and the time ratio of the
traced to the untraced runs is the tracing overhead. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:   # before numpy loads: BLAS/OpenMP pools of one thread
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)   # the checkout's sources, ahead of any installed copy

import centercut  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("lattice-solve", "mixed-solve", "centerpoint-query", "adversary-games")

# (name, unit, better); end-to-end metrics come from untraced runs
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_s.p50", "s", "lower"),
    ("job_s.tail", "s", "lower"),
    ("correct_frac", "ratio", "higher"),
    ("pivot_depth.p50", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
# printed and recorded but not in the result line: failed_frac is 0 when the
# code is sound and oracle_calls.mean does not exist on centerpoint-query
REPORTED_ONLY = [
    ("failed_frac", "ratio", "lower"),
    ("oracle_calls.mean", "count", "lower"),
]

SPANS = [
    "geom.enumerate_lattice_points", "geom.enumerate_vertices", "geom.lattice_width_2d",
    "geom.clip_polygon_vertices", "geom.linprog",
    "measures.lattice.build", "measures.mixed.build", "measures.uniform.build",
    "measures.lattice.halfspace_mass", "measures.mixed.halfspace_mass",
    "measures.uniform.halfspace_mass", "measures.uniform.sample",
    "depth.min_direction_2d.lattice", "depth.min_direction_2d.mixed",
    "depth.min_direction_2d.uniform", "depth.depth_finite", "depth.depth_sampled",
    "centerpoint.lattice_measure", "centerpoint.mixed_2d", "centerpoint.monte_carlo",
    "centerpoint.lenstra_mixed", "centerpoint.centroid",
    "cutplane.solve", "cutplane.oracle", "adversary.query", "adversary.is_consistent",
]
PHASES = ["cutplane.pick", "cutplane.rebuild", "cutplane.cut"]


LAYERS = ["geom", "measures", "depth", "centerpoint", "cutplane", "adversary"]


def per_layer_names():
    """Every per-layer metric of a traced run, with unit."""
    out = [(f"{layer}.self_s", "s") for layer in LAYERS]
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.s", "s"), (f"{span}.self_s", "s")]
    for phase in PHASES:
        out += [(f"{phase}.calls", "count"), (f"{phase}.s", "s")]
    out += [("cutplane.iterations", "count"), ("cutplane.removed_over_floor.min", "ratio"),
            ("cutplane.removed_over_floor.p50", "ratio"),
            ("adversary.pieces_over_calls", "ratio"), ("trace.overhead_frac", "ratio")]
    return out


# per-layer metrics in the result line: the self time of each layer that
# every workload in BENCHMARK.json runs, every span's call count, and the
# ratios. Per-span times, zero where a workload skips a span, go to the
# result files only.
RESULT_LAYERS = ["geom", "measures", "depth", "centerpoint"]


def result_layer_names():
    return ([(f"{layer}.self_s", "s") for layer in RESULT_LAYERS]
            + [(n, u) for n, u in per_layer_names()
               if n.endswith(".calls") or u == "ratio" or n == "cutplane.iterations"])


# ---------------------------------------------------------------------------
# statistics

def tail(times):
    """Highest whole percentile with at least ten jobs beyond it (nearest
    rank): (value, percentile, jobs beyond). Below 20 jobs no percentile from
    50 up has ten beyond it; the maximum is reported, as percentile 100."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100, 0


def median(values):
    return float(statistics.median(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# environment

def environment(args):
    import numpy
    import scipy
    commit = "unknown"   # a checkout without .git records only the source digest
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "centercut")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


# ---------------------------------------------------------------------------
# one workload

class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.records = []    # dicts: round, kind, s, failed, correct, out

    def execute(self, job, rnd, tracer=None, job_id=None):
        wl = self.wl
        rec = {"round": rnd, "kind": job.kind, "failed": False, "correct": False, "out": None}
        if tracer is not None:
            tracer.begin_job(job_id)
        t = time.perf_counter()
        try:
            ret = wl.run(job)
        except Exception:   # a raising job counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            rec["failed"] = True
        rec["s"] = time.perf_counter() - t
        if tracer is not None:
            tracer.end_job()
        if not rec["failed"]:
            try:
                rec["out"] = wl.output(job, ret)
                rec["correct"] = bool(wl.check(job, rec["out"]))
            except Exception:   # a check that cannot run counts as a miss
                traceback.print_exc(file=sys.stderr)
        self.records.append(rec)
        return rec


def setup(wl, seed):
    """Set-up time and the round-0 inputs.

    Set-up is a fresh interpreter importing the library (timed from spawn
    to exit), round-0 input generation and one warm-up job. It is repeated
    and the median kept, so one slow import does not decide the number.
    """
    probe = f"import sys; sys.path.insert(0, {SRC!r}); import scipy.spatial, centercut"
    times, imports = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)
        imports.append(time.perf_counter() - t)
        round0 = workloads.make_round(wl, seed, 0)
        wl.run(wl.warmup)
        times.append(time.perf_counter() - t)
    return median(times), median(imports), round0


def end_to_end(runner, wl, setup_s):
    recs = runner.records
    done = [r for r in recs if not r["failed"]]
    times = [r["s"] for r in done]
    total = sum(r["s"] for r in recs)
    value, pct, beyond = tail(times) if times else (float("nan"), 0, 0)
    round0 = [r["out"] for r in recs if r["round"] == 0 and r["out"] is not None]
    calls = [o.oracle_calls for o in round0 if o.oracle_calls is not None]
    depths = [d for o in round0 for d in o.pivot_depths]
    n = len(recs)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(done) / total if total > 0 else 0.0,
        # the upper median is always a measured job, never the mean of two
        # jobs of different kinds
        "job_s.p50": statistics.median_high(times) if times else float("nan"),
        "job_s.tail": value,
        "correct_frac": sum(r["correct"] for r in recs) / n,
        "pivot_depth.p50": median(depths),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(r["failed"] for r in recs) / n,
        "oracle_calls.mean": statistics.fmean(calls) if (wl.solves and calls) else None,
    }
    kinds = sorted({r["kind"] for r in done})
    extra = {"job_s.p50.by_kind": {k: median([r["s"] for r in done if r["kind"] == k])
                                   for k in kinds},
             "job_s.tail.percentile": pct, "job_s.tail.beyond": beyond, "jobs": n,
             "rounds": 1 + max(r["round"] for r in recs), "timed_s": total,
             "job_s.each": [[r["kind"], r["s"]] for r in recs]}
    return metrics, extra


def run_correct(recs, allowance):
    """No job raised, every check passed, except that a kind with a miss
    allowance (the Monte Carlo route promises its depth only with
    probability 1 - delta) may miss on at most that share of its jobs."""
    if any(r["failed"] for r in recs):
        return False
    for kind in {r["kind"] for r in recs}:
        mine = [r for r in recs if r["kind"] == kind]
        missed = sum(not r["correct"] for r in mine)
        if missed > allowance.get(kind, 0.0) * len(mine):
            return False
    return True


def counts_from_outputs(outs):
    iters = [o.iterations for o in outs if o.iterations is not None]
    ratios = [x for o in outs for x in o.removed_over_floor]
    pieces = sum(o.pieces for o in outs if o.pieces is not None)
    queries = sum(o.queries for o in outs if o.queries is not None)
    return {"cutplane.iterations": statistics.fmean(iters) if iters else 0.0,
            "cutplane.removed_over_floor.min": min(ratios) if ratios else 0.0,
            "cutplane.removed_over_floor.p50": median(ratios) if ratios else 0.0,
            "adversary.pieces_over_calls": pieces / queries if queries else 0.0}


def traced_run(runner, wl, round0, seconds, tracer, out_prefix):
    """Repeat round 0, running each job untraced and then traced, so the two
    timings of a job are taken close together."""
    start = time.perf_counter()
    untraced = traced = 0.0
    reps = 0
    last = 0.0
    while reps == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        for i, job in enumerate(round0):
            untraced += runner.execute(job, 2 * reps)["s"]
            with tracer:
                traced += runner.execute(job, 2 * reps + 1, tracer, f"{reps}:{i}")["s"]
        reps += 1
        last = time.perf_counter() - t
    table = spans.layer_table(tracer.spans)
    metrics = {}
    for name, _unit in per_layer_names():
        span, _, field = name.rpartition(".")
        if span in SPANS or span in PHASES:
            metrics[name] = table.get(span, {}).get(field, 0) / reps
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(table.get(s, {}).get("self_s", 0.0) for s in SPANS
                                         if s.startswith(layer + ".")) / reps
    outs = [r["out"] for r in runner.records if r["round"] == 1 and r["out"] is not None]
    metrics.update(counts_from_outputs(outs))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    checks = attribution_checks(wl.name, tracer.spans, round0)
    tracer.write_jsonl(out_prefix + "-spans.jsonl")
    with open(out_prefix + "-layers.txt", "w") as f:
        f.write(layer_text(table, reps, checks))
    return metrics, {"trace_reps": reps, "checks": checks}


def attribution_checks(name, recorded, round0):
    """Shares of job time the ROADMAP profile puts at >= 90% on the seed code."""
    if name == "mixed-solve":
        return {"depth.min_direction_2d.mixed.s/job_s":
                spans.job_share(recorded, "depth.min_direction_2d.mixed")}
    if name == "lattice-solve":
        ids = {j for j in {s[4] for s in recorded}
               if round0[int(j.split(":")[1])].kind == "n1500"}
        return {"centerpoint.lattice_measure.s/job_s[n1500]":
                spans.job_share(recorded, "centerpoint.lattice_measure", ids)}
    return {}


def layer_text(table, reps, checks):
    lines = [f"per round, mean of {reps} traced repetitions of round 0",
             f"{'span':40s} {'calls':>9s} {'s':>11s} {'self_s':>11s}"]
    for span in SPANS + PHASES:
        row = table.get(span)
        if row:
            lines.append(f"{span:40s} {row['calls'] / reps:9.1f} {row['s'] / reps:11.6f} "
                         f"{row.get('self_s', float('nan')) / reps:11.6f}")
    for k, v in checks.items():
        lines.append(f"check {k} = {v:.4f} ({'PASS' if v >= 0.9 else 'FAIL'}, want >= 0.90)")
    return "\n".join(lines) + "\n"


def run_one(args):
    if not os.path.abspath(centercut.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: centercut imported from {centercut.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    setup_s, imports_s, round0 = setup(wl, args.seed)
    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(args.out, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    runner = Runner(wl)
    detail = {"env": environment(args), "imports_s": imports_s}
    if args.trace:
        tracer = spans.Tracer()
        metrics, extra = traced_run(runner, wl, round0, args.seconds, tracer, prefix)
        names = [n for n, _u in result_layer_names()]
        units = dict(per_layer_names())
    else:
        start = time.perf_counter()
        rnd, last = 0, 0.0
        while rnd == 0 or time.perf_counter() - start + last <= args.seconds:
            t = time.perf_counter()
            jobs = round0 if rnd == 0 else workloads.make_round(wl, args.seed, rnd)
            for job in jobs:
                runner.execute(job, rnd)
            last = time.perf_counter() - t
            rnd += 1
        metrics, extra = end_to_end(runner, wl, setup_s)
        names = [n for n, _u, _b in END_TO_END]
        units = {n: u for n, u, _b in END_TO_END + REPORTED_ONLY}
    recs = runner.records
    correct = run_correct(recs, workloads.MISS_ALLOWANCE)
    detail.update(extra)
    detail["metrics"] = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
    with open(prefix + ".json", "w") as f:
        json.dump(detail, f, indent=1, default=str)
    for k, v in metrics.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{wl.name:18s} {k:40s} {shown:>12s} {units.get(k, '')}")
    for k, v in extra.get("checks", {}).items():
        print(f"{wl.name:18s} check {k} = {v:.4f} ({'PASS' if v >= 0.9 else 'FAIL'})")
    print(json.dumps({"env": detail["env"]}))
    print(json.dumps({
        "correct": correct, "attempted": len(recs), "failed": sum(r["failed"] for r in recs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names}}))


def run_all(args):
    """Every workload, untraced then traced, one process at a time."""
    summary = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"error: {name} trace={trace} exited {proc.returncode}")
            summary.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, trace, res in summary:
        print(f"{name} trace={trace}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload, traced and not")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results"))
    args = ap.parse_args(argv)
    if args.all:
        run_all(args)
    elif args.workload:
        run_one(args)
    else:
        ap.error("give --workload NAME or --all")


if __name__ == "__main__":
    main()
