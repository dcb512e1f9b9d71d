"""Benchmark of the `hopfcyclic` command line, driven in-process.

    python3 perfbench/run.py --workload crossed-hc --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  One client in one process and one
thread calls `hopfcyclic.cli.main(argv)` in a closed loop: each job starts
when the previous one has returned.  A pass is one run over the workload's
fixed job multiset, in an order drawn from `--seed`; passes repeat until
`--seconds` have gone by (at least one pass).  Every job's exit code and
report must equal the golden recorded in `perfbench/goldens/`.

The host's speed drifts by up to half again over minutes, more than any
bound a regression check could use.  So the process is pinned to one CPU,
a fixed standard-library loop is timed on it before and after every job,
and times are reported as seconds at the speed where that loop takes
`REFERENCE_S` (the raw wall time is printed alongside).  The loop uses no
package code, so a change to the package cannot move it.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one untraced
pass, one pass under `SpanTracer` and one under `WorkCounter`, and reports
the per-layer metrics; it ignores `--seconds`.  Either way every metric is
printed first as a table with its unit and sample count, and the last line
of standard output is one JSON object.  The exit code is 1 when any job's
outcome differs from its golden, and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SpanTracer, WorkCounter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
REFERENCE_S = 0.012

# Per-layer metrics: (name, unit, note).  A note of "computed" marks a count
# derived from operand sizes rather than observed work.
PER_LAYER = [
    ("cli.self_s", "s", ""),
    ("io.load_calls", "count", ""),
    ("io.load_s", "s", ""),
    ("hopf.check_s", "s", ""),
    ("crossed.build_s", "s", ""),
    ("crossed.check_s", "s", ""),
    ("tensor.compile_calls", "count", ""),
    ("tensor.compile_s", "s", ""),
    ("tensor.compile_nnz", "count", ""),
    ("cylinder.op_calls", "count", ""),
    ("cylinder.op_compiles", "count", ""),
    ("cylinder.memo_hit_ratio", "1", ""),
    ("cylinder.self_s", "s", ""),
    ("linalg.matmul_calls", "count", ""),
    ("linalg.matmul_s", "s", ""),
    ("linalg.matmul_madds", "count", "computed"),
    ("linalg.matmul_fill_ratio", "1", "computed"),
    ("linalg.kron_calls", "count", ""),
    ("linalg.kron_s", "s", ""),
    ("linalg.eq_calls", "count", ""),
    ("linalg.eq_s", "s", ""),
    ("linalg.echelon_calls", "count", ""),
    ("linalg.echelon_s", "s", ""),
    ("linalg.echelon_rows", "count", ""),
    ("linalg.echelon_rank_ratio", "1", ""),
    ("linalg.reduce_calls", "count", ""),
    ("linalg.reduce_s", "s", ""),
    ("homology.mixed_s", "s", ""),
    ("homology.dims_s", "s", ""),
    ("homology.total_s", "s", ""),
    ("homology.pages_s", "s", ""),
    ("fields.mul_calls", "count", ""),
    ("fields.add_calls", "count", ""),
    ("fields.inv_calls", "count", ""),
    ("fields.q_share", "1", ""),
    ("trace.overhead_ratio", "1", ""),
]

END_TO_END = [
    ("batch_s", "s", "median over passes, at reference speed"),
    ("job_s.p50", "s", "median over jobs of per-job medians, at reference speed"),
    ("setup_s", "s", "median over fresh processes, at reference speed"),
    ("peak_rss_mb", "MB", "ru_maxrss of this process"),
]


class SetupError(Exception):
    """The checkout has no loadable `hopfcyclic` package, or goldens that
    do not match the job lists."""


def load_program():
    """Import `hopfcyclic.cli` from the checkout's own `src/`."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hopfcyclic
        from hopfcyclic import cli
    except ImportError as e:
        raise SetupError("cannot import hopfcyclic from %s: %s" % (src, e))
    if Path(hopfcyclic.__file__).resolve().parent != src / "hopfcyclic":
        raise SetupError("hopfcyclic imported from %s, not %s"
                         % (hopfcyclic.__file__, src))
    return cli


def golden_path(workload):
    return HERE / "goldens" / ("%s.json" % workload)


def report_text(report):
    """The bytes the command line writes for a report."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_goldens(workload):
    """[(argv, exit code, report text)] in workload order."""
    with open(golden_path(workload)) as fh:
        recorded = json.load(fh)["jobs"]
    jobs = WORKLOADS[workload]
    if [g["argv"] for g in recorded] != jobs:
        raise SetupError("goldens of %s do not match its job list"
                         % workload)
    return [(g["argv"], g["exit"], report_text(g["report"])) for g in recorded]


def reference_loop():
    """Fraction arithmetic and dict updates, the package's staple work,
    written with the standard library alone."""
    acc = {}
    third = Fraction(1, 3)
    for i in range(3000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + third * i


def slowdown():
    """How much slower than reference speed this CPU runs right now: the
    best of three runs of the reference loop, with the collector paused so
    that the size of the program's heap does not enter."""
    paused = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if paused:
            gc.enable()
    return min(times) / REFERENCE_S


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one `slowdown`
    measures: the highest-numbered, as CPU 0 tends to take the interrupts."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_job(cli, argv):
    """One call of the front door; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class Pass:
    """One run over a job list in a given order.

    job_s holds each job's wall time, job_ref_s the same at reference speed
    (divided by the mean slowdown measured just before and just after it);
    seconds and ref_seconds are their sums."""

    def __init__(self, cli, jobs, order):
        self.order = order
        self.job_s = []
        self.job_ref_s = []
        self.outputs = {}
        self.failed = []
        clock = time.perf_counter
        before = slowdown()
        for idx in order:
            argv, want_code, want_text = jobs[idx]
            t0 = clock()
            try:
                got = run_job(cli, argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                got = (None, "")
            wall = clock() - t0
            after = slowdown()
            self.job_s.append(wall)
            self.job_ref_s.append(wall / ((before + after) / 2))
            before = after
            self.outputs[idx] = got
            if got != (want_code, want_text):
                self.failed.append(idx)
                print("FAILED job %d: %s (exit %s, golden %s)"
                      % (idx, " ".join(argv), got[0], want_code),
                      file=sys.stderr)
        self.seconds = sum(self.job_s)
        self.ref_seconds = sum(self.job_ref_s)


def shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def probe_setup(workload, seed):
    """Seconds at reference speed from starting a fresh process to its
    first job dispatch."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    before = slowdown()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed with exit %s" % proc.returncode)
    return elapsed / ((before + slowdown()) / 2)


def typical_job_s(passes):
    """Median over the jobs of each job's median time across the passes.

    Pooling every job time into one median would put it between the
    slowest run of one job and the fastest of the next, which swings with
    noise; per-job medians first keep it on the typical run of the middle
    jobs."""
    per_job = {}
    for p in passes:
        for idx, t in zip(p.order, p.job_ref_s):
            per_job.setdefault(idx, []).append(t)
    return statistics.median(statistics.median(ts) for ts in per_job.values())


def end_to_end(cli, jobs, workload, seed, seconds):
    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(Pass(cli, jobs, shuffled(rng, len(jobs))))
    metrics = {
        "batch_s": (statistics.median(p.ref_seconds for p in passes),
                    len(passes)),
        "job_s.p50": (typical_job_s(passes), len(passes) * len(jobs)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    return passes, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(cli, jobs, seed):
    order = shuffled(random.Random(seed), len(jobs))
    plain = Pass(cli, jobs, order)
    with SpanTracer() as spans:
        traced = Pass(cli, jobs, order)
    with WorkCounter() as work:
        counted = Pass(cli, jobs, order)
    c, s = spans.calls, spans.self_s
    fc = work.field_calls
    field_total = sum(sum(t) for t in fc.values())
    values = {
        "cli.self_s": s["cli"],
        "io.load_calls": spans.fn_calls["io.load_document"],
        "io.load_s": s["io.load"],
        "hopf.check_s": s["hopf.check"],
        "crossed.build_s": s["crossed.build"],
        "crossed.check_s": s["crossed.check"],
        "tensor.compile_calls": c["tensor.compile"],
        "tensor.compile_s": s["tensor.compile"],
        "tensor.compile_nnz": work.compile_nnz,
        "cylinder.op_calls": c["cylinder.op"],
        "cylinder.op_compiles": spans.op_compiles,
        "cylinder.memo_hit_ratio": (1.0 - _ratio(spans.op_compiles,
                                                 c["cylinder.op"])
                                    if c["cylinder.op"] else 0.0),
        "cylinder.self_s": s["cylinder.op"] + s["cylinder.other"],
        "linalg.matmul_calls": c["linalg.matmul"],
        "linalg.matmul_s": s["linalg.matmul"],
        "linalg.matmul_madds": work.matmul_madds,
        "linalg.matmul_fill_ratio": _ratio(work.matmul_out_nnz,
                                           work.matmul_madds),
        "linalg.kron_calls": c["linalg.kron"],
        "linalg.kron_s": s["linalg.kron"],
        "linalg.eq_calls": c["linalg.eq"],
        "linalg.eq_s": s["linalg.eq"],
        "linalg.echelon_calls": c["linalg.echelon"],
        "linalg.echelon_s": s["linalg.echelon"],
        "linalg.echelon_rows": work.echelon_rows,
        "linalg.echelon_rank_ratio": _ratio(work.echelon_pivots,
                                            work.echelon_rows),
        "linalg.reduce_calls": c["linalg.reduce"],
        "linalg.reduce_s": s["linalg.reduce"],
        "homology.mixed_s": s["homology.mixed"],
        "homology.dims_s": s["homology.dims"],
        "homology.total_s": s["homology.total"],
        "homology.pages_s": s["homology.pages"],
        "fields.mul_calls": sum(fc["mul"]),
        "fields.add_calls": sum(fc["add"]),
        "fields.inv_calls": sum(fc["inv"]),
        "fields.q_share": _ratio(sum(t[1] for t in fc.values()), field_total),
        "trace.overhead_ratio": _ratio(traced.ref_seconds, plain.ref_seconds),
    }
    metrics = {name: (values[name], 1) for name, _, _ in PER_LAYER}
    plain_metrics = {
        "batch_s": (plain.ref_seconds, 1),
        "job_s.p50": (typical_job_s([plain]), len(plain.job_s)),
    }
    return [plain, traced, counted], plain_metrics, metrics, spans


def print_table(title, rows):
    print(title)
    for name, value, unit, n, note in rows:
        print("  %-28s %16.6f %-6s n=%-4d %s" % (name, value, unit, n, note))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="load everything a run needs, print 'ready' "
                             "and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_program()
        jobs = load_goldens(args.workload)
    except (SetupError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if args.setup_only:
        shuffled(random.Random(args.seed), len(jobs))
        print("ready", flush=True)
        return 0
    pin_to_one_cpu()
    if args.trace:
        passes, e2e, metrics, spans = per_layer(cli, jobs, args.seed)
    else:
        passes, e2e = end_to_end(cli, jobs, args.workload, args.seed,
                                 args.seconds)
        metrics = e2e
    units = {name: (unit, note) for name, unit, note in END_TO_END + PER_LAYER}
    attempted = sum(len(p.order) for p in passes)
    failed = sum(len(p.failed) for p in passes)

    print("workload %s  seed %d  passes %d  jobs/pass %d  trace %d"
          % (args.workload, args.seed, len(passes), len(jobs), args.trace))
    rows = [(name, v, units[name][0], n,
             "untraced pass of this run" if args.trace else units[name][1])
            for name, (v, n) in e2e.items()]
    untraced = passes[:1] if args.trace else passes
    rows.append(("batch_wall_s", statistics.median(p.seconds for p in untraced),
                 "s", len(untraced), "raw wall time of the jobs"))
    rows.append(("failed_ratio", _ratio(failed, attempted), "1", attempted,
                 "jobs whose outcome differs from the golden"))
    print_table("end-to-end", rows)
    if args.trace:
        print_table("per-layer", [(name, float(v), units[name][0], n,
                                  units[name][1])
                                 for name, (v, n) in metrics.items()])
        ranked = sorted(spans.self_s.items(), key=lambda kv: -kv[1])
        print("self time by span group, traced pass: " + ", ".join(
            "%s %.3f" % kv for kv in ranked))
        unreached = sorted(k for k, v in spans.fn_calls.items() if v == 0)
        if unreached:
            print("wrapped but not reached: " + ", ".join(unreached))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name][0]}
                    for name, (v, _) in metrics.items()},
    }, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
