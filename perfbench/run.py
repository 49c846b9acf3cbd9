#!/usr/bin/env python3
"""anosovlab benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sol-count --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each workload runs in its own process as a closed loop: one client, one
job at a time, single-threaded with BLAS pools pinned to 1.  The program is
imported from the checkout's src/ (never an installed copy).  Jobs run in
rounds of a fixed job mix (one untimed warm-up round first); a run measures
whole rounds within --seconds of job time.  Every job's output goes through
the correctness gate after its round, outside the timed region.

Times are host-normalized: a short fixed calibration loop runs between
jobs, and each time is divided by the loop's slowdown around it (see
HOST_REF_S).  The raw wall-clock figures are in the `meta` line.

--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_PROBES
fresh processes, each timed from start until the first job could run),
jobs_per_s (median over rounds), job_p50_ms, job_p90_ms and peak_rss_mb.
On acceptance a job is one criterion, a round is the whole battery, and the
latency percentiles are those of the battery.  failed_frac is the result's
failed / attempted.  --trace 1 spends half of --seconds untraced
and half traced, and prints the per-layer metrics from the traced half,
with the tracing overhead as the drop in jobs_per_s between the halves;
spans are written to perfbench/traces/.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  The exit code is 0 only when every job passed the gate; it is
2, with no result line, when the program's sources are missing.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import jobs
import spans
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 7
REFERENCE_ROUNDS = 3
SETUP_PROBES = 5
DEFAULT_SECONDS = 15
# Host-speed calibration.  On a shared 2-vCPU x86-64 host (2.1 GHz,
# Python 3.11) the speed of the same jobs drifted by 20-50% over tens of
# seconds, and this stdlib Fraction loop slowed down in proportion (15 s
# window means: slope 1.0 on the Sol workloads, 0.8 on geometry-mix), so
# dividing by its slowdown cut the spread of window means from 20-26% to
# 3-8%.  HOST_REF_S is the loop's time on that host when unloaded; only the
# scale of the reported times depends on it.
HOST_REF_S = 0.0126
CALIBRATE_EVERY_S = 0.25

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
              "job_p90_ms": "ms", "peak_rss_mb": "MB"}

LAYERS = ("chords.count", "chords.list", "chords.slope", "chords.fibers",
          "chords.certs", "toral.periodic", "exact.snf", "homology.tables",
          "surface.dehn", "surface.fuchsian", "surface.classes",
          "hyperbolic.triangles", "hyperbolic.ortho", "forms.suite",
          "shapes.beta", "oracles", "cli.main")
CRITERIA = tuple("criterion_%02d" % i for i in range(1, 14))


def per_layer_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for layer in LAYERS:
        units[layer + ".busy_s"] = "s"
        units[layer + ".calls"] = "count"
        units[layer + ".errors"] = "count"
    units.update({
        "chords.count.points_per_s": "1/s",
        "chords.list.chords": "count",
        "chords.list.us_per_chord": "us",
        "toral.periodic.points": "count",
        "toral.periodic.us_per_point": "us",
        "surface.dehn.letters_per_s": "1/s",
        "surface.fuchsian.mp_escalations": "count",
        "surface.fuchsian.mp_share": "ratio",
        "hyperbolic.triangles.hit_ratio": "ratio",
        "forms.suite.us_per_sample": "us",
        "cli.main.bytes_out": "B",
    })
    for c in CRITERIA:
        units["acceptance.%s_s" % c] = "s"
    units.update({"setup.import_s": "s", "setup.eigen_s": "s",
                  "setup.fuchsian_s": "s", "jobs.busy_s": "s",
                  "trace.jobs_per_s": "1/s", "trace.untraced_jobs_per_s": "1/s",
                  "trace.overhead_frac": "ratio", "host.slowdown": "ratio"})
    return units


# ================================================================ set-up

def host_seconds():
    """Time of a fixed stdlib loop: the host's current speed."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 3000):
        x += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def probe_setup(workload):
    """Start a fresh process that sets the workload up; time it to ready.

    Times are host-normalized with calibrations just before and after."""
    before = host_seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError("set-up probe for %s failed" % workload)
    slowdown = (before + host_seconds()) / (2 * HOST_REF_S)
    timings = {k: v / slowdown for k, v in json.loads(line).items()}
    timings["ready_s"] = ready / slowdown
    timings["raw_ready_s"] = ready
    return timings


# ============================================================== the loop

class Run:
    """Runs rounds of jobs, times them, and gates every output."""

    def __init__(self, ctx, seed, reference, record=False):
        self.ctx = ctx
        self.workload = ctx.workload
        self.gen = None if self.workload == "acceptance" else wl.Generator(self.workload, seed)
        self.reference = reference
        self.records = {} if record else None
        self.next_round = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.kinds = {}
        self.slowdowns = []

    def round_jobs(self):
        r = self.next_round
        self.next_round += 1
        if self.gen is None:
            return jobs.acceptance_round(self.ctx, r)
        return self.gen.round(r)

    def run_round(self, tracer=None):
        """One round; returns [(job, host-normalized s, raw s)] for the jobs
        that passed.  A calibration runs before the round and after every
        CALIBRATE_EVERY_S of job time; each job is normalized by the mean
        slowdown of the calibrations around it."""
        todo = self.round_jobs()
        results, segment = [], []
        before, since = host_seconds(), 0.0
        for n, job in enumerate(todo):
            out, err = None, None
            if tracer is not None:
                tracer.job = job["id"]
            with tracer.span("jobs", "job") if tracer else contextlib.nullcontext() as span:
                t0 = time.perf_counter()
                try:
                    out = jobs.run_job(self.ctx, job)
                except Exception as exc:  # counted as a failed job
                    err = exc
                dt = time.perf_counter() - t0
                if span is not None:
                    span.error = err is not None
            results.append([job, out, err, dt, 1.0])
            segment.append(results[-1])
            since += dt
            if since >= CALIBRATE_EVERY_S or n == len(todo) - 1:
                after = host_seconds()
                slowdown = (before + after) / (2 * HOST_REF_S)
                self.slowdowns.append(slowdown)
                for res in segment:
                    res[4] = slowdown
                segment, before, since = [], after, 0.0
        if tracer is not None:
            tracer.active = False
        passed = []
        for job, out, err, dt, slowdown in results:
            bad = ["raised %r" % err] if err is not None else self.gate(job, out)
            self.attempted += 1
            self.kinds[job["kind"]] = self.kinds.get(job["kind"], 0) + 1
            if bad:
                self.failed += 1
                self.failures.append("%s %s: %s" % (job["id"], job["kind"], "; ".join(bad)))
            else:
                passed.append((job, dt / slowdown, dt))
        if tracer is not None:
            tracer.active = True
        return passed

    def gate(self, job, out):
        bad = jobs.check_job(self.ctx, job, out)
        want = None if self.reference is None else self.reference.get(job["id"])
        if want is not None or self.records is not None:
            got = jobs.record(job, out)
            if self.records is not None:
                self.records[job["id"]] = got
            if want is not None:
                bad += jobs.compare_record(got, want)
        return bad

    def measure(self, seconds, tracer=None):
        """Whole rounds within `seconds` of job time; returns the rounds.

        The first round always runs; a later one starts only if a round of
        the mean length so far would still end within `seconds`."""
        rounds, busy = [], 0.0
        while not rounds or busy * (len(rounds) + 1) / len(rounds) <= seconds:
            got = self.run_round(tracer)
            if not got:
                break
            rounds.append(got)
            busy += sum(raw for _, _, raw in got)
        return rounds


def jobs_per_s(rounds, col=1):
    """Median over rounds of jobs / job time (host-normalized by default,
    col=2 for raw): every round has the same job mix, and the median keeps
    bursts of load on the shared host out of the figure."""
    return statistics.median(len(r) / sum(t[col] for t in r) for r in rounds) if rounds else 0.0


def _latencies(workload, rounds, col):
    """Per-job seconds; on acceptance a criterion is a job for jobs_per_s,
    but latency is that of the whole battery (per-criterion times are
    per-layer metrics)."""
    if workload == "acceptance":
        return [sum(t[col] for t in r) for r in rounds]
    return [t[col] for r in rounds for t in r]


def _quantiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=10, method="inclusive")
    return q[4], q[8]


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, slowdown, criteria, setup_timings, untraced_rate, traced_rate):
    """Per-layer metrics of the traced phase; its span times are divided by
    the phase's mean host slowdown."""
    totals = tracer.layer_totals()
    zero = {"busy_s": 0.0, "calls": 0, "errors": 0, "work": []}
    m = {}
    for layer in LAYERS:
        t = totals.get(layer, zero)
        m[layer + ".busy_s"] = t["busy_s"] / slowdown
        m[layer + ".calls"] = t["calls"]
        m[layer + ".errors"] = t["errors"]

    def work(layer):
        return totals.get(layer, zero)["work"]

    def busy(layer):
        return totals.get(layer, zero)["busy_s"] / slowdown

    points = sum(work("chords.count"))
    m["chords.count.points_per_s"] = _rate(points, busy("chords.count"))
    n_chords = sum(work("chords.list"))
    m["chords.list.chords"] = n_chords
    m["chords.list.us_per_chord"] = 1e6 * busy("chords.list") / n_chords if n_chords else 0.0
    periodic = sum(work("toral.periodic"))
    m["toral.periodic.points"] = periodic
    m["toral.periodic.us_per_point"] = 1e6 * busy("toral.periodic") / periodic if periodic else 0.0
    m["surface.dehn.letters_per_s"] = _rate(sum(work("surface.dehn")), busy("surface.dehn"))
    esc = tracer.mp_escalations()
    m["surface.fuchsian.mp_escalations"] = esc
    calls = m["surface.fuchsian.calls"]
    m["surface.fuchsian.mp_share"] = esc / calls if calls else 0.0
    tri = work("hyperbolic.triangles")
    tries = sum(t for _, t in tri)
    m["hyperbolic.triangles.hit_ratio"] = sum(h for h, _ in tri) / tries if tries else 0.0
    samples = sum(work("forms.suite"))
    m["forms.suite.us_per_sample"] = 1e6 * busy("forms.suite") / samples if samples else 0.0
    m["cli.main.bytes_out"] = sum(work("cli.main"))
    for c in CRITERIA:
        m["acceptance.%s_s" % c] = statistics.median(criteria[c]) if criteria.get(c) else 0.0
    m["setup.import_s"] = setup_timings["import_s"]
    m["setup.eigen_s"] = setup_timings["eigen_s"]
    m["setup.fuchsian_s"] = setup_timings["fuchsian_s"]
    m["jobs.busy_s"] = busy("jobs")
    m["trace.jobs_per_s"] = traced_rate
    m["trace.untraced_jobs_per_s"] = untraced_rate
    m["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
    m["host.slowdown"] = slowdown
    return m


def load_reference(workload, seed):
    if workload != "acceptance" and seed != REFERENCE_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(workload)


def run_workload(args):
    ctx, _ = jobs.setup(args.workload)
    probes = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    jobs.setup_gate(ctx)
    setup_timings = {k: statistics.median(p[k] for p in probes)
                     for k in ("ready_s", "raw_ready_s", "import_s", "eigen_s", "fuchsian_s")}

    run = Run(ctx, args.seed, load_reference(args.workload, args.seed))
    if args.workload != "acceptance":
        run.run_round()  # warm-up round: gated, not timed
    if not args.trace:
        rounds = run.measure(args.seconds)
        lat, raw_lat = _latencies(args.workload, rounds, 1), _latencies(args.workload, rounds, 2)
        p50, p90 = _quantiles(lat)
        metrics = {
            "setup_s": setup_timings["ready_s"],
            "jobs_per_s": jobs_per_s(rounds),
            "job_p50_ms": 1e3 * p50,
            "job_p90_ms": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        raw_p50, raw_p90 = _quantiles(raw_lat)
        extra = {"samples": len(lat), "beyond_p90": sum(1 for x in lat if x > p90),
                 "host_slowdown_median": statistics.median(run.slowdowns),
                 "raw": {"setup_s": setup_timings["raw_ready_s"],
                         "jobs_per_s": jobs_per_s(rounds, 2),
                         "job_p50_ms": 1e3 * raw_p50, "job_p90_ms": 1e3 * raw_p90}}
    else:
        untraced = run.measure(args.seconds / 2.0)
        tracer = spans.Tracer()
        tracer.install()
        ctx.tracer = tracer
        tracer.active = True
        try:
            traced = run.measure(args.seconds / 2.0, tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
            ctx.tracer = None
        criteria = {}
        for job, dt, _ in (x for r in untraced for x in r):
            if job["kind"] == "criterion":
                criteria.setdefault(job["name"][:12], []).append(dt)
        slowdown = (sum(raw for r in traced for _, _, raw in r)
                    / sum(dt for r in traced for _, dt, _ in r))
        metrics = layer_metrics(tracer, slowdown, criteria, setup_timings,
                                jobs_per_s(untraced), jobs_per_s(traced))
        units = per_layer_units()
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        trace_path = os.path.join(HERE, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(trace_path)
        extra = {"samples": sum(len(r) for r in traced), "spans": len(tracer.spans),
                 "trace_file": os.path.relpath(trace_path, jobs.ROOT),
                 "missing_trace_targets": tracer.missing}
    return run, metrics, units, extra


def metadata(args, run, extra):
    import numpy
    import mpmath
    import anosovlab.chords

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": anosovlab.chords.BACKEND,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "nproc": os.cpu_count(),
        "rounds": run.next_round, "jobs_by_kind": run.kinds,
        "setup_probes": SETUP_PROBES,
        "injected_trivial_share": wl.INJECTED_TRIVIAL_SHARE
        if args.workload == "geometry-mix" else None,
        "reference_checked": run.reference is not None,
    }
    meta.update(extra)
    return meta


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current program")
    args = ap.parse_args(argv)
    try:
        jobs.use_checkout_program()
    except jobs.ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(wl.WORKLOADS if args.workload == "all" else (args.workload,))
    if args.workload == "all":
        return run_all(args)

    run, metrics, units, extra = run_workload(args)
    print("meta " + json.dumps(metadata(args, run, extra), sort_keys=True))
    for name, unit in units.items():
        print("  %-36s %14.6g %s" % (name, metrics[name], unit))
    print("  %-36s %14.6g %s" % ("failed_frac", run.failed / run.attempted, "ratio"))
    for line in run.failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args):
    """Each workload in its own fresh process; one table of every metric."""
    status = 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines:
            print("%s: no result (exit %d)" % (workload, proc.returncode))
            continue
        result = json.loads(lines[-1])
        print("%s  attempted=%d failed=%d failed_frac=%.6g correct=%s" % (
            workload, result["attempted"], result["failed"],
            result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    return status


def record_reference(names):
    """Digest the first REFERENCE_ROUNDS rounds of the named workloads at
    the reference seed (one pass for acceptance); gate failures abort."""
    out = {"seed": REFERENCE_SEED, "rounds": REFERENCE_ROUNDS, "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            out["workloads"] = json.load(fh)["workloads"]
    for workload in names:
        ctx, _ = jobs.setup(workload)
        jobs.setup_gate(ctx)
        run = Run(ctx, REFERENCE_SEED, None, record=True)
        for _ in range(1 if workload == "acceptance" else REFERENCE_ROUNDS):
            run.run_round()
        if run.failed:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        out["workloads"][workload] = run.records
        print("%s: %d records" % (workload, len(run.records)))
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
