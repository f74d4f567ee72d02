"""Benchmark of the boxball toolkit.

    python3 bench/run.py --workload {evolve,scatter,verify,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ./src, never
from an installed copy.  The seed makes the job pool; one client then runs
jobs in a closed loop (the next job starts when the previous one ends, no
threads) until they have taken S seconds, and every output is checked.

--trace 0 prints the end-to-end metrics; --trace 1 interleaves untraced and
traced jobs (spans go to bench/out/), then runs the per-layer probes.  The
last line of stdout is the result object; the line before it is a report
with the environment, fail_frac and the job_tail_ms percentile.  The
workloads and metrics are described in bench/README.md.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("evolve", "scatter", "verify", "cli")
LAYERS = ("crystal", "tensor", "rmatrix", "dynamics", "solitons", "cli")
SETUP_REPS = 5
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
CAL_EVERY = 0.25  # seconds of jobs between calibrations
CAL_WINDOW = 3  # a job's speed is the median of this many calibrations on each side


def load_library():
    """Import boxball from the checkout's sources; exit nonzero when they are missing."""
    sys.path.insert(0, str(SRC))
    try:
        import boxball
    except ImportError as exc:
        raise SystemExit(f"error: cannot import boxball from {SRC}: {exc}")
    if Path(boxball.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported boxball from {boxball.__file__}, not from {SRC}")


def import_seconds(env):
    """Time to import boxball in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import boxball; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def setup(wl, name, seed, quick, env):
    """The job pool as rounds, and the set-up time: import plus generation, each the median of SETUP_REPS.

    Generation runs in this process and is scaled by the calibration like
    the jobs.  The import runs in a fresh interpreter, which the kernels
    track poorly, so it is not scaled.
    """
    imports, generation = [], []
    before = calibration.calibrate()
    for _ in range(SETUP_REPS):
        imports.append(import_seconds(env))
        start = perf_counter()
        rounds = wl.generate(random.Random(f"{name}:{seed}"), quick)
        generation.append(perf_counter() - start)
    speed = 2 * calibration.CAL_REF / (before + calibration.calibrate())
    return rounds, statistics.median(imports) + statistics.median(generation) * speed


def measure(wl, rounds, seconds, tracer, direct):
    """Closed loop over the pool, whole rounds at a time, until `seconds` of jobs have run.

    With a tracer, odd-numbered jobs are traced (with their replays) and
    even-numbered ones are not, so both halves see the same mix and the same
    cache state.  Between jobs, once CAL_EVERY seconds have passed since the
    last calibration, the loop calibrates again; a job's scaled time uses
    the median of the CAL_WINDOW calibrations on either side of it.  Resets
    and calibrations are outside the timed interval.

    Returns records [traced, seconds, job, outcome, error, scaled seconds].
    """
    records = []
    cal = [calibration.calibrate()]
    marks = []  # index into cal of the calibration before each record
    busy = since_cal = 0.0
    r = 0
    while busy < seconds:
        if wl.reset:
            wl.reset()
        for job in rounds[r % len(rounds)]:
            traced = tracer is not None and len(records) % 2 == 1
            outcome = error = None
            start = perf_counter()
            try:
                if traced:
                    with tracer.job_span(len(records), "bench.job"):
                        outcome = wl.run(tracer.call, job)
                        wl.replay(tracer, job)
                else:
                    outcome = wl.run(direct, job)
            except Exception as exc:  # a failing job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            took = perf_counter() - start
            records.append([traced, took, job, outcome, error])
            marks.append(len(cal) - 1)
            busy += took
            since_cal += took
            if since_cal >= CAL_EVERY:
                cal.append(calibration.calibrate())
                since_cal = 0.0
        r += 1
    cal.append(calibration.calibrate())
    for rec, k in zip(records, marks):
        rec.append(rec[1] * calibration.CAL_REF / statistics.median(cal[max(0, k - CAL_WINDOW + 1) : k + CAL_WINDOW + 1]))
    return records


def check(wl, records):
    """Mark each record ok or not, outside the timed interval; returns the failure messages."""
    errors = []
    for rec in records:
        job, outcome, error = rec[2:5]
        ok = False
        if error is None:
            try:
                ok = wl.check(job, outcome)
            except Exception as exc:  # the reference itself failed: the job is unverified
                error = f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            errors.append(error or f"wrong output for job {str(job)[:120]}")
        rec[3] = ok
    return errors


def tail(samples):
    """(value, percentile): the highest of TAIL_PERCENTILES with at least TAIL_BEYOND samples above it.

    A fixed ladder keeps the percentile the same from run to run while the
    sample count moves within a band (200 to 999 samples give p95), so a
    workload that repeats identical rounds reports the same quantile
    however many rounds fit.
    """
    ordered = sorted(samples)
    n = len(ordered)
    pct = max((p for p in TAIL_PERCENTILES if n - math.ceil(n * p / 100) >= TAIL_BEYOND), default=TAIL_PERCENTILES[0])
    return ordered[max(0, math.ceil(n * pct / 100) - 1)], pct


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_commit():
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, pool):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "workload": args.workload,
        "pool_jobs": pool,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing(records, column):
    """jobs_per_s, job_p50_ms and job_tail_ms from one column of job times."""
    times = [rec[column] for rec in records]
    ok = sum(rec[3] for rec in records)
    return {
        "jobs_per_s": metric(ok / sum(times), "1/s"),
        "job_p50_ms": metric(1e3 * statistics.median(times), "ms"),
        "job_tail_ms": metric(1e3 * tail(times)[0], "ms"),
    }


def end_to_end(name, records, setup_s):
    """End-to-end metrics, job times scaled, and the report fields that go beside them."""
    metrics = {"setup_s": metric(setup_s, "s"), **timing(records, 5)}
    metrics["peak_rss_mb"] = metric(peak_rss_mb(name), "MB")
    raw = {name: m["value"] for name, m in timing(records, 1).items()}
    return metrics, {
        "job_tail_percentile": tail([rec[1] for rec in records])[1],
        "job_samples": len(records),
        "fail_frac": 1 - sum(rec[3] for rec in records) / len(records),
        "speed_factor": sum(rec[5] for rec in records) / sum(rec[1] for rec in records),
        "unscaled": raw,
    }


def rate(records):
    busy = sum(rec[1] for rec in records)
    return sum(rec[3] for rec in records) / busy if busy else 0.0


def per_layer(tracer, records, probe_metrics):
    traced = [rec for rec in records if rec[0]]
    jobs = max(1, len(traced))
    metrics = {}
    for layer in LAYERS:
        calls, busy, errors = tracer.totals.get(layer, (0, 0.0, 0))
        metrics[f"{layer}.calls"] = metric(calls / jobs, "count/job")
        metrics[f"{layer}.busy_ms"] = metric(1e3 * busy / jobs, "ms/job")
        metrics[f"{layer}.errors"] = metric(errors, "count")
    untraced_rate, traced_rate = rate([rec for rec in records if not rec[0]]), rate(traced)
    metrics["trace.jobs"] = metric(len(traced), "count")
    metrics["trace.untraced_jobs_per_s"] = metric(untraced_rate, "1/s")
    metrics["trace.traced_jobs_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_jobs_per_s"] = metric(untraced_rate - traced_rate, "1/s")
    metrics.update(probe_metrics)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimal job sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_library()
    import probes
    import tracing
    import workloads

    env = workloads.library_env(ROOT)
    wl = workloads.workload(args.workload, ROOT)
    rounds, setup_s = setup(wl, args.workload, args.seed, args.quick, env)
    tracer = tracing.Tracer() if args.trace else None
    records = measure(wl, rounds, args.seconds, tracer, workloads.direct)
    errors = check(wl, records)
    failed = len(errors)

    e2e, report = end_to_end(args.workload, records, setup_s)
    if args.trace:
        probe_metrics, probe_failures = probes.run_probes(random.Random(f"probe:{args.seed}"), ROOT, args.quick)
        errors += [f"probe: {what}" for what in probe_failures]
        metrics = per_layer(tracer, records, probe_metrics)
        report["trace_file"] = str((OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz").relative_to(ROOT))
        report["trace_spans"] = len(tracer.spans) + tracer.dropped
        tracer.write(ROOT / report["trace_file"])
    else:
        metrics = e2e
    report = {"environment": environment(args, sum(map(len, rounds))), **report, "errors": errors[:10]}
    result = {"correct": not errors, "attempted": len(records), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"report": report, **result}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
