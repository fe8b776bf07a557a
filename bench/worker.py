"""One workload in one fresh process: warm-up, timed passes, optional traced passes.

Run by ``bench/run.py`` with ``src`` on ``PYTHONPATH``; writes its raw
measurements as JSON to ``--out``.  A pass runs the workload's whole job list
back to back (a closed loop with one caller); only each job's ``run`` is
timed, its ``check`` runs between jobs.  With ``--trace 1`` untraced and
traced passes alternate, so the tracing overhead is measured against
neighbouring untraced passes of the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback

import numpy
import qlidar
import scipy

import spans
import workloads

MIN_JOBS = 100  # so that p90 has ten samples beyond it


def run_pass(jobs, order, counters, recorder=None) -> dict:
    """Run every job once in the given order.

    Returns per-job latencies indexed like ``jobs`` (not like ``order``),
    failures, and for a traced pass the span roll-up.
    """
    for key in counters:
        counters[key] = 0
    latencies = [0] * len(jobs)
    failures = []
    traced = []
    for index in order:
        job = jobs[index]
        if recorder is not None:
            recorder.take()  # drop spans of the previous check
        start = time.perf_counter_ns()
        try:
            output = job.run()
            error = None
        except Exception as exc:  # a failing job is a measured outcome, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies[index] = time.perf_counter_ns() - start
        if recorder is not None:
            base = len(traced)
            traced.extend((n, s, e, p + base if p >= 0 else -1, t) for n, s, e, p, t in recorder.take())
        if error is not None:
            failures.append((job.name, error))
            continue
        try:
            reason = job.check(output)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((job.name, "wrong output: " + reason))
    result = {
        "wall_ns": sum(latencies),
        "latencies_ns": latencies,
        "failures": failures,
        "counters": dict(counters),
    }
    if recorder is not None:
        result["rollup"] = spans.rollup(traced, sum(latencies))
        result["spans"] = traced
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="path of the JSON measurement file")
    parser.add_argument("--spans", help="JSONL file receiving every traced span")
    parser.add_argument("--tmp", required=True, help="directory for CLI output files")
    args = parser.parse_args(argv)

    counters = {"cli.bytes_written": 0}
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp)
    try:
        jobs = workloads.build(args.workload, args.seed, tmpdir, counters)
        orders = workloads.pass_orders(args.workload, args.seed, len(jobs))
        warm_start = time.perf_counter()
        warm = run_pass(jobs, next(orders), counters)
        warmup_s = time.perf_counter() - warm_start

        recorder = spans.SpanRecorder(qlidar) if args.trace else None
        plain, traced = [], []
        begin = time.perf_counter()
        while True:
            order = next(orders)
            plain.append(run_pass(jobs, order, counters))
            if recorder is not None:
                recorder.install()
                try:
                    traced.append(run_pass(jobs, order, counters, recorder))
                finally:
                    recorder.uninstall()
            elapsed = time.perf_counter() - begin
            per_round = elapsed / len(plain)
            attempted = len(jobs) * len(plain)
            enough = attempted >= MIN_JOBS and (recorder is None or len(traced) >= 2)
            if enough and elapsed + per_round > args.seconds:
                break
        measured_s = time.perf_counter() - begin
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if args.spans and traced:
        with open(args.spans, "w") as fh:
            for index, result in enumerate(traced):
                for name, start, end, parent, tag in result["spans"]:
                    fh.write(json.dumps([index, name, start, end, parent, tag]) + "\n")
    for result in traced:
        del result["spans"]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(jobs),
        "warmup_s": warmup_s,
        "warmup_failures": warm["failures"],
        "measured_s": measured_s,
        "plain": plain,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "qlidar": qlidar.__version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
