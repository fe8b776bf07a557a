"""qlidar benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere inside a checkout of the repository; ``src`` is put on
``PYTHONPATH`` and nothing is installed.  Each workload runs in its own fresh
worker process (``bench/worker.py``).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Raw measurements and traced spans go to ``.bench_out/``.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweeps", "refine", "verify")

SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 150.0
LAUNCH_TIMEOUT_S = 20.0

# Fresh-process import probes of the setup decomposition.
SETUP_PROBES = {
    "setup.python_s": "",
    "setup.numpy_s": "import numpy",
    "setup.scipy_special_s": "import scipy.special",
    "setup.qlidar_s": "import qlidar",
}

# glibc moves its mmap threshold with each process's allocation history, so
# whether the oracle's and the Wigner grid's large temporaries are page-faulted
# afresh differs from run to run; it moved verify's wall_s by up to a quarter.
# Fixed thresholds give every run the allocator of a warmed-up, long-lived
# session: blocks up to 32 MiB come from the heap, and the heap is not trimmed.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(nproc())
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = cap
    env.update(MALLOC_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources; identifies the code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qlidar").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def time_import(statement: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to the end of ``statement``."""
    code = f"{statement}\nimport time\nprint(time.monotonic_ns())"
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=LAUNCH_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed on {statement!r}: {proc.stderr.strip()}")
    done = int(proc.stdout.split()[-1])
    return (done - start) / 1e9


def time_setup(probes: dict, launches: int, env: dict) -> dict:
    """Median fresh-launch time per probe; probes are interleaved to share drift."""
    samples = {name: [] for name in probes}
    for _ in range(launches):
        for name, statement in probes.items():
            samples[name].append(time_import(statement, env))
    return {name: statistics.median(values) for name, values in samples.items()}


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = OUT_DIR / f"{stem}.raw.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out), "--tmp", str(OUT_DIR),
    ]
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"{stem}.spans.jsonl")]
    if out.exists():
        out.unlink()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S:g} s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{workload} worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def job_list_s(passes: list) -> float:
    """Time to run the job list once: the sum over jobs of each job's median latency.

    Taking the median per job across passes keeps one stalled job in one pass
    from moving the figure, which a median of whole-pass times on a few long
    passes would not.
    """
    per_job = zip(*(p["latencies_ns"] for p in passes))
    return sum(statistics.median(samples) for samples in per_job) / 1e9


def end_to_end(raw: dict, setup_s: float) -> dict:
    latencies_ms = [ns / 1e6 for p in raw["plain"] for ns in p["latencies_ns"]]
    return {
        "setup_s": setup_s,
        "wall_s": job_list_s(raw["plain"]),
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _per_pass(raw: dict, extract) -> float:
    return _median([extract(p["rollup"], p) for p in raw["traced"]])


def per_layer(raw: dict, setup: dict) -> dict:
    """Per-layer figures per pass (median over the traced passes)."""
    def calls(group):
        return lambda r, p: r["calls"].get(group, 0)

    def self_ms(*groups):
        return lambda r, p: sum(r["self_ns"].get(g, 0) for g in groups) / 1e6

    def ratio(num, den):
        return lambda r, p: num(r, p) / den(r, p) if den(r, p) else 0.0

    curve_points = lambda r, p: r["tags"].get("detection.expectation_curve", 0) + r["tags"].get(
        "detection.expectation_derivative_curve", 0)
    lossy, lossless = "fock_oracle.simulate_lossy", "fock_oracle.simulate_lossless"
    table = {
        "states.make_state.calls": ("count", calls("states.make_state")),
        "states.make_state.self_ms": ("ms", self_ms("states.make_state")),
        "states.mean_photon_number.self_ms": ("ms", self_ms("states.mean_photon_number")),
        "interferometer.propagate.calls": ("count", calls("interferometer.propagate")),
        "interferometer.propagate.self_ms": ("ms", self_ms("interferometer.propagate")),
        "detection.scalar.calls": ("count", calls("detection.scalar")),
        "detection.scalar.self_ms": ("ms", self_ms("detection.scalar")),
        "detection.curve.calls": ("count", calls("detection.curve")),
        "detection.curve.points": ("count", curve_points),
        "detection.curve.self_ms": ("ms", self_ms("detection.curve")),
        "detection.curve.ns_per_point": ("ns", ratio(lambda r, p: self_ms("detection.curve")(r, p) * 1e6,
                                                     curve_points)),
        "detection.port_distribution.calls": ("count", calls("detection.port_distribution")),
        "detection.port_distribution.self_ms": ("ms", self_ms("detection.port_distribution")),
        "metrology.fwhm.calls": ("count", calls("metrology.fwhm")),
        "metrology.fwhm.self_ms": ("ms", self_ms("metrology.fwhm")),
        "metrology.fwhm.evals_per_call": ("evals/call", ratio(lambda r, p: r["evals"].get("metrology.fwhm", 0),
                                                              calls("metrology.fwhm"))),
        "metrology.peak_locations.self_ms": ("ms", self_ms("metrology.peak_locations")),
        "metrology.peak_locations.evals_per_call": (
            "evals/call", ratio(lambda r, p: r["evals"].get("metrology.peak_locations", 0),
                                calls("metrology.peak_locations"))),
        "metrology.sensitivity_curve.self_ms": ("ms", self_ms("metrology.sensitivity_curve")),
        "wigner.wigner_grid.calls": ("count", calls("wigner.wigner_grid")),
        "wigner.wigner_grid.self_ms": ("ms", self_ms("wigner.wigner_grid")),
        "wigner.grid_points": ("count", lambda r, p: r["tags"].get("wigner.wigner_grid", 0)),
        "fock_oracle.simulate.calls": ("count", lambda r, p: calls(lossy)(r, p) + calls(lossless)(r, p)),
        "fock_oracle.simulate_lossy.self_ms": ("ms", self_ms(lossy)),
        "fock_oracle.simulate_lossless.self_ms": ("ms", self_ms(lossless)),
        "fock_oracle.encode.self_ms": ("ms", self_ms("fock_oracle.encode")),
        "closedform.calls": ("count", calls("closedform")),
        "closedform.self_ms": ("ms", self_ms("closedform")),
        "cli.main.calls": ("count", calls("cli.main")),
        "cli.main.self_ms": ("ms", self_ms("cli.main")),
        "cli.bytes_written": ("B", lambda r, p: p["counters"]["cli.bytes_written"]),
        "trace.uncovered_frac": ("ratio", lambda r, p: r["uncovered_ns"] / p["wall_ns"]),
    }
    metrics = {name: (_per_pass(raw, fn), unit) for name, (unit, fn) in table.items()}
    for name, value in setup.items():
        metrics[name] = (value, "s")
    metrics["trace.overhead_frac"] = (job_list_s(raw["traced"]) / job_list_s(raw["plain"]) - 1.0, "ratio")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    load = os.getloadavg()
    probes = SETUP_PROBES if trace else {"setup.qlidar_s": SETUP_PROBES["setup.qlidar_s"]}
    setup = time_setup(probes, SETUP_LAUNCHES, env)
    raw = run_worker(workload, seed, seconds, trace, env)
    plain = raw["plain"]
    attempted = sum(len(p["latencies_ns"]) for p in plain)
    failed = sum(len(p["failures"]) for p in plain)
    # A wrong output in any pass, warm-up and traced ones included, makes the run incorrect.
    every_failure = raw["warmup_failures"] + [f for p in plain + raw["traced"] for f in p["failures"]]
    correct = not any(reason.startswith("wrong output") for _, reason in every_failure)
    if trace:
        metrics = per_layer(raw, setup)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(raw, setup["setup.qlidar_s"]).items()}
    failures = sorted({f"{name}: {reason}" for name, reason in every_failure})
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **raw["versions"],
        "platform": platform.platform(),
        "nproc": nproc(),
        "blas_threads": int(env["OMP_NUM_THREADS"]),
        "loadavg_start": list(load),
        "seed": seed,
        "workload": workload,
        "jobs_per_pass": raw["jobs_per_pass"],
        "untraced_passes": len(plain),
        "traced_passes": len(raw["traced"]),
        "jobs_attempted": attempted,
        "warmup_s": raw["warmup_s"],
        "measured_s": raw["measured_s"],
    }
    return {
        "workload": workload,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "provenance": provenance,
    }


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (trace {result['trace']})")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{name:8s} {metric:42s} {value:16.6f} {unit}")
    print(f"{name:8s} {'failed_frac':42s} {result['failed_frac']:16.6f} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(f"{name:8s} correct: {result['correct']}")
    for line in result["failures"]:
        print(f"{name:8s} failed job {line}")
    print(f"{name:8s} provenance: {json.dumps(result['provenance'], sort_keys=True)}")


def result_line(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qlidar" / "__init__.py").is_file():
        print(f"error: no qlidar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(name, args.seed, args.seconds, args.trace) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
        with open(OUT_DIR / f"{result['workload']}-seed{args.seed}-trace{args.trace}.result.json", "w") as fh:
            json.dump(result, fh, indent=1)
    if len(results) == 1:
        print(json.dumps(result_line(results[0])))
    else:
        print(json.dumps({r["workload"]: result_line(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
