#!/usr/bin/env python3
"""Benchmark of hjtoric: one workload, one seed, one run.

    python3 perfbench/run.py --workload blowup-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run times a fixed list of jobs, the first ``count`` of the
seed's stream, with ``count`` set by the workload from ``--seconds`` at a
constant rate, so two versions of the program time the same jobs.  With
``--trace 0`` the jobs run closed-loop, one at a time, and the run reports
the end-to-end metrics, with times scaled to a reference speed of the
machine (see ``speed``).  With ``--trace 1`` the jobs run twice in process,
untraced and then traced, and the run reports per-layer metrics from the
spans.  Human-readable lines come
first; the last line of standard output is the JSON result.  Full details,
with the seed, git SHA, Python version, nproc and machine, go to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 16  # fresh interpreters per run for setup_s, half before and half after the jobs
WARMUP_JOBS = 3


def child_env() -> dict:
    """Environment for fresh interpreters: the package from ``src/``, bytecode
    caching on (users have it), no debug logging."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key in ("PYTHONDONTWRITEBYTECODE", "HJTORIC_LOG", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def setup_times(module: str, env: dict, starts: int) -> tuple[list[float], list[float]]:
    """Wall times of ``starts`` fresh interpreters, one after the other, that
    import ``module``, and the calibrations around them (see ``speed``)."""
    import workloads
    cmd = [sys.executable, "-c", f"import {module}"]
    times, cal = [], [speed.calibrate_start()]
    for _ in range(starts):
        t0 = time.perf_counter()
        code, _ = workloads.run_child(cmd, env, ROOT)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with code {code}")
        times.append(time.perf_counter() - t0)
        cal.append(speed.calibrate_start())
    return times, cal


def tail(times: list[float]) -> tuple[float, float]:
    """The mean of the jobs at or above the highest percentile that still has
    at least ten jobs above it, that is of the slowest eleven jobs:
    (value, percentile).  A mean of eleven jobs, rather than the one at the
    percentile, evens out the speed swings within single long jobs."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return statistics.mean(s), 100.0
    return statistics.mean(s[n - 11:]), 100.0 * (n - 10) / n


def attempt(wl, run, job) -> tuple[float, str]:
    """Run and verify one job: (wall seconds, status).  A job that raises, or
    whose output the check cannot read, is a failed job."""
    t0 = time.perf_counter()
    try:
        out = run(job)
    except Exception as exc:
        return time.perf_counter() - t0, f"{job.kind}: raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        return dt, wl.verify(job, out)
    except Exception as exc:
        return dt, f"{job.kind}: unreadable output ({type(exc).__name__}: {exc})"


def run_jobs(wl, run, seed: int, calibrate=speed.calibrate):
    """The first ``wl.count`` jobs of the seed's stream, closed loop, one at a
    time: (jobs, job wall times, calibrations, statuses).  A calibration (see
    ``speed``) comes before every job and after the last.  ``run`` gets the
    job, as ``wl.run`` does."""
    jobs, times, cal, statuses = [], [], [calibrate()], []
    for job, _ in zip(wl.jobs(seed), range(wl.count)):
        dt, status = attempt(wl, run, job)
        cal.append(calibrate())
        jobs.append(job)
        times.append(dt)
        statuses.append(status)
    return jobs, times, cal, statuses


def tally(statuses) -> tuple[int, int, int, list]:
    import workloads
    ok = statuses.count(workloads.OK)
    known = statuses.count(workloads.KNOWN_DEFECT)
    failures = [s for s in statuses if s not in (workloads.OK, workloads.KNOWN_DEFECT)]
    return ok, known, len(failures), failures


def untraced(wl, seed: int, env: dict) -> tuple[dict, dict]:
    import workloads
    setup_times(wl.setup_import, env, 1)  # untimed: writes the bytecode cache
    # the timed starts are split around the jobs, so that they sample the
    # machine's speed over the whole run, as the job times do
    setup, setup_cal = setup_times(wl.setup_import, env, SETUP_STARTS // 2)
    warm = wl.jobs(seed + 1_000_003)  # a separate stream: the measured one starts fresh
    for _ in range(WARMUP_JOBS):
        attempt(wl, wl.run, next(warm))
    gc.collect()
    # jobs in child processes are scaled by the start of a bare interpreter
    children = isinstance(wl, workloads.Cli)
    calibrate, ref = (speed.calibrate_start, speed.REF_START_S) if children else (speed.calibrate, speed.REF_S)
    jobs, wall, cal, statuses = run_jobs(wl, wl.run, seed, calibrate)
    kinds = [job.kind for job in jobs]
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    more, more_cal = setup_times(wl.setup_import, env, SETUP_STARTS - SETUP_STARTS // 2)
    setup_wall = setup + more
    setup = speed.scale(setup, setup_cal, speed.REF_START_S) + speed.scale(more, more_cal, speed.REF_START_S)
    times = speed.scale(wall, cal, ref)
    ok, known, n_failed, failures = tally(statuses)
    n = len(times)
    tail_ms, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (tail_ms * 1e3, "ms"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "verified_frac": (ok / n, "fraction"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    details = {
        "jobs": n, "ok": ok, "known_defects": known, "failed": n_failed,
        "failed_frac": (n_failed + known) / n,
        "tail_percentile": pct, "at_tail_percentile_ms": sorted(times)[-min(n, 11)] * 1e3,
        "busy_s": sum(times),
        "speed": ref / statistics.median(cal),
        "wall": {"setup_s": statistics.median(setup_wall),
                 "job_p50_ms": statistics.median(wall) * 1e3,
                 "job_tail_ms": tail(wall)[0] * 1e3,
                 "jobs_per_s": ok / sum(wall), "busy_s": sum(wall)},
        "setup_times_s": setup, "failures": failures[:20],
        "samples": {"kind": kinds, "wall_s": wall, "calibration_s": cal},
        "p50_ms_by_kind": {k: statistics.median(t for j, t in zip(kinds, times) if j == k) * 1e3
                           for k in sorted(set(kinds))},
    }
    return metrics, details


def traced(wl, seed: int) -> tuple[dict, dict]:
    """The same job list, in process, untraced and then traced."""
    import tracing
    run = getattr(wl, "run_in_process", wl.run)
    attempt(wl, run, next(wl.jobs(seed + 1_000_003)))  # warm-up, e.g. importing hjtoric.cli
    gc.collect()
    _, plain, plain_cal, statuses = run_jobs(wl, run, seed)
    gc.collect()
    tracer = tracing.Tracer()
    ids = itertools.count()
    with tracer:
        jobs, wall, cal, traced_statuses = run_jobs(
            wl, lambda job: tracer.run_job(next(ids), run, job), seed)
    statuses += traced_statuses
    metrics = tracer.layer_metrics(jobs)
    plain_s = sum(speed.scale(plain, plain_cal))
    metrics["trace.overhead_frac"] = (sum(speed.scale(wall, cal)) / plain_s - 1, "fraction")
    traced_ns = sum(s[2] - s[1] for s in tracer.spans if s[0] == tracing.JOB)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    ok, known, n_failed, failures = tally(statuses)
    details = {"jobs": wl.count, "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
               "ok": ok, "known_defects": known, "failed": n_failed, "failures": failures[:20],
               "untraced_job_s": sum(plain), "traced_job_s": traced_ns / 1e9}
    return metrics, details


def run_info(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hjtoric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "platform": platform.platform(), "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hjtoric" / "__init__.py").is_file():
        print(f"error: no hjtoric package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if hasattr(os, "sched_setaffinity"):
        # one core for the run and the children it starts, so that the
        # calibrations sample the speed of the core the jobs run on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    env = child_env()
    wl = workloads.make(args.workload, OUT / f"work-{os.getpid()}", env, args.seconds)
    try:
        if args.trace:
            metrics, details = traced(wl, args.seed)
        else:
            metrics, details = untraced(wl, args.seed, env)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    info = run_info(args)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"run": info, "details": details, "metrics": metrics}, fh, indent=1)
    print("run " + json.dumps(info))
    print("details " + json.dumps({k: v for k, v in details.items() if k != "samples"}))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    n_failed = details["failed"]
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": details["ok"] + details["known_defects"] + n_failed,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
