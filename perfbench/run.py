"""Benchmark of the lefdefect library: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload survey_int --seed 1 --seconds 28 --trace 0

Closed loop with one client: each job starts when the previous one has
returned, in one process, on the pure-Python path (LEFDEFECT_NO_EXT=1) with
the default single search thread.  The package is imported from `src/` of
the checkout this script sits in.

A run repeats passes over the job list until the next pass would end past
`--seconds` (at least one pass).  Set-ups (import, seeded input generation,
expected answers, one warm-up job) are spread over the run: a fixed number
per workload, each before the first pass that starts after its share of
`--seconds`, and the next passes use what it built.

Times are CPU time of this process (`time.process_time`), which leaves out
time it is descheduled; the run is single-threaded and CPU-bound.  On a
shared host the CPU itself still runs faster or slower by tens of percent
from one second to the next, so every timed job and set-up is bracketed by
a probe: a fixed stdlib-only task (Fraction elimination, dict and tuple
work; no lefdefect code) timed just before and just after it.  A reported
time is the measured time scaled to the host speed at which the probe takes
`PROBE_REF_S`: measured * PROBE_REF_S / mean(probe before, probe after).
A change to the program moves the measured time but not the probe, so it
shows in full; a host phase slows both and cancels.  The raw CPU times are
printed beside the scaled ones and logged with each run.

`setup_s` is the median of the set-ups.  A job's latency is its median over
the passes; `wall_s` is the sum of the job latencies (one pass) and
`job_s.p50`/`job_s.p75` are their quartiles over the jobs.  Every job's
answer is checked, untimed; a wrong answer or an exception counts as
failed.  With `--trace 1` one more pass runs under the span tracer (see
tracer.py), which pauses while answers are checked, and the per-layer
metrics are printed instead of the end-to-end ones; the spans go to
`.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-ups per run, fixed per workload (about 1.5-7 s in all): cheap set-ups
# are repeated more often, so that their median is steady too.
SETUP_REPEATS = {"survey_int": 9, "survey_field": 5, "case_analysis": 5, "cli_torus": 7}
CLOCK = time.process_time
CALIBRATION_LOOPS = 2_000_000
SUBMODULES = ("checks", "cli", "schema")

# Host-speed probe: its input is fixed, and PROBE_REF_S is about its CPU time
# in the fast phases of a shared 2-vCPU x86-64 cloud host (Python 3.11), where
# it ranges over 1.3-5.4 ms.
PROBE_REF_S = 0.0015
PROBE_REPEATS = 6
_probe_rng = random.Random(0)
PROBE_MATRIX = [[Fraction(_probe_rng.randint(-9, 9), _probe_rng.randint(1, 9))
                 for _ in range(5)] for _ in range(5)]


def _determinant(rows) -> Fraction:
    a = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for k in range(c, len(a)):
                a[r][k] -= f * a[c][k]
    return det


def probe() -> float:
    """CPU time of a fixed stdlib-only task: the host's current speed."""
    start = CLOCK()
    for _ in range(PROBE_REPEATS):
        _determinant(PROBE_MATRIX)
        table = {(i, i % 7): i * i for i in range(600)}
        sum(v for k, v in table.items() if k[1])
    return CLOCK() - start


def timed(fn, *args):
    """Run fn(*args) between two probes; return (result, raw s, scaled s)."""
    before = probe()
    start = CLOCK()
    result = fn(*args)
    took = CLOCK() - start
    after = probe()
    return result, took, took * PROBE_REF_S * 2 / (before + after)


def calibrate() -> float:
    """Time of a fixed pure-Python loop: host speed beside every number."""
    start = CLOCK()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return CLOCK() - start


def import_fresh():
    """Import lefdefect from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "lefdefect" or n.startswith("lefdefect.")]:
        del sys.modules[name]
    lib = importlib.import_module("lefdefect")
    for name in SUBMODULES:
        importlib.import_module(f"lefdefect.{name}")
    return lib


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_pass(lib, state, tracer=None, failures=None):
    """One pass over the job list.

    Returns (raw pass time, scaled latency of each job or None where it
    raised, failed jobs, box-limited surveys).  Answer checks are not timed,
    and the tracer records no spans while they run.
    """
    latencies = [None] * len(state.jobs)
    failed = limited = 0
    begin = CLOCK()
    for index, job in enumerate(state.jobs):
        if tracer is not None:
            tracer.job = index
        try:
            output, _, latencies[index] = timed(workloads.execute, lib, state, job)
            if tracer is not None:
                tracer.active = False
            limited += workloads.check(lib, job, output)
        except Exception:  # any error is a failed job; the run goes on
            failed += 1
            if failures is not None and len(failures) < 5:
                failures.append(f"job {index} ({job.kind} {job.data}):\n{traceback.format_exc()}")
        finally:
            if tracer is not None:
                tracer.active = True
    return CLOCK() - begin, latencies, failed, limited


def _set_up_once(workload, seed, max_jobs, workdir):
    lib = import_fresh()
    state = workloads.setup(lib, workload, seed, max_jobs, workdir)
    output = workloads.execute(lib, state, state.warmup)
    workloads.check(lib, state.warmup, output)
    return lib, state


def set_up(workload, seed, max_jobs, workdir):
    """One timed set-up; returns (raw s, scaled s, the library, the workload state)."""
    (lib, state), raw, scaled = timed(_set_up_once, workload, seed, max_jobs, workdir)
    if not os.path.realpath(lib.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"lefdefect imported from {lib.__file__}, not from {SRC}")
    return raw, scaled, lib, state


def measure(workload, seed, seconds, trace, max_jobs=None):
    calib_start = calibrate()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    repeats = SETUP_REPEATS[workload]
    try:
        raw_setups, setups, walls, per_pass, failures = [], [], [], [], []
        failed = 0
        begin = time.perf_counter()
        while True:
            if len(setups) < repeats and \
                    time.perf_counter() - begin >= len(setups) * seconds / repeats:
                raw, scaled, lib, state = set_up(workload, seed, max_jobs, workdir)
                raw_setups.append(raw)
                setups.append(scaled)
            wall, lat, bad, _ = run_pass(lib, state, failures=failures)
            walls.append(wall)
            per_pass.append(lat)
            failed += bad
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(walls) > seconds:
                break
        attempted = len(walls) * len(state.jobs)

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, traced, bad, limited = run_pass(lib, state, tracer, failures)
            finally:
                tracer.uninstall()
            attempted += len(state.jobs)
            failed += bad
        pure = not lib.effectivity.HAVE_COMPILED_KERNELS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_end = calibrate()

    latencies = [statistics.median(ts) for ts in zip(*per_pass) if None not in ts]
    quartiles = statistics.quantiles(latencies, n=4) if len(latencies) > 1 else latencies * 3
    if not pure:
        failed = attempted
    failed_ratio = failed / attempted
    result = {
        "setups": setups,
        "raw_setups": raw_setups,
        "walls": walls,
        "jobs_per_pass": len(state.jobs),
        "timed_jobs": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "pure": pure,
        "failures": failures,
        "calib": (calib_start, calib_end),
        "end_to_end": {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(latencies), "s"),
            "job_s.p50": (quartiles[1], "s"),
            "job_s.p75": (quartiles[2], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "failed_ratio": failed_ratio,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["checks.box_limited"] = (limited, "count")
        traced_s = sum(t for t in traced if t is not None)
        layers["trace.overhead_s"] = (traced_s - sum(latencies), "s")
        layers["host.calib_s"] = ((calib_start + calib_end) / 2, "s")
        layers["failed_ratio"] = (failed_ratio, "ratio")
        result["per_layer"] = layers
        result["tracer"] = tracer
    return result


def report(args, result) -> dict:
    """Print the human-readable summary; return the JSON result line."""
    e2e = result["end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['walls'])}  "
          f"jobs per pass {result['jobs_per_pass']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    notes = {
        "setup_s": f"median of {len(result['setups'])} set-ups",
        "wall_s": f"sum of job medians over {len(result['walls'])} passes",
        "job_s.p50": f"{result['timed_jobs']} jobs",
        "job_s.p75": f"{result['timed_jobs']} jobs",
        "peak_rss_mb": "this process",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:>12.6f} {unit:<5} ({notes[name]})")
    print(f"  {'failed_ratio':<14} {result['failed_ratio']:>12.6f} ratio "
          f"({result['failed']} / {result['attempted']})")
    print(f"  unscaled CPU time: set-up median {statistics.median(result['raw_setups']):.6f} s, "
          f"pass median {statistics.median(result['walls']):.6f} s (with probes and checks)")
    calib_start, calib_end = result["calib"]
    print(f"  host.calib_s   {calib_start:.4f} s at start, {calib_end:.4f} s at end")
    if not result["pure"]:
        print("  compiled kernels are loaded: the run counts as failed", file=sys.stderr)
    for failure in result["failures"]:
        print(failure, file=sys.stderr)

    metrics = e2e if not args.trace else result["per_layer"]
    if args.trace:
        tracer = result["tracer"]
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans)
        print(f"per-layer self time, {args.workload} (spans in {os.path.relpath(spans, ROOT)}):")
        print(tracer.table())
        for name in ("effectivity.search.candidates", "effectivity.search.effective",
                     "effectivity.search.prep_s", "checks.box_limited", "trace.overhead_s"):
            print(f"  {name} = {metrics[name][0]}")

    line = {
        "correct": result["failed"] == 0 and result["pure"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host.calib_s": list(result["calib"]),
        "setups_s": result["setups"],
        "raw_setups_s": result["raw_setups"],
        "raw_passes_s": result["walls"],
    }
    print("run: " + json.dumps(meta))
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as log:
        log.write(json.dumps({**meta, **line}) + "\n")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="cut the job list to this many jobs (self-test sizes)")
    args = parser.parse_args(argv)

    os.environ["LEFDEFECT_NO_EXT"] = "1"
    if not os.path.isdir(os.path.join(SRC, "lefdefect")):
        print(f"no lefdefect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.jobs)
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
