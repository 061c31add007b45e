"""Self-test of the benchmark at tiny sizes with a fixed seed.

    python3 perfbench/selftest.py

For every workload it checks that every metric named in BENCHMARK.json is
printed, that the per-layer counts repeat exactly across two traced runs
(one with a single timed pass, one with several), that answer checks leave
no spans, and that a planted wrong expected value is counted as a failed job.  It also
checks that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SEED = 7
TINY_JOBS = 3
COUNTS = ("effectivity.search.candidates", "effectivity.search.effective",
          "checks.box_limited")

failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def bench(root, workload, trace, seconds=0):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
         "--jobs", str(TINY_JOBS)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_line(proc):
    if proc.returncode != 0:
        print(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names exactly the benchmark's workloads")
    for workload in workloads.WORKLOADS:
        plain = result_line(bench(run.ROOT, workload, 0))
        # One timed pass, then several: the traced counts must not depend on it.
        traced = [result_line(bench(run.ROOT, workload, 1, seconds)) for seconds in (0, 3)]
        if plain is None or None in traced:
            expect(False, f"{workload}: tiny runs exit 0")
            continue
        expect(plain["correct"] and all(t["correct"] for t in traced),
               f"{workload}: tiny runs are correct")
        expect(set(plain["metrics"]) == end_to_end,
               f"{workload}: every end-to-end metric is printed")
        expect(set(traced[0]["metrics"]) == per_layer,
               f"{workload}: every per-layer metric is printed")
        counts = [{n: v["value"] for n, v in t["metrics"].items()
                   if n.endswith(".calls") or n in COUNTS} for t in traced]
        expect(counts[0] == counts[1] and counts[0],
               f"{workload}: per-layer counts repeat exactly across two traced runs")
        if workload.startswith("survey"):
            # Only the untimed witness checks call these on a survey.
            expect(counts[0]["effectivity.is_effective_class.calls"] == 0
                   and counts[0]["cohomology.defect_of_class.calls"] == 0,
                   f"{workload}: answer checks leave no spans")


def check_planted_failure():
    os.environ["LEFDEFECT_NO_EXT"] = "1"
    sys.path.insert(0, run.SRC)
    lib = run.import_fresh()
    os.makedirs(run.OUT, exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
            state = workloads.setup(lib, workload, SEED, TINY_JOBS, workdir)
            _, _, failed, _ = run.run_pass(lib, state)
            expect(failed == 0, f"{workload}: tiny pass has no failed job")
            job = state.jobs[0]
            state.jobs[0] = dataclasses.replace(job, expected=job.expected - 1)
            _, _, failed, _ = run.run_pass(lib, state)
            expect(failed == 1, f"{workload}: a planted wrong expected value fails its job")


def check_bare_directory():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, workloads.WORKLOADS[0], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the package the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    check_runs(spec)
    check_planted_failure()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
