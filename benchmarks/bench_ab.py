"""Benchmark: this checkout's search against an older revision, in one process.

Separate runs of the same code drift on a shared host by more than most
changes to the search, so a comparison of two `bench_search.py` runs can
show a regression that is not one.  This script instead loads both packages
side by side in one process and alternates them call by call:

* "change" is the package under `src/` of this checkout (its working tree);
* "parent" is REV's `src/lefdefect`, extracted with `git archive` into a
  temporary directory and imported under the name `lefdefect_parent`;
* "copy" is this checkout's `src/lefdefect` imported a second time, under
  the name `lefdefect_copy`: the A/A calibration, identical code that reads
  how far the method itself strays from a ratio of 1.

The package uses only relative imports, so every copy runs on its own
modules.  The cases are `bench_search.py`'s, with its builders bound to
each package in turn.  Per case and round, each side runs a batch of
searches (`torus_defect` on tori built beforehand, untimed), timed with
`time.process_time` after `gc.collect()` and with the collector disabled
during the batch; the order of the sides rotates from round to round.  The
batch size is doubled from 1 until the change's batch lasts BATCH_SECONDS.
Every search's answer (delta, `classes_scanned`, witness) must be the
same on all sides.

Per case it reports the ratios change/parent and change/copy per round:
their median, quartiles and the rounds the change was faster ("wins").  A
ratio below 1 means the change is faster; an A/A quartile range that does
not hold 1.0 means the run cannot resolve the case.  The results are stored
in BENCH_ab.json next to this script as one run under `--label`, replacing
an earlier run with the same label.

Usage (from the root of a git checkout):
    python benchmarks/bench_ab.py --parent REV [--label NAME] [--rounds N]
        [--skip CASE ...]

`--skip` defaults to "E_i^3, box 3", which takes seconds per search.
"""

import argparse
import gc
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "BENCH_ab.json")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import bench_search  # noqa: E402  (binds the change: this checkout's src/)

# A timed batch of the change runs searches until it lasts at least this long.
BATCH_SECONDS = 0.1
CLOCK = time.process_time


def load_package(name, package_dir):
    """The package in `package_dir` (its __init__.py) imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def bench_for(package):
    """bench_search.py imported with `lefdefect` bound to `package`, so its
    case builders build that package's tori."""
    prefix = package.__name__
    aliases = {"lefdefect" + name[len(prefix):]: module for name, module in sys.modules.items()
               if name == prefix or name.startswith(prefix + ".")}
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_search_{prefix}", os.path.join(HERE, "bench_search.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for name, module_before in saved.items():
            if module_before is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module_before
    return module


def extract_src(rev, target):
    """REV's src/ tree, written under `target` with `git archive`; returns
    the resolved commit."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)
    return commit


def answer(result):
    return (result.delta, result.classes_scanned, getattr(result, "witness_coefficients", None))


def timed_batch(bench, case, reps):
    """(CPU seconds, answers) of `reps` searches of `case` on fresh tori."""
    _, build, box = case
    tori = [build() for _ in range(reps)]
    gc.collect()
    gc.disable()
    try:
        started = CLOCK()
        results = [bench.torus_defect(torus, box=box) for torus in tori]
        seconds = CLOCK() - started
    finally:
        gc.enable()
    return seconds, {answer(r) for r in results}


def batch_size(case):
    reps = 1
    while timed_batch(bench_search, case, reps)[0] < BATCH_SECONDS:
        reps *= 2
    return reps


def summary(ratios):
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "wins": sum(r < 1 for r in ratios)}


def compare(sides, index, rounds):
    """Per-round ratios change/parent and change/copy on case `index`."""
    reps = batch_size(bench_search.CASES[index])
    names = list(sides)
    ratios = {"parent": [], "copy": []}
    for n in range(rounds):
        order = names[n % 3:] + names[:n % 3]
        if n % 2:
            order.reverse()
        seconds = {}
        answers = set()
        for name in order:
            seconds[name], found = timed_batch(sides[name], sides[name].CASES[index], reps)
            answers |= found
        if len(answers) != 1:
            raise AssertionError(f"{bench_search.CASES[index][0]}: answers differ: {answers}")
        for other in ratios:
            ratios[other].append(seconds["change"] / seconds[other])
    return reps, answers.pop(), ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", default=None, help="run label (default: 'vs <commit>')")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--skip", nargs="*", default=["E_i^3, box 3"],
                        help="case names to leave out")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        commit = extract_src(args.parent, tmp)
        sides = {
            "change": bench_search,
            "parent": bench_for(load_package("lefdefect_parent",
                                             os.path.join(tmp, "src", "lefdefect"))),
            "copy": bench_for(load_package("lefdefect_copy", os.path.join(SRC, "lefdefect"))),
        }
        label = args.label or f"vs {commit[:7]}"
        rows = []
        print(f"{'case':<26} {'delta':>5} {'reps':>5} {'change/parent':>24} {'A/A':>24}")
        for index, (name, _, _) in enumerate(bench_search.CASES):
            if name in args.skip:
                continue
            reps, (delta, _, _), ratios = compare(sides, index, args.rounds)
            ab, aa = summary(ratios["parent"]), summary(ratios["copy"])
            rows.append({"case": name, "delta": delta, "repetitions": reps,
                         "rounds": args.rounds, "ratio": ab, "aa": aa})
            print(f"{name:<26} {delta:>5} {reps:>5} "
                  f"{ab['median']:>6.3f} [{ab['q1']:.3f}, {ab['q3']:.3f}] {ab['wins']:>2}w "
                  f"{aa['median']:>6.3f} [{aa['q1']:.3f}, {aa['q3']:.3f}] {aa['wins']:>2}w")

    runs = []
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as handle:
            runs = [r for r in json.load(handle)["runs"] if r["label"] != label]
    runs.append({
        "label": label,
        "parent": commit,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cases": rows,
    })
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
