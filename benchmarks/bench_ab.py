"""Benchmark: this checkout against an older revision, in one process.

This is the only script of `benchmarks/` that reads a clock.  Separate runs
of the same code drift on a shared host by more than most changes, so two
timed runs made one after the other can show a regression that is not one.
This script instead loads both packages side by side in one process and
alternates them call by call:

* "change" is the package under `src/` of this checkout (its working tree);
* "parent" is REV's `src/lefdefect`, extracted with `git archive` into a
  temporary directory and imported under the name `lefdefect_parent`;
* "copy" is this checkout's `src/lefdefect` imported a second time, under
  the name `lefdefect_copy`: the A/A calibration, identical code that reads
  how far the method itself strays from a ratio of 1.

The package uses only relative imports, so every copy runs on its own
modules, and `bench_search.py` and `bench_layers.py` are imported once per
side with `lefdefect` bound to that side's package.  There are three kinds
of case:

* search: `bench_search.py`'s cases, `torus_defect` on tori built
  beforehand (untimed).  The answer is the search's delta,
  `classes_scanned` and witness.
* stage: one per `bench_layers.py` torus and stage, named
  "<stage>, <torus>".  Each side builds the torus's `Sample` once
  (untimed); each call runs the stage on an input its `prepare` built
  beforehand (untimed).  The answer is the stage's counts.
* import: each call loads a fresh copy of the side's package with
  `.checks`, `.cli` and `.schema` under a throwaway name, as every set-up
  of perfbench imports it, then drops those modules from sys.modules.  The
  answer is the package's sorted public names.  A side whose `src/` holds
  cached bytecode only loads it, so under PYTHONDONTWRITEBYTECODE=1 clear
  `__pycache__` under `src/` first: then every side compiles its sources.

Per case and round, each side runs a batch of calls, timed with
`time.process_time` after `gc.collect()` and with the collector disabled
during the batch; the order of the sides rotates from round to round.  The
batch size is doubled from 1 until the change's batch lasts BATCH_SECONDS.
The answer of the last call of every batch must be the same on all sides.

Per case it reports the ratios change/parent and change/copy per round:
their median, quartiles and the rounds the change was faster ("wins").  A
ratio below 1 means the change is faster; an A/A quartile range that does
not hold 1.0 means the run cannot resolve the case.  The results are stored
in BENCH_ab.json next to this script as one run under `--label`, replacing
an earlier run with the same label.

Usage (from the root of a git checkout):
    python benchmarks/bench_ab.py --parent REV [--label NAME] [--rounds N]
        [--skip CASE ... | --cases CASE ...]

`--skip` defaults to "E_i^3, box 3", which takes seconds per search.
`--cases` runs only the named cases instead, so that the cases a change
touches can get more rounds than a full run affords.
"""

import argparse
import gc
import importlib
import importlib.util
import io
import os
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

import bench_layers  # noqa: E402  (binds the change: this checkout's src/)
import bench_search  # noqa: E402

# A timed batch of the change runs calls until it lasts at least this long.
BATCH_SECONDS = 0.1
# The modules that each set-up of perfbench imports besides the package.
SUBMODULES = ("checks", "cli", "schema")
CLOCK = time.process_time


def load_package(name, package_dir):
    """The package in `package_dir` (its __init__.py) imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def import_script(name, suffix, aliases):
    """The script `name`.py of this directory, imported as `name`_`suffix`
    while `aliases` stand in sys.modules."""
    saved = {alias: sys.modules.get(alias) for alias in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"{name}_{suffix}", os.path.join(HERE, name + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for alias, module_before in saved.items():
            if module_before is None:
                del sys.modules[alias]
            else:
                sys.modules[alias] = module_before
    return module


class Side:
    """bench_search.py and bench_layers.py bound to one package, and the
    directory that package is loaded from."""

    def __init__(self, search, layers, package_dir):
        self.search, self.layers, self.package_dir = search, layers, package_dir

    @classmethod
    def of(cls, package):
        prefix = package.__name__
        # The scripts import `.checks` and `.schema`, which the package does
        # not import itself: without these imports the side would run the
        # change's modules under the names it aliases.
        for module in SUBMODULES:
            importlib.import_module(f"{prefix}.{module}")
        aliases = {"lefdefect" + name[len(prefix):]: module
                   for name, module in sys.modules.items()
                   if name == prefix or name.startswith(prefix + ".")}
        search = import_script("bench_search", prefix, aliases)
        layers = import_script("bench_layers", prefix, {**aliases, "bench_search": search})
        return cls(search, layers, package.__path__[0])


def search_case(index):
    """(name, bind) of `bench_search.CASES[index]`: one search per call on a
    torus that `prepare` builds; the answer is its delta, `classes_scanned`
    and witness."""
    def bind(side, directory):
        _, build, box = side.search.CASES[index]
        return (build, lambda torus: side.search.torus_defect(torus, box=box),
                lambda result: {"delta": result.delta,
                                "classes_scanned": result.classes_scanned,
                                "witness": getattr(result, "witness_coefficients", None)})

    return bench_search.CASES[index][0], bind


def stage_case(torus, stage):
    """(name, bind) of `bench_layers.STAGES[stage]` on the torus of
    `bench_layers.layer_tori()[torus]`, whose `Sample` `bind` builds; the
    answer is the stage's counts."""
    def bind(side, directory):
        T = side.layers.sample(side.layers.layer_tori()[torus][1], directory)
        _, prepare, run, count = side.layers.STAGES[stage]
        return lambda: prepare(T), run, count

    return (f"{bench_layers.STAGES[stage].name}, {bench_layers.layer_tori()[torus][0]}", bind)


def import_case():
    """(name, bind) of importing the package afresh; the answer is the
    package's sorted public names."""
    def run(side):
        name = "lefdefect_import"
        try:
            package = load_package(name, side.package_dir)
            for module in SUBMODULES:
                importlib.import_module(f"{name}.{module}")
        finally:
            for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
                del sys.modules[module]
        return package

    def answer(package):
        names = sorted(n for n in vars(package) if not n.startswith("_"))
        return {"public": len(names), "names": names}

    def bind(side, directory):
        return lambda: side, run, answer

    return "import", bind


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


def timed_batch(bound, reps):
    """(CPU seconds, answer of the last call) of `reps` calls of a bound
    case, each on an input that `prepare` built beforehand."""
    prepare, run, answer = bound
    inputs = [prepare() for _ in range(reps)]
    gc.collect()
    gc.disable()
    try:
        started = CLOCK()
        results = [run(x) for x in inputs]
        seconds = CLOCK() - started
    finally:
        gc.enable()
    return seconds, answer(results[-1])


def batch_size(bound):
    reps = 1
    while timed_batch(bound, reps)[0] < BATCH_SECONDS:
        reps *= 2
    return reps


def summary(ratios):
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "wins": sum(r < 1 for r in ratios)}


def compare(sides, case, rounds, directory):
    """(batch size, answer, per-round ratios change/parent and change/copy)
    of `case` on `sides`, each bound once, untimed, with its inputs under
    `directory`."""
    bound = {name: case[1](side, directory) for name, side in sides.items()}
    reps = batch_size(bound["change"])
    names = list(sides)
    ratios = {"parent": [], "copy": []}
    for n in range(rounds):
        order = names[n % 3:] + names[:n % 3]
        if n % 2:
            order.reverse()
        seconds = {}
        answers = []
        for name in order:
            seconds[name], found = timed_batch(bound[name], reps)
            answers.append(found)
        if any(found != answers[0] for found in answers):
            raise AssertionError(f"{case[0]}: answers differ: {answers}")
        for other in ratios:
            ratios[other].append(seconds["change"] / seconds[other])
    return reps, answers[0], ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", default=None, help="run label (default: 'vs <commit>')")
    parser.add_argument("--rounds", type=int, default=10)
    chosen = parser.add_mutually_exclusive_group()
    chosen.add_argument("--skip", nargs="*", default=["E_i^3, box 3"],
                        help="case names to leave out")
    chosen.add_argument("--cases", nargs="+", default=None, help="the only case names to run")
    args = parser.parse_args()

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        commit = extract_src(args.parent, tmp)
        sides = {
            "change": Side(bench_search, bench_layers, os.path.join(SRC, "lefdefect")),
            "parent": Side.of(load_package("lefdefect_parent",
                                           os.path.join(tmp, "src", "lefdefect"))),
            "copy": Side.of(load_package("lefdefect_copy", os.path.join(SRC, "lefdefect"))),
        }
        label = args.label or f"vs {commit[:7]}"
        cases = ([import_case()] + [search_case(i) for i in range(len(bench_search.CASES))]
                 + [stage_case(t, s) for t in range(len(bench_layers.layer_tori()))
                    for s in range(len(bench_layers.STAGES))])
        if args.cases is not None:
            unknown = set(args.cases) - {name for name, _ in cases}
            if unknown:
                parser.error(f"unknown cases: {', '.join(sorted(unknown))}")
            cases = [case for case in cases if case[0] in args.cases]
        else:
            cases = [case for case in cases if case[0] not in args.skip]
        rows = []
        print(f"{'case':<34} {'answer':>8} {'reps':>5} {'change/parent':>24} {'A/A':>24}")
        for case in cases:
            name = case[0]
            reps, found, ratios = compare(sides, case, args.rounds, tmp)
            ab, aa = summary(ratios["parent"]), summary(ratios["copy"])
            rows.append({"case": name, **found, "repetitions": reps,
                         "rounds": args.rounds, "ratio": ab, "aa": aa})
            print(f"{name:<34} {next(iter(found.values()))!s:>8} {reps:>5} "
                  f"{ab['median']:>6.3f} [{ab['q1']:.3f}, {ab['q3']:.3f}] {ab['wins']:>2}w "
                  f"{aa['median']:>6.3f} [{aa['q1']:.3f}, {aa['q3']:.3f}] {aa['wins']:>2}w")

    wall_s = round(time.perf_counter() - started, 1)
    print(f"wall time {wall_s} s")
    bench_search.save_run(OUT, label, parent=commit, wall_s=wall_s, cases=rows)


if __name__ == "__main__":
    main()
