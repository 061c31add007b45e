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
modules, and `bench_search.py` and `bench_layers.py` are imported once per
side with `lefdefect` bound to that side's package.  There are four kinds
of case:

* search: `bench_search.py`'s cases, `torus_defect` on tori built
  beforehand (untimed).  Every search's answer (delta, `classes_scanned`,
  witness) must be the same on all sides.
* quotient: one per `bench_layers.py` torus, `quotient` by every nonzero
  radical of its `sample_forms`, each on a fresh `Sublattice` (so its
  complement is computed in the batch).  The Picard numbers of the
  quotients must be the same on all sides.
* construction: one per `bench_layers.py` torus, building it anew from
  its curves' (a, beta coordinates) as
  `product([elliptic(a, K.element(beta)), ...])`.  The tori's J data
  (j_den, j_parts) must be the same on all sides.
* voisin: one per `bench_layers.py` torus, `check_voisin` on the torus
  built anew with its NS basis (untimed).  The check's status and detail
  must be the same on all sides.

Per case and round, each side runs a batch of calls, timed with
`time.process_time` after `gc.collect()` and with the collector disabled
during the batch; the order of the sides rotates from round to round.  The
batch size is doubled from 1 until the change's batch lasts BATCH_SECONDS.

Per case it reports the ratios change/parent and change/copy per round:
their median, quartiles and the rounds the change was faster ("wins").  A
ratio below 1 means the change is faster; an A/A quartile range that does
not hold 1.0 means the run cannot resolve the case.  The results are stored
in BENCH_ab.json next to this script as one run under `--label`, replacing
an earlier run with the same label.

Usage (from the root of a git checkout):
    python benchmarks/bench_ab.py --parent REV [--label NAME] [--rounds N]
        [--skip CASE ...]

`--skip` defaults to "E_i^3, box 3", which takes seconds per search.  The
quotient cases are named "quotient, <torus>", the construction cases
"construction, <torus>" and the voisin cases "voisin, <torus>".
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

import bench_layers  # noqa: E402  (binds the change: this checkout's src/)
import bench_search  # noqa: E402

# A timed batch of the change runs calls until it lasts at least this long.
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
    quotient cases' tori and radical bases and the construction cases'
    curve data, built once per side."""

    def __init__(self, search, layers):
        self.search, self.layers = search, layers
        self._radicals = {}
        self._curves = {}

    @classmethod
    def of(cls, package):
        prefix = package.__name__
        aliases = {"lefdefect" + name[len(prefix):]: module
                   for name, module in sys.modules.items()
                   if name == prefix or name.startswith(prefix + ".")}
        search = import_script("bench_search", prefix, aliases)
        layers = import_script("bench_layers", prefix, {**aliases, "bench_search": search})
        return cls(search, layers)

    def radicals(self, build_index):
        """(torus, bases of the nonzero radicals of its sample forms) for
        the torus of `layer_tori()[build_index]`."""
        if build_index not in self._radicals:
            A = self.layers.layer_tori()[build_index][1]()
            self._radicals[build_index] = A, self.layers.sample_radicals(A)[1]
        return self._radicals[build_index]

    def curves(self, build_index):
        """(field, [(a, beta's coordinates) per curve]) of the torus of
        `layer_tori()[build_index]`."""
        if build_index not in self._curves:
            A = self.layers.layer_tori()[build_index][1]()
            self._curves[build_index] = A.field, [
                (a, beta.coeffs) for a, beta in (f._elliptic_tau for f in A.factors)]
        return self._curves[build_index]


def search_case(index):
    """(name, make, run, answer, record) of `bench_search.CASES[index]`: one
    search per call on a torus that `make` builds; `record` keeps the delta
    of the answer."""
    name, _, box = bench_search.CASES[index]
    return (name,
            lambda side: side.search.CASES[index][1](),
            lambda side, torus: side.search.torus_defect(torus, box=box),
            lambda side, result: (result.delta, result.classes_scanned,
                                  getattr(result, "witness_coefficients", None)),
            lambda found: {"delta": found[0]})


def quotient_case(index):
    """(name, make, run, answer, record) of the quotients by the nonzero
    radicals of `bench_layers.layer_tori()[index]`'s sample forms; the
    answer is their Picard numbers."""
    def make(side):
        A, bases = side.radicals(index)
        return A, [side.layers.Sublattice(A, basis) for basis in bases]

    return ("quotient, " + bench_layers.layer_tori()[index][0], make,
            lambda side, lattices: [side.layers.quotient(lattices[0], W) for W in lattices[1]],
            lambda side, quotients: tuple(side.layers.ns_rank(B) for B in quotients),
            lambda found: {"quotient_rho": list(found)})


def construction_case(index):
    """(name, make, run, answer, record) of building the torus of
    `bench_layers.layer_tori()[index]` from its curves' data; the answer is
    its J data."""
    def run(side, curves):
        K, data = curves
        return side.search.product([side.search.elliptic(a, K.element(beta)) for a, beta in data])

    return ("construction, " + bench_layers.layer_tori()[index][0],
            lambda side: side.curves(index), run,
            lambda side, A: (A.j_den, A.j_parts),
            lambda found: {"j_den": found[0]})


def voisin_case(index):
    """(name, make, run, answer, record) of `check_voisin` on the torus of
    `bench_layers.layer_tori()[index]`, built with its NS basis by `make`;
    the answer is the check's (status, detail)."""
    def make(side):
        A = side.layers.layer_tori()[index][1]()
        side.layers.ns_basis(A)
        return A

    return ("voisin, " + bench_layers.layer_tori()[index][0], make,
            lambda side, A: side.layers.check_voisin(A),
            lambda side, result: (result.status, result.detail),
            lambda found: {"status": found[0]})


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


def timed_batch(side, case, reps):
    """(CPU seconds, answers) of `reps` calls of `case` on `side`, each on
    an input that `make` built beforehand."""
    _, make, run, answer, _ = case
    inputs = [make(side) for _ in range(reps)]
    gc.collect()
    gc.disable()
    try:
        started = CLOCK()
        results = [run(side, x) for x in inputs]
        seconds = CLOCK() - started
    finally:
        gc.enable()
    return seconds, {answer(side, r) for r in results}


def batch_size(side, case):
    reps = 1
    while timed_batch(side, case, reps)[0] < BATCH_SECONDS:
        reps *= 2
    return reps


def summary(ratios):
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "wins": sum(r < 1 for r in ratios)}


def compare(sides, case, rounds):
    """Per-round ratios change/parent and change/copy on `case`."""
    reps = batch_size(sides["change"], case)
    names = list(sides)
    ratios = {"parent": [], "copy": []}
    for n in range(rounds):
        order = names[n % 3:] + names[:n % 3]
        if n % 2:
            order.reverse()
        seconds = {}
        answers = set()
        for name in order:
            seconds[name], found = timed_batch(sides[name], case, reps)
            answers |= found
        if len(answers) != 1:
            raise AssertionError(f"{case[0]}: answers differ: {answers}")
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
            "change": Side(bench_search, bench_layers),
            "parent": Side.of(load_package("lefdefect_parent",
                                           os.path.join(tmp, "src", "lefdefect"))),
            "copy": Side.of(load_package("lefdefect_copy", os.path.join(SRC, "lefdefect"))),
        }
        label = args.label or f"vs {commit[:7]}"
        tori = range(len(bench_layers.layer_tori()))
        cases = ([search_case(i) for i in range(len(bench_search.CASES))]
                 + [quotient_case(i) for i in tori] + [construction_case(i) for i in tori]
                 + [voisin_case(i) for i in tori])
        rows = []
        print(f"{'case':<26} {'answer':>12} {'reps':>5} {'change/parent':>24} {'A/A':>24}")
        for case in cases:
            name = case[0]
            if name in args.skip:
                continue
            reps, found, ratios = compare(sides, case, args.rounds)
            ab, aa = summary(ratios["parent"]), summary(ratios["copy"])
            record = case[4](found)
            rows.append({"case": name, **record, "repetitions": reps,
                         "rounds": args.rounds, "ratio": ab, "aa": aa})
            print(f"{name:<26} {' '.join(map(str, record.values())):>12} {reps:>5} "
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
