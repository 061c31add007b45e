"""Benchmark cases: the pruned effective-class search on fixed tori, and its counts.

`CASES` runs `torus_defect` (pure Python, the only search path) on E_i x E_i at
boxes 2 and 3, E_i^3 at boxes 1, 2 and 3, and E_i^4 at box 1 over Q, and on
three products over Q(2^(1/4)) from the test corpus: E_ia x E_ia' at box 2
and E_i x E_ia x E_ia2 and E_i x E_i' x E_ia at box 1 (a = 2^(1/4)), where
the search runs on Z[alpha] entries.  Three more cases have the shape of the
survey workloads: two pairs of curves tau = a + i*s over Q with a != 0 and
scaled imaginary parts at box 3 (tau = 1/2 + 2i, -1/3 + 3i/2 and
tau = 2/3 + 3i/2, 1/3 + 2i/3), and a pair of non-isogenous curves over
Q(2^(1/4)) (tau = 1/2 + i(1 + a) and tau = -1/3 + i*a) at box 2, whose
symmetric parts split into one block per curve.  One case puts E_i^3 on a
fixed mixed lattice basis (columns of a unimodular U, J -> U^-1 J U), at
box 1: on it the NS basis, and so the box and the pruning, no longer
follow the factors.  Three products of isogenous CM curves over Q exercise
the order of the search's levels: E_i^2 x E_(1/3+3i) at box 2 and
E_i x E_2i x E_3i at box 2, whose Hom levels are pinned, and
E_i^3 x E_(1/3+3i) at box 1, where putting the pinned levels before the
fibers without weighing their counts visits many more nodes.

This script reads no clock: `bench_ab.py` times these cases, in one process
against an older revision.  Run on its own, it records per case the answer
and the work of one search (`count_search`): the delta, the box candidates
decided (`classes_scanned`), the search-tree nodes entered
(`nodes_visited`), the number of `psd_rank` eliminations, the size of the
search's pool of cuts (`cuts`) and the number of leaves that `evaluate`
found effective (`leaves`).  The
results are stored in BENCH_search.json next to this script as one run
under `--label`, replacing an earlier run with the same label, so the counts
of two checkouts sit side by side.

Usage:
    PYTHONPATH=src python benchmarks/bench_search.py [--label NAME] [--skip CASE ...]

To count on an older checkout with this script, point PYTHONPATH at its
`src` (`nodes_visited` and `cuts` are then recorded as null if it has no
such counter or pool) and `--skip` the cases it cannot finish.
"""

import argparse
import json
import os
import platform
from fractions import Fraction

from lefdefect import _purekernels
from lefdefect.effectivity import torus_defect
from lefdefect.exactmath import RealNumberField
from lefdefect.torus import ComplexTorus, elliptic, product

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_search.json")


def power_of_ei(k):
    return lambda: product([elliptic(0, 1, label=f"E{i}") for i in range(k)])


def curves_over_q(*taus):
    """Product of the curves tau = a + i*s over Q, one per (a, s) in `taus`."""
    return lambda: product([elliptic(Fraction(a), Fraction(s), label=f"E{i}")
                            for i, (a, s) in enumerate(taus)])


# (i, j, k): U <- U (I + k e_ij), as `tests/references.unimodular` draws
# them (its six steps from random.Random(0) on size 6).
MIXING = ((3, 5, -2), (2, 4, 2), (3, 2, 2), (2, 4, -1), (4, 1, 1), (1, 0, 1))


def mixed(build, steps):
    """build()'s torus, whose J must be rational, on the lattice basis given
    by the columns of U = prod (I + k e_ij) over `steps`: J -> U^-1 J U."""
    def matmul(A, B):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]

    def rebuilt():
        A = build()
        size = 2 * A.n
        U = [[int(i == j) for j in range(size)] for i in range(size)]
        U_inv = [row[:] for row in U]
        for i, j, k in steps:
            for row in U:
                row[j] += k * row[i]
            U_inv[i] = [a - k * b for a, b in zip(U_inv[i], U_inv[j])]
        J = [[Fraction(x, A.j_den) for x in row] for row in A.j_parts[0]]
        return ComplexTorus(A.field, matmul(U_inv, matmul(J, U)))
    return rebuilt


def over_quartic(betas):
    """Product of the curves tau = i * alpha^k, k in `betas`, over Q(2^(1/4))."""
    def build():
        K = RealNumberField([-2, 0, 0, 0, 1], (Fraction(1), Fraction(3, 2)))
        alpha = K.alpha()
        return product([elliptic(0, alpha**k, label=f"E{i}") for i, k in enumerate(betas)])
    return build


def rational_pair():
    """tau = 1/2 + 2i and tau = -1/3 + (3/2)i: isogenous, rho = 4."""
    return product([elliptic(Fraction(1, 2), 2, label="E1"),
                    elliptic(Fraction(-1, 3), Fraction(3, 2), label="E2")])


def survey_pair():
    """tau = 2/3 + (3/2)i and tau = 1/3 + (2/3)i: isogenous, rho = 4."""
    return product([elliptic(Fraction(2, 3), Fraction(3, 2), label="E1"),
                    elliptic(Fraction(1, 3), Fraction(2, 3), label="E2")])


def quartic_pair():
    """tau = 1/2 + i(1 + alpha) and tau = -1/3 + i*alpha over Q(2^(1/4)):
    not isogenous, no CM, rho = 2."""
    K = RealNumberField([-2, 0, 0, 0, 1], (Fraction(1), Fraction(3, 2)))
    alpha = K.alpha()
    return product([elliptic(Fraction(1, 2), K.one() + alpha, label="E1"),
                    elliptic(Fraction(-1, 3), alpha, label="E2")])


CASES = (("E_i^2, box 2", power_of_ei(2), 2), ("E_i^2, box 3", power_of_ei(2), 3),
         ("E_i^3, box 1", power_of_ei(3), 1), ("E_i^3, box 2", power_of_ei(3), 2),
         ("E_i^3, box 3", power_of_ei(3), 3), ("E_i^4, box 1", power_of_ei(4), 1),
         ("E_i^3 mixed basis, box 1", mixed(power_of_ei(3), MIXING), 1),
         ("eia2, box 2", over_quartic((1, 1)), 2),
         ("triple, box 1", over_quartic((0, 1, 2)), 1),
         ("ei2_x_nocm, box 1", over_quartic((0, 0, 1)), 1),
         ("Q pair, box 3", rational_pair, 3),
         ("survey pair, box 3", survey_pair, 3),
         ("quartic pair, box 2", quartic_pair, 2),
         ("E_i^2 x E_(1/3+3i), box 2", curves_over_q((0, 1), (0, 1), ("1/3", 3)), 2),
         ("E_i^3 x E_(1/3+3i), box 1", curves_over_q((0, 1), (0, 1), (0, 1), ("1/3", 3)), 1),
         ("E_i x E_2i x E_3i, box 2", curves_over_q((0, 1), (0, 2), (0, 3)), 2))

def count_search(build, box):
    """The answer and the work of one search on a fresh `build()`: delta,
    `classes_scanned`, `nodes_visited` (None without such a counter), the
    `psd_rank` calls (`eliminations`), the size of the pool of cuts (`cuts`,
    None without a pool) and the leaves that `evaluate` found effective
    (`leaves`), counted by wrapping the module's functions and the search
    classes' `evaluate`."""
    psd_rank, scan_range = _purekernels.psd_rank, _purekernels.scan_range
    classes = (_purekernels.IntSearch, _purekernels.FieldSearch)
    evaluates = [cls.evaluate for cls in classes]
    eliminations = [0]
    leaves = [0]
    searches = []

    def counted(*args):
        eliminations[0] += 1
        return psd_rank(*args)

    def scanned(search, *args):
        searches.append(search)
        return scan_range(search, *args)

    def counting(evaluate):
        def counted_leaf(search, leaf):
            verdict = evaluate(search, leaf)
            leaves[0] += bool(verdict[0])
            return verdict
        return counted_leaf

    _purekernels.psd_rank, _purekernels.scan_range = counted, scanned
    for cls, evaluate in zip(classes, evaluates):
        cls.evaluate = counting(evaluate)
    try:
        result = torus_defect(build(), box=box)
    finally:
        _purekernels.psd_rank, _purekernels.scan_range = psd_rank, scan_range
        for cls, evaluate in zip(classes, evaluates):
            cls.evaluate = evaluate
    cuts = getattr(searches[-1], "cuts", None) if searches else None
    return {
        "delta": result.delta,
        "classes_scanned": result.classes_scanned,
        "nodes_visited": getattr(result, "nodes_visited", None),
        "eliminations": eliminations[0],
        "cuts": None if cuts is None else len(cuts),
        "leaves": leaves[0],
    }


def save_run(path, label, **fields):
    """Store one run under `label` in the benchmark file `path`, with the
    interpreter and the host, replacing an earlier run with that label."""
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = [r for r in json.load(handle)["runs"] if r["label"] != label]
    runs.append({"label": label, "python": platform.python_version(),
                 "machine": platform.machine(), "nproc": os.cpu_count(), **fields})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=2)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--skip", nargs="*", default=[], help="case names to leave out")
    args = parser.parse_args()

    rows = []
    print(f"{'case':<26} {'delta':>5} {'classes':>10} {'nodes':>7} {'elims':>7} "
          f"{'cuts':>5} {'leaves':>7}")
    for name, build, box in CASES:
        if name in args.skip:
            continue
        row = {"case": name, **count_search(build, box)}
        rows.append(row)
        print(f"{name:<26} " + " ".join(
            f"{'-' if row[key] is None else row[key]:>{width}}"
            for key, width in (("delta", 5), ("classes_scanned", 10), ("nodes_visited", 7),
                               ("eliminations", 7), ("cuts", 5), ("leaves", 7))))
    save_run(OUT, args.label, cases=rows)


if __name__ == "__main__":
    main()
