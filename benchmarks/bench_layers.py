"""Benchmark: the layers that read a torus's complex structure J.

On the declared products of `bench_search.py` (E_i^2, E_i^3 and E_i^4 over
Q, three products over Q(2^(1/4)), and a pair of curves over each of Q and
Q(2^(1/4)); not the mixed-basis E_i^3, which has no declared curves to
rebuild or write as a document) it times, each as the best of `--repeat`
runs:

* `elliptic`: constructing the torus's curves from their (a, beta),
* `build`: constructing the product torus from its curves,
* `load_document`: parsing one written torus document of the same curves,
  with every block's fiber class declared (field, curves, product, classes
  and their Hodge test),
* `ns_basis`: the NS basis of a freshly built torus (nothing cached),
* `hom_rank`: Hom ranks between every ordered pair of factors and of the
  torus with itself,
* `is_effective_class`: the effectivity test on fresh copies of every NS
  basis form b, the product polarization h (the sum of the fiber forms) and
  every h + b,
* the per-divisor path on the effective ones among these forms:
  `subtorus` re-certifying the basis of each nonzero radical W, `quotient`
  by each such W (a fresh `Sublattice`, so its complement is timed too),
  and `divisor_case_data` and `defect_of_class` on fresh copies of
  every effective form,
* `radical` and `ns_cup_matrix` (the integer cup-product matrix on the NS
  basis that `defect_of_class` eliminates) on fresh copies of every
  effective form, and `saturate` on the rational kernel bases that
  `radical` saturates (those of the nonzero radicals), and
* `check_voisin`, the restriction and Poincare-dual kernels on every
  corank-2 coordinate sublattice,
* `search_data`: the search's set-up (`_search`: the symmetric parts'
  nonzero entries, the cup table from `ns_cup_matrix` and the test plan) on
  the torus, whose NS basis is already built,
* `structured_candidates`: the search's structured candidate vectors
  (`_structured_candidate_vectors`, on the torus, whose NS basis is
  already built), and `ns_coordinates` on fresh copies of the fiber forms,
  and
* three micro-benchmarks of the search's scalar layers: `integral_sign`
  and `nf_sign` on every nonzero entry of the sample forms' symmetric parts
  (as `IntegralElement`s and as `AlgebraicReal`s), `psd_rank` on those
  symmetric parts, and `rank` on the integer NS cup matrices.

Counts (Picard number, Hom ranks summed, effective forms, nonzero radicals,
the quotients' Picard numbers summed, the Iitaka dimensions and defects
summed, the radical ranks and NS cup-matrix ranks summed, the Voisin
verdict, the document's Picard number, the entry signs summed, the
`psd_rank` values summed, the nonzero entries of the search's symmetric
parts, the number of structured candidate vectors and the number of fiber
forms that are NS classes) are recorded next to the
times, so two checkouts can be checked for equal answers.  Results go to
BENCH_layers.json next to this script as one run under `--label`, replacing
an earlier run with the same label, so runs of two checkouts sit side by side.

Usage:
    PYTHONPATH=src python benchmarks/bench_layers.py [--label NAME] [--repeat N]

To time an older checkout with this script, point PYTHONPATH at its `src`.
"""

import argparse
import json
import os
import platform
import tempfile
import time

from bench_search import CASES
from lefdefect import _purekernels, effectivity
from lefdefect.checks import check_voisin
from lefdefect.cohomology import defect_of_class, ns_cup_matrix
from lefdefect.exactmath import (
    IntegralElement,
    format_rational,
    integral_sign,
    kernel_basis,
    nf_sign,
    rank,
    saturate,
)
from lefdefect.effectivity import (
    _search_class,
    divisor_case_data,
    is_effective_class,
    radical,
    symmetric_part,
)
from lefdefect.schema import load_document
from lefdefect.torus import (
    AlternatingForm,
    Sublattice,
    elliptic,
    fiber_pairs,
    hom_rank,
    ns_basis,
    ns_coordinates,
    ns_rank,
    quotient,
    subtorus,
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_layers.json")


def best_time(run, prepare, repeat):
    """(result of the last run, best wall time of `repeat` runs of
    run(prepare()); prepare is not timed)."""
    times = []
    for _ in range(repeat):
        arg = prepare()
        started = time.perf_counter()
        result = run(arg)
        times.append(time.perf_counter() - started)
    return result, min(times)


def sample_forms(A):
    basis = ns_basis(A)
    size = 2 * A.n
    h = [[0] * size for _ in range(size)]
    for block in fiber_pairs(A):
        for i, j in block:
            h[i][j], h[j][i] = 1, -1
    forms = [b.matrix for b in basis] + [h]
    forms += [[[x + y for x, y in zip(rb, rh)] for rb, rh in zip(b.matrix, h)] for b in basis]
    return forms


def sample_radicals(A):
    """(the effective forms among `sample_forms(A)`, the bases of their
    nonzero radicals)."""
    effective = [m for m in sample_forms(A) if is_effective_class(A, AlternatingForm(A, m))]
    radicals = [W.basis for W in (radical(A, AlternatingForm(A, m)) for m in effective) if W.rank]
    return effective, radicals


def layer_tori():
    """(name, build) of each declared product among `CASES`, once per torus
    (the mixed-basis E_i^3 has no declared curves)."""
    tori = {}
    for name, build, _ in CASES:
        torus = name.split(",")[0]
        if torus not in tori and build().factors is not None:
            tori[torus] = build
    return list(tori.items())


def fiber_forms(A):
    size = 2 * A.n
    forms = []
    for block in fiber_pairs(A):
        m = [[0] * size for _ in range(size)]
        for i, j in block:
            m[i][j], m[j][i] = 1, -1
        forms.append(m)
    return forms


def torus_document(A):
    """The CLI document of A's curves, with every block's fiber class."""
    doc = {
        "kind": "torus",
        "blocks": [
            {"a": format_rational(a), "beta": [format_rational(c) for c in beta.coeffs]}
            for a, beta in (f._elliptic_tau for f in A.factors)
        ],
        "classes": fiber_forms(A),
    }
    if A.field.degree > 1:
        lo, hi = A.field.root_interval
        doc["field"] = {"min_poly": [int(c) for c in A.field.min_poly],
                        "root_interval": [format_rational(lo), format_rational(hi)]}
    return doc


def measure(build, repeat):
    A, build_s = best_time(lambda _: build(), lambda: None, repeat)
    taus = [f._elliptic_tau for f in A.factors]
    _, elliptic_s = best_time(
        lambda _: [elliptic(a, beta) for a, beta in taus], lambda: None, repeat)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "torus.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(torus_document(A), handle)
        doc, load_s = best_time(load_document, lambda: path, repeat)
    basis, ns_s = best_time(ns_basis, build, repeat)
    tori = list(A.factors) + [A]
    hom_total, hom_s = best_time(
        lambda pairs: sum(hom_rank(X, Y) for X, Y in pairs),
        lambda: [(X, Y) for X in tori for Y in tori], repeat)
    forms = sample_forms(A)
    effective, effective_s = best_time(
        lambda fresh: sum(is_effective_class(A, E) for E in fresh),
        lambda: [AlternatingForm(A, m) for m in forms], repeat)
    effective_forms, radicals = sample_radicals(A)
    _, subtorus_s = best_time(
        lambda bases: [subtorus(A, basis) for basis in bases], lambda: radicals, repeat)
    quotients, quotient_s = best_time(
        lambda lattices: [quotient(A, W) for W in lattices],
        lambda: [Sublattice(A, basis) for basis in radicals], repeat)
    case_data, case_s = best_time(
        lambda fresh: [divisor_case_data(A, E) for E in fresh],
        lambda: [AlternatingForm(A, m) for m in effective_forms], repeat)
    defects, defect_s = best_time(
        lambda fresh: [defect_of_class(A, E) for E in fresh],
        lambda: [AlternatingForm(A, m) for m in effective_forms], repeat)
    lattices, radical_s = best_time(
        lambda fresh: [radical(A, E) for E in fresh],
        lambda: [AlternatingForm(A, m) for m in effective_forms], repeat)
    kernels = [k for k in (kernel_basis(AlternatingForm(A, m).num) for m in effective_forms) if k]
    _, saturate_s = best_time(
        lambda bases: [saturate(k, 2 * A.n) for k in bases], lambda: kernels, repeat)
    cup_matrices, cup_s = best_time(
        lambda fresh: [ns_cup_matrix(A, E) for E in fresh],
        lambda: [AlternatingForm(A, m) for m in effective_forms], repeat)
    voisin, voisin_s = best_time(lambda _: check_voisin(A), lambda: None, repeat)
    # Read at call time: `bench_ab.py` imports this script for an older
    # package too, where these names may differ, and never calls `measure`.
    search, search_data_s = best_time(effectivity._search, lambda: A, repeat)
    structured, structured_s = best_time(
        effectivity._structured_candidate_vectors, lambda: A, repeat)
    fiber_coords, coords_s = best_time(
        lambda fresh: [ns_coordinates(A, E) for E in fresh],
        lambda: [AlternatingForm(A, m) for m in fiber_forms(A)], repeat)
    kind = _search_class(A)
    parts = [symmetric_part(A, AlternatingForm(A, m)) for m in forms]
    pad = (0,) * (A.field.degree - 1)
    entries = [x if isinstance(x, IntegralElement) else IntegralElement(A.field, (x,) + pad)
               for S in parts for row in S for x in row if x != 0]
    reals = [A.field.element(x.coeffs) for x in entries]
    int_sign_sum, integral_sign_s = best_time(
        lambda xs: sum(map(integral_sign, xs)), lambda: entries, repeat)
    nf_sign_sum, nf_sign_s = best_time(lambda ys: sum(map(nf_sign, ys)), lambda: reals, repeat)
    psd, psd_s = best_time(
        lambda ms: sum(_purekernels.psd_rank(S, range(len(S)), kind.sign, kind.quotient)[0]
                       for S in ms), lambda: parts, repeat)
    _, rank_s = best_time(lambda ms: [rank(M) for M in ms], lambda: cup_matrices, repeat)
    if int_sign_sum != nf_sign_sum:
        raise AssertionError("integral_sign and nf_sign disagree")
    return {
        "rho": len(basis),
        "hom_rank_sum": hom_total,
        "forms": len(forms),
        "effective_forms": effective,
        "radicals": len(radicals),
        "quotient_rho_sum": sum(ns_rank(B) for B in quotients),
        "iitaka_dim_sum": sum(b for b, *_ in case_data),
        "defect_sum": sum(defects),
        "radical_rank_sum": sum(W.rank for W in lattices),
        "ns_cup_rank_sum": sum(rank(M) for M in cup_matrices),
        "voisin": voisin.status,
        "document_rho": ns_rank(doc.torus),
        "sign_sum": int_sign_sum,
        "psd_rank_sum": psd,
        "search_entries": sum(len(entries) for entries in search.nonzero),
        "structured_vectors": len(structured),
        "fiber_ns_classes": sum(c is not None for c in fiber_coords),
        "seconds": {
            "elliptic": round(elliptic_s, 5),
            "build": round(build_s, 5),
            "load_document": round(load_s, 5),
            "ns_basis": round(ns_s, 5),
            "hom_rank": round(hom_s, 5),
            "is_effective_class": round(effective_s, 5),
            "subtorus": round(subtorus_s, 5),
            "quotient": round(quotient_s, 5),
            "divisor_case_data": round(case_s, 5),
            "defect_of_class": round(defect_s, 5),
            "radical": round(radical_s, 5),
            "saturate": round(saturate_s, 5),
            "ns_cup_matrix": round(cup_s, 5),
            "check_voisin": round(voisin_s, 5),
            "search_data": round(search_data_s, 5),
            "structured_candidates": round(structured_s, 5),
            "ns_coordinates": round(coords_s, 5),
            "integral_sign": round(integral_sign_s, 5),
            "nf_sign": round(nf_sign_s, 5),
            "psd_rank": round(psd_s, 5),
            "rank": round(rank_s, 5),
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rows = []
    columns = ("elliptic", "build", "load_document", "ns_basis", "hom_rank",
               "is_effective_class", "subtorus", "quotient", "divisor_case_data",
               "defect_of_class", "radical", "saturate", "ns_cup_matrix", "check_voisin",
               "search_data", "structured_candidates", "ns_coordinates", "integral_sign", "nf_sign", "psd_rank", "rank")
    print(f"{'torus':<12} {'rho':>4} " + " ".join(f"{c[:9]:>9}" for c in columns))
    for torus, build in layer_tori():
        row = {"torus": torus, **measure(build, args.repeat)}
        rows.append(row)
        t = row["seconds"]
        print(f"{torus:<12} {row['rho']:>4} " + " ".join(f"{t[c]:>9.5f}" for c in columns))

    runs = []
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as handle:
            runs = [r for r in json.load(handle)["runs"] if r["label"] != args.label]
    runs.append({
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeat": args.repeat,
        "tori": rows,
    })
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
