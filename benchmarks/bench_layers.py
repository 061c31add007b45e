"""Benchmark stages: the layers that read a torus's complex structure J.

On the products of curves of `bench_search.py` (E_i^2, E_i^3 and E_i^4
over Q, three products over Q(2^(1/4)), two pairs of curves over Q and one
over Q(2^(1/4)), E_i^2 x E_(1/3+3i), E_i^3 x E_(1/3+3i) and
E_i x E_2i x E_3i; not the mixed-basis E_i^3, whose J is one block, with
no curves to rebuild or write as a document) `STAGES` runs, each as one
call on inputs prepared from the torus:

* `elliptic`: constructing the torus's curves from their (a, beta), read
  off the curves' J (`curve_data`),
* `build`: constructing the product torus from the same curve data,
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
  by each such W (a fresh `Sublattice`, so its complement is computed too),
  and `divisor_case_data` and `defect_of_class` on fresh copies of
  every effective form,
* `radical` and `ns_cup_matrix` (the integer cup-product matrix on the NS
  basis that `defect_of_class` eliminates) on fresh copies of every
  effective form, and `saturate` on the rational kernel bases that
  `radical` saturates (those of the nonzero radicals),
* `check_voisin`, the restriction and Poincare-dual kernels on every
  corank-2 coordinate sublattice,
* `search_data`: the search's set-up (`_search`: the symmetric parts'
  nonzero entries, the cup table from `ns_cup_matrix` and the test plan) on
  the torus, whose NS basis is already built,
* `ns_coordinates` on fresh copies of the fiber forms, and
* the search's scalar layers: `integral_sign` and `nf_sign` on every
  nonzero entry of the sample forms' symmetric parts (as
  `IntegralElement`s and as `AlgebraicReal`s), `psd_rank` on those
  symmetric parts, and `rank` on the integer NS cup matrices.

A stage is (name, prepare, run, count): `prepare` builds the input of one
call from a `Sample` of the torus, `run` is the layer, and `count` turns
its result into counts (Picard number, Hom ranks summed, effective forms,
nonzero radicals, the quotients' Picard numbers summed, the Iitaka
dimensions and defects summed, the radical ranks and NS cup-matrix ranks
summed, the Voisin verdict, the document's Picard number, the entry signs
summed, the `psd_rank` values summed, the nonzero entries of the search's
symmetric parts, the number of fiber forms that are NS classes, and the J
denominators of the curves and of the product).  Stages that share a count key must agree on it
(`integral_sign` and `nf_sign`; `radical` and `saturate`; `ns_cup_matrix`
and `rank`).

This script reads no clock: `bench_ab.py` times each (torus, stage) in one
process against an older revision.  Run on its own, it evaluates every
stage once per torus and stores the counts in BENCH_layers.json next to
this script as one run under `--label`, replacing an earlier run with the
same label, so the counts of two checkouts sit side by side.

Usage:
    PYTHONPATH=src python benchmarks/bench_layers.py [--label NAME]

To count on an older checkout with this script, point PYTHONPATH at its `src`.
"""

import argparse
import json
import os
import tempfile
from collections import namedtuple
from fractions import Fraction

from bench_search import CASES, save_run
from lefdefect import _purekernels, effectivity
from lefdefect.checks import check_voisin, isogeny_spec_of
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
    factor_blocks,
    fiber_pairs,
    hom_rank,
    ns_basis,
    ns_coordinates,
    ns_rank,
    product,
    quotient,
    subtorus,
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_layers.json")

# A torus built by `build`, with its NS basis built, and what the stages draw
# on, computed once: the path of its torus document, its sample forms (as
# matrices), the effective ones among them, the bases of their nonzero
# radicals, the nonzero rational kernel bases of the effective forms, the
# sample forms' symmetric parts, the nonzero entries of these as
# `IntegralElement`s and as `AlgebraicReal`s, and the NS cup matrices of the
# effective forms.
Sample = namedtuple("Sample", "build A document forms effective radicals kernels parts entries"
                              " reals cups")
Stage = namedtuple("Stage", "name prepare run count")


def sample_forms(A):
    basis = ns_basis(A)
    size = 2 * A.n
    h = [[0] * size for _ in range(size)]
    for block in fiber_pairs(A):
        for i, j in block:
            h[i][j], h[j][i] = 1, -1
    forms = [b.num for b in basis] + [h]  # NS basis forms are primitive integer forms
    forms += [[[x + y for x, y in zip(rb, rh)] for rb, rh in zip(b.num, h)] for b in basis]
    return forms


def layer_tori():
    """(name, build) of each torus among `CASES` whose J is block diagonal
    in curves (it has an `isogeny_spec_of`), once per torus (the
    mixed-basis E_i^3 is one block)."""
    tori = {}
    for name, build, _ in CASES:
        torus = name.split(",")[0]
        if torus not in tori and isogeny_spec_of(build()) is not None:
            tori[torus] = build
    return list(tori.items())


def curves(A):
    """The curves on the diagonal blocks of J of a torus of `layer_tori`.

    Read through `factor_blocks` and `isogeny_spec_of`, which older
    checkouts have too, so that `bench_ab.py` runs every stage on them."""
    return [f for _, f in factor_blocks(A)]


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
            for a, beta in curve_data(A)
        ],
        "classes": fiber_forms(A),
    }
    if A.field.degree > 1:
        lo, hi = A.field.root_interval
        doc["field"] = {"min_poly": [int(c) for c in A.field.min_poly],
                        "root_interval": [format_rational(lo), format_rational(hi)]}
    return doc


def sample(build, directory):
    """The `Sample` of `build()`'s torus, its document written under
    `directory`."""
    A = build()
    handle, document = tempfile.mkstemp(suffix=".json", dir=directory)
    with os.fdopen(handle, "w", encoding="utf-8") as out:
        json.dump(torus_document(A), out)
    forms = sample_forms(A)
    effective = [m for m in forms if is_effective_class(A, AlternatingForm(A, m))]
    radicals = [W.basis for W in (radical(A, AlternatingForm(A, m)) for m in effective) if W.rank]
    kernels = [k for k in (kernel_basis(AlternatingForm(A, m).num) for m in effective) if k]
    parts = [symmetric_part(A, AlternatingForm(A, m)) for m in forms]
    pad = (0,) * (A.field.degree - 1)
    entries = [x if isinstance(x, IntegralElement) else IntegralElement(A.field, (x,) + pad)
               for S in parts for row in S for x in row if x != 0]
    reals = [A.field.element(x.coeffs) for x in entries]
    cups = [ns_cup_matrix(A, E) for _, E in fresh(A, effective)]
    return Sample(build, A, document, forms, effective, radicals, kernels, parts, entries, reals,
                  cups)


def curve_data(A):
    """(a, beta) of each curve of A, read off its J: on the basis (1, tau),
    J = [[-a/beta, -beta - a^2/beta], [1/beta, a/beta]]."""
    data = []
    for E in curves(A):
        j10 = [Jk[1][0] for Jk in E.j_parts]
        k = next(k for k, x in enumerate(j10) if x)
        a = Fraction(E.j_parts[k][1][1], j10[k])
        data.append((a, E.j_den / E.field.element(j10)))
    return data


def fresh(A, matrices):
    """(A, a new form) per matrix: nothing cached on the forms."""
    return [(A, AlternatingForm(A, m)) for m in matrices]


def each(layer):
    return lambda calls: [layer(*args) for args in calls]


def psd_rank_calls(T):
    kind = _search_class(T.A)
    return [(S, range(len(S)), kind.sign, kind.quotient) for S in T.parts]


STAGES = (
    Stage("elliptic", lambda T: curve_data(T.A), each(elliptic),
          lambda curves: {"curve_j_den_sum": sum(E.j_den for E in curves)}),
    Stage("build", lambda T: curve_data(T.A),
          lambda curves: product([elliptic(a, beta) for a, beta in curves]),
          lambda A: {"j_den": A.j_den}),
    Stage("load_document", lambda T: T.document, load_document,
          lambda doc: {"document_rho": ns_rank(doc.torus)}),
    Stage("ns_basis", lambda T: T.build(), ns_basis, lambda basis: {"rho": len(basis)}),
    Stage("hom_rank",
          lambda T: [(X, Y) for X in (*curves(T.A), T.A) for Y in (*curves(T.A), T.A)],
          each(hom_rank), lambda ranks: {"hom_rank_sum": sum(ranks)}),
    Stage("is_effective_class", lambda T: fresh(T.A, T.forms), each(is_effective_class),
          lambda verdicts: {"forms": len(verdicts), "effective_forms": sum(verdicts)}),
    Stage("subtorus", lambda T: [(T.A, basis) for basis in T.radicals], each(subtorus),
          lambda lattices: {"radicals": len(lattices)}),
    Stage("quotient", lambda T: [(T.A, Sublattice(T.A, basis)) for basis in T.radicals],
          each(quotient), lambda quotients: {"quotient_rho_sum": sum(map(ns_rank, quotients))}),
    Stage("divisor_case_data", lambda T: fresh(T.A, T.effective), each(divisor_case_data),
          lambda data: {"iitaka_dim_sum": sum(b for b, *_ in data)}),
    Stage("defect_of_class", lambda T: fresh(T.A, T.effective), each(defect_of_class),
          lambda defects: {"defect_sum": sum(defects)}),
    Stage("radical", lambda T: fresh(T.A, T.effective), each(radical),
          lambda lattices: {"radical_rank_sum": sum(W.rank for W in lattices)}),
    Stage("saturate", lambda T: [(k, 2 * T.A.n) for k in T.kernels], each(saturate),
          lambda bases: {"radical_rank_sum": sum(map(len, bases))}),
    Stage("ns_cup_matrix", lambda T: fresh(T.A, T.effective), each(ns_cup_matrix),
          lambda matrices: {"ns_cup_rank_sum": sum(map(rank, matrices))}),
    Stage("check_voisin", lambda T: T.A, check_voisin, lambda result: {"voisin": result.status}),
    # `_search` is read at call time: `bench_ab.py` imports this script for
    # an older package too, where this name may differ.
    Stage("search_data", lambda T: T.A, lambda A: effectivity._search(A),
          lambda search: {"search_entries": sum(map(len, search.nonzero))}),
    Stage("ns_coordinates", lambda T: fresh(T.A, fiber_forms(T.A)), each(ns_coordinates),
          lambda coords: {"fiber_ns_classes": sum(c is not None for c in coords)}),
    Stage("integral_sign", lambda T: T.entries, lambda xs: sum(map(integral_sign, xs)),
          lambda total: {"sign_sum": total}),
    Stage("nf_sign", lambda T: T.reals, lambda ys: sum(map(nf_sign, ys)), lambda total: {"sign_sum": total}),
    Stage("psd_rank", psd_rank_calls, each(_purekernels.psd_rank),
          lambda results: {"psd_rank_sum": sum(r[0] for r in results)}),
    Stage("rank", lambda T: T.cups, lambda matrices: list(map(rank, matrices)),
          lambda ranks: {"ns_cup_rank_sum": sum(ranks)}),
)


def evaluate(T):
    """{count key: value} of one run of every stage on the sample `T`."""
    counts = {}
    for stage in STAGES:
        for key, value in stage.count(stage.run(stage.prepare(T))).items():
            if counts.setdefault(key, value) != value:
                raise AssertionError(f"{stage.name}: {key} = {value}, not {counts[key]}")
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="current")
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for torus, build in layer_tori():
            counts = evaluate(sample(build, tmp))
            rows.append({"torus": torus, **counts})
            print(f"{torus:<18} " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    save_run(OUT, args.label, tori=rows)


if __name__ == "__main__":
    main()
