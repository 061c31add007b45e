"""Differential tests: the pruned search and `psd_rank` against a brute force.

The reference scans every point of the coefficient box in position order and
decides semidefiniteness by the signs of all principal minors, computed by
Gaussian elimination with exact division (Fractions over Q, field division
over a number field).  For a PSD matrix the rank is the size of its largest
nonsingular principal block, so the same minors give the form rank.  The
search stores number-field entries in Z[alpha] (`IntegralElement`); the
reference converts them exactly back to `AlgebraicReal`s.  The Z[alpha]
product and quotient, and the field's own arithmetic on elements with
denominators, are compared with a polynomial product over `Fraction`s
reduced by long division by min_poly, and signs with a fresh bisection of
the declared root interval.  The search
tree is compared too: its node count is at most the count by definition
(every child of a prefix whose fixed principal blocks are all PSD), and
its test plan is the maximal principal blocks, per connected component of
the S_b, that become fixed at each depth.  `psd_rank`'s failure
certificates are checked against v^T M v computed directly, and every cut
in the search's pool against its weights computed exactly and against
every effective class the reference finds.

The search's set-up (`_search`, which keeps the S_b as nonzero entries
read off the integer products E_b * (D J_k) and takes its cup table from
`ns_cup_matrix`) is compared with one built from the dense
`symmetric_part` matrices and a `wedge` of every ordered pair.  The rule
that skips the structured extras when every one lies in the box is checked
on synthetic fiber coordinates and against the candidates a search would
otherwise build.  The structured candidates are compared with a reference that
builds every candidate as a form: the fiber forms with their Hodge test, their subset
sums, the Poincare duals of the corank-2 coordinate-factor sublattices, and
one reference `solve` over the NS basis per form.

`ns_basis`, `is_hodge`, `hom_rank` and `is_effective_class` read J only as
its integer components D * J_k; they are compared with the field-level
constructions they replaced (J^T E J = E and J_B M = M J_A restricted to Q,
and the AlgebraicReal S = E * J decided by all principal minors).
`is_effective_class` tests each connected component of S's nonzero pattern
on its own; it is also compared with all principal minors of the dense
`symmetric_part`, on declared products and on bases that mix their blocks
into one component.
"""

import copy
import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lefdefect import _purekernels
from lefdefect.classifier import classify
from lefdefect.checks import isogeny_spec_of
from lefdefect.cohomology import poincare_dual, wedge, wedge_basis
from lefdefect.effectivity import (
    _box_extras,
    _candidates_from_fibers,
    _extras_inside_box,
    _search,
    _structured_candidate_vectors,
    defect_survey,
    is_effective_class,
    symmetric_part,
    torus_defect,
)
from lefdefect.errors import ConsistencyError
from lefdefect.exactmath import (
    AlgebraicReal,
    IntegralElement,
    RealNumberField,
    integral_enclosure,
    integral_quotient,
    integral_sign,
    kernel_basis,
    nf_sign,
    norm_adjugate,
    primitive_integer_vector,
    rank,
    restrict_scalars,
)
from lefdefect.schema import load_document
from references import (
    dense_matmul,
    elliptic_products,
    field_j,
    field_product,
    parts_matrix,
    rebase,
    rebased,
    reference_field_product,
    reference_ns_coordinates,
    reference_sign,
    unimodular,
)
from lefdefect.torus import (
    AlternatingForm,
    ComplexTorus,
    coordinate_factor_sublattices,
    elliptic,
    factor_blocks,
    fiber_pairs,
    hom_rank,
    ns_basis,
    ns_coordinates,
    ns_rank,
    product,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def _sign(x):
    if isinstance(x, AlgebraicReal):
        return nf_sign(x)
    return (x > 0) - (x < 0)


def _det(rows):
    a = [[x if isinstance(x, AlgebraicReal) else Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = a[c][c] * det
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def reference_psd_rank(M):
    """Rank of M if all its principal minors are >= 0, else -1."""
    n = len(M)
    top = 0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = _sign(_det([[M[i][j] for j in subset] for i in subset]))
            if s < 0:
                return -1
            if s > 0:
                top = size
    return top


def reference_record(s_basis, w_pairs, coeffs):
    """(defect, form_rank) of an effective coefficient vector, else None."""
    rho, N = len(s_basis), len(s_basis[0])
    S = [[sum((c * m[r][k] for c, m in zip(coeffs, s_basis)), 0) for k in range(N)]
         for r in range(N)]
    form_rank = reference_psd_rank(S)
    if form_rank < 0:
        return None
    rows = [[sum(coeffs[i] * w_pairs[i][j][t] for i in range(rho))
             for t in range(len(w_pairs[0][0]))] for j in range(rho)]
    return rho - rank(rows), form_rank


def reference_scan(s_basis, w_pairs, box):
    """(delta, position, scanned, records) of a plain box scan."""
    best = (-1, -1)
    scanned = 0
    records = []
    span = range(-box, box + 1)
    for position, coeffs in enumerate(itertools.product(span, repeat=len(s_basis))):
        if not any(coeffs):
            continue
        scanned += 1
        found = reference_record(s_basis, w_pairs, coeffs)
        if found is None:
            continue
        if found[0] > best[0]:
            best = (found[0], position)
        records.append((position, coeffs) + found)
    return best[0], best[1], scanned, records


def fixed_after(s_basis, order):
    """last[r][c]: the depth (1-based position in `order`) of the last S_b
    with a nonzero entry (r, c); 0 when every S_b is zero there."""
    N = len(s_basis[0])
    last = [[0] * N for _ in range(N)]
    for depth, b in enumerate(order, 1):
        for r in range(N):
            for c in range(N):
                if s_basis[b][r][c] != 0:
                    last[r][c] = depth
    return last


def reference_nodes(s_basis, order, box):
    """Search-tree nodes by their definition: every child of a live prefix
    of coefficients (in `order`) is entered, and a prefix of length d is
    live when every principal block of S whose entries are all fixed by
    depth d is positive semidefinite (all principal minors >= 0)."""
    rho, N = len(s_basis), len(s_basis[0])
    last = fixed_after(s_basis, order)
    subsets = [I for k in range(1, N + 1) for I in itertools.combinations(range(N), k)]
    maximal = []
    for d in range(rho):
        fixed = [I for I in subsets if all(last[r][c] <= d for r in I for c in I)]
        maximal.append([I for I in fixed if not any(set(I) < set(J) for J in fixed)])
    nodes = 0

    def visit(prefix):
        nonlocal nodes
        d = len(prefix)
        if d == rho:
            return
        if d:
            S = [[sum(c * s_basis[b][r][k] for c, b in zip(prefix, order)) for k in range(N)]
                 for r in range(N)]
            if any(reference_psd_rank([[S[r][k] for k in I] for r in I]) < 0 for I in maximal[d]):
                return
        for c in range(-box, box + 1):
            nodes += 1
            visit(prefix + (c,))

    visit(())
    return nodes


def reference_plan(s_basis, order):
    """Per depth, the (block, component) pairs the search should test: the
    components are the connected components of the joint nonzero pattern of
    the S_b; within each, the maximal principal blocks whose entries are all
    fixed by that depth, some entry only just; the component's number goes
    with a block that is the whole component, else -1."""
    rho, N = len(s_basis), len(s_basis[0])
    last = fixed_after(s_basis, order)
    linked = [[any(m[r][c] != 0 for m in s_basis) for c in range(N)] for r in range(N)]
    components, placed = [], set()
    for start in range(N):
        if start in placed:
            continue
        members, frontier = {start}, [start]
        while frontier:
            r = frontier.pop()
            for c in range(N):
                if linked[r][c] and c not in members:
                    members.add(c)
                    frontier.append(c)
        placed |= members
        components.append(tuple(sorted(members)))
    plan = []
    for depth in range(1, rho + 1):
        tests = set()
        for k, K in enumerate(components):
            level = {I: max(last[r][c] for r in I for c in I)
                     for size in range(1, len(K) + 1) for I in itertools.combinations(K, size)}
            for I, at in level.items():
                if at == depth and not any(set(I) < set(J) and level[J] <= depth for J in level):
                    tests.add((I, k if I == K else -1))
        plan.append(tests)
    return sorted(components), plan


def sparse_parts(s_basis):
    """The nonzero entries (r, c, value) of dense matrices S_b, row by row,
    as the search takes them."""
    return [[(r, c, x) for r, row in enumerate(m) for c, x in enumerate(row) if x != 0]
            for m in s_basis]


def dense_parts(search):
    """The search's S_b as dense matrices: its nonzero entries, and its zero
    scalar everywhere else."""
    out = []
    for entries in search.nonzero:
        m = [[search.zero] * search.N for _ in range(search.N)]
        for r, c, x in entries:
            m[r][c] = x
        out.append(m)
    return out


def as_algebraic(M):
    """A matrix with its Z[alpha] entries converted exactly to AlgebraicReals."""
    return [[x.field.element(x.coeffs) if isinstance(x, IntegralElement) else x for x in row]
            for row in M]


def assert_pool_holds(search, box, s_basis, records):
    """Every cut in the pool of the last scan has exact bounds
    lo_l <= scale * w_l <= hi_l on its weights w_l = v^T S_{order[l]} v (as
    AlgebraicReals over a number field), the tail its bounds give, a prefix
    sum unwound to 0, and sum_l x_l w_l >= 0 at every effective class x of
    the reference `records`.  Returns the number of cuts."""
    rho, order = search.rho, search.order
    for cut in search.cuts.values():
        v = [(i, x.field.element(x.coeffs) if isinstance(x, IntegralElement) else x)
             for i, x in cut.vector]
        w = [sum((x * y * s_basis[b][i][j] for i, x in v for j, y in v), 0) for b in order]
        for lo, hi, w_l in zip(cut.lo, cut.hi, w):
            assert _sign(cut.scale * w_l - lo) >= 0 and _sign(hi - cut.scale * w_l) >= 0
        assert cut.tail == [box * sum(max(hi, -lo) for lo, hi in zip(cut.lo[l:], cut.hi[l:]))
                            for l in range(rho + 1)]
        assert cut.acc == 0
        for _, coeffs, _, _ in records:
            assert _sign(sum((coeffs[b] * w_l for b, w_l in zip(order, w)), 0)) >= 0
    return len(search.cuts)


def assert_search_matches_reference(search, box):
    """The scan against `reference_scan`, and its pool of cuts against the
    effective classes that the reference finds.  Returns the node count and
    the number of cuts."""
    delta, position, scanned, nodes, records = _purekernels.scan_range(search, box, True)
    s_basis = [as_algebraic(m) for m in dense_parts(search)]
    expected = reference_scan(s_basis, search.w_pairs, box)
    assert (delta, position, scanned, records) == expected
    assert scanned == (2 * box + 1) ** search.rho - 1
    assert 0 < nodes
    return nodes, assert_pool_holds(search, box, s_basis, expected[3])


@pytest.mark.parametrize(
    "name, box",
    [("ei2", 2), ("ei_x_e2i", 2), ("ei3", 1), ("eia2", 2), ("triple", 1), ("ei2_x_nocm", 1)],
)
def test_search_matches_reference_on_corpus(corpus, name, box):
    assert_search_matches_reference(_search(corpus[name]), box)


class LooseIntSearch(_purekernels.IntSearch):
    """An integer search whose cuts keep their weights w as the bounds
    (w - slack, w + slack), as loose as an interval enclosure over a number
    field can be, so that the search must use hi for a positive coefficient
    and lo for a negative one."""

    def __init__(self, slack, *args):
        super().__init__(*args)
        self.slack = slack

    def enclosures(self, weights):
        return 1, [(w - self.slack, w + self.slack) for w in weights]


@st.composite
def synthetic_search(draw):
    """Random symmetric integer S_b with random zero patterns, random w.

    Half the draws give every S_b the same block-diagonal pattern of 2-3
    components on N <= 6 indices (as on a product of non-isogenous factors),
    and the boxes go up to 3 for rho <= 3, so sibling runs are long enough
    for cuts to fire at every level.  Half the searches keep their cuts'
    weights as loose bounds (`LooseIntSearch`).
    """
    rho = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        N = draw(st.integers(2, 6))
        parts = draw(st.integers(2, min(3, N)))
        component = list(range(parts)) + [rng.randrange(parts) for _ in range(N - parts)]
        rng.shuffle(component)
    else:
        N = draw(st.integers(1, 4))
        component = [0] * N
    m4 = draw(st.integers(1, 5))
    s_basis = []
    for _ in range(rho):
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[0] * N for _ in range(N)]
        for i in range(N):
            for j in range(i, N):
                if component[i] == component[j] and rng.random() < density:
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
        s_basis.append(m)
    w_pairs = [[[rng.randint(-2, 2) for _ in range(m4)] for _ in range(rho)]
               for _ in range(rho)]
    box = 1 if rho == 4 else draw(st.integers(1, 3))
    slack = draw(st.integers(0, 2))
    if slack:
        return LooseIntSearch(slack, sparse_parts(s_basis), w_pairs, N, 0), box
    return _purekernels.IntSearch(sparse_parts(s_basis), w_pairs, N, 0), box


@settings(max_examples=60, deadline=None)
@given(synthetic_search())
# S = x_0 + x_1 at box 1: at x = (-1, -1) the cut of v = e_0 has bound 0 at
# the prefix x_0 = -1, and (-1, 1), on that bound, is effective; a backjump
# on a bound that is not negative would skip it.
@example((_purekernels.IntSearch([[(0, 0, 1)], [(0, 0, 1)]], [[[1], [0]], [[0], [1]]], 1, 0), 1))
def test_search_matches_reference_on_synthetic_data(case):
    """Answers (`classes_scanned` among them) as the reference's; nodes
    at most the definition's count, since the pool of cuts also decides live
    prefixes with every completion in the box outside the effective cone."""
    search, box = case
    nodes, _ = assert_search_matches_reference(search, box)
    s_basis = dense_parts(search)
    components, plan = reference_plan(s_basis, search.order)
    assert search.components == components
    assert [set(tests) for tests in search.tests] == plan
    assert nodes <= reference_nodes(s_basis, search.order, box)


def test_pool_prunes_live_prefixes_on_a_survey_pair():
    """tau = 2/3 + 3i/2 and 1/3 + 2i/3 at box 3, a pair with the shape of
    the survey workload: cuts found in one subtree decide prefixes
    elsewhere whose own blocks are all PSD."""
    pair = product([elliptic(Fraction(2, 3), Fraction(3, 2)),
                    elliptic(Fraction(1, 3), Fraction(2, 3))])
    search = _search(pair)
    nodes, cuts = assert_search_matches_reference(search, 3)
    assert cuts > 0
    assert nodes < reference_nodes(dense_parts(search), search.order, 3)


@settings(max_examples=12, deadline=None)
@given(elliptic_products(max_count=2), st.integers(0, 2**32))
def test_search_matches_reference_on_random_products(A, seed):
    """Pairs over Q and Q(2^(1/4)), on the declared basis (one component per
    isogeny class) and on a basis that mixes the blocks.  Triples, whose
    reference minors are slow over the field, are the corpus cases."""
    search = _search(A)
    box = 2 if search.rho <= 2 else 1
    assert_search_matches_reference(search, box)
    assert_search_matches_reference(_search(rebased(A, random.Random(seed))), box)


def dense_search(A):
    """The search of A built from dense `symmetric_part` matrices, with the
    cup product of every ordered pair of basis elements."""
    basis = ns_basis(A)
    N = 2 * A.n
    pairs = [b.pair_num() for b in basis]
    w_pairs = [[wedge(N, 2, 2, p, q) for q in pairs] for p in pairs]
    nonzero = sparse_parts([symmetric_part(A, b) for b in basis])
    if A.rational_j:
        return _purekernels.IntSearch(nonzero, w_pairs, N, 0)
    zero = IntegralElement(A.field, (0,) * A.field.degree)
    return _purekernels.FieldSearch(nonzero, w_pairs, N, zero)


def assert_search_data_matches_dense(A):
    """`_search` reads the S_b off the integer products E_b * (D J_k) and
    its cup table off `ns_cup_matrix`, and the kernel counts rho and m4
    itself; its search must equal the one built from the dense matrices and
    a `wedge` of every ordered pair."""
    search, expected = _search(A), dense_search(A)
    assert type(search) is type(expected)
    assert (search.rho, search.N, search.m4) == (ns_rank(A), 2 * A.n,
                                                 len(wedge_basis(2 * A.n, 4)))
    assert search.zero == expected.zero
    assert search.nonzero == expected.nonzero
    assert [[type(x) for _, _, x in e] for e in search.nonzero] == \
        [[type(x) for _, _, x in e] for e in expected.nonzero]
    assert search.order == expected.order
    assert search.entries == expected.entries
    assert search.components == expected.components
    assert search.tests == expected.tests
    assert search.w_pairs == expected.w_pairs


def test_search_data_matches_dense_set_up_on_corpus(corpus):
    for A in corpus.values():
        assert_search_data_matches_dense(A)


@settings(max_examples=12, deadline=None)
@given(elliptic_products(), st.integers(0, 2**32))
def test_search_data_matches_dense_set_up_on_random_products(A, seed):
    assert_search_data_matches_dense(A)
    assert_search_data_matches_dense(rebased(A, random.Random(seed)))


def reference_single(s_basis, order, tests):
    """Per level t and test (idx, k) of `tests[t]`: whether no dense S_b of a
    level before t has a nonzero entry in idx x idx."""
    return [[not any(s_basis[b][r][c] != 0 for b in order[:t] for r in idx for c in idx)
             for idx, _ in level] for t, level in enumerate(tests)]


def counted_scan(search, box):
    """(result of `scan_range` with records, its pool's bounds in admission
    order, the number of `psd_rank` calls it made)."""
    psd_rank = _purekernels.psd_rank
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return psd_rank(*args)

    with mock.patch.object(_purekernels, "psd_rank", counted):
        result = _purekernels.scan_range(search, box, True)
    return result, list(search.cuts), calls[0]


def assert_memo_keeps_the_search(search, box):
    """The scan that reuses single-level verdicts equals the scan that
    eliminates every test (every flag False), down to nodes and the pool of
    cuts in admission order, with no more eliminations.  Returns both
    elimination counts."""
    plain = copy.copy(search)
    plain.single = [[False] * len(flags) for flags in search.single]
    got, cuts, calls = counted_scan(search, box)
    expected, plain_cuts, plain_calls = counted_scan(plain, box)
    assert got == expected
    assert cuts == plain_cuts
    assert calls <= plain_calls
    return calls, plain_calls


@settings(max_examples=60, deadline=None)
@given(synthetic_search())
def test_single_level_memo_on_synthetic_data(case):
    search, box = case
    s_basis = dense_parts(search)
    assert search.single == reference_single(s_basis, search.order, search.tests)
    assert_memo_keeps_the_search(search, box)


def test_single_level_flags_match_reference_on_corpus(corpus):
    """Plain and on a basis that mixes the blocks: on the declared products
    most tests are single-level, on mixed bases fewer."""
    flags = []
    for A in corpus.values():
        for X in (A, rebased(A, random.Random(0))):
            search = _search(X)
            expected = reference_single(dense_parts(search), search.order, search.tests)
            assert search.single == expected
            flags += [f for level in expected for f in level]
            assert_memo_keeps_the_search(search, 1)
    assert any(flags) and not all(flags)


@pytest.mark.parametrize("name, box, nodes, cuts, eliminations", [
    # tau = 2/3 + 3i/2 and 1/3 + 2i/3 over Q
    ("survey pair", 3, 484, 4, 39),
    # tau = 1/2 + i(1 + alpha) and -1/3 + i alpha over Q(2^(1/4))
    ("quartic pair", 2, 20, 2, 13),
])
def test_memo_saves_eliminations_on_survey_shaped_pairs(quartic_field, name, box, nodes, cuts,
                                                        eliminations):
    """`torus_defect` visits the nodes and keeps the cuts it did when every
    test ran `psd_rank` (`eliminations` calls then), with fewer calls."""
    if name == "survey pair":
        A = product([elliptic(Fraction(2, 3), Fraction(3, 2)),
                     elliptic(Fraction(1, 3), Fraction(2, 3))])
    else:
        alpha = quartic_field.alpha()
        A = product([elliptic(Fraction(1, 2), quartic_field.one() + alpha),
                     elliptic(Fraction(-1, 3), alpha)])
    searches = []
    scan_range, psd_rank = _purekernels.scan_range, _purekernels.psd_rank
    calls = [0]

    def scanned(search, *args):
        searches.append(search)
        return scan_range(search, *args)

    def counted(*args):
        calls[0] += 1
        return psd_rank(*args)

    with mock.patch.object(_purekernels, "scan_range", scanned), \
            mock.patch.object(_purekernels, "psd_rank", counted):
        result = torus_defect(A, box=box)
    assert result.nodes_visited == nodes
    assert len(searches[-1].cuts) == cuts
    assert calls[0] < eliminations


def test_field_search_does_not_depend_on_earlier_signs(corpus):
    """A field fixes its bounds of alpha at certification, so a search
    over it visits the same nodes and keeps the same cuts whatever ran
    before it in the process: the same scan twice on eia2 on a basis that
    mixes its blocks, and `torus_defect` on that torus before and after a
    sign that the field's bounds cannot decide."""
    A = rebased(corpus["eia2"], random.Random(0))
    assert counted_scan(_search(A), 1) == counted_scan(_search(A), 1)

    def nodes_and_cuts():
        searches = []
        scan_range = _purekernels.scan_range

        def scanned(search, *args):
            searches.append(search)
            return scan_range(search, *args)

        with mock.patch.object(_purekernels, "scan_range", scanned):
            result = torus_defect(A, box=2)
        return result.nodes_visited, [list(search.cuts) for search in searches]

    field = A.field
    before = nodes_and_cuts()
    bounds = (field._alpha_bounds, field._alpha_int)
    tight = (-118920711, 10**8, 0, 0)  # 10^8 (alpha - 1.18920711), alpha = 1.1892071150...
    vlo, vhi = integral_enclosure(tight, field._alpha_int)
    assert vlo < 0 < vhi
    assert integral_sign(IntegralElement(field, tight)) == 1
    assert (field._alpha_bounds, field._alpha_int) == bounds
    assert nodes_and_cuts() == before


def test_patched_evaluate_sees_exactly_the_effective_records(corpus, monkeypatch):
    """The benchmark's tracer counts effective candidates by patching
    `evaluate` on `IntSearch` and `FieldSearch`: every effective class a
    survey records, from the box and from the structured extras, must pass
    through `evaluate` with a True verdict, and no other leaf may."""
    seen = []
    for cls in (_purekernels.IntSearch, _purekernels.FieldSearch):
        def counted(search, leaf, original=cls.evaluate):
            verdict = original(search, leaf)
            if verdict[0]:
                seen.append(tuple(leaf[0]))
            return verdict
        monkeypatch.setattr(cls, "evaluate", counted)
    pair = product([elliptic(Fraction(1, 2), 2), elliptic(Fraction(-1, 3), Fraction(3, 2))])
    for A, box in ((pair, 3), (corpus["ei_x_e2i"], 2), (corpus["triple"], 1),
                   (corpus["ei2_x_nocm"], 1)):
        seen.clear()
        _, records = defect_survey(A, box=box)
        assert records
        assert sorted(seen) == sorted(r.coefficients for r in records)


def test_structured_vectors_match_reference(corpus):
    search = _search(corpus["ei2_x_nocm"])
    vectors = [(3, 0, 0, 0, 0), (0, -3, 0, 0, 0), (3, 3, 1, 0, 2), (0, 0, 0, 0, 4)]
    delta, position, scanned, nodes, records = _purekernels.scan_vectors(
        search, vectors, 100, True
    )
    s_basis = [as_algebraic(m) for m in dense_parts(search)]
    expected = []
    for offset, coeffs in enumerate(vectors):
        found = reference_record(s_basis, search.w_pairs, coeffs)
        if found is not None:
            expected.append((100 + offset, coeffs) + found)
    assert records == expected
    assert delta == max(r[2] for r in expected)
    assert scanned == nodes == len(vectors)


def _symmetric(rng, n, entry):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry(rng)
    return m


def _gram(rng, n, weights, entry):
    """B^T diag(weights) B for a random integer B: PSD of rank rank_int(B)."""
    k = len(weights)
    B = [[entry(rng) for _ in range(n)] for _ in range(k)]
    M = [[sum((weights[t] * (B[t][i] * B[t][j]) for t in range(k)), 0) for j in range(n)]
         for i in range(n)]
    return M, B


@pytest.mark.parametrize("seed", range(4))
def test_psd_rank_over_q(seed):
    rng = random.Random(seed)
    small = lambda r: r.choice((0, 0, 1, -1, 2, -3))
    for _ in range(60):
        n = rng.randint(1, 5)
        M = _symmetric(rng, n, small)
        got, _ = _purekernels.psd_rank(M, range(n), _purekernels.int_sign, _purekernels.int_quotient)
        assert got == reference_psd_rank(M)
        if got >= 0:
            assert got == _purekernels.rank_int(M)
        G, B = _gram(rng, n, [rng.randint(1, 4) for _ in range(rng.randint(1, n))], small)
        got, _ = _purekernels.psd_rank(G, range(n), _purekernels.int_sign, _purekernels.int_quotient)
        assert got == reference_psd_rank(G) == _purekernels.rank_int(B) == _purekernels.rank_int(G)
        idx = sorted(rng.sample(range(n), rng.randint(1, n)))
        block = [[G[i][j] for j in idx] for i in idx]
        got, _ = _purekernels.psd_rank(G, idx, _purekernels.int_sign, _purekernels.int_quotient)
        assert got == reference_psd_rank(block) == _purekernels.rank_int(block)


def integral_psd_rank(M):
    return _purekernels.psd_rank(M, range(len(M)), integral_sign, integral_quotient)[0]


# Z[alpha] and field arithmetic against `reference_field_product` (the
# polynomial product over Fractions, reduced by long division by min_poly)
# and signs against `reference_sign`.  The cubic x^3 - 3x + 1 has its root
# 0.347... in (0, 1); -sqrt(3) sits in a negative isolating interval.  The
# near-zero elements (99 - 70 sqrt(2) = 0.00505..., 97 - 56 sqrt(3) =
# 0.00515...) straddle 0 on the field's bounds of alpha, so their signs need
# the bisection in `nf_sign`.
FIELDS = {
    "quartic": ([-2, 0, 0, 0, 1], (Fraction(1), Fraction(3, 2))),
    "sqrt2": ([-2, 0, 1], (Fraction(1), Fraction(2))),
    "cubic": ([1, -3, 0, 1], (Fraction(0), Fraction(1))),
    "minus_sqrt3": ([-3, 0, 1], (Fraction(-2), Fraction(-1))),
}
NEAR_ZERO = {
    "quartic": [(99, 0, -70, 0), (-99, 0, 70, 0), (0, 99, 0, -70), (577, 0, -408, 0)],
    "sqrt2": [(99, -70), (-99, 70), (577, -408), (-3363, 2378)],
    "cubic": [(-347, 1000, 0), (3473, -10000, 0), (-1, 3, 0), (0, -1, 3)],
    "minus_sqrt3": [(97, 56), (-97, -56), (1351, 780), (26, 15)],
}


@st.composite
def integral_elements(draw, name, nonzero=False):
    d = len(FIELDS[name][0]) - 1
    plain = st.tuples(*[st.integers(-60, 60)] * d)
    coeffs = draw(st.one_of(plain, st.sampled_from(NEAR_ZERO[name])))
    if nonzero and not any(coeffs):
        coeffs = (1,) + coeffs[1:]
    return coeffs


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integral_arithmetic_and_sign_match_field(name, data):
    K = RealNumberField(*FIELDS[name])
    a = data.draw(integral_elements(name))
    b = data.draw(integral_elements(name))
    x, y = IntegralElement(K, a), IntegralElement(K, b)
    assert (x * y).coeffs == reference_field_product(K, a, b)
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (-3 * x).coeffs == tuple(-3 * p for p in a)
    for z in (x, x * y, x - y):
        assert integral_sign(z) == reference_sign(K, z.coeffs)
    assert (x == 0) == (not any(a))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integral_quotient_matches_field_division(name, data):
    """x / p is in Z[alpha] exactly when x * adj(p) is divisible by N(p),
    with p * adj(p) = N(p) checked on the reference product; then the
    quotient q satisfies q * p = x, and otherwise the division raises."""
    K = RealNumberField(*FIELDS[name])
    a = data.draw(integral_elements(name))
    b = data.draw(integral_elements(name, nonzero=True))
    x, p = IntegralElement(K, a), IntegralElement(K, b)
    divide = integral_quotient(p)
    assert divide(x * p).coeffs == a
    norm, adj = norm_adjugate(p)
    assert reference_field_product(K, b, adj) == (norm,) + (0,) * (K.degree - 1)
    if all(c % norm == 0 for c in reference_field_product(K, a, adj)):
        assert reference_field_product(K, divide(x).coeffs, b) == a
    else:
        with pytest.raises(ConsistencyError):
            divide(x)


@st.composite
def field_elements(draw, name):
    """Coordinates of a field element: integral ones over a denominator."""
    den = draw(st.integers(1, 12))
    return tuple(Fraction(c, den) for c in draw(integral_elements(name)))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_arithmetic_matches_reference(name, data):
    """`AlgebraicReal` + - * / ** and inverse on elements with
    denominators, against coordinate sums and `reference_field_product`;
    every result is in lowest terms and equals the element of its own
    coordinates."""
    K = RealNumberField(*FIELDS[name])
    one = (1,) + (0,) * (K.degree - 1)
    a, b = data.draw(field_elements(name)), data.draw(field_elements(name))
    X, Y = K.element(a), K.element(b)
    results = [X, Y, X + Y, X - Y, -X, X * Y, X**3, X + Fraction(1, 3), 2 - X]
    assert [Z.coeffs for Z in results] == [
        a, b, tuple(p + q for p, q in zip(a, b)), tuple(p - q for p, q in zip(a, b)),
        tuple(-p for p in a), reference_field_product(K, a, b),
        reference_field_product(K, reference_field_product(K, a, a), a),
        (a[0] + Fraction(1, 3),) + a[1:], (2 - a[0],) + tuple(-p for p in a[1:])]
    assert X**0 == 1 and X**1 == X
    if any(b):
        quotients = [Y.inverse(), X / Y, 1 / Y, Y**-2]
        results += quotients
        assert [reference_field_product(K, Z.coeffs, b) for Z in quotients] == [
            one, a, one, Y.inverse().coeffs]
    else:
        with pytest.raises(ZeroDivisionError):
            Y.inverse()
    for Z in results:
        assert Z.den > 0 and gcd(Z.den, *Z.num.coeffs) == 1
        assert Z == K.element(Z.coeffs) and hash(Z) == hash(K.element(Z.coeffs))
        assert nf_sign(Z) == reference_sign(K, Z.coeffs)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(2))
def test_psd_rank_on_integral_matrices(name, seed):
    rng = random.Random(seed)
    K = RealNumberField(*FIELDS[name])
    d = K.degree
    alpha = IntegralElement(K, (0, 1) + (0,) * (d - 2))
    near = [IntegralElement(K, c) for c in NEAR_ZERO[name]]
    positive = [z if integral_sign(z) > 0 else -1 * z for z in near + [alpha]]
    entry = lambda r: IntegralElement(K, tuple(r.choice((0, 0, 1, -1, 2)) for _ in range(d)))
    one = IntegralElement(K, (1,) + (0,) * (d - 1))
    for _ in range(10):
        n = rng.randint(1, 4)
        M = _symmetric(rng, n, entry)
        assert integral_psd_rank(M) == reference_psd_rank(as_algebraic(M))
        weights = rng.sample(positive, rng.randint(1, min(n, 3)))
        G, B = _gram(rng, n, weights, lambda r: r.choice((0, 0, 1, -1, 2)))
        G = [[x if isinstance(x, IntegralElement) else x * one for x in row] for row in G]
        got = integral_psd_rank(G)
        assert got == reference_psd_rank(as_algebraic(G)) == _purekernels.rank_int(B)


@pytest.mark.parametrize("name", ["rationals"] + sorted(FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_psd_rank_is_invariant_under_positive_scaling(name, data):
    """The search reuses a single-level block's verdict and rank across
    siblings of one sign: `psd_rank` of m * M, for a positive integer m,
    must equal that of M, on the whole matrix and on a principal block,
    for random symmetric matrices and PSD Gram matrices alike."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m = data.draw(st.integers(1, 40))
    small = lambda r: r.choice((0, 0, 1, -1, 2, -3))
    if name == "rationals":
        sign, quotient = _purekernels.int_sign, _purekernels.int_quotient
        scalar = lambda x: x
        weights = [rng.randint(1, 4) for _ in range(3)]
    else:
        K = RealNumberField(*FIELDS[name])
        d = K.degree
        sign, quotient = integral_sign, integral_quotient
        scalar = lambda x: IntegralElement(K, (x,) + (0,) * (d - 1))
        near = [IntegralElement(K, c) for c in NEAR_ZERO[name]]
        weights = [z if integral_sign(z) > 0 else -1 * z for z in near]
    n = rng.randint(1, 4)
    if name != "rationals" and rng.random() < 0.5:
        M = _symmetric(rng, n, lambda r: IntegralElement(K, tuple(small(r) for _ in range(d))))
    elif rng.random() < 0.5:
        M = [[scalar(x) for x in row] for row in _symmetric(rng, n, small)]
    else:
        G, _ = _gram(rng, n, rng.sample(weights, rng.randint(1, min(n, 3))), small)
        M = [[x if not isinstance(x, int) else scalar(x) for x in row] for row in G]
    scaled = [[m * x for x in row] for row in M]
    for idx in (range(n), sorted(rng.sample(range(n), rng.randint(1, n)))):
        rank, _ = _purekernels.psd_rank(M, idx, sign, quotient)
        assert _purekernels.psd_rank(scaled, idx, sign, quotient)[0] == rank


def test_integral_quotient_by_zero_divisor_raises():
    # x^2 - 1 is square-free but reducible: 1 + alpha is a zero divisor.
    K = RealNumberField([-1, 0, 1], (Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(ConsistencyError, match="zero divisor"):
        integral_quotient(IntegralElement(K, (1, 1)))


def block_rank(block):
    """Rank of a symmetric matrix: the size of its largest nonsingular
    principal block."""
    n = len(block)
    return max((size for size in range(1, n + 1) for I in itertools.combinations(range(n), size)
                if _det([[block[i][j] for j in I] for i in I]) != 0), default=0)


def fails_before_second_pivot(block):
    """Whether the elimination of a block that is not PSD fails before its
    second pivot, decided on the block itself: some diagonal entry is
    negative or every one is zero, or else, with p the first positive
    diagonal entry, the Schur complement a_pp a_ij - a_ip a_jp (i, j != p)
    has a negative diagonal entry or every one zero."""
    n = len(block)
    signs = [_sign(block[i][i]) for i in range(n)]
    if min(signs) < 0 or max(signs) == 0:
        return True
    p = signs.index(1)
    signs = [_sign(block[p][p] * block[i][i] - block[i][p] * block[i][p])
             for i in range(n) if i != p]
    return min(signs) < 0 or max(signs) == 0


def assert_certificates_hold(M, sign, quotient, rng, zero):
    """psd_rank on M and on a random principal block: a PSD block and a
    failure after the elimination's second pivot have certificate None.
    Every failure before it comes with a vector v: v has distinct nonzero
    entries in the block, at most three of them and at most the block's
    rank, and v^T M v < 0, computed here from v itself.  Returns, per
    failure, whether it came with a certificate."""
    n = len(M)
    kinds = []
    for idx in (range(n), sorted(rng.sample(range(n), rng.randint(1, n)))):
        rank, certificate = _purekernels.psd_rank(M, idx, sign, quotient)
        if rank >= 0:
            assert certificate is None
            continue
        block = as_algebraic([[M[i][j] for j in idx] for i in idx])
        kinds.append(certificate is not None)
        assert (certificate is not None) == fails_before_second_pivot(block)
        if certificate is None:
            continue
        v = certificate
        assert 1 <= len(v) <= min(3, block_rank(block)) and {i for i, _ in v} <= set(idx)
        assert len({i for i, _ in v}) == len(v) and all(x != 0 for _, x in v)
        brute = zero
        for i, x in v:
            for j, y in v:
                brute = brute + x * y * M[i][j]
        assert sign(brute) < 0
    return kinds


@pytest.mark.parametrize("seed", range(3))
def test_psd_rank_certificates_over_q(seed):
    rng = random.Random(seed)
    small = lambda r: r.choice((0, 1, 1, 2, -1, 3, -3))
    kinds = []
    for _ in range(80):
        n = rng.randint(1, 5)
        M = _symmetric(rng, n, small)
        for i in range(n):  # mostly positive diagonals: failures after a pivot too
            M[i][i] = abs(M[i][i]) if rng.random() < 0.8 else M[i][i]
        kinds += assert_certificates_hold(M, _purekernels.int_sign, _purekernels.int_quotient,
                                          rng, 0)
    assert sum(kinds) > 40
    assert kinds.count(False) >= 5  # failures after the second pivot


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_psd_rank_certificates_on_integral_matrices(name):
    rng = random.Random(name)
    K = RealNumberField(*FIELDS[name])
    d = K.degree
    entry = lambda r: IntegralElement(K, tuple(r.choice((0, 0, 1, -1, 2)) for _ in range(d)))
    zero = IntegralElement(K, (0,) * d)
    one = IntegralElement(K, (1,) + (0,) * (d - 1))
    kinds = []
    for _ in range(25):
        M = _symmetric(rng, rng.randint(1, 4), entry)
        kinds += assert_certificates_hold(M, integral_sign, integral_quotient, rng, zero)
    assert sum(kinds) > 10
    kinds = []
    for _ in range(25):
        M = _symmetric(rng, rng.randint(1, 5), entry)
        for i in range(len(M)):  # positive diagonals: failures after a pivot too
            M[i][i] = M[i][i] * M[i][i] + one
        kinds += assert_certificates_hold(M, integral_sign, integral_quotient, rng, zero)
    assert sum(kinds) >= 3 and kinds.count(False) >= 3  # failures on both sides of it


def test_psd_rank_rejects_zero_diagonal_with_coupling():
    M = [[0, 1], [1, 0]]
    assert _purekernels.psd_rank(M, range(2), _purekernels.int_sign,
                                 _purekernels.int_quotient) == (-1, ((0, 1), (1, -1)))
    assert _purekernels.psd_rank([[0, 0], [0, 0]], range(2), _purekernels.int_sign,
                                 _purekernels.int_quotient) == (0, None)


def test_ei4_box1_reaches_2k_minus_1():
    A = product([elliptic(0, 1, label=f"E{i}") for i in range(4)])
    result = torus_defect(A, box=1)
    assert result.delta == 7 == classify(isogeny_spec_of(A)).delta
    assert result.classes_scanned >= 3**16 - 1
    assert result.nodes_visited < 10_000


def reference_structured_vectors(A):
    blocks = factor_blocks(A)
    if blocks is None:
        return []
    size = 2 * A.n
    fibers = []
    for offset, f in blocks:
        rows = [[0] * size for _ in range(size)]
        for t in range(f.n):
            rows[offset + 2 * t][offset + 2 * t + 1] = 1
            rows[offset + 2 * t + 1][offset + 2 * t] = -1
        fibers.append(AlternatingForm(A, rows))
    forms = []
    if all(f.is_hodge for f in fibers):
        for k in range(1, len(fibers) + 1):
            for subset in itertools.combinations(fibers, k):
                form = subset[0]
                for other in subset[1:]:
                    form = form + other
                forms.append(form)
    for _, W in coordinate_factor_sublattices(A, corank=2):
        forms.append(AlternatingForm._from_pair_num(A, 1, poincare_dual(A, W)))
    vectors = set()
    for form in forms:
        coords = reference_ns_coordinates(A, form)
        if coords is None or not any(coords):
            continue
        prim = primitive_integer_vector(coords)
        vectors |= {prim, tuple(-c for c in prim)}
    return sorted(vectors)


def assert_structured_vectors_match_reference(A):
    assert _structured_candidate_vectors(A) == reference_structured_vectors(A)


def test_structured_candidates_match_reference_on_corpus(corpus):
    for A in corpus.values():
        assert_structured_vectors_match_reference(A)


def test_structured_candidates_match_reference_on_samples():
    tori = [load_document(path).torus for path in sorted(SAMPLES.glob("torus_*.json"))]
    assert len(tori) >= 2
    for A in tori:
        assert_structured_vectors_match_reference(A)


def test_structured_candidates_with_undeclared_surface_blocks():
    # B = E_i x E_tau (tau = 1/2 + 2i) enters as one undeclared 2-dimensional
    # block, once on its own lattice basis (fiber form a Hodge class) and
    # once on a basis that mixes the two curves (fiber form not a Hodge
    # class: no subset sums, only the Poincare dual of the E_i block).
    B = product([elliptic(0, 1), elliptic(Fraction(1, 2), 2)])
    U = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    U_inv = [[1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert dense_matmul(U, U_inv) == [[int(i == j) for j in range(4)] for i in range(4)]
    plain = ComplexTorus(B.field, field_j(B))
    mixed = ComplexTorus(B.field, field_product(B.field, U_inv, field_j(B), U))
    fiber = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert AlternatingForm(plain, fiber).is_hodge
    assert not AlternatingForm(mixed, fiber).is_hodge
    E = elliptic(0, 1, label="E_i")
    for blocks, count in (([plain, E], 6), ([mixed, E], 2), ([mixed, plain, E], 2)):
        A = product(blocks)
        vectors = _structured_candidate_vectors(A)
        assert vectors == reference_structured_vectors(A)
        assert len(vectors) == count


@settings(max_examples=25, deadline=None)
@given(elliptic_products())
def test_structured_candidates_match_reference_on_random_products(A):
    assert_structured_vectors_match_reference(A)


F = Fraction


ELLIPTIC_PAIR = [[(0, 1)], [(2, 3)]]


@pytest.mark.parametrize("pairs, fibers, box, inside, outside", [
    # unit vectors, as the fibers of declared elliptic blocks are
    (ELLIPTIC_PAIR, [(F(1), F(0)), (F(0), F(1))], 1, True, []),
    ([[(0, 1)], [(2, 3), (4, 5)]], [(F(1), F(0)), None], 1, True, []),
    (ELLIPTIC_PAIR, [(F(1), F(1)), (F(0), F(-1))], 2, True, []),
    # a column sum of 2: built, and every candidate is inside after all
    (ELLIPTIC_PAIR, [(F(1), F(0)), (F(1), F(0))], 1, False, []),
    # the primitive form of (1/2, 1) is (1, 2), outside box 1
    (ELLIPTIC_PAIR, [(F(1, 2), F(0)), (F(0), F(1))], 1, False, [(-1, -2), (1, 2)]),
    (ELLIPTIC_PAIR, [(F(2), F(0)), (F(0), F(1))], 1, False, [(-2, -1), (2, 1)]),
])
def test_box_rule_on_synthetic_fiber_coordinates(pairs, fibers, box, inside, outside):
    """`_box_extras` builds nothing when `_extras_inside_box` holds, and
    otherwise keeps exactly the candidates outside the box."""
    assert _extras_inside_box(fibers, box) == inside
    candidates = _candidates_from_fibers(pairs, fibers)
    assert [v for v in candidates if max(map(abs, v)) > box] == outside
    assert _box_extras(pairs, fibers, box) == outside


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=3, max_size=3)),
    min_size=1, max_size=4), st.integers(1, 3), st.data())
def test_box_rule_is_sound(fibers, box, data):
    """Whenever the rule says every candidate lies in the box, every one
    does; otherwise `_box_extras` keeps exactly the ones outside."""
    fibers = [None if f is None else tuple(f) for f in fibers]
    known = [f for f in fibers if f is not None]
    # Fiber forms are linearly independent: no subset sums to zero.
    assume(all(any(map(sum, zip(*subset))) for size in range(1, len(known) + 1)
               for subset in itertools.combinations(known, size)))
    sizes = [data.draw(st.integers(1, 2)) for _ in fibers]
    pairs = [[(2 * t, 2 * t + 1)] * size for t, size in enumerate(sizes)]
    candidates = _candidates_from_fibers(pairs, fibers)
    if _extras_inside_box(fibers, box):
        assert all(max(map(abs, v)) <= box for v in candidates)
    assert _box_extras(pairs, fibers, box) == [v for v in candidates if max(map(abs, v)) > box]


@st.composite
def products_with_surface_blocks(draw):
    """A product of curves, or a pair of curves entered as one undeclared
    2-dimensional block (on its own lattice basis or on one that mixes the
    curves) next to one of its curves, in either order."""
    B = draw(elliptic_products(max_count=2))
    shape = draw(st.sampled_from(["curves", "plain", "mixed"]))
    if shape == "curves":
        return B, draw(st.integers(1, 2))
    surface = ComplexTorus(B.field, field_j(B))
    if shape == "mixed":
        surface = rebased(B, random.Random(draw(st.integers(0, 2**32))))
    curve = B.factors[draw(st.integers(0, 1))]
    blocks = [surface, curve] if draw(st.booleans()) else [curve, surface]
    return product(blocks), 1


def extras_of_search(A, box):
    """The structured extras a search of A scans, caught at `scan_vectors`."""
    seen = []
    scan_vectors = _purekernels.scan_vectors

    def caught(search, vectors, *args):
        seen.extend(vectors)
        return scan_vectors(search, vectors, *args)

    _purekernels.scan_vectors = caught
    try:
        torus_defect(A, box=box)
    finally:
        _purekernels.scan_vectors = scan_vectors
    return seen


@settings(max_examples=15, deadline=None)
@given(products_with_surface_blocks())
def test_search_extras_are_the_structured_candidates_outside_the_box(case):
    A, box = case
    vectors = _structured_candidate_vectors(A)
    assert extras_of_search(A, box) == [v for v in vectors if max(map(abs, v)) > box]


# The torus code reads J only as the integer components D * J_k.  The
# references below are the constructions it replaced: the J^T E J = E system
# over the field restricted to Q, the Hodge test as a field matrix product, the
# J_B M = M J_A system restricted to Q, and the symmetric part E * J as
# AlgebraicReals, decided by all principal minors.


def reference_ns_basis(A):
    field = A.field
    pairs = list(itertools.combinations(range(2 * A.n), 2))
    J = field_j(A)
    rows = []
    for i, j in pairs:
        row = []
        for p, q in pairs:
            coeff = J[p][i] * J[q][j] - J[q][i] * J[p][j]
            if (p, q) == (i, j):
                coeff = coeff - field.one()
            row.append(coeff)
        rows.append(row)
    vectors = kernel_basis(restrict_scalars(field, rows))
    return [AlternatingForm._from_pair_num(A, 1, primitive_integer_vector(v)) for v in vectors]


def reference_is_hodge(E):
    field, J = E.torus.field, field_j(E.torus)
    K = field_product(field, E.matrix)
    return field_product(field, list(zip(*J)), K, J) == K


def reference_hom_rank(A, B):
    field = A.field
    na, nb = 2 * A.n, 2 * B.n
    JA, JB = field_j(A), field_j(B)
    zero = field.zero()
    rows = []
    for i in range(nb):
        for j in range(na):
            row = [zero] * (nb * na)
            for p in range(nb):
                row[p * na + j] = row[p * na + j] + JB[i][p]
            for q in range(na):
                row[i * na + q] = row[i * na + q] - JA[q][j]
            rows.append(row)
    return len(kernel_basis(restrict_scalars(field, rows)))


def reference_is_effective(A, E):
    if E.is_zero():
        return False
    S = field_product(A.field, E.matrix, field_j(A))
    return reference_psd_rank([list(row) for row in S]) >= 0


def _combination(basis, coeffs):
    matrices = [b.matrix for b in basis]
    size = len(matrices[0])
    return [[sum(c * m[r][k] for c, m in zip(coeffs, matrices)) for k in range(size)]
            for r in range(size)]


def _alternating(rng, size):
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            m[i][j] = rng.choice((0, 0, 0, 1, -1))
            m[j][i] = -m[i][j]
    return m


def assert_j_data_matches_reference(A, rng, forms=8, effective_checks=12):
    """ns_basis, is_hodge, is_effective_class and hom_rank against the
    references, on A and on A in a mixed lattice basis: the NS lists must be
    equal, and every verdict the same."""
    B = rebased(A, rng)
    for X in (A, B):
        assert_forms_match_reference(X, rng, forms, effective_checks)
    blocks = [f for _, f in factor_blocks(A) or []]
    for X, Y in itertools.product(blocks + [A, B], repeat=2):
        if X.n * Y.n <= 4:  # the reference is slow beyond 16 unknowns
            assert hom_rank(X, Y) == reference_hom_rank(X, Y)


def assert_forms_match_reference(A, rng, forms, effective_checks):
    basis = ns_basis(A)
    assert [b.matrix for b in basis] == [b.matrix for b in reference_ns_basis(A)]
    size = 2 * A.n
    # The fiber forms and their sum: semidefinite classes when they are
    # Hodge classes.  Adding multiples of the sum to random NS classes makes
    # some of them effective too.
    fibers = []
    for block in fiber_pairs(A) or []:
        fiber = [[0] * size for _ in range(size)]
        for i, j in block:
            fiber[i][j], fiber[j][i] = 1, -1
        fibers.append(fiber)
    polarization = [[sum(f[r][k] for f in fibers) for k in range(size)] for r in range(size)]
    candidates = [polarization] + fibers
    weight = 3 if fibers and reference_is_hodge(AlternatingForm(A, polarization)) else 0
    for _ in range(forms):
        hodge = _combination(basis, [rng.randint(-2, 2) for _ in basis])
        shift = rng.choice((0, 0, weight))
        hodge = [[h + shift * p for h, p in zip(rh, rp)] for rh, rp in zip(hodge, polarization)]
        noise = _alternating(rng, size)
        mixed = [[h + x for h, x in zip(rh, rx)] for rh, rx in zip(hodge, noise)]
        candidates += [hodge, noise, mixed]
    checked = 0
    for matrix in candidates:
        E = AlternatingForm(A, matrix) * rng.choice((1, Fraction(1, 2)))
        assert E.is_hodge == reference_is_hodge(E)
        if E.is_hodge and checked < effective_checks:
            checked += 1
            assert is_effective_class(A, E) == reference_is_effective(A, E)


@pytest.mark.parametrize("name", ["ei2", "ei3", "ei_x_e2i", "eia2", "triple", "ei2_x_nocm"])
def test_j_data_matches_reference_on_corpus(corpus, name):
    assert_j_data_matches_reference(corpus[name], random.Random(name))


def test_j_data_matches_reference_on_rational_and_field_blocks(quartic_field):
    # A block with rational J next to blocks whose J has alpha terms, among
    # them one (beta = 1 + alpha) whose rational part J_0 is nonzero.
    a = quartic_field.alpha()
    A = product([elliptic(0, 1, field=quartic_field), elliptic(Fraction(1, 2), a + 1),
                 elliptic(0, a * a)])
    assert [f.rational_j for f in A.factors] == [True, False, False]
    assert_j_data_matches_reference(A, random.Random(7))
    # J = J_0 + alpha N with J_0 = diag(j, j), N = [[0, X], [0, 0]] and
    # X j = -j X, so J^2 = -I.  Hom from and to E_i needs the alpha
    # condition: from the rational part alone both ranks would be 4.
    nil = ComplexTorus(quartic_field, [
        [0, -1, a, 0], [1, 0, 0, -a], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert_j_data_matches_reference(nil, random.Random(8))
    E = A.factors[0]
    for X, Y in ((E, nil), (nil, E)):
        assert hom_rank(X, Y) == reference_hom_rank(X, Y) == 2


@settings(max_examples=15, deadline=None)
@given(elliptic_products(), st.integers(0, 2**32))
def test_j_data_matches_reference_on_random_products(A, seed):
    assert_j_data_matches_reference(A, random.Random(seed), forms=2, effective_checks=2)


@settings(max_examples=20, deadline=None)
@given(elliptic_products(), st.integers(0, 2**32))
def test_ns_coordinates_match_reference_solve(A, seed):
    # Random NS combinations (Hodge), random forms (mostly not Hodge) and
    # their sums, over den 1, 2, 3 or 6, on A and on A in a mixed lattice
    # basis: the coordinates read off the echelon basis are the solved ones.
    rng = random.Random(seed)
    for X in (A, rebased(A, rng)):
        basis = ns_basis(X)
        for _ in range(4):
            hodge = AlternatingForm(X, _combination(basis, [rng.randint(-2, 2) for _ in basis]))
            noise = AlternatingForm(X, _alternating(rng, 2 * X.n))
            for E in (hodge, noise, hodge + noise):
                E = E * Fraction(1, rng.choice((1, 2, 3, 6)))
                coords = ns_coordinates(X, E)
                assert coords == reference_ns_coordinates(X, E)
                assert (coords is not None) == E.is_hodge


def test_effective_verdicts_match_reference_on_survey(corpus):
    # Boundary classes: every box-1 NS combination of E_ia x E_ia', where
    # the semidefinite but degenerate classes sit next to indefinite ones.
    A = corpus["eia2"]
    basis = ns_basis(A)
    for coeffs in itertools.product(range(-1, 2), repeat=len(basis)):
        E = AlternatingForm(A, _combination(basis, coeffs))
        assert is_effective_class(A, E) == reference_is_effective(A, E)


def polarization_matrix(A):
    """The sum of A's fiber forms (the product polarization), as a matrix;
    zero when A has no declared blocks."""
    size = 2 * A.n
    P = [[0] * size for _ in range(size)]
    for block in fiber_pairs(A) or []:
        for i, j in block:
            P[i][j], P[j][i] = 1, -1
    return P


def assert_effectivity_matches_dense_reference(A, polarization, rng, draws):
    """`is_effective_class`, which runs `psd_rank` once per connected
    component of S's nonzero pattern, against all principal minors of the
    dense `symmetric_part`; that matrix is checked entry by entry against
    the field-level product num * (D J).  The classes: zero, random box-2
    combinations of NS basis forms, their negatives, and the combinations
    plus 3 times the polarization (which makes some effective).  Returns
    the number of effective classes seen."""
    basis = ns_basis(A)
    DJ = parts_matrix(A.field, 1, A.j_parts)
    size = 2 * A.n
    forms = [AlternatingForm(A, [[0] * size for _ in range(size)])]
    for _ in range(draws):
        E = AlternatingForm(A, _combination(basis, [rng.randint(-2, 2) for _ in basis]))
        forms += [E, -E, E + AlternatingForm(A, polarization) * 3]
    effective = 0
    for E in forms:
        M = as_algebraic(symmetric_part(A, E))
        assert all(x == y for row, ref in zip(M, field_product(A.field, E.num, DJ))
                   for x, y in zip(row, ref))
        expected = not E.is_zero() and reference_psd_rank(M) >= 0
        assert is_effective_class(A, E) == expected
        effective += expected
    return effective


def assert_effectivity_matches_on_both_bases(A, rng, draws):
    """On A's declared basis and on a random basis that mixes its blocks (a
    single component), where the polarization is U^T P U."""
    P = polarization_matrix(A)
    U, U_inv = unimodular(2 * A.n, rng)
    B = rebase(A, U, U_inv)
    moved = dense_matmul(list(zip(*U)), dense_matmul(P, U))
    return (assert_effectivity_matches_dense_reference(A, P, rng, draws)
            + assert_effectivity_matches_dense_reference(B, moved, rng, draws))


@pytest.mark.parametrize("name", ["ei2", "ei3", "ei_x_e2i", "eia2", "ei2_x_nocm"])
def test_effectivity_per_component_matches_dense_minors_on_corpus(corpus, name):
    assert assert_effectivity_matches_on_both_bases(corpus[name], random.Random(name), 3) > 0


@settings(max_examples=25, deadline=None)
@given(elliptic_products(), st.integers(0, 2**32))
def test_effectivity_per_component_matches_dense_minors_on_random_products(A, seed):
    assert_effectivity_matches_on_both_bases(A, random.Random(seed), 2)
