"""Differential tests: the per-divisor path on integer data against the
constructions it replaced.

* `quotient` computes P (D J_k) S on integers; the reference is the field
  product P J S, split again by `ComplexTorus(field, J)`.  The two tori must
  be equal and hash alike.
* `subtorus` certifies J-stability with one integer rank; the reference
  solves for every image (D J_k) w over Q and must fail on the same inputs.
* Integer J data in any form (a common factor, vanishing alpha-components)
  gives the torus built from the field matrix.
* `poincare_dual` (the wedge of P's rows) against Leibniz determinants.
* Form arithmetic against the validating constructor, the canonical
  (den, num) of a form against other presentations of the same matrix, and
  the Hodge test and `ns_coordinates` against a reference `solve` over the
  NS basis.
* The table-driven `wedge` and `cup_matrix` against the subset-pair loop
  (`references.reference_wedge`); `defect_of_class`, `lambda_defect`, the
  Voisin kernels and `induced_quotient_class` against constructions from
  the loop and from `solve`; `radical` (one saturation)
  against `subtorus` of `integer_kernel_basis`; `kernel_basis` (integer
  back-substitution) against the primitive form of the `Fraction` one.

Inputs are the corpus, hypothesis products of 2-3 curves over Q and
Q(2^(1/4)), and each of these on a lattice basis mixed by a random
unimodular matrix.  The sublattices are the radicals of degenerate
effective classes (fiber forms and their partial sums), the coordinate
sublattices, and random integer column sets.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdefect.checks import cup_dual_kernel_on_ns, restriction_kernel_on_ns
from lefdefect.cohomology import (
    cup_matrix,
    defect_of_class,
    lambda_defect,
    poincare_dual,
    wedge,
    wedge_basis,
)
from lefdefect.effectivity import induced_quotient_class, is_effective_class, radical
from lefdefect.errors import ConsistencyError, NotHodgeClass
from lefdefect.exactmath import (
    integer_kernel_basis,
    kernel_basis,
    primitive_integer_vector,
    rank,
    saturate,
)
from lefdefect.exactmath.linalg import bareiss_echelon, integer_rows
from lefdefect.torus import (
    AlternatingForm,
    ComplexTorus,
    coordinate_factor_sublattices,
    coordinate_sublattice,
    elliptic,
    fiber_pairs,
    ns_basis,
    ns_coordinates,
    product,
    quotient,
    subtorus,
)
from references import (
    elliptic_products,
    field_j,
    field_product,
    rebase,
    reference_ns_coordinates,
    reference_wedge,
    solve,
    unimodular,
)

CORPUS = ["ei2", "ei3", "ei_x_e2i", "eia2", "triple", "ei2_x_nocm"]


def reference_quotient(A, W):
    P, S = W.projection, W.section
    return ComplexTorus(A.field, field_product(A.field, P, field_j(A), S))


def reference_subtorus(A, columns):
    """Basis of the saturated span, certified by one Fraction solve per
    column and J component."""
    N = 2 * A.n
    sat = saturate([tuple(c) for c in columns], N) if columns else []
    if sat:
        matrix = [[sat[j][i] for j in range(len(sat))] for i in range(N)]
        for Jk in A.j_parts:
            for col in sat:
                image = [sum(Jk[i][j] * col[j] for j in range(N)) for i in range(N)]
                if solve(matrix, image) is None:
                    raise ValueError("not a complex subtorus")
    if len(sat) % 2 != 0:
        raise ConsistencyError("J-stable sublattice with odd rank")
    return tuple(sat)


def outcome(run, *args):
    try:
        return "ok", run(*args)
    except (ValueError, ConsistencyError) as exc:
        return type(exc).__name__, str(exc)


def assert_subtorus_matches_reference(A, columns):
    got = outcome(lambda cols: subtorus(A, cols).basis, columns)
    assert got == outcome(reference_subtorus, A, columns)
    return got[0] == "ok"


def leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def reference_poincare_coords(A, W):
    P = W.projection
    return [leibniz([[row[j] for j in subset] for row in P])
            for subset in itertools.combinations(range(2 * A.n), W.corank)]


def degenerate_classes(A, U=None):
    """Fiber forms of A and their partial sums (pulled back to the basis of
    U's columns when given): degenerate effective classes whose radicals are
    the sublattices of proper sub-products."""
    size = 2 * A.n
    fibers = []
    for block in fiber_pairs(A):
        fiber = [[0] * size for _ in range(size)]
        for i, j in block:
            fiber[i][j], fiber[j][i] = 1, -1
        fibers.append(fiber)
    forms = []
    for count in range(1, len(fibers)):
        for subset in itertools.combinations(fibers, count):
            forms.append([[sum(f[r][c] for f in subset) for c in range(size)]
                          for r in range(size)])
    if U is not None:  # E -> U^T E U
        forms = [[[sum(U[a][r] * E[a][b] * U[b][c] for a in range(size) for b in range(size))
                   for c in range(size)] for r in range(size)] for E in forms]
    return forms


def assert_divisor_path_matches_reference(A, rng):
    """Quotients by radicals and coordinate sublattices, and subtorus on
    their columns and on random columns, on A and on A in a mixed basis."""
    U, U_inv = unimodular(2 * A.n, rng)
    mixed = rebase(A, U, U_inv)
    sublattices = [W for _, W in coordinate_factor_sublattices(A)]
    for X, matrices in ((A, degenerate_classes(A)), (mixed, degenerate_classes(A, U))):
        for matrix in matrices:
            E = AlternatingForm(X, matrix)
            if E.is_hodge and is_effective_class(X, E):
                sublattices.append(radical(X, E))
        for _ in range(4):
            width = rng.randint(1, 2 * X.n - 1)
            columns = [[rng.randint(-2, 2) for _ in range(2 * X.n)] for _ in range(width)]
            assert_subtorus_matches_reference(X, columns)
    assert sublattices
    for W in sublattices:
        X = W.torus
        assert assert_subtorus_matches_reference(X, [[2 * x for x in c] for c in W.basis])
        if 0 < W.rank < 2 * X.n:
            B, R = quotient(X, W), reference_quotient(X, W)
            assert B == R and hash(B) == hash(R)
            assert (B.j_den, B.j_parts) == (R.j_den, R.j_parts)
            assert poincare_dual(X, W) == reference_poincare_coords(X, W)


@pytest.mark.parametrize("name", CORPUS)
def test_divisor_path_matches_reference_on_corpus(corpus, name):
    assert_divisor_path_matches_reference(corpus[name], random.Random(name))


@settings(max_examples=15, deadline=None)
@given(elliptic_products(), st.integers(0, 2**32))
def test_divisor_path_matches_reference_on_random_products(A, seed):
    assert_divisor_path_matches_reference(A, random.Random(seed))


def test_quotient_onto_rational_block_drops_alpha_parts(corpus):
    # E_i x E_ia x E_ia2 over Q(2^(1/4)) modulo the last two curves is E_i,
    # whose J is rational: the quotient's alpha-components all vanish.
    A = corpus["triple"]
    assert not A.rational_j
    W = coordinate_sublattice(A, (1, 2))
    B = quotient(A, W)
    assert B.rational_j and len(B.j_parts) == 1
    assert B == reference_quotient(A, W)


def test_subtorus_errors_match_reference(corpus):
    A = corpus["eia2"]
    for columns in ([(1, 0, 0, 0)], [(1, 0, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0), (2, 0, 0, 0)],
                    [(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 0, 1, 0), (0, 1, 0, 1)]):
        assert_subtorus_matches_reference(A, columns)
    with pytest.raises(ValueError, match="not a complex subtorus"):
        subtorus(A, [(1, 0, 0, 0), (0, 0, 1, 0)])


@settings(max_examples=25, deadline=None)
@given(elliptic_products(), st.sampled_from([1, 2, 6]))
def test_parts_in_any_form_give_the_torus_of_j(A, scale):
    # A common factor of D and every entry, and alpha-components padded
    # with zeros up to the field degree, are normalised away.
    reference = ComplexTorus(A.field, field_j(A))
    size = 2 * A.n
    padded = list(A.j_parts) + [[[0] * size] * size] * (A.field.degree - len(A.j_parts))
    parts = [[[scale * x for x in row] for row in Jk] for Jk in padded]
    T = ComplexTorus._from_parts(A.field, scale * A.j_den, parts)
    assert T == reference and hash(T) == hash(reference)
    assert (T.j_den, T.j_parts) == (reference.j_den, reference.j_parts)
    assert T == A and hash(T) == hash(A)


def test_parts_of_rational_curve_over_quartic_field(quartic_field):
    E = elliptic(Fraction(1, 2), 3, field=quartic_field)
    assert E.rational_j and len(E.j_parts) == 1
    zero = [[0, 0], [0, 0]]
    doubled = [[2 * x for x in row] for row in E.j_parts[0]]
    T = ComplexTorus._from_parts(quartic_field, 2 * E.j_den, [doubled, zero, zero, zero])
    assert T == E and (T.j_den, T.j_parts) == (E.j_den, E.j_parts)


@st.composite
def antisymmetric(draw, size):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            m[i][j] = draw(entry)
            m[j][i] = -m[i][j]
    return m


def validated(A, matrix):
    return AlternatingForm(A, [list(row) for row in matrix])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ei2", "triple"]), st.data())
def test_form_arithmetic_matches_validating_constructor(corpus, name, data):
    A = corpus[name]
    size = 2 * A.n
    m1, m2 = data.draw(antisymmetric(size)), data.draw(antisymmetric(size))
    E, F = AlternatingForm(A, m1), AlternatingForm(A, m2)
    scalar = data.draw(st.sampled_from([0, 1, -2, Fraction(3, 2), Fraction(-1, 3)]))
    expected = {
        "+": [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)],
        "-": [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)],
        "neg": [[-a for a in r] for r in m1],
        "*": [[a * scalar for a in r] for r in m1],
    }
    results = {"+": E + F, "-": E - F, "neg": -E, "*": E * scalar}
    assert scalar * E == results["*"]
    for op, form in results.items():
        reference = validated(A, expected[op])
        assert form == reference and hash(form) == hash(reference)
        assert form.matrix == reference.matrix
        assert all(type(x) is Fraction for row in form.matrix for x in row)
        assert form.is_hodge == reference.is_hodge
    assert AlternatingForm._from_pair_num(A, E.den, E.pair_num()) == E


def test_outside_matrices_are_still_validated(corpus):
    A = corpus["ei2"]
    bad = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match="not antisymmetric"):
        AlternatingForm(A, bad)
    diagonal = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="not antisymmetric"):
        AlternatingForm(A, diagonal)
    with pytest.raises(ValueError, match="size"):
        AlternatingForm(A, [[0, 1], [-1, 0]])


@pytest.mark.parametrize("name", ["ei_x_e2i", "eia2", "triple"])
def test_ns_membership_matches_ns_coordinates(corpus, name):
    # defect_of_class and lambda_defect take NS membership from the Hodge
    # test; the reference is a solve over the NS basis, which also gives
    # the coordinates `ns_coordinates` reads off.
    A = corpus[name]
    rng = random.Random(name)
    basis = ns_basis(A)
    size = 2 * A.n
    polarization = sum(basis[1:], basis[0])
    for _ in range(12):
        matrix = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                matrix[i][j] = rng.choice((0, 0, 1, -1))
                matrix[j][i] = -matrix[i][j]
        noise = AlternatingForm(A, matrix)
        for D in (noise, noise + polarization, sum((b * rng.randint(-1, 1) for b in basis),
                                                   polarization * 0)):
            coords = reference_ns_coordinates(A, D)
            assert ns_coordinates(A, D) == coords
            in_ns = coords is not None
            assert D.is_hodge == in_ns
            for run in (lambda: defect_of_class(A, D), lambda: lambda_defect(A, [D], basis[0]),
                        lambda: lambda_defect(A, basis, D)):
                if in_ns:
                    run()
                else:
                    with pytest.raises(NotHodgeClass):
                        run()


def test_zero_class_is_an_ns_class():
    # The zero form passes the Hodge test and has coordinates 0 over the NS
    # basis; cup product with it kills all of NS.
    A = product([elliptic(0, 1), elliptic(0, 2)])
    zero = AlternatingForm(A, [[0] * 4 for _ in range(4)])
    assert zero.is_hodge and ns_coordinates(A, zero) is not None
    assert defect_of_class(A, zero) == len(ns_basis(A))


def test_equal_matrices_in_other_presentations_are_one_form(corpus):
    A = corpus["ei2"]
    half = [[0, Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0, 0], [0] * 4, [0] * 4]
    strings = [["0", "2/4", "0", "0"], ["-2/4", "0", "0", "0"], ["0"] * 4, ["0"] * 4]
    E, F = AlternatingForm(A, half), AlternatingForm(A, strings)
    assert E == F and hash(E) == hash(F)
    assert (E.den, E.num) == (F.den, F.num) == (2, ((0, 1, 0, 0), (-1, 0, 0, 0),
                                                     (0, 0, 0, 0), (0, 0, 0, 0)))
    assert E * 2 == AlternatingForm(A, [[2 * x for x in row] for row in half])
    assert (E * 2).den == 1 and (E * 2).num == E.num and E * 2 != E


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["ei2", "triple"]), st.data())
def test_form_is_canonical_integer_data(corpus, name, data):
    A = corpus[name]
    m = data.draw(antisymmetric(2 * A.n))
    E = AlternatingForm(A, m)
    assert E.den > 0 and gcd(E.den, *(x for row in E.num for x in row)) == 1
    assert all(type(x) is int for row in E.num for x in row)
    assert all(type(x) is Fraction for row in E.matrix for x in row)
    assert E.matrix == tuple(tuple(Fraction(x, E.den) for x in row) for row in E.num)
    assert E.pair_num() == tuple(
        E.den * E.matrix[i][j] for i, j in itertools.combinations(range(2 * A.n), 2))
    k = data.draw(st.integers(2, 6))
    s = data.draw(st.sampled_from([Fraction(2), Fraction(-1, 3), Fraction(5, 4), -1]))
    strings = [[f"{k * x.numerator}/{k * x.denominator}" for x in row] for row in m]
    presentations = [
        AlternatingForm(A, strings),
        (E * s) * (1 / Fraction(s)),
        s * E * Fraction(1, 1) * (1 / Fraction(s)),
        -(-E),
        E + E - E,
        (E + E) * Fraction(1, 2),
        AlternatingForm._from_pair_num(A, E.den, E.pair_num()),
        AlternatingForm._from_pair_num(A, k * E.den, [k * x for x in E.pair_num()]),
    ]
    for F in presentations:
        assert F == E and hash(F) == hash(E)
        assert (F.den, F.num) == (E.den, E.num) and F.matrix == E.matrix
    zero = AlternatingForm(A, [[0] * (2 * A.n)] * (2 * A.n))
    for Z in (E - E, E * 0, 0 * E, E + (-E)):
        assert Z == zero and hash(Z) == hash(zero) and Z.den == 1 and Z.is_zero()


@st.composite
def exterior_pairs(draw):
    """(N, p, q, u, v): coordinates of a p-class and a q-class on Z^N, all
    ints or with Fractions, with many zero coordinates."""
    N = draw(st.sampled_from([4, 6, 8]))
    p = draw(st.integers(0, 4))
    q = draw(st.integers(0, min(4, N - p)))
    if draw(st.booleans()):
        entry = st.integers(-3, 3)
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coords = st.one_of(st.just(0), entry)
    u = draw(st.lists(coords, min_size=len(wedge_basis(N, p)), max_size=len(wedge_basis(N, p))))
    v = draw(st.lists(coords, min_size=len(wedge_basis(N, q)), max_size=len(wedge_basis(N, q))))
    return N, p, q, u, v


@settings(max_examples=80, deadline=None)
@given(exterior_pairs())
def test_table_wedge_matches_subset_pair_loop(pair):
    N, p, q, u, v = pair
    coords = wedge(N, p, q, u, v)
    assert coords == reference_wedge(N, p, q, u, v)
    if all(type(x) is int for x in u + v):
        assert all(type(x) is int for x in coords)


@pytest.mark.parametrize("N", [4, 6, 8])
def test_cup_rows_match_subset_pair_loop(N):
    rng = random.Random(N)
    torus = product([elliptic(0, 1) for _ in range(N // 2)])
    for _ in range(4):
        d = [rng.choice((0, 0, 1, -2, 3)) for _ in wedge_basis(N, 2)]
        rows = cup_matrix(torus, d)
        for i in range(len(d)):
            unit = [int(k == i) for k in range(len(d))]
            assert [row[i] for row in rows] == reference_wedge(N, 2, 2, unit, d)


def reference_defect(A, D):
    d = D.pair_num()
    cols = [reference_wedge(2 * A.n, 2, 2, b.pair_num(), d) for b in ns_basis(A)]
    return len(cols) - rank(list(zip(*cols)))


def reference_lambda_defect(A, L, D):
    """The span reduced by one rank per class, as before the echelon."""
    span = []
    for form in L:
        candidate = span + [form.pair_num()]
        if rank(list(zip(*candidate))) == len(candidate):
            span.append(form.pair_num())
    if not span:
        return 0
    d = D.pair_num()
    cols = [reference_wedge(2 * A.n, 2, 2, row, d) for row in span]
    return len(span) - rank(list(zip(*cols)))


def reference_radical(A, E):
    return subtorus(A, integer_kernel_basis(E.matrix)).basis


def reference_induced_class(A, E, W):
    S, N = W.section, 2 * A.n
    rows = [[sum(Fraction(S[a][i]) * E.matrix[a][b] * S[b][j]
                  for a in range(N) for b in range(N)) for j in range(len(S[0]))]
            for i in range(len(S[0]))]
    return AlternatingForm(quotient(A, W), rows)


def reference_restriction_kernel(A, W):
    basis = W.basis
    R = [[basis[a][i] * basis[b][j] - basis[b][i] * basis[a][j]
          for i, j in itertools.combinations(range(2 * A.n), 2)]
         for a, b in itertools.combinations(range(W.rank), 2)]
    cols = [[sum(x * y for x, y in zip(row, b.pair_num())) for row in R] for b in ns_basis(A)]
    return kernel_basis(list(zip(*cols)))


def reference_cup_dual_kernel(A, W):
    N, dual = 2 * A.n, reference_poincare_coords(A, W)
    cols = [reference_wedge(N, 2, W.corank, b.pair_num(), dual) for b in ns_basis(A)]
    return kernel_basis(list(zip(*cols)))


def assert_voisin_kernels_match_reference(A, W):
    # Every side is a `kernel_basis`, whose canonical form depends on the
    # kernel alone: equal kernels are equal lists.
    assert restriction_kernel_on_ns(A, W) == reference_restriction_kernel(A, W)
    assert cup_dual_kernel_on_ns(A, W) == reference_cup_dual_kernel(A, W)


def assert_cup_path_matches_reference(A, rng):
    """Defects, lambda defects, radicals, induced classes and Voisin kernels
    of degenerate classes, random NS classes and their rescalings, on A and
    on A in a mixed basis."""
    U, U_inv = unimodular(2 * A.n, rng)
    mixed = rebase(A, U, U_inv)
    for _, W in coordinate_factor_sublattices(A, corank=2):
        assert_voisin_kernels_match_reference(A, W)
    for X, matrices in ((A, degenerate_classes(A)), (mixed, degenerate_classes(A, U))):
        basis = ns_basis(X)
        forms = [AlternatingForm(X, m) for m in matrices]
        forms += [sum((b * rng.randint(-1, 2) for b in basis), basis[0] * 0) for _ in range(3)]
        forms += [D * Fraction(3, 2) for D in forms[:2]]
        for D in forms:
            assert defect_of_class(X, D) == reference_defect(X, D)
            L = [rng.choice(basis + forms) * rng.choice((1, -2, Fraction(1, 3)))
                 for _ in range(rng.randint(0, 4))]
            assert lambda_defect(X, L, D) == reference_lambda_defect(X, L, D)
            if not is_effective_class(X, D):
                continue
            W = radical(X, D)
            assert W.basis == reference_radical(X, D)
            if 0 < W.rank < 2 * X.n:
                induced = induced_quotient_class(X, D, W)
                expected = reference_induced_class(X, D, W)
                assert induced == expected and hash(induced) == hash(expected)
            if W.rank >= 2:
                assert_voisin_kernels_match_reference(X, W)


@pytest.mark.parametrize("name", CORPUS)
def test_cup_path_matches_reference_on_corpus(corpus, name):
    assert_cup_path_matches_reference(corpus[name], random.Random(name))


@settings(max_examples=12, deadline=None)
@given(elliptic_products(), st.integers(0, 2**32))
def test_cup_path_matches_reference_on_random_products(A, seed):
    assert_cup_path_matches_reference(A, random.Random(seed))


def reference_kernel_basis(matrix):
    """Back-substitution on `Fraction`s after the same echelon form."""
    rows = integer_rows(matrix)
    ncols = len(rows[0]) if rows else 0
    pivots = bareiss_echelon(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i in reversed(range(len(pivots))):
            p = pivots[i]
            s = sum((rows[i][j] * vec[j] for j in range(p + 1, ncols)), Fraction(0))
            vec[p] = -s / rows[i][p]
        basis.append(tuple(vec))
    return basis


@st.composite
def low_rank_matrices(draw):
    """Rational matrices of up to 7 x 8 whose rows combine a few random rows."""
    ncols = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    generators = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                               min_size=1, max_size=4))
    weights = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(generators),
                                     max_size=len(generators)), min_size=1, max_size=7))
    return [[sum(w * g[j] for w, g in zip(ws, generators)) for j in range(ncols)]
            for ws in weights]


@settings(max_examples=80, deadline=None)
@given(low_rank_matrices())
def test_kernel_basis_matches_fraction_back_substitution(matrix):
    basis = kernel_basis(matrix)
    assert basis == [primitive_integer_vector(v) for v in reference_kernel_basis(matrix)]
    assert all(type(x) is int for v in basis for x in v)
