"""Exterior-algebra model of the rational cohomology of a complex torus.

H^k is the k-th wedge power of the dual lattice, with the lexicographic
k-subsets of lattice indices as basis, so cup products are pure
combinatorics with shuffle signs.  A class is its list of coordinates over
that basis and a linear map its list of rows, both integers: the class of
a divisor form E is its integer pair coordinates (den * E, `pair_num`),
which changes no kernel.  Each product H^p x H^q -> H^(p+q) is read off one
cached table (`wedge_table`), and so is every minor: the pullback of
2-forms to a sublattice (`restriction_map`) has the wedges w_a ^ w_b of its
basis vectors as rows, and the class of a subtorus (`poincare_dual`) is the
wedge of the rows of its quotient projection.  The central operation is
the kernel of cup product with a divisor class on the Neron-Severi subspace
of H^2: its dimension is the per-divisor defect, and every such rank is one
fraction-free (Bareiss) elimination on ints.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import NotHodgeClass
from .exactmath.linalg import bareiss_echelon
from .torus import AlternatingForm, ComplexTorus, Sublattice, ns_basis


@lru_cache(maxsize=None)
def wedge_basis(N: int, k: int):
    """Lexicographically ordered k-subsets of {0, ..., N-1}."""
    if not 0 <= k <= N:
        return ()
    return tuple(combinations(range(N), k))


@lru_cache(maxsize=None)
def wedge_index(N: int, k: int):
    return {subset: i for i, subset in enumerate(wedge_basis(N, k))}


def _merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def wedge_table(N: int, p: int, q: int):
    """Cup-product table of H^p x H^q -> H^(p+q) on Z^N.

    Row i lists, for every q-subset J (index j) disjoint from the i-th
    p-subset I, the entry (j, k, sign): k is the index of the sorted union
    and sign the shuffle sign of I + J.  So u ^ v has coordinate k equal to
    the sum of sign * u[i] * v[j] over the entries (i, j, k, sign).
    """
    index = wedge_index(N, p + q)
    return tuple(
        tuple((j, index[tuple(sorted(I + J))], _merge_sign(I, J))
              for j, J in enumerate(wedge_basis(N, q)) if set(I).isdisjoint(J))
        for I in wedge_basis(N, p)
    )


def wedge(N: int, p: int, q: int, u, v) -> list:
    """Coordinates of u ^ v from the coordinates u (degree p) and v
    (degree q) on Z^N; ints in give ints out."""
    if p + q > N:
        raise ValueError("wedge degree exceeds the top degree")
    out = [0] * len(wedge_basis(N, p + q))
    for a, row in zip(u, wedge_table(N, p, q)):
        if a:
            for j, k, sign in row:
                b = v[j]
                if b:
                    out[k] += sign * a * b
    return out


def cup_matrix(A: ComplexTorus, d) -> list:
    """Integer rows (one per 4-subset) of the matrix of x -> x ^ d from
    H^2 to H^4, for the degree-2 coordinates d (one per pair)."""
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    N = 2 * A.n
    if len(d) != len(wedge_basis(N, 2)):
        raise ValueError("expected a degree-2 class on the same lattice")
    rows = [[0] * len(d) for _ in wedge_basis(N, 4)]
    for i, row in enumerate(wedge_table(N, 2, 2)):
        for j, k, sign in row:
            if d[j]:
                rows[k][i] += sign * d[j]
    return rows


def _in_ns(A: ComplexTorus, form: AlternatingForm) -> bool:
    """Whether the form lies in the span of ns_basis(A).

    The NS basis spans exactly the J-compatible forms, so this is the Hodge
    test of the form (cached on it); an empty basis spans no class at all.
    """
    return form.is_hodge and bool(ns_basis(A))


def _require_ns(A: ComplexTorus, D: AlternatingForm, what: str):
    if not _in_ns(A, D):
        raise NotHodgeClass(f"{what} is not a Hodge class")


def _images(N: int, rows, D: AlternatingForm) -> list:
    """The H^4 coordinates of x ^ (den D) for the integer pair coordinates
    x of each row."""
    d = D.pair_num()
    return [wedge(N, 2, 2, x, d) for x in rows]


def ns_cup_matrix(A: ComplexTorus, D: AlternatingForm) -> list:
    """Integer matrix of x -> x ^ [den D] on the NS subspace of H^2: one
    row per NS basis class b, the H^4 coordinates of b ^ (den D).  The
    positive factor den (D's denominator) changes no kernel."""
    return _images(2 * A.n, [b.pair_num() for b in ns_basis(A)], D)


def defect_of_class(A: ComplexTorus, D: AlternatingForm) -> int:
    """Dimension of the cup-product kernel of [D] on the Neron-Severi space.

    This is the per-divisor defect: the codimension of the curve classes of D
    inside those of A equals the kernel of cup product with the divisor class
    from NS(A) to H^4(A).  The rank is one Bareiss elimination of the
    integer `ns_cup_matrix`.
    """
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    _require_ns(A, D, "the divisor class")
    rows = ns_cup_matrix(A, D)
    return len(rows) - len(bareiss_echelon(rows))


def restriction_map(A: ComplexTorus, W: Sublattice) -> list:
    """Integer matrix of the pullback of 2-forms along the inclusion of a
    sublattice.

    Row (a, b), for basis vectors a < b of W, is w_a ^ w_b: its entry in
    the column of the lattice pair i < j is the 2x2 minor of W's basis on
    rows a, b and columns i, j, the pullback of e_i* ^ e_j* evaluated on
    the pair.
    """
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.rank < 2:
        raise ValueError("restriction to degree 2 needs rank at least 2")
    N, basis = 2 * A.n, W.basis
    return [wedge(N, 1, 1, basis[a], basis[b]) for a, b in combinations(range(W.rank), 2)]


def poincare_dual(A: ComplexTorus, W: Sublattice) -> list:
    """Integer coordinates of the class of the subtorus W: the pullback of
    the top class of the quotient.

    For corank c this is the wedge P_1 ^ ... ^ P_c of the rows of the
    quotient projection P of W's `complement_data`, so its coordinates over
    the c-subsets are P's maximal minors and the sign is the orientation of
    P's rows: for unit Hermite pivots, the non-pivot coordinates in
    increasing order.  W = full lattice gives the degree-0 unit [1].
    """
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.corank == 0:
        return [1]
    N, P = 2 * A.n, W.projection  # corank x N integer rows
    dual = list(P[0])
    for k in range(1, W.corank):
        dual = wedge(N, k, 1, dual, P[k])
    return dual


def lambda_defect(A: ComplexTorus, L, D: AlternatingForm) -> int:
    """Defect with the kernel restricted to the span of the given NS classes.

    Computing with the span (not the raw list) keeps the number independent
    of how the subgroup is presented: the pivot columns of one elimination
    of the classes' coordinate columns pick a basis of the span.
    """
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    for idx, form in enumerate(L):
        if not _in_ns(A, form):
            raise NotHodgeClass(f"polarization class {idx} is not inside NS")
    _require_ns(A, D, "the divisor class")
    rows = [form.pair_num() for form in L]
    if not rows:
        return 0
    span = [rows[c] for c in bareiss_echelon([list(col) for col in zip(*rows)])]
    images = _images(2 * A.n, span, D)
    return len(span) - len(bareiss_echelon(images))
