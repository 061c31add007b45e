"""Exterior-algebra model of the rational cohomology of a complex torus.

H^k is the k-th wedge power of the dual lattice, with the lexicographic
k-subsets of lattice indices as basis, so cup products are pure
combinatorics with shuffle signs.  Each product H^p x H^q -> H^(p+q) is
read off one cached table (`wedge_table`), and on a divisor form it runs on
the form's integer pair coordinates (den * E), which changes no kernel.
The central operation is the kernel of cup product with a divisor class on
the Neron-Severi subspace of H^2: its dimension is the per-divisor defect,
and every such rank is one fraction-free (Bareiss) elimination on ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import NotHodgeClass
from .exactmath import QMatrix
from .exactmath.linalg import bareiss_echelon, determinant
from .torus import AlternatingForm, ComplexTorus, Sublattice, ns_basis

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class ExteriorClass:
    """Degree-k rational cohomology class in coordinates over the k-subsets."""

    __slots__ = ("N", "degree", "coords")

    def __init__(self, N: int, degree: int, coords):
        coords = tuple(Fraction(x) for x in coords)
        if len(coords) != len(wedge_basis(N, degree)):
            raise ValueError("coordinate length does not match the wedge basis")
        self.N = N
        self.degree = degree
        self.coords = coords

    @classmethod
    def zero(cls, N: int, degree: int) -> "ExteriorClass":
        return cls(N, degree, [_ZERO] * len(wedge_basis(N, degree)))

    @classmethod
    def unit(cls, N: int) -> "ExteriorClass":
        return cls(N, 0, [_ONE])

    @classmethod
    def basis_element(cls, N: int, subset) -> "ExteriorClass":
        subset = tuple(subset)
        coords = [_ZERO] * len(wedge_basis(N, len(subset)))
        coords[wedge_index(N, len(subset))[subset]] = _ONE
        return cls(N, len(subset), coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        if not isinstance(other, ExteriorClass) or (other.N, other.degree) != (self.N, self.degree):
            return NotImplemented
        return ExteriorClass(self.N, self.degree, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if not isinstance(other, ExteriorClass) or (other.N, other.degree) != (self.N, self.degree):
            return NotImplemented
        return ExteriorClass(self.N, self.degree, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return ExteriorClass(self.N, self.degree, [-a for a in self.coords])

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return ExteriorClass(self.N, self.degree, [a * s for a in self.coords])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        return (self.N, self.degree, self.coords) == (other.N, other.degree, other.coords)

    def __hash__(self):
        return hash((self.N, self.degree, self.coords))

    def __repr__(self):
        terms = []
        for subset, c in zip(wedge_basis(self.N, self.degree), self.coords):
            if c != 0:
                terms.append(f"{c}*e{list(subset)}")
        return " + ".join(terms) if terms else "0"


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


def wedge_coords(N: int, p: int, q: int, u, v) -> list:
    """Coordinates of u ^ v from the coordinates u (degree p) and v
    (degree q); ints in give ints out."""
    out = [0] * len(wedge_basis(N, p + q))
    for a, row in zip(u, wedge_table(N, p, q)):
        if a:
            for j, k, sign in row:
                b = v[j]
                if b:
                    out[k] += sign * a * b
    return out


def wedge(u: ExteriorClass, v: ExteriorClass) -> ExteriorClass:
    """Cup product, bilinear with shuffle signs."""
    if u.N != v.N:
        raise ValueError("classes live on different lattices")
    k = u.degree + v.degree
    if k > u.N:
        raise ValueError("wedge degree exceeds the top degree")
    return ExteriorClass(u.N, k, wedge_coords(u.N, u.degree, v.degree, u.coords, v.coords))


def class_of_form(E: AlternatingForm) -> ExteriorClass:
    """The degree-2 class of a divisor form: sum of E(e_i, e_j) over i < j."""
    N = 2 * E.torus.n
    return ExteriorClass(N, 2, E.pair_coords())


def cup_rows(N: int, d) -> list:
    """Rows (one per 4-subset) of the matrix of x -> x ^ d from H^2 to H^4,
    for the degree-2 coordinates d."""
    rows = [[0] * len(wedge_basis(N, 2)) for _ in wedge_basis(N, 4)]
    for i, row in enumerate(wedge_table(N, 2, 2)):
        for j, k, sign in row:
            if d[j]:
                rows[k][i] += sign * d[j]
    return rows


def cup_matrix(A: ComplexTorus, e: ExteriorClass) -> QMatrix:
    """Matrix of v -> v ^ e from degree 2 to degree 4 (rows = 4-subsets)."""
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    N = 2 * A.n
    if (e.N, e.degree) != (N, 2):
        raise ValueError("expected a degree-2 class on the same lattice")
    return QMatrix(cup_rows(N, e.coords))


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
    return [wedge_coords(N, 2, 2, x, d) for x in rows]


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


def restriction_rows(A: ComplexTorus, W: Sublattice) -> list:
    """Integer matrix of the pullback of 2-forms to a sublattice.

    Row (a, b), for basis vectors a < b of W, holds the 2x2 minors of the
    basis matrix: the pullback of e_i* ^ e_j* evaluated on the pair, in
    the column of the lattice pair i < j.
    """
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.rank < 2:
        raise ValueError("restriction to degree 2 needs rank at least 2")
    basis = W.basis
    return [
        [basis[a][i] * basis[b][j] - basis[b][i] * basis[a][j]
         for i, j in wedge_basis(2 * A.n, 2)]
        for a, b in combinations(range(W.rank), 2)
    ]


def restriction_map(A: ComplexTorus, W: Sublattice) -> QMatrix:
    """Pullback of 2-forms along the inclusion of a sublattice, as a
    rational matrix (see `restriction_rows`)."""
    return QMatrix(restriction_rows(A, W))


def poincare_dual_coords(A: ComplexTorus, W: Sublattice) -> list:
    """Integer coordinates of the Poincare dual of W (see `poincare_dual`)."""
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.corank == 0:
        return [1]
    P = W.projection  # codim x N integer rows
    return [
        determinant([[row[j] for j in subset] for row in P])
        for subset in wedge_basis(2 * A.n, W.corank)
    ]


def poincare_dual(A: ComplexTorus, W: Sublattice) -> ExteriorClass:
    """Class of the subtorus W: pullback of the top class of the quotient.

    For corank 2c, the coordinates over 2c-subsets are the maximal minors of
    the quotient projection; the sign convention is the one fixed by the
    ordered Smith complement basis.  W = full lattice gives the degree-0 unit.
    """
    return ExteriorClass(2 * A.n, W.corank, poincare_dual_coords(A, W))


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
