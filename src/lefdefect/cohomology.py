"""Exterior-algebra model of the rational cohomology of a complex torus.

H^k is the k-th wedge power of the dual lattice, with the lexicographic
k-subsets of lattice indices as basis, so cup products are pure
combinatorics with shuffle signs.  The central operation is the kernel of
cup product with a divisor class on the Neron-Severi subspace of H^2: its
dimension is the per-divisor defect.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import NotHodgeClass
from .exactmath import QMatrix, rank
from .exactmath.linalg import determinant
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


def wedge(u: ExteriorClass, v: ExteriorClass) -> ExteriorClass:
    """Cup product, bilinear with shuffle signs."""
    if u.N != v.N:
        raise ValueError("classes live on different lattices")
    N = u.N
    k = u.degree + v.degree
    if k > N:
        raise ValueError("wedge degree exceeds the top degree")
    out = [_ZERO] * len(wedge_basis(N, k))
    index = wedge_index(N, k)
    ubasis = wedge_basis(N, u.degree)
    vbasis = wedge_basis(N, v.degree)
    for i, a in enumerate(u.coords):
        if a == 0:
            continue
        I = ubasis[i]
        iset = set(I)
        for j, b in enumerate(v.coords):
            if b == 0:
                continue
            J = vbasis[j]
            if iset & set(J):
                continue
            merged = tuple(sorted(I + J))
            out[index[merged]] += a * b * _merge_sign(I, J)
    return ExteriorClass(N, k, out)


def class_of_form(E: AlternatingForm) -> ExteriorClass:
    """The degree-2 class of a divisor form: sum of E(e_i, e_j) over i < j."""
    N = 2 * E.torus.n
    return ExteriorClass(N, 2, E.pair_coords())


def cup_matrix(A: ComplexTorus, e: ExteriorClass) -> QMatrix:
    """Matrix of v -> v ^ e from degree 2 to degree 4 (rows = 4-subsets)."""
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    N = 2 * A.n
    if (e.N, e.degree) != (N, 2):
        raise ValueError("expected a degree-2 class on the same lattice")
    n2 = len(wedge_basis(N, 2))
    n4 = len(wedge_basis(N, 4))
    cols = []
    for subset in wedge_basis(N, 2):
        image = wedge(ExteriorClass.basis_element(N, subset), e)
        cols.append(image.coords)
    return QMatrix([[cols[j][i] for j in range(n2)] for i in range(n4)])


def _in_ns(A: ComplexTorus, form: AlternatingForm) -> bool:
    """Whether the form lies in the span of ns_basis(A).

    The NS basis spans exactly the J-compatible forms, so this is the Hodge
    test of the form (cached on it); an empty basis spans no class at all.
    """
    return form.is_hodge and bool(ns_basis(A))


def _require_ns(A: ComplexTorus, D: AlternatingForm, what: str):
    if not _in_ns(A, D):
        raise NotHodgeClass(f"{what} is not a Hodge class")


def ns_cup_matrix(A: ComplexTorus, D: AlternatingForm) -> QMatrix:
    """Matrix of x -> x ^ [D] restricted to the NS subspace of H^2."""
    basis = ns_basis(A)
    d_class = class_of_form(D)
    N = 2 * A.n
    n4 = len(wedge_basis(N, 4))
    cols = [wedge(class_of_form(b), d_class).coords for b in basis]
    return QMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n4)])


def defect_of_class(A: ComplexTorus, D: AlternatingForm) -> int:
    """Dimension of the cup-product kernel of [D] on the Neron-Severi space.

    This is the per-divisor defect: the codimension of the curve classes of D
    inside those of A equals the kernel of cup product with the divisor class
    from NS(A) to H^4(A).
    """
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    _require_ns(A, D, "the divisor class")
    basis = ns_basis(A)
    M = ns_cup_matrix(A, D)
    return len(basis) - rank(M)


def restriction_map(A: ComplexTorus, W: Sublattice) -> QMatrix:
    """Pullback of 2-forms along the inclusion of a sublattice.

    Entries are the 2x2 minors of the basis matrix of W: the pullback of
    e_i* ^ e_j* evaluated on a pair of basis vectors of W.
    """
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.rank < 2:
        raise ValueError("restriction to degree 2 needs rank at least 2")
    N = 2 * A.n
    basis = W.basis
    rows = []
    for (a, b) in combinations(range(W.rank), 2):
        row = []
        for (i, j) in combinations(range(N), 2):
            row.append(
                Fraction(basis[a][i] * basis[b][j] - basis[b][i] * basis[a][j])
            )
        rows.append(row)
    return QMatrix(rows)


def poincare_dual(A: ComplexTorus, W: Sublattice) -> ExteriorClass:
    """Class of the subtorus W: pullback of the top class of the quotient.

    For corank 2c, the coordinates over 2c-subsets are the maximal minors of
    the quotient projection; the sign convention is the one fixed by the
    ordered Smith complement basis.  W = full lattice gives the degree-0 unit.
    """
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    N = 2 * A.n
    codim = W.corank
    if codim == 0:
        return ExteriorClass.unit(N)
    P = W.projection  # codim x N integer rows
    coords = [
        determinant([[row[j] for j in subset] for row in P]) for subset in wedge_basis(N, codim)
    ]
    return ExteriorClass(N, codim, coords)


def lambda_defect(A: ComplexTorus, L, D: AlternatingForm) -> int:
    """Defect with the kernel restricted to the span of the given NS classes.

    Computing with the span (not the raw list) keeps the number independent
    of how the subgroup is presented.
    """
    if A.n < 2:
        raise ValueError("H^4 trivial in dimension one")
    for idx, form in enumerate(L):
        if not _in_ns(A, form):
            raise NotHodgeClass(f"polarization class {idx} is not inside NS")
    _require_ns(A, D, "the divisor class")
    coord_matrix = [list(form.pair_coords()) for form in L]
    # Reduce the list to a basis of its span.
    span_basis = []
    for row in coord_matrix:
        candidate = span_basis + [row]
        test = QMatrix([list(r) for r in candidate])
        if rank(test.transpose()) == len(candidate):
            span_basis.append(row)
    if not span_basis:
        return 0
    d_class = class_of_form(D)
    N = 2 * A.n
    n4 = len(wedge_basis(N, 4))
    cols = [
        wedge(ExteriorClass(N, 2, row), d_class).coords for row in span_basis
    ]
    M = QMatrix([[cols[j][i] for j in range(len(cols))] for i in range(n4)])
    return len(span_basis) - rank(M)
