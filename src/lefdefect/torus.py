"""Complex abelian varieties as lattices with an algebraic complex structure.

A torus of complex dimension n is the data of a rank-2n lattice together
with the matrix J of multiplication by i in a lattice basis, with entries in
a fixed real number field and J^2 = -I exactly.  Everything downstream is
linear in J: the Neron-Severi space is the rational solution space of
E(Jx, Jy) = E(x, y) on alternating forms, and Hom groups of tori are the
rational solution spaces of J_B M = M J_A.  Both are computed exactly via
restriction of scalars, so no complex (or even irrational-looking) numbers
ever appear.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import ConsistencyError, NotHodgeClass
from .exactmath import (
    AlgebraicReal,
    KMatrix,
    QMatrix,
    RealNumberField,
    complement_data,
    kernel_basis,
    nf_sign,
    primitive_integer_vector,
    restrict_scalars,
    saturate,
    solve,
)

_ZERO = Fraction(0)


class ComplexTorus:
    """Lattice Z^2n with an exact complex structure J (J^2 = -I).

    Instances are immutable; derived data (the NS basis) is cached on the
    instance, which is safe because recomputation is idempotent.
    """

    def __init__(self, field: RealNumberField, J: KMatrix, factors=None, label=None):
        if J.nrows != J.ncols or J.nrows % 2 != 0 or J.nrows == 0:
            raise ValueError("J must be square of even positive size")
        if J.field != field:
            raise ValueError("field mismatch")
        n = J.nrows // 2
        minus_identity = -KMatrix.identity(field, 2 * n)
        if J * J != minus_identity:
            raise ConsistencyError("inconsistent complex structure: J^2 != -I")
        self.field = field
        self.J = J
        self.n = n
        self.factors = tuple(factors) if factors is not None else None
        self.label = label
        self._elliptic_tau = None  # (a, beta) for curves built by elliptic()
        self._ns_cache = None

    @property
    def lattice_rank(self) -> int:
        return 2 * self.n

    @property
    def labels(self):
        if self.factors is None:
            return (self.label,) if self.label else None
        return tuple(f.label or f"F{i + 1}" for i, f in enumerate(self.factors))

    @property
    def has_cm(self) -> bool:
        """For an elliptic curve: endomorphism ring bigger than Z.

        Curves built from tau = a + i*beta have CM exactly when beta^2 is
        rational (tau imaginary quadratic); other one-dimensional tori fall
        back to the Hom-rank criterion.
        """
        if self.n != 1:
            raise ValueError("has_cm is defined for elliptic curves only")
        if self._elliptic_tau is not None:
            _, beta = self._elliptic_tau
            return (beta * beta).is_rational()
        return hom_rank(self, self) == 2

    def j_component(self, k: int):
        """Rational matrix of the alpha^k coordinate of J."""
        return [[x.coeffs[k] for x in row] for row in self.J.rows]

    def __eq__(self, other):
        if not isinstance(other, ComplexTorus):
            return NotImplemented
        return self.field == other.field and self.J == other.J

    def __hash__(self):
        return hash((self.field, self.J))

    def __repr__(self):
        name = self.label or "A"
        return f"ComplexTorus({name}, n={self.n})"


def elliptic(a, beta, field=None, label=None) -> ComplexTorus:
    """Elliptic curve C / (Z + tau Z) for tau = a + i*beta, a rational and
    beta a positive element of the ambient real field.

    On the lattice basis (1, tau) multiplication by i acts by
    J = [[-a/b, -b - a^2/b], [1/b, a/b]], which has trace 0 and determinant 1,
    hence J^2 = -I.
    """
    a = Fraction(a)
    if isinstance(beta, AlgebraicReal):
        if field is not None and field != beta.field:
            raise ValueError("field mismatch")
        field = beta.field
    else:
        if field is None:
            field = RealNumberField.rationals()
        beta = field.from_rational(Fraction(beta))
    if nf_sign(beta) <= 0:
        raise ValueError("tau not in upper half plane")
    inv_b = beta.inverse()
    J = KMatrix(
        field,
        [
            [-a * inv_b, -beta - a * a * inv_b],
            [inv_b, a * inv_b],
        ],
    )
    curve = ComplexTorus(field, J, factors=None, label=label)
    curve._elliptic_tau = (a, beta)
    return curve


def product(factors) -> ComplexTorus:
    """Product torus with block-diagonal J; factors must share the field."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    if len(factors) == 1:
        return factors[0]
    field = factors[0].field
    if any(f.field != field for f in factors):
        raise ValueError("field mismatch")
    atoms = []
    for f in factors:
        atoms.extend(f.factors if f.factors is not None else (f,))
    total = sum(f.n for f in atoms)
    zero = field.zero()
    rows = [[zero] * (2 * total) for _ in range(2 * total)]
    offset = 0
    for f in atoms:
        size = 2 * f.n
        for i in range(size):
            for j in range(size):
                rows[offset + i][offset + j] = f.J.rows[i][j]
        offset += size
    return ComplexTorus(field, KMatrix(field, rows), factors=atoms)


def factor_blocks(A: ComplexTorus):
    """(lattice offset, factor) pairs for a torus with declared factors."""
    if A.factors is None:
        if A._elliptic_tau is not None or A.n == 1:
            return [(0, A)]
        return None
    blocks = []
    offset = 0
    for f in A.factors:
        blocks.append((offset, f))
        offset += 2 * f.n
    return blocks


def fiber_pairs(A: ComplexTorus):
    """Per declared block, the lattice index pairs of its standard fiber form.

    The fiber form of the block at `offset` with factor dimension d is the
    sum of e_i ^ e_{i+1} over the pairs (offset + 2t, offset + 2t + 1),
    t < d: the pullback of the factor's standard form under the projection.
    None when the torus has no declared factor structure.
    """
    blocks = factor_blocks(A)
    if blocks is None:
        return None
    return [
        [(offset + 2 * t, offset + 2 * t + 1) for t in range(f.n)] for offset, f in blocks
    ]


def hom_rank(A: ComplexTorus, B: ComplexTorus) -> int:
    """Rank of Hom(A, B): rational matrices M with J_B M = M J_A."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    field = A.field
    na, nb = 2 * A.n, 2 * B.n
    JA, JB = A.J.rows, B.J.rows
    zero = field.zero()
    # Unknowns M[p][q] flattened as p * na + q; one equation per entry (i, j).
    rows = []
    for i in range(nb):
        for j in range(na):
            row = [zero] * (nb * na)
            for p in range(nb):
                row[p * na + j] = row[p * na + j] + JB[i][p]
            for q in range(na):
                row[i * na + q] = row[i * na + q] - JA[q][j]
            rows.append(row)
    system = KMatrix(field, rows)
    return len(kernel_basis(restrict_scalars(system)))


class AlternatingForm:
    """Rational alternating 2-form on the lattice of a torus.

    These are the divisor classes: a form is a Neron-Severi class exactly
    when it is compatible with the complex structure, E(Jx, Jy) = E(x, y).
    """

    __slots__ = ("torus", "matrix", "_hodge")

    def __init__(self, torus: ComplexTorus, matrix):
        rows = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        size = 2 * torus.n
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("form size does not match the lattice rank")
        for i in range(size):
            for j in range(i, size):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not antisymmetric")
        self.torus = torus
        self.matrix = rows
        self._hodge = None

    @property
    def is_hodge(self) -> bool:
        """Whether E(Jx, Jy) = E(x, y) holds exactly."""
        if self._hodge is None:
            J = self.torus.J
            E = KMatrix(self.torus.field, self.matrix)
            self._hodge = J.transpose() * E * J == E
        return self._hodge

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    def pair_coords(self):
        """Coordinates over the lexicographic basis of pairs i < j."""
        size = 2 * self.torus.n
        return tuple(self.matrix[i][j] for i, j in combinations(range(size), 2))

    @classmethod
    def from_pair_coords(cls, torus: ComplexTorus, coords) -> "AlternatingForm":
        size = 2 * torus.n
        rows = [[_ZERO] * size for _ in range(size)]
        for (i, j), c in zip(combinations(range(size), 2), coords):
            rows[i][j] = Fraction(c)
            rows[j][i] = -Fraction(c)
        return cls(torus, rows)

    def __add__(self, other):
        if not isinstance(other, AlternatingForm) or other.torus != self.torus:
            return NotImplemented
        return AlternatingForm(
            self.torus,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)],
        )

    def __sub__(self, other):
        if not isinstance(other, AlternatingForm) or other.torus != self.torus:
            return NotImplemented
        return AlternatingForm(
            self.torus,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)],
        )

    def __neg__(self):
        return AlternatingForm(self.torus, [[-a for a in r] for r in self.matrix])

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return AlternatingForm(self.torus, [[a * s for a in r] for r in self.matrix])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        return self.torus == other.torus and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.torus, self.matrix))

    def __repr__(self):
        return f"AlternatingForm({self.matrix})"


def ns_basis(A: ComplexTorus):
    """Q-basis of the Neron-Severi space, as primitive integer forms.

    The J-compatibility condition J^T E J = E is linear over the field in
    the C(2n, 2) free entries of an alternating form; its rational solution
    space is found by restriction of scalars.  The number of basis elements
    is the Picard number of A.
    """
    if A._ns_cache is not None:
        return list(A._ns_cache)
    field = A.field
    size = 2 * A.n
    pairs = list(combinations(range(size), 2))
    J = A.J.rows
    zero = field.zero()
    rows = []
    for (i, j) in pairs:
        row = []
        for (p, q) in pairs:
            coeff = J[p][i] * J[q][j] - J[q][i] * J[p][j]
            if (p, q) == (i, j):
                coeff = coeff - field.one()
            row.append(coeff)
        rows.append(row)
    system = KMatrix(field, rows)
    vectors = kernel_basis(restrict_scalars(system))
    basis = [
        AlternatingForm.from_pair_coords(A, primitive_integer_vector(v)) for v in vectors
    ]
    A._ns_cache = tuple(basis)
    return list(basis)


def ns_rank(A: ComplexTorus) -> int:
    return len(ns_basis(A))


def ns_coordinates(A: ComplexTorus, form: AlternatingForm):
    """Coordinates of a form over ns_basis(A), or None if not an NS class."""
    basis = ns_basis(A)
    if not basis:
        return None
    cols = [b.pair_coords() for b in basis]
    matrix = QMatrix([[col[k] for col in cols] for k in range(len(cols[0]))])
    return solve(matrix, form.pair_coords())


class Sublattice:
    """Saturated J-stable subgroup of the lattice, i.e. a complex subtorus.

    The basis is stored as integer columns.  `projection` and `section` come
    from the Smith decomposition of the basis and describe the quotient
    lattice: projection kills the sublattice, and projection * section = I.
    """

    __slots__ = ("torus", "basis", "_pq")

    def __init__(self, torus: ComplexTorus, basis_columns):
        self.torus = torus
        self.basis = tuple(tuple(int(x) for x in col) for col in basis_columns)
        self._pq = None

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def corank(self) -> int:
        return 2 * self.torus.n - len(self.basis)

    def _complement(self):
        if self._pq is None:
            self._pq = complement_data(list(self.basis), 2 * self.torus.n)
        return self._pq

    @property
    def projection(self):
        return self._complement()[0]

    @property
    def section(self):
        return self._complement()[1]

    def contains_vector(self, vec) -> bool:
        if not self.basis:
            return all(x == 0 for x in vec)
        matrix = QMatrix(
            [[Fraction(self.basis[j][i]) for j in range(len(self.basis))] for i in range(len(vec))]
        )
        return solve(matrix, [Fraction(x) for x in vec]) is not None

    def __eq__(self, other):
        if not isinstance(other, Sublattice):
            return NotImplemented
        return self.torus == other.torus and self.basis == other.basis

    def __hash__(self):
        return hash((self.torus, self.basis))

    def __repr__(self):
        return f"Sublattice(rank={self.rank} in Z^{2 * self.torus.n})"


def subtorus(A: ComplexTorus, basis_columns) -> Sublattice:
    """Saturate the given columns and certify J-stability.

    J preserves the rational span of W exactly when every power-basis
    component of J does, because the span is a rational subspace.  A J-stable
    lattice necessarily has even rank.
    """
    N = 2 * A.n
    cols = [tuple(int(x) for x in c) for c in basis_columns]
    if any(len(c) != N for c in cols):
        raise ValueError("column length does not match the lattice rank")
    sat = saturate(cols, N) if cols else []
    W = Sublattice(A, sat)
    if sat:
        matrix = QMatrix([[Fraction(sat[j][i]) for j in range(len(sat))] for i in range(N)])
        for k in range(A.field.degree):
            Jk = A.j_component(k)
            for col in sat:
                image = [sum(Jk[i][j] * col[j] for j in range(N)) for i in range(N)]
                if solve(matrix, image) is None:
                    raise ValueError("not a complex subtorus")
    if len(sat) % 2 != 0:
        raise ConsistencyError("J-stable sublattice with odd rank")
    return W


def quotient(A: ComplexTorus, W: Sublattice) -> ComplexTorus:
    """Quotient torus on the complement basis from the Smith decomposition."""
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.rank == 2 * A.n:
        raise ValueError("quotient by the full lattice is zero-dimensional")
    if W.rank == 0:
        return A
    P, S = W.projection, W.section
    Pq = QMatrix([[Fraction(x) for x in row] for row in P])
    Sq = QMatrix([[Fraction(x) for x in row] for row in S])
    Jq = Pq * (A.J * Sq)
    return ComplexTorus(A.field, Jq, factors=None, label=None)


def coordinate_sublattice(A: ComplexTorus, block_indices) -> Sublattice:
    """Sublattice spanned by the lattice coordinates of the chosen factors."""
    blocks = factor_blocks(A)
    if blocks is None:
        raise ValueError("torus has no declared factor structure")
    N = 2 * A.n
    cols = []
    for idx in block_indices:
        offset, f = blocks[idx]
        for k in range(2 * f.n):
            col = [0] * N
            col[offset + k] = 1
            cols.append(tuple(col))
    return subtorus(A, cols)


def coordinate_factor_sublattices(A: ComplexTorus, corank=None):
    """All proper nonempty coordinate-factor sublattices, optionally filtered
    by lattice corank."""
    blocks = factor_blocks(A)
    if blocks is None or len(blocks) < 2:
        return []
    result = []
    indices = range(len(blocks))
    for size in range(1, len(blocks)):
        for subset in combinations(indices, size):
            W = coordinate_sublattice(A, subset)
            if corank is None or W.corank == corank:
                result.append((subset, W))
    return result
