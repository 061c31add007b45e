"""Complex abelian varieties as lattices with an algebraic complex structure.

A torus of complex dimension n is the data of a rank-2n lattice together
with the matrix J of multiplication by i in a lattice basis, with entries in
a fixed real number field and J^2 = -I exactly.  A torus *is* its integer J
data: with J = sum_k alpha^k J_k on the power basis and D the least common
denominator of the J_k, it stores D and the integer matrices D*J_k (only
D*J_0 when J is rational), and equality and hashing use them.  A J given
as rows (one passed to `ComplexTorus`) is split once; a curve's
parts come straight from the integer inverse of its imaginary part in
Z[alpha] (`elliptic`), products concatenate the blocks' parts and
quotients are P*(D*J_k)*S for the projection P and section S of the
subtorus (`complement_data`), so no field matrix is ever multiplied.
J^2 = -I is certified on the parts themselves, in Z[alpha].  Given
J^2 = -I, an alternating form E satisfies E(Jx, Jy) = E(x, y) exactly when
E*J is symmetric (the Riemann relations), so the Hodge test and the
Neron-Severi space are integer conditions on the E*(D*J_k); Hom groups of
tori are the rational solutions of J_B,k M = M J_A,k, and J-stability of a
sublattice is one integer rank.  No complex (or even irrational-looking)
numbers ever appear.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import ConsistencyError, NotHodgeClass
from .exactmath import (
    AlgebraicReal,
    RealNumberField,
    complement_data,
    integral_sign,
    kernel_basis,
    norm_adjugate,
    restrict_scalars,
    saturate,
)
from .exactmath.linalg import bareiss_echelon
from .exactmath.numberfield import require_exact


def _matmul(a, b):
    """Product of two matrices of ints or of `IntegralElement`s.

    Each row of the product is accumulated over the nonzero entries of the
    row of a and of the rows of b, so block-diagonal J parts and sparse
    forms cost only their nonzero products.  A row of b is read for its
    nonzero entries only when some row of a needs it.  (An
    `IntegralElement` is never skipped, zero or not.)
    """
    width = len(b[0]) if b else 0
    sparse = [None] * len(b)
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                entries = sparse[k]
                if entries is None:
                    entries = sparse[k] = [(j, y) for j, y in enumerate(b[k]) if y]
                for j, y in entries:
                    acc[j] += x * y
        out.append(acc)
    return out


def _is_symmetric(m) -> bool:
    return list(map(tuple, m)) == list(zip(*m))


def _split_j(field: RealNumberField, J):
    """(D, [D*J_k]) for J = sum_k alpha^k J_k on the power basis, D the
    common denominator of the J_k: one integer matrix per power of alpha.

    J is given as rows of `AlgebraicReal`s of `field` or rationals; this
    is the one place such rows are read.  The J_k are the row blocks of
    J's restriction of scalars.
    """
    stacked = restrict_scalars(field, J)
    if not stacked or not stacked[0]:
        raise ValueError("matrix dimensions must be positive")
    size = len(stacked[0])
    if any(len(row) != size for row in stacked):
        raise ValueError("matrix must be rectangular")
    if len(stacked) != size * field.degree or size % 2:
        raise ValueError("J must be square of even positive size")
    den = lcm(*(x.denominator for row in stacked for x in row))
    rows = [[int(x * den) for x in row] for row in stacked]
    return den, [rows[k * size:(k + 1) * size] for k in range(field.degree)]


def _canonical(den, parts):
    """The canonical integer J data of J = sum_k alpha^k parts[k] / den:
    the common factor of D and every entry divided out (so D is the least
    common denominator of the J_k) and only D*J_0 kept when every higher
    component vanishes."""
    if not any(x for Jk in parts[1:] for row in Jk for x in row):
        parts = parts[:1]
    g = gcd(den, *(x for Jk in parts for row in Jk for x in row))
    return den // g, tuple(tuple(tuple(x // g for x in row) for row in Jk) for Jk in parts)


def _squares_to_minus_d2(field, den, parts) -> bool:
    """Whether (D J)^2 = -D^2 I in Z[alpha], for D J = sum_k alpha^k parts[k].

    The power-basis components of (D J)^2 are the sums
    C_e = sum_{i+j=e} parts[i] parts[j], accumulated row by row over
    nonzero entries as in `_matmul`, but into C_{i+j} directly (one
    `_matmul` per pair of parts, summed afterwards, costs half as much
    again on products of curves).  The C_e with e >= d fold onto the power
    basis with the field's integer reduction rows, and the certificate is
    -D^2 I at power 0 and zero at every other power: the product of D J
    with itself in Z[alpha].
    """
    size, d = len(parts[0]), field.degree
    # Row k of every part at once: the nonzero (j, c, parts[j][k][c]).
    sparse = [[(j, c, y) for j, P in enumerate(parts) for c, y in enumerate(P[k]) if y]
              for k in range(size)]
    sums = [[[0] * size for _ in range(size)] for _ in range(2 * len(parts) - 1)]
    for i, P in enumerate(parts):
        for t, row in enumerate(P):
            for x, entries in zip(row, sparse):
                if x:
                    for j, c, y in entries:
                        sums[i + j][t][c] += x * y
    for e in range(d, len(sums)):
        for t, c in enumerate(field._reduction[e - d]):
            if c:
                sums[t] = [[s + c * x for s, x in zip(trow, erow)]
                           for trow, erow in zip(sums[t], sums[e])]
    minus_d2 = -den * den
    if any(sums[0][i][j] != (minus_d2 if i == j else 0)
           for i in range(size) for j in range(size)):
        return False
    return not any(x for M in sums[1:d] for row in M for x in row)


class ComplexTorus:
    """Lattice Z^2n with an exact complex structure J (J^2 = -I).

    The torus is its integer J data in canonical form: `j_den` is D, the
    least common denominator of J's power-basis components J_k, and
    `j_parts` holds the integer matrices D*J_k, only D*J_0 when J is
    rational.  Equality and hashing use (field, j_den, j_parts).  Every J
    computation reads these parts; J^2 = -I is certified on them as
    (D*J)^2 = -D^2 I in Z[alpha], for every torus.  `ComplexTorus(field,
    J)` splits J, given as rows of `AlgebraicReal`s of `field` or
    rationals, once; `elliptic` and `quotient` build their tori from parts
    and certify them, and `product` concatenates its factors' certified
    data, which needs no check again.  Only `product` declares factors
    (`factor_blocks`), since it builds J from them.  Instances are
    immutable; derived data (the NS basis) is cached on the instance, which
    is safe because recomputation is idempotent.
    """

    def __init__(self, field: RealNumberField, J):
        self._init(field, *_split_j(field, J))

    @classmethod
    def _from_parts(cls, field, den, parts, label=None) -> "ComplexTorus":
        """The torus with J = sum_k alpha^k parts[k] / den (integer square
        matrices of even size, at most one per power of alpha)."""
        torus = cls.__new__(cls)
        torus._init(field, den, parts, label)
        return torus

    @classmethod
    def _from_certified(cls, field, den, parts, factors) -> "ComplexTorus":
        """The torus whose J data (den, parts) is already canonical, as
        nested tuples, and known to square to -D^2 I, with these declared
        factors: no checks run."""
        torus = cls.__new__(cls)
        torus._set(field, den, parts, factors, None)
        return torus

    def _init(self, field, den, parts, label=None):
        den, parts = _canonical(den, parts)
        if not _squares_to_minus_d2(field, den, parts):
            raise ConsistencyError("inconsistent complex structure: J^2 != -I")
        self._set(field, den, parts, None, label)

    def _set(self, field, den, parts, factors, label):
        self.field = field
        self.j_den, self.j_parts = den, parts
        self.n = len(self.j_parts[0]) // 2
        self.factors = tuple(factors) if factors is not None else None
        self.label = label
        self._elliptic_tau = None  # (a, beta) for curves built by elliptic()
        self._ns_cache = None  # (basis, (vector, slot, pivot) each, lcm of pivots)

    @property
    def rational_j(self) -> bool:
        """Whether J has rational entries, so that its scalars are ints."""
        return len(self.j_parts) == 1

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

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ComplexTorus):
            return NotImplemented
        return (self.field, self.j_den, self.j_parts) == (other.field, other.j_den, other.j_parts)

    def __hash__(self):
        return hash((self.field, self.j_den, self.j_parts))

    def __repr__(self):
        name = self.label or "A"
        return f"ComplexTorus({name}, n={self.n})"


def elliptic(a, beta, field=None, label=None) -> ComplexTorus:
    """Elliptic curve C / (Z + tau Z) for tau = a + i*beta, a rational and
    beta a positive element of the ambient real field.

    On the lattice basis (1, tau) multiplication by i acts by
    J = [[-a/b, -b - a^2/b], [1/b, a/b]], which has trace 0 and determinant 1,
    hence J^2 = -I.  The integer J data is built directly, without a field
    matrix: with beta = b/m for b in Z[alpha] (its numerator and
    denominator), 1/beta = m adj(b) / N(b)
    (`norm_adjugate`), so for a = p/q every entry of J is an integer
    combination of adj(b) and b over D = q^2 |N(b)| m.  beta > 0 is decided
    on b by `integral_sign`; a zero divisor b (reducible min_poly) raises
    `ZeroDivisionError`.
    """
    a = Fraction(require_exact(a))
    if isinstance(beta, AlgebraicReal):
        if field is not None and field != beta.field:
            raise ValueError("field mismatch")
        field = beta.field
    else:
        if field is None:
            field = RealNumberField.rationals()
        beta = field.from_rational(beta)
    b, m = beta.num, beta.den
    if integral_sign(b) <= 0:
        raise ValueError("tau not in upper half plane")
    norm, adj = norm_adjugate(b)
    p, q = a.numerator, a.denominator
    # Over D = q^2 |N| m, with t = m^2 sign(N): D/beta = q^2 t adj and D beta = q^2 |N| b.
    t = m * m if norm > 0 else -m * m
    qn = q * q * abs(norm)
    parts = [[[-p * q * t * x, -qn * y - p * p * t * x], [q * q * t * x, p * q * t * x]]
             for x, y in zip(adj, b.coeffs)]
    curve = ComplexTorus._from_parts(field, qn * m, parts, label=label)
    curve._elliptic_tau = (a, beta)
    return curve


def product(factors) -> ComplexTorus:
    """Product torus with block-diagonal J; factors must share the field.

    The blocks' integer J data is concatenated over D, the lcm of their
    denominators: the k-th part of the product holds (D / D_f) * (D_f J_f,k)
    on the block of factor f, and zeros where f has no k-th part.  Every
    factor's data is canonical and certified, so this is too, and no check
    runs again: a prime dividing D and every entry would divide D_f and
    every entry of a factor f whose D_f holds D's full power of it; higher
    parts appear only when some factor has a nonzero one; and
    (D J)^2 = -D^2 I holds block by block.
    """
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
    den = lcm(*(f.j_den for f in atoms))
    size = 2 * sum(f.n for f in atoms)
    parts = [[[0] * size for _ in range(size)] for _ in range(max(len(f.j_parts) for f in atoms))]
    offset = 0
    for f in atoms:
        scale = den // f.j_den
        for Jk, block in zip(parts, f.j_parts):
            for i, row in enumerate(block):
                Jk[offset + i][offset:offset + len(row)] = [scale * x for x in row]
        offset += 2 * f.n
    parts = tuple(tuple(tuple(row) for row in Jk) for Jk in parts)
    return ComplexTorus._from_certified(field, den, parts, factors=atoms)


def factor_blocks(A: ComplexTorus):
    """(lattice offset, factor) pairs for a torus with declared factors."""
    if A.factors is None:
        if A.n == 1:
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
    """Rank of Hom(A, B): rational matrices M with J_B M = M J_A.

    On the power basis the condition is J_B,k M = M J_A,k for every k, so
    on the integer data it reads D_A (D_B J_B,k) M = D_B M (D_A J_A,k): an
    integer system in the entries of M, whose nullity is the rank.
    """
    if A.field != B.field:
        raise ValueError("field mismatch")
    na, nb = 2 * A.n, 2 * B.n
    da, db = A.j_den, B.j_den
    rows = []
    for k in range(max(len(A.j_parts), len(B.j_parts))):
        JA = A.j_parts[k] if k < len(A.j_parts) else [[0] * na] * na
        JB = B.j_parts[k] if k < len(B.j_parts) else [[0] * nb] * nb
        # Unknowns M[p][q] flattened as p * na + q; one equation per entry (i, j).
        for i in range(nb):
            for j in range(na):
                row = [0] * (nb * na)
                for p in range(nb):
                    row[p * na + j] += da * JB[i][p]
                for q in range(na):
                    row[i * na + q] -= db * JA[q][j]
                rows.append(row)
    return nb * na - len(bareiss_echelon(rows))


class AlternatingForm:
    """Rational alternating 2-form on the lattice of a torus.

    These are the divisor classes: a form is a Neron-Severi class exactly
    when it is compatible with the complex structure, E(Jx, Jy) = E(x, y).

    Like the torus's J, a form is canonical integer data: `num` holds the
    integer rows of den * E over the positive denominator `den`, with
    gcd(den, entries) = 1, so den is the least common denominator of E's
    entries (1 for the zero form).  Equality and hashing use
    (torus, den, num), and `+`, `-`, negation and scalar `*` run on ints.
    `matrix` is the one `Fraction` view of a form, num / den, built on
    each read for output.
    """

    __slots__ = ("torus", "den", "num", "_pairs", "_hodge")

    def __init__(self, torus: ComplexTorus, matrix):
        rows = tuple(tuple(x if type(x) is int else Fraction(require_exact(x)) for x in row)
                     for row in matrix)
        size = 2 * torus.n
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("form size does not match the lattice rank")
        for i in range(size):
            for j in range(i, size):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix is not antisymmetric")
        # The lcm of the reduced denominators is coprime to the numerators
        # it produces, so the result is already canonical.
        den = lcm(*(x.denominator for row in rows for x in row))
        self._set(torus, den, tuple(tuple(int(x * den) for x in row) for row in rows))

    def _set(self, torus, den, num):
        self.torus = torus
        self.den = den
        self.num = num
        self._pairs = None
        self._hodge = None

    @classmethod
    def _from_num(cls, torus: ComplexTorus, den: int, num) -> "AlternatingForm":
        """The form num / den, for integer rows that are antisymmetric of
        the lattice's size (as every integer combination of forms is) and a
        positive den; nothing is re-checked, the common factor is divided
        out."""
        if den != 1:  # over den 1 there is no common factor to divide out
            g = gcd(den, *(x for row in num for x in row))
            if g != 1:
                den //= g
                num = [[x // g for x in row] for row in num]
        form = cls.__new__(cls)
        form._set(torus, den, tuple(map(tuple, num)))
        return form

    @property
    def matrix(self):
        """The rows of E as `Fraction`s, num / den."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    def times_dj(self):
        """The integer matrices num (D J_k) = den E (D J_k), one per entry
        of the torus's `j_parts`: the power-basis components of
        den D (E J).  They settle `is_hodge` as well."""
        parts = [_matmul(self.num, Jk) for Jk in self.torus.j_parts]
        self._hodge = all(_is_symmetric(m) for m in parts)
        return parts

    @property
    def is_hodge(self) -> bool:
        """Whether E(Jx, Jy) = E(x, y) holds exactly.

        Given J^2 = -I this is the symmetry of E J (the Riemann relations),
        tested as the symmetry of every E (D J_k).
        """
        if self._hodge is None:
            self.times_dj()
        return self._hodge

    def is_zero(self) -> bool:
        return not any(x for row in self.num for x in row)

    def pair_num(self):
        """The integer coordinates of num over the lexicographic basis of
        pairs i < j: the degree-2 class of den * E."""
        if self._pairs is None:
            num = self.num
            self._pairs = tuple(num[i][j] for i, j in combinations(range(len(num)), 2))
        return self._pairs

    @classmethod
    def _from_pair_num(cls, torus: ComplexTorus, den: int, pairs) -> "AlternatingForm":
        """The form with integer pair coordinates `pairs` over den."""
        size = 2 * torus.n
        num = [[0] * size for _ in range(size)]
        for (i, j), c in zip(combinations(range(size), 2), pairs):
            num[i][j], num[j][i] = c, -c
        return cls._from_num(torus, den, num)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        rows = zip(self.num, other.num)
        return self._from_num(
            self.torus, den, [[a * x + b * y for x, y in zip(r1, r2)] for r1, r2 in rows])

    def __add__(self, other):
        if not isinstance(other, AlternatingForm) or other.torus != self.torus:
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, AlternatingForm) or other.torus != self.torus:
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return self._from_num(self.torus, self.den, [[-x for x in row] for row in self.num])

    def __mul__(self, scalar):
        s = Fraction(require_exact(scalar))
        p = s.numerator
        return self._from_num(
            self.torus, self.den * s.denominator, [[p * x for x in row] for row in self.num])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, AlternatingForm):
            return NotImplemented
        return (self.torus, self.den, self.num) == (other.torus, other.den, other.num)

    def __hash__(self):
        return hash((self.torus, self.den, self.num))

    def __repr__(self):
        return f"AlternatingForm({self.matrix})"


def ns_basis(A: ComplexTorus):
    """Q-basis of the Neron-Severi space, as primitive integer forms.

    Given J^2 = -I, an alternating form E is J-compatible exactly when E J
    is symmetric, that is when every E (D J_k) is.  Each of these is an
    integer linear condition on the C(2n, 2) free entries of E, and the
    basis is the kernel of that integer system.  The number of basis
    elements is the Picard number of A.

    The condition at (r, c) reads sum_x E[r][x] J_k[x][c] =
    sum_x E[c][x] J_k[x][r], so its row is nonzero only on the 4n - 3
    pairs that hold r or c, and is built there alone.  A part J_k that is
    zero adds no condition, and zero and repeated rows are left out: the
    canonical echelon kernel depends only on the row space.
    """
    if A._ns_cache is not None:
        return list(A._ns_cache[0])
    N = 2 * A.n
    pairs = list(combinations(range(N), 2))
    M = len(pairs)
    # touch[r]: (k, x, s) for each pair k = {r, x}, with E[r][x] = s * x_k
    touch = [[] for _ in range(N)]
    for k, (p, q) in enumerate(pairs):
        touch[p].append((k, q, 1))
        touch[q].append((k, p, -1))
    rows = {}
    for Jk in A.j_parts:
        if not any(map(any, Jk)):
            continue
        columns = list(zip(*Jk))
        for r, c in pairs:
            row = [0] * M
            column = columns[c]
            for k, x, s in touch[r]:
                if column[x]:
                    row[k] += s * column[x]
            column = columns[r]
            for k, x, s in touch[c]:
                if column[x]:
                    row[k] -= s * column[x]
            if any(row):
                rows[tuple(row)] = None
    # With no condition at all (J^2 = -I on a curve) every form is Hodge.
    vectors = kernel_basis(list(rows) or [[0] * M])
    basis = [AlternatingForm._from_pair_num(A, 1, v) for v in vectors]
    # What `ns_coordinates` reads: each vector's free slot, its last nonzero
    # entry, the pivot there, and the lcm of the pivots.
    slots = [next(i for i in range(M - 1, -1, -1) if v[i]) for v in vectors]
    pivots = [v[f] for v, f in zip(vectors, slots)]
    A._ns_cache = (tuple(basis), tuple(zip(vectors, slots, pivots)), lcm(*pivots))
    return basis


def ns_rank(A: ComplexTorus) -> int:
    return len(ns_basis(A))


def ns_coordinates(A: ComplexTorus, form: AlternatingForm):
    """Coordinates of a form over ns_basis(A), or None if not an NS class.

    The basis forms are `kernel_basis`'s canonical echelon vectors, which
    are primitive integer vectors: each b_k has a free pair slot f_k, its last
    nonzero entry, where b_k[f_k] > 0 and every other basis form is 0.  So
    a form with pair coordinates x over den can only be sum_k c_k b_k with
    c_k = x[f_k] / (den b_k[f_k]), and it is exactly when
    L x = sum_k t_k b_k for t_k = x[f_k] (L / b_k[f_k]), L the lcm of the
    b_k[f_k]: one check on integers, without an elimination.
    """
    return _ns_pair_coordinates(A, form.pair_num(), form.den)


def _ns_pair_coordinates(A: ComplexTorus, x, den: int):
    """`ns_coordinates` of the form with integer pair coordinates x over
    den, without building the form."""
    if A._ns_cache is None:  # read the cached basis, built once by ns_basis
        ns_basis(A)
    _, echelon, scale = A._ns_cache
    rest = [scale * v for v in x]
    for p, f, v in echelon:
        t = x[f] * (scale // v)
        if t:
            for i, y in enumerate(p):
                if y:
                    rest[i] -= t * y
    if any(rest):
        return None
    return tuple(Fraction(x[f], den * v) for _, f, v in echelon)


class Sublattice:
    """Saturated J-stable subgroup of the lattice, i.e. a complex subtorus.

    The basis is stored as integer columns.  `projection` and `section` come
    from `complement_data` on the basis and describe the quotient lattice:
    projection kills the sublattice, and projection * section = I.
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

    J preserves the rational span of W exactly when every integer component
    D J_k does, because the span is a rational subspace; so W is a complex
    subtorus exactly when the basis together with all its images
    (D J_k) w has the rank of the basis alone: one integer elimination.
    A J-stable lattice necessarily has even rank.
    """
    N = 2 * A.n
    cols = [tuple(int(x) for x in c) for c in basis_columns]
    if any(len(c) != N for c in cols):
        raise ValueError("column length does not match the lattice rank")
    sat = saturate(cols, N) if cols else []
    W = Sublattice(A, sat)
    if sat:
        rows = [list(col) for col in sat]
        for Jk in A.j_parts:
            rows.extend([sum(a * b for a, b in zip(row, col)) for row in Jk] for col in sat)
        if len(bareiss_echelon(rows)) > len(sat):
            raise ValueError("not a complex subtorus")
    if len(sat) % 2 != 0:
        raise ConsistencyError("J-stable sublattice with odd rank")
    return W


def quotient(A: ComplexTorus, W: Sublattice) -> ComplexTorus:
    """Quotient torus on the complement basis of W's `complement_data`.

    With P the projection and S the section of W (P S = I), the
    quotient's J is P J S, so its integer J data is P (D J_k) S for every
    k over the same D, brought to canonical form.
    """
    if W.torus != A:
        raise ValueError("sublattice belongs to a different torus")
    if W.rank == 2 * A.n:
        raise ValueError("quotient by the full lattice is zero-dimensional")
    if W.rank == 0:
        return A
    P, S = W.projection, W.section
    parts = [_matmul(P, _matmul(Jk, S)) for Jk in A.j_parts]
    return ComplexTorus._from_parts(A.field, A.j_den, parts)


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
    by lattice corank.  The corank of a subset is the rank of the blocks it
    leaves out, so only the sublattices asked for are built."""
    blocks = factor_blocks(A)
    if blocks is None or len(blocks) < 2:
        return []
    result = []
    indices = range(len(blocks))
    for size in range(1, len(blocks)):
        for subset in combinations(indices, size):
            left_out = sum(2 * f.n for k, (_, f) in enumerate(blocks) if k not in subset)
            if corank is None or left_out == corank:
                result.append((subset, coordinate_sublattice(A, subset)))
    return result
