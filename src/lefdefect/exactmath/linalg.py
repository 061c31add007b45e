"""Exact linear algebra over Q and over a real number field.

Rank and kernel computations run through fraction-free (Bareiss) Gaussian
elimination on integer rows, which keeps intermediate entries at the size of
minors of the input instead of letting fractions compound.  A system with
number-field entries can be handled by restriction of scalars: a K-linear
condition on a rational vector splits into `degree` rational conditions, one
per power-basis coordinate.  The torus code needs no such systems, because
it works on J's integer power-basis components; a J given as rows is split
into them by exactly this restriction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .numberfield import AlgebraicReal, RealNumberField

_ZERO = Fraction(0)
_ONE = Fraction(1)


class QMatrix:
    """Immutable rational matrix (rows of Fractions)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix must be rectangular")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.rows)))

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return QMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"QMatrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


def _integer_rows(matrix) -> list:
    """Clear denominators row by row; preserves rank and kernel.  Entries
    are ints or Fractions, which both carry a `denominator`; a row without
    a Fraction is copied as it is."""
    rows = matrix.rows if isinstance(matrix, QMatrix) else matrix
    out = []
    for row in rows:
        if Fraction not in map(type, row):
            out.append(list(row))
            continue
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def bareiss_echelon(rows):
    """In-place fraction-free row echelon form; returns the pivot columns.

    Entries stay integral throughout: after step k every entry is a
    (k+1)x(k+1) minor of the input (Sylvester's identity), so the division by
    the previous pivot is exact.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            ri, rp = rows[i], rows[r]
            for j in range(c + 1, ncols):
                ri[j] = (p * ri[j] - f * rp[j]) // prev
            ri[c] = 0
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix.

    `bareiss_echelon` on a copy leaves the determinant of its row order in
    the last pivot; it reorders the rows by swapping the row lists, so their
    identities give the permutation, whose parity fixes the sign.
    """
    m = [list(r) for r in rows]
    origin = {id(r): i for i, r in enumerate(m)}
    if len(bareiss_echelon(m)) < len(m):
        return 0
    order = [origin[id(r)] for r in m]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -m[-1][-1] if inversions % 2 else m[-1][-1]


def rank(matrix) -> int:
    """Exact rank over Q."""
    rows = _integer_rows(matrix)
    if not rows:
        return 0
    return len(bareiss_echelon(rows))


def kernel_basis(matrix):
    """Basis of the right kernel over Q, in the canonical echelon form, as
    primitive integer vectors.

    Each free column yields one vector that is positive in that slot and
    zero in the other free slots; pivot slots are back-substituted.
    Deterministic for a given matrix, and it depends only on the row space:
    zero or repeated rows change nothing.  Rows of ints enter the
    elimination as they are, without a pass that clears denominators.  The
    back-substitution runs on integers: the vector is kept as integer numerators over the common
    scale in its free slot, and divided by their gcd, signed to keep the
    free slot positive, once at the end.
    """
    rows = _integer_rows(matrix)
    ncols = len(rows[0]) if rows else 0
    pivots = bareiss_echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i in reversed(range(len(pivots))):
            p, row = pivots[i], rows[i]
            s = sum(row[j] * vec[j] for j in range(p + 1, ncols) if vec[j])
            if s:
                # vec[p] = -s / row[p]: rescale by row[p] / g to stay integral.
                g = gcd(row[p], s)
                scale = row[p] // g
                if scale != 1:
                    vec = [x * scale for x in vec]
                vec[p] = -s // g
        g = gcd(*vec)
        basis.append(tuple(x // (g if vec[free] > 0 else -g) for x in vec))
    return basis


def restrict_scalars(field: RealNumberField, rows) -> QMatrix:
    """Rational matrix with the same kernel on rational vectors.

    The rows hold `AlgebraicReal`s of `field` or rationals.  For a rational
    vector v, (M v)_i has `degree` power-basis coordinates, each a rational
    linear form in v; stacking those coordinate blocks (all rows for
    alpha^0, then all rows for alpha^1, ...) gives a (degree * nrows) x
    ncols rational matrix.
    """
    coeffs = []
    for row in rows:
        out = []
        for x in row:
            if not isinstance(x, AlgebraicReal):
                x = field.from_rational(x)
            elif x.field != field:
                raise ValueError("mixed number fields")
            out.append(x.coeffs)
        coeffs.append(out)
    return QMatrix([[c[k] for c in row] for k in range(field.degree) for row in coeffs])


def primitive_integer_vector(vec):
    """Scale a nonzero rational vector by a positive rational to a primitive
    integer vector (content 1).  The direction is preserved."""
    vec = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)
