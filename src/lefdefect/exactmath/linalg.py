"""Exact linear algebra over Q and over a real number field, on rows.

A matrix is a list of rows.  Rank and kernel computations run through
fraction-free (Bareiss) Gaussian elimination on integer rows, which keeps
intermediate entries at the size of minors of the input instead of letting
fractions compound.  Rows of `Fraction`s are accepted as input and cleared
of denominators row by row first (`integer_rows`); kernel vectors come out
as integers, in a canonical echelon form that depends on the kernel alone,
so two kernels are equal exactly when their bases are equal lists.  There
is no determinant routine: the minors the package needs are wedge products
(`cohomology.wedge`).  A system with number-field entries can be handled by
restriction of scalars: a K-linear condition on a rational vector splits
into `degree` rational conditions, one per power-basis coordinate.  The
torus code needs no such systems, because it works on J's integer
power-basis components; a J given as rows is split into them by exactly
this restriction.
"""

from __future__ import annotations

from math import gcd, lcm

from .numberfield import AlgebraicReal, RealNumberField


def integer_rows(matrix) -> list:
    """Clear denominators row by row; preserves rank and kernel.  Entries
    are ints or `Fraction`s, which both carry a `denominator`; a row of
    ints is copied as it is."""
    out = []
    for row in matrix:
        if set(map(type, row)) <= {int}:
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


def rank(matrix) -> int:
    """Exact rank over Q."""
    rows = integer_rows(matrix)
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
    rows = integer_rows(matrix)
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


def restrict_scalars(field: RealNumberField, rows) -> list:
    """Rows of rationals with the same kernel on rational vectors.

    The rows hold `AlgebraicReal`s of `field` or rationals.  For a rational
    vector v, (M v)_i has `degree` power-basis coordinates, each a rational
    linear form in v; stacking those coordinate blocks (all rows for
    alpha^0, then all rows for alpha^1, ...) gives degree * nrows rows of
    ncols rationals each.
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
    return [[c[k] for c in row] for k in range(field.degree) for row in coeffs]


def primitive_integer_vector(vec):
    """Scale a nonzero vector of ints or `Fraction`s by a positive rational
    to a primitive integer vector (content 1).  The direction is
    preserved."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)
