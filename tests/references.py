"""Field-level views of a torus, reference linear algebra and shared inputs
for the differential tests.

A torus stores only its integer J data (D and the D * J_k); `field_j`
(and `parts_matrix` for raw parts) rebuilds J as rows of field elements and
`field_product` multiplies such rows entry by entry, as the package did
before it moved onto the integer data; `dense_matmul` is the integer matrix
product without zero skipping.
The references take and return rows and coordinate lists, as the package
does.  `solve` is plain Gauss-Jordan elimination over `Fraction`s on rows
of rationals, `determinant` the Laplace expansion, and `lattice_index` the
index of a lattice in its saturation as |det| of the columns' coordinates
over the saturated basis, from one `solve` per column; the package reads NS
coordinates off the echelon NS basis instead.  `saturation_holds` checks a
claimed saturation against the properties that fix it, where the package
computes it from Hermite forms.
`reference_sign` decides the sign of a field element by bisecting the
field's declared root interval anew, with no use of the field's bounds of
alpha, and `reference_field_product` multiplies two elements as
polynomials over `Fraction`s and reduces by long division by `min_poly`,
with no use of the field's reduction rows.  `numeric_value` evaluates an
element at a numeric alpha, for the mpmath cross-checks; the package itself
never leaves exact arithmetic.
`reference_wedge` is the cup product as a loop over all subset pairs on
coordinate lists, as it was before the cached table.
`elliptic_products` draws product tori and `rebased` moves a torus to a
lattice basis that mixes its blocks.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from hypothesis import strategies as st

from lefdefect.cohomology import wedge_basis, wedge_index
from lefdefect.exactmath import AlgebraicReal, RealNumberField, rank
from lefdefect.exactmath.lattice import column_hnf
from lefdefect.torus import ComplexTorus, elliptic, ns_basis, product


def solve(rows, rhs):
    """One rational solution of M x = b, or None if inconsistent (M given
    as rows of rationals)."""
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows = len(aug)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return tuple(sol)


def determinant(rows):
    """Determinant of a square matrix by Laplace expansion along the first
    row (1 for the empty matrix)."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def lattice_index(columns, saturated_columns) -> int:
    """Index of span_Z(columns) inside span_Z(saturated_columns), for
    columns of the same rank: |det| of their coordinates over the
    saturated basis."""
    if not columns:
        return 1
    N = len(columns[0])
    sat_matrix = [[saturated_columns[j][i] for j in range(len(saturated_columns))]
                  for i in range(N)]
    coords = []
    for c in columns:
        x = solve(sat_matrix, c)
        if x is None:
            raise ValueError("columns not inside the saturated lattice")
        coords.append([int(v) for v in x])
    return abs(determinant(coords))


def saturation_holds(columns, sat, ambient_rank) -> bool:
    """Whether `sat` is the saturation of the independent columns in
    canonical Hermite form: it is its own `column_hnf`, has the columns'
    rank, holds every column with integer coordinates, and the gcd of its
    maximal minors is 1 (so no integer vector outside it lies in its
    rational span).  These properties fix the answer."""
    r = len(columns)
    if sat != column_hnf(sat, ambient_rank) or len(sat) != r or rank(columns) != r:
        return False
    sat_matrix = [[c[i] for c in sat] for i in range(ambient_rank)]
    for c in columns:
        x = solve(sat_matrix, c)
        if x is None or any(v.denominator != 1 for v in x):
            return False
    minors = [determinant([[sat[j][i] for j in range(r)] for i in rows])
              for rows in combinations(range(ambient_rank), r)]
    return gcd(*minors) == 1


def reference_ns_coordinates(A, form):
    """Coordinates of a form over ns_basis(A) from one `solve`, or None if
    it is not an NS class: the integer pair coordinates of den * E over
    those of the basis forms (integer forms, den 1), divided by den."""
    basis = ns_basis(A)
    assert all(b.den == 1 for b in basis)
    cols = [b.pair_num() for b in basis]
    rhs = form.pair_num()
    x = solve([[col[k] for col in cols] for k in range(len(rhs))], rhs)
    return None if x is None else tuple(c / form.den for c in x)


def _power_range(lo, hi, k):
    """(min, max) of x^k over lo <= x <= hi."""
    ends = (lo**k, hi**k)
    if k % 2 == 0 and lo < 0 < hi:
        return Fraction(0), max(ends)
    return min(ends), max(ends)


def reference_sign(field, coeffs) -> int:
    """Sign of sum_k coeffs[k] alpha^k, bisecting the declared root interval
    of `field` until a termwise enclosure of the element excludes 0.  Needs
    an irreducible `min_poly`, where a nonzero element is nonzero at
    alpha."""
    c = [Fraction(x) for x in coeffs]
    if not any(c):
        return 0
    f = field.min_poly
    lo, hi = field.root_interval
    while True:
        vlo = vhi = Fraction(0)
        for k, a in enumerate(c):
            p, q = _power_range(lo, hi, k)
            vlo += min(a * p, a * q)
            vhi += max(a * p, a * q)
        if vlo > 0 or vhi < 0:
            return 1 if vlo > 0 else -1
        mid = (lo + hi) / 2
        at_mid = sum(a * mid**k for k, a in enumerate(f))
        if at_mid == 0:  # alpha = mid
            value = sum(a * mid**k for k, a in enumerate(c))
            return (value > 0) - (value < 0)
        if (sum(a * lo**k for k, a in enumerate(f)) > 0) == (at_mid > 0):
            lo = mid
        else:
            hi = mid


def numeric_value(x, alpha_value):
    """The value of the field element x at a numeric alpha (an mpmath
    number, say), by Horner's rule on its power-basis coordinates: for
    numeric cross-checks, where exactness is not required."""
    acc = 0
    for c in reversed(x.num.coeffs):
        acc = acc * alpha_value + c
    return acc / x.den


def reference_field_product(field, a, b):
    """Power-basis coordinates, as `Fraction`s, of x * y for x and y given
    by their coordinates `a` and `b` (ints or rationals): the polynomial
    product, reduced by long division by the monic `min_poly`."""
    d = field.degree
    f = field.min_poly
    raw = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            raw[i + j] += Fraction(x) * y
    for e in range(len(raw) - 1, d - 1, -1):
        c = raw[e]
        for k in range(d + 1):
            raw[e - d + k] -= c * f[k]
    return tuple(raw[:d]) + (Fraction(0),) * (d - len(raw))


def parts_matrix(field, den, parts):
    """sum_k alpha^k parts[k] / den as rows of field elements."""
    size = len(parts[0])
    return tuple(
        tuple(field.element([Fraction(Jk[r][c], den) for Jk in parts]) for c in range(size))
        for r in range(size)
    )


@lru_cache(maxsize=256)
def field_j(A):
    """J = sum_k alpha^k J_k as rows of field elements, from A's integer J
    data."""
    return parts_matrix(A.field, A.j_den, A.j_parts)


def field_product(field, *matrices):
    """The product of matrices given as rows of field elements or rationals,
    as rows of elements of `field`."""
    lift = [[x if isinstance(x, AlgebraicReal) else field.from_rational(x) for x in row]
            for row in matrices[0]]
    for m in matrices[1:]:
        cols = list(zip(*m))
        lift = [[sum((a * b for a, b in zip(row, col)), field.zero()) for col in cols]
                for row in lift]
    return tuple(tuple(row) for row in lift)


def matrix_squares_to_minus_identity(field, J) -> bool:
    """J * J == -I, multiplied entry by entry in the field."""
    size = len(J)
    return field_product(field, J, J) == field_product(
        field, [[-1 if i == j else 0 for j in range(size)] for i in range(size)])


def squares_to_minus_identity(A) -> bool:
    return matrix_squares_to_minus_identity(A.field, field_j(A))


def dense_matmul(a, b):
    """The product as one generator sum per entry, zeros included."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def reference_wedge(N, p, q, u, v):
    """The coordinates of u ^ v, for the coordinates u (degree p) and v
    (degree q) on Z^N, summed over every pair of disjoint subsets, each
    with the sign of the permutation that sorts the concatenation."""
    k = p + q
    out = [0] * len(wedge_basis(N, k))
    index = wedge_index(N, k)
    for I, a in zip(wedge_basis(N, p), u):
        for J, b in zip(wedge_basis(N, q), v):
            if a == 0 or b == 0 or set(I) & set(J):
                continue
            inversions = sum(x > y for x in I for y in J)
            out[index[tuple(sorted(I + J))]] += (-1) ** inversions * a * b
    return out


@st.composite
def elliptic_products(draw, max_count=3, fields=("Q", "K")):
    """Products of 2 to `max_count` elliptic curves over Q or over Q(2^(1/4))
    (`fields`, of "Q" and "K")."""
    K = draw(st.sampled_from(fields))
    a = st.fractions(min_value=-1, max_value=1, max_denominator=3)
    scale = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    count = draw(st.integers(2, max_count))
    if K == "Q":
        curves = [elliptic(draw(a), draw(scale)) for _ in range(count)]
    else:
        G = RealNumberField([-2, 0, 0, 0, 1], (Fraction(1), Fraction(3, 2)))
        alpha = G.alpha()
        betas = [G.one(), alpha, alpha * alpha, G.one() + alpha]
        curves = [
            elliptic(draw(a), draw(st.sampled_from(betas)) * G.from_rational(draw(scale)))
            for _ in range(count)
        ]
    return product(curves)


def unimodular(size, rng, steps=6):
    """(U, U^-1) for a random unimodular integer matrix U."""
    U = [[int(i == j) for j in range(size)] for i in range(size)]
    U_inv = [row[:] for row in U]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in U:  # U <- U (I + k e_ij)
            row[j] += k * row[i]
        U_inv[i] = [a - k * b for a, b in zip(U_inv[i], U_inv[j])]  # (I - k e_ij) U_inv
    return U, U_inv


def rebase(A, U, U_inv):
    """A on the lattice basis given by the columns of U: J -> U^-1 J U."""
    return ComplexTorus(A.field, field_product(A.field, U_inv, field_j(A), U))


def rebased(A, rng, steps=6):
    """A on a random other lattice basis, which mixes the blocks of a product."""
    return rebase(A, *unimodular(2 * A.n, rng, steps))
