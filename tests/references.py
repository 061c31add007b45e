"""Field-level views of a torus and shared inputs for the differential tests.

A torus stores only its integer J data (D and the D * J_k); `field_j`
(and `parts_matrix` for raw parts) rebuilds J as a field matrix and
`field_product` multiplies field matrices entry by entry, as the package did
before it moved onto the integer data; `dense_matmul` is the integer matrix
product without zero skipping.
`reference_wedge` is the cup product as a loop over all subset pairs on
`Fraction` coordinates, as it was before the cached table.
`elliptic_products` draws product tori and `rebased` moves a torus to a
lattice basis that mixes its blocks.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from lefdefect.cohomology import ExteriorClass, wedge_basis, wedge_index
from lefdefect.exactmath import KMatrix, QMatrix, RealNumberField
from lefdefect.torus import ComplexTorus, elliptic, product


def parts_matrix(field, den, parts) -> KMatrix:
    """sum_k alpha^k parts[k] / den as a field matrix."""
    size = len(parts[0])
    return KMatrix(field, [
        [field.element([Fraction(Jk[r][c], den) for Jk in parts]) for c in range(size)]
        for r in range(size)
    ])


@lru_cache(maxsize=256)
def field_j(A) -> KMatrix:
    """J = sum_k alpha^k J_k as a field matrix, from A's integer J data."""
    return parts_matrix(A.field, A.j_den, A.j_parts)


def field_product(field, *matrices) -> KMatrix:
    """The product of KMatrix and QMatrix factors, as a KMatrix over `field`."""
    rows = KMatrix(field, matrices[0].rows).rows
    for m in matrices[1:]:
        cols = list(zip(*KMatrix(field, m.rows).rows))
        rows = [[sum((a * b for a, b in zip(row, col)), field.zero()) for col in cols]
                for row in rows]
    return KMatrix(field, rows)


def matrix_squares_to_minus_identity(J) -> bool:
    """J * J == -I, multiplied entry by entry in the field."""
    size = J.nrows
    return field_product(J.field, J, J) == KMatrix(
        J.field, [[-1 if i == j else 0 for j in range(size)] for i in range(size)])


def squares_to_minus_identity(A) -> bool:
    return matrix_squares_to_minus_identity(field_j(A))


def dense_matmul(a, b):
    """The product as one generator sum per entry, zeros included."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def reference_wedge(u, v):
    """u ^ v summed over every pair of disjoint subsets, each with the sign
    of the permutation that sorts the concatenation."""
    N, k = u.N, u.degree + v.degree
    out = [Fraction(0)] * len(wedge_basis(N, k))
    index = wedge_index(N, k)
    for I, a in zip(wedge_basis(N, u.degree), u.coords):
        for J, b in zip(wedge_basis(N, v.degree), v.coords):
            if a == 0 or b == 0 or set(I) & set(J):
                continue
            inversions = sum(x > y for x in I for y in J)
            out[index[tuple(sorted(I + J))]] += (-1) ** inversions * a * b
    return ExteriorClass(N, k, out)


@st.composite
def elliptic_products(draw, max_count=3):
    """Products of 2 to `max_count` elliptic curves over Q or over Q(2^(1/4))."""
    K = draw(st.sampled_from(["Q", "K"]))
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
    return ComplexTorus(A.field, field_product(A.field, QMatrix(U_inv), field_j(A), QMatrix(U)))


def rebased(A, rng, steps=6):
    """A on a random other lattice basis, which mixes the blocks of a product."""
    return rebase(A, *unimodular(2 * A.n, rng, steps))
