"""Integer lattices: Hermite forms, saturation, quotient complements.

Sublattices are handled as integer matrices of column vectors inside an
ambient Z^N, and the canonical column Hermite form (`column_hnf`) is the
one reduction.  `saturate` and `complement_data` read their answers off
the Hermite basis of the columns when its pivots are 1, and otherwise off
the Hermite form of (M e_i ; e_i), which splits Z^n into a part that M
maps onto its image and a basis of ker M (`_hermite_split`; Cohen, A
Course in Computational Algebraic Number Theory, 2.4).
"""

from __future__ import annotations

from .linalg import kernel_basis


def column_hnf(columns, ambient_rank: int):
    """Canonical (column-style Hermite) basis of the column lattice.

    Pivots descend row by row and are positive; entries of earlier columns in
    a pivot row are reduced into [0, pivot).  Two bases of the same lattice
    produce the identical output, which makes saturation idempotent on the
    nose."""
    cols = [list(map(int, c)) for c in columns]
    r = len(cols)
    piv = 0
    for row in range(ambient_rank):
        if piv == r:
            break
        while True:
            nonzero = [j for j in range(piv, r) if cols[j][row] != 0]
            if not nonzero:
                break
            j0 = min(nonzero, key=lambda j: abs(cols[j][row]))
            cols[piv], cols[j0] = cols[j0], cols[piv]
            done = True
            for j in range(piv + 1, r):
                if cols[j][row] != 0:
                    q = cols[j][row] // cols[piv][row]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
                    if cols[j][row] != 0:
                        done = False
            if done:
                break
        if piv < r and cols[piv][row] != 0:
            if cols[piv][row] < 0:
                cols[piv] = [-x for x in cols[piv]]
            for j in range(piv):
                q = cols[j][row] // cols[piv][row]
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
            piv += 1
    return [tuple(c) for c in cols]


def _unit_pivots(hermite) -> bool:
    """Whether every column of a Hermite basis has pivot 1 (a zero column,
    from dependent columns, has none)."""
    return all(next((x for x in c if x), 0) == 1 for c in hermite)


def _hermite_split(rows, n: int):
    """(image, kernel, pivots) for the integer matrix M with these rows and
    n columns, from the Hermite form H of the columns (M e_i ; e_i), whose
    lower parts form a basis of Z^n: `image` holds those of the columns
    with a pivot in M's rows, which M maps onto the Hermite basis of its
    column lattice with pivots `pivots`, and `kernel` the rest, a Z-basis
    of ker M in canonical Hermite form."""
    m = len(rows)
    stacked = [tuple(row[i] for row in rows) + tuple(int(i == j) for j in range(n))
               for i in range(n)]
    hermite = column_hnf(stacked, m + n)
    pivots = [p for p in (next((x for x in c[:m] if x), 0) for c in hermite) if p]
    rank = len(pivots)
    return ([c[m:] for c in hermite[:rank]], [c[m:] for c in hermite[rank:]], pivots)


def saturate(columns, ambient_rank: int):
    """Basis of (span_Q(columns) intersect Z^N) as columns; requires the
    columns to be Q-linearly independent.  The result is in canonical
    Hermite form.

    The Hermite basis of the columns comes first.  When it has one nonzero
    column per given column and every pivot is 1, its pivot rows form an
    identity matrix (later columns vanish there, earlier ones are reduced
    modulo 1), so the coefficients of an integer vector in the rational
    span are its entries in those rows: integers.  The lattice is then
    saturated and the Hermite basis is the answer.  Otherwise (a pivot
    above 1, or dependent columns) the saturation is the integer kernel of
    the integer kernel of W^T: two `_hermite_split`s.
    """
    cols = [tuple(map(int, c)) for c in columns]
    if not cols:
        return []
    if any(len(c) != ambient_rank for c in cols):
        raise ValueError("column length does not match ambient rank")
    hermite = column_hnf(cols, ambient_rank)
    if _unit_pivots(hermite):
        return hermite
    _, dual, pivots = _hermite_split(cols, ambient_rank)
    if len(pivots) < len(cols):
        raise ValueError("not a sublattice basis")
    return _hermite_split(dual, ambient_rank)[1]


def complement_data(columns, ambient_rank: int):
    """Projection and section for the quotient Z^N / span(columns).

    For a saturated basis W this returns (P, S) with P the (N-r) x N integer
    projection whose kernel is span(W), and S the N x (N-r) integer section
    with P S = identity.

    When the Hermite basis H of W has unit pivots in rows p_j, P has one
    row e_q - sum_j H[q][j] e_(p_j) for each other row q, in increasing
    order, and S the columns e_q: no elimination.  Otherwise P is the
    integer kernel of W^T, whose rows are primitive (W^T maps onto Z^r
    exactly when W is saturated), and S the image part of P's split, so
    P S = I.
    """
    N = ambient_rank
    cols = [tuple(map(int, c)) for c in columns]
    hermite = column_hnf(cols, N)
    if _unit_pivots(hermite):
        pivot_rows = [next(i for i, x in enumerate(c) if x) for c in hermite]
        free = sorted(set(range(N)).difference(pivot_rows))
        P = []
        for q in free:
            row = [0] * N
            row[q] = 1
            for p, c in zip(pivot_rows, hermite):
                row[p] -= c[q]
            P.append(row)
        return P, [[int(i == q) for q in free] for i in range(N)]
    _, kernel, pivots = _hermite_split(cols, N)
    if len(pivots) < len(cols):
        raise ValueError("not a sublattice basis")
    if any(p != 1 for p in pivots):
        raise ValueError("basis is not saturated")
    section = _hermite_split(kernel, N)[0]
    return [list(k) for k in kernel], [list(row) for row in zip(*section)]


def integer_kernel_basis(matrix) -> list:
    """Primitive integer vectors spanning ker(M) over Q (saturated span)."""
    basis = kernel_basis(matrix)
    if not basis:
        return []
    return saturate(basis, len(basis[0]))
