"""Integer lattices: Smith normal form, saturation, quotient complements.

Sublattices are handled as integer matrices of column vectors inside an
ambient Z^N.  Smith normal form U A V = D with unimodular U, V gives the
section and projection for the (torsion-free) quotient from the rows and
columns of U and U^-1 past the sublattice's rank.  Saturation first puts the
columns in canonical Hermite form: when every pivot of that basis is 1 the
lattice is already saturated and the Hermite basis is the answer, and only
otherwise is the saturation read off the first columns of U^-1.
"""

from __future__ import annotations

from .linalg import kernel_basis


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, k):
    """row_dst += k * row_src"""
    m[dst] = [a + k * b for a, b in zip(m[dst], m[src])]


def _add_col(m, dst, src, k):
    for row in m:
        row[dst] += k * row[src]


def _negate_row(m, i):
    m[i] = [-a for a in m[i]]


def _negate_col(m, i):
    for row in m:
        row[i] = -row[i]


def smith_normal_form(rows):
    """Smith normal form of an integer matrix.

    Returns (diag, U, Uinv, V) with U * A * V diagonal, U and V unimodular,
    diag the nonnegative diagonal entries satisfying the divisibility chain
    d1 | d2 | ... .  Uinv is maintained alongside U by applying the inverse
    elementary column operations, so no matrix inversion is needed.
    """
    A = [list(map(int, row)) for row in rows]
    n = len(A)
    m = len(A[0]) if n else 0
    U = _identity(n)
    Uinv = _identity(n)
    V = _identity(m)

    def row_swap(i, j):
        _swap_rows(A, i, j)
        _swap_rows(U, i, j)
        _swap_cols(Uinv, i, j)

    def row_add(dst, src, k):
        _add_row(A, dst, src, k)
        _add_row(U, dst, src, k)
        _add_col(Uinv, src, dst, -k)

    def row_neg(i):
        _negate_row(A, i)
        _negate_row(U, i)
        _negate_col(Uinv, i)

    def col_swap(i, j):
        _swap_cols(A, i, j)
        _swap_cols(V, i, j)

    def col_add(dst, src, k):
        _add_col(A, dst, src, k)
        _add_col(V, dst, src, k)

    t = 0
    while t < min(n, m):
        # Choose the smallest nonzero entry in the remaining block as pivot.
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            # Euclidean reduction of the pivot column, then the pivot row.
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty and all(A[i][t] == 0 for i in range(t + 1, n)) and all(
                A[t][j] == 0 for j in range(t + 1, m)
            ):
                break
        if A[t][t] < 0:
            row_neg(t)
        # Enforce divisibility: fold in any entry the pivot does not divide.
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    diag = [A[i][i] for i in range(min(n, m))]
    return diag, U, Uinv, V


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


def saturate(columns, ambient_rank: int):
    """Basis of (span_Q(columns) intersect Z^N) as columns; requires the
    columns to be Q-linearly independent.  The result is in canonical
    Hermite form.

    The Hermite basis of the columns comes first.  When it has one nonzero
    column per given column and every pivot is 1, its pivot rows form an
    identity matrix (later columns vanish there, earlier ones are reduced
    modulo 1), so the coefficients of an integer vector in the rational
    span are its entries in those rows: integers.  The lattice is then
    saturated, and since the Hermite basis is canonical it is the one the
    Smith route below returns.  Otherwise (a pivot above 1, or dependent
    columns, which that route rejects) the saturation comes from the first
    columns of U^-1 in the Smith form."""
    cols = [tuple(map(int, c)) for c in columns]
    if not cols:
        return []
    if any(len(c) != ambient_rank for c in cols):
        raise ValueError("column length does not match ambient rank")
    hermite = column_hnf(cols, ambient_rank)
    if all(next((x for x in c if x), 0) == 1 for c in hermite):
        return hermite
    rows = [[c[i] for c in cols] for i in range(ambient_rank)]
    diag, _, Uinv, _ = smith_normal_form(rows)
    r = len(cols)
    if r > ambient_rank or any(d == 0 for d in diag[:r]):
        raise ValueError("not a sublattice basis")
    basis = [tuple(Uinv[i][j] for i in range(ambient_rank)) for j in range(r)]
    return column_hnf(basis, ambient_rank)


def is_saturated(columns, ambient_rank: int) -> bool:
    if not columns:
        return True
    rows = [[c[i] for c in columns] for i in range(ambient_rank)]
    diag, _, _, _ = smith_normal_form(rows)
    return all(d == 1 for d in diag[: len(columns)])


def complement_data(columns, ambient_rank: int):
    """Projection and section for the quotient Z^N / span(columns).

    For a saturated basis W this returns (P, S) with P the (N-r) x N integer
    projection whose kernel is span(W), and S the N x (N-r) integer section
    with P S = identity.  The ordered complement basis comes from the Smith
    decomposition, which also fixes the sign conventions downstream.
    """
    N = ambient_rank
    cols = [tuple(map(int, c)) for c in columns]
    r = len(cols)
    if r == 0:
        eye = _identity(N)
        return [row[:] for row in eye], [row[:] for row in eye]
    rows = [[c[i] for c in cols] for i in range(N)]
    diag, U, Uinv, _ = smith_normal_form(rows)
    if r > N or any(d == 0 for d in diag[:r]):
        raise ValueError("not a sublattice basis")
    if any(abs(d) != 1 for d in diag[:r]):
        raise ValueError("basis is not saturated")
    P = [U[i][:] for i in range(r, N)]
    S = [[Uinv[i][j] for j in range(r, N)] for i in range(N)]
    return P, S


def integer_kernel_basis(matrix) -> list:
    """Primitive integer vectors spanning ker(M) over Q (saturated span)."""
    basis = kernel_basis(matrix)
    if not basis:
        return []
    return saturate(basis, len(basis[0]))
