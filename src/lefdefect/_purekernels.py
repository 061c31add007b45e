"""Pruned depth-first search over the effective classes in a coefficient box.

A class x = sum c_b b over the NS basis is effective (up to a positive
multiple) when its symmetric part S(x) = sum c_b S_b is positive
semidefinite and nonzero.  `scan_range` covers the box [-box, box]^rho
depth first, one NS coefficient per level.  Fiber classes (basis elements
whose S_b has a nonzero diagonal entry) are fixed first, the rest in NS
order.  S is kept up to date along the path by adding c * S_b, and at every
level each principal block S[I, I] whose entries have just become fixed is
tested; a block that is not semidefinite rules out the whole subtree, which
is counted as decided without being visited (Fincke-Pohst style
partial-bound pruning).  Leaves that survive get the full test and the
cup-product kernel dimension.

Semidefiniteness and rank come from one routine, `psd_rank`: symmetric
fraction-free elimination with diagonal pivoting.  Over Q the entries are
plain ints and divide with `//`.  Over a number field they are elements of
Z[alpha] with integer power-basis coordinates (`IntegralElement`); their
signs come from an integer interval evaluation at alpha, with `nf_sign` as
the fallback, and their exact quotients from one adjugate and norm per
pivot.  So Q and number fields share the search and its integer arithmetic.
"""

from __future__ import annotations

from .exactmath import IntegralElement, integral_quotient, integral_sign
from .exactmath.linalg import bareiss_echelon


def rank_int(rows) -> int:
    """Rank of an integer matrix (row list is copied)."""
    return len(bareiss_echelon([list(r) for r in rows]))


def psd_rank(M, idx, sign, quotient) -> int:
    """Rank of the principal block M[idx, idx] if it is PSD, else -1.

    Symmetric fraction-free elimination with diagonal pivoting (Bareiss,
    1968): after k pivots every remaining entry is the (k+1)-minor that
    borders the pivot block, i.e. the positive pivot minor times the Schur
    complement entry.  So the division by the previous pivot is exact and
    the signs are those of the Schur complement.  A negative diagonal entry
    means the block is not PSD; when every remaining diagonal entry is zero,
    the block is PSD only if every remaining entry is zero.  `sign` is the
    scalar kind's sign and `quotient(d)` its exact division by d, made only
    for a pivot whose successor has entries left to update.
    """
    a = [[M[i][j] for j in idx] for i in idx]
    rest = list(range(len(a)))
    previous = None  # pivot; nothing to divide by before the first
    divide = None
    rank = 0
    while rest:
        pivot = -1
        for i in rest:
            s = sign(a[i][i])
            if s < 0:
                return -1
            if s > 0 and pivot < 0:
                pivot = i
        if pivot < 0:
            if any(a[i][j] != 0 for i in rest for j in rest):
                return -1
            return rank
        rest.remove(pivot)
        if rest and previous is not None:
            divide = quotient(previous)
        p = a[pivot][pivot]
        row_p = a[pivot]
        for n, i in enumerate(rest):
            ai = a[i]
            f = ai[pivot]
            for j in rest[n:]:  # the update keeps the block symmetric
                v = p * ai[j] - f * row_p[j]
                ai[j] = a[j][i] = v if divide is None else divide(v)
        previous = p
        rank += 1
    return rank


def int_sign(v) -> int:
    """Sign (-1, 0, +1) of an integer."""
    return (v > 0) - (v < 0)


def int_quotient(d):
    """Exact division of integers by d: x -> x // d."""
    return d.__rfloordiv__


def _blocks_fixed_at(fixed, N, depth):
    """Maximal index sets I with S[I, I] fixed at `depth` but not before.

    `fixed[r][c]` is the depth from which entry (r, c) no longer changes.
    Testing these blocks covers every principal block that becomes fixed at
    this depth, since semidefiniteness passes to principal sub-blocks.
    """
    level = [0] * (1 << N)  # depth from which the block of a mask is fixed
    for mask in range(1, 1 << N):
        low = (mask & -mask).bit_length() - 1
        row = fixed[low]
        level[mask] = max(level[mask & (mask - 1)],
                          max(row[c] for c in range(N) if mask >> c & 1))
    blocks = []
    for mask in range(1, 1 << N):
        if level[mask] != depth:
            continue
        if any(level[mask | 1 << k] <= depth for k in range(N) if not mask >> k & 1):
            continue
        blocks.append(tuple(k for k in range(N) if mask >> k & 1))
    return blocks


class _Search:
    """Search data of one torus: symmetric parts, cup products, pruning plan.

    `s_basis[b]` is the N x N symmetric part of basis element b and
    `w_pairs[i][j]` the coordinate vector (length m4) of the cup product of
    basis elements i and j.  Subclasses fix the scalar kind: its `sign` and
    exact `quotient`, as `psd_rank` takes them.
    """

    def __init__(self, s_basis, w_pairs, rho, N, m4, zero):
        self.s_basis = s_basis
        self.w_pairs = w_pairs
        self.rho = rho
        self.N = N
        self.m4 = m4
        self.zero = zero
        self.full = tuple(range(N))
        # nonzero entries (r, c, value) of each S_b, in NS order
        self.nonzero = [
            [(r, c, m[r][c]) for r in range(N) for c in range(N) if m[r][c] != 0]
            for m in s_basis
        ]
        fibers = [b for b in range(rho) if any(r == c for r, c, _ in self.nonzero[b])]
        self.order = fibers + [b for b in range(rho) if b not in fibers]
        self.entries = [self.nonzero[b] for b in self.order]
        fixed = [[0] * N for _ in range(N)]
        for depth, entries in enumerate(self.entries, 1):
            for r, c, _ in entries:
                fixed[r][c] = depth
        # blocks to test once the coefficient at each depth is set; the last
        # depth is a leaf, where `evaluate` tests the whole of S
        self.tests = [_blocks_fixed_at(fixed, N, depth) for depth in range(1, rho)] + [[]]

    def symmetric(self, coeffs):
        """S = sum c_b S_b, built directly from the coefficients."""
        S = [[self.zero] * self.N for _ in range(self.N)]
        for c, entries in zip(coeffs, self.nonzero):
            if c:
                for r, col, v in entries:
                    S[r][col] = S[r][col] + c * v
        return S

    def evaluate(self, leaf):
        """(is_effective, defect, form_rank) of a leaf (coeffs, S)."""
        coeffs, S = leaf
        form_rank = psd_rank(S, self.full, self.sign, self.quotient)
        if form_rank < 0:
            return False, -1, -1
        rows = []
        for j in range(self.rho):
            acc = [0] * self.m4
            for i in range(self.rho):
                ci = coeffs[i]
                if ci:
                    wij = self.w_pairs[i][j]
                    for t in range(self.m4):
                        acc[t] += ci * wij[t]
            rows.append(acc)
        return True, self.rho - rank_int(rows), form_rank


class IntSearch(_Search):
    """Search state for a torus whose symmetric parts are integer matrices."""

    sign = staticmethod(int_sign)
    quotient = staticmethod(int_quotient)

    def __init__(self, s_basis, w_pairs, rho, N, m4):
        super().__init__(s_basis, w_pairs, rho, N, m4, 0)


class FieldSearch(_Search):
    """Search state when the symmetric parts have entries in Z[alpha]
    (`IntegralElement`s of `field`)."""

    sign = staticmethod(integral_sign)
    quotient = staticmethod(integral_quotient)

    def __init__(self, s_basis, w_pairs, rho, N, m4, field):
        super().__init__(s_basis, w_pairs, rho, N, m4, IntegralElement(field, (0,) * field.degree))


def scan_range(search, box: int, collect: bool):
    """Depth-first search of the coefficient box [-box, box]^rho.

    A candidate's position is its index as a mixed-radix digit vector in
    base 2*box + 1 (first NS coefficient most significant); the all-zero
    vector is not a candidate.  Returns (best_delta, best_position, scanned,
    nodes, records): the maximal defect and the smallest position attaining
    it, the number of candidates decided (visited or pruned), the number of
    search-tree nodes visited, and, when `collect` is set, the
    (position, coeffs, defect, form_rank) of every effective class in
    position order.
    """
    rho, N, order, tests = search.rho, search.N, search.order, search.tests
    sign, quotient = search.sign, search.quotient
    base = 2 * box + 1
    weight = [base ** (rho - 1 - b) for b in order]
    below = [base ** (rho - 1 - t) for t in range(rho)]
    steps = [
        [(c, [(r, col, c * v) for r, col, v in entries]) for c in range(-box, box + 1)]
        for entries in search.entries
    ]
    S = [[search.zero] * N for _ in range(N)]
    coeffs = [0] * rho
    best = [-1, -1]
    counts = [0, 0]  # candidates decided, nodes visited
    records = []

    def descend(t, pos, zero_prefix):
        b = order[t]
        entries = search.entries[t]
        saved = [S[r][col] for r, col, _ in entries]
        leaf = t + 1 == rho
        blocks = tests[t]
        for c, deltas in steps[t]:
            for (r, col, m), s in zip(deltas, saved):
                S[r][col] = s + m
            coeffs[b] = c
            p = pos + (c + box) * weight[t]
            zero = zero_prefix and c == 0
            counts[1] += 1
            if leaf:
                if zero:
                    continue
                counts[0] += 1
                effective, defect, form_rank = search.evaluate((coeffs, S))
                if effective:
                    if defect > best[0] or (defect == best[0] and p < best[1]):
                        best[0], best[1] = defect, p
                    if collect:
                        records.append((p, tuple(coeffs), defect, form_rank))
            elif any(psd_rank(S, idx, sign, quotient) < 0 for idx in blocks):
                # every leaf below is decided, except the zero vector
                counts[0] += below[t] - zero
            else:
                descend(t + 1, p, zero)
        for (r, col, _), s in zip(entries, saved):
            S[r][col] = s

    descend(0, 0, True)
    records.sort()
    return best[0], best[1], counts[0], counts[1], records


def scan_vectors(search, vectors, base_position: int, collect: bool):
    """Evaluate an explicit list of coefficient vectors (structured extras).

    Same return shape as `scan_range`; each vector is one node, at position
    base_position + its index in the list.
    """
    best_delta = -1
    best_pos = -1
    records = []
    for offset, coeffs in enumerate(vectors):
        effective, defect, form_rank = search.evaluate(
            (list(coeffs), search.symmetric(coeffs))
        )
        if effective:
            pos = base_position + offset
            if defect > best_delta:
                best_delta = defect
                best_pos = pos
            if collect:
                records.append((pos, tuple(coeffs), defect, form_rank))
    return best_delta, best_pos, len(vectors), len(vectors), records
