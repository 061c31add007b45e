"""Pruned depth-first search over the effective classes in a coefficient box.

A class x = sum c_b b over the NS basis is effective (up to a positive
multiple) when its symmetric part S(x) = sum c_b S_b is positive
semidefinite and nonzero.  `scan_range` covers the box [-box, box]^rho
depth first, one NS coefficient per level.  Fiber classes (basis elements
whose S_b has a nonzero diagonal entry) are fixed first, the rest in NS
order.  S is kept up to date along the path by adding c * S_b.

Every S_b, and so S, is block diagonal on the connected components of the
joint nonzero pattern of the S_b (on a product, the isogeny classes of the
factors, or finer).  S is PSD exactly when each component block is, and its
rank is the sum of theirs.  So within each component, at every level each
principal block S[I, I] whose entries have just become fixed is tested; a
block that is not semidefinite rules out the whole subtree, which is
counted as decided without being visited (Fincke-Pohst style partial-bound
pruning).  A component is tested whole once, at the depth where all its
entries become fixed, and its rank is carried down the path: a leaf
eliminates only the components its own coefficient touches, and the leaves
that survive get the cup-product kernel dimension.

A block that fails before its second pivot comes with a vector v that has
v^T S v < 0 (see `psd_rank`).  Every effective x has v^T S(x) v >= 0, and
v^T S(x) v = sum_l x_l w_l with w_l = v^T S_{order[l]} v, so v is a cut on
the whole box, not only on the node it came from.  The search keeps every
cut it finds in one pool: a polyhedral outer approximation of the
effective cone (Kelley's cutting planes).  Its weights are kept as integer
bounds: exact over Q, and over a number field the interval evaluation at
alpha that signs use (`integral_enclosure`).  With the coefficients of the
levels up to t fixed and the rest anywhere in the box, the largest value
of sum_l x_l w_l is bounded as in Fincke-Pohst; where that bound is
negative, no completion of the prefix is effective, and the node is
decided with its whole subtree without an elimination.

Semidefiniteness and rank come from one routine, `psd_rank`: symmetric
fraction-free elimination with diagonal pivoting.  Over Q the entries are
plain ints and divide with `//`.  Over a number field they are elements of
Z[alpha] with integer power-basis coordinates (`IntegralElement`); their
signs come from an integer interval evaluation at alpha, with `nf_sign` as
the fallback, and their exact quotients from one adjugate and norm per
pivot.  So Q and number fields share the search and its integer arithmetic.
"""

from __future__ import annotations

from .exactmath import IntegralElement, integral_enclosure, integral_quotient, integral_sign
from .exactmath.linalg import bareiss_echelon


def rank_int(rows) -> int:
    """Rank of an integer matrix (row list is copied)."""
    return len(bareiss_echelon([list(r) for r in rows]))


def psd_rank(M, idx, sign, quotient):
    """(rank, certificate) of the principal block M[idx, idx]: rank -1 when
    the block is not PSD.

    Symmetric fraction-free elimination with diagonal pivoting (Bareiss,
    1968): after k pivots every remaining entry is the (k+1)-minor that
    borders the pivot block, i.e. the positive pivot minor times the Schur
    complement entry.  So the division by the previous pivot is exact and
    the signs are those of the Schur complement.  A negative diagonal entry
    means the block is not PSD; when every remaining diagonal entry is zero,
    the block is PSD only if every remaining entry is zero.  `sign` is the
    scalar kind's sign and `quotient(d)` its exact division by d, made only
    for a pivot whose successor has entries left to update.

    A block that fails at a negative diagonal entry a_ii before the second
    pivot comes with the certificate the elimination already holds: a
    vector v with at most two entries and q = v^T M v < 0, as
    (q, ((index, entry), ...)) with indices into M.  Before any pivot
    v = e_i and q = a_ii; after the first pivot p = a_ff it is
    v = p e_i - M[i, f] e_f, and q = p * a'_ii, p times the updated entry.
    Every other outcome has certificate None.
    """
    a = [[M[i][j] for j in idx] for i in idx]
    rest = list(range(len(a)))
    first = -1  # index of the first pivot
    previous = None  # pivot; nothing to divide by before the first
    divide = None
    rank = 0
    while rest:
        pivot = -1
        for i in rest:
            s = sign(a[i][i])
            if s < 0:
                if rank == 0:
                    return -1, (a[i][i], ((idx[i], 1),))
                if rank == 1:  # -1 * x: Z[alpha] elements have no unary minus
                    p = a[first][first]
                    return -1, (p * a[i][i], ((idx[i], p), (idx[first], -1 * a[i][first])))
                return -1, None
            if s > 0 and pivot < 0:
                pivot = i
        if pivot < 0:
            if any(a[i][j] != 0 for i in rest for j in rest):
                return -1, None
            return rank, None
        rest.remove(pivot)
        if rest and previous is not None:
            divide = quotient(previous)
        if rank == 0:
            first = pivot
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
    return rank, None


def int_sign(v) -> int:
    """Sign (-1, 0, +1) of an integer."""
    return (v > 0) - (v < 0)


def int_quotient(d):
    """Exact division of integers by d: x -> x // d."""
    return d.__rfloordiv__


def _blocks_by_depth(fixed, indices, rho):
    """blocks[d - 1]: the maximal subsets I of `indices` with S[I, I] fixed
    at depth d but not before, for d = 1..rho.

    `fixed[r][c]` is the depth from which entry (r, c) no longer changes.
    Testing these blocks covers every principal block inside `indices` that
    becomes fixed at depth d, since semidefiniteness passes to principal
    sub-blocks.
    """
    n = len(indices)
    level = [0] * (1 << n)  # depth from which the block of a mask is fixed
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        row = fixed[indices[low]]
        level[mask] = max(level[mask & (mask - 1)],
                          max(row[indices[c]] for c in range(n) if mask >> c & 1))
    blocks = [[] for _ in range(rho)]
    for mask in range(1, 1 << n):
        d = level[mask]
        if d and all(level[mask | 1 << k] > d for k in range(n) if not mask >> k & 1):
            blocks[d - 1].append(tuple(indices[k] for k in range(n) if mask >> k & 1))
    return blocks


def _components(nonzero, N):
    """Connected components of the joint sparsity pattern of the S_b, as
    sorted index tuples: every S_b, and so every S, is block diagonal on
    them."""
    label = list(range(N))

    def find(r):
        while label[r] != r:
            label[r] = label[label[r]]
            r = label[r]
        return r

    for entries in nonzero:
        for r, c, _ in entries:
            label[find(r)] = find(c)
    groups = {}
    for r in range(N):
        groups.setdefault(find(r), []).append(r)
    return sorted(tuple(g) for g in groups.values())


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
        # S is PSD iff its block on every component is, and its rank is the
        # sum of theirs.  tests[t] lists the blocks (idx, k) to test once the
        # coefficient at level t is set: within each component, the blocks
        # that become fixed at depth t + 1.  k is the component's number when
        # idx is the whole component (its rank is then final), else -1.
        self.components = _components(self.nonzero, N)
        self.tests = [[] for _ in range(rho)]
        for k, K in enumerate(self.components):
            for tests, blocks in zip(self.tests, _blocks_by_depth(fixed, K, rho)):
                tests.extend((idx, k if idx == K else -1) for idx in blocks)

    def symmetric(self, coeffs):
        """S = sum c_b S_b, built directly from the coefficients."""
        S = [[self.zero] * self.N for _ in range(self.N)]
        for c, entries in zip(coeffs, self.nonzero):
            if c:
                for r, col, v in entries:
                    S[r][col] = S[r][col] + c * v
        return S

    def evaluate(self, leaf):
        """(is_effective, defect, form_rank) of a leaf (coeffs, form_rank),
        where form_rank is the rank of S, or -1 when S is not PSD."""
        coeffs, form_rank = leaf
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

    @staticmethod
    def enclosures(weights):
        """(1, [(w, w), ...]): integer weights are their own bounds."""
        return 1, [(w, w) for w in weights]


class FieldSearch(_Search):
    """Search state when the symmetric parts have entries in Z[alpha]
    (`IntegralElement`s of `field`)."""

    sign = staticmethod(integral_sign)
    quotient = staticmethod(integral_quotient)

    def __init__(self, s_basis, w_pairs, rho, N, m4, field):
        super().__init__(s_basis, w_pairs, rho, N, m4, IntegralElement(field, (0,) * field.degree))

    def enclosures(self, weights):
        """(scale, [(lo, hi), ...]) with lo <= scale * w(alpha) <= hi, all
        from one snapshot of the field's bounds of alpha, so one positive
        scale holds for every weight.  A later refinement of the bounds
        leaves these enclosures valid."""
        alpha_int = self.zero.field._alpha_int
        scale = alpha_int[2][-1] if alpha_int[2] else 1
        return scale, [integral_enclosure(w.coeffs, alpha_int) for w in weights]


class Cut:
    """The inequality sum_l x_l w_l >= 0 that a certificate v gives on every
    effective class x, with w_l = v^T S_{order[l]} v at level l.

    The weights are kept as integer bounds lo[l] <= scale * w_l <= hi[l]
    (exact on ints), and tail[l] = box * sum_{m >= l} max(hi[m], -lo[m])
    bounds scale * sum_{m >= l} x_m w_m over the box.
    """

    __slots__ = ("vector", "scale", "lo", "hi", "tail")

    def __init__(self, vector, scale, bounds, box):
        self.vector = vector
        self.scale = scale
        self.lo = [lo for lo, _ in bounds]
        self.hi = [hi for _, hi in bounds]
        self.tail = [0] * (len(bounds) + 1)
        for l in range(len(bounds) - 1, -1, -1):
            self.tail[l] = self.tail[l + 1] + box * max(self.hi[l], -self.lo[l])

    def prefix_bound(self, t, level_coeffs):
        """The part of the upper bound on scale * v^T S(x) v that does not
        depend on the coefficient at level t: the fixed levels < t, with
        coefficients `level_coeffs`, and the free levels > t."""
        bound = self.tail[t + 1]
        for l in range(t):
            x = level_coeffs[l]
            if x:
                bound += x * (self.hi[l] if x > 0 else self.lo[l])
        return bound


def scan_range(search, box: int, collect: bool):
    """Depth-first search of the coefficient box [-box, box]^rho.

    A candidate's position is its index as a mixed-radix digit vector in
    base 2*box + 1 (first NS coefficient most significant); the all-zero
    vector is not a candidate.  Returns (best_delta, best_position, scanned,
    nodes, records): the maximal defect and the smallest position attaining
    it, the number of candidates decided (visited or pruned), the number of
    search-tree nodes entered, and, when `collect` is set, the
    (position, coeffs, defect, form_rank) of every effective class in
    position order.

    Every certificate a failed block gives becomes a `Cut` in one pool for
    the whole search, deduplicated on its bounds and registered at each
    level where its weight is nonzero.  A node at level t with coefficient
    c is checked, before S is updated, against the cuts registered at t:
    when sum_{l <= t} x_l (hi_l if x_l > 0 else lo_l) + tail[t + 1] < 0, no
    completion inside the box is PSD, and the node is decided with its
    whole subtree without an elimination; it still counts as a node
    entered.  A certificate e_i has the nonzero weight S_b[i][i] at the
    level it came from (else an earlier test would have seen S[i][i] < 0),
    so its cut also decides the later siblings there.  `search.cuts` keeps
    the pool of the last scan.
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
    path = [0] * rho  # coefficients along the path, by level
    ranks = [0] * len(search.components)  # final ranks along the path
    best = [-1, -1]
    counts = [0, 0]  # candidates decided, nodes visited
    records = []
    pool = search.cuts = {}  # bounds -> Cut
    at = [[] for _ in range(rho)]  # the cuts registered at each level

    def add_cut(certificate):
        _, v = certificate
        # v^T M v = sum over i <= j of (1 or 2) v_i v_j M[i][j], M symmetric
        terms = [(i, j, x * y if i == j else 2 * x * y)
                 for n, (i, x) in enumerate(v) for j, y in v[n:]]
        weights = []
        for b in order:
            S_b = search.s_basis[b]
            w = search.zero
            for i, j, f in terms:
                if S_b[i][j] != 0:
                    w = w + f * S_b[i][j]
            weights.append(w)
        scale, bounds = search.enclosures(weights)
        key = tuple(bounds)
        cut = pool.get(key)
        if key not in pool:
            cut = pool[key] = Cut(v, scale, bounds, box)
            for l, (lo, hi) in enumerate(bounds):
                if lo or hi:
                    at[l].append(cut)

    def descend(t, pos, zero_prefix):
        b = order[t]
        entries = search.entries[t]
        saved = [S[r][col] for r, col, _ in entries]
        leaf = t + 1 == rho
        blocks = tests[t]
        decided = below[t]
        registered = at[t]
        active = []  # (lo_t, hi_t, prefix bound) of the cuts registered at t
        for c, deltas in steps[t]:
            counts[1] += 1
            zero = zero_prefix and c == 0
            if leaf and zero:
                continue
            if len(active) < len(registered):
                active.extend((cut.lo[t], cut.hi[t], cut.prefix_bound(t, path))
                              for cut in registered[len(active):])
            pruned = False
            for lo, hi, bound in active:
                if bound + c * (hi if c > 0 else lo) < 0:
                    pruned = True
                    break
            if pruned:
                # every leaf below is decided, except the zero vector
                counts[0] += decided - zero
                continue
            for (r, col, m), s in zip(deltas, saved):
                S[r][col] = s + m
            for idx, k in blocks:
                rank, certificate = psd_rank(S, idx, sign, quotient)
                if rank < 0:
                    if certificate is not None:
                        add_cut(certificate)
                    counts[0] += decided - zero
                    break
                if k >= 0:
                    ranks[k] = rank
            else:
                coeffs[b] = path[t] = c
                p = pos + (c + box) * weight[t]
                if not leaf:
                    descend(t + 1, p, zero)
                    continue
                counts[0] += 1
                effective, defect, form_rank = search.evaluate((coeffs, sum(ranks)))
                if effective:
                    if defect > best[0] or (defect == best[0] and p < best[1]):
                        best[0], best[1] = defect, p
                    if collect:
                        records.append((p, tuple(coeffs), defect, form_rank))
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
        form_rank, _ = psd_rank(search.symmetric(coeffs), search.full, search.sign,
                                search.quotient)
        effective, defect, form_rank = search.evaluate((list(coeffs), form_rank))
        if effective:
            pos = base_position + offset
            if defect > best_delta:
                best_delta = defect
                best_pos = pos
            if collect:
                records.append((pos, tuple(coeffs), defect, form_rank))
    return best_delta, best_pos, len(vectors), len(vectors), records
