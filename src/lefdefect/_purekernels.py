"""Pruned depth-first search over the effective classes in a coefficient box.

A class x = sum c_b b over the NS basis is effective (up to a positive
multiple) when its symmetric part S(x) = sum c_b S_b is positive
semidefinite and nonzero.  `scan_range` covers the box [-box, box]^rho
depth first, one NS coefficient per level.  Fiber classes (basis elements
whose S_b has a nonzero diagonal entry) are fixed first, the rest in NS
order.  S is kept up to date along the path by adding c * S_b, over the
nonzero entries of S_b only; each multiple c * S_b is computed the first
time its sibling is entered.

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

Most tested blocks are touched by one level only: no S_b of an earlier
level has an entry in them, so at level t the block is c * S_{order[t]}
with c the level's coefficient.  Semidefiniteness and rank are invariant
under positive scaling, so such a block's verdict and rank depend only on
the sign of c.  The search reuses the first PSD outcome of each such block
per sign for the rest of the scan; a block that is not PSD is eliminated
again every time, for its certificate.

A block that fails before the elimination's second pivot comes with a
vector v of at most three entries that has v^T S v < 0, read off the
elimination in closed form (see `psd_rank`).  Every effective x has
v^T S(x) v >= 0, and v^T S(x) v = sum_l x_l w_l with
w_l = v^T S_{order[l]} v, so v is a cut on the whole box, not only on the
node it came from.  The search keeps every such cut in one pool: a
polyhedral outer approximation of the effective cone (Kelley's cutting
planes).  A failure after the second pivot gives no cut: its certificate
needs the elimination replayed, and on the declared products measured none
of them ruled out even a whole sibling range.
A cut's weights are kept as integer bounds: exact over Q, and over a
number field the interval evaluation at alpha that signs use
(`integral_enclosure`).  With the coefficients of the levels up to t fixed
and the rest anywhere in the box, the largest value of sum_l x_l w_l is
bounded as in Fincke-Pohst, from a prefix sum that each cut carries down
the path; where that bound is negative, no completion of the prefix is
effective, and the node is decided with its whole subtree without an
elimination.  A new cut whose bound is negative at an ancestor is a
conflict: the search backjumps to the shallowest such ancestor (Prosser's
conflict-directed backjumping), counting what it skips as decided.

Semidefiniteness and rank come from one routine, `psd_rank`: symmetric
fraction-free elimination with diagonal pivoting.  Over Q the entries are
plain ints and divide with `//`.  Over a number field they are elements of
Z[alpha] with integer power-basis coordinates (`IntegralElement`); their
signs come from an integer interval evaluation at alpha, with `nf_sign` as
the fallback, and their exact quotients from one adjugate and norm per
pivot.  So Q and number fields share the search and its integer arithmetic.
"""

from __future__ import annotations

from .exactmath import integral_enclosure, integral_quotient, integral_sign
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

    A block that fails before the second pivot comes with a certificate v:
    a vector on the block with v^T M v < 0, as ((index into M, entry), ...)
    over its nonzero entries, at most three (see `_certificate`).  A later
    failure and a PSD block have certificate None.
    """
    a = [[M[i][j] for j in idx] for i in idx]
    rest = list(range(len(a)))
    rank = 0
    first = -1  # the first pivot
    previous = None  # pivot; nothing to divide by before the first
    divide = None
    while rest:
        pivot = -1
        for i in rest:
            s = sign(a[i][i])
            if s < 0:
                return -1, _certificate(a, idx, rank, first, i)
            if s > 0 and pivot < 0:
                pivot = i
        if pivot < 0:
            for i in rest:
                for j in rest:
                    if a[i][j] != 0:
                        return -1, _certificate(a, idx, rank, first, i, j, sign(a[i][j]))
            return rank, None
        rest.remove(pivot)
        if rest and previous is not None:
            divide = quotient(previous)
        if previous is None:
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


def _certificate(a, idx, rank, first, i, j=None, s=0):
    """The certificate v of an elimination that failed after `rank` pivots,
    at a negative diagonal entry a'_ii or at a zero diagonal with
    a'_ij != 0 (s = sign(a'_ij)); None after two pivots or more.

    Before any pivot, v = e_i or e_i - s e_j, with v^T M v = a'_ii or
    -2 |a'_ij|.  After the first pivot p, with d = a_pp, row r of the
    elimination is T_r = d e_r - a_rp e_p, where a_rp is M's entry (the
    first step leaves the pivot column alone), and T_r^T M T_s = d a'_rs.
    So v = T_i = d e_i - a_ip e_p, or
    v = T_i - s T_j = d (e_i - s e_j) + (s a_jp - a_ip) e_p, and v^T M v is
    d times the value above.
    """
    if rank > 1:
        return None
    if rank == 0:
        return ((idx[i], 1),) if j is None else ((idx[i], 1), (idx[j], -s))
    d = a[first][first]
    v = {i: d}
    if j is None:
        v[first] = -1 * a[i][first]  # Z[alpha] elements have no unary minus
    else:
        v[j] = -s * d
        v[first] = s * a[j][first] - a[i][first]
    return tuple((idx[r], x) for r, x in v.items() if x != 0)


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

    `nonzero[b]` lists the nonzero entries (r, c, value) of the N x N
    symmetric part S_b of basis element b, both (r, c) and (c, r), row by
    row; no dense S_b is kept.  `w_pairs[i][j]` is the coordinate vector
    in H^4 of the cup product of basis elements i and j.  `zero` is the
    scalar zero.  The Picard number rho is the number of S_b, and m4, the
    length of a cup product, is read off the table.  Subclasses fix the
    scalar kind: its `sign` and exact `quotient`, as `psd_rank` takes them.
    """

    def __init__(self, nonzero, w_pairs, N, zero):
        self.nonzero = nonzero
        self.w_pairs = w_pairs
        rho = self.rho = len(nonzero)
        self.N = N
        self.m4 = len(w_pairs[0][0]) if rho else 0
        self.zero = zero
        self.full = tuple(range(N))
        fibers = [b for b in range(rho) if any(r == c for r, c, _ in self.nonzero[b])]
        self.order = fibers + [b for b in range(rho) if b not in fibers]
        self.entries = [self.nonzero[b] for b in self.order]
        fixed = [[0] * N for _ in range(N)]
        first = [[0] * N for _ in range(N)]  # depth of the first S_b with entry (r, c)
        for depth, entries in enumerate(self.entries, 1):
            for r, c, _ in entries:
                fixed[r][c] = depth
                first[r][c] = first[r][c] or depth
        # S is PSD iff its block on every component is, and its rank is the
        # sum of theirs.  tests[t] lists the blocks (idx, k) to test once the
        # coefficient at level t is set: within each component, the blocks
        # that become fixed at depth t + 1.  k is the component's number when
        # idx is the whole component (its rank is then final), else -1.
        # single[t][j] is True when no level before t has an entry in
        # idx x idx of tests[t][j]: that block of S is then c * S_{order[t]},
        # whose verdict and rank depend only on the sign of c.
        self.components = _components(self.nonzero, N)
        self.tests = [[] for _ in range(rho)]
        for k, K in enumerate(self.components):
            for tests, blocks in zip(self.tests, _blocks_by_depth(fixed, K, rho)):
                tests.extend((idx, k if idx == K else -1) for idx in blocks)
        self.single = [[all(first[r][c] in (0, t + 1) for r in idx for c in idx)
                        for idx, _ in tests] for t, tests in enumerate(self.tests)]

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
    """Search state for a torus whose symmetric parts are integer matrices;
    its zero is 0."""

    sign = staticmethod(int_sign)
    quotient = staticmethod(int_quotient)

    @staticmethod
    def enclosures(weights):
        """(1, [(w, w), ...]): integer weights are their own bounds."""
        return 1, [(w, w) for w in weights]


class FieldSearch(_Search):
    """Search state when the symmetric parts have entries in Z[alpha]:
    `IntegralElement`s of one field, as is its zero."""

    sign = staticmethod(integral_sign)
    quotient = staticmethod(integral_quotient)

    def enclosures(self, weights):
        """(scale, [(lo, hi), ...]) with lo <= scale * w(alpha) <= hi, all
        on the field's bounds of alpha, so one positive scale holds for
        every weight.  The field fixes those bounds at certification, so
        the enclosures do not depend on what ran before."""
        alpha_int = self.zero.field._alpha_int
        scale = alpha_int[2][-1] if alpha_int[2] else 1
        return scale, [integral_enclosure(w.coeffs, alpha_int) for w in weights]


class Cut:
    """The inequality sum_l x_l w_l >= 0 that a certificate v gives on every
    effective class x, with w_l = v^T S_{order[l]} v at level l.

    The weights are kept as integer bounds lo[l] <= scale * w_l <= hi[l]
    (exact on ints), and tail[l] = box * sum_{m >= l} max(hi[m], -lo[m])
    bounds scale * sum_{m >= l} x_m w_m over the box.  `acc` is the search's
    running sum of x_l (hi[l] if x_l > 0 else lo[l]) over the levels fixed
    on the current path.
    """

    __slots__ = ("vector", "scale", "lo", "hi", "tail", "acc")

    def __init__(self, vector, scale, bounds, box):
        self.vector = vector
        self.scale = scale
        self.lo = [lo for lo, _ in bounds]
        self.hi = [hi for _, hi in bounds]
        self.tail = [0] * (len(bounds) + 1)
        for l in range(len(bounds) - 1, -1, -1):
            self.tail[l] = self.tail[l + 1] + box * max(self.hi[l], -self.lo[l])
        self.acc = 0


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

    Every certificate of a failed block (one from before the elimination's
    second pivot, see `psd_rank`) becomes a `Cut` in one pool for the whole
    search, deduplicated on its bounds and registered at each level where
    its weight is nonzero.  A block tested at level t is fixed from depth
    t + 1 on, so its certificate's weights vanish beyond t.

    Entering sibling c at level t sets the entries of S_{order[t]} to their
    saved values plus c times its entries.  Those multiples are computed
    the first time the sibling is entered (most siblings are pruned first,
    or never reached), and c = 0 restores the saved values.

    A test at level t that no earlier level touches (`search.single`) is
    a block c * S_{order[t]}: the first time such a block is PSD at a
    sibling of a given sign, its rank is kept for that sign and reused for
    the rest of the scan without an elimination, like the pool, whose
    lifetime it shares.  A block that is not PSD still runs `psd_rank` every
    time, so certificates, cuts, backjumps and node counts are those of a
    scan that eliminates every block.

    Each cut carries its prefix sum `acc` down the path: descending into
    child c at level t adds c (hi_t if c > 0 else lo_t) to the cuts
    registered at t, returning subtracts it.  A node at level t with
    coefficient c is checked, before S is updated, against the cuts
    registered at t: when acc + tail[t + 1] + c (hi_t or lo_t) < 0, no
    completion inside the box is PSD, and the node is decided with its
    whole subtree without an elimination; it still counts as a node
    entered.  A new cut whose bound acc_l + tail[l + 1] over the path's
    levels up to l < t is negative decides an ancestor: the search ends the
    sibling loop and returns to the shallowest such level l (the bound does
    not increase along the path), and counts every sibling it skips there
    as decided with its subtree, not as entered.  `search.cuts` keeps
    the pool of the last scan.
    """
    rho, N, order = search.rho, search.N, search.order
    sign, quotient = search.sign, search.quotient
    # (idx, k, known) per test; known[sign(c) + 1] is the rank of a
    # single-level block at a sibling of that sign, -1 until one is PSD.
    plan = [[(idx, k, [-1, -1, -1] if single else None)
             for (idx, k), single in zip(tests, flags)]
            for tests, flags in zip(search.tests, search.single)]
    base = 2 * box + 1
    weight = [base ** (rho - 1 - b) for b in order]
    below = [base ** (rho - 1 - t) for t in range(rho)]
    steps = [[None] * base for _ in range(rho)]  # steps[t][c + box]: c * v per entry
    S = [[search.zero] * N for _ in range(N)]
    coeffs = [0] * rho
    path = [0] * rho  # coefficients along the path, by level
    ranks = [0] * len(search.components)  # final ranks along the path
    best = [-1, -1]
    counts = [0, 0]  # candidates decided, nodes visited
    records = []
    pool = search.cuts = {}  # bounds -> Cut
    at = [[] for _ in range(rho)]  # (cut, lo_t, hi_t, tail[t + 1]) of the cuts registered at t

    def quadratic(v, l):
        """v^T S_{order[l]} v for v as {index: entry}."""
        w = search.zero
        for r, col, s in search.entries[l]:
            if r in v and col in v:
                w = w + v[r] * v[col] * s
        return w

    def admit(v, t):
        """Add the cut of certificate vector v, from a node that failed at
        level t, to the pool.  Returns the shallowest level whose node on
        the path it decides, t when it decides no ancestor."""
        entries = dict(v)
        scale, bounds = search.enclosures([quadratic(entries, l) for l in range(rho)])
        key = tuple(bounds)
        cut = pool.get(key)
        new = cut is None
        if new:
            cut = pool[key] = Cut(v, scale, bounds, box)
        jump = t
        acc = 0
        for l in range(t):
            x = path[l]
            if x:
                acc += x * (cut.hi[l] if x > 0 else cut.lo[l])
            if l < jump and acc + cut.tail[l + 1] < 0:
                jump = l
        if new:
            cut.acc = acc
            for l, (lo, hi) in enumerate(bounds):
                if lo or hi:
                    at[l].append((cut, lo, hi, cut.tail[l + 1]))
        return jump

    def descend(t, pos, zero_prefix):
        """The sibling loop at level t.  Returns the shallowest level < t
        whose node on the path a new cut decided, else a level >= t."""
        b = order[t]
        entries = search.entries[t]
        saved = [S[r][col] for r, col, _ in entries]
        leaf = t + 1 == rho
        blocks = plan[t]
        decided = below[t]
        registered = at[t]
        multiples = steps[t]
        jump = t
        for c in range(-box, box + 1):
            counts[1] += 1
            zero = zero_prefix and c == 0
            if leaf and zero:
                continue
            pruned = False
            for cut, lo, hi, tail in registered:
                if cut.acc + tail + c * (hi if c > 0 else lo) < 0:
                    pruned = True
                    break
            if pruned:
                # every leaf below is decided, except the zero vector
                counts[0] += decided - zero
                continue
            if c:
                deltas = multiples[c + box]
                if deltas is None:
                    deltas = multiples[c + box] = [c * v for _, _, v in entries]
                for (r, col, _), s, m in zip(entries, saved, deltas):
                    S[r][col] = s + m
            else:
                for (r, col, _), s in zip(entries, saved):
                    S[r][col] = s
            side = (c > 0) - (c < 0) + 1
            for idx, k, known in blocks:
                rank = -1 if known is None else known[side]
                if rank < 0:
                    rank, certificate = psd_rank(S, idx, sign, quotient)
                    if rank < 0:
                        counts[0] += decided - zero
                        if certificate is not None:
                            jump = admit(certificate, t)
                        break
                    if known is not None:
                        known[side] = rank
                if k >= 0:
                    ranks[k] = rank
            else:
                coeffs[b] = path[t] = c
                p = pos + (c + box) * weight[t]
                if not leaf:
                    if c:
                        for cut, lo, hi, _ in registered:
                            cut.acc += c * (hi if c > 0 else lo)
                    jump = descend(t + 1, p, zero)
                    if c:
                        for cut, lo, hi, _ in registered:
                            cut.acc -= c * (hi if c > 0 else lo)
                else:
                    counts[0] += 1
                    effective, defect, form_rank = search.evaluate((coeffs, sum(ranks)))
                    if effective:
                        if defect > best[0] or (defect == best[0] and p < best[1]):
                            best[0], best[1] = defect, p
                        if collect:
                            records.append((p, tuple(coeffs), defect, form_rank))
            if jump < t:
                # The siblings after c are decided with their subtrees.  None
                # holds the zero vector: a decided ancestor has a nonzero
                # prefix, since a cut's bound at a zero prefix is tail >= 0.
                counts[0] += (box - c) * decided
                break
        for (r, col, _), s in zip(entries, saved):
            S[r][col] = s
        return jump

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
