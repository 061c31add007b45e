"""Positivity analysis of divisor classes and the global defect search.

A Neron-Severi class is effective (up to a positive multiple) exactly when
its symmetric part S(x, y) = E(x, Jy) is positive semidefinite and nonzero:
an effective divisor is pulled back from a polarization on the quotient by
its radical, and conversely a semidefinite class descends to a polarization
there.  Semidefiniteness (including the degenerate boundary classes, which
are precisely the interesting ones here) is decided by one exact symmetric
elimination, `_purekernels.psd_rank`, which also returns the rank.

`torus_defect` maximizes the cup-product kernel dimension over all effective
integer classes in a coefficient box over the NS basis, plus the structured
candidates that lie outside the box.  These exist only beside a block
that is not a curve: when J is block diagonal with such a block, they are
the sums of the blocks' fiber classes over nonempty subsets of blocks,
when every fiber is an NS class, read off the NS basis once per block
(`ns_coordinates`, no elimination).  On a product of curves every such sum
lies in the box (`_structured_candidate_vectors`).
The box is covered by a pruned depth-first search (see `_purekernels`):
`classes_scanned` counts every box candidate it decides, visited or pruned,
and `nodes_visited` the search-tree nodes it actually enters.  `_search`
builds the search straight from the torus: the symmetric parts of the NS
basis and a cup table whose row i is `ns_cup_matrix(A, b_i)`, so a leaf's
defect comes from the same products that `defect_of_class` eliminates.

Everything here runs on the torus's integer J data, with one scalar kind per
torus.  With J = sum_k alpha^k J_k on the power basis and D the common
denominator of the J_k, J enters only as the integer matrices D * J_k:
`symmetric_part` returns D * S = sum_k alpha^k (E * D J_k) (times E's
denominator), as an integer matrix when J is rational and as a matrix of
elements of Z[alpha] (integer power-basis coordinates) otherwise; alpha is
integral because `min_poly` is monic with integer coefficients.  The Hodge
test is the symmetry of E * J.  `is_effective_class` and the search keep
only the nonzero entries of these matrices (`_symmetric_entries`), and
decide semidefiniteness once per connected component of their pattern,
with the same sign and exact quotient.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from . import _purekernels
from .cohomology import ns_cup_matrix, wedge_index
from .errors import ConsistencyError, FrozenRecord, NotHodgeClass, _setattr
from .exactmath import IntegralElement, kernel_basis, primitive_integer_vector, rank
from .torus import (
    AlternatingForm,
    ComplexTorus,
    Sublattice,
    _matmul,
    _ns_pair_coordinates,
    factor_curves,
    fiber_pairs,
    hom_rank,
    ns_basis,
    ns_rank,
    quotient,
    subtorus,
)

# The search is pure Python; there is no compiled kernel.  The constant stays
# because the benchmark (`perfbench/run.py`) reads it to confirm that it
# measures the pure path.
HAVE_COMPILED_KERNELS = False


def symmetric_part(A: ComplexTorus, E: AlternatingForm):
    """The symmetric part S = E * J of a Neron-Severi class, as c * D * S.

    Here D is the common denominator of J's power-basis components and c
    that of E (1 for the NS basis forms, which are primitive integer forms,
    so every basis element gets the same scale D).  The matrix holds the
    search's scalars: ints when J is rational, `IntegralElement`s of Z[alpha]
    otherwise.  S(x, y) = E(x, Jy) is symmetric exactly when E is
    J-compatible, so its symmetry is the Hodge test; on the square lattice
    with its principal polarization S is the identity.
    """
    return _dense(A, _symmetric_entries(A, E))


def _zero(A: ComplexTorus):
    """The scalar zero of A's kind: 0, or 0 in Z[alpha] when J is not
    rational."""
    return 0 if A.rational_j else IntegralElement(A.field, (0,) * A.field.degree)


def _dense(A: ComplexTorus, entries):
    """The N x N matrix with these nonzero entries (r, c, value) and the
    scalar zero of A's kind everywhere else."""
    N = 2 * A.n
    zero = _zero(A)
    S = [[zero] * N for _ in range(N)]
    for r, c, x in entries:
        S[r][c] = x
    return S


def _search_class(A: ComplexTorus):
    """The search class of A's scalar kind, whose `sign` and `quotient` also
    serve `psd_rank` outside the search: `IntSearch` (ints) when J is
    rational, `FieldSearch` (Z[alpha]) otherwise."""
    return _purekernels.IntSearch if A.rational_j else _purekernels.FieldSearch


def is_effective_class(A: ComplexTorus, E: AlternatingForm) -> bool:
    """Nonzero with positive-semidefinite symmetric part.

    Equivalent to some positive multiple of E being the class of an effective
    divisor; scaling never changes the defect, so this is the right
    effectivity notion for maximizing it.

    S is block diagonal on the connected components of its nonzero pattern
    (on a product, the isogeny classes of the factors, or finer), so it is
    PSD exactly when every component block is: `psd_rank` runs once per
    component, on the entries `_symmetric_entries` reads off E * (D J_k),
    as in the search.
    """
    if E.is_zero():
        return False
    entries = _symmetric_entries(A, E)
    S = _dense(A, entries)
    kind = _search_class(A)
    return all(_purekernels.psd_rank(S, idx, kind.sign, kind.quotient)[0] >= 0
               for idx in _purekernels._components([entries], len(S)))


def radical(A: ComplexTorus, E: AlternatingForm) -> Sublattice:
    """Saturation of the lattice vectors annihilated by an effective class.

    J-compatibility makes the radical J-stable (E(Jx, y) = E(x, -Jy) dies
    whenever E(x, .) does), so it is a complex subtorus of even rank.  The
    rational kernel of the integer matrix `E.num`, as primitive vectors,
    goes to `subtorus`, which saturates it once (to the canonical Hermite
    basis) and certifies J-stability.
    """
    if not is_effective_class(A, E):
        raise ValueError("class is not effective")
    return _radical(A, E)


def _radical(A: ComplexTorus, E: AlternatingForm) -> Sublattice:
    """`radical` of a class already known to be effective, without testing
    it again."""
    W = subtorus(A, kernel_basis(E.num))
    if W.rank % 2 != 0:
        raise ConsistencyError("radical has odd rank")
    return W


def iitaka_dimension(A: ComplexTorus, E: AlternatingForm) -> int:
    """Dimension of the abelian quotient attached to an effective class."""
    W = radical(A, E)
    b = A.n - W.rank // 2
    if b == 0:
        raise ConsistencyError("iitaka dimension 0 is impossible for a nonzero class")
    return b


def induced_quotient_class(A: ComplexTorus, E: AlternatingForm, W: Sublattice) -> AlternatingForm:
    """The nondegenerate class an effective E induces on quotient(A, W):
    S^T E S for the section S of W's `complement_data`, computed as
    S^T num S over den."""
    S = W.section
    rows = _matmul(list(zip(*S)), _matmul(E.num, S))
    return AlternatingForm._from_num(quotient(A, W), E.den, rows)


class EffectivityReport(FrozenRecord):
    """Per-class positivity summary."""

    __slots__ = ("form", "is_effective", "radical_rank", "iitaka_dim", "quotient")

    def __init__(self, form: AlternatingForm, is_effective: bool, radical_rank: int,
                 iitaka_dim: Optional[int], quotient: Optional[ComplexTorus]):
        self._set(form, is_effective, radical_rank, iitaka_dim, quotient)


def effectivity_report(A: ComplexTorus, E: AlternatingForm) -> EffectivityReport:
    effective = is_effective_class(A, E)
    if not effective:
        return EffectivityReport(E, False, 2 * A.n - rank(E.num), None, None)
    W = _radical(A, E)
    b = A.n - W.rank // 2
    B = quotient(A, W) if W.rank < 2 * A.n else None
    return EffectivityReport(E, True, W.rank, b, B)


class DefectSearchResult(FrozenRecord):
    """Outcome of the box search: a certified-from-below global defect."""

    __slots__ = ("delta", "witness", "classes_scanned", "nodes_visited", "search_box",
                 "witness_coefficients")

    def __init__(self, delta: int, witness: Optional[AlternatingForm], classes_scanned: int,
                 nodes_visited: int, search_box: int, witness_coefficients: Optional[tuple]):
        self._set(delta, witness, classes_scanned, nodes_visited, search_box,
                  witness_coefficients)


class EffectiveClassRecord(FrozenRecord):
    """One effective candidate seen by the survey scan.

    A survey builds one per effective candidate, so the fields are stored
    one by one, without the loop of `_set`.
    """

    __slots__ = ("position", "coefficients", "defect", "form_rank")

    def __init__(self, position: int, coefficients: tuple, defect: int, form_rank: int):
        _setattr(self, "position", position)
        _setattr(self, "coefficients", coefficients)
        _setattr(self, "defect", defect)
        _setattr(self, "form_rank", form_rank)


def _symmetric_entries(A: ComplexTorus, E: AlternatingForm):
    """The nonzero entries (r, c, value) of `symmetric_part(A, E)`, row by
    row, without the dense matrix: each entry is decided zero on the
    integer products E * (D J_k), and only a nonzero one over a number
    field becomes an `IntegralElement`.  Raises `NotHodgeClass` as
    `symmetric_part` does."""
    if E.torus != A:
        raise ValueError("form belongs to a different torus")
    parts = E.times_dj()
    if not E.is_hodge:
        raise NotHodgeClass("form is not J-compatible")
    if A.rational_j:
        return [(r, c, x) for r, row in enumerate(parts[0]) for c, x in enumerate(row) if x]
    field = A.field
    return [(r, c, IntegralElement(field, coeffs))
            for r, rows in enumerate(zip(*parts))
            for c, coeffs in enumerate(zip(*rows)) if any(coeffs)]


def _search(A: ComplexTorus, box: Optional[int] = None):
    """The search of A: an `IntSearch` when J is rational, a `FieldSearch`
    otherwise (`_search_class`), with its levels ordered for `box`
    (`_Search._level_order`).

    Each symmetric part D * S_b = sum_k alpha^k (E_b * D J_k) is kept as its
    nonzero entries (`_symmetric_entries`); the positive factor D changes
    neither semidefiniteness nor rank.  Row i of the cup table is
    `ns_cup_matrix(A, b_i)`, whose row j is b_j ^ b_i.  By bilinearity the
    rows sum_i c_i (b_j ^ b_i) that `evaluate` adds up for a leaf
    x = sum_i c_i b_i are `ns_cup_matrix(A, x)`, the matrix that
    `defect_of_class` eliminates.
    """
    if A.n < 2:
        raise ValueError("global defect search needs dimension at least 2")
    basis = ns_basis(A)
    nonzero = [_symmetric_entries(A, b) for b in basis]
    w_pairs = [ns_cup_matrix(A, b) for b in basis]
    return _search_class(A)(nonzero, w_pairs, 2 * A.n, _zero(A), box)


def _fiber_coordinates(A: ComplexTorus, pairs):
    """Per diagonal block of J (`fiber_pairs`), the coordinates of its fiber
    form over the NS basis, or None when the fiber is not an NS class.

    Each block's fiber form is read off the NS basis once, on its integer
    pair coordinates (`ns_coordinates` without building the form).  The
    basis spans the J-compatible forms over Q, so a fiber without
    coordinates is exactly one that is not a Hodge class.
    """
    index = wedge_index(2 * A.n, 2)
    fibers = []
    for block in pairs:
        x = [0] * len(index)
        for pair in block:
            x[index[pair]] = 1
        fibers.append(_ns_pair_coordinates(A, x, 1))
    return fibers


def _structured_candidate_vectors(A: ComplexTorus):
    """Coefficient vectors of the structured candidates over the NS basis.

    When J is block diagonal with a block that is not a curve, these are
    the primitive forms of the sums of the blocks' fiber forms over every
    nonempty subset of blocks (the pullbacks of the product polarizations
    of all coordinate quotients, the torus itself included), offered only
    when every fiber form is an NS class.  Both signs are offered and the
    effectivity filter keeps the right one.  Subset sums add the fibers'
    coordinate vectors (`_fiber_coordinates`).

    On a product of curves there are none: an elliptic block's fiber is a
    single pair slot, a free slot of the echelon NS basis, so its
    coordinates are a unit vector, and every subset sum is a 0/1 vector,
    which lies in every box.
    """
    pairs = fiber_pairs(A)
    if pairs is None or all(len(block) == 1 for block in pairs):
        return []
    fibers = _fiber_coordinates(A, pairs)
    if None in fibers:
        return []
    vectors = set()
    for size in range(1, len(fibers) + 1):
        for subset in combinations(fibers, size):
            prim = primitive_integer_vector([sum(c) for c in zip(*subset)])
            vectors |= {prim, tuple(-x for x in prim)}
    return sorted(vectors)


def _combine(best, candidate):
    delta, pos = candidate
    if delta > best[0] or (delta == best[0] and pos >= 0 and (best[1] < 0 or pos < best[1])):
        return (delta, pos)
    return best


def _position_coeffs(position: int, rho: int, box: int):
    base = 2 * box + 1
    digits = []
    for _ in range(rho):
        digits.append(position % base)
        position //= base
    digits.reverse()
    return tuple(d - box for d in digits)


def _run_search(A: ComplexTorus, box: int, collect: bool):
    if box < 1:
        raise ValueError("box must be at least 1")
    search = _search(A, box)
    if search.rho == 0:
        return DefectSearchResult(0, None, 0, 0, box, None), []
    total = (2 * box + 1) ** search.rho
    delta, pos, scanned, nodes, records = _purekernels.scan_range(search, box, collect)
    best = (delta, pos)
    extras = [v for v in _structured_candidate_vectors(A) if any(abs(c) > box for c in v)]
    if extras:
        delta, pos, extra_scanned, extra_nodes, extra_records = _purekernels.scan_vectors(
            search, extras, total, collect
        )
        best = _combine(best, (delta, pos))
        scanned += extra_scanned
        nodes += extra_nodes
        records.extend(extra_records)

    if best[0] < 0:
        result = DefectSearchResult(0, None, scanned, nodes, box, None)
        return result, []
    position = best[1]
    if position < total:
        coeffs = _position_coeffs(position, search.rho, box)
    else:
        coeffs = tuple(extras[position - total])
    witness = _form_from_coeffs(A, coeffs)
    result = DefectSearchResult(best[0], witness, scanned, nodes, box, coeffs)
    out_records = [EffectiveClassRecord(*r) for r in records] if collect else []
    return result, out_records


def _form_from_coeffs(A, coeffs) -> AlternatingForm:
    """The form sum c_b b over ns_basis(A), added up on the basis forms'
    integer matrices (they are primitive integer forms, den 1)."""
    nums = [b.num for b in ns_basis(A)]
    N = 2 * A.n
    return AlternatingForm._from_num(
        A, 1,
        [[sum(c * e[r][k] for c, e in zip(coeffs, nums)) for k in range(N)] for r in range(N)],
    )


def torus_defect(A: ComplexTorus, box: int = 2) -> DefectSearchResult:
    """Max defect over all effective classes in the coefficient box.

    The result is certified from below: the paper-level classification (see
    the classifier module) provides the matching upper bound on the test
    corpus.  `classes_scanned` (candidates decided) and `nodes_visited`
    (search-tree nodes entered) make the enumeration cost visible.
    """
    result, _ = _run_search(A, box, collect=False)
    return result


def defect_survey(A: ComplexTorus, box: int = 2):
    """Like torus_defect, but also returns every effective class seen."""
    return _run_search(A, box, collect=True)


def divisor_case_data(A: ComplexTorus, E: AlternatingForm):
    """(b, rho_B, cm, k) for the radical quotient of an effective class.

    Inputs for the per-divisor case analysis: the Iitaka dimension b, the
    Picard number of the quotient when b = 2, and the CM flag plus isogeny
    multiplicity of the quotient curve when b = 1: the number of diagonal
    blocks of J isogenous to it, which must all be curves.
    """
    W = radical(A, E)
    b = A.n - W.rank // 2
    if b >= 3:
        return b, None, None, None
    B = quotient(A, W)
    if b == 2:
        return b, ns_rank(B), None, None
    curves = factor_curves(A)
    if curves is None:
        raise ValueError("J is not block diagonal in elliptic curves")
    k = sum(1 for f in curves if hom_rank(f, B) >= 1)
    if k < 1:
        raise ConsistencyError("quotient elliptic curve not isogenous to any factor")
    return b, None, B.has_cm, k
