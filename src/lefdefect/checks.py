"""Cross-validation suites run by the CLI's verify command.

Each check recomputes one of the structural identities the defect machinery
relies on, on a concrete torus, through two independent code paths:

* voisin    - kernel of restriction to a divisor subtorus equals the kernel
              of cup product with its Poincare dual, on the NS subspace,
              compared as canonical `kernel_basis` lists.
* kunneth   - Picard number of a product splits as rho(C) + rho(T) + rk Hom.
* lefschetz - cup product with a polarization is injective on all of H^2
              when the dimension is at least 3.
* oracle    - the box search agrees with the symbolic
              classification of the inferred isogeny factorization; a
              search that stays below it is box-limited, not failed.
"""

from __future__ import annotations

from operator import mul
from typing import Optional

from .classifier import IsogenyFactor, IsogenySpec, classify
from .cohomology import cup_matrix, poincare_dual, restriction_map, wedge, wedge_basis
from .effectivity import DefectSearchResult, is_effective_class, torus_defect
from .errors import ConsistencyError, FrozenRecord
from .exactmath import kernel_basis
from .exactmath.linalg import bareiss_echelon
from .torus import (
    AlternatingForm,
    ComplexTorus,
    coordinate_factor_sublattices,
    factor_blocks,
    factor_curves,
    fiber_pairs,
    hom_rank,
    ns_basis,
    ns_rank,
    product,
)

CHECK_NAMES = ("voisin", "kunneth", "lefschetz", "oracle")


class CheckResult(FrozenRecord):
    """Outcome of one check: `status` is "pass", "fail", "skipped" or
    "box_limited", and `detail` says what was compared."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        self._set(name, status, detail)


def restriction_kernel_on_ns(A: ComplexTorus, W):
    """Canonical kernel basis, in NS-basis coordinates, of restriction to W:
    the integer 2x2 minors of W's basis applied to the integer NS basis
    forms."""
    ns = [b.pair_num() for b in ns_basis(A)]
    R = restriction_map(A, W)
    return kernel_basis([[sum(map(mul, row, b)) for b in ns] for row in R])


def cup_dual_kernel_on_ns(A: ComplexTorus, W):
    """Canonical kernel basis, in NS-basis coordinates, of cup product with
    the integer Poincare dual of W."""
    N = 2 * A.n
    dual = poincare_dual(A, W)
    images = [wedge(N, 2, W.corank, b.pair_num(), dual) for b in ns_basis(A)]
    return kernel_basis([list(col) for col in zip(*images)])


def check_voisin(A: ComplexTorus) -> CheckResult:
    """Restriction kernel vs cup-product kernel for divisor subtori.

    `kernel_basis` returns the canonical echelon basis of a kernel, which
    depends on the kernel alone, so the two kernels are equal exactly when
    their bases are equal lists.
    """
    lattices = coordinate_factor_sublattices(A, corank=2)
    if not lattices:
        return CheckResult("voisin", "skipped",
                           "J has no elliptic block beside another diagonal block")
    for subset, W in lattices:
        k_restrict = restriction_kernel_on_ns(A, W)
        k_cup = cup_dual_kernel_on_ns(A, W)
        if k_restrict != k_cup:
            return CheckResult(
                "voisin",
                "fail",
                f"kernels differ for factor subset {subset}: "
                f"dims {len(k_restrict)} vs {len(k_cup)}",
            )
    return CheckResult(
        "voisin", "pass", f"kernel equality on {len(lattices)} divisor subtori"
    )


def check_kunneth(A: ComplexTorus) -> CheckResult:
    blocks = factor_blocks(A)
    if blocks is None or len(blocks) < 2:
        return CheckResult("kunneth", "skipped", "J has a single diagonal block")
    head = blocks[0][1]
    tail = product([f for _, f in blocks[1:]])
    lhs = ns_rank(A)
    rho_c, rho_t = ns_rank(head), ns_rank(tail)
    homs = hom_rank(tail, head)
    rhs = rho_c + rho_t + homs
    detail = f"rho = {lhs} vs {rho_c} + {rho_t} + {homs}"
    if lhs != rhs:
        return CheckResult("kunneth", "fail", detail)
    return CheckResult("kunneth", "pass", detail)


def product_polarization(A: ComplexTorus) -> Optional[AlternatingForm]:
    """Sum of the fiber forms of the diagonal blocks of J (`fiber_pairs`)."""
    pairs = fiber_pairs(A)
    if pairs is None:
        return None
    size = 2 * A.n
    rows = [[0] * size for _ in range(size)]
    for block in pairs:
        for i, j in block:
            rows[i][j] = 1
            rows[j][i] = -1
    form = AlternatingForm(A, rows)
    if not form.is_hodge or not is_effective_class(A, form):
        return None
    return form


def check_lefschetz(A: ComplexTorus) -> CheckResult:
    """Injectivity of cup product with a polarization on all of H^2."""
    if A.n < 3:
        return CheckResult("lefschetz", "skipped", "requires n >= 3")
    h = product_polarization(A)
    if h is None:
        return CheckResult("lefschetz", "skipped", "no product polarization available")
    full = len(wedge_basis(2 * A.n, 2))
    r = len(bareiss_echelon(cup_matrix(A, h.pair_num())))
    if r != full:
        return CheckResult("lefschetz", "fail", f"rank {r} < {full} on H^2")
    return CheckResult("lefschetz", "pass", f"cup with polarization has full rank {full}")


def isogeny_spec_of(A: ComplexTorus) -> Optional[IsogenySpec]:
    """Isogeny factorization of a torus whose J is block diagonal in
    elliptic curves (`factor_curves`), or None.

    Curves are grouped by nonvanishing Hom rank; within a group the CM flag
    is shared, so the group contributes one factor with its multiplicity,
    named E1, E2, ... in the order of the groups' first curves.
    """
    curves = factor_curves(A)
    if curves is None:
        return None
    groups = []
    for curve in curves:
        for group in groups:
            if hom_rank(curve, group[0]) >= 1:
                group.append(curve)
                break
        else:
            groups.append([curve])
    factors = []
    for idx, group in enumerate(groups):
        cm_flags = {c.has_cm for c in group}
        if len(cm_flags) != 1:
            raise ConsistencyError("isogenous curves disagree on CM")
        factors.append(IsogenyFactor("elliptic", len(group), f"E{idx + 1}", has_cm=cm_flags.pop()))
    return IsogenySpec(tuple(factors))


def check_oracle(
    A: ComplexTorus, box: int = 2, result: Optional[DefectSearchResult] = None
) -> CheckResult:
    """Search delta against the classifier; `result` reuses a search at `box`.

    The search certifies its delta from below, so a delta above the
    classifier's is a contradiction ("fail"), while one below it only says
    that the box holds no witness ("box_limited").
    """
    spec = isogeny_spec_of(A)
    if spec is None:
        return CheckResult("oracle", "skipped", "J is not block diagonal in elliptic curves")
    expected = classify(spec).delta
    if result is None:
        result = torus_defect(A, box=box)
    detail = (
        f"search delta {result.delta} vs classifier {expected} "
        f"({result.classes_scanned} classes scanned)"
    )
    if result.delta > expected:
        return CheckResult("oracle", "fail", detail)
    if result.delta < expected:
        return CheckResult(
            "oracle", "box_limited", f"{detail}; no witness within box {result.search_box}"
        )
    return CheckResult("oracle", "pass", detail)


def run_checks(
    A: ComplexTorus, names, box: int = 2, search: Optional[DefectSearchResult] = None
):
    runners = {
        "voisin": lambda: check_voisin(A),
        "kunneth": lambda: check_kunneth(A),
        "lefschetz": lambda: check_lefschetz(A),
        "oracle": lambda: check_oracle(A, box=box, result=search),
    }
    results = []
    for name in names:
        if name not in runners:
            raise ValueError(f"unknown check {name!r}")
        results.append(runners[name]())
    return results
