"""Global defect of an abelian variety from its isogeny factorization.

The classification is a trichotomy: the defect vanishes unless the variety
contains an elliptic curve or a simple abelian surface of Picard number
bigger than one.  An elliptic factor of multiplicity k contributes k (2k - 1
with complex multiplication); a simple surface factor contributes its Picard
number minus one; everything of dimension three or more contributes nothing.
The global defect is the maximum of these per-factor candidates, and the
box search over explicit tori cross-checks that rule on the test
corpus.

Albert's classification pins the surface cases: a simple abelian surface has
endomorphism type I, II or IV, with rho = 3 forced for type II and rho <= 2
for types I and IV (type III does not occur for surfaces).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import FrozenRecord

_SURFACE_PICARD = {"I": (1, 2), "II": (3,), "IV": (2,)}


class IsogenyFactor(FrozenRecord):
    """One simple isogeny factor with its multiplicity.

    `kind` is "elliptic", "surface" or "simple_other".  The constructor
    validates the factor and sets `dim` to 1 for an elliptic and 2 for a
    surface factor; a simple_other factor keeps the `dim` it is given.
    """

    __slots__ = ("kind", "mult", "label", "has_cm", "albert_type", "picard", "dim")

    def __init__(self, kind: str, mult: int, label: str, has_cm: Optional[bool] = None,
                 albert_type: Optional[str] = None, picard: Optional[int] = None,
                 dim: int = 0):
        if mult < 1:
            raise ValueError(f"factor {label}: multiplicity must be positive")
        if kind == "elliptic":
            if has_cm is None:
                raise ValueError(f"factor {label}: elliptic factor needs a cm flag")
            dim = 1
        elif kind == "surface":
            if albert_type not in _SURFACE_PICARD:
                raise ValueError(
                    f"factor {label}: surface type must be I, II or IV"
                )
            if picard not in _SURFACE_PICARD[albert_type]:
                allowed = _SURFACE_PICARD[albert_type]
                raise ValueError(
                    f"factor {label}: type {albert_type} forces picard in {allowed}"
                )
            dim = 2
        elif kind == "simple_other":
            if dim < 3:
                raise ValueError(
                    f"factor {label}: simple_other factors have dimension >= 3"
                )
        else:
            raise ValueError(f"factor {label}: unknown kind {kind!r}")
        self._set(kind, mult, label, has_cm, albert_type, picard, dim)


class IsogenySpec(FrozenRecord):
    """Isogeny factorization with pairwise non-isogenous base factors.

    Repeated labels denote the same isogeny class and are merged by adding
    multiplicities, so listing a factor k times equals multiplicity k.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[IsogenyFactor, ...]):
        merged = {}
        order = []
        for f in factors:
            if f.label in merged:
                prev = merged[f.label]
                same = (
                    prev.kind == f.kind
                    and prev.has_cm == f.has_cm
                    and prev.albert_type == f.albert_type
                    and prev.picard == f.picard
                    and prev.dim == f.dim
                )
                if not same:
                    raise ValueError(f"conflicting factors share label {f.label!r}")
                merged[f.label] = IsogenyFactor(
                    kind=f.kind,
                    mult=prev.mult + f.mult,
                    label=f.label,
                    has_cm=f.has_cm,
                    albert_type=f.albert_type,
                    picard=f.picard,
                    dim=f.dim if f.kind == "simple_other" else 0,
                )
            else:
                merged[f.label] = f
                order.append(f.label)
        self._set(tuple(merged[l] for l in order))
        if not self.factors:
            raise ValueError("isogeny specification needs at least one factor")
        if self.total_dim < 2:
            raise ValueError("total dimension must be at least 2")

    @property
    def total_dim(self) -> int:
        return sum(f.dim * f.mult for f in self.factors)


class DefectReport(FrozenRecord):
    """Classified global defect with its trichotomy case: `case` is "zero",
    "elliptic", "surface_II" or "surface_I_or_IV"."""

    __slots__ = ("delta", "case", "witness_factor", "cm", "multiplicity")

    def __init__(self, delta: int, case: str, witness_factor: Optional[str],
                 cm: Optional[bool] = None, multiplicity: Optional[int] = None):
        self._set(delta, case, witness_factor, cm, multiplicity)


def _factor_candidate(f: IsogenyFactor):
    if f.kind == "elliptic":
        delta = 2 * f.mult - 1 if f.has_cm else f.mult
        return delta, "elliptic", f
    if f.kind == "surface":
        case = "surface_II" if f.albert_type == "II" else "surface_I_or_IV"
        return f.picard - 1, case, f
    return 0, "zero", f


_CASE_PREFERENCE = {"elliptic": 0, "surface_II": 1, "surface_I_or_IV": 2, "zero": 3}


def classify(spec: IsogenySpec) -> DefectReport:
    """Global defect as the maximum of per-factor candidates.

    Every effective divisor's defect is governed by its abelian quotient, and
    quotients that are themselves non-simple products are dominated by their
    elliptic constituents, so the per-factor maximum is exact.  Ties go to
    the elliptic case, matching the exclusivity of the trichotomy.
    """
    best = None
    for f in spec.factors:
        delta, case, witness = _factor_candidate(f)
        key = (-delta, _CASE_PREFERENCE[case], witness.label)
        if best is None or key < best[0]:
            best = (key, delta, case, witness)
    _, delta, case, witness = best
    if delta == 0:
        return DefectReport(0, "zero", None)
    if case == "elliptic":
        return DefectReport(delta, case, witness.label, cm=witness.has_cm,
                            multiplicity=witness.mult)
    return DefectReport(delta, case, witness.label)


def divisor_case(b: int, rho_B: Optional[int] = None, cm: Optional[bool] = None,
                 k: Optional[int] = None) -> int:
    """Per-divisor defect from the invariants of the radical quotient.

    b >= 3 gives 0 by hard Lefschetz on the quotient; b = 2 gives the
    quotient's Picard number minus one; b = 1 gives the CM-sensitive count
    for an elliptic quotient of isogeny multiplicity k.
    """
    if b == 0:
        raise ValueError("impossible case: b = 0 cannot occur for a nonzero effective class")
    if b < 0:
        raise ValueError("b must be positive")
    if b >= 3:
        return 0
    if b == 2:
        if rho_B is None or not 1 <= rho_B <= 4:
            raise ValueError("b = 2 needs the quotient surface Picard number (1..4)")
        return rho_B - 1
    if cm is None or k is None or k < 1:
        raise ValueError("b = 1 needs the CM flag and multiplicity k >= 1")
    return 2 * k - 1 if cm else k


def symbolic_picard_lower_bound(spec: IsogenySpec) -> int:
    """Picard number of a variety realizing the spec, from below.

    Exact for the elliptic part (k + C(k, 2) * rk End per isogeny class);
    surface and higher factors are counted by their own Picard number only,
    which can undercount the self-Hom contributions of powers.
    """
    rho = 0
    for f in spec.factors:
        k = f.mult
        if f.kind == "elliptic":
            end_rank = 2 if f.has_cm else 1
            rho += k + (k * (k - 1) // 2) * end_rank
        elif f.kind == "surface":
            rho += f.picard * k
        else:
            rho += k
    return rho


def threefold_catalog():
    """The classification of abelian threefolds as (spec, report) rows.

    Seven case rows realize the five possible defect values
    {5, 3, 2, 2, 1, 1, 0}; rows are ordered by decreasing defect.
    """
    E = lambda label, mult, cm: IsogenyFactor("elliptic", mult, label, has_cm=cm)
    S = lambda label, typ, rho: IsogenyFactor("surface", 1, label, albert_type=typ, picard=rho)
    rows = [
        IsogenySpec((E("E_cm", 3, True),)),
        IsogenySpec((E("E_rm", 1, False), E("E_cm", 2, True))),
        IsogenySpec((S("S_II", "II", 3), E("E", 1, False))),
        IsogenySpec((E("E_rm", 2, False), E("E", 1, False))),
        IsogenySpec((E("E", 1, False), E("E'", 1, False), E("E''", 1, False))),
        IsogenySpec((S("S", "I", 2), E("E", 1, False))),
        IsogenySpec((IsogenyFactor("simple_other", 1, "A", dim=3),)),
    ]
    catalog = [(spec, classify(spec)) for spec in rows]
    catalog.sort(key=lambda item: -item[1].delta)
    return catalog
