"""Exact computation of the Lefschetz defect of complex abelian varieties.

The per-divisor defect is the dimension of the kernel of cup product with
the divisor class from the Neron-Severi space into H^4; the global defect is
its maximum over effective classes.  Two independent routes compute it:

* a pruned search over effective integer classes on an explicit torus
  (`torus_defect`), and
* a symbolic classification from the isogeny factorization (`classify`),

and the two are cross-validated on products of elliptic curves.  All
arithmetic is exact, over Q or a fixed real number field.
"""

from .classifier import (
    DefectReport,
    IsogenyFactor,
    IsogenySpec,
    classify,
    divisor_case,
    threefold_catalog,
)
from .cohomology import (
    cup_matrix,
    defect_of_class,
    lambda_defect,
    poincare_dual,
    restriction_map,
    wedge,
)
from .effectivity import (
    DefectSearchResult,
    EffectivityReport,
    defect_survey,
    effectivity_report,
    iitaka_dimension,
    is_effective_class,
    radical,
    symmetric_part,
    torus_defect,
)
from .errors import ConsistencyError, NotHodgeClass, SchemaError
from .exactmath import AlgebraicReal, RealNumberField, nf_sign
from .torus import (
    AlternatingForm,
    ComplexTorus,
    Sublattice,
    elliptic,
    hom_rank,
    ns_basis,
    ns_rank,
    product,
    quotient,
    subtorus,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicReal",
    "AlternatingForm",
    "ComplexTorus",
    "ConsistencyError",
    "DefectReport",
    "DefectSearchResult",
    "EffectivityReport",
    "IsogenyFactor",
    "IsogenySpec",
    "NotHodgeClass",
    "RealNumberField",
    "SchemaError",
    "Sublattice",
    "classify",
    "cup_matrix",
    "defect_of_class",
    "defect_survey",
    "divisor_case",
    "effectivity_report",
    "elliptic",
    "hom_rank",
    "iitaka_dimension",
    "is_effective_class",
    "lambda_defect",
    "nf_sign",
    "ns_basis",
    "ns_rank",
    "poincare_dual",
    "product",
    "quotient",
    "radical",
    "restriction_map",
    "subtorus",
    "symmetric_part",
    "threefold_catalog",
    "torus_defect",
    "wedge",
]
