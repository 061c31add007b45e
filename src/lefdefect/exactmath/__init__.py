"""Exact rational and real-number-field arithmetic with linear algebra."""

from .lattice import complement_data, integer_kernel_basis, saturate
from .linalg import (
    integer_rows,
    kernel_basis,
    primitive_integer_vector,
    rank,
    restrict_scalars,
)
from .numberfield import (
    AlgebraicReal,
    IntegralElement,
    RealNumberField,
    count_real_roots,
    format_rational,
    integral_enclosure,
    integral_quotient,
    integral_sign,
    nf_sign,
    norm_adjugate,
    parse_rational,
)

# perfbench/workloads.py (`_setup_case`), which stays fixed so that runs of
# two checkouts compare, calls integer_kernel_basis(QMatrix(form.matrix)).
QMatrix = integer_rows

__all__ = [
    "AlgebraicReal",
    "IntegralElement",
    "QMatrix",
    "RealNumberField",
    "complement_data",
    "count_real_roots",
    "format_rational",
    "integer_kernel_basis",
    "integer_rows",
    "integral_enclosure",
    "integral_quotient",
    "integral_sign",
    "kernel_basis",
    "nf_sign",
    "norm_adjugate",
    "parse_rational",
    "primitive_integer_vector",
    "rank",
    "restrict_scalars",
    "saturate",
]
