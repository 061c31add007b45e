"""Torus construction on integer data, against field-level references.

`elliptic` builds a curve's integer J data from the norm/adjugate inverse of
its imaginary part in Z[alpha]; every torus certifies J^2 = -I on its
integer parts, and `product` keeps its factors' canonical, certified data
without checking it again; `_matmul` skips zero entries; `AlternatingForm`
keeps int entries as ints.  Each is checked here against the simple
construction it replaces (references in `references.py`), and the CLI is
run end to end on random torus documents.
Float inputs are rejected at every exact entry point.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefdefect.checks import isogeny_spec_of
from lefdefect.classifier import classify
from lefdefect.cli import main
from lefdefect.errors import ConsistencyError
from lefdefect.exactmath import (
    IntegralElement,
    RealNumberField,
    norm_adjugate,
    restrict_scalars,
)
from lefdefect.schema import load_document
from lefdefect.torus import (
    AlternatingForm,
    ComplexTorus,
    _canonical,
    _matmul,
    _squares_to_minus_d2,
    elliptic,
    factor_blocks,
    product,
)

from references import (
    dense_matmul,
    determinant,
    elliptic_products,
    field_j,
    matrix_squares_to_minus_identity,
    parts_matrix,
    rebased,
    reference_field_product,
    squares_to_minus_identity,
)

F = Fraction
QUARTIC = RealNumberField([-2, 0, 0, 0, 1], (F(1), F(3, 2)))
QUARTIC_DOC = {"min_poly": [-2, 0, 0, 0, 1], "root_interval": ["1", "3/2"]}


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=4, max_size=4).filter(any))
def test_norm_adjugate_inverts_in_z_alpha(coeffs):
    """b * adj(b) = N(b) on the reference product, and N(b) is, up to the
    sign of the row swaps, the determinant of multiplication by b (columns
    b * alpha^k)."""
    b = IntegralElement(QUARTIC, tuple(coeffs))
    norm, adj = norm_adjugate(b)
    assert norm != 0
    assert reference_field_product(QUARTIC, coeffs, adj) == (norm, 0, 0, 0)
    columns = [reference_field_product(QUARTIC, coeffs, [0] * k + [1]) for k in range(4)]
    assert abs(norm) == abs(determinant([list(row) for row in zip(*columns)]))


def test_norm_adjugate_of_zero_divisor_raises_zero_division():
    K = RealNumberField([-1, 0, 1], (F(1, 2), F(3, 2)))
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        norm_adjugate(IntegralElement(K, (1, 1)))


@settings(max_examples=40, deadline=None)
@given(A=elliptic_products(), data=st.data())
def test_parts_certificate_matches_field_square(A, data):
    """The certificate on the integer parts accepts every torus's parts and
    rejects every single-entry perturbation of them, as does J * J == -I
    computed on the field matrix."""
    assert _squares_to_minus_d2(A.field, A.j_den, A.j_parts)
    assert squares_to_minus_identity(A)
    size = 2 * A.n
    k = data.draw(st.integers(0, A.field.degree - 1), label="part")
    r = data.draw(st.integers(0, size - 1), label="row")
    c = data.draw(st.integers(0, size - 1), label="column")
    shift = data.draw(st.sampled_from([-2, -1, 1, 3]), label="shift")
    zero = [[0] * size for _ in range(size)]
    parts = [[list(row) for row in Jk] for Jk in A.j_parts]
    parts += [[row[:] for row in zero] for _ in range(k + 1 - len(parts))]
    parts[k][r][c] += shift
    assert not _squares_to_minus_d2(A.field, A.j_den, parts)
    assert not matrix_squares_to_minus_identity(A.field, parts_matrix(A.field, A.j_den, parts))
    with pytest.raises(ConsistencyError, match="complex structure"):
        ComplexTorus._from_parts(A.field, A.j_den, parts)


@settings(max_examples=40, deadline=None)
@given(A=elliptic_products(), seed=st.integers(0, 2**32))
def test_product_data_is_canonical_and_certified(A, seed):
    """`product` concatenates its factors' certified data without checking
    it again: on products of curves, of a product with a curve, and of a
    torus on a mixed lattice basis with curves, its (j_den, j_parts) is
    what `_canonical` makes of it and squares to -D^2 I."""
    curves = [f for _, f in factor_blocks(A)]
    mixed = rebased(product(curves[:2]), random.Random(seed))
    for P in (A, product([A, curves[-1]]), product([mixed] + curves[2:] + curves[:1])):
        assert (P.j_den, P.j_parts) == _canonical(P.j_den, P.j_parts)
        assert _squares_to_minus_d2(P.field, P.j_den, P.j_parts)


@settings(max_examples=40, deadline=None)
@given(A=elliptic_products(), seed=st.integers(0, 2**32))
def test_product_blocks_are_its_factors_blocks(A, seed):
    """The diagonal blocks of a product's J are its factors' blocks (a
    factor whose J is one block counts as one), shifted by their offsets,
    so they partition the lattice coordinates: on products of curves, of
    products, of an atom whose J splits (`plain`) and of a torus on a
    mixed lattice basis."""
    curves = [f for _, f in factor_blocks(A)]
    plain = ComplexTorus(A.field, field_j(A))
    mixed = rebased(product(curves[:2]), random.Random(seed))
    for factors in ([A, curves[-1]], [plain, mixed] + curves[:1],
                    [curves[0], product([mixed, plain])]):
        shifted, offset = [], 0
        for f in factors:
            shifted += [(tuple(offset + i for i in idx), g)
                        for idx, g in factor_blocks(f) or [(tuple(range(2 * f.n)), f)]]
            offset += 2 * f.n
        blocks = factor_blocks(product(factors))
        assert blocks == shifted
        assert sorted(i for idx, _ in blocks for i in idx) == list(range(offset))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    zeros=st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9]),
    seed=st.integers(0, 2**16),
)
def test_matmul_matches_dense_product_on_ints(shape, zeros, seed):
    rng = random.Random(seed)
    rows, inner, cols = shape
    entry = lambda: 0 if rng.random() < zeros else rng.randint(-9, 9)
    a = [[entry() for _ in range(inner)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    assert _matmul(a, b) == dense_matmul(a, b)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**16),
)
def test_matmul_matches_dense_product_on_integral_elements(shape, seed):
    rng = random.Random(seed)
    rows, inner, cols = shape

    def entry():
        if rng.random() < 0.4:
            return rng.choice((0, IntegralElement(QUARTIC, (0, 0, 0, 0))))
        return IntegralElement(QUARTIC, tuple(rng.randint(-3, 3) for _ in range(4)))

    a = [[entry() for _ in range(inner)] for _ in range(rows)]
    b = [[entry() for _ in range(cols)] for _ in range(inner)]
    # A skipped product leaves an int 0 where the dense sum has a zero element.
    coords = lambda m: [[x.coeffs if isinstance(x, IntegralElement) else (x, 0, 0, 0)
                         for x in row] for row in m]
    assert coords(_matmul(a, b)) == coords(dense_matmul(a, b))


@settings(max_examples=40, deadline=None)
@given(A=elliptic_products(), seed=st.integers(0, 2**16))
def test_form_entry_types_give_one_form(A, seed):
    """Int, Fraction, str and mixed entries of one matrix give one form;
    int entries stay ints in `num`, and `matrix` is always Fractions."""
    rng = random.Random(seed)
    size = 2 * A.n
    num = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            num[i][j] = rng.choice((0, 0, 1, -1, 2, -3))
            num[j][i] = -num[i][j]
    den = rng.choice((1, 1, 2, 6))
    exact = [[F(x, den) for x in row] for row in num]
    presentations = [
        exact,
        [[str(x) for x in row] for row in exact],
        [[rng.choice((x, str(x))) for x in row] for row in exact],
    ]
    if den == 1:
        presentations += [num, [[rng.choice((x, F(x), str(x))) for x in row] for row in num]]
    forms = [AlternatingForm(A, m) for m in presentations]
    assert all(E == forms[0] and hash(E) == hash(forms[0]) for E in forms)
    for E in forms:
        assert E.den == den // gcd(den, *(x for row in num for x in row))
        assert all(type(x) is int for row in E.num for x in row)
        assert all(type(x) is F for row in E.matrix for x in row)
        assert E.matrix == tuple(map(tuple, exact))


def test_outside_int_matrices_are_still_checked():
    E = elliptic(0, 1)
    with pytest.raises(ValueError, match="antisymmetric"):
        AlternatingForm(E, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="antisymmetric"):
        AlternatingForm(E, [[1, 1], [-1, 0]])
    with pytest.raises(ValueError, match="size"):
        AlternatingForm(E, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    form = AlternatingForm(E, [[0, 2], [-2, 0]])
    assert form.num == ((0, 2), (-2, 0)) and form.den == 1 and form.matrix[0][1] == F(2)


# ---- the CLI on random torus documents --------------------------------------

_IMAGINARY = {"Q": [(1,)], "K": [(1,), (0, 1), (0, 0, 1), (1, 1), (0, 0, 0, 1), (-1, 1)]}


@st.composite
def torus_documents(draw, count=2, fields=("Q", "K")):
    """Torus documents of `count` blocks over Q or Q(2^(1/4)), with or
    without the blocks' fiber classes declared."""
    field = draw(st.sampled_from(fields))
    blocks = []
    for i in range(count):
        a = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
        scale = draw(st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3), F(3)]))
        beta = draw(st.sampled_from(_IMAGINARY[field]))
        blocks.append({"a": str(a), "beta": [str(c * scale) for c in beta], "label": f"E{i}"})
    doc = {"kind": "torus", "blocks": blocks}
    if field == "K":
        doc["field"] = QUARTIC_DOC
    if draw(st.booleans()):
        size = 2 * count
        doc["classes"] = []
        for i in range(count):
            fiber = [[0] * size for _ in range(size)]
            fiber[2 * i][2 * i + 1], fiber[2 * i + 1][2 * i] = 1, -1
            doc["classes"].append(fiber)
    return doc


def write_document(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("doc")
    path = tmp / "torus.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, tmp / "report.json"


@settings(max_examples=30, deadline=None)
@given(doc=torus_documents())
def test_cli_on_random_torus_documents(tmp_path_factory, doc):
    """`defect torus --box 1` exits 0 with the classifier's delta in its
    report, and `defect verify --checks voisin,kunneth` exits 0."""
    path, report = write_document(tmp_path_factory, doc)
    expected = classify(isogeny_spec_of(load_document(path).torus)).delta
    assert main(["torus", str(path), "--box", "1", "--out", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["delta"] == expected
    assert main(["verify", str(path), "--checks", "voisin,kunneth"]) == 0


@settings(max_examples=8, deadline=None)
@given(doc=torus_documents(count=3, fields=("K",)))
def test_cli_on_three_block_documents(tmp_path_factory, doc):
    """Three curves over Q(2^(1/4)) from at least two isogeny classes:
    `defect torus --box 1` exits 0 with the classifier's delta in its
    report, and `defect verify` with the Lefschetz check exits 0."""
    path, report = write_document(tmp_path_factory, doc)
    spec = isogeny_spec_of(load_document(path).torus)
    assume(len(spec.factors) >= 2)
    assert main(["torus", str(path), "--box", "1", "--out", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["delta"] == classify(spec).delta
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", str(path), "--checks", "voisin,kunneth,lefschetz"]) == 0
    assert "lefschetz: pass" in out.getvalue()


QUARTIC = RealNumberField([-2, 0, 0, 0, 1], ("1", "3/2"))
E_I = elliptic(0, 1)
E_I2 = product([E_I, E_I])
FIBER = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("build", [
    lambda: RealNumberField([-2.0, 0, 1], ("1", "2")),
    lambda: RealNumberField([-2, 0, 1], (1.0, "2")),
    lambda: RealNumberField([-2, 0, 1], ("1", 2.0)),
    lambda: QUARTIC.element([0.1, 1]),
    lambda: QUARTIC.from_rational(0.5),
    lambda: restrict_scalars(QUARTIC, [[0.5]]),
    lambda: ComplexTorus(RealNumberField.rationals(), [[0, -1.0], [1, 0]]),
    lambda: elliptic(0.1, 1),
    lambda: elliptic(0, 0.5),
    lambda: AlternatingForm(E_I2, [[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0] * 4, [0] * 4]),
    lambda: AlternatingForm(E_I2, FIBER) * 0.3,
    lambda: 0.3 * AlternatingForm(E_I2, FIBER),
], ids=["min_poly", "interval_lo", "interval_hi", "element", "from_rational",
        "restrict_scalars", "torus_j", "elliptic_a", "elliptic_beta", "form_entry",
        "form_times_float", "float_times_form"])
def test_float_inputs_rejected(build):
    """A float is never an exact input, even one that is an exact binary
    fraction: every entry point raises `TypeError` instead of storing the
    float's binary expansion as a rational."""
    with pytest.raises(TypeError, match="float"):
        build()
