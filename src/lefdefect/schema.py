"""Input documents and reports for the command-line front end.

Specification files are JSON with every rational written as an exact string
("3/2", never 1.5); float literals anywhere in a document, NaN and Infinity
included, are rejected at parse time, at their path.  Reports echo the input
document verbatim, so a report's input block re-parses to the identical
specification.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .classifier import IsogenyFactor, IsogenySpec
from .errors import FrozenRecord, SchemaError
from .exactmath import RealNumberField, parse_rational
from .torus import AlternatingForm, ComplexTorus, elliptic, product

_FACTOR_KINDS = ("elliptic", "surface", "simple_other")


class _Float(str):
    """A float, NaN or Infinity literal, kept until its path is known."""


def _reject_floats(value, path="$"):
    """Raise `SchemaError` at the first `_Float` in document order."""
    if isinstance(value, _Float):
        raise SchemaError(path, f"float literal {str(value)!r} is forbidden; use exact strings")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_floats(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_floats(item, f"{path}[{i}]")


def loads(text: str) -> dict:
    floats = []

    def keep(literal):
        floats.append(_Float(literal))
        return floats[-1]

    try:
        data = json.loads(text, parse_float=keep, parse_constant=keep)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if floats:  # only then: the walk costs more than the parse
        _reject_floats(data)
        _reject_floats(floats[0])  # one under a key that a later duplicate replaced
    return data


def _expect(condition, path, message):
    if not condition:
        raise SchemaError(path, message)


def _integer(value) -> bool:
    """A JSON integer: `bool` is a subclass of `int`, but true and false are
    not integers in a document."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value, path) -> Fraction:
    _expect(isinstance(value, str), path, "rationals must be exact strings like \"3/2\"")
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, str(exc)) from exc


class SpecDocument(FrozenRecord):
    """Validated input document: an isogeny factorization or an explicit torus.

    Two documents are equal when their kind and raw JSON are; the parsed
    `spec`, `torus` and `classes` follow from those.
    """

    __slots__ = ("kind", "raw", "spec", "torus", "classes")

    def __init__(self, kind: str, raw: dict, spec: Optional[IsogenySpec] = None,
                 torus: Optional[ComplexTorus] = None, classes: tuple = ()):
        self._set(kind, raw, spec, torus, classes)

    def __eq__(self, other):
        if not isinstance(other, SpecDocument):
            return NotImplemented
        return self.kind == other.kind and self.raw == other.raw


def parse_document(data: dict) -> SpecDocument:
    _expect(isinstance(data, dict), "$", "document must be an object")
    kind = data.get("kind")
    _expect(kind in ("isogeny", "torus"), "$.kind", "kind must be \"isogeny\" or \"torus\"")
    if kind == "isogeny":
        return _parse_isogeny(data)
    return _parse_torus(data)


def load_document(path) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"document is not UTF-8 text: {exc}") from exc
    return parse_document(loads(text))


def _parse_isogeny(data: dict) -> SpecDocument:
    factors = data.get("factors")
    _expect(isinstance(factors, list) and factors, "$.factors", "nonempty array required")
    parsed = []
    for i, entry in enumerate(factors):
        path = f"$.factors[{i}]"
        _expect(isinstance(entry, dict), path, "factor must be an object")
        kind = entry.get("type")
        _expect(kind in _FACTOR_KINDS, f"{path}.type", f"type must be one of {_FACTOR_KINDS}")
        mult = entry.get("mult", 1)
        _expect(_integer(mult) and mult >= 1, f"{path}.mult", "positive integer required")
        label = entry.get("label", f"F{i + 1}")
        _expect(isinstance(label, str) and label, f"{path}.label", "nonempty string required")
        if kind == "elliptic":
            cm = entry.get("cm")
            _expect(isinstance(cm, bool), f"{path}.cm", "boolean cm flag required")
            fields = {"has_cm": cm}
        elif kind == "surface":
            albert = entry.get("albert_type")
            picard = entry.get("picard")
            _expect(isinstance(albert, str), f"{path}.albert_type", "string required")
            _expect(_integer(picard), f"{path}.picard", "integer required")
            fields = {"albert_type": albert, "picard": picard}
        else:
            dim = entry.get("dim")
            _expect(_integer(dim), f"{path}.dim", "integer dimension required")
            fields = {"dim": dim}
        try:
            parsed.append(IsogenyFactor(kind, mult, label, **fields))
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
    try:
        spec = IsogenySpec(tuple(parsed))
    except ValueError as exc:
        raise SchemaError("$.factors", str(exc)) from exc
    return SpecDocument(kind="isogeny", raw=data, spec=spec)


def _parse_field(data, path) -> RealNumberField:
    if data is None:
        return RealNumberField.rationals()
    _expect(isinstance(data, dict), path, "field must be an object")
    poly = data.get("min_poly")
    _expect(
        isinstance(poly, list) and len(poly) >= 2 and all(_integer(c) for c in poly),
        f"{path}.min_poly",
        "integer coefficient list (low degree first) required",
    )
    interval = data.get("root_interval")
    _expect(
        isinstance(interval, list) and len(interval) == 2,
        f"{path}.root_interval",
        "two-element array of rational strings required",
    )
    lo = _rational(interval[0], f"{path}.root_interval[0]")
    hi = _rational(interval[1], f"{path}.root_interval[1]")
    try:
        return RealNumberField(poly, (lo, hi))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_torus(data: dict) -> SpecDocument:
    field_obj = _parse_field(data.get("field"), "$.field")
    blocks = data.get("blocks")
    _expect(isinstance(blocks, list) and blocks, "$.blocks", "nonempty array required")
    curves = []
    for i, entry in enumerate(blocks):
        path = f"$.blocks[{i}]"
        _expect(isinstance(entry, dict), path, "block must be an object")
        a = _rational(entry.get("a", "0"), f"{path}.a")
        beta_coeffs = entry.get("beta")
        _expect(
            isinstance(beta_coeffs, list) and beta_coeffs,
            f"{path}.beta",
            "polynomial coefficient list of rational strings required",
        )
        coeffs = [_rational(c, f"{path}.beta[{j}]") for j, c in enumerate(beta_coeffs)]
        _expect(
            len(coeffs) <= field_obj.degree,
            f"{path}.beta",
            f"at most {field_obj.degree} coefficients for this field",
        )
        label = entry.get("label", f"E{i + 1}")
        _expect(isinstance(label, str) and label, f"{path}.label", "nonempty string required")
        try:
            curves.append(elliptic(a, field_obj.element(coeffs), label=label))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(path, str(exc)) from exc
    torus = curves[0] if len(curves) == 1 else product(curves)
    size = 2 * torus.n
    classes = []
    raw_classes = data.get("classes", [])
    _expect(isinstance(raw_classes, list), "$.classes", "array required")
    for i, matrix in enumerate(raw_classes):
        path = f"$.classes[{i}]"
        _expect(
            isinstance(matrix, list)
            and len(matrix) == size
            and all(
                isinstance(row, list)
                and len(row) == size
                and all(_integer(x) for x in row)
                for row in matrix
            ),
            path,
            f"{size}x{size} integer matrix required",
        )
        try:
            form = AlternatingForm(torus, matrix)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
        if not form.is_hodge:
            raise SchemaError(path, "matrix is not a Hodge class (J-compatibility fails)")
        classes.append(form)
    return SpecDocument(kind="torus", raw=data, torus=torus, classes=tuple(classes))


class ClassRow(FrozenRecord):
    """One row of the per-class analysis table."""

    __slots__ = ("name", "is_effective", "iitaka_dim", "rho_quotient", "defect")

    def __init__(self, name: str, is_effective: bool, iitaka_dim: Optional[int],
                 rho_quotient: Optional[int], defect: int):
        self._set(name, is_effective, iitaka_dim, rho_quotient, defect)

    def to_dict(self):
        return {
            "class": self.name,
            "effective": self.is_effective,
            "b": self.iitaka_dim,
            "rho_B": self.rho_quotient,
            "defect": self.defect,
        }


class ReportDocument(FrozenRecord):
    """Machine-readable outcome of a CLI command.

    `elapsed_ms` is informational; the semantic fields are deterministic for
    a given input and box, which is what golden-file comparisons rely on.
    """

    __slots__ = ("input_document", "delta", "case", "class_rows", "verification",
                 "classes_scanned", "elapsed_ms", "witness")

    def __init__(self, input_document: dict, delta: int, case: str, class_rows: list,
                 verification: dict, classes_scanned: int, elapsed_ms: int,
                 witness: Optional[list] = None):
        self._set(input_document, delta, case, class_rows, verification, classes_scanned,
                  elapsed_ms, witness)

    def to_dict(self):
        return {
            "input": self.input_document,
            "delta": self.delta,
            "case": self.case,
            "classes": [row.to_dict() for row in self.class_rows],
            "verification": self.verification,
            "classes_scanned": self.classes_scanned,
            "elapsed_ms": self.elapsed_ms,
            "witness": self.witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def verification_entry(status: str, detail: str) -> dict:
    return {"status": status, "detail": detail}
