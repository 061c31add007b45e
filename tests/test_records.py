"""The record types of the package, defined without `dataclasses`.

Each record keeps the contract of a frozen dataclass: fields in order, by
position or keyword, with their defaults; frozen; equal and hashing alike
on equal field values; and `repr` of the form `Name(field=value, ...)`.
Importing the package loads neither `dataclasses` nor `inspect`.
"""

import ast
import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lefdefect.checks import CheckResult
from lefdefect.classifier import DefectReport, IsogenyFactor, IsogenySpec
from lefdefect.effectivity import DefectSearchResult, EffectiveClassRecord, EffectivityReport
from lefdefect.schema import ClassRow, ReportDocument, SpecDocument

SRC = Path(__file__).resolve().parent.parent / "src"
CURVE = IsogenyFactor("elliptic", 2, "E", has_cm=True)

# (type, field names, a value per field, leading values that suffice, the
#  fields those leave at their defaults, as the constructor sets them)
RECORDS = [
    (DefectSearchResult,
     ("delta", "witness", "classes_scanned", "nodes_visited", "search_box",
      "witness_coefficients"),
     (3, None, 24, 9, 1, (0, 1)), (3, None, 24, 9, 1, (0, 1)), {}),
    (EffectiveClassRecord, ("position", "coefficients", "defect", "form_rank"),
     (5, (1, 0), 3, 2), (5, (1, 0), 3, 2), {}),
    (EffectivityReport, ("form", "is_effective", "radical_rank", "iitaka_dim", "quotient"),
     ("h", True, 0, 2, None), ("h", True, 0, 2, None), {}),
    (IsogenyFactor, ("kind", "mult", "label", "has_cm", "albert_type", "picard", "dim"),
     ("surface", 1, "S", None, "II", 3, 2), ("elliptic", 1, "E", False),
     {"albert_type": None, "picard": None, "dim": 1}),
    (IsogenySpec, ("factors",), ((CURVE,),), ((CURVE,),), {}),
    (DefectReport, ("delta", "case", "witness_factor", "cm", "multiplicity"),
     (3, "elliptic", "E", True, 2), (0, "zero", None), {"cm": None, "multiplicity": None}),
    (CheckResult, ("name", "status", "detail"), ("kunneth", "pass", "rho = 4"),
     ("kunneth", "pass", "rho = 4"), {}),
    (SpecDocument, ("kind", "raw", "spec", "torus", "classes"),
     ("isogeny", {"kind": "isogeny"}, IsogenySpec((CURVE,)), None, ()), ("torus", {}),
     {"spec": None, "torus": None, "classes": ()}),
    (ReportDocument,
     ("input_document", "delta", "case", "class_rows", "verification", "classes_scanned",
      "elapsed_ms", "witness"),
     ({}, 3, "search", [], {}, 24, 1, [0, 1]), ({}, 3, "search", [], {}, 24, 1),
     {"witness": None}),
    (ClassRow, ("name", "is_effective", "iitaka_dim", "rho_quotient", "defect"),
     ("class 0", True, 1, None, 3), ("class 0", True, 1, None, 3), {}),
]


@pytest.mark.parametrize("cls, fields, values, least, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, values, least, defaults):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == record
    assert {name: getattr(cls(*least), name) for name in defaults} == defaults
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    twin = copy.deepcopy(record)
    assert twin == record and twin is not record
    try:
        hash(values)
    except TypeError:
        pass
    else:
        assert hash(twin) == hash(record)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "watched = {'dataclasses', 'inspect'}\n"
            "before = sorted(watched & set(sys.modules))\n"
            "import lefdefect, lefdefect.checks, lefdefect.cli, lefdefect.schema\n"
            "print([before, sorted(watched & set(sys.modules))])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    before, after = ast.literal_eval(out.strip().splitlines()[-1])
    if before:
        pytest.skip(f"the interpreter loads {before} before the package")
    assert after == []
