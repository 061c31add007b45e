import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lefdefect.cli import main
from lefdefect.errors import ConsistencyError, SchemaError
from lefdefect.schema import load_document, loads, parse_document

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload,
                    encoding="utf-8")
    return str(path)


# Documents with a float, NaN or Infinity literal, the path of the first one
# and the literal.
FLOAT_DOCUMENTS = [
    ('{"kind": "torus", "blocks": [{"a": "0", "beta": ["1"]}, {"beta": ["1"]}], "classes": '
     '[[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1.5], [0, 0, -1, 0]]]}',
     "$.classes[0][2][3]", "1.5"),
    ('{"kind": "torus", "blocks": [{"a": 2e0, "beta": ["1"]}, {"beta": [0.5]}]}',
     "$.blocks[0].a", "2e0"),
    ('{"kind": "isogeny", "note": NaN, "factors": [{"type": "elliptic", "cm": true, '
     '"mult": -Infinity}]}', "$.note", "NaN"),
    # under a key that a later duplicate replaces: no path is left to name
    ('{"kind": "torus", "note": 1.5, "note": "x", "blocks": [{"beta": ["1"]}, {"beta": ["1"]}]}',
     "$", "1.5"),
]


class TestSchema:
    def test_float_literal_rejected(self):
        with pytest.raises(SchemaError, match="float literal"):
            loads('{"kind": "torus", "x": 1.5}')

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_rejected(self, constant):
        with pytest.raises(SchemaError, match=f"float literal '{constant}'"):
            loads(f'{{"kind": "torus", "x": [{constant}]}}')

    @pytest.mark.parametrize("text, path, literal", FLOAT_DOCUMENTS,
                             ids=[path for _, path, _ in FLOAT_DOCUMENTS])
    def test_float_literal_reported_at_its_path(self, text, path, literal):
        with pytest.raises(SchemaError) as caught:
            loads(text)
        assert (caught.value.path, caught.value.message) == (
            path, f"float literal '{literal}' is forbidden; use exact strings")

    def test_malformed_rational_string(self, tmp_path):
        path = write(tmp_path, "bad.json", {
            "kind": "torus",
            "blocks": [{"a": "1.5", "beta": ["1"]}],
        })
        with pytest.raises(SchemaError, match=r"\$\.blocks\[0\]\.a"):
            load_document(path)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            parse_document({"kind": "mystery"})

    def test_empty_factors(self):
        with pytest.raises(SchemaError, match=r"\$\.factors"):
            parse_document({"kind": "isogeny", "factors": []})

    def test_surface_constraint_carries_path(self):
        with pytest.raises(SchemaError, match=r"\$\.factors\[0\]"):
            parse_document({
                "kind": "isogeny",
                "factors": [{"type": "surface", "albert_type": "II", "picard": 2}],
            })

    def test_torus_document_builds(self):
        doc = load_document(SAMPLES / "torus_ei_ei.json")
        assert doc.kind == "torus"
        assert doc.torus.n == 2
        assert len(doc.classes) == 2

    def test_declared_class_must_be_hodge(self, tmp_path):
        bad_class = [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]]
        path = write(tmp_path, "nothodge.json", {
            "kind": "torus",
            "blocks": [{"a": "0", "beta": ["1"]}, {"a": "0", "beta": ["2"]}],
            "classes": [bad_class],
        })
        with pytest.raises(SchemaError, match="Hodge"):
            load_document(path)

    def test_quartic_field_document(self):
        doc = load_document(SAMPLES / "torus_triple_product.json")
        assert doc.torus.n == 3
        assert doc.torus.field.degree == 4

    def test_bad_isolating_interval(self, tmp_path):
        path = write(tmp_path, "badfield.json", {
            "kind": "torus",
            "field": {"min_poly": [-2, 0, 1], "root_interval": ["-2", "2"]},
            "blocks": [{"a": "0", "beta": ["0", "1"]}],
        })
        with pytest.raises(SchemaError, match=r"\$\.field"):
            load_document(path)


class TestRoundTrip:
    def test_report_input_reparses_identically(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                     "--box", "1", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        original = load_document(SAMPLES / "torus_ei_ei.json")
        echoed = parse_document(report["input"])
        assert echoed == original

    def test_report_semantics_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                         "--box", "1", "--out", str(out)])
            assert code == 0
            capsys.readouterr()
            payload = json.loads(out.read_text())
            payload.pop("elapsed_ms")
            outs.append(payload)
        assert outs[0] == outs[1]

    def test_report_has_expected_verification_keys(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                     "--box", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert set(payload["verification"]) == {
            "voisin_check", "kunneth_check", "classifier_vs_search",
        }
        for entry in payload["verification"].values():
            assert entry["status"] in ("pass", "fail", "skipped", "box_limited")

    def test_report_contains_no_floats(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                     "--box", "1", "--out", str(out)]) == 0
        capsys.readouterr()

        def walk(node):
            if isinstance(node, float):
                raise AssertionError(f"float {node} in report")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(out.read_text()))

    def test_classify_out_report(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["classify", str(SAMPLES / "threefold_ecm3.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["delta"] == 5
        assert payload["classes"] == []
        assert set(payload["verification"]) == {
            "voisin_check", "kunneth_check", "classifier_vs_search",
        }

    def test_torus_runs_the_search_once(self, tmp_path, capsys, monkeypatch):
        import lefdefect.checks as checks
        import lefdefect.cli as cli
        from lefdefect.effectivity import torus_defect

        sample = str(SAMPLES / "torus_triple_product.json")
        doc = load_document(sample)
        expected = torus_defect(doc.torus, box=2)
        oracle = checks.check_oracle(doc.torus, box=2)

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return torus_defect(*args, **kwargs)

        monkeypatch.setattr(cli, "torus_defect", counted)
        monkeypatch.setattr(checks, "torus_defect", counted)
        out = tmp_path / "r.json"
        assert main(["torus", sample, "--box", "2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert len(calls) == 1
        assert f"oracle: {oracle.status} ({oracle.detail})" in text
        assert (
            f"delta = {expected.delta}  (box 2, {expected.classes_scanned} classes scanned, "
            f"{expected.nodes_visited} nodes visited)" in text
        )
        report = json.loads(out.read_text())
        assert report["delta"] == expected.delta == 1
        assert report["classes_scanned"] == expected.classes_scanned
        assert report["witness"] == list(expected.witness_coefficients)
        assert report["verification"]["classifier_vs_search"] == {
            "status": oracle.status, "detail": oracle.detail,
        }


class TestCli:
    def test_class_rows_test_each_class_once(self, monkeypatch):
        import lefdefect.cli as cli
        import lefdefect.effectivity as effectivity

        calls = []
        original = effectivity.is_effective_class

        def counted(A, E):
            calls.append(E)
            return original(A, E)

        monkeypatch.setattr(effectivity, "is_effective_class", counted)
        doc = load_document(str(SAMPLES / "torus_triple_product.json"))
        rows = cli._class_rows(doc, None)
        assert any(row.is_effective for row in rows)
        assert len(calls) == len(rows)

    def test_class_rows_read_the_quotient(self):
        """On E_i x E_i the declared polarization has b = 2, so rho_B is the
        torus's own rho = 4, and the fiber class has b = 1 with quotient
        E_i, rho_B = 1."""
        import lefdefect.cli as cli

        doc = load_document(str(SAMPLES / "torus_ei_ei.json"))
        rows = [(r.is_effective, r.iitaka_dim, r.rho_quotient, r.defect)
                for r in cli._class_rows(doc, None)]
        assert rows == [(True, 2, 4, 3), (True, 1, 1, 3)]

    def test_classify_sample(self, capsys):
        assert main(["classify", str(SAMPLES / "threefold_ecm3.json")]) == 0
        out = capsys.readouterr().out
        assert "delta = 5" in out

    def test_torus_sample(self, capsys):
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"), "--box", "2"]) == 0
        out = capsys.readouterr().out
        assert "delta = 3" in out
        assert "voisin: pass" in out
        assert "kunneth: pass" in out
        assert "oracle: pass" in out

    def test_torus_class_restriction(self, capsys):
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                     "--box", "1", "--class", "1"]) == 0
        out = capsys.readouterr().out
        assert "class 1" in out
        assert "class 0" not in out

    def test_torus_class_out_of_range(self, capsys):
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                     "--class", "7"]) == 2
        assert "input error: --class: --class index 7 out of range" in capsys.readouterr().err

    def test_verify_all_checks(self, capsys):
        code = main(["verify", str(SAMPLES / "torus_triple_product.json"),
                     "--checks", "voisin,kunneth,lefschetz,oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 4

    def test_verify_skips_with_reason(self, capsys):
        code = main(["verify", str(SAMPLES / "torus_ei_ei.json"),
                     "--checks", "lefschetz"])
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped" in out and "n >= 3" in out

    def test_verify_on_one_curve_says_what_j_shows(self, tmp_path, capsys):
        path = write(tmp_path, "curve.json", {"kind": "torus", "blocks": [{"beta": ["1"]}]})
        assert main(["verify", path, "--checks", "voisin,kunneth"]) == 0
        out = capsys.readouterr().out
        assert "voisin: skipped (J has no elliptic block beside another diagonal block)" in out
        assert "kunneth: skipped (J has a single diagonal block)" in out

    def test_verify_unknown_check(self, capsys):
        code = main(["verify", str(SAMPLES / "torus_ei_ei.json"),
                     "--checks", "nonsense"])
        assert code == 2

    def test_classify_on_torus_document(self, capsys):
        assert main(["classify", str(SAMPLES / "torus_ei_ei.json")]) == 2

    def test_missing_file(self, capsys):
        assert main(["classify", "/no/such/file.json"]) == 2

    def test_schema_error_exit(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"kind": "isogeny", "factors": [{}]}')
        assert main(["classify", path]) == 2

    def test_threefolds_table(self, capsys):
        assert main(["report", "threefolds"]) == 0
        out = capsys.readouterr().out
        assert "E_cm^3" in out

    def test_threefolds_machine_format(self, capsys):
        assert main(["report", "threefolds", "--format", "machine"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        records = [json.loads(line) for line in lines]
        assert [r["delta"] for r in records] == [5, 3, 2, 2, 1, 1, 0]

    def test_consistency_exit_code(self, monkeypatch, capsys):
        import lefdefect.cli as cli
        from lefdefect.errors import ConsistencyError

        def boom(args):
            raise ConsistencyError("inconsistent complex structure")

        monkeypatch.setitem(cli.__dict__, "cmd_classify", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["classify", "x.json"])
        monkeypatch.setattr(args, "func", boom, raising=False)
        # drive main through the monkeypatched command
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
        assert cli.main(["classify", "x.json"]) == 3


QUARTIC = {"min_poly": [-2, 0, 0, 0, 1], "root_interval": ["1", "3/2"]}


class TestOracleVerdicts:
    def _search_off_by(self, monkeypatch, shift):
        """Make `defect torus` see a search delta `shift` away from the real one."""
        import lefdefect.cli as cli
        from lefdefect.effectivity import DefectSearchResult, torus_defect

        def shifted(A, box):
            result = torus_defect(A, box=box)
            return DefectSearchResult(result.delta + shift, result.witness,
                                      result.classes_scanned, result.nodes_visited,
                                      result.search_box, result.witness_coefficients)

        monkeypatch.setattr(cli, "torus_defect", shifted)

    def test_search_below_classifier_is_box_limited(self, tmp_path, capsys, monkeypatch):
        self._search_off_by(monkeypatch, -1)
        out = tmp_path / "r.json"
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"),
                     "--box", "1", "--out", str(out)]) == 0
        assert "oracle: box_limited" in capsys.readouterr().out
        entry = json.loads(out.read_text())["verification"]["classifier_vs_search"]
        assert entry["status"] == "box_limited"
        assert "search delta 2 vs classifier 3" in entry["detail"]
        assert "box 1" in entry["detail"]

    def test_search_above_classifier_fails(self, capsys, monkeypatch):
        self._search_off_by(monkeypatch, 1)
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"), "--box", "1"]) == 1
        assert "oracle: fail (search delta 4 vs classifier 3" in capsys.readouterr().out

    @pytest.mark.parametrize("betas", [(["0", "1"], ["1", "1"]), (["1"], ["0", "1"])])
    def test_shared_label_on_non_isogenous_curves(self, tmp_path, capsys, betas):
        # Both curves are labelled "E" but are not isogenous; the inferred
        # factorization must keep them apart (classifier delta 1).
        path = write(tmp_path, "same_label.json", {
            "kind": "torus", "field": QUARTIC,
            "blocks": [{"a": "0", "beta": beta, "label": "E"} for beta in betas],
        })
        assert main(["verify", path, "--checks", "oracle", "--box", "1"]) == 0
        assert "oracle: pass (search delta 1 vs classifier 1" in capsys.readouterr().out


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["torus", "--box", "1"],
        ["verify", "--checks", "oracle,kunneth"],
    ])
    @pytest.mark.parametrize("label", [["x"], "", 7])
    def test_block_label_must_be_a_nonempty_string(self, tmp_path, capsys, argv, label):
        path = write(tmp_path, "label.json", {
            "kind": "torus", "blocks": [{"beta": ["1"], "label": label}, {"beta": ["2"]}],
        })
        assert main([argv[0], path] + argv[1:]) == 2
        assert "input error: $.blocks[0].label" in capsys.readouterr().err

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_verify_without_a_check_is_input_error(self, capsys, checks):
        assert main(["verify", str(SAMPLES / "torus_ei_ei.json"), "--checks", checks]) == 2
        assert "input error: --checks" in capsys.readouterr().err

    def test_curves_disagreeing_on_cm_is_internal(self, tmp_path, capsys, monkeypatch):
        import lefdefect.checks as checks

        # A Hom rank that calls E_i and the non-CM E_alpha isogenous puts
        # curves with different CM flags into one isogeny class.
        monkeypatch.setattr(checks, "hom_rank", lambda A, B: 1)
        path = write(tmp_path, "t.json", {
            "kind": "torus", "field": QUARTIC,
            "blocks": [{"beta": ["1"], "label": "E_i"}, {"beta": ["0", "1"], "label": "E_a"}],
        })
        assert main(["verify", path, "--checks", "oracle", "--box", "1"]) == 3
        assert "isogenous curves disagree on CM" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["torus", str(SAMPLES / "torus_ei_ei.json"), "--box", "0"],
        ["verify", str(SAMPLES / "torus_ei_ei.json"), "--checks", "oracle", "--box", "0"],
    ])
    def test_bad_box_is_input_error(self, capsys, argv):
        assert main(argv) == 2
        assert "input error: --box" in capsys.readouterr().err

    def test_oracle_on_one_curve_is_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "curve.json", {"kind": "torus", "blocks": [{"beta": ["1"]}]})
        assert main(["verify", path, "--checks", "oracle"]) == 2
        assert "input error: $.blocks" in capsys.readouterr().err

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "isogeny", "label": "\xe9"}'.encode("latin-1"))
        assert main(["classify", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_input_error(self, tmp_path, capsys, constant):
        # The JSON constants bypass parse_float; a report would echo them.
        path = write(tmp_path, "iso.json", '{"kind": "isogeny", "note": %s, "factors": '
                     '[{"type": "elliptic", "cm": true, "mult": 2}]}' % constant)
        out = tmp_path / "r.json"
        assert main(["classify", path, "--out", str(out)]) == 2
        assert f"float literal '{constant}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, path, literal", FLOAT_DOCUMENTS,
                             ids=[path for _, path, _ in FLOAT_DOCUMENTS])
    def test_float_literal_is_input_error_at_its_path(self, tmp_path, capsys, text, path,
                                                      literal):
        command = "classify" if '"isogeny"' in text else "torus"
        assert main([command, write(tmp_path, "doc.json", text)]) == 2
        assert f"input error: {path}: float literal '{literal}'" in capsys.readouterr().err

    def test_zero_divisor_in_document_is_input_error(self, tmp_path, capsys):
        # x^2 - 1 is square-free but reducible; 1 + alpha is a zero divisor.
        path = write(tmp_path, "reducible.json", {
            "kind": "torus", "field": {"min_poly": [-1, 0, 1], "root_interval": ["1/2", "3/2"]},
            "blocks": [{"beta": ["1", "1"]}, {"beta": ["1"]}],
        })
        assert main(["torus", path, "--box", "1"]) == 2
        assert "input error: $.blocks[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("factor, key", [
        ({"type": "elliptic", "cm": False, "mult": True}, "mult"),
        ({"type": "surface", "albert_type": "I", "picard": True}, "picard"),
        ({"type": "surface", "albert_type": "I", "picard": 1, "mult": True}, "mult"),
        ({"type": "simple_other", "dim": True}, "dim"),
    ])
    def test_boolean_is_not_an_integer_in_isogeny_documents(self, tmp_path, capsys,
                                                            factor, key):
        # JSON true would pass an isinstance(..., int) check as 1.
        path = write(tmp_path, "iso.json", {
            "kind": "isogeny", "factors": [factor, {"type": "elliptic", "cm": True}],
        })
        assert main(["classify", path]) == 2
        assert f"input error: $.factors[0].{key}" in capsys.readouterr().err

    def test_internal_value_error_exits_3(self, capsys, monkeypatch):
        import lefdefect.cli as cli

        def broken(A, box):
            raise ValueError("not a complex subtorus")

        monkeypatch.setattr(cli, "torus_defect", broken)
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"), "--box", "1"]) == 3
        assert "internal consistency failure: not a complex subtorus" in capsys.readouterr().err

    def test_other_internal_exception_exits_3(self, capsys, monkeypatch):
        import lefdefect.cli as cli

        def broken(A, box):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "torus_defect", broken)
        assert main(["torus", str(SAMPLES / "torus_ei_ei.json"), "--box", "1"]) == 3
        assert "internal error: ZeroDivisionError: division by zero" in capsys.readouterr().err


# Each fault and a part of the message that names it.
FAULTS = {
    "float": "float literal",
    "size": "integer matrix required",
    "antisymmetric": "not antisymmetric",
    "hodge": "not a Hodge class",
    "box": "--box",
    "class": "--class index",
    "checks": "--checks",
    "bool": "integer",
    "rational": "not an exact rational string",
    "json": "input error: $: invalid JSON",
    "torus_kind": "input error: $.kind: torus expects a torus document",
    "verify_kind": "input error: $.kind: verify expects a torus document",
}


def fiber_forms(count):
    """The fiber class of each of `count` declared curves, as a matrix."""
    size = 2 * count
    fibers = []
    for k in range(count):
        m = [[0] * size for _ in range(size)]
        m[2 * k][2 * k + 1], m[2 * k + 1][2 * k] = 1, -1
        fibers.append(m)
    return fibers


@st.composite
def torus_documents(draw):
    """A valid torus document of 2 or 3 curves over Q or Q(2^(1/4)), with
    some of its fiber forms declared as classes."""
    field = draw(st.sampled_from([None, QUARTIC]))
    count = draw(st.integers(2, 3))
    betas = [["1"], ["2"], ["1/2"]] + ([["0", "1"], ["0", "0", "1"]] if field else [])
    blocks = [{"a": draw(st.sampled_from(["0", "1/2", "-1/3"])), "beta": draw(st.sampled_from(betas))}
              for _ in range(count)]
    classes = draw(st.lists(st.sampled_from(fiber_forms(count)), max_size=2))
    doc = {"kind": "torus", "blocks": blocks, "classes": classes}
    if field:
        doc["field"] = field
    return doc


@st.composite
def faulty_runs(draw, fault):
    """(document text, arguments after the file): a `torus_documents`
    document with one input fault in the document or on the command line,
    the document cut short, or an isogeny document given to `torus` or
    `verify`."""
    doc = draw(torus_documents())
    blocks, classes = doc["blocks"], doc["classes"]
    size = 2 * len(blocks)
    fibers = fiber_forms(len(blocks))
    args = ["torus", "--box=1"]
    if fault == "float":
        where = draw(st.sampled_from(["a", "beta", "class", "extra"]))
        if where == "a":
            blocks[0]["a"] = 0.5
        elif where == "beta":
            blocks[-1]["beta"] = [2.0]
        elif where == "class":
            doc["classes"] = [[[1.0 if x == 1 else x for x in row] for row in fibers[0]]]
        else:
            doc["note"] = 1.5
    elif fault == "bool":
        # true and false equal 1 and 0, so a document that uses them in
        # place of integers would otherwise run as if it had the integers.
        if draw(st.booleans()):
            poly = list(QUARTIC["min_poly"])
            k = draw(st.integers(1, len(poly) - 1))  # the entries that are 0 or 1
            poly[k] = bool(poly[k])
            doc["field"] = {**QUARTIC, "min_poly": poly}
        else:
            value = draw(st.sampled_from([0, 1]))
            doc["classes"] = [[[bool(x) if x == value else x for x in row] for row in fibers[0]]]
    elif fault == "rational":
        # Strings int() reads but the grammar [+-]?[0-9]+(/[0-9]+)? does not.
        bad = draw(st.sampled_from(["1_000", "\u0663/2", "3/-2", " 3 / 2 "]))
        if draw(st.booleans()):
            blocks[0]["a"] = bad
        else:
            blocks[-1]["beta"] = [bad]
    elif fault == "size":
        wrong = draw(st.sampled_from([size - 2, size - 1, size + 2]))
        classes.append([[0] * wrong for _ in range(draw(st.sampled_from([size, wrong])))])
    elif fault in ("antisymmetric", "hodge"):
        m = [row[:] for row in draw(st.sampled_from(fibers))]
        i, j = draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
        value = draw(st.integers(1, 3))
        if fault == "antisymmetric":
            m[i][j] += value  # breaks m[i][j] == -m[j][i], the diagonal too
        else:
            # A pair across two blocks is not J-compatible, since every
            # curve's J has nonzero off-diagonal entries; the fiber is.
            assume(i // 2 != j // 2)
            m[i][j] += value
            m[j][i] -= value
        classes.append(m)
    elif fault == "box":
        box = draw(st.integers(-2, 0))
        args = draw(st.sampled_from([["torus", f"--box={box}"],
                                     ["verify", "--checks=oracle", f"--box={box}"]]))
    elif fault == "json":
        text = json.dumps(doc)
        return text[:draw(st.integers(1, len(text) - 1))], args  # no closing brace
    elif fault.endswith("_kind"):
        doc = {"kind": "isogeny", "factors": [{"type": "elliptic", "cm": True, "mult": 2}]}
        args = ["torus", "--box=1"] if fault == "torus_kind" else ["verify", "--checks=oracle"]
    elif fault == "class":
        # rho is at most 9 on three curves, so index 10 is out of range
        # even when the NS basis stands in for missing classes.
        index = draw(st.one_of(st.integers(-3, -1), st.integers(10, 30)))
        args = ["torus", "--box=1", f"--class={index}"]
    else:
        args = ["verify", "--checks=" + draw(st.sampled_from(["", ",", " , ", ",,"]))]
    return json.dumps(doc), args


@pytest.mark.parametrize("fault", sorted(FAULTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_input_fault_exits_2_without_a_traceback(fault, data):
    text, args = data.draw(faulty_runs(fault))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([args[0], str(path)] + args[1:])
    assert code == 2, (fault, err.getvalue())
    assert "input error" in err.getvalue()
    assert FAULTS[fault] in err.getvalue()
    assert "Traceback" not in err.getvalue()


# The stages of each command where an internal error is injected, as names
# in `lefdefect.cli`.
STAGES = {"torus": ("_class_rows", "torus_defect", "run_checks"), "verify": ("run_checks",)}


@settings(max_examples=25, deadline=None)
@given(doc=torus_documents(), data=st.data())
def test_internal_errors_exit_3(doc, data):
    """An internal error raised at any stage of `torus` or `verify` on a
    valid document exits 3 and says so on stderr, whatever its type: a
    `ValueError` or `ConsistencyError` is an internal consistency failure,
    anything else an internal error."""
    import lefdefect.cli as cli

    command = data.draw(st.sampled_from(sorted(STAGES)))
    stage = data.draw(st.sampled_from(STAGES[command]))
    error = data.draw(st.sampled_from([ValueError, ConsistencyError, RuntimeError]))
    args = ["--box=1"] if command == "torus" else ["--checks=voisin,kunneth,oracle", "--box=1"]

    def broken(*_args, **_kwargs):
        raise error(f"injected at {stage}")

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, stage, broken):
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(path)] + args)
    assert code == 3, (command, stage, error, err.getvalue())
    assert "internal" in err.getvalue()
    assert f"injected at {stage}" in err.getvalue()


# The checks `torus` runs, and `verify` runs below, with their keys in the
# `torus --out` report.
REPORT_KEYS = {"voisin": "voisin_check", "kunneth": "kunneth_check",
               "oracle": "classifier_vs_search"}


@settings(max_examples=25, deadline=None)
@given(doc=torus_documents(), data=st.data())
def test_failed_verification_exits_1(doc, data):
    """A `fail` verdict from any check of `torus` or `verify` on a valid
    document exits 1, prints the check's fail line on stdout and nothing on
    stderr; `torus --out` still writes the report, with the fail entry."""
    import lefdefect.cli as cli
    from lefdefect.checks import CheckResult, run_checks

    command = data.draw(st.sampled_from(["torus", "verify"]))
    failing = data.draw(st.sampled_from(sorted(REPORT_KEYS)))
    with_out = command == "torus" and data.draw(st.booleans())
    args = ["--box=1"] if command == "torus" else ["--checks=voisin,kunneth,oracle", "--box=1"]

    def failing_checks(*run_args, **run_kwargs):
        return [CheckResult(r.name, "fail", f"injected into {r.name}") if r.name == failing else r
                for r in run_checks(*run_args, **run_kwargs)]

    out, err = io.StringIO(), io.StringIO()
    patch = mock.patch.object(cli, "run_checks", failing_checks)
    with tempfile.TemporaryDirectory() as tmp, patch:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        report = Path(tmp) / "report.json"
        if with_out:
            args.append(f"--out={report}")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main([command, str(path)] + args)
        written = json.loads(report.read_text()) if with_out else None
    assert code == 1, (command, failing, err.getvalue())
    assert f"{failing}: fail (injected into {failing})" in out.getvalue().splitlines()
    assert err.getvalue() == ""
    if with_out:
        assert written["verification"][REPORT_KEYS[failing]] == {
            "status": "fail", "detail": f"injected into {failing}"}
