"""Smoke tests of the scripts in `benchmarks/`.

No other test imports these scripts, so a renamed internal of the package
would only show when someone ran them.  These tests import the three
benchmark scripts and `trend.py`, record the counts of three search cases and
the stage table on two tori, run one in-process comparison round of
`bench_ab.py` on a stage, a search and the import case (with a second
import of this checkout's package as the parent, so no git is needed), and
read the committed `BENCH_*.json` files.
They write nothing under `benchmarks/`.
"""

import importlib
import json
import os
import sys
from pathlib import Path

import pytest

import lefdefect
from lefdefect.effectivity import torus_defect

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    """The benchmark scripts, imported from `benchmarks/`; afterwards
    sys.path is restored and the modules they loaded are removed, but not
    the package's own, which a later import would otherwise load twice."""
    path, before = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        scripts = {name: importlib.import_module(name) for name in ("bench_ab", "trend")}
        yield {**scripts, "search": scripts["bench_ab"].bench_search,
               "layers": scripts["bench_ab"].bench_layers}
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - before:
            if name != "lefdefect" and not name.startswith("lefdefect."):
                del sys.modules[name]


def latest(name, key):
    """{case or torus: record} of the last run in BENCH_<name>.json."""
    with open(BENCHMARKS / f"BENCH_{name}.json", encoding="utf-8") as handle:
        run = json.load(handle)["runs"][-1]
    return {record[key]: record for record in run["cases" if key == "case" else "tori"]}


def case(search, name):
    return next(i for i, c in enumerate(search.CASES) if c[0] == name)


@pytest.mark.parametrize("name", ["E_i^2, box 2", "quartic pair, box 2", "survey pair, box 3"])
def test_count_search_matches_torus_defect(bench, name):
    _, build, box = bench["search"].CASES[case(bench["search"], name)]
    counts = bench["search"].count_search(build, box)
    result = torus_defect(build(), box=box)
    assert (counts["delta"], counts["classes_scanned"], counts["nodes_visited"]) == (
        result.delta, result.classes_scanned, result.nodes_visited)
    assert counts == {k: v for k, v in latest("search", "case")[name].items() if k in counts}


@pytest.mark.parametrize("torus", ["E_i^2", "quartic pair"])
def test_stage_table_gives_recorded_counts(bench, tmp_path, torus):
    layers = bench["layers"]
    build = dict(layers.layer_tori())[torus]
    counts = layers.evaluate(layers.sample(build, tmp_path))
    recorded = latest("layers", "torus")[torus]
    common = counts.keys() & recorded.keys()
    assert len(common) >= 17
    assert {k: counts[k] for k in common} == {k: recorded[k] for k in common}


def test_one_comparison_round(bench, tmp_path, monkeypatch):
    ab, search, layers = bench["bench_ab"], bench["search"], bench["layers"]
    monkeypatch.setattr(ab, "BATCH_SECONDS", 0.01)
    second = ab.Side.of(ab.load_package("lefdefect_second", os.path.join(ab.SRC, "lefdefect")))
    # Every stage of a side runs that side's package, `.checks` and `.schema` included.
    assert {second.layers.check_voisin.__module__, second.layers.load_document.__module__} == {
        "lefdefect_second.checks", "lefdefect_second.schema"}
    sides = {"change": ab.Side(search, layers, os.path.join(ab.SRC, "lefdefect")),
             "parent": second, "copy": second}
    quotient = next(i for i, s in enumerate(layers.STAGES) if s.name == "quotient")
    stage = layers.STAGES[quotient]
    expected = stage.count(stage.run(stage.prepare(layers.sample(layers.layer_tori()[0][1],
                                                                 tmp_path))))
    _, found, ratios = ab.compare(sides, ab.stage_case(0, quotient), 1, tmp_path)
    assert found == expected and len(ratios["parent"]) == len(ratios["copy"]) == 1
    index = case(search, "E_i^2, box 2")
    _, found, _ = ab.compare(sides, ab.search_case(index), 1, tmp_path)
    _, build, box = search.CASES[index]
    result = torus_defect(build(), box=box)
    assert found == {"delta": result.delta, "classes_scanned": result.classes_scanned,
                     "witness": result.witness_coefficients}
    _, found, _ = ab.compare(sides, ab.import_case(), 1, tmp_path)
    assert set(lefdefect.__all__) | {"checks", "cli", "schema"} <= set(found["names"])
    assert found["public"] == len(found["names"])
    assert not any(name.startswith("lefdefect_import") for name in sys.modules)


def test_trend_reads_committed_history(bench, capsys):
    bench["trend"].main([])
    out = capsys.readouterr().out
    for path in BENCHMARKS.glob("BENCH_*.json"):
        assert path.name in out


def test_trend_prints_no_ratio_without_seconds(bench, tmp_path, capsys):
    timed = {"case": "E_i^2, box 2", "delta": 3, "seconds": 0.001}
    counted = {"case": "E_i^2, box 2", "delta": 3}
    path = tmp_path / "BENCH_search.json"
    path.write_text(json.dumps({"runs": [
        {"label": "parent a: timed", "cases": [timed]},
        {"label": "counts only", "cases": [counted]},
        {"label": "parent b: counts only", "cases": [counted]},
        {"label": "timed", "cases": [timed]},
    ]}))
    bench["trend"].main([str(path)])
    out = capsys.readouterr().out
    assert "-> counts only" in out and "-> timed" in out
    assert "E_i^2, box 2" not in out
