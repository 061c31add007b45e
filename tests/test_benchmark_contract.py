"""The interface that the benchmark in `perfbench/` uses of the package.

`perfbench/run.py` imports the package from the checkout, times the jobs of
`perfbench/workloads.py` and, with `--trace`, patches the functions listed in
`perfbench/tracer.py`.  Those files are kept fixed so that runs of two
checkouts compare, so a change of a name, a signature or a result they rely
on would only show when the benchmark runs.  These tests read them, change
nothing there, and run every workload at a tiny size in-process.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lefdefect
import lefdefect.checks  # noqa: F401  (the benchmark reaches these as attributes)
import lefdefect.cli  # noqa: F401
import lefdefect.schema  # noqa: F401
from lefdefect import _purekernels
from lefdefect.exactmath import RealNumberField
from lefdefect.torus import elliptic, product

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py as a module (registered, as dataclasses need)."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def test_traced_functions_resolve():
    for _, module_name, functions in load("tracer").TRACED:
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_pure_path_only():
    assert lefdefect.effectivity.HAVE_COMPILED_KERNELS is False


def test_traced_evaluate_counts_effective_leaves(monkeypatch):
    """The tracer wraps `evaluate(search, leaf)`, leaf = (coeffs, form_rank),
    on both search kinds and counts the leaves whose verdict[0] is true: as
    many as the survey records, over Q and over Q(2^(1/4)).  It also adds up
    the `classes_scanned` of both searches, telling the survey's
    `(result, records)` pair from a `torus_defect` result by `tuple`."""
    for cls in (_purekernels.IntSearch, _purekernels.FieldSearch):
        # uninstall sets the inherited method on the class: undone after the test
        monkeypatch.setattr(cls, "evaluate", cls.evaluate)
    K = RealNumberField([-2, 0, 0, 0, 1], (Fraction(1), Fraction(3, 2)))
    tori = [product([elliptic(0, 1, label="E1"), elliptic(Fraction(1, 2), 2, label="E2")]),
            product([elliptic(Fraction(1, 2), K.one() + K.alpha(), label="E1"),
                     elliptic(Fraction(-1, 3), K.alpha(), label="E2")])]
    for A in tori:
        tracer = load("tracer").Tracer()
        tracer.install()
        try:
            _, records = lefdefect.effectivity.defect_survey(A, box=1)
            effective = tracer.effective
            result = lefdefect.effectivity.torus_defect(A, box=1)
        finally:
            tracer.uninstall()
        assert records and effective == len(records)
        assert tracer.candidates == 2 * result.classes_scanned


@pytest.mark.parametrize("workload", ["survey_int", "survey_field", "case_analysis",
                                      "cli_torus"])
def test_workload_jobs_pass_their_checks(workload, tmp_path):
    workloads = load("workloads")
    assert workload in workloads.WORKLOADS
    state = workloads.setup(lefdefect, workload, 7, max_jobs=3, workdir=str(tmp_path))
    assert state.jobs
    for job in state.jobs:
        workloads.check(lefdefect, job, workloads.execute(lefdefect, state, job))
