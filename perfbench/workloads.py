"""Seeded inputs, timed jobs and answer checks for the benchmark workloads.

Each workload turns a seed into a fixed-shape job list.  The shape (how many
jobs of each isogeny pattern, the field, the search box) is part of the
workload; the seed only picks each curve's real part a, a rational scale of
its imaginary part, alpha or alpha^3 where the pattern says alpha, and the
job order.  None of these choices leaves the curve's isogeny class, so the
Picard numbers, the candidate counts and the amount of work per pass do not
depend on the seed, while the lattices, the NS bases and the effective
classes do.

A job has a timed part (`execute`, the calls a user of the library makes) and
an untimed answer check (`check`), which raises `Mismatch` on a wrong answer
and returns True when a survey stopped below the classifier value because of
its box (counted as box-limited, not as a failure).

The library is always reached through module attributes at call time, never
through names bound here, so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# Real quartic field Q(alpha), alpha^4 = 2, in the document format of the CLI.
QUARTIC = {"min_poly": [-2, 0, 0, 0, 1], "root_interval": ["1", "3/2"]}

# Imaginary parts of tau on the power basis of alpha.  Over Q every curve
# tau = a + i*b has CM by Q(i), so all products there are isogenous to E_i^k.
# Over the quartic field: 1 has CM by Q(i), alpha^2 = sqrt(2) by Q(sqrt(-2)),
# alpha and 1 + alpha have no CM and are not isogenous to each other.
ONE = ("1",)
ALPHA = ("0", "1")
ALPHA2 = ("0", "0", "1")
ALPHA_PLUS_1 = ("1", "1")
ALPHA3 = ("0", "0", "0", "1")
# i*alpha^3 = -2/(i*alpha), so E_{i alpha^3} is isogenous to E_{i alpha}.
SAME_CLASS = {ALPHA: (ALPHA, ALPHA3)}

REAL_PARTS = ("0", "1/2", "-1/2", "1/3", "-1/3", "1/4", "-1/4", "2/3")
SCALES = ("1", "2", "1/2", "3/2", "2/3", "3")

# (count, field, imaginary parts, box) per pattern.  Every workload keeps a
# pass of 40 or more jobs short (2-4 s) and free of any single job that
# dominates it, so that a run repeats each job several times.
#
# Over Q: pairs have rho = 4 and 2400 box-3 candidates, triples rho = 9 and
# 19682 box-1 candidates: 130,564 candidates per pass.
SURVEY_INT = (
    (2, "Q", (ONE, ONE, ONE), 1),
    (38, "Q", (ONE, ONE), 3),
)

# Over the quartic field: rho = 3 and rho = 2 pairs at box 2, rho = 3 and 4
# triples at box 1.  The rho-2 pairs are short scans whose cost is mostly
# search preparation on the field path.  The pair counts put the job median
# inside the (alpha, alpha^2) jobs and the upper quartile inside the
# (1 + alpha, alpha) jobs, not in a gap between two patterns, where the
# quantile would swing with the seed.
SURVEY_FIELD = (
    (2, "K", (ALPHA, ALPHA), 2),
    (1, "K", (ALPHA, ALPHA2, ONE), 1),
    (1, "K", (ALPHA, ALPHA, ALPHA2), 1),
    (11, "K", (ALPHA, ALPHA2), 2),
    (8, "K", (ONE, ALPHA), 2),
    (9, "K", (ALPHA_PLUS_1, ALPHA), 2),
    (8, "K", (ONE, ALPHA2), 2),
)

# Tori whose box-1 surveys (run in set-up) supply the case-analysis classes:
# one job per effective class with b <= 2 and a radical not seen before,
# at most caps[b] of them per torus.  Every seed reaches the caps (most pairs
# have exactly two b = 1 radicals and one b = 2 radical, triples three of
# each), so a pass always holds 54 jobs of the same mix.
CASE_TORI = (
    (2, "Q", (ONE, ONE, ONE), {1: 3, 2: 3}),
    (2, "K", (ALPHA, ALPHA2, ONE), {1: 3, 2: 3}),
    (6, "K", (ALPHA, ALPHA), {1: 2, 2: 1}),
    (4, "Q", (ONE, ONE), {1: 2, 2: 1}),
)
CASE_BOX = 1

# Torus documents for the CLI; each one is a `torus` job and a `verify` job.
# The triple is the one document on which the Lefschetz check runs (n >= 3).
CLI_DOCS = (
    (1, "K", (ALPHA, ALPHA2, ONE)),
    (8, "Q", (ONE, ONE)),
    (7, "K", (ONE, ALPHA)),
    (2, "K", (ALPHA, ALPHA)),
    (2, "K", (ALPHA, ALPHA2)),
)
CLI_BOX = 1
CLI_CHECKS = "voisin,kunneth,lefschetz"


class Mismatch(Exception):
    """A job returned an answer that disagrees with its expected value."""


@dataclass(frozen=True)
class Job:
    kind: str
    data: tuple
    expected: int


@dataclass
class State:
    """What set-up leaves for the timed phase."""

    jobs: list
    warmup: Job
    tori: list  # case analysis: surveyed tori, NS bases already computed


def _curve_specs(rng, imaginary_parts):
    """Seeded (a, beta) strings for each curve of a pattern."""
    curves = []
    for part in imaginary_parts:
        beta = rng.choice(SAME_CLASS.get(part, (part,)))
        a = rng.choice(REAL_PARTS)
        q = Fraction(rng.choice(SCALES))
        curves.append((a, tuple(str(Fraction(c) * q) for c in beta)))
    return tuple(curves)


def _patterns(rng, table):
    """Expand a (count, field, parts, ...) table into seeded torus specs."""
    specs = []
    for count, field, parts, *rest in table:
        for _ in range(count):
            specs.append((field, _curve_specs(rng, parts), *rest))
    return specs


def build_torus(lib, field, curves):
    if field == "K":
        K = lib.RealNumberField(QUARTIC["min_poly"], tuple(QUARTIC["root_interval"]))
    else:
        K = lib.RealNumberField.rationals()
    factors = [
        lib.elliptic(Fraction(a), K.element(beta), label=f"E{i + 1}")
        for i, (a, beta) in enumerate(curves)
    ]
    return lib.product(factors)


def classifier_delta(lib, A) -> int:
    spec = lib.checks.isogeny_spec_of(A)
    if spec is None:
        raise Mismatch("torus is not a declared product of elliptic curves")
    return lib.classify(spec).delta


def _form_from_coeffs(lib, A, coeffs):
    form = None
    for c, b in zip(coeffs, lib.ns_basis(A)):
        term = b * c
        form = term if form is None else form + term
    return form


# ---- surveys ---------------------------------------------------------------

def _setup_survey(lib, rng, table, max_jobs):
    jobs = []
    for field, curves, box in _patterns(rng, table):
        expected = classifier_delta(lib, build_torus(lib, field, curves))
        jobs.append(Job("survey", (field, curves, box), expected))
    warmup = min(jobs, key=lambda j: (len(j.data[1]), j.data[2]))
    rng.shuffle(jobs)
    return State(jobs[:max_jobs] if max_jobs else jobs, warmup, [])


def _execute_survey(lib, state, job):
    field, curves, box = job.data
    A = build_torus(lib, field, curves)
    result, records = lib.defect_survey(A, box=box)
    return A, result, records


def _check_survey(lib, job, output) -> bool:
    A, result, _ = output
    if result.delta > job.expected:
        raise Mismatch(f"search delta {result.delta} exceeds classifier {job.expected}")
    if result.witness is None:
        raise Mismatch("survey found no effective class")
    if not lib.is_effective_class(A, result.witness):
        raise Mismatch("witness is not effective")
    witness_defect = lib.defect_of_class(A, result.witness)
    if witness_defect != result.delta:
        raise Mismatch(f"witness defect {witness_defect} != search delta {result.delta}")
    return result.delta < job.expected


# ---- case analysis ---------------------------------------------------------

def _setup_case(lib, rng, max_jobs):
    tori, jobs = [], []
    for field, curves, caps in _patterns(rng, CASE_TORI):
        A = build_torus(lib, field, curves)
        _, records = lib.defect_survey(A, box=CASE_BOX)
        index = len(tori)
        tori.append(A)
        seen = set()
        taken = dict.fromkeys(caps, 0)
        for record in records:
            b = record.form_rank // 2
            if taken.get(b, 0) >= caps.get(b, 0):
                continue
            form = _form_from_coeffs(lib, A, record.coefficients)
            key = tuple(lib.exactmath.integer_kernel_basis(lib.exactmath.QMatrix(form.matrix)))
            if key not in seen:
                seen.add(key)
                taken[b] += 1
                jobs.append(Job("case", (index, record.coefficients), record.defect))
        if taken != caps:
            raise Mismatch(f"torus {curves} has radicals {taken}, the workload needs {caps}")
        if max_jobs and len(jobs) >= max_jobs:
            break
    warmup = jobs[0]
    rng.shuffle(jobs)
    return State(jobs[:max_jobs] if max_jobs else jobs, warmup, tori)


def _execute_case(lib, state, job):
    index, coeffs = job.data
    A = state.tori[index]
    form = _form_from_coeffs(lib, A, coeffs)
    b, rho_b, cm, k = lib.effectivity.divisor_case_data(A, form)
    case_defect = lib.divisor_case(b, rho_B=rho_b, cm=cm, k=k)
    return case_defect, lib.defect_of_class(A, form)


def _check_case(lib, job, output) -> bool:
    case_defect, class_defect = output
    if not case_defect == class_defect == job.expected:
        raise Mismatch(
            f"divisor_case {case_defect}, defect_of_class {class_defect}, "
            f"recorded {job.expected}"
        )
    return False


# ---- CLI -------------------------------------------------------------------

def torus_document(field, curves):
    """A CLI torus document with the fiber class of every block declared."""
    size = 2 * len(curves)
    classes = []
    for k in range(len(curves)):
        m = [[0] * size for _ in range(size)]
        m[2 * k][2 * k + 1] = 1
        m[2 * k + 1][2 * k] = -1
        classes.append(m)
    doc = {
        "kind": "torus",
        "blocks": [
            {"a": a, "beta": list(beta), "label": f"E{i + 1}"}
            for i, (a, beta) in enumerate(curves)
        ],
        "classes": classes,
    }
    if field == "K":
        doc["field"] = QUARTIC
    return doc


def _setup_cli(lib, rng, max_jobs, workdir):
    jobs = []
    for n, (field, curves) in enumerate(_patterns(rng, CLI_DOCS)):
        path = os.path.join(workdir, f"doc-{n:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(torus_document(field, curves), handle)
        doc = lib.schema.load_document(path)
        expected = classifier_delta(lib, doc.torus)
        report = os.path.join(workdir, f"doc-{n:02d}.report.json")
        jobs.append(Job("cli_torus", (path, report), expected))
        jobs.append(Job("cli_verify", (path,), 0))
    warmup = jobs[-1]
    rng.shuffle(jobs)
    return State(jobs[:max_jobs] if max_jobs else jobs, warmup, [])


def _run_cli(lib, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return lib.cli.main(argv)


def _execute_cli_torus(lib, state, job):
    path, report = job.data
    return _run_cli(lib, ["torus", path, "--box", str(CLI_BOX), "--out", report])


def _check_cli_torus(lib, job, code) -> bool:
    if code != 0:
        raise Mismatch(f"defect torus exited with {code}")
    _, report = job.data
    with open(report, encoding="utf-8") as handle:
        delta = json.load(handle)["delta"]
    os.remove(report)
    if delta != job.expected:
        raise Mismatch(f"report delta {delta} != classifier {job.expected}")
    return False


def _execute_cli_verify(lib, state, job):
    return _run_cli(lib, ["verify", job.data[0], "--checks", CLI_CHECKS])


def _check_cli_verify(lib, job, code) -> bool:
    if code != job.expected:
        raise Mismatch(f"defect verify exited with {code}, expected {job.expected}")
    return False


# ---- dispatch ---------------------------------------------------------------

WORKLOADS = ("survey_int", "survey_field", "case_analysis", "cli_torus")

_KINDS = {
    "survey": (_execute_survey, _check_survey),
    "case": (_execute_case, _check_case),
    "cli_torus": (_execute_cli_torus, _check_cli_torus),
    "cli_verify": (_execute_cli_verify, _check_cli_verify),
}


def setup(lib, workload, seed, max_jobs=None, workdir=None) -> State:
    """Generate the workload's inputs and expected answers from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "survey_int":
        return _setup_survey(lib, rng, SURVEY_INT, max_jobs)
    if workload == "survey_field":
        return _setup_survey(lib, rng, SURVEY_FIELD, max_jobs)
    if workload == "case_analysis":
        return _setup_case(lib, rng, max_jobs)
    if workload == "cli_torus":
        return _setup_cli(lib, rng, max_jobs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def execute(lib, state, job):
    return _KINDS[job.kind][0](lib, state, job)


def check(lib, job, output) -> bool:
    return _KINDS[job.kind][1](lib, job, output)
