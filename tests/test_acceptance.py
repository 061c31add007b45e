"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 7 and 8 piggyback on the effective-class surveys that
criterion 3 produces, so the searches run once per session.
"""

import random
import time

import pytest

from lefdefect.checks import (
    cup_dual_kernel_on_ns,
    isogeny_spec_of,
    product_polarization,
    restriction_kernel_on_ns,
)
from lefdefect.classifier import IsogenyFactor, IsogenySpec, classify, divisor_case
from lefdefect.cli import main
from lefdefect.cohomology import cup_matrix, defect_of_class, wedge_basis
from lefdefect.effectivity import defect_survey, divisor_case_data
from lefdefect.exactmath import integer_kernel_basis, rank
from lefdefect.torus import (
    AlternatingForm,
    coordinate_factor_sublattices,
    elliptic,
    hom_rank,
    ns_basis,
    ns_rank,
    product,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def surveys(corpus):
    """Box-2 surveys for the whole corpus (criterion 3's searches)."""
    started = time.monotonic()
    results = {
        name: defect_survey(A, box=2) for name, A in sorted(corpus.items())
    }
    return results, time.monotonic() - started


def test_criterion_1_threefold_table(capsys):
    started = time.monotonic()
    assert main(["report", "threefolds"]) == 0
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    deltas = [int(line.split()[0]) for line in out.splitlines()[2:] if line.strip()]
    ok = deltas == [5, 3, 2, 2, 1, 1, 0] and elapsed < 1.0
    with capsys.disabled():
        _report(1, "threefold table", ok, f"deltas {deltas}, {elapsed:.3f}s")


def test_criterion_2_cm_formula():
    started = time.monotonic()
    ok = True
    detail = []
    for k in range(1, 6):
        expected_cm, expected_rm = 2 * k - 1, k
        # the per-divisor formula itself
        ok = ok and divisor_case(1, cm=True, k=k) == expected_cm
        ok = ok and divisor_case(1, cm=False, k=k) == expected_rm
        # classify on E^k (padded with a defect-0 simple factor at k = 1,
        # since a bare elliptic curve is below the minimum dimension)
        pad = (IsogenyFactor("simple_other", 1, "Z", dim=3),)
        spec_cm = IsogenySpec((IsogenyFactor("elliptic", k, "E", has_cm=True),) + pad)
        spec_rm = IsogenySpec((IsogenyFactor("elliptic", k, "E", has_cm=False),) + pad)
        ok = ok and classify(spec_cm).delta == expected_cm
        ok = ok and classify(spec_rm).delta == expected_rm
        if k >= 2:
            bare_cm = IsogenySpec((IsogenyFactor("elliptic", k, "E", has_cm=True),))
            bare_rm = IsogenySpec((IsogenyFactor("elliptic", k, "E", has_cm=False),))
            ok = ok and classify(bare_cm).delta == expected_cm
            ok = ok and classify(bare_rm).delta == expected_rm
        detail.append(f"k={k}: {expected_cm}/{expected_rm}")
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    _report(2, "CM formula", ok, f"{'; '.join(detail)}; {elapsed:.3f}s")


def test_criterion_3_oracle_agreement(corpus, corpus_expected, surveys):
    results, search_time = surveys
    started = time.monotonic()
    ok = True
    details = []
    for name, A in sorted(corpus.items()):
        spec = isogeny_spec_of(A)
        assert spec is not None
        expected = classify(spec).delta
        result, _ = results[name]
        agree = result.delta == expected == corpus_expected[name]
        ok = ok and agree
        details.append(f"{name}: search {result.delta} vs classifier {expected}")
    elapsed = search_time + (time.monotonic() - started)
    ok = ok and elapsed < 300.0
    _report(3, "oracle agreement", ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_4_voisin_property(corpus):
    started = time.monotonic()
    ok = True
    count = 0
    for name, A in sorted(corpus.items()):
        for subset, W in coordinate_factor_sublattices(A, corank=2):
            k_restrict = restriction_kernel_on_ns(A, W)
            k_cup = cup_dual_kernel_on_ns(A, W)
            count += 1
            if k_restrict != k_cup:
                ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _report(4, "generalized Voisin property", ok, f"{count} subtori, {elapsed:.2f}s")


def test_criterion_5_kunneth_identity(quartic_field):
    started = time.monotonic()
    rng = random.Random(1721)
    alpha = quartic_field.alpha()
    pool = [
        elliptic(0, 1, field=quartic_field, label="E_i"),
        elliptic(0, 2, field=quartic_field, label="E_2i"),
        elliptic(0, alpha, label="E_ia"),
        elliptic(0, alpha * alpha, label="E_ia2"),
    ]
    ok = True
    for trial in range(20):
        shape = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        C = product([rng.choice(pool) for _ in range(shape[0])])
        T = product([rng.choice(pool) for _ in range(shape[1])])
        A = product([C, T])
        lhs = ns_rank(A)
        rhs = ns_rank(C) + ns_rank(T) + hom_rank(T, C)
        if lhs != rhs:
            ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    _report(5, "Kunneth rank identity", ok, f"20 products, {elapsed:.2f}s")


def test_criterion_6_hard_lefschetz(corpus):
    started = time.monotonic()
    ok = True
    checked = 0
    for name, A in sorted(corpus.items()):
        if A.n < 3:
            continue
        h = product_polarization(A)
        assert h is not None
        M = cup_matrix(A, h.pair_num())
        full = len(wedge_basis(2 * A.n, 2))
        checked += 1
        if rank(M) != full:
            ok = False
    elapsed = time.monotonic() - started
    ok = ok and checked >= 1 and elapsed < 10.0
    _report(6, "hard Lefschetz injectivity", ok, f"{checked} tori, {elapsed:.2f}s")


def _rebuild_form(A, basis, coeffs):
    form = None
    for c, b in zip(coeffs, basis):
        term = b * c
        form = term if form is None else form + term
    return form


def test_criterion_7_case_consistency(corpus, surveys):
    results, _ = surveys
    started = time.monotonic()
    ok = True
    checked = 0
    mismatches = []
    for name, A in sorted(corpus.items()):
        _, records = results[name]
        basis = ns_basis(A)
        case_cache = {}
        for record in records:
            b = record.form_rank // 2
            if record.form_rank % 2 != 0:
                ok = False
                mismatches.append(f"{name}: odd form rank {record.form_rank}")
                continue
            if b >= 3:
                expected = divisor_case(b)
            else:
                form = _rebuild_form(A, basis, record.coefficients)
                key = tuple(integer_kernel_basis(form.num))
                if key not in case_cache:
                    bb, rho_b, cm, k = divisor_case_data(A, form)
                    case_cache[key] = divisor_case(bb, rho_B=rho_b, cm=cm, k=k)
                expected = case_cache[key]
            checked += 1
            if record.defect != expected:
                ok = False
                mismatches.append(
                    f"{name}: coeffs {record.coefficients} defect {record.defect} != {expected}"
                )
    elapsed = time.monotonic() - started
    detail = f"{checked} effective classes, {elapsed:.1f}s"
    if mismatches:
        detail += "; first: " + mismatches[0]
    _report(7, "per-divisor case consistency", ok, detail)


def test_criterion_8_bounds_and_scaling(corpus, surveys):
    results, _ = surveys
    started = time.monotonic()
    ok = True
    checked = 0
    scale_pairs = 0
    for name, A in sorted(corpus.items()):
        result, records = results[name]
        rho = ns_rank(A)
        by_coeffs = {}
        for record in records:
            checked += 1
            if not 0 <= record.defect <= rho - 1:
                ok = False
            by_coeffs[record.coefficients] = record.defect
        for coeffs, defect in by_coeffs.items():
            doubled = tuple(2 * c for c in coeffs)
            if doubled in by_coeffs:
                scale_pairs += 1
                if by_coeffs[doubled] != defect:
                    ok = False
        # the witness itself, doubled, through the public operation
        if result.witness is not None:
            basis = ns_basis(A)
            doubled_form = _rebuild_form(
                A, basis, tuple(2 * c for c in result.witness_coefficients)
            )
            if defect_of_class(A, doubled_form) != result.delta:
                ok = False
    elapsed = time.monotonic() - started
    _report(
        8,
        "bounds and scaling",
        ok,
        f"{checked} classes, {scale_pairs} doubling pairs, {elapsed:.1f}s",
    )
