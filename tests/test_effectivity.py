from fractions import Fraction

import pytest

from lefdefect import _purekernels, effectivity
from lefdefect.effectivity import (
    defect_survey,
    divisor_case_data,
    effectivity_report,
    iitaka_dimension,
    induced_quotient_class,
    is_effective_class,
    radical,
    symmetric_part,
    torus_defect,
)
from lefdefect.errors import NotHodgeClass
from references import field_product
from lefdefect.torus import (
    AlternatingForm,
    ComplexTorus,
    elliptic,
    ns_coordinates,
    ns_rank,
    product,
    quotient,
)

F = Fraction


def fiber_form(A, k):
    size = 2 * A.n
    rows = [[0] * size for _ in range(size)]
    rows[2 * k][2 * k + 1] = 1
    rows[2 * k + 1][2 * k] = -1
    return AlternatingForm(A, rows)


@pytest.fixture(scope="module")
def square():
    E = elliptic(0, 1, label="E_i")
    return product([E, elliptic(0, 1, label="E_i'")])


class TestSymmetricPart:
    def test_principal_polarization_gives_identity(self):
        E = elliptic(0, 1)
        form = AlternatingForm(E, [[0, 1], [-1, 0]])
        assert symmetric_part(E, form) == [[1, 0], [0, 1]]

    def test_zero_form(self, square):
        zero = AlternatingForm(square, [[0] * 4 for _ in range(4)])
        S = symmetric_part(square, zero)
        assert all(x == 0 for row in S for x in row)

    def test_always_symmetric_on_ns(self, square, quartic_field):
        from lefdefect.torus import ns_basis

        a = quartic_field.alpha()
        for A in (square, product([elliptic(0, a), elliptic(F(1, 2), a * a)])):
            for b in ns_basis(A):
                S = symmetric_part(A, b)
                for i in range(2 * A.n):
                    for j in range(2 * A.n):
                        assert S[i][j] == S[j][i]

    def test_non_hodge_rejected(self, square):
        rows = [[0] * 4 for _ in range(4)]
        rows[0][2], rows[2][0] = 1, -1
        with pytest.raises(NotHodgeClass):
            symmetric_part(square, AlternatingForm(square, rows))


class TestEffectivity:
    def test_product_polarization(self, square):
        assert is_effective_class(square, fiber_form(square, 0) + fiber_form(square, 1))

    def test_difference_is_not_effective(self, square):
        assert not is_effective_class(square, fiber_form(square, 0) - fiber_form(square, 1))

    def test_zero_is_not_effective(self, square):
        zero = AlternatingForm(square, [[0] * 4 for _ in range(4)])
        assert not is_effective_class(square, zero)

    def test_negative_of_effective(self, square):
        assert not is_effective_class(square, -fiber_form(square, 0))

    def test_field_case(self, quartic_field):
        a = quartic_field.alpha()
        A = product([elliptic(0, a), elliptic(0, a * a)])
        assert is_effective_class(A, fiber_form(A, 0) + fiber_form(A, 1))
        assert not is_effective_class(A, fiber_form(A, 0) - fiber_form(A, 1))


class TestRadicalIitaka:
    def test_ample_class_has_zero_radical(self, square):
        h = fiber_form(square, 0) + fiber_form(square, 1)
        assert radical(square, h).rank == 0
        assert iitaka_dimension(square, h) == 2

    def test_fiber_class_radical_is_first_factor(self, square):
        f2 = fiber_form(square, 1)
        W = radical(square, f2)
        assert W.rank == 2
        assert W.basis == ((1, 0, 0, 0), (0, 1, 0, 0))
        assert iitaka_dimension(square, f2) == 1

    def test_radical_is_j_stable_and_even(self, square):
        # radical() goes through subtorus(), which certifies both
        from lefdefect.torus import ns_basis

        for b in ns_basis(square):
            if is_effective_class(square, b):
                assert radical(square, b).rank % 2 == 0

    def test_non_effective_rejected(self, square):
        with pytest.raises(ValueError, match="not effective"):
            radical(square, fiber_form(square, 0) - fiber_form(square, 1))

    def test_induced_class_is_positive_definite(self, square):
        f2 = fiber_form(square, 1)
        W = radical(square, f2)
        B = quotient(square, W)
        induced = induced_quotient_class(square, f2, W)
        S = symmetric_part(B, induced)
        rank, _ = _purekernels.psd_rank(
            S, range(len(S)), _purekernels.int_sign, _purekernels.int_quotient
        )
        assert rank == 2 * B.n
        # nondegenerate: full rank
        den_rows = [[int(x) for x in row] for row in induced.matrix]
        assert _purekernels.rank_int(den_rows) == 2 * B.n

    def test_report_fields(self, square):
        h = fiber_form(square, 0) + fiber_form(square, 1)
        report = effectivity_report(square, h)
        assert report.is_effective
        assert report.iitaka_dim == square.n - report.radical_rank // 2 == 2
        assert report.quotient == square
        bad = effectivity_report(square, fiber_form(square, 0) - fiber_form(square, 1))
        assert not bad.is_effective
        assert bad.quotient is None

    def test_report_tests_effectivity_once(self, square, monkeypatch):
        calls = []
        original = effectivity.is_effective_class

        def counted(A, E):
            calls.append(E)
            return original(A, E)

        monkeypatch.setattr(effectivity, "is_effective_class", counted)
        report = effectivity_report(square, fiber_form(square, 0))
        assert report.is_effective and report.iitaka_dim == 1
        assert len(calls) == 1


class TestTorusDefect:
    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError, match="dimension at least 2"):
            torus_defect(elliptic(0, 1), box=1)

    def test_cm_square(self, square):
        result = torus_defect(square, box=2)
        assert result.delta == 3
        assert result.witness is not None
        assert result.classes_scanned >= 5**4 - 1

    def test_witness_defect_matches(self, square):
        from lefdefect.cohomology import defect_of_class

        result = torus_defect(square, box=2)
        assert defect_of_class(square, result.witness) == result.delta
        assert is_effective_class(square, result.witness)

    def test_witness_is_the_class_of_its_coefficients(self, square, corpus):
        """The witness is sum c_b b over the NS basis in its order, for the
        reported coefficients."""
        for A, box in ((square, 2), (corpus["ei_x_e2i"], 2), (corpus["triple"], 1),
                       (corpus["ei2_x_nocm"], 1)):
            result = torus_defect(A, box=box)
            assert ns_coordinates(A, result.witness) == result.witness_coefficients

    def test_monotone_in_box(self, square):
        d1 = torus_defect(square, box=1).delta
        d2 = torus_defect(square, box=2).delta
        d3 = torus_defect(square, box=3).delta
        assert d1 <= d2 <= d3 <= ns_rank(square) - 1

    def test_non_isogenous_pair(self, quartic_field):
        a = quartic_field.alpha()
        A = product([elliptic(0, a, label="E"), elliptic(0, a * a, label="E'")])
        result = torus_defect(A, box=2)
        assert result.delta == 1

    def test_no_ns_class_gives_an_empty_search(self, quartic_field):
        """J = P J_std P^-1 over Q(2^(1/4)) for a P with irrational entries:
        a non-algebraic surface, rho = 0, so there is nothing to scan."""
        K = quartic_field
        a, one, zero = K.alpha(), K.one(), K.zero()
        J_std = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        P = [[1 - a, a - 1, -one, -one], [a, one, one, a],
             [one, -one, -1 - a, -one], [-one, one, one, a]]
        # P^-1 by Gauss-Jordan elimination over the field.
        rows = [list(r) + [one if i == j else zero for j in range(4)] for i, r in enumerate(P)]
        for c in range(4):
            p = next(r for r in range(c, 4) if rows[r][c] != 0)
            pivot = [x / rows[p][c] for x in rows[p]]
            rows[p] = rows[c]
            rows[c] = pivot
            for r in range(4):
                if r != c and rows[r][c] != 0:
                    rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
        A = ComplexTorus(K, field_product(K, P, J_std, [r[4:] for r in rows]))
        assert ns_rank(A) == 0
        for box in (1, 2):
            result, records = defect_survey(A, box=box)
            assert result == torus_defect(A, box=box)
            assert (result.delta, result.witness, result.witness_coefficients) == (0, None, None)
            assert (result.classes_scanned, result.nodes_visited) == (0, 0)
            assert records == []

    def test_survey_scaling_invariance(self, square):
        result, records = defect_survey(square, box=2)
        by_coeffs = {r.coefficients: r.defect for r in records}
        for coeffs, defect in by_coeffs.items():
            doubled = tuple(2 * c for c in coeffs)
            if doubled in by_coeffs:
                assert by_coeffs[doubled] == defect

    def test_survey_bounds(self, square):
        rho = ns_rank(square)
        _, records = defect_survey(square, box=2)
        assert records
        for r in records:
            assert 0 <= r.defect <= rho - 1


class TestDivisorCaseData:
    def test_fiber_class(self, square):
        b, rho_b, cm, k = divisor_case_data(square, fiber_form(square, 1))
        assert (b, cm, k) == (1, True, 2)

    def test_ample_class_on_surface(self, square):
        b, rho_b, cm, k = divisor_case_data(square, fiber_form(square, 0) + fiber_form(square, 1))
        assert (b, rho_b) == (2, 4)

    def test_threefold_polarization(self):
        A = product([elliptic(0, 1), elliptic(0, 1), elliptic(0, 1)])
        h = fiber_form(A, 0) + fiber_form(A, 1) + fiber_form(A, 2)
        b, *_ = divisor_case_data(A, h)
        assert b == 3
