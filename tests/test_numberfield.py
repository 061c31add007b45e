from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdefect.exactmath import (
    RealNumberField,
    count_real_roots,
    nf_sign,
    parse_rational,
)
from references import numeric_value, reference_sign

F = Fraction


class TestFieldConstruction:
    def test_rejects_non_monic(self):
        with pytest.raises(ValueError, match="monic"):
            RealNumberField([-2, 0, 2], (1, 2))

    def test_rejects_non_squarefree(self):
        # (x - 1)^2 = 1 - 2x + x^2
        with pytest.raises(ValueError, match="square-free"):
            RealNumberField([1, -2, 1], (0, 2))

    def test_rejects_non_isolating_interval(self):
        # x^2 - 2 has both roots in (-2, 2)
        with pytest.raises(ValueError, match="exactly one root|change sign"):
            RealNumberField([-2, 0, 1], (-2, 2))

    def test_rejects_interval_missing_root(self):
        with pytest.raises(ValueError, match="change sign"):
            RealNumberField([-2, 0, 1], (2, 3))

    def test_rationals_field(self):
        Q = RealNumberField.rationals()
        assert Q.degree == 1
        assert Q.from_rational(F(3, 7)).as_rational() == F(3, 7)

    def test_rationals_is_one_shared_instance(self):
        Q = RealNumberField.rationals()
        assert Q is RealNumberField.rationals()
        # No sign changes the shared instance's bounds of alpha.
        bounds = Q._alpha_bounds
        assert [nf_sign(Q.from_rational(x)) for x in (F(-1, 9), 0, F(1, 10**9))] == [-1, 0, 1]
        assert Q._alpha_bounds == bounds
        assert Q == RealNumberField([0, 1], (-1, 1))

    def test_one_shared_field_per_normalized_key(self):
        K = RealNumberField([-2, 0, 0, 0, 1], ("1", "3/2"))
        assert K is RealNumberField((-2, 0, 0, 0, 1, 0), (F(1), F(3, 2)))
        assert K is not RealNumberField([-2, 0, 0, 0, 1], (1, F(5, 4)))
        # Repeated calls, with string, Fraction or mixed spellings of the key
        # and with unhashable numbers, return the same field.
        class Unhashable(F):
            __hash__ = None

        for _ in range(2):
            assert K is RealNumberField([-2, 0, 0, 0, 1], ("1", "3/2"))
            assert K is RealNumberField((-2, 0, 0, 0, 1), [F(1), F(3, 2)])
            assert K is RealNumberField([-2, 0, 0, 0, 1], (1, "3/2"))
            assert K is RealNumberField([-2, 0, 0, 0, 1], (Unhashable(1), Unhashable(3, 2)))
        # Invalid input raises every time: it never reaches either cache.
        for _ in range(2):
            with pytest.raises(ValueError, match="square-free"):
                RealNumberField([1, -2, 1], (0, 2))
            with pytest.raises(ValueError, match="change sign"):
                RealNumberField([-2, 0, 0, 0, 1], ("-2", "2"))

    def test_sturm_count(self):
        # x^3 - 2x: roots -sqrt(2), 0, sqrt(2)
        assert count_real_roots([F(0), F(-2), F(0), F(1)], F(-2), F(2)) == 3
        assert count_real_roots([F(0), F(-2), F(0), F(1)], F(1), F(2)) == 1


class TestSign:
    def test_sqrt2_examples(self, sqrt2_field):
        a = sqrt2_field.alpha()
        assert nf_sign(a - 1) == 1
        assert nf_sign(sqrt2_field.zero()) == 0
        assert nf_sign(1 - a) == -1

    def test_tight_values(self, sqrt2_field):
        a = sqrt2_field.alpha()
        # 41/29 < sqrt(2) < 99/70 (continued-fraction convergents):
        # deciding these signs forces several bisection steps
        assert nf_sign(a - F(41, 29)) == 1
        assert nf_sign(a - F(99, 70)) == -1

    def test_quartic(self, quartic_field):
        b = quartic_field.alpha()
        assert nf_sign(b**4 - 2) == 0
        assert nf_sign(b**2 - 1) == 1  # sqrt(2) > 1
        assert nf_sign(b - 2) == -1

    def test_gcd_shortcut_on_reducible_modulus(self):
        # Square-free but reducible: (x^2 - 2)(x - 3); isolate sqrt(2).
        # x - 3 is nonzero as a polynomial yet vanishes nowhere near alpha,
        # while x^2 - 2 vanishes at alpha exactly.
        field = RealNumberField([6, -2, -3, 1], (1, 2))
        x = field.element([-2, 0, 1])
        assert nf_sign(x) == 0
        y = field.element([-3, 1])
        assert nf_sign(y) == -1

    def test_cached_interval_gives_uncached_signs(self):
        # alpha = 2^(1/4) = 1.18920711500...; the tight values need many
        # bisections beyond the field's bounds of alpha, the loose ones none.
        # Each sign bisects its own copy: the field's bounds never change.
        declared = ([-2, 0, 0, 0, 1], (F(1), F(3, 2)))
        field = RealNumberField(*declared)
        bounds = (field._alpha_bounds, field._alpha_int)
        lo, hi = field._alpha_bounds
        assert F(1) < lo < hi < F(3, 2)
        tight = [[F(-1189, 1000), 1], [F(-119, 100), 1], [F(-118920711, 10**8), 1],
                 [F(-14142, 10**4), 0, 1], [F(-141422, 10**5), 0, 1], [-2, 0, 0, 0]]
        loose = [[-1, 1], [2, -1], [0, 0, 1, -1], [1, 1, 1, 1], [0, -3, 0, 2]]
        sequence = tight + loose + tight[::-1] + loose + tight
        for coeffs in sequence:
            assert nf_sign(field.element(coeffs)) == reference_sign(field, coeffs)
            assert (field._alpha_bounds, field._alpha_int) == bounds
        assert field.root_interval == declared[1]
        assert field is RealNumberField(*declared)
        assert hash(field) == hash(RealNumberField(*declared))
        assert field.element([1, 2]) == RealNumberField(*declared).element([1, 2])


class TestArithmetic:
    def test_power_basis_reduction(self, quartic_field):
        b = quartic_field.alpha()
        assert (b**4).as_rational() == 2
        assert (b**5) == 2 * b
        assert ((b + 1) * (b - 1)) == b * b - 1

    def test_inverse(self, quartic_field):
        b = quartic_field.alpha()
        x = b**3 + 2 * b - 1
        assert (x * x.inverse()).as_rational() == 1

    def test_division_by_zero(self, sqrt2_field):
        with pytest.raises(ZeroDivisionError):
            sqrt2_field.zero().inverse()

    def test_equality_is_coefficientwise(self, sqrt2_field):
        a = sqrt2_field.alpha()
        assert a + 1 == sqrt2_field.element([1, 1])
        assert a != sqrt2_field.element([1])


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def element(field, coeffs):
    return field.element(list(coeffs))


class TestSignProperties:
    @given(st.tuples(small_rationals, small_rationals),
           st.tuples(small_rationals, small_rationals))
    @settings(max_examples=80, deadline=None)
    def test_sign_respects_order(self, cx, cy):
        field = RealNumberField([-2, 0, 1], (1, 2))
        x, y = element(field, cx), element(field, cy)
        if nf_sign(x) == 1 and nf_sign(y) >= 0:
            assert nf_sign(x + y) == 1

    @given(st.tuples(small_rationals, small_rationals, small_rationals,
                     small_rationals))
    @settings(max_examples=50, deadline=None)
    def test_sign_matches_numeric(self, coeffs):
        field = RealNumberField([-2, 0, 0, 0, 1], (1, F(3, 2)))
        x = element(field, coeffs)
        with mpmath.workdps(60):
            alpha = mpmath.root(2, 4)
            value = numeric_value(x, mpmath.mpf(1) * alpha)
            numeric = 0 if abs(value) < mpmath.mpf(10) ** -40 else (1 if value > 0 else -1)
        assert nf_sign(x) == numeric


def test_parse_rational():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" +3/2 ") == F(3, 2)
    # int() would read the last four: as 1000, 3/2, -3/2 and 3/2.
    for bad in ("1.5", "1e3", "", "2/0", "1_000", "\u0663/2", "3/-2", " 3 / 2 "):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(bad)
