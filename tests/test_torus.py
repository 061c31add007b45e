import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefdefect import torus as torus_module
from lefdefect.errors import ConsistencyError
from lefdefect.exactmath import RealNumberField, nf_sign
from lefdefect.torus import (
    AlternatingForm,
    ComplexTorus,
    Sublattice,
    _canonical,
    _split_j,
    coordinate_factor_sublattices,
    elliptic,
    hom_rank,
    ns_basis,
    ns_coordinates,
    ns_rank,
    product,
    quotient,
    subtorus,
)

from references import field_j, squares_to_minus_identity

F = Fraction
# alpha^4 = 2, alpha the positive real fourth root (the `quartic_field` fixture).
QUARTIC = RealNumberField([-2, 0, 0, 0, 1], (F(1), F(3, 2)))


class TestElliptic:
    def test_gaussian_lattice(self):
        E = elliptic(0, 1)
        assert [[x.as_rational() for x in row] for row in field_j(E)] == [
            [0, -1],
            [1, 0],
        ]
        assert E.has_cm

    def test_j_squared_is_minus_one(self, quartic_field):
        for a, beta in [(0, 1), (F(1, 2), 3), (-2, F(2, 3))]:
            E = elliptic(a, beta, field=quartic_field)
            assert squares_to_minus_identity(E)

    def test_quartic_beta_has_no_cm(self, quartic_field):
        E = elliptic(0, quartic_field.alpha())
        assert not E.has_cm  # beta^2 = sqrt(2) is irrational

    def test_beta_squared_rational_has_cm(self, quartic_field):
        # beta = alpha^2 = sqrt(2): tau = i sqrt(2) is imaginary quadratic
        E = elliptic(0, quartic_field.alpha() ** 2)
        assert E.has_cm

    def test_lower_half_plane_rejected(self, quartic_field):
        with pytest.raises(ValueError, match="upper half plane"):
            elliptic(0, -1, field=quartic_field)
        with pytest.raises(ValueError, match="upper half plane"):
            elliptic(0, quartic_field.zero())

    def test_bad_complex_structure_rejected(self):
        with pytest.raises(ConsistencyError, match="complex structure"):
            ComplexTorus(RealNumberField.rationals(), [[1, 0], [0, 1]])

    @pytest.mark.parametrize("J, message", [
        ([], "dimensions must be positive"),
        ([[]], "dimensions must be positive"),
        ([[0, -1], [1]], "rectangular"),
        ([[1]], "square of even positive size"),
        ([[0, -1, 0, 0], [1, 0, 0, 0]], "square of even positive size"),
        ([[0, -1], [1, 0], [0, 0]], "square of even positive size"),
    ])
    def test_malformed_j_rows_rejected(self, J, message):
        with pytest.raises(ValueError, match=message):
            ComplexTorus(RealNumberField.rationals(), J)

    def test_j_entries_from_another_field_rejected(self, quartic_field, sqrt2_field):
        a = sqrt2_field.alpha()
        with pytest.raises(ValueError, match="mixed number fields"):
            ComplexTorus(quartic_field, [[0, -a], [1 / a, 0]])

    def test_alpha_terms_of_j_squared_must_cancel(self, quartic_field):
        # J = J_0 + alpha J_1 with J_0^2 = -I, but J_0 J_1 + J_1 J_0 != 0.
        a = quartic_field.alpha()
        with pytest.raises(ConsistencyError, match="complex structure"):
            ComplexTorus(quartic_field, [[a, -1], [1, 0]])

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(["Q", "K"]),
        a=st.fractions(min_value=-3, max_value=3, max_denominator=6),
        coeffs=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                        min_size=4, max_size=4),
    )
    @example(name="K", a=F(1, 2), coeffs=[-1, 1, 0, 0])  # alpha - 1: N = -1
    @example(name="K", a=F(-2, 3), coeffs=[F(-1, 3), F(1, 3), 0, 0])  # m = 3, N < 0
    @example(name="Q", a=F(1, 3), coeffs=[F(2, 5), 0, 0, 0])
    @example(name="K", a=F(0), coeffs=[1, 0, 0, 0])
    def test_integer_j_data_recombines_to_j(self, name, a, coeffs):
        # The reference: J = [[-a/b, -b - a^2/b], [1/b, a/b]] on the basis
        # (1, tau) as a field matrix, with 1/b from the extended gcd
        # (`beta.inverse()`), split by `_split_j` and brought to canonical form.
        field = QUARTIC if name == "K" else RealNumberField.rationals()
        beta = field.element(coeffs[:field.degree])
        if nf_sign(beta) <= 0:
            with pytest.raises(ValueError, match="upper half plane"):
                elliptic(a, beta)
            return
        E = elliptic(a, beta)
        inv = beta.inverse()
        J = ((-a * inv, -beta - a * a * inv), (inv, a * inv))
        assert (E.j_den, E.j_parts) == _canonical(*_split_j(field, J))
        assert field_j(E) == J
        assert E.rational_j == all(x.is_rational() for row in J for x in row)
        entries = [x for Jk in E.j_parts for row in Jk for x in row]
        assert E.j_den > 0 and gcd(E.j_den, *entries) == 1
        assert E == ComplexTorus(field, J) and hash(E) == hash(ComplexTorus(field, J))

    def test_zero_divisor_beta_raises_zero_division(self):
        # x^2 - 1 is square-free but reducible: beta = 1 + alpha = 2 > 0 at
        # the root 1, but it is a zero divisor, as with `beta.inverse()`.
        K = RealNumberField([-1, 0, 1], (F(1, 2), F(3, 2)))
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            elliptic(0, K.element([1, 1]))


class TestProduct:
    def test_single_factor_is_identity(self):
        E = elliptic(0, 1)
        assert product([E]) is E

    def test_block_diagonal(self):
        E = elliptic(0, 1)
        A = product([E, E, E])
        assert A.n == 3
        assert squares_to_minus_identity(A)

    def test_field_mismatch(self, quartic_field):
        with pytest.raises(ValueError, match="field mismatch"):
            product([elliptic(0, 1), elliptic(0, 1, field=quartic_field)])

    def test_flattening(self):
        E = elliptic(0, 1)
        A = product([product([E, E]), E])
        assert len(A.factors) == 3

    def test_only_product_declares_factors(self):
        """A factor structure given with J could disagree with it, so
        `ComplexTorus` takes J alone: the same J data rebuilt from rows has
        no declared factors, and `factors=` or `label=` is refused."""
        E = elliptic(0, 1)
        A = product([E, E])
        J = field_j(A)
        rebuilt = ComplexTorus(A.field, J)
        assert rebuilt == A and rebuilt.factors is None
        for keyword in ({"factors": [E, E]}, {"label": "A"}):
            with pytest.raises(TypeError):
                ComplexTorus(A.field, J, **keyword)
        with pytest.raises(TypeError):
            ComplexTorus._from_parts(A.field, A.j_den, A.j_parts, factors=[E, E])


class TestHomRank:
    def test_cm_endomorphisms(self):
        E = elliptic(0, 1)
        assert hom_rank(E, E) == 2

    def test_identity_always_there(self, quartic_field):
        E = elliptic(0, quartic_field.alpha())
        assert hom_rank(E, E) >= 1

    def test_non_commensurable_periods(self, quartic_field):
        # periods i*alpha and i*alpha^2: neither the ratio nor the product of
        # the betas is rational, so there is no isogeny either way
        a = quartic_field.alpha()
        E1 = elliptic(0, a)
        E2 = elliptic(0, a * a)
        assert hom_rank(E1, E2) == 0
        assert hom_rank(E2, E1) == 0

    def test_commensurable_periods(self, quartic_field):
        # beta ratio 3 is rational: multiplication by 3 is an isogeny, and
        # End = Z on both sides keeps the rank at 1
        a = quartic_field.alpha()
        assert hom_rank(elliptic(0, a), elliptic(0, 3 * a)) == 1

    def test_rational_beta_product(self, quartic_field):
        # beta * beta' = alpha * alpha^3 = 2 is rational: z -> i*beta'*z is
        # an isogeny even though the ratio is irrational
        a = quartic_field.alpha()
        assert hom_rank(elliptic(0, a), elliptic(0, a**3)) == 1

    def test_distinct_cm_fields(self, quartic_field):
        # Q(i) vs Q(i sqrt 2)
        E1 = elliptic(0, 1, field=quartic_field)
        E2 = elliptic(0, quartic_field.alpha() ** 2)
        assert hom_rank(E1, E2) == 0

    def test_additive_in_products(self, quartic_field):
        a = quartic_field.alpha()
        E1 = elliptic(0, 1, field=quartic_field)
        E2 = elliptic(0, a)
        E3 = elliptic(0, a * a)
        assert hom_rank(E1, product([E2, E3])) == hom_rank(E1, E2) + hom_rank(E1, E3)
        B = product([E1, E2])
        assert hom_rank(B, B) == (
            hom_rank(E1, E1) + hom_rank(E1, E2) + hom_rank(E2, E1) + hom_rank(E2, E2)
        )

    def test_cm_iff_hom_rank_two(self, quartic_field):
        for beta in (quartic_field.from_rational(1), quartic_field.alpha()):
            E = elliptic(0, beta)
            assert E.has_cm == (hom_rank(E, E) == 2)


class TestNeronSeveri:
    def test_elliptic_curve_rank_one(self):
        assert ns_rank(elliptic(0, 1)) == 1

    def test_square_of_cm_curve(self):
        E = elliptic(0, 1)
        assert ns_rank(product([E, E])) == 4

    def test_non_isogenous_pair(self, quartic_field):
        a = quartic_field.alpha()
        A = product([elliptic(0, a), elliptic(0, a * a)])
        assert ns_rank(A) == 2

    def test_basis_forms_are_hodge(self, quartic_field):
        a = quartic_field.alpha()
        A = product([elliptic(0, a), elliptic(0, a * a)])
        for E in ns_basis(A):
            assert E.is_hodge

    def test_kunneth_identity_random_products(self, quartic_field):
        rng = random.Random(20240917)
        a = quartic_field.alpha()
        pool = [
            elliptic(0, 1, field=quartic_field, label="E_i"),
            elliptic(0, 2, field=quartic_field, label="E_2i"),
            elliptic(0, a, label="E_ia"),
            elliptic(0, a * a, label="E_ia2"),
        ]
        for _ in range(6):
            C = product([rng.choice(pool)])
            T = product([rng.choice(pool), rng.choice(pool)])
            A = product([C, T])
            assert ns_rank(A) == ns_rank(C) + ns_rank(T) + hom_rank(T, C)

    def test_coordinates_roundtrip(self):
        E = elliptic(0, 1)
        A = product([E, E])
        basis = ns_basis(A)
        target = basis[0] + 2 * basis[-1]
        coords = ns_coordinates(A, target)
        assert coords is not None
        rebuilt = None
        for c, b in zip(coords, basis):
            term = b * c
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt == target

    def test_non_hodge_has_no_coordinates(self, quartic_field):
        a = quartic_field.alpha()
        A = product([elliptic(0, a), elliptic(0, a * a)])
        # a cross-term form mixing non-isogenous factors is not J-compatible
        rows = [[0] * 4 for _ in range(4)]
        rows[0][2] = 1
        rows[2][0] = -1
        form = AlternatingForm(A, rows)
        assert not form.is_hodge
        assert ns_coordinates(A, form) is None


class TestSubtorusQuotient:
    def test_quotient_of_product_is_other_factor(self, quartic_field):
        a = quartic_field.alpha()
        E1, E2 = elliptic(0, a), elliptic(0, a * a)
        A = product([E1, E2])
        W = subtorus(A, [(1, 0, 0, 0), (0, 1, 0, 0)])
        assert quotient(A, W) == E2

    def test_quotient_by_zero_is_identity(self):
        A = product([elliptic(0, 1), elliptic(0, 1)])
        assert quotient(A, Sublattice(A, [])) == A

    def test_odd_rank_is_not_complex(self):
        A = product([elliptic(0, 1), elliptic(0, 1)])
        with pytest.raises(ValueError, match="not a complex subtorus"):
            subtorus(A, [(1, 0, 0, 0)])

    def test_non_stable_plane_rejected(self, quartic_field):
        a = quartic_field.alpha()
        A = product([elliptic(0, a), elliptic(0, a * a)])
        # spans one real direction of each factor: not J-stable
        with pytest.raises(ValueError, match="not a complex subtorus"):
            subtorus(A, [(1, 0, 0, 0), (0, 0, 1, 0)])

    def test_input_is_saturated(self):
        A = product([elliptic(0, 1), elliptic(0, 1)])
        W = subtorus(A, [(2, 0, 0, 0), (0, 2, 0, 0)])
        assert W.basis == ((1, 0, 0, 0), (0, 1, 0, 0))

    def test_quotient_complex_structure(self, quartic_field):
        # graph of an isogeny between the two CM factors
        E = elliptic(0, 1, field=quartic_field)
        A = product([E, elliptic(0, 2, field=quartic_field)])
        # z -> 2z maps Z+iZ into Z+2iZ; its graph is J-stable
        W = subtorus(A, [(1, 0, 2, 0), (0, 1, 0, 1)])
        B = quotient(A, W)
        assert B.n == 1
        assert squares_to_minus_identity(B)

    def test_coordinate_factor_sublattices(self):
        E = elliptic(0, 1)
        A = product([E, E, E])
        all_subs = coordinate_factor_sublattices(A)
        assert len(all_subs) == 6  # proper nonempty subsets of 3 factors
        assert all(W.corank == 6 - 2 * len(subset) for subset, W in all_subs)
        corank2 = coordinate_factor_sublattices(A, corank=2)
        assert len(corank2) == 3
        for _, W in corank2:
            assert W.corank == 2

    def test_coordinate_factor_sublattices_builds_only_the_corank_asked_for(
            self, monkeypatch):
        built = []
        original = torus_module.coordinate_sublattice

        def counted(A, subset):
            built.append(subset)
            return original(A, subset)

        monkeypatch.setattr(torus_module, "coordinate_sublattice", counted)
        E = elliptic(0, 1)
        assert len(coordinate_factor_sublattices(product([E, E, E]), corank=2)) == 3
        assert sorted(built) == [(0, 1), (0, 2), (1, 2)]
