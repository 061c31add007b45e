import random
from fractions import Fraction

import pytest

from lefdefect.cohomology import (
    cup_matrix,
    defect_of_class,
    lambda_defect,
    poincare_dual,
    restriction_map,
    wedge,
    wedge_basis,
    wedge_index,
)
from lefdefect.errors import NotHodgeClass
from lefdefect.torus import (
    AlternatingForm,
    coordinate_sublattice,
    elliptic,
    ns_basis,
    ns_rank,
    product,
    subtorus,
)

F = Fraction


def unit(N, subset):
    """Integer coordinates of e_subset, in degree len(subset) on Z^N."""
    coords = [0] * len(wedge_basis(N, len(subset)))
    coords[wedge_index(N, len(subset))[tuple(subset)]] = 1
    return coords


def neg(coords):
    return [-x for x in coords]


def apply(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def fiber_form(A, k):
    """Pullback of the point class under projection to all factors but k:
    the standard symplectic form on block k."""
    size = 2 * A.n
    rows = [[0] * size for _ in range(size)]
    rows[2 * k][2 * k + 1] = 1
    rows[2 * k + 1][2 * k] = -1
    return AlternatingForm(A, rows)


@pytest.fixture(scope="module")
def pair(quartic_field):
    a = quartic_field.alpha()
    E1 = elliptic(0, a, label="E")
    E2 = elliptic(0, a * a, label="E'")
    return product([E1, E2]), E1, E2


@pytest.fixture(scope="module")
def triple(quartic_field):
    a = quartic_field.alpha()
    return product(
        [
            elliptic(0, 1, field=quartic_field, label="E1"),
            elliptic(0, a, label="E2"),
            elliptic(0, a * a, label="E3"),
        ]
    )


class TestWedge:
    def test_basis_product(self):
        assert wedge(4, 1, 1, unit(4, (0,)), unit(4, (1,))) == unit(4, (0, 1))

    def test_antisymmetry(self):
        e1, e2 = unit(4, (0,)), unit(4, (1,))
        assert wedge(4, 1, 1, e2, e1) == neg(wedge(4, 1, 1, e1, e2))

    def test_square_is_zero(self):
        e1 = unit(4, (0,))
        assert not any(wedge(4, 1, 1, e1, e1))

    def test_overflow_degree(self):
        with pytest.raises(ValueError, match="top degree"):
            wedge(4, 4, 1, unit(4, (0, 1, 2, 3)), unit(4, (0,)))

    def _random_class(self, rng, N, degree):
        return [rng.randint(-3, 3) for _ in wedge_basis(N, degree)]

    def test_graded_commutativity(self):
        rng = random.Random(7)
        for _ in range(10):
            p, q = rng.choice([(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)])
            u = self._random_class(rng, 6, p)
            v = self._random_class(rng, 6, q)
            sign = (-1) ** (p * q)
            assert wedge(6, p, q, u, v) == [sign * x for x in wedge(6, q, p, v, u)]

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(10):
            u = self._random_class(rng, 6, 1)
            v = self._random_class(rng, 6, 2)
            w = self._random_class(rng, 6, 1)
            assert wedge(6, 3, 1, wedge(6, 1, 2, u, v), w) == wedge(
                6, 1, 3, u, wedge(6, 2, 1, v, w))

    def test_bilinearity(self):
        rng = random.Random(13)
        u = self._random_class(rng, 6, 2)
        v = self._random_class(rng, 6, 2)
        w = self._random_class(rng, 6, 2)
        total = [a + b for a, b in zip(u, v)]
        assert wedge(6, 2, 2, total, w) == [
            a + b for a, b in zip(wedge(6, 2, 2, u, w), wedge(6, 2, 2, v, w))]


class TestClassOfForm:
    """The degree-2 class of a form E is its integer pair coordinates, of
    den * E."""

    def test_standard_symplectic(self):
        E = elliptic(0, 1)
        form = AlternatingForm(E, [[0, 1], [-1, 0]])
        assert list(form.pair_num()) == unit(2, (0, 1))

    def test_zero_form(self, pair):
        A, _, _ = pair
        zero = AlternatingForm(A, [[0] * 4 for _ in range(4)])
        assert not any(zero.pair_num())

    def test_linearity(self, pair):
        A, _, _ = pair
        f1, f2 = fiber_form(A, 0), fiber_form(A, 1)
        assert (f1 + f2).pair_num() == tuple(
            a + b for a, b in zip(f1.pair_num(), f2.pair_num()))
        half = f1 * F(1, 2)
        assert half.den == 2 and half.pair_num() == f1.pair_num()


class TestCupMatrix:
    def test_dimension_one_rejected(self):
        E = elliptic(0, 1)
        form = AlternatingForm(E, [[0, 1], [-1, 0]])
        with pytest.raises(ValueError, match="H\\^4 trivial"):
            cup_matrix(E, form.pair_num())

    def test_basis_image(self, pair):
        A, _, _ = pair
        M = cup_matrix(A, unit(4, (0, 1)))
        assert apply(M, unit(4, (2, 3))) == unit(4, (0, 1, 2, 3))

    def test_zero_class(self, pair):
        A, _, _ = pair
        M = cup_matrix(A, [0] * 6)
        assert len(M) == 1 and all(x == 0 for row in M for x in row)
        with pytest.raises(ValueError, match="degree-2 class"):
            cup_matrix(A, [0] * 5)

    def test_linearity_in_the_class(self, pair):
        A, _, _ = pair
        e = (fiber_form(A, 0) + fiber_form(A, 1)).pair_num()
        M1 = cup_matrix(A, e)
        M2 = cup_matrix(A, [2 * x for x in e])
        assert all(
            2 * a == b for r1, r2 in zip(M1, M2) for a, b in zip(r1, r2)
        )


class TestDefectOfClass:
    def test_fiber_class_via_retraction(self, pair):
        # Retraction oracle: the fiber class restricts a projection with a
        # section, so the defect is rho(A) - rho(first factor) = 2 - 1.
        A, E1, _ = pair
        f2 = fiber_form(A, 1)
        assert ns_rank(A) - ns_rank(E1) == 1
        assert defect_of_class(A, f2) == 1

    def test_product_polarization_on_surface(self, pair):
        # kernel is spanned by f1 - f2: the b = 2 case with rho_B = 2
        A, _, _ = pair
        f1, f2 = fiber_form(A, 0), fiber_form(A, 1)
        assert defect_of_class(A, f1 + f2) == 1
        diff = (f1 - f2).pair_num()
        total = (f1 + f2).pair_num()
        assert not any(wedge(4, 2, 2, diff, total))

    def test_principal_polarization_on_threefold(self, triple):
        h = fiber_form(triple, 0) + fiber_form(triple, 1) + fiber_form(triple, 2)
        assert defect_of_class(triple, h) == 0

    def test_scaling_invariance(self, pair):
        A, _, _ = pair
        f2 = fiber_form(A, 1)
        assert defect_of_class(A, 2 * f2) == defect_of_class(A, f2)

    def test_non_hodge_rejected(self, pair):
        A, _, _ = pair
        rows = [[0] * 4 for _ in range(4)]
        rows[0][2], rows[2][0] = 1, -1
        with pytest.raises(NotHodgeClass):
            defect_of_class(A, AlternatingForm(A, rows))


class TestRestrictionMap:
    def test_full_lattice_is_identity(self, pair):
        A, _, _ = pair
        W = subtorus(A, [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)])
        R = restriction_map(A, W)
        assert R == [[int(i == j) for j in range(6)] for i in range(6)]

    def test_fiber_class_restricts_to_zero(self, pair):
        A, _, _ = pair
        W = subtorus(A, [(1, 0, 0, 0), (0, 1, 0, 0)])
        f2 = fiber_form(A, 1)
        assert not any(apply(restriction_map(A, W), f2.pair_num()))

    def test_rank_below_two_rejected(self, pair):
        A, _, _ = pair
        from lefdefect.torus import Sublattice

        with pytest.raises(ValueError, match="rank at least 2"):
            restriction_map(A, Sublattice(A, []))

    def test_ring_map_on_wedges(self, triple):
        # restriction commutes with wedge: pullback of a product of two
        # 2-classes equals the product of the pullbacks (degree-4 check)
        from references import determinant

        A = triple
        W = coordinate_sublattice(A, (0, 1))  # rank 4
        R2 = restriction_map(A, W)
        u = fiber_form(A, 0).pair_num()
        v = fiber_form(A, 1).pair_num()
        lhs = wedge(4, 2, 2, apply(R2, u), apply(R2, v))
        # the degree-4 pullback has 4x4 minors of the basis matrix as entries
        full = wedge(6, 2, 2, u, v)
        basis = W.basis
        value = 0
        for quad, c in zip(wedge_basis(6, 4), full):
            if c == 0:
                continue
            sub = [[basis[a][i] for a in range(4)] for i in quad]
            value += c * determinant(sub)
        assert lhs == [value]


class TestPoincareDual:
    def test_factor_dual_is_complementary_volume(self, pair):
        A, _, _ = pair
        W = subtorus(A, [(1, 0, 0, 0), (0, 1, 0, 0)])
        dual = poincare_dual(A, W)
        assert dual in (unit(4, (2, 3)), neg(unit(4, (2, 3))))

    def test_full_lattice_gives_unit(self, pair):
        A, _, _ = pair
        W = subtorus(A, [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)])
        assert poincare_dual(A, W) == [1]

    def test_transverse_intersection(self, triple):
        # [W] ^ [W'] = +/- [W intersect W'] for factor sublattices
        A = triple
        W12 = coordinate_sublattice(A, (0, 1))
        W23 = coordinate_sublattice(A, (1, 2))
        W2 = coordinate_sublattice(A, (1,))
        lhs = wedge(6, 2, 2, poincare_dual(A, W12), poincare_dual(A, W23))
        rhs = poincare_dual(A, W2)
        assert lhs == rhs or lhs == neg(rhs)
        assert any(lhs)


class TestLambdaDefect:
    def test_full_ns_recovers_defect(self, pair):
        A, _, _ = pair
        f1, f2 = fiber_form(A, 0), fiber_form(A, 1)
        D = f1 + f2
        assert lambda_defect(A, ns_basis(A), D) == defect_of_class(A, D)

    def test_isotropic_singleton(self, pair):
        A, _, _ = pair
        f2 = fiber_form(A, 1)
        assert not any(wedge(4, 2, 2, f2.pair_num(), f2.pair_num()))
        assert lambda_defect(A, [f2], f2) == 1

    def test_ample_class_never_dies(self, pair):
        A, _, _ = pair
        h = fiber_form(A, 0) + fiber_form(A, 1)
        f2 = fiber_form(A, 1)
        assert any(wedge(4, 2, 2, h.pair_num(), f2.pair_num()))
        assert lambda_defect(A, [h], f2) == 0

    def test_span_not_list_presentation(self, pair):
        A, _, _ = pair
        f1, f2 = fiber_form(A, 0), fiber_form(A, 1)
        D = f1 + f2
        once = lambda_defect(A, [f1, f2], D)
        doubled = lambda_defect(A, [f1, f2, f1 + f2, 2 * f1], D)
        assert once == doubled

    def test_non_ns_member_rejected(self, pair):
        A, _, _ = pair
        rows = [[0] * 4 for _ in range(4)]
        rows[0][2], rows[2][0] = 1, -1
        with pytest.raises(NotHodgeClass, match="inside NS"):
            lambda_defect(A, [AlternatingForm(A, rows)], fiber_form(A, 1))


class TestVoisinKernelEquality:
    def test_kernels_agree_on_divisor_subtori(self, triple):
        from lefdefect.checks import cup_dual_kernel_on_ns, restriction_kernel_on_ns
        from lefdefect.torus import coordinate_factor_sublattices

        for _, W in coordinate_factor_sublattices(triple, corank=2):
            k1 = restriction_kernel_on_ns(triple, W)
            k2 = cup_dual_kernel_on_ns(triple, W)
            assert k1 == k2

    def test_check_fails_on_a_different_span_of_the_same_dimension(self, triple, monkeypatch):
        # A canonical kernel basis with as many vectors as the true one but
        # another span must fail the check: equal dimensions are not enough.
        from lefdefect import checks
        from lefdefect.exactmath import kernel_basis

        rho = ns_rank(triple)
        true_kernel = checks.cup_dual_kernel_on_ns

        def other_span(A, W):
            kernel = true_kernel(A, W)
            d = len(kernel)
            assert 0 < d < rho
            units = [[int(i == j) for j in range(rho)] for i in range(rho)]
            # The spans of the last d and of the first d unit vectors differ,
            # so at least one of them is not the kernel.
            return next(other for other in (kernel_basis(units[:rho - d]), kernel_basis(units[d:]))
                        if other != kernel)

        monkeypatch.setattr(checks, "cup_dual_kernel_on_ns", other_span)
        result = checks.check_voisin(triple)
        assert result.status == "fail"
        assert "kernels differ for factor subset" in result.detail
