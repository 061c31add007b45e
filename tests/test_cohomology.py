import random
from fractions import Fraction

import pytest

from lefdefect.cohomology import (
    ExteriorClass,
    class_of_form,
    cup_matrix,
    defect_of_class,
    lambda_defect,
    poincare_dual,
    restriction_map,
    wedge,
    wedge_basis,
)
from lefdefect.errors import NotHodgeClass
from lefdefect.exactmath import QMatrix, rank
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
        e1 = ExteriorClass.basis_element(4, (0,))
        e2 = ExteriorClass.basis_element(4, (1,))
        assert wedge(e1, e2) == ExteriorClass.basis_element(4, (0, 1))

    def test_antisymmetry(self):
        e1 = ExteriorClass.basis_element(4, (0,))
        e2 = ExteriorClass.basis_element(4, (1,))
        assert wedge(e2, e1) == -wedge(e1, e2)

    def test_square_is_zero(self):
        e1 = ExteriorClass.basis_element(4, (0,))
        assert wedge(e1, e1).is_zero()

    def test_overflow_degree(self):
        top = ExteriorClass.basis_element(4, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="top degree"):
            wedge(top, ExteriorClass.basis_element(4, (0,)))

    def _random_class(self, rng, N, degree):
        coords = [rng.randint(-3, 3) for _ in wedge_basis(N, degree)]
        return ExteriorClass(N, degree, coords)

    def test_graded_commutativity(self):
        rng = random.Random(7)
        for _ in range(10):
            p, q = rng.choice([(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)])
            u = self._random_class(rng, 6, p)
            v = self._random_class(rng, 6, q)
            sign = (-1) ** (p * q)
            assert wedge(u, v) == sign * wedge(v, u)

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(10):
            u = self._random_class(rng, 6, 1)
            v = self._random_class(rng, 6, 2)
            w = self._random_class(rng, 6, 1)
            assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))

    def test_bilinearity(self):
        rng = random.Random(13)
        u = self._random_class(rng, 6, 2)
        v = self._random_class(rng, 6, 2)
        w = self._random_class(rng, 6, 2)
        assert wedge(u + v, w) == wedge(u, w) + wedge(v, w)


class TestClassOfForm:
    def test_standard_symplectic(self):
        E = elliptic(0, 1)
        form = AlternatingForm(E, [[0, 1], [-1, 0]])
        cls = class_of_form(form)
        assert cls == ExteriorClass.basis_element(2, (0, 1))

    def test_zero_form(self, pair):
        A, _, _ = pair
        zero = AlternatingForm(A, [[0] * 4 for _ in range(4)])
        assert class_of_form(zero).is_zero()

    def test_linearity(self, pair):
        A, _, _ = pair
        f1, f2 = fiber_form(A, 0), fiber_form(A, 1)
        assert class_of_form(f1 + f2) == class_of_form(f1) + class_of_form(f2)


class TestCupMatrix:
    def test_dimension_one_rejected(self):
        E = elliptic(0, 1)
        form = AlternatingForm(E, [[0, 1], [-1, 0]])
        with pytest.raises(ValueError, match="H\\^4 trivial"):
            cup_matrix(E, class_of_form(form))

    def test_basis_image(self, pair):
        A, _, _ = pair
        e12 = ExteriorClass.basis_element(4, (0, 1))
        M = cup_matrix(A, e12)
        image = M.apply(ExteriorClass.basis_element(4, (2, 3)).coords)
        assert ExteriorClass(4, 4, image) == ExteriorClass.basis_element(4, (0, 1, 2, 3))

    def test_zero_class(self, pair):
        A, _, _ = pair
        M = cup_matrix(A, ExteriorClass.zero(4, 2))
        assert all(x == 0 for row in M.rows for x in row)

    def test_linearity_in_the_class(self, pair):
        A, _, _ = pair
        e = class_of_form(fiber_form(A, 0) + fiber_form(A, 1))
        M1 = cup_matrix(A, e)
        M2 = cup_matrix(A, 2 * e)
        assert all(
            2 * a == b for r1, r2 in zip(M1.rows, M2.rows) for a, b in zip(r1, r2)
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
        diff = class_of_form(f1 - f2)
        total = class_of_form(f1 + f2)
        assert wedge(diff, total).is_zero()

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
        assert R == QMatrix.identity(6)

    def test_fiber_class_restricts_to_zero(self, pair):
        A, _, _ = pair
        W = subtorus(A, [(1, 0, 0, 0), (0, 1, 0, 0)])
        f2 = fiber_form(A, 1)
        assert all(x == 0 for x in restriction_map(A, W).apply(f2.pair_coords()))

    def test_rank_below_two_rejected(self, pair):
        A, _, _ = pair
        from lefdefect.torus import Sublattice

        with pytest.raises(ValueError, match="rank at least 2"):
            restriction_map(A, Sublattice(A, []))

    def test_ring_map_on_wedges(self, triple):
        # restriction commutes with wedge: pullback of a product of two
        # 2-classes equals the product of the pullbacks (degree-4 check)
        from lefdefect.exactmath.linalg import determinant

        A = triple
        W = coordinate_sublattice(A, (0, 1))  # rank 4
        R2 = restriction_map(A, W)
        u = class_of_form(fiber_form(A, 0))
        v = class_of_form(fiber_form(A, 1))
        ru = ExteriorClass(4, 2, R2.apply(u.coords))
        rv = ExteriorClass(4, 2, R2.apply(v.coords))
        lhs = wedge(ru, rv)
        # the degree-4 pullback has 4x4 minors of the basis matrix as entries
        full = wedge(u, v)
        basis = W.basis
        value = F(0)
        for quad, c in zip(wedge_basis(6, 4), full.coords):
            if c == 0:
                continue
            sub = [[basis[a][i] for a in range(4)] for i in quad]
            value += c * determinant(sub)
        assert lhs == ExteriorClass(4, 4, [value])


class TestPoincareDual:
    def test_factor_dual_is_complementary_volume(self, pair):
        A, _, _ = pair
        W = subtorus(A, [(1, 0, 0, 0), (0, 1, 0, 0)])
        dual = poincare_dual(A, W)
        assert dual in (
            ExteriorClass.basis_element(4, (2, 3)),
            -ExteriorClass.basis_element(4, (2, 3)),
        )

    def test_full_lattice_gives_unit(self, pair):
        A, _, _ = pair
        W = subtorus(A, [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)])
        assert poincare_dual(A, W) == ExteriorClass.unit(4)

    def test_transverse_intersection(self, triple):
        # [W] ^ [W'] = +/- [W intersect W'] for factor sublattices
        A = triple
        W12 = coordinate_sublattice(A, (0, 1))
        W23 = coordinate_sublattice(A, (1, 2))
        W2 = coordinate_sublattice(A, (1,))
        lhs = wedge(poincare_dual(A, W12), poincare_dual(A, W23))
        rhs = poincare_dual(A, W2)
        assert lhs == rhs or lhs == -rhs
        assert not lhs.is_zero()


class TestLambdaDefect:
    def test_full_ns_recovers_defect(self, pair):
        A, _, _ = pair
        f1, f2 = fiber_form(A, 0), fiber_form(A, 1)
        D = f1 + f2
        assert lambda_defect(A, ns_basis(A), D) == defect_of_class(A, D)

    def test_isotropic_singleton(self, pair):
        A, _, _ = pair
        f2 = fiber_form(A, 1)
        assert wedge(class_of_form(f2), class_of_form(f2)).is_zero()
        assert lambda_defect(A, [f2], f2) == 1

    def test_ample_class_never_dies(self, pair):
        A, _, _ = pair
        h = fiber_form(A, 0) + fiber_form(A, 1)
        f2 = fiber_form(A, 1)
        assert not wedge(class_of_form(h), class_of_form(f2)).is_zero()
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
        from lefdefect.checks import cup_dual_kernel_on_ns, restriction_kernel_on_ns, subspaces_equal
        from lefdefect.torus import coordinate_factor_sublattices

        for _, W in coordinate_factor_sublattices(triple, corank=2):
            k1 = restriction_kernel_on_ns(triple, W)
            k2 = cup_dual_kernel_on_ns(triple, W)
            assert subspaces_equal(k1, k2)
