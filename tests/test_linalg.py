from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdefect.exactmath import (
    RealNumberField,
    integer_rows,
    kernel_basis,
    primitive_integer_vector,
    rank,
    restrict_scalars,
)

from references import numeric_value, solve

F = Fraction


def apply(rows, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in rows)


class TestRankKernel:
    def test_identity(self):
        M = [[int(i == j) for j in range(3)] for i in range(3)]
        assert rank(M) == 3
        assert kernel_basis(M) == []

    def test_zero(self):
        M = [[0, 0, 0], [0, 0, 0]]
        assert rank(M) == 0
        assert len(kernel_basis(M)) == 3

    def test_rank_one(self):
        M = [[1, 1], [1, 1]]
        assert rank(M) == 1
        (v,) = kernel_basis(M)
        assert v[0] == -v[1] != 0

    def test_kernel_vectors_annihilate(self):
        M = [[1, 2, 3], [4, 5, 6]]
        for v in kernel_basis(M):
            assert all(x == 0 for x in apply(M, v))

    def test_fractions(self):
        M = [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]]
        assert rank(M) == 2
        singular = [[F(1, 2), F(1, 3)], [F(3, 2), F(1, 1)]]
        assert rank(singular) == 1
        assert integer_rows(singular) == [[3, 2], [3, 2]]
        assert integer_rows([[0, 1], [F(2), 4]]) == [[0, 1], [2, 4]]


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


sparse_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=8).flatmap(
        lambda cols: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@st.composite
def row_space_rewrites(draw):
    """A matrix of int and `Fraction` rows, and the same matrix after a few
    operations that keep its row space: a row permutation, a row rescaled by
    a nonzero rational, row_i += c * row_j (i != j), an appended zero row and
    an appended duplicate row."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.integers(min_value=-4, max_value=4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    rewritten = [list(r) for r in rows]
    nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    for op in draw(st.lists(st.sampled_from(["permute", "scale", "add", "zero", "duplicate"]),
                            min_size=1, max_size=4)):
        i = draw(st.integers(min_value=0, max_value=len(rewritten) - 1))
        if op == "permute":
            rewritten = draw(st.permutations(rewritten))
        elif op == "scale":
            c = draw(nonzero)
            rewritten[i] = [c * x for x in rewritten[i]]
        elif op == "add" and len(rewritten) > 1:
            j = draw(st.integers(min_value=0, max_value=len(rewritten) - 2))
            j += j >= i
            c = draw(st.one_of(st.integers(min_value=-3, max_value=3), nonzero))
            rewritten[i] = [x + c * y for x, y in zip(rewritten[i], rewritten[j])]
        elif op == "zero":
            rewritten.append([0] * ncols)
        elif op == "duplicate":
            rewritten.append(list(rewritten[i]))
    return rows, rewritten


class TestRankNullity:
    @given(row_space_rewrites())
    @settings(max_examples=120, deadline=None)
    def test_kernel_basis_depends_only_on_row_space(self, pair):
        # The contract `check_voisin` compares kernels by: the canonical
        # basis is a function of the kernel, so equal spans give equal lists.
        rows, rewritten = pair
        assert kernel_basis(rows) == kernel_basis(rewritten)

    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_rank_plus_nullity(self, rows):
        assert rank(rows) + len(kernel_basis(rows)) == len(rows[0])

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_annihilates(self, rows):
        for v in kernel_basis(rows):
            assert all(x == 0 for x in apply(rows, v))

    @given(sparse_matrices)
    @settings(max_examples=120, deadline=None)
    def test_kernel_basis_is_in_echelon_form(self, rows):
        # The contract `ns_coordinates` reads coordinates off: each vector's
        # last nonzero entry is positive, and every other vector is 0 in that
        # slot.  The vectors are primitive integer vectors.
        basis = kernel_basis(rows)
        slots = [max(i for i, x in enumerate(v) if x) for v in basis]
        assert all(v[f] > 0 for v, f in zip(basis, slots))
        assert all(primitive_integer_vector(v) == v for v in basis)
        for k, f in enumerate(slots):
            assert all(v[f] == 0 for j, v in enumerate(basis) if j != k)


class TestRestrictScalars:
    def test_alpha_entry(self, sqrt2_field):
        a = sqrt2_field.alpha()
        R = restrict_scalars(sqrt2_field, [[a]])
        assert R == [[F(0)], [F(1)]]

    def test_rational_matrix_stacks_zero_blocks(self, sqrt2_field):
        R = restrict_scalars(sqrt2_field, [[2, 3]])
        assert R == [[F(2), F(3)], [F(0), F(0)]]

    def test_alpha_minus_two_invertible(self, sqrt2_field):
        a = sqrt2_field.alpha()
        R = restrict_scalars(sqrt2_field, [[a - 2]])
        assert kernel_basis(R) == []

    @given(st.lists(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                 min_size=3, max_size=3),
        min_size=2, max_size=3,
    ))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_numeric(self, raw):
        # Rational kernel of a K-matrix equals the kernel via restriction of
        # scalars; cross-check by plugging in a 60-digit numeric alpha.
        field = RealNumberField([-2, 0, 1], (1, 2))
        rows = [[field.element(list(pair)) for pair in row] for row in raw]
        vectors = kernel_basis(restrict_scalars(field, rows))
        with mpmath.workdps(60):
            alpha = mpmath.sqrt(2)
            for v in vectors:
                for row in rows:
                    value = mpmath.fsum(
                        numeric_value(entry, alpha) * mpmath.mpf(c.numerator) / c.denominator
                        for entry, c in zip(row, (F(x) for x in v))
                    )
                    assert abs(value) < mpmath.mpf(10) ** -40


class TestSolve:
    def test_consistent(self):
        M = [[1, 2], [3, 4]]
        x = solve(M, [5, 6])
        assert apply(M, x) == (F(5), F(6))

    def test_inconsistent(self):
        M = [[1, 1], [1, 1]]
        assert solve(M, [0, 1]) is None

    def test_underdetermined(self):
        M = [[1, 1]]
        x = solve(M, [3])
        assert sum(x) == 3


def test_primitive_integer_vector():
    assert primitive_integer_vector([F(2, 3), F(4, 3)]) == (1, 2)
    assert primitive_integer_vector([F(-4), F(6)]) == (-2, 3)
    with pytest.raises(ValueError):
        primitive_integer_vector([F(0), F(0)])
