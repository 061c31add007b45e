import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdefect.exactmath import (
    complement_data,
    is_saturated,
    saturate,
    smith_normal_form,
)

from references import lattice_index


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


class TestSmithNormalForm:
    @given(int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_decomposition(self, rows):
        diag, U, Uinv, V = smith_normal_form(rows)
        D = _matmul(_matmul(U, rows), V)
        n, m = len(rows), len(rows[0])
        for i in range(n):
            for j in range(m):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert D[i][j] == expected
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1
        eye = _matmul(U, Uinv)
        assert all(eye[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    @given(int_matrices)
    @settings(max_examples=150, deadline=None)
    def test_divisibility_chain(self, rows):
        diag, *_ = smith_normal_form(rows)
        nonzero = [d for d in diag if d != 0]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # zeros trail the chain
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


class TestSaturate:
    def test_scaled_generator(self):
        assert saturate([(2, 0)], 2) == [(1, 0)]

    def test_diagonal_vector(self):
        assert saturate([(2, 2)], 2) == [(1, 1)]

    def test_already_saturated_keeps_span(self):
        cols = [(1, 0, 1), (0, 1, 1)]
        sat = saturate(cols, 3)
        assert is_saturated(sat, 3)
        assert lattice_index(cols, sat) == 1

    def test_idempotent(self):
        cols = [(2, 4, 6), (0, 2, 2)]
        once = saturate(cols, 3)
        assert saturate(once, 3) == once

    def test_finite_index(self):
        cols = [(2, 0), (0, 3)]
        sat = saturate(cols, 2)
        assert lattice_index(cols, sat) == 6

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError, match="not a sublattice basis"):
            saturate([(1, 2), (2, 4)], 2)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
                    min_size=1, max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_saturation_is_saturated(self, cols):
        from lefdefect.exactmath import QMatrix, rank

        unique = [c for c in cols if any(x != 0 for x in c)]
        if not unique:
            return
        M = QMatrix([[c[i] for c in unique] for i in range(3)])
        if rank(M) < len(unique):
            return
        sat = saturate(unique, 3)
        assert is_saturated(sat, 3)
        assert saturate(sat, 3) == sat


class TestComplement:
    def test_projection_kills_sublattice(self):
        cols = [(1, 0, 2, 0), (0, 1, 0, 3)]
        sat = saturate(cols, 4)
        P, S = complement_data(sat, 4)
        for col in sat:
            image = [sum(P[i][j] * col[j] for j in range(4)) for i in range(2)]
            assert image == [0, 0]
        PS = _matmul(P, S)
        assert PS == [[1, 0], [0, 1]]

    def test_empty_basis(self):
        P, S = complement_data([], 3)
        assert P == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_unsaturated_rejected(self):
        with pytest.raises(ValueError, match="not saturated"):
            complement_data([(2, 0)], 2)
