import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefdefect.exactmath import complement_data, kernel_basis, rank, saturate
from lefdefect.exactmath import lattice
from lefdefect.exactmath.lattice import column_hnf

from references import lattice_index, saturation_holds, unimodular


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


class TestSaturate:
    def test_scaled_generator(self):
        assert saturate([(2, 0)], 2) == [(1, 0)]

    def test_diagonal_vector(self):
        assert saturate([(2, 2)], 2) == [(1, 1)]

    def test_already_saturated_keeps_span(self):
        cols = [(1, 0, 1), (0, 1, 1)]
        sat = saturate(cols, 3)
        assert saturation_holds(cols, sat, 3)
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
        unique = [c for c in cols if any(x != 0 for x in c)]
        if not unique:
            return
        if rank(unique) < len(unique):
            return
        sat = saturate(unique, 3)
        assert saturation_holds(unique, sat, 3)
        assert saturate(sat, 3) == sat


def _mix(columns, rng):
    """The columns times a random unimodular matrix: another basis of the
    same lattice."""
    U, _ = unimodular(len(columns), rng) if len(columns) > 1 else ([[1]], None)
    return [tuple(sum(columns[k][i] * U[k][j] for k in range(len(columns)))
                  for i in range(len(columns[0]))) for j in range(len(columns))]


def _unit_pivot_columns(rng, N, r):
    """A basis whose Hermite form has unit pivots: column j is 1 at the
    j-th of r random rows, 0 above it and random below, mixed."""
    rows = sorted(rng.sample(range(N), r))
    cols = [tuple(0 if i < p else 1 if i == p else rng.randint(-3, 3) for i in range(N))
            for p in rows]
    return _mix(cols, rng)


def _unit_pivots(columns, N):
    return all(next(x for x in c if x) == 1 for c in column_hnf(columns, N))


@st.composite
def column_sets(draw):
    """(kind, columns, N): a basis with unit Hermite pivots, a saturated
    basis of a proper sublattice (the last columns of a unimodular matrix;
    their Hermite pivots exceed 1 in about two draws of three), such a
    basis with columns scaled (not saturated when a factor exceeds 1), or a
    basis with an integer combination of its columns appended
    (dependent)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["unit", "saturated", "scaled", "dependent"]))
    if kind == "unit":
        N = draw(st.integers(1, 5))
        return kind, _unit_pivot_columns(rng, N, draw(st.integers(1, N))), N
    N = draw(st.integers(2, 5))
    r = draw(st.integers(1, N - 1))
    U, _ = unimodular(N, rng, steps=draw(st.integers(4, 12)))
    cols = [tuple(row[j] for row in U) for j in range(N - r, N)]
    if kind == "scaled":
        cols = [tuple(k * x for x in c) for k, c in zip(
            draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)), cols)]
    elif kind == "dependent":
        weights = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        cols.append(tuple(sum(w * c[i] for w, c in zip(weights, cols)) for i in range(N)))
    return kind, _mix(cols, rng), N


class TestSaturateRoutes:
    """`saturate` returns the Hermite basis of the columns when its pivots
    are 1 and otherwise takes the kernel of the kernel of W^T; on every
    input its answer must have the properties that fix the saturation
    (`saturation_holds`), and dependent columns must raise."""

    @given(column_sets())
    @settings(max_examples=200, deadline=None)
    def test_random_column_sets(self, case):
        kind, cols, N = case
        if kind == "dependent":
            with pytest.raises(ValueError, match="not a sublattice basis"):
                saturate(cols, N)
            return
        if kind == "unit":
            assert _unit_pivots(cols, N)
        sat = saturate(cols, N)
        assert saturation_holds(cols, sat, N)
        if kind != "scaled":
            assert sat == column_hnf(cols, N)

    @pytest.mark.parametrize("cols, N, split", [
        ([(1, 0, 5), (0, 1, 7)], 3, False),
        ([(2, 1, 0), (3, 1, 4)], 3, False),  # Hermite pivots 1, 1
        ([(2, 3)], 2, True),  # saturated, pivot 2
        ([(2, 3, 0), (0, 0, 1)], 3, True),
        ([(0, 3, 5, 1), (1, 0, 0, 0)], 4, True),
        ([(2, 6)], 2, True),  # not saturated
        ([(2, 0), (0, 3)], 2, True),
    ])
    def test_split_only_without_unit_pivots(self, monkeypatch, cols, N, split):
        """Both `saturate` and `complement_data` eliminate only when the
        Hermite basis has a pivot above 1."""
        calls = []
        hermite_split = lattice._hermite_split

        def counted(rows, n):
            calls.append(rows)
            return hermite_split(rows, n)

        monkeypatch.setattr(lattice, "_hermite_split", counted)
        sat = saturate(cols, N)
        assert saturation_holds(cols, sat, N)
        assert bool(calls) == split
        calls.clear()
        if lattice_index(cols, sat) == 1:
            complement_data(cols, N)
        else:
            with pytest.raises(ValueError, match="not saturated"):
                complement_data(cols, N)
        assert bool(calls) == split

    @pytest.mark.parametrize("cols, N", [
        ([(1, 2), (2, 4)], 2),
        ([(1, 0, 0), (0, 0, 0)], 3),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),
        ([(1,), (0,)], 1),  # more columns than the ambient rank
        ([(1, 0), (0, 1), (1, 1)], 2),
    ])
    def test_dependent_columns_rejected_on_both_routes(self, cols, N):
        for route in (saturate, complement_data):
            with pytest.raises(ValueError, match="not a sublattice basis"):
                route(cols, N)


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

    def test_more_columns_than_ambient_rank_rejected(self):
        with pytest.raises(ValueError, match="not a sublattice basis"):
            complement_data([(1,), (0,)], 1)

    def test_unsaturated_rejected(self):
        with pytest.raises(ValueError, match="not saturated"):
            complement_data([(2, 0)], 2)

    @given(column_sets())
    @settings(max_examples=150, deadline=None)
    def test_drawn_saturated_lattices(self, case):
        """On the saturation W of drawn columns of rank r < N, with unit
        Hermite pivots or not: P W = 0, P S = I, P is (N-r) x N and S is
        N x (N-r), and the saturated kernel of P is W again."""
        kind, cols, N = case
        if kind == "dependent" or len(cols) == N:
            return
        W = saturate(cols, N)
        P, S = complement_data(W, N)
        r = len(W)
        assert len(P) == N - r and all(len(row) == N for row in P)
        assert len(S) == N and all(len(row) == N - r for row in S)
        assert _matmul(P, [list(row) for row in zip(*W)]) == [[0] * r for _ in range(N - r)]
        assert _matmul(P, S) == [[int(i == j) for j in range(N - r)] for i in range(N - r)]
        assert saturate(kernel_basis(P), N) == W
