"""Exact linear algebra core: frozen examples and algebraic invariants."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    congruence_diagonalize,
    matrices,
    rationals,
    symmetric_matrices,
    sympy_det,
    sympy_inertia,
    sympy_nullspace,
    sympy_rank,
    to_sympy,
)
from lieconf import (
    DimensionMismatch,
    Matrix,
    NotSymmetric,
    SingularMatrix,
    Subspace,
    det,
    frac,
    inverse,
    kernel,
    rank,
    rref,
    signature,
)


class TestFrac:
    def test_parses_integers_strings_fractions(self):
        assert frac(3) == Fraction(3)
        assert frac("3/4") == Fraction(3, 4)
        assert frac("-5") == Fraction(-5)
        assert frac(Fraction(1, 2)) == Fraction(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.5)

    def test_exponent_magnitude_bounded(self):
        assert frac("1e3") == Fraction(1000)
        assert frac(" -3/2 ") == Fraction(-3, 2)
        assert frac("5e-4300") == Fraction(5, 10**4300)
        for bad in ("1e4301", "1E-5000", "1e+0000000005000", "1e999999999", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="exceeds 4300"):
                frac(bad)


class TestKernel:
    def test_identity_has_zero_kernel(self):
        assert kernel(Matrix.identity(2)) == Subspace.zero(2)

    def test_rank_one_symmetric(self):
        m = Matrix.from_rows([[1, 1], [1, 1]])
        assert kernel(m).basis == ((Fraction(1), Fraction(-1)),)

    def test_three_unknown_system(self):
        # {2 x2 = 0, -x1 - 2 x3 = 0} in unknowns (x1, x2, x3)
        m = Matrix.from_rows([[0, 2, 0], [-1, 0, -2]])
        assert kernel(m).basis == ((Fraction(1), Fraction(0), Fraction(-1, 2)),)

    @given(matrices())
    @settings(max_examples=80)
    def test_kernel_vectors_annihilate(self, m):
        space = kernel(m)
        for v in space.basis:
            assert all(c == 0 for c in m.apply(v))

    @given(matrices())
    @settings(max_examples=80)
    def test_rank_nullity(self, m):
        assert rank(m) + kernel(m).dim == m.cols

    @given(matrices())
    @settings(max_examples=50)
    def test_kernel_is_canonical_and_matches_sympy(self, m):
        space = kernel(m)
        assert kernel(m) == space  # bit-identical rerun
        oracle = sympy_nullspace(m)
        assert len(oracle) == space.dim
        for v in oracle:
            assert space.contains(v)


class TestRank:
    def test_zero_matrix(self):
        assert rank(Matrix.zeros(3, 3)) == 0

    def test_identity(self):
        assert rank(Matrix.identity(4)) == 4

    def test_proportional_rows(self):
        assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1

    @given(matrices())
    @settings(max_examples=60)
    def test_matches_sympy(self, m):
        assert rank(m) == sympy_rank(m)


class TestInverse:
    def test_involution(self):
        m = Matrix.from_rows([[0, 1], [1, 0]])
        assert inverse(m) == m

    def test_diagonal(self):
        assert inverse(Matrix.diagonal([1, 1, -1])) == Matrix.diagonal([1, 1, -1])
        assert inverse(Matrix.diagonal([2, Fraction(1, 2)])) == Matrix.diagonal(
            [Fraction(1, 2), 2]
        )

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            inverse(Matrix.from_rows([[1, 1], [1, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            inverse(Matrix.zeros(2, 3))

    @given(matrices(square=True))
    @settings(max_examples=60)
    def test_exact_inverse(self, m):
        if det(m) == 0:
            with pytest.raises(SingularMatrix):
                inverse(m)
        else:
            assert m @ inverse(m) == Matrix.identity(m.rows)
            assert inverse(m) @ m == Matrix.identity(m.rows)


class TestDet:
    def test_known_values(self):
        assert det(Matrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det(Matrix.identity(3)) == 1
        assert det(Matrix.from_rows([[Fraction(1, 2), 0], [7, Fraction(2, 3)]])) == Fraction(1, 3)

    @given(matrices(square=True))
    @settings(max_examples=60)
    def test_matches_sympy(self, m):
        assert det(m) == sympy_det(m)

    @given(matrices(square=True, max_dim=3), matrices(square=True, max_dim=3))
    @settings(max_examples=40)
    def test_multiplicative(self, a, b):
        if a.rows == b.rows:
            assert det(a @ b) == det(a) * det(b)


class TestSignature:
    def test_diagonal(self):
        assert signature(Matrix.diagonal([1, 1, -1])) == (2, 1, 0)

    def test_hyperbolic_pair(self):
        assert signature(Matrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_split_plus_null_pair(self):
        m = Matrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        )
        assert signature(m) == (3, 1, 0)

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetric):
            signature(Matrix.from_rows([[0, 1], [0, 0]]))

    def test_degenerate_counted(self):
        assert signature(Matrix.from_rows([[1, 1], [1, 1]])) == (1, 0, 1)

    @pytest.mark.parametrize(
        ("rows", "inertia"),
        [
            # zero diagonal throughout: a row/column pair is added
            ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (1, 1, 1)),
            ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),
            ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], (1, 1, 1)),
            # a zero first row and column is one zero direction
            ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (1, 1, 1)),
            ([[0, 0], [0, 0]], (0, 0, 2)),
            # zero first pivot, a later nonzero diagonal entry to swap in
            ([[0, 1], [1, -3]], (1, 1, 0)),
            ([[0, 2, 0], [2, 0, 0], [0, 0, -3]], (1, 2, 0)),
            # rational entries, cleared once
            ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 5)]], (1, 1, 0)),
            ([[Fraction(-1, 6)]], (0, 1, 0)),
        ],
    )
    def test_zero_pivots_and_fractions(self, rows, inertia):
        m = Matrix.from_rows(rows)
        assert signature(m) == inertia == sympy_inertia(m)

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n)))
    @settings(max_examples=80, deadline=None)
    def test_sparse_matches_charpoly_oracle(self, flat):
        # entries in {-1, 0, 1} hit zero pivots and degenerate matrices often
        n = int(len(flat) ** 0.5)
        rows = [[flat[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
        m = Matrix.from_rows(rows)
        assert tuple(signature(m)) == sympy_inertia(m)

    @given(symmetric_matrices())
    @settings(max_examples=60)
    def test_matches_charpoly_oracle(self, m):
        assert tuple(signature(m)) == sympy_inertia(m)

    @given(symmetric_matrices())
    @settings(max_examples=60)
    def test_congruence_transform_is_exact(self, m):
        d, s = congruence_diagonalize(m)
        assert s.transpose() @ m @ s == Matrix.diagonal(d)

    @given(symmetric_matrices(max_dim=4), matrices(square=True, max_dim=4))
    @settings(max_examples=60)
    def test_congruence_invariance(self, m, s):
        if s.rows == m.rows and det(s) != 0:
            assert signature(s.transpose() @ m @ s) == signature(m)


class TestRref:
    def test_idempotent(self):
        m = Matrix.from_rows([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert reduced == again
        assert pivots == pivots2

    @given(matrices())
    @settings(max_examples=60)
    def test_idempotent_random(self, m):
        reduced, _ = rref(m)
        assert rref(reduced)[0] == reduced

    @given(matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, m, data):
        # two extra rows at drawn positions: a rational combination of the
        # rows (so the matrix is rank-deficient) and a zero row
        coeffs = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
        rows = m.row_lists()
        for extra in (
            [sum((c * r[j] for c, r in zip(coeffs, m.row_lists())), Fraction(0)) for j in range(m.cols)],
            [Fraction(0)] * m.cols,
        ):
            rows.insert(data.draw(st.integers(0, len(rows))), extra)
        stacked = Matrix.from_rows(rows)
        reduced, pivots = rref(stacked)
        expected, expected_pivots = to_sympy(stacked).rref()
        assert pivots == expected_pivots
        assert reduced.row_lists() == [
            [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(expected.rows)
        ]


class TestSubspace:
    def test_span_is_canonical(self):
        a = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
        b = Subspace.span(3, [[2, 2, 0], [1, 2, 1], [1, 0, -1]])
        assert a == b

    def test_zero_subspace(self):
        s = Subspace.span(3, [[0, 0, 0]])
        assert s.is_zero()
        assert s == Subspace.zero(3)
        assert s.dim == 0

    def test_contains(self):
        s = Subspace.span(3, [[1, 0, 1], [0, 1, 0]])
        assert s.contains([2, 3, 2])
        assert not s.contains([1, 0, 0])
        assert s.contains([0, 0, 0])

    def test_full(self):
        assert Subspace.full(3).dim == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.span(2, [[1, 2, 3]])

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4), rationals)
    @settings(max_examples=60)
    def test_span_invariant_under_scaling_and_shuffling(self, vectors, scale):
        s = Subspace.span(3, vectors)
        scaled = [[scale * c for c in v] for v in vectors]
        assert Subspace.span(3, list(reversed(scaled + vectors))) == s
        if scale != 0:
            assert Subspace.span(3, list(reversed(scaled))) == s
