"""Lie algebra structure: validation, brackets, ad, and derived invariants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    algebra_metric_pairs,
    bracket_tables,
    brackets_oracle,
    congruence_diagonalize,
    fraction_change_of_basis,
    fraction_jacobi,
    matrices,
    vectors,
)
from lieconf import (
    DimensionMismatch,
    JacobiViolation,
    LieAlgebra,
    Matrix,
    SingularMatrix,
    Subspace,
    det,
    instantiate,
    inverse,
    sampling,
)


def _heisenberg() -> LieAlgebra:
    return LieAlgebra(3, {(0, 1): (0, 0, 1)})


def _affine() -> LieAlgebra:
    return LieAlgebra(2, {(0, 1): (0, 1)})


class TestValidation:
    def test_jacobi_violation_reported_with_triple_and_residual(self):
        with pytest.raises(JacobiViolation) as exc:
            LieAlgebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
        assert exc.value.indices == (0, 1, 2)
        assert exc.value.residual == (Fraction(0), Fraction(0), Fraction(-1))

    @given(bracket_tables())
    @settings(max_examples=150, deadline=None)
    def test_jacobi_check_matches_fraction_oracle(self, case):
        dim, table = case
        expected = fraction_jacobi(dim, table)
        if expected is None:
            LieAlgebra(dim, table)
            return
        with pytest.raises(JacobiViolation) as exc:
            LieAlgebra(dim, table)
        assert (exc.value.indices, exc.value.residual) == expected

    def test_bad_key_order_rejected(self):
        with pytest.raises(DimensionMismatch):
            LieAlgebra(2, {(1, 0): (0, 1)})

    def test_bad_coordinate_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            LieAlgebra(2, {(0, 1): (0, 1, 0)})

    def test_zero_brackets_dropped(self):
        g = LieAlgebra(2, {(0, 1): (0, 0)})
        assert g.structure_table() == {}

    def test_immutable(self):
        g = _heisenberg()
        with pytest.raises(AttributeError):
            g.dim = 5


class TestBracket:
    def test_table_and_flip(self):
        g = _heisenberg()
        assert g.bracket_basis(0, 1) == (Fraction(0), Fraction(0), Fraction(1))
        assert g.bracket_basis(1, 0) == (Fraction(0), Fraction(0), Fraction(-1))
        assert g.bracket_basis(1, 1) == (Fraction(0),) * 3

    def test_bilinear_extension(self):
        g = _affine()
        assert g.bracket((2, 0), (0, 3)) == (Fraction(0), Fraction(6))
        assert g.bracket((1, 1), (1, 1)) == (Fraction(0), Fraction(0))

    @given(algebra_metric_pairs(), vectors(4), vectors(4), vectors(4))
    @settings(max_examples=50)
    def test_bilinearity_and_antisymmetry(self, pair, xs, ys, zs):
        g, _ = pair
        x, y, z = (v[: g.dim] for v in (xs, ys, zs))
        left = g.bracket([a + b for a, b in zip(x, y)], z)
        split = [a + b for a, b in zip(g.bracket(x, z), g.bracket(y, z))]
        assert list(left) == split
        assert list(g.bracket(x, y)) == [-c for c in g.bracket(y, x)]
        assert all(c == 0 for c in g.bracket(x, x))

    @given(algebra_metric_pairs())
    @settings(max_examples=40)
    def test_ad_matches_independent_reconstruction(self, pair):
        g, _ = pair
        for k, oracle in enumerate(brackets_oracle(g)):
            ours = g.ad([1 if i == k else 0 for i in range(g.dim)])
            assert [
                [Fraction(int(c.p), int(c.q)) for c in oracle.row(i)]
                for i in range(g.dim)
            ] == ours.row_lists()


class TestAd:
    def test_affine_ad(self):
        g = _affine()
        assert g.ad((1, 0)) == Matrix.from_rows([[0, 0], [0, 1]])
        assert g.ad((0, 1)) == Matrix.from_rows([[0, 0], [-1, 0]])

    def test_trace_and_unimodularity(self):
        assert _affine().trace_ad((1, 0)) == 1
        assert not _affine().is_unimodular
        assert _heisenberg().is_unimodular
        for name in ("so3", "sl2"):
            g, _ = instantiate(name)
            assert g.is_unimodular
        g, _ = instantiate("nonuni3", {"alpha": 1})
        assert not g.is_unimodular
        # [e1, e3] = e1 + beta e2 and [e2, e3] = 2 e2, so ad_{e3} acts by the
        # negatives of those coefficients.
        assert g.trace_ad((0, 0, 1)) == -3

    @given(algebra_metric_pairs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_columns_match_bracket(self, pair, data):
        # column j of ad_x is [x, e_j] through the generic bilinear bracket
        g, _ = pair
        n = g.dim
        x = data.draw(vectors(n))
        ad = g.ad(x)
        for j in range(n):
            assert ad.column(j) == g.bracket(x, tuple(int(i == j) for i in range(n)))

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            _heisenberg().ad((1, 0))


class TestInvariantSubspaces:
    def test_heisenberg_center_and_commutator(self):
        g = _heisenberg()
        assert g.center() == Subspace.span(3, [[0, 0, 1]])
        assert g.commutator_ideal() == Subspace.span(3, [[0, 0, 1]])

    def test_nonuni3_commutator_is_plane(self):
        g, _ = instantiate("nonuni3", {"alpha": 1, "beta": 2})
        assert g.commutator_ideal() == Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        assert g.center().is_zero()

    def test_abelian(self):
        g, _ = instantiate("abelian", {"n": 3})
        assert g.center() == Subspace.full(3)
        assert g.commutator_ideal().is_zero()

    def test_simple_algebras_have_full_commutator(self):
        for name in ("so3", "sl2"):
            g, _ = instantiate(name)
            assert g.commutator_ideal() == Subspace.full(3)
            assert g.center().is_zero()


class TestChangeOfBasis:
    def test_bracket_covariance(self):
        g = _heisenberg()
        s = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
        h = g.change_of_basis(s)
        sinv = inverse(s)
        for i in range(3):
            for j in range(3):
                u = s.column(i)
                v = s.column(j)
                expected = sinv.apply(g.bracket(u, v))
                assert h.bracket_basis(i, j) == tuple(expected)

    def test_invariants_preserved(self):
        g, _ = instantiate("nonuni3", {"alpha": 2, "beta": 1})
        s = Matrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 0, 1]])
        h = g.change_of_basis(s)
        assert h.is_unimodular == g.is_unimodular
        assert h.commutator_ideal().dim == g.commutator_ideal().dim
        assert h.center().dim == g.center().dim

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            _heisenberg().change_of_basis(Matrix.zeros(3, 3))

    @staticmethod
    def _assert_matches_oracle(g: LieAlgebra, s: Matrix) -> None:
        h, oracle = g.change_of_basis(s), fraction_change_of_basis(g, s)
        assert h.structure_table() == oracle.structure_table()
        assert list(h.structure_table()) == list(oracle.structure_table())
        assert (h.den, h.ints) == (oracle.den, oracle.ints)

    @given(algebra_metric_pairs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_oracle_for_integer_s(self, pair, seed):
        g, _ = pair
        self._assert_matches_oracle(g, sampling.random_invertible(random.Random(seed), g.dim))

    @given(algebra_metric_pairs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_oracle_for_rational_s(self, pair, data):
        g, m = pair
        # the s that diagonalizes the metric by congruence, and a drawn one
        self._assert_matches_oracle(g, congruence_diagonalize(m.gram)[1])
        s = data.draw(matrices(min_dim=g.dim, max_dim=g.dim, square=True))
        if det(s) != 0:
            self._assert_matches_oracle(g, s)


class TestGradedFamilies:
    def test_diagonal_action_is_diagonal(self):
        g, _ = instantiate("diagonalN", {"n": 4, "lambda1": 1, "lambda2": 2, "lambda3": 3})
        assert g.ad((0, 0, 0, 1)) == Matrix.diagonal([1, 2, 3, 0])
        assert not g.is_unimodular

    def test_graded_bracket_scaling(self):
        # With a nonzero bracket on the first two directions, the grading
        # operator e_n must scale [e_i, e_j] by lambda_i + lambda_j.
        g, _ = instantiate(
            "gradedN",
            {
                "n": 4,
                "lambda1": Fraction(3, 2),
                "lambda2": Fraction(3, 2),
                "lambda3": 3,
                "beta12": 1,
            },
        )
        n = g.dim
        en = [0, 0, 0, 1]
        for i in range(n - 2):
            for j in range(i + 1, n - 2):
                w = g.bracket_basis(i, j)
                lam = Fraction(3, 2) + Fraction(3, 2)
                assert g.bracket(en, w) == tuple(lam * c for c in w)
