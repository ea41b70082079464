"""Metric structure, Levi-Civita connection, and curvature."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (
    algebra_metric_pairs,
    milnor_scalar,
    orthogonal_complement,
    riemann_tensor,
    sympy_inertia,
)
from lieconf import (
    CausalCharacter,
    Degenerate,
    Matrix,
    NotSymmetric,
    PseudoMetric,
    Subspace,
    curvature,
    instantiate,
    inverse,
    levi_civita,
    lowered_structure,
)
from lieconf.exact import basis_vector

SPLIT3 = PseudoMetric.from_rows([[1, 0, 0], [0, 0, -1], [0, -1, 0]])


class TestPseudoMetric:
    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            PseudoMetric.from_rows([[1, 1], [1, 1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            PseudoMetric.from_rows([[1, 2], [0, 1]])

    def test_inner_products(self):
        assert SPLIT3.inner((0, 1, 0), (0, 0, 1)) == -1
        assert SPLIT3.inner((1, 0, 0), (1, 0, 0)) == 1
        assert SPLIT3.inner((0, 1, 0), (0, 1, 0)) == 0

    def test_signature(self):
        assert PseudoMetric.diagonal([1, 1, -1]).signature == (2, 1)
        assert SPLIT3.signature == (2, 1)
        assert PseudoMetric.from_rows([[0, 1], [1, 0]]).signature == (1, 1)

    def test_causal_character(self):
        lorentz = PseudoMetric.diagonal([1, 1, -1])
        assert lorentz.causal_character((1, 0, 0)) is CausalCharacter.SPACELIKE
        assert lorentz.causal_character((0, 0, 1)) is CausalCharacter.TIMELIKE
        assert lorentz.causal_character((1, 0, 1)) is CausalCharacter.LIGHTLIKE
        assert lorentz.causal_character((0, 0, 0)) is CausalCharacter.LIGHTLIKE
        assert SPLIT3.causal_character((0, 1, 0)) is CausalCharacter.LIGHTLIKE


class TestOrthogonalComplement:
    def test_null_line_is_its_own_complement(self):
        m = PseudoMetric.from_rows([[0, 1], [1, 0]])
        line = Subspace.span(2, [[0, 1]])
        assert orthogonal_complement(m, line) == line

    def test_definite_complement(self):
        m = PseudoMetric.diagonal([1, 1, -1])
        plane = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        assert orthogonal_complement(m, plane) == Subspace.span(3, [[0, 0, 1]])

    def test_zero_and_full(self):
        m = PseudoMetric.diagonal([1, -1])
        assert orthogonal_complement(m, Subspace.zero(2)) == Subspace.full(2)
        assert orthogonal_complement(m, Subspace.full(2)) == Subspace.zero(2)

    @given(algebra_metric_pairs())
    @settings(max_examples=40)
    def test_dimension_and_involution(self, pair):
        g, m = pair
        n = g.dim
        s = g.commutator_ideal()
        comp = orthogonal_complement(m, s)
        assert s.dim + comp.dim == n
        assert orthogonal_complement(m, comp) == s


class TestRestriction:
    def test_lorentz_plane_nondegenerate(self):
        m = PseudoMetric.diagonal([1, 1, -1])
        plane = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        assert not m.restriction_degenerate(plane)
        assert m.restricted_gram(plane) == Matrix.identity(2)

    def test_split_plane_degenerate(self):
        plane = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        assert SPLIT3.restricted_gram(plane) == Matrix.from_rows([[1, 0], [0, 0]])
        assert SPLIT3.restriction_degenerate(plane)

    def test_zero_subspace_not_degenerate(self):
        assert not SPLIT3.restriction_degenerate(Subspace.zero(3))

    @given(algebra_metric_pairs())
    @settings(max_examples=40)
    def test_degeneracy_matches_radical(self, pair):
        # The restriction is degenerate exactly when the subspace meets its
        # own orthogonal complement, measured here through dimensions:
        # dim(s) + dim(comp) - dim(s + comp) > 0.
        g, m = pair
        s = g.commutator_ideal()
        if s.is_zero():
            return
        comp = orthogonal_complement(m, s)
        joined = Subspace.span(g.dim, list(s.basis) + list(comp.basis))
        radical_dim = s.dim + comp.dim - joined.dim
        assert m.restriction_degenerate(s) == (radical_dim > 0)


class TestLoweredStructure:
    @given(algebra_metric_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_inner_products_of_brackets(self, pair):
        g, m = pair
        n = g.dim
        low = lowered_structure(g, m)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    expected = m.inner(g.bracket_basis(i, j), basis_vector(n, k))
                    assert Fraction(low.ints[i][j][k], low.den) == expected


class TestLeviCivita:
    def test_affine_connection(self):
        g, m = instantiate("affine2")
        conn = levi_civita(g, m)
        assert conn.table[0][0] == (Fraction(-1), Fraction(0))
        assert conn.table[0][1] == (Fraction(0), Fraction(1))
        assert conn.table[1][0] == (Fraction(0), Fraction(0))
        assert conn.table[1][1] == (Fraction(0), Fraction(0))

    def test_abelian_connection_vanishes(self):
        g, m = instantiate("abelian", {"n": 3, "p": 2})
        conn = levi_civita(g, m)
        assert all(
            all(c == 0 for c in conn.table[i][j])
            for i in range(3)
            for j in range(3)
        )

    def test_null_pair_table(self):
        g, m = instantiate("damekricci4", {"alpha": 2})
        conn = levi_civita(g, m)
        e = {k: tuple(Fraction(1 if i == k else 0) for i in range(4)) for k in range(4)}
        half = Fraction(1, 2)
        assert conn.table[0][0] == tuple(-half * c for c in e[2])
        assert conn.table[0][1] == e[2]
        assert conn.table[0][3] == tuple(-half * a + b for a, b in zip(e[0], e[1]))
        assert conn.table[1][3] == tuple(-a - half * b for a, b in zip(e[0], e[1]))
        assert all(all(c == 0 for c in conn.table[2][j]) for j in range(4))
        assert conn.table[3][0] == e[1]
        assert conn.table[3][1] == tuple(-c for c in e[0])
        assert conn.table[3][2] == e[2]
        assert conn.table[3][3] == tuple(-c for c in e[3])

    @given(algebra_metric_pairs())
    @settings(max_examples=40)
    def test_torsion_free(self, pair):
        g, m = pair
        conn = levi_civita(g, m)
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = [
                    a - b
                    for a, b in zip(conn.table[i][j], conn.table[j][i])
                ]
                assert lhs == list(g.bracket_basis(i, j))

    @given(algebra_metric_pairs())
    @settings(max_examples=40)
    def test_metric_compatible(self, pair):
        # Left-invariant inner products are constant, so differentiating
        # <e_j, e_k> along e_i must give zero.
        g, m = pair
        conn = levi_civita(g, m)
        basis = [[1 if i == k else 0 for i in range(g.dim)] for k in range(g.dim)]
        for i in range(g.dim):
            for j in range(g.dim):
                for k in range(g.dim):
                    total = m.inner(conn.table[i][j], basis[k]) + m.inner(
                        basis[j], conn.table[i][k]
                    )
                    assert total == 0


class TestCurvature:
    def test_abelian_flat(self):
        g, m = instantiate("abelian", {"n": 3})
        rep = curvature(g, m)
        riemann = riemann_tensor(g, levi_civita(g, m))
        assert rep.scalar == 0
        assert rep.ricci == Matrix.zeros(3, 3)
        assert all(
            all(c == 0 for c in riemann[i][j][k])
            for i in range(3)
            for j in range(3)
            for k in range(3)
        )

    def test_heisenberg_scalar(self):
        g, m = instantiate("heisenberg3")
        assert curvature(g, m).scalar == Fraction(1, 2)

    def test_round_sphere_scalar(self):
        g, m = instantiate("so3", {"a": 1, "b": 1, "c": 1})
        assert curvature(g, m).scalar == Fraction(3, 2)

    def test_null_pair_scalar_flat(self):
        # The commutator ideal is null for this metric and every curvature
        # contribution to the trace cancels: the scalar is 0 for every
        # parameter value (checked against an independent computation).
        for alpha in (0, Fraction(1, 2), 1, 2, 7):
            g, m = instantiate("damekricci4", {"alpha": alpha})
            assert curvature(g, m).scalar == 0

    def test_convention_recorded(self):
        g, m = instantiate("heisenberg3")
        rep = curvature(g, m)
        assert rep.convention["sign_flipped"] is False
        assert "riemann" in rep.convention

    @given(algebra_metric_pairs())
    @settings(max_examples=30)
    def test_tensor_symmetries(self, pair):
        g, m = pair
        rep = curvature(g, m)
        riemann = riemann_tensor(g, levi_civita(g, m))
        n = g.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # antisymmetry in the first two slots
                    assert riemann[i][j][k] == tuple(
                        -c for c in riemann[j][i][k]
                    )
                    # first Bianchi identity
                    total = [
                        a + b + c
                        for a, b, c in zip(
                            riemann[i][j][k],
                            riemann[j][k][i],
                            riemann[k][i][j],
                        )
                    ]
                    assert all(c == 0 for c in total)
        assert rep.ricci.is_symmetric()
        # the direct Ricci contraction is the trace of the full tensor
        assert rep.ricci == Matrix.from_rows(
            [[sum((riemann[i][y][z][i] for i in range(n)), Fraction(0)) for z in range(n)] for y in range(n)]
        )

    @given(algebra_metric_pairs())
    @settings(max_examples=30, deadline=None)
    def test_scalar_matches_milnor_formula(self, pair):
        g, m = pair
        assert curvature(g, m).scalar == milnor_scalar(g, m)

    def test_milnor_formula_flat_on_null_pair(self):
        # A second route to the value acceptance check 3 disputes: Milnor's
        # formula also gives 0, not alpha(1 - alpha)/2, for every alpha.
        for alpha in (0, Fraction(1, 2), 1, 2):
            g, m = instantiate("damekricci4", {"alpha": alpha})
            assert milnor_scalar(g, m) == 0

    @given(algebra_metric_pairs(max_dim=3))
    @settings(max_examples=25, deadline=None)
    def test_scalar_is_basis_invariant(self, pair):
        g, m = pair
        s = Matrix.from_rows(
            [[1 if i == j else 0 for j in range(g.dim)] for i in range(g.dim)]
        )
        # a concrete unipotent change of basis touching every coordinate
        rows = s.row_lists()
        for i in range(g.dim - 1):
            rows[i][i + 1] = Fraction(1)
        s = Matrix.from_rows(rows)
        g2 = g.change_of_basis(s)
        m2 = PseudoMetric(s.transpose() @ m.gram @ s)
        assert curvature(g2, m2).scalar == curvature(g, m).scalar

    @given(algebra_metric_pairs())
    @settings(max_examples=30)
    def test_gram_inertia_against_oracle(self, pair):
        _, m = pair
        assert tuple(m.inertia) == sympy_inertia(m.gram)
        assert inverse(m.gram) == m.inverse_gram
