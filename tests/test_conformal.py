"""Conformal equation solving, Killing slice, and the theorem verifiers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    algebra_metric_pairs,
    congruence_diagonalize,
    lie_derivative_by_inner,
    sympy_conformal_basis,
    vectors,
)
from lieconf import (
    ConformalSolutionSpace,
    LieAlgebra,
    Matrix,
    PseudoMetric,
    Subspace,
    VerdictStatus,
    conformal_space,
    instantiate,
    inverse,
    is_conformal_solution,
    killing_space,
    lie_derivative_metric,
    nonkilling_exists,
    verify_bounds_nonunimodular,
    verify_degenerate_restriction,
    verify_lightlike,
    verify_theorem_unimodular,
)


class TestLieDerivative:
    def test_affine_plane(self):
        g, m = instantiate("affine2")
        assert lie_derivative_metric(g, m, (1, 0)) == Matrix.from_rows(
            [[0, -1], [-1, 0]]
        )

    def test_central_field_kills_metric(self):
        g, m = instantiate("heisenberg3")
        assert lie_derivative_metric(g, m, (0, 0, 1)).is_zero()

    @given(algebra_metric_pairs(), vectors(4))
    @settings(max_examples=40)
    def test_operator_identity(self, pair, xs):
        # L_x g must equal -(ad_x^T G + G ad_x): the same bilinear form
        # assembled through matrix products instead of entrywise brackets.
        g, m = pair
        x = xs[: g.dim]
        ad = g.ad(x)
        expected = -(ad.transpose() @ m.gram + m.gram @ ad)
        assert lie_derivative_metric(g, m, x) == expected

    @given(algebra_metric_pairs(), vectors(4))
    @settings(max_examples=40)
    def test_matches_entrywise_inner_formula(self, pair, xs):
        g, m = pair
        x = xs[: g.dim]
        assert lie_derivative_metric(g, m, x) == lie_derivative_by_inner(g, m, x)


class TestConformalSpace:
    def test_affine_plane_solution(self):
        g, m = instantiate("affine2")
        c = conformal_space(g, m)
        assert c.dim == 1
        assert c.space.basis == ((Fraction(1), Fraction(0), Fraction(-1, 2)),)
        assert c.contains((2, 0), -1)
        assert not c.contains((1, 0), 0)

    def test_heisenberg_center_only(self):
        g, m = instantiate("heisenberg3")
        c = conformal_space(g, m)
        assert c.space.basis == (
            (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        )

    def test_abelian_everything_killing(self):
        g, m = instantiate("abelian", {"n": 3, "p": 1})
        c = conformal_space(g, m)
        assert c.dim == 3
        assert killing_space(c) == Subspace.full(3)
        assert not nonkilling_exists(c)

    def test_nonuni3_without_shear(self):
        g, m = instantiate("nonuni3", {"alpha": 1, "beta": 0})
        c = conformal_space(g, m)
        assert c.space.basis == (
            (Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        )

    def test_nonuni3_with_shear(self):
        g, m = instantiate("nonuni3", {"alpha": 1, "beta": 1})
        c = conformal_space(g, m)
        assert c.space.basis == (
            (Fraction(1), Fraction(-1, 2), Fraction(-1), Fraction(-1)),
        )

    def test_null_pair_family(self):
        for alpha in (0, 1, 2):
            g, m = instantiate("damekricci4", {"alpha": alpha})
            c = conformal_space(g, m)
            assert c.space.basis == (
                (
                    Fraction(0),
                    Fraction(0),
                    Fraction(0),
                    Fraction(1),
                    Fraction(-1, 2),
                ),
            )
            assert killing_space(c).is_zero()
            assert nonkilling_exists(c)

    def test_solutions_are_solutions(self):
        g, m = instantiate("nonuni3", {"alpha": 2, "beta": 3})
        c = conformal_space(g, m)
        assert c.dim >= 1
        for x, rho in c.solutions():
            assert is_conformal_solution(g, m, x, rho)

    @given(algebra_metric_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_independent_solver(self, pair):
        g, m = pair
        c = conformal_space(g, m)
        oracle = sympy_conformal_basis(g, m)
        assert len(oracle) == c.dim
        for v in oracle:
            assert c.space.contains(v)

    @given(algebra_metric_pairs())
    @settings(max_examples=40, deadline=None)
    def test_trace_identity(self, pair):
        # Tracing the conformal equation with the inverse metric gives
        # n * rho = -tr(ad_x) for every solution.
        g, m = pair
        for x, rho in conformal_space(g, m).solutions():
            assert g.dim * rho == -g.trace_ad(x)

    @given(algebra_metric_pairs(max_dim=3))
    @settings(max_examples=25, deadline=None)
    def test_basis_change_covariance(self, pair):
        # A unipotent basis change and an orthogonal basis for the metric
        # both carry solutions to solutions and keep the unimodular verdict.
        g, m = pair
        n = g.dim
        rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = Fraction(2)
        _, orthogonal = congruence_diagonalize(m.gram)
        c = conformal_space(g, m)
        for s in (Matrix.from_rows(rows), orthogonal):
            g2 = g.change_of_basis(s)
            m2 = PseudoMetric(s.transpose() @ m.gram @ s)
            c2 = conformal_space(g2, m2)
            assert c2.dim == c.dim
            sinv = inverse(s)
            for x, rho in c.solutions():
                assert c2.contains(sinv.apply(x), rho)
            assert (
                verify_theorem_unimodular(g2, m2, c2).status
                is verify_theorem_unimodular(g, m, c).status
            )


class TestKillingSlice:
    def test_affine_plane_has_no_killing_fields(self):
        g, m = instantiate("affine2")
        c = conformal_space(g, m)
        assert killing_space(c).is_zero()
        assert nonkilling_exists(c)

    def test_heisenberg_killing_is_center(self):
        g, m = instantiate("heisenberg3")
        c = conformal_space(g, m)
        assert killing_space(c) == Subspace.span(3, [[0, 0, 1]])
        assert not nonkilling_exists(c)

    @given(algebra_metric_pairs())
    @settings(max_examples=40, deadline=None)
    def test_killing_fields_are_conformal_with_zero_factor(self, pair):
        g, m = pair
        c = conformal_space(g, m)
        for v in killing_space(c).basis:
            assert is_conformal_solution(g, m, v, 0)
            assert c.contains(v, 0)


class TestVerifiers:
    def test_unimodular_theorem_passes(self):
        for name, params in (
            ("heisenberg3", None),
            ("so3", None),
            ("sl2", None),
            ("abelian", {"n": 4, "p": 2}),
        ):
            g, m = instantiate(name, params)
            report = verify_theorem_unimodular(g, m, conformal_space(g, m))
            assert report.status is VerdictStatus.PASSED
            assert report.passed

    def test_unimodular_theorem_names_nonkilling_basis_vector(self):
        # The verifier reads only the space it is given: a hand-built space
        # on heisenberg3 with a rho != 0 basis vector is a violation.
        g, m = instantiate("heisenberg3")
        solved = verify_theorem_unimodular(g, m, conformal_space(g, m))
        assert solved.detail == "dim 1 all Killing"
        space = ConformalSolutionSpace(3, Subspace.span(4, [(0, 0, 1, 0), (1, 0, 0, 2)]))
        report = verify_theorem_unimodular(g, m, space)
        assert report.status is VerdictStatus.VIOLATED
        assert report.detail == "non-Killing solution found"
        assert report.counterexample == (1, 0, 0, 2)

    def test_unimodular_theorem_skips_nonunimodular(self):
        g, m = instantiate("affine2")
        report = verify_theorem_unimodular(g, m, conformal_space(g, m))
        assert report.status is VerdictStatus.HYPOTHESIS_NOT_MET
        assert not report.passed

    def test_bounds_on_affine_plane(self):
        g, m = instantiate("affine2")
        report = verify_bounds_nonunimodular(g, m, conformal_space(g, m))
        assert report.status is VerdictStatus.PASSED

    def test_bounds_skip_unimodular(self):
        g, m = instantiate("heisenberg3")
        report = verify_bounds_nonunimodular(g, m, conformal_space(g, m))
        assert report.status is VerdictStatus.HYPOTHESIS_NOT_MET

    def test_lightlike_on_families_with_nonkilling_solutions(self):
        for name, params in (
            ("affine2", None),
            ("nonuni3", {"alpha": 1, "beta": 1}),
            ("damekricci4", {"alpha": 2}),
        ):
            g, m = instantiate(name, params)
            report = verify_lightlike(g, m, conformal_space(g, m))
            assert report.status is VerdictStatus.PASSED, (name, report.detail)

    @pytest.mark.parametrize(
        "diagonal, basis, status",
        [
            # (0, 1, 1; 1) is the only non-Killing basis vector and is null,
            # but the non-Killing solution (1, 1, 1; 1) is not
            ([1, 1, -1], [(1, 0, 0, 0), (0, 1, 1, 1)], VerdictStatus.VIOLATED),
            ([1, 1, -1], [], VerdictStatus.PASSED),
            ([1, 1, -1], [(1, 0, 0, 0)], VerdictStatus.PASSED),
            ([1, 1, -1], [(1, 0, 1, 1), (1, 0, 1, 0)], VerdictStatus.PASSED),
            ([1, 1, -1], [(1, 0, 1, 1), (0, 1, 0, 0)], VerdictStatus.VIOLATED),
            # only off-diagonal entries of P G P^T are nonzero
            ([1, 1, -1], [(1, 0, 1, 1), (0, 1, 1, -1)], VerdictStatus.VIOLATED),
            # (1, 1; 1) is null, so the witness search must go on to t = 2
            ([1, -1], [(1, 0, 0), (0, 1, 1)], VerdictStatus.VIOLATED),
        ],
    )
    def test_lightlike_exact_verdicts(self, diagonal, basis, status):
        n, m = len(diagonal), PseudoMetric.diagonal(diagonal)
        space = ConformalSolutionSpace(n, Subspace.span(n + 1, basis))
        report = verify_lightlike(LieAlgebra(n, {}), m, space)
        assert report.status is status
        if status is VerdictStatus.VIOLATED:
            x, rho = report.counterexample[:n], report.counterexample[n]
            assert space.space.contains(report.counterexample)
            assert rho != 0 and m.inner(x, x) != 0
        else:
            assert report.counterexample is None

    @given(st.lists(vectors(4), min_size=1, max_size=3), vectors(3))
    @settings(max_examples=60, deadline=None)
    def test_lightlike_agrees_with_sampled_combinations(self, rows, weights):
        m = PseudoMetric.diagonal([1, 1, -1])
        space = ConformalSolutionSpace(3, Subspace.span(4, rows))
        report = verify_lightlike(LieAlgebra(3, {}), m, space)
        if report.status is VerdictStatus.VIOLATED:
            x, rho = report.counterexample[:3], report.counterexample[3]
            assert space.space.contains(report.counterexample)
            assert rho != 0 and m.inner(x, x) != 0
        else:
            v = [sum((w * b[k] for w, b in zip(weights, space.space.basis)), Fraction(0)) for k in range(4)]
            assert v[3] == 0 or m.inner(v[:3], v[:3]) == 0

    def test_degenerate_restriction_on_affine_plane(self):
        g, m = instantiate("affine2")
        report = verify_degenerate_restriction(g, m, conformal_space(g, m))
        assert report.status is VerdictStatus.PASSED

    def test_degenerate_restriction_skips_unimodular(self):
        g, m = instantiate("sl2")
        report = verify_degenerate_restriction(g, m, conformal_space(g, m))
        assert report.status is VerdictStatus.HYPOTHESIS_NOT_MET

    def test_reports_carry_check_names(self):
        g, m = instantiate("affine2")
        c = conformal_space(g, m)
        assert (
            verify_theorem_unimodular(g, m, c).check == "unimodular-conformal-is-killing"
        )
        assert verify_bounds_nonunimodular(g, m, c).check == "nonkilling-dimension-bounds"
        assert verify_lightlike(g, m, c).check == "nonkilling-solutions-lightlike"
        assert (
            verify_degenerate_restriction(g, m, c).check
            == "metric-degenerate-on-commutator"
        )

    @given(algebra_metric_pairs())
    @settings(max_examples=30, deadline=None)
    def test_no_verifier_reports_violations_on_valid_instances(self, pair):
        g, m = pair
        c = conformal_space(g, m)
        for verifier in (
            verify_theorem_unimodular,
            verify_bounds_nonunimodular,
            verify_degenerate_restriction,
        ):
            assert verifier(g, m, c).status is not VerdictStatus.VIOLATED
        assert verify_lightlike(g, m, c).status is not VerdictStatus.VIOLATED
