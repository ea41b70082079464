"""Yamabe soliton checks, classification, and the triviality corollary."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import algebra_metric_pairs, soliton_solution_space
from lieconf import (
    NotAConformalSolution,
    PseudoMetric,
    SolitonClass,
    Subspace,
    VerdictStatus,
    check_soliton,
    classify_constant,
    conformal_space,
    curvature,
    instantiate,
    soliton_from_conformal,
    verify_corollary_unimodular,
)


class TestClassification:
    def test_signs(self):
        assert classify_constant(Fraction(1, 2)) is SolitonClass.SHRINKING
        assert classify_constant(Fraction(0)) is SolitonClass.STEADY
        assert classify_constant(Fraction(-3)) is SolitonClass.EXPANDING

    def test_enum_values(self):
        assert SolitonClass.SHRINKING.value == "shrinking"
        assert SolitonClass.STEADY.value == "steady"
        assert SolitonClass.EXPANDING.value == "expanding"


class TestCheckSoliton:
    def test_affine_plane(self):
        g, m = instantiate("affine2")
        assert check_soliton(g, m, (1, 0), Fraction(1, 2))
        assert not check_soliton(g, m, (1, 0), 0)
        assert check_soliton(g, m, (0, 0), 0)  # lambda = scalar = 0

    def test_zero_field_forces_lambda_equal_scalar(self):
        g, m = instantiate("heisenberg3")
        scalar = curvature(g, m).scalar
        assert check_soliton(g, m, (0, 0, 0), scalar)
        assert not check_soliton(g, m, (0, 0, 0), scalar + 1)


class TestSolitonFromConformal:
    def test_affine_plane_shrinker(self):
        g, m = instantiate("affine2")
        report = soliton_from_conformal(g, m, (1, 0), Fraction(-1, 2), curvature(g, m).scalar)
        assert report.constant == Fraction(1, 2)
        assert report.scalar == 0
        assert report.kind is SolitonClass.SHRINKING
        assert not report.trivial
        assert check_soliton(g, m, report.field, report.constant)

    def test_killing_field_gives_trivial_soliton(self):
        g, m = instantiate("heisenberg3")
        report = soliton_from_conformal(g, m, (0, 0, 1), 0, curvature(g, m).scalar)
        assert report.trivial
        assert report.constant == report.scalar == Fraction(1, 2)
        assert report.kind is SolitonClass.SHRINKING

    def test_non_solution_rejected(self):
        g, m = instantiate("affine2")
        with pytest.raises(NotAConformalSolution):
            soliton_from_conformal(g, m, (0, 1), 1, curvature(g, m).scalar)

    @given(algebra_metric_pairs())
    @settings(max_examples=40, deadline=None)
    def test_constant_is_scalar_minus_factor(self, pair):
        g, m = pair
        scalar = curvature(g, m).scalar
        for x, rho in conformal_space(g, m).solutions():
            report = soliton_from_conformal(g, m, x, rho, scalar)
            assert report.constant == scalar - rho
            assert report.trivial == (rho == 0)
            assert report.kind is classify_constant(report.constant)
            assert check_soliton(g, m, x, report.constant)


class TestSolitonSpace:
    def test_affine_plane_space(self):
        g, m = instantiate("affine2")
        space = soliton_solution_space(g, m)
        assert space.basis == ((Fraction(1), Fraction(0), Fraction(1, 2)),)

    @given(algebra_metric_pairs())
    @settings(max_examples=40, deadline=None)
    def test_mirrors_conformal_space(self, pair):
        # (x, rho) solves the conformal equation iff (x, -rho) solves the
        # soliton system, so the two spaces match under negating the last
        # coordinate.
        g, m = pair
        c = conformal_space(g, m)
        s = soliton_solution_space(g, m)
        assert s.dim == c.dim
        for x, rho in c.solutions():
            assert s.contains(list(x) + [-rho])
        flipped = [list(b[:-1]) + [-b[-1]] for b in s.basis]
        assert Subspace.span(g.dim + 1, flipped) == c.space


class TestCorollaryVerifier:
    def test_unimodular_instances_pass(self):
        cases = [
            instantiate("heisenberg3"),
            instantiate("so3", {"a": 1, "b": 2, "c": -1}),
            instantiate("sl2"),
            (
                instantiate("abelian", {"n": 3})[0],
                PseudoMetric.diagonal([1, -1, 1]),
            ),
        ]
        for g, m in cases:
            report = verify_corollary_unimodular(g, m, conformal_space(g, m))
            assert report.status is VerdictStatus.PASSED
            assert report.check == "unimodular-solitons-trivial"

    def test_hypothesis_not_met_for_nonunimodular(self):
        g, m = instantiate("affine2")
        report = verify_corollary_unimodular(g, m, conformal_space(g, m))
        assert report.status is VerdictStatus.HYPOTHESIS_NOT_MET

    @given(algebra_metric_pairs())
    @settings(max_examples=30, deadline=None)
    def test_never_violated_on_valid_instances(self, pair):
        g, m = pair
        assert verify_corollary_unimodular(g, m, conformal_space(g, m)).status is not VerdictStatus.VIOLATED
