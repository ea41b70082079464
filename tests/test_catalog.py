"""Built-in instance families: parameters, constraints, and targets."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lieconf.algebra import MAX_DIM
from lieconf import (
    ConstraintViolated,
    UnknownFamily,
    conformal_space,
    family,
    instantiate,
    list_families,
    nonkilling_exists,
    verification_targets,
)

EXPECTED_NAMES = {
    "abelian",
    "heisenberg3",
    "so3",
    "sl2",
    "affine2",
    "general3",
    "nonuni3",
    "damekricci4",
    "diagonalN",
    "gradedN",
}


class TestListing:
    def test_all_families_present(self):
        names = {spec.name for spec in list_families()}
        assert EXPECTED_NAMES <= names

    def test_specs_are_documented(self):
        for spec in list_families():
            assert spec.summary
            assert spec.constraints
            assert spec.dimension

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            family("nope")
        with pytest.raises(UnknownFamily):
            instantiate("nope")


class TestParameters:
    def test_defaults(self):
        g, m = instantiate("so3")
        assert m.gram.at(0, 0) == 1 and m.gram.at(2, 2) == -1
        g, m = instantiate("damekricci4")
        assert g.bracket_basis(0, 1) == (0, 0, Fraction(1), 0)
        g, m = instantiate("abelian", {"n": 3})
        assert m.signature == (3, 0)

    def test_string_rationals_accepted(self):
        g, _ = instantiate("damekricci4", {"alpha": "1/2"})
        assert g.bracket_basis(0, 1) == (0, 0, Fraction(1, 2), 0)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConstraintViolated):
            instantiate("affine2", {"alpha": 1})
        with pytest.raises(ConstraintViolated):
            instantiate("so3", {"d": 1})

    def test_missing_required_parameter(self):
        with pytest.raises(ConstraintViolated):
            instantiate("general3", {"alpha": 1, "beta": 0, "gamma": 0})

    def test_float_parameters_rejected(self):
        with pytest.raises(TypeError):
            instantiate("damekricci4", {"alpha": 0.5})


class TestConstraints:
    def test_general3_needs_nonzero_trace(self):
        with pytest.raises(ConstraintViolated):
            instantiate("general3", {"alpha": 1, "beta": 0, "gamma": 0, "delta": -1})

    def test_nonuni3_needs_nonzero_alpha(self):
        with pytest.raises(ConstraintViolated):
            instantiate("nonuni3", {"alpha": 0})

    def test_so3_rejects_degenerate_metric(self):
        with pytest.raises(ConstraintViolated):
            instantiate("so3", {"a": 0})

    def test_abelian_signature_bounds(self):
        with pytest.raises(ConstraintViolated):
            instantiate("abelian", {"n": 2, "p": 3})
        with pytest.raises(ConstraintViolated):
            instantiate("abelian", {"n": 0})

    @pytest.mark.parametrize("name", ["abelian", "diagonalN", "gradedN"])
    def test_dimension_bounded(self, name):
        with pytest.raises(ConstraintViolated) as exc:
            instantiate(name, {"n": MAX_DIM + 1})
        assert exc.value.param == "n"
        assert str(MAX_DIM) in exc.value.constraint

    def test_diagonaln_eigenvalue_constraints(self):
        with pytest.raises(ConstraintViolated):
            instantiate("diagonalN", {"n": 3, "lambda1": 0, "lambda2": 1})
        with pytest.raises(ConstraintViolated):
            instantiate("diagonalN", {"n": 3, "lambda1": 1, "lambda2": -1})
        with pytest.raises(ConstraintViolated):
            instantiate("diagonalN", {"n": 3, "lambda1": 1})

    @pytest.mark.parametrize("family, params", [
        ("diagonalN", {"n": 3, "lambda1": 1, "lambda2": 2}),
        ("gradedN", {"n": 4, "lambda1": 1, "lambda2": 2, "lambda3": 3}),
    ], ids=["diagonalN", "gradedN"])
    @pytest.mark.parametrize("key", ["lambda9", "lambdaX"])
    def test_unknown_eigenvalue_parameter_rejected(self, family, params, key):
        with pytest.raises(ConstraintViolated) as exc:
            instantiate(family, {**params, key: 5})
        assert key in str(exc.value)

    def test_gradedn_beta_compatibility(self):
        with pytest.raises(ConstraintViolated):
            instantiate(
                "gradedN",
                {"n": 4, "lambda1": 1, "lambda2": 1, "lambda3": 4, "beta12": 1},
            )
        # a zero beta never triggers the grading condition
        g, _ = instantiate(
            "gradedN",
            {"n": 4, "lambda1": 1, "lambda2": 1, "lambda3": 4, "beta12": 0},
        )
        assert g.dim == 4
        g, _ = instantiate(
            "gradedN",
            {"n": 4, "lambda1": "3/2", "lambda2": "3/2", "lambda3": 3, "beta12": 5},
        )
        assert g.bracket_basis(0, 1) == (0, 0, Fraction(5), 0)

    def test_gradedn_bad_beta_key(self):
        with pytest.raises(ConstraintViolated):
            instantiate(
                "gradedN",
                {"n": 4, "lambda1": 1, "lambda2": 1, "lambda3": 1, "beta13": 1},
            )
        with pytest.raises(ConstraintViolated):
            instantiate(
                "gradedN",
                {"n": 4, "lambda1": 1, "lambda2": 1, "lambda3": 1, "beta123": 1},
            )


class TestStructure:
    def test_unimodularity_flags(self):
        unimodular = {"abelian": {"n": 3}, "heisenberg3": None, "so3": None, "sl2": None}
        nonunimodular = {
            "affine2": None,
            "nonuni3": {"alpha": 1},
            "damekricci4": None,
            "diagonalN": {"n": 3, "lambda1": 1, "lambda2": 2},
        }
        for name, params in unimodular.items():
            g, _ = instantiate(name, params)
            assert g.is_unimodular, name
        for name, params in nonunimodular.items():
            g, _ = instantiate(name, params)
            assert not g.is_unimodular, name

    def test_dimensions_are_fixed(self):
        assert instantiate("heisenberg3")[0].dim == 3
        assert instantiate("damekricci4")[0].dim == 4
        assert instantiate("diagonalN", {"n": 5, "lambda1": 1, "lambda2": 1, "lambda3": 1, "lambda4": 1})[0].dim == 5

    def test_metric_dimensions_agree(self):
        for name, g, m in verification_targets():
            assert g.dim == m.dim, name


class TestVerificationTargets:
    def test_targets_cover_catalog(self):
        targets = verification_targets()
        assert len(targets) >= 15
        names = {label.split("(")[0] for label, _, _ in targets}
        assert EXPECTED_NAMES <= names

    def test_labels_unique(self):
        labels = [label for label, _, _ in verification_targets()]
        assert len(labels) == len(set(labels))

    def test_targets_include_both_graded_outcomes(self):
        # The graded family must appear once with a conformal-compatible
        # grading (non-Killing solution exists) and once without.
        outcomes = set()
        for label, g, m in verification_targets():
            if label.startswith("gradedN"):
                outcomes.add(nonkilling_exists(conformal_space(g, m)))
        assert outcomes == {True, False}
