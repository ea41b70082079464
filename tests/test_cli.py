"""Command-line behavior: reports, exit codes, and round-trips."""

from __future__ import annotations

import io
import json

import pytest

from lieconf import algebra, build_report, conformal, geometry, instantiate, sampling, verification_targets, yamabe
from lieconf import report as report_module
from lieconf.algebra import MAX_DIM, MAX_SAMPLES
from lieconf.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_affine_plane_report(self, capsys):
        code, out, err = run(capsys, "analyze", "--family", "affine2")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["dim"] == 2
        assert report["unimodular"] is False
        assert report["signature"] == {"positive": 1, "negative": 1}
        assert report["scalar_curvature"] == "0"
        assert report["conformal"]["dim"] == 1
        assert report["conformal"]["basis"] == [["1", "0", "-1/2"]]
        assert report["conformal"]["nonkilling_exists"] is True
        assert report["conformal"]["killing"]["dim"] == 0
        soliton = report["solitons"][0]
        assert soliton["field"] == ["1", "0"]
        assert soliton["causal"] == "lightlike"
        assert soliton["lambda"] == "1/2"
        assert soliton["class"] == "shrinking"
        assert soliton["trivial"] is False
        statuses = {v["check"]: v["status"] for v in report["verdicts"]}
        assert statuses["nonkilling-dimension-bounds"] == "pass"
        assert statuses["unimodular-conformal-is-killing"] == "hypothesis-not-met"

    def test_rationals_are_strings_everywhere(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "nonuni3", "--param", "alpha=1", "--param", "beta=1")
        assert code == 0
        report = json.loads(out)
        for b in report["conformal"]["basis"]:
            assert all(isinstance(c, str) for c in b)
        assert report["conformal"]["basis"] == [["1", "-1/2", "-1", "-1"]]

    def test_deterministic_output(self, capsys):
        first = run(capsys, "analyze", "--family", "damekricci4")
        second = run(capsys, "analyze", "--family", "damekricci4")
        assert first == second

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "heisenberg3", "--format", "table")
        assert code == 0
        assert "instance: heisenberg3" in out
        assert "scalar curvature: 1/2" in out

    def test_input_file(self, capsys, tmp_path):
        doc = {
            "name": "flatplane",
            "dim": 2,
            "brackets": [],
            "metric": [[1, 0], [0, 1]],
        }
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["name"] == "flatplane"
        assert report["conformal"]["dim"] == 2
        assert report["conformal"]["nonkilling_exists"] is False

    def test_stdin_input(self, capsys, monkeypatch):
        doc = {"dim": 1, "brackets": [], "metric": [[1]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run(capsys, "analyze", "--input", "-")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_missing_instance_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1
        assert "error" in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--family", "affine2", "--input", str(path))
        assert code == 1

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "metric": [[1, 0], [0]]}', encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "metric" in err

    def test_non_ascii_coefficient_index(self, capsys, tmp_path):
        doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"\uff13": 1}}], "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
        path = tmp_path / "fullwidth.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: brackets[0].coeffs.")

    @pytest.mark.parametrize("literal", ["1e5000", "1e999999999"])
    def test_oversized_exponent_is_input_error(self, capsys, tmp_path, literal):
        doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": literal}}], "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: brackets[0].coeffs.3: invalid rational literal")

    def test_oversized_json_integer_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "longint.json"
        path.write_text(
            '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1' + "0" * 5000 + "}}], "
            '"metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: $: an integer literal has more than 4300 digits\n"

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert (code, out, err) == (1, "", "error: $: JSON nesting is too deep to decode\n")

    def test_jacobi_residual_too_long_to_print(self, capsys, tmp_path):
        # the residual on (1, 2, 3) is (10^5000 - 10^2500) e2, past the 4300-digit limit
        big = "1" + "0" * 2500
        path = tmp_path / "bigresidual.json"
        path.write_text(
            '{"dim": 3, "brackets": ['
            f'{{"i": 1, "j": 2, "coeffs": {{"1": {big}}}}}, '
            f'{{"i": 1, "j": 3, "coeffs": {{"2": {big}}}}}, '
            f'{{"i": 2, "j": 3, "coeffs": {{"1": {big}, "3": 1}}}}], '
            '"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert (code, out, err) == (1, "", "error: brackets: Jacobi identity fails on basis triple (1, 2, 3)\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_output_rational_too_long_to_print(self, capsys, tmp_path, fmt):
        # the scalar curvature of this instance has about 6,000 digits
        doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1e3000"}}], "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}
        path = tmp_path / "bigscalar.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(path), "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error: a rational in the output has more than 4300 digits")

    @pytest.mark.parametrize(
        ("argv", "expected_code", "expected_err"),
        [
            (("catalog", "emit", "abelian", "--param", f"n={MAX_DIM + 1}"), 2, f"error: parameter 'n': must be at most {MAX_DIM}\n"),
            (("analyze", "--input", "{path}"), 1, f"error: dim: dimension must be at most {MAX_DIM}\n"),
        ],
        ids=["family", "document"],
    )
    def test_dimension_bounded(self, capsys, tmp_path, argv, expected_code, expected_err):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": MAX_DIM + 1, "brackets": [], "metric": []}), encoding="utf-8")
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
        assert (code, out, err) == (expected_code, "", expected_err)

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "absent.json"))
        assert code == 1

    def test_jacobi_failure_is_input_error(self, capsys, tmp_path):
        doc = {
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "coeffs": {"3": 1}},
                {"i": 1, "j": 3, "coeffs": {"1": 1}},
            ],
            "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        }
        path = tmp_path / "nonjacobi.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "Jacobi" in err

    def test_unknown_family_is_constraint_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--family", "nope")
        assert code == 2

    @pytest.mark.parametrize("value", ["x", "1/0", "1e5000", "1e999999999"])
    @pytest.mark.parametrize(
        "command",
        [("analyze", "--family"), ("verify", "--family"), ("catalog", "emit")],
        ids=["analyze", "verify", "emit"],
    )
    def test_bad_param_value(self, capsys, command, value):
        code, out, err = run(capsys, *command, "damekricci4", "--param", f"alpha={value}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --param: invalid rational value")

    def test_duplicate_param(self, capsys):
        code, _, err = run(capsys, "analyze", "--family", "damekricci4", "--param", "alpha=1", "--param", "alpha=2")
        assert code == 1


class TestVerify:
    def test_bounds_scope_single_family(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--scope",
            "bounds",
            "--family",
            "nonuni3",
            "--param",
            "alpha=1",
            "--param",
            "beta=2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"pass": 1, "hypothesis_not_met": 0, "violated": 0}
        verdict = payload["results"][0]["verdicts"][0]
        assert verdict["check"] == "nonkilling-dimension-bounds"
        assert verdict["status"] == "pass"

    def test_all_scopes_over_builtins(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "2", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["violated"] == 0
        assert payload["counts"]["pass"] > 0
        assert payload["instances"] == len(payload["results"])

    def test_negative_samples_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--samples", "-5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: --samples: ")

    def test_samples_above_limit_rejected_before_generating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("instances generated for an out-of-range --samples")

        monkeypatch.setattr(sampling, "random_instances", refuse)
        monkeypatch.setattr(sampling, "random_metric", refuse)
        code, out, err = run(capsys, "verify", "--samples", str(MAX_SAMPLES + 1))
        assert (code, out) == (1, "")
        assert err == f"error: --samples: must be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}\n"

    def test_zero_samples_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "0")
        assert code == 0
        assert json.loads(out)["instances"] == len(verification_targets()) + 4 * 4

    def test_table_totals_line(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--scope", "corollary", "--family", "heisenberg3", "--format", "table"
        )
        assert code == 0
        assert "totals: pass=1, hypothesis-not-met=0, violated=0" in out

    def test_deterministic_for_fixed_seed(self, capsys):
        first = run(capsys, "verify", "--samples", "3", "--seed", "9")
        second = run(capsys, "verify", "--samples", "3", "--seed", "9")
        assert first == second

    def test_constraint_violation_exit(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "nonuni3", "--param", "alpha=0")
        assert code == 2


class TestSolvesOnce:
    # The shared conformal space is solved once per instance, and every
    # verifier (the unimodular theorem included) reads that one space.
    @pytest.mark.parametrize("family", ["affine2", "heisenberg3"])
    def test_conformal_system_built_once_per_instance(self, capsys, monkeypatch, family):
        calls = []
        solve = conformal.conformal_system

        def counted(*args):
            calls.append(args[0].dim)
            return solve(*args)

        monkeypatch.setattr(conformal, "conformal_system", counted)
        build_report(*instantiate(family))
        assert len(calls) == 1
        calls.clear()
        code, _, _ = run(capsys, "verify", "--family", family)
        assert code == 0
        assert len(calls) == 1

    def test_structure_computed_once_per_instance(self, capsys, monkeypatch):
        # affine2 has a non-Killing solution, so the report, the bounds
        # verifier and the degenerate verifier all read the centre and the
        # commutator ideal; counted here is the work behind their caches.
        calls = []
        lower, stack, span = geometry.lowered_structure, algebra.stack, algebra.Subspace.span

        def counted_lower(*args):
            calls.append("lowered_structure")
            return lower(*args)

        def counted_stack(*args):
            calls.append("center")
            return stack(*args)

        class CountedSubspace:
            @staticmethod
            def span(*args):
                calls.append("commutator_ideal")
                return span(*args)

        for module in (geometry, conformal, report_module):
            monkeypatch.setattr(module, "lowered_structure", counted_lower)
        monkeypatch.setattr(algebra, "stack", counted_stack)
        monkeypatch.setattr(algebra, "Subspace", CountedSubspace)
        expected = ["center", "commutator_ideal", "lowered_structure"]
        build_report(*instantiate("affine2"))
        assert sorted(calls) == expected
        calls.clear()
        code, _, _ = run(capsys, "verify", "--family", "affine2")
        assert code == 0
        assert sorted(calls) == expected


class TestCurvatureOnce:
    # A report reads the one scalar curvature it computes for its solitons,
    # from the one connection it builds.
    def test_build_report_computes_curvature_once(self, monkeypatch):
        built, received = [], []
        compute, connect = geometry.curvature, geometry.levi_civita

        def counted(g, m, conn=None):
            received.append(conn)
            return compute(g, m, conn)

        def counted_connection(*args):
            built.append(connect(*args))
            return built[-1]

        for module in (geometry, report_module, yamabe):
            monkeypatch.setattr(module, "curvature", counted)
        for module in (geometry, report_module):
            monkeypatch.setattr(module, "levi_civita", counted_connection)
        report = build_report(*instantiate("affine2"))
        assert report["solitons"]
        assert len(built) == 1
        assert received == built


class TestCatalog:
    def test_list_contains_families(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        names = {spec["name"] for spec in json.loads(out)}
        assert {"abelian", "affine2", "damekricci4", "gradedN"} <= names

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "general3", "--format", "table")
        assert code == 0
        assert "alpha + delta != 0" in out

    def test_show_needs_name(self, capsys):
        code, _, err = run(capsys, "catalog", "show")
        assert code == 1

    def test_emit_constraint_violation(self, capsys):
        code, _, err = run(
            capsys,
            "catalog",
            "emit",
            "general3",
            "--param",
            "alpha=1",
            "--param",
            "beta=0",
            "--param",
            "gamma=0",
            "--param",
            "delta=-1",
        )
        assert code == 2
        assert "delta" in err

    def test_emit_round_trips_through_analyze(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "catalog", "emit", "nonuni3", "--param", "alpha=1", "--param", "beta=1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"] == {"family": "nonuni3", "params": {"alpha": "1", "beta": "1"}}
        path = tmp_path / "emitted.json"
        path.write_text(out, encoding="utf-8")

        code, from_file, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        code, from_family, _ = run(
            capsys, "analyze", "--family", "nonuni3", "--param", "alpha=1", "--param", "beta=1"
        )
        assert code == 0
        a, b = json.loads(from_file), json.loads(from_family)
        assert a["name"] == b["name"] == "nonuni3(alpha=1,beta=1)"
        for key in ("conformal", "solitons", "scalar_curvature", "verdicts", "signature"):
            assert a[key] == b[key]
