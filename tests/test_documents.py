"""JSON instance documents: parsing, located errors, and round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import algebra_metric_pairs
from lieconf.algebra import MAX_DIM
from lieconf import DocumentError, Instance, instance_to_document, parse_instance, parse_instance_json
from lieconf.documents import format_fraction, format_vector, parse_fraction


def heisenberg_doc() -> dict:
    return {
        "name": "h3",
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1}}],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    }


class TestFractionCodec:
    def test_format_is_always_a_string(self):
        assert format_fraction(Fraction(0)) == "0"
        assert format_fraction(Fraction(-3)) == "-3"
        assert format_fraction(Fraction(1, 2)) == "1/2"
        assert format_fraction(Fraction(-7, 3)) == "-7/3"
        assert format_vector((Fraction(1), Fraction(-1, 2))) == ["1", "-1/2"]

    def test_parse_accepts_ints_and_strings(self):
        assert parse_fraction(4, "x") == Fraction(4)
        assert parse_fraction("-3/2", "x") == Fraction(-3, 2)
        assert parse_fraction(" 5 ", "x") == Fraction(5)
        assert parse_fraction("1e3", "x") == Fraction(1000)

    def test_parse_rejects_bool_float_and_garbage(self):
        # a decimal exponent above 4300 in magnitude is refused before 10**e is built
        for bad in (True, 1.5, None, [1], "1e5000", "-2e-5000", "1e999999999"):
            with pytest.raises(DocumentError):
                parse_fraction(bad, "x")
        with pytest.raises(DocumentError) as exc:
            parse_fraction("one half", "metric[0][1]")
        assert exc.value.path == "metric[0][1]"

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(DocumentError):
            parse_fraction("1/0", "x")

    @given(st.fractions())
    @settings(max_examples=50)
    def test_round_trip(self, q):
        assert parse_fraction(format_fraction(q), "x") == q


class TestParseInstance:
    def test_valid_document(self):
        inst = parse_instance(heisenberg_doc())
        assert inst.name == "h3"
        assert inst.algebra.dim == 3
        assert inst.algebra.bracket_basis(0, 1) == (0, 0, Fraction(1))
        assert inst.metric.signature == (2, 1)

    def test_unknown_field_located(self):
        doc = heisenberg_doc()
        doc["extra"] = 1
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "extra"

    def test_missing_dim(self):
        doc = heisenberg_doc()
        del doc["dim"]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "dim"

    def test_dimension_bounded(self):
        doc = {"dim": MAX_DIM + 1, "brackets": [], "metric": []}
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "dim"
        assert str(MAX_DIM) in str(exc.value)

    def test_oversized_json_integer_located(self):
        text = '{"dim": 1, "brackets": [], "metric": [[1' + "0" * 5000 + "]]}"
        with pytest.raises(DocumentError) as exc:
            parse_instance_json(text)
        assert exc.value.path == "$"

    def test_bracket_index_bounds(self):
        doc = heisenberg_doc()
        doc["brackets"] = [{"i": 0, "j": 2, "coeffs": {}}]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "brackets[0]"

    def test_bracket_missing_field_located(self):
        doc = heisenberg_doc()
        doc["brackets"] = [{"i": 1, "coeffs": {}}]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "brackets[0].j"

    def test_duplicate_bracket_rejected(self):
        doc = heisenberg_doc()
        doc["brackets"] = [
            {"i": 1, "j": 2, "coeffs": {"3": 1}},
            {"i": 1, "j": 2, "coeffs": {"3": 2}},
        ]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "brackets[1]"

    def test_coefficient_key_out_of_range(self):
        doc = heisenberg_doc()
        doc["brackets"] = [{"i": 1, "j": 2, "coeffs": {"4": 1}}]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "brackets[0].coeffs.4"

    @pytest.mark.parametrize("key", ["\uff11", "x", "+1", " 1", "1.0", ""])
    def test_coefficient_key_must_be_ascii_digits(self, key):
        doc = heisenberg_doc()
        doc["brackets"] = [{"i": 1, "j": 2, "coeffs": {key: 1}}]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == f"brackets[0].coeffs.{key}"

    def test_coefficient_value_located(self):
        doc = heisenberg_doc()
        doc["brackets"] = [{"i": 1, "j": 2, "coeffs": {"3": "x"}}]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "brackets[0].coeffs.3"

    def test_metric_entry_located(self):
        doc = heisenberg_doc()
        doc["metric"][2][2] = 0.5
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "metric[2][2]"

    def test_metric_row_length(self):
        doc = heisenberg_doc()
        doc["metric"][1] = [0, 1]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "metric[1]"

    def test_jacobi_violation_reported_one_based(self):
        doc = {
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "coeffs": {"3": 1}},
                {"i": 1, "j": 3, "coeffs": {"1": 1}},
            ],
            "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        }
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert "(1, 2, 3)" in str(exc.value)

    def test_asymmetric_metric_rejected(self):
        doc = heisenberg_doc()
        doc["metric"][0][1] = 1
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "metric"

    def test_degenerate_metric_rejected(self):
        doc = heisenberg_doc()
        doc["metric"] = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
        with pytest.raises(DocumentError) as exc:
            parse_instance(doc)
        assert exc.value.path == "metric"

    def test_invalid_json_text(self):
        with pytest.raises(DocumentError):
            parse_instance_json("{not json")


class TestRoundTrip:
    def test_emit_shape(self):
        inst = parse_instance(heisenberg_doc())
        doc = instance_to_document(inst)
        assert doc["dim"] == 3
        assert doc["brackets"] == [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]
        assert doc["metric"][2] == ["0", "0", "-1"]

    def test_rationals_emitted_as_strings(self):
        doc = heisenberg_doc()
        doc["metric"] = [["1/2", 0, 0], [0, 1, 0], [0, 0, "-1"]]
        emitted = instance_to_document(parse_instance(doc))
        flattened = [v for row in emitted["metric"] for v in row]
        assert all(isinstance(v, str) for v in flattened)
        assert emitted["metric"][0][0] == "1/2"

    @given(algebra_metric_pairs())
    @settings(max_examples=40)
    def test_parse_inverts_emit(self, pair):
        g, m = pair
        inst = Instance(g, m, name="roundtrip", metadata={"seeded": True})
        doc = instance_to_document(inst)
        again = parse_instance(json.loads(json.dumps(doc)))
        assert again.name == "roundtrip"
        assert again.metadata == {"seeded": True}
        assert again.algebra.structure_table() == g.structure_table()
        assert again.metric.gram == m.gram
