"""Instance documents: the exact JSON interchange format.

An instance document carries a bracket table and a metric in plain JSON
with rationals written as "p/q" strings (or integers). Indices are
1-based in documents, 0-based inside the library; this module is the only
place that translation happens. Parse failures raise DocumentError with a
path into the document, e.g. "brackets[2].coeffs.3".
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .algebra import MAX_DIM, LieAlgebra
from .errors import (
    Degenerate,
    DimensionMismatch,
    DocumentError,
    JacobiViolation,
    LieconfError,
    NotSymmetric,
)
from .exact import Vector, frac
from .geometry import PseudoMetric


def format_fraction(value: Fraction) -> str:
    """Serialize exactly as a string: "p/q", or "n" when integral."""
    try:
        return str(value)
    except ValueError:  # a numerator or denominator past Python's int-to-string limit
        raise LieconfError(
            f"a rational in the output has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def format_vector(v: Vector) -> list[str]:
    return [format_fraction(c) for c in v]


def parse_fraction(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return frac(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(path, f"invalid rational literal {value!r}") from None
    raise DocumentError(path, f"expected a rational 'p/q' string or integer, got {type(value).__name__}")


@dataclass(frozen=True)
class Instance:
    """A named (algebra, metric) pair plus free-form metadata."""

    algebra: LieAlgebra
    metric: PseudoMetric
    name: str | None = None
    metadata: dict = field(default_factory=dict)


def _require_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


def parse_instance(doc: Mapping[str, Any]) -> Instance:
    """Validate and translate a parsed JSON document into an Instance."""
    if not isinstance(doc, Mapping):
        raise DocumentError("$", "document must be a JSON object")
    unknown = set(doc) - {"name", "dim", "brackets", "metric", "metadata"}
    if unknown:
        raise DocumentError(sorted(unknown)[0], "unknown document field")
    if "dim" not in doc:
        raise DocumentError("dim", "missing required field")
    dim = _require_int(doc["dim"], "dim")
    if dim < 1:
        raise DocumentError("dim", "dimension must be at least 1")
    if dim > MAX_DIM:
        raise DocumentError("dim", f"dimension must be at most {MAX_DIM}")

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name", "name must be a string")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise DocumentError("metadata", "metadata must be an object")

    brackets_doc = doc.get("brackets", [])
    if not isinstance(brackets_doc, list):
        raise DocumentError("brackets", "brackets must be an array")
    table: dict[tuple[int, int], list[Fraction]] = {}
    for idx, entry in enumerate(brackets_doc):
        path = f"brackets[{idx}]"
        if not isinstance(entry, Mapping):
            raise DocumentError(path, "each bracket entry must be an object")
        for key in ("i", "j", "coeffs"):
            if key not in entry:
                raise DocumentError(f"{path}.{key}", "missing required field")
        i = _require_int(entry["i"], f"{path}.i")
        j = _require_int(entry["j"], f"{path}.j")
        if not (1 <= i < j <= dim):
            raise DocumentError(path, f"need 1 <= i < j <= {dim}, got i = {i}, j = {j}")
        if (i - 1, j - 1) in table:
            raise DocumentError(path, f"duplicate bracket entry for (i, j) = ({i}, {j})")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, Mapping):
            raise DocumentError(f"{path}.coeffs", "coeffs must be an object of index: rational")
        coords = [Fraction(0)] * dim
        for raw_key, raw_value in coeffs.items():
            key_path = f"{path}.coeffs.{raw_key}"
            if not (isinstance(raw_key, str) and raw_key.isascii() and raw_key.isdigit()):
                raise DocumentError(key_path, f"coefficient index must be an integer, got {raw_key!r}")
            k = int(raw_key)
            if not 1 <= k <= dim:
                raise DocumentError(key_path, f"coefficient index out of range 1..{dim}")
            coords[k - 1] = parse_fraction(raw_value, key_path)
        table[(i - 1, j - 1)] = coords

    if "metric" not in doc:
        raise DocumentError("metric", "missing required field")
    metric_doc = doc["metric"]
    if not isinstance(metric_doc, list) or len(metric_doc) != dim:
        raise DocumentError("metric", f"metric must be an array of {dim} rows")
    rows = []
    for r, row in enumerate(metric_doc):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"metric[{r}]", f"metric row must have {dim} entries")
        rows.append([parse_fraction(v, f"metric[{r}][{c}]") for c, v in enumerate(row)])

    try:
        algebra = LieAlgebra(dim, table)
    except JacobiViolation as exc:
        i, j, k = (index + 1 for index in exc.indices)
        raise DocumentError(
            "brackets", f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
        ) from exc
    except DimensionMismatch as exc:
        raise DocumentError("brackets", str(exc)) from exc
    try:
        metric = PseudoMetric.from_rows(rows)
    except NotSymmetric as exc:
        raise DocumentError("metric", "metric matrix is not symmetric") from exc
    except Degenerate as exc:
        raise DocumentError("metric", "metric matrix is degenerate") from exc
    return Instance(algebra, metric, name, dict(metadata))


def parse_instance_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise DocumentError("$", "JSON nesting is too deep to decode") from None
    except ValueError:
        # the only other ValueError json.loads raises: int() refusing a long literal
        raise DocumentError(
            "$", f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return parse_instance(doc)


def instance_to_document(instance: Instance) -> dict:
    """Serialize an Instance back to the JSON document shape (1-based)."""
    g, m = instance.algebra, instance.metric
    brackets = []
    for (i, j), coords in sorted(g.structure_table().items()):
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": {
                    str(k + 1): format_fraction(c) for k, c in enumerate(coords) if c != 0
                },
            }
        )
    doc: dict[str, Any] = {}
    if instance.name is not None:
        doc["name"] = instance.name
    doc["dim"] = g.dim
    doc["brackets"] = brackets
    doc["metric"] = [format_vector(m.gram.row(i)) for i in range(m.dim)]
    if instance.metadata:
        doc["metadata"] = dict(instance.metadata)
    return doc
