"""Correctness gates for benchmark outputs.

Every analyze report is checked by routes that do not go through the
solver that produced it:

* the conformal system is rebuilt here from the document's bracket table
  and Gram matrix, and its rank (by a separate Fraction elimination) must
  give the reported solution dimension, with every reported basis vector
  in its kernel;
* every basis solution must pass `conformal.is_conformal_solution`, a
  residual check of L_x g = 2 rho g;
* every soliton must pass `yamabe.check_soliton` and satisfy
  lambda = scalar - rho for the basis solution it was built from;
* the scalar curvature must equal Milnor's formula
  s = -1/4 sum g^ia g^jb <[e_i,e_j],[e_a,e_b]> - 1/2 sum g^ij B(e_i,e_j) - <H,H>
  (Milnor 1976; Besse, Einstein Manifolds 7.38-7.39), which never builds
  the connection.

A verify payload must report no violation and a consistent verdict count.
Digests leave out verdict `detail` strings, which are free text.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from lieconf import documents
from lieconf.conformal import is_conformal_solution
from lieconf.yamabe import check_soliton

VERIFY_CHECKS = 5


def digest(payload: Any) -> str:
    """sha256 of a report or verify payload without verdict detail strings."""

    def strip(node: Any) -> Any:
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "detail"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    canonical = json.dumps(strip(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- independent exact arithmetic on the raw document -------------------------


def _structure(doc: dict) -> tuple[int, list[list[list[Fraction]]], list[list[Fraction]]]:
    """(n, c, G) with c[i][j][k] the e_k coefficient of [e_i, e_j], 0-based."""
    n = doc["dim"]
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for entry in doc["brackets"]:
        i, j = entry["i"] - 1, entry["j"] - 1
        for key, value in entry["coeffs"].items():
            k = int(key) - 1
            c[i][j][k] = Fraction(value)
            c[j][i][k] = -Fraction(value)
    gram = [[Fraction(v) for v in row] for row in doc["metric"]]
    return n, c, gram


def _lowered(n: int, c, gram) -> list[list[list[Fraction]]]:
    """low[a][b][k] = <[e_a, e_b], e_k>."""
    return [
        [[sum((c[a][b][l] * gram[l][k] for l in range(n)), Fraction(0)) for k in range(n)] for b in range(n)]
        for a in range(n)
    ]


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f != 0:
                f /= top[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _inverse(gram: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(gram)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(gram)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def conformal_rows(n: int, low, gram) -> list[list[Fraction]]:
    """Rows (i <= j) of (L_x g)(e_i, e_j) - 2 rho g_ij = 0 in (x_1..x_n, rho)."""
    return [
        [-low[k][i][j] - low[k][j][i] for k in range(n)] + [-2 * gram[i][j]]
        for i in range(n)
        for j in range(i, n)
    ]


def milnor_scalar(n: int, c, gram) -> Fraction:
    ginv = _inverse(gram)
    low = _lowered(n, c, gram)
    first = Fraction(0)
    for a in range(n):
        for b in range(n):
            for k in range(n):
                if low[a][b][k] == 0:
                    continue
                raised = sum(
                    (ginv[i][a] * ginv[j][b] * c[i][j][k] for i in range(n) if ginv[i][a] for j in range(n) if ginv[j][b]),
                    Fraction(0),
                )
                first += raised * low[a][b][k]
    killing = [
        [sum((c[i][l][k] * c[j][k][l] for k in range(n) for l in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    second = sum((ginv[i][j] * killing[i][j] for i in range(n) for j in range(n)), Fraction(0))
    traces = [sum((c[i][l][l] for l in range(n)), Fraction(0)) for i in range(n)]
    third = sum((traces[i] * ginv[i][j] * traces[j] for i in range(n) for j in range(n)), Fraction(0))
    return -first / 4 - second / 2 - third


# -- gates --------------------------------------------------------------------


def check_analyze(doc_text: str, report: dict, expect_nonkilling: bool | None = None) -> list[str]:
    """Every way the report disagrees with an independent route; [] when correct."""
    doc = json.loads(doc_text)
    n, c, gram = _structure(doc)
    low = _lowered(n, c, gram)
    problems = []

    conf = report["conformal"]
    basis = [[Fraction(v) for v in b] for b in conf["basis"]]
    system = conformal_rows(n, low, gram)
    expected_dim = n + 1 - _rank(system)
    if conf["dim"] != expected_dim or len(basis) != expected_dim:
        problems.append(f"conformal dim {conf['dim']} but the rebuilt system has nullity {expected_dim}")
    for b in basis:
        if any(sum((r * x for r, x in zip(row, b)), Fraction(0)) != 0 for row in system):
            problems.append(f"basis vector {b} is not in the kernel of the rebuilt system")

    instance = documents.parse_instance_json(doc_text)
    g, m = instance.algebra, instance.metric
    for b in basis:
        if not is_conformal_solution(g, m, b[:n], b[n]):
            problems.append(f"basis solution {b} fails is_conformal_solution")

    nonkilling = any(b[n] != 0 for b in basis)
    if conf["nonkilling_exists"] != nonkilling:
        problems.append("nonkilling_exists disagrees with the basis")
    if conf["killing"]["dim"] != len(basis) - (1 if nonkilling else 0):
        problems.append("killing dim is not the rho = 0 slice of the conformal space")
    if expect_nonkilling is not None and nonkilling != expect_nonkilling:
        problems.append(f"expected nonkilling_exists = {expect_nonkilling} from the generator")

    scalar = Fraction(report["scalar_curvature"])
    if scalar != milnor_scalar(n, c, gram):
        problems.append(f"scalar curvature {scalar} differs from Milnor's formula")

    solitons = report["solitons"]
    if len(solitons) != len(basis):
        problems.append(f"{len(solitons)} solitons for {len(basis)} basis solutions")
    for s, b in zip(solitons, basis):
        field, rho, lam = [Fraction(v) for v in s["field"]], Fraction(s["rho"]), Fraction(s["lambda"])
        if field != b[:n] or rho != b[n]:
            problems.append("soliton does not carry its basis solution")
        if lam != scalar - rho or Fraction(s["scalar"]) != scalar:
            problems.append(f"soliton lambda {lam} != scalar - rho = {scalar - rho}")
        if not check_soliton(g, m, field, lam):
            problems.append(f"soliton with lambda {lam} fails check_soliton")
        if s["trivial"] != (rho == 0):
            problems.append("soliton triviality disagrees with rho")
    return problems


def check_verify(payload: dict, instances: int) -> list[str]:
    problems = []
    counts = payload["counts"]
    if counts["violated"] != 0:
        problems.append(f"{counts['violated']} violated verdicts")
    if payload["instances"] != instances or len(payload["results"]) != instances:
        problems.append(f"{payload['instances']} instances, expected {instances}")
    statuses = [v["status"] for r in payload["results"] for v in r["verdicts"]]
    if len(statuses) != VERIFY_CHECKS * instances:
        problems.append(f"{len(statuses)} verdicts, expected {VERIFY_CHECKS * instances}")
    tally = {
        "pass": statuses.count("pass"),
        "hypothesis_not_met": statuses.count("hypothesis-not-met"),
        "violated": statuses.count("violated"),
    }
    if tally != counts:
        problems.append(f"counts {counts} disagree with the verdicts {tally}")
    return problems
