"""Analysis reports: the full exact summary of one instance.

A report collects everything the library can say about an (algebra,
metric) pair: structural flags, signature, the conformal and Killing
spaces, scalar curvature, one soliton per conformal basis solution, and
the verdicts of every applicable verifier. Reports are plain dicts with
deterministic key order and exact "p/q" scalars, so serializing the same
instance twice yields byte-identical output.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .algebra import LieAlgebra
from .conformal import (
    ConformalSolutionSpace,
    VerdictReport,
    conformal_space,
    killing_space,
    nonkilling_exists,
    verify_bounds_nonunimodular,
    verify_degenerate_restriction,
    verify_lightlike,
    verify_theorem_unimodular,
)
from .documents import format_fraction, format_vector
from .exact import Subspace
from .geometry import PseudoMetric, curvature, levi_civita, lowered_structure
from .yamabe import soliton_from_conformal, verify_corollary_unimodular


def _subspace_doc(s: Subspace) -> dict[str, Any]:
    return {"dim": s.dim, "basis": [format_vector(b) for b in s.basis]}


def _verdict_doc(v: VerdictReport) -> dict[str, Any]:
    doc: dict[str, Any] = {"check": v.check, "status": v.status.value, "detail": v.detail}
    if v.counterexample is not None:
        doc["counterexample"] = format_vector(v.counterexample)
    return doc


#: Verify scopes in report order, each running its verifier on the solved space.
#: The lambdas look each verifier up by module global at call time, so a
#: verifier replaced on this module (for tracing, say) is the one that runs.
VERIFIERS: dict[str, Callable[[LieAlgebra, PseudoMetric, ConformalSolutionSpace], VerdictReport]] = {
    "unimodular": lambda g, m, space: verify_theorem_unimodular(g, m, space),
    "bounds": lambda g, m, space: verify_bounds_nonunimodular(g, m, space),
    "lightlike": lambda g, m, space: verify_lightlike(g, m, space),
    "degenerate": lambda g, m, space: verify_degenerate_restriction(g, m, space),
    "corollary": lambda g, m, space: verify_corollary_unimodular(g, m, space),
}


def verdict_docs(
    g: LieAlgebra, m: PseudoMetric, space: ConformalSolutionSpace, scopes: Iterable[str]
) -> list[dict[str, Any]]:
    """The verdicts of the given scopes' verifiers as JSON-ready dicts."""
    return [_verdict_doc(VERIFIERS[scope](g, m, space)) for scope in scopes]


def build_report(g: LieAlgebra, m: PseudoMetric, name: str | None = None) -> dict[str, Any]:
    """Assemble the full analysis of one instance as a JSON-ready dict."""
    p, q = m.signature
    low = lowered_structure(g, m)
    curv = curvature(g, m, levi_civita(g, m, low))
    space = conformal_space(g, m, low)
    solitons = [
        soliton_from_conformal(g, m, x, rho, curv.scalar) for x, rho in space.solutions()
    ]
    verdicts = verdict_docs(g, m, space, VERIFIERS)
    report: dict[str, Any] = {
        "name": name,
        "dim": g.dim,
        "unimodular": g.is_unimodular,
        "signature": {"positive": p, "negative": q},
        "center": _subspace_doc(g.center()),
        "commutator_ideal": _subspace_doc(g.commutator_ideal()),
        "scalar_curvature": format_fraction(curv.scalar),
        "curvature_convention": curv.convention,
        "conformal": {
            "dim": space.dim,
            "basis": [format_vector(b) for b in space.space.basis],
            "coordinates": "x_1..x_n then rho",
            "killing": _subspace_doc(killing_space(space)),
            "nonkilling_exists": nonkilling_exists(space),
        },
        "solitons": [
            {
                "field": format_vector(s.field),
                "causal": m.causal_character(s.field).value,
                "rho": format_fraction(s.rho),
                "lambda": format_fraction(s.constant),
                "scalar": format_fraction(s.scalar),
                "class": s.kind.value,
                "trivial": s.trivial,
            }
            for s in solitons
        ],
        "verdicts": verdicts,
    }
    return report


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_table(report: dict[str, Any]) -> str:
    """A plain-text rendering of the analysis report."""
    lines = []
    title = report["name"] or "instance"
    lines.append(f"instance: {title}")
    lines.append(f"dimension: {report['dim']}")
    sig = report["signature"]
    lines.append(f"signature: ({sig['positive']}, {sig['negative']})")
    lines.append(f"unimodular: {_format_cell(report['unimodular'])}")
    lines.append(f"scalar curvature: {report['scalar_curvature']}")
    lines.append(f"center: dim {report['center']['dim']}")
    for b in report["center"]["basis"]:
        lines.append("  " + " ".join(_format_cell(c) for c in b))
    lines.append(f"commutator ideal: dim {report['commutator_ideal']['dim']}")
    for b in report["commutator_ideal"]["basis"]:
        lines.append("  " + " ".join(_format_cell(c) for c in b))
    conf = report["conformal"]
    lines.append(
        f"conformal solutions: dim {conf['dim']} ({conf['coordinates']}), "
        f"non-Killing: {_format_cell(conf['nonkilling_exists'])}"
    )
    for b in conf["basis"]:
        lines.append("  " + " ".join(_format_cell(c) for c in b))
    lines.append(f"killing fields: dim {conf['killing']['dim']}")
    for b in conf["killing"]["basis"]:
        lines.append("  " + " ".join(_format_cell(c) for c in b))
    lines.append("solitons:")
    if not report["solitons"]:
        lines.append("  none (conformal space is zero)")
    for s in report["solitons"]:
        lines.append(
            "  field [" + " ".join(_format_cell(c) for c in s["field"]) + "]"
            f" rho={s['rho']} lambda={s['lambda']} class={s['class']}"
            f" trivial={_format_cell(s['trivial'])}"
        )
    lines.append("verdicts:")
    for v in report["verdicts"]:
        lines.append(f"  [{v['status']}] {v['check']}: {v['detail']}")
    return "\n".join(lines) + "\n"
