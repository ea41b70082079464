"""Command-line interface.

Three subcommands:

* ``analyze``  - full exact report for one instance (built-in family or
  JSON document on file/stdin).
* ``verify``   - run the structural verifiers over built-in instances,
  seeded random instances, and seeded random metrics; summarize verdicts.
* ``catalog``  - list built-in families or emit one as a JSON document.

Exit codes: 0 success, 1 input or validation error, 2 family constraint
violation, 3 a verified statement failed on some instance.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Sequence

from . import catalog, sampling
from .algebra import MAX_SAMPLES, LieAlgebra
from .conformal import VerdictStatus, conformal_space
from .documents import Instance, instance_to_document, parse_instance_json
from .errors import ConstraintViolated, DocumentError, LieconfError, UnknownFamily
from .exact import frac
from .geometry import PseudoMetric
from .report import VERIFIERS, build_report, render_table, verdict_docs

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONSTRAINT = 2
EXIT_VIOLATED = 3

SCOPES = (*VERIFIERS, "all")


def _parse_params(pairs: Sequence[str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise DocumentError("--param", f"expected key=value, got {pair!r}")
        if key in params:
            raise DocumentError("--param", f"duplicate parameter {key!r}")
        params[key] = value
    return params


def _family_instance(name: str, params: dict[str, str]) -> tuple[str, LieAlgebra, PseudoMetric]:
    """(label, algebra, metric) of a built-in family from parsed --param values."""
    try:
        coerced = {k: frac(v) for k, v in params.items()}
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DocumentError("--param", f"invalid rational value ({exc})") from None
    g, m = catalog.instantiate(name, coerced)
    return catalog.family_label(name, params), g, m


def _load_instance(args: argparse.Namespace) -> tuple[str | None, LieAlgebra, PseudoMetric]:
    """Resolve --family/--input to (label, algebra, metric)."""
    if args.family and args.input:
        raise DocumentError("$", "give either --family or --input, not both")
    if args.family:
        return _family_instance(args.family, _parse_params(args.param))
    if args.input:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DocumentError(args.input, f"cannot read file: {exc}") from None
        instance = parse_instance_json(text)
        return instance.name, instance.algebra, instance.metric
    raise DocumentError("$", "an instance is required: pass --family NAME or --input FILE")


def _emit(args: argparse.Namespace, payload: dict | list, table: str | None = None) -> None:
    if args.format == "table" and table is not None:
        sys.stdout.write(table)
    else:
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    label, g, m = _load_instance(args)
    report = build_report(g, m, name=label)
    _emit(args, report, render_table(report))
    return EXIT_OK


def _verify_targets(args: argparse.Namespace) -> list[tuple[str, LieAlgebra, PseudoMetric]]:
    if args.family:
        return [_family_instance(args.family, _parse_params(args.param))]
    rng = random.Random(args.seed)
    targets = list(catalog.verification_targets())
    targets.extend(sampling.random_instances(rng, args.samples))
    # seeded random metrics on the unimodular built-ins, every achievable signature
    for name, params in (
        ("abelian", {"n": 3}),
        ("heisenberg3", {}),
        ("so3", {}),
        ("sl2", {}),
    ):
        g, _ = catalog.instantiate(name, params)
        for positive in range(g.dim + 1):
            for k in range(max(1, args.samples // 5)):
                m = sampling.random_metric(rng, g.dim, positive)
                targets.append((f"{name}+metric(p={positive},#{k})", g, m))
    return targets


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise DocumentError("--samples", f"must be a non-negative integer, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise DocumentError("--samples", f"must be at most {MAX_SAMPLES}, got {args.samples}")
    scopes = list(VERIFIERS) if args.scope == "all" else [args.scope]
    targets = _verify_targets(args)
    results = []
    counts = {status.value: 0 for status in VerdictStatus}
    for label, g, m in targets:
        verdicts = verdict_docs(g, m, conformal_space(g, m), scopes)
        for v in verdicts:
            counts[v["status"]] += 1
        results.append({"instance": label, "verdicts": verdicts})
    payload = {
        "scope": args.scope,
        "seed": args.seed,
        "samples": args.samples,
        "instances": len(targets),
        "counts": {
            "pass": counts[VerdictStatus.PASSED.value],
            "hypothesis_not_met": counts[VerdictStatus.HYPOTHESIS_NOT_MET.value],
            "violated": counts[VerdictStatus.VIOLATED.value],
        },
        "results": results,
    }
    lines = []
    for entry in results:
        for v in entry["verdicts"]:
            lines.append(f"[{v['status']}] {entry['instance']} :: {v['check']}: {v['detail']}")
    lines.append(
        "totals: pass={pass}, hypothesis-not-met={hypothesis_not_met}, violated={violated}".format(
            **payload["counts"]
        )
    )
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_VIOLATED if payload["counts"]["violated"] else EXIT_OK


def _family_doc(spec: catalog.FamilySpec) -> dict[str, Any]:
    return {
        "name": spec.name,
        "dimension": spec.dimension,
        "summary": spec.summary,
        "parameters": [
            {
                "name": p.name,
                "description": p.description,
                "default": p.default,
                "required": p.default is None and not p.optional and not p.name.endswith("..."),
            }
            for p in spec.parameters
        ],
        "constraints": spec.constraints,
    }


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "list":
        specs = catalog.list_families()
        payload = [_family_doc(s) for s in specs]
        table = "\n".join(f"{s.name:<14} dim {s.dimension:<4} {s.summary}" for s in specs) + "\n"
        _emit(args, payload, table)
        return EXIT_OK
    if not args.name:
        raise DocumentError("name", f"catalog {args.action} needs a family name")
    spec = catalog.family(args.name)
    if args.action == "show":
        payload = _family_doc(spec)
        lines = [
            f"name: {spec.name}",
            f"dimension: {spec.dimension}",
            f"summary: {spec.summary}",
            f"constraints: {spec.constraints}",
            "parameters:",
        ]
        for p in spec.parameters:
            default = "required" if p.default is None and not p.optional else f"default {p.default}"
            if p.optional and p.default is None:
                default = "optional"
            lines.append(f"  {p.name}: {p.description} ({default})")
        _emit(args, payload, "\n".join(lines) + "\n")
        return EXIT_OK
    # emit
    params = _parse_params(args.param)
    label, g, m = _family_instance(args.name, params)
    doc = instance_to_document(
        Instance(g, m, name=label, metadata={"family": args.name, "params": dict(sorted(params.items()))})
    )
    json.dump(doc, sys.stdout, indent=2, ensure_ascii=False)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieconf",
        description=(
            "Exact classification of left-invariant conformal vector fields and "
            "Yamabe solitons on metric Lie algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full exact report for one instance")
    analyze.add_argument("--family", help="built-in family name")
    analyze.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family parameter, rational values like 3, -1/2 (repeatable)",
    )
    analyze.add_argument("--input", help="instance document path, or - for stdin")
    analyze.add_argument("--format", choices=("json", "table"), default="json")
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("verify", help="run structural verifiers and summarize")
    verify.add_argument("--scope", choices=SCOPES, default="all")
    verify.add_argument("--family", help="restrict to one built-in family instance")
    verify.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE", help="family parameter"
    )
    verify.add_argument("--seed", type=int, default=0, help="seed that selects the random instances and metrics")
    verify.add_argument(
        "--samples",
        type=int,
        default=10,
        help="number of random instances to add, and of random metrics per signature (samples // 5, at least 1)",
    )
    verify.add_argument("--format", choices=("json", "table"), default="json")
    verify.set_defaults(func=cmd_verify)

    cat = sub.add_parser("catalog", help="list built-in families or emit one")
    cat.add_argument("action", choices=("list", "show", "emit"))
    cat.add_argument("name", nargs="?", help="family name (for show/emit)")
    cat.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE", help="family parameter"
    )
    cat.add_argument("--format", choices=("json", "table"), default="json")
    cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConstraintViolated, UnknownFamily) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except LieconfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
