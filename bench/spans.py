"""Spans and work counts recorded around lieconf's public calls.

`Tracer.installed()` replaces each traced function, in every lieconf
module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent); leaving the block restores the originals.
Nothing is patched outside a traced pass, so untraced passes run the
program unchanged.

Span names are `<module>.<function>` after the module that defines the
function. `report.serialize` is the CLI writing the JSON report and
`cli.main` is the whole call, opened by the harness, so the self times of
one pass add up to the pass's traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from lieconf import catalog, cli, conformal, documents, exact, geometry, report, sampling, yamabe
from lieconf.conformal import VerdictStatus

ROOT_SPAN = "cli.main"

# (module, attribute, span name) in the order a report makes the calls
TRACED: tuple[tuple[Any, str, str], ...] = (
    (documents, "parse_instance_json", "documents.parse_instance_json"),
    (report, "build_report", "report.build_report"),
    (geometry, "curvature", "geometry.curvature"),
    (geometry, "levi_civita", "geometry.levi_civita"),
    (conformal, "conformal_space", "conformal.conformal_space"),
    (conformal, "conformal_system", "conformal.conformal_system"),
    (exact, "kernel", "exact.kernel"),
    (yamabe, "soliton_from_conformal", "yamabe.soliton_from_conformal"),
    (conformal, "verify_theorem_unimodular", "conformal.verify_theorem_unimodular"),
    (conformal, "verify_bounds_nonunimodular", "conformal.verify_bounds_nonunimodular"),
    (conformal, "verify_lightlike", "conformal.verify_lightlike"),
    (conformal, "verify_degenerate_restriction", "conformal.verify_degenerate_restriction"),
    (yamabe, "verify_corollary_unimodular", "yamabe.verify_corollary_unimodular"),
    (catalog, "verification_targets", "catalog.verification_targets"),
    (sampling, "random_instances", "sampling.random_instances"),
    (report, "render_table", "report.render_table"),
    (cli, "_emit", "report.serialize"),
)
SPAN_NAMES = (ROOT_SPAN,) + tuple(name for _, _, name in TRACED)
VERIFIERS = tuple(name for name in SPAN_NAMES if ".verify_" in name)
# spans whose return values feed the work counts
KEEP_RESULTS = ("conformal.conformal_system", "conformal.conformal_space", "exact.kernel") + VERIFIERS
INNER_CALLS = "geometry.PseudoMetric.inner.calls"

# per-layer metric name -> unit, every one reported per pass
PER_LAYER: dict[str, str] = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.self_s"] = "s"
    PER_LAYER[f"{_name}.calls"] = "count"
PER_LAYER.update(
    {
        "conformal.conformal_system.rows": "count",
        "conformal.conformal_system.rank": "count",
        "conformal.conformal_system.max_bits": "bits",
        "conformal.conformal_space.solution_dim": "count",
        "exact.kernel.rank": "count",
        "verify.hypothesis_not_met_share": "ratio",
        INNER_CALLS: "count",
        "trace.pass_s": "s",
        "trace.overhead_s": "s",
    }
)


class Tracer:
    """Spans of one traced pass, kept in memory and summarized afterwards."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.results: dict[str, list] = defaultdict(list)
        self.inner_calls = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def _wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in KEEP_RESULTS

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.results[name].append(result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        originals = {id(getattr(module, attr)): (getattr(module, attr), name) for module, attr, name in TRACED}
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in originals.items()}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lieconf" and not mod_name.startswith("lieconf."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        inner = geometry.PseudoMetric.inner

        def counted_inner(metric, x, y):
            self.inner_calls += 1
            return inner(metric, x, y)

        geometry.PseudoMetric.inner = counted_inner
        try:
            yield self
        finally:
            geometry.PseudoMetric.inner = inner
            for module, attr, value in patched:
                setattr(module, attr, value)

    def summary(self, calibration: float = 1.0) -> dict[str, float]:
        """Per-layer figures of everything recorded: self time (in measured
        seconds times `calibration`), calls and work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.self_s"] += (end - start - children) * calibration
            out[f"{name}.calls"] += 1

        systems = self.results["conformal.conformal_system"]
        spaces = self.results["conformal.conformal_space"]
        entries = [x for a in systems for x in a.entries]
        out["conformal.conformal_system.rows"] = sum(a.rows for a in systems)
        out["conformal.conformal_system.rank"] = sum(s.algebra_dim + 1 - s.dim for s in spaces)
        out["conformal.conformal_system.max_bits"] = max(
            (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in entries), default=0
        )
        out["conformal.conformal_space.solution_dim"] = sum(s.dim for s in spaces)
        out["exact.kernel.rank"] = sum(s.ambient_dim - s.dim for s in self.results["exact.kernel"])
        verdicts = [v for name in VERIFIERS for v in self.results[name]]
        not_met = sum(v.status is VerdictStatus.HYPOTHESIS_NOT_MET for v in verdicts)
        out["verify.hypothesis_not_met_share"] = not_met / len(verdicts) if verdicts else 0.0
        out[INNER_CALLS] = self.inner_calls
        return out

