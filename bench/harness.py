"""The lieconf benchmark: closed-loop, single-threaded, in one process.

One operation is one in-process `lieconf.cli.main(argv)` call: `analyze
--input DOC` on the analyze workloads, `verify --scope all ...` on
verify-sweep. A pass runs every operation of the workload's fixed mix
once, in order. After MIN_REPS whole passes, operations go on until
`--seconds` of operation time have been measured.

Timings are calibrated seconds (see reference.py): a fixed reference task
is timed around and during each operation, and the latency is scaled by
the reference speed seen meanwhile. Each operation's latency is the
median of its samples.

End-to-end metrics (tracing off):
  instances_per_s  instances per pass / sum of the operations' median latencies
  instance_s.p50   median over the operations of their median latency
  setup_s          median over fresh interpreters of the time to import lieconf.cli
  peak_rss_mb      peak resident memory of this process

With --trace 1 the passes run in pairs, one untraced and one traced, and
the per-layer metrics of spans.PER_LAYER are medians over traced passes;
trace.overhead_s is the traced minus the untraced pass time.

Every output is checked (gates.py); a miss, a non-zero exit code or an
exception fails the operation. The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import gates
import reference
import spans
import workloads
from lieconf import cli

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
WORK = BENCH_DIR / ".work"
MIN_REPS = 2
MIN_TRACE_PAIRS = 1
SETUP_RUNS = 9

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One operation of a workload's mix and what it has produced so far."""

    name: str
    argv: list[str]
    instances: int
    check: Callable[[str], list[str]]  # gate on the first output
    latencies: list[float] = field(default_factory=list)  # calibrated, untraced
    raw: list[float] = field(default_factory=list)  # measured, untraced
    runs: int = 0
    failures: int = 0  # runs that raised, exited non-zero or changed output
    first_output: str | None = None
    problems: list[str] | None = None  # gate misses of the first output


# a workload builds its fixed mix of operations from (seed, work dir)
Build = Callable[[int, Path], list[Op]]


def _analyze_ops(docs: list[workloads.Doc], work: Path) -> list[Op]:
    ops = []
    for doc in docs:
        path = work / f"{doc.name}.json"
        path.write_text(doc.text, encoding="utf-8")

        def check(output: str, doc: workloads.Doc = doc) -> list[str]:
            return gates.check_analyze(doc.text, json.loads(output), doc.expect_nonkilling)

        ops.append(Op(doc.name, ["analyze", "--input", str(path)], 1, check))
    return ops


def _verify_ops(seed: int, samples: int = workloads.VERIFY_SAMPLES) -> list[Op]:
    instances = workloads.verify_instances(samples)

    def check(output: str) -> list[str]:
        return gates.check_verify(json.loads(output), instances)

    return [
        Op(f"verify-seed{s}", workloads.verify_argv(s, samples), instances, check) for s in workloads.verify_seeds(seed)
    ]


WORKLOADS: dict[str, Build] = {
    "analyze-sparse": lambda seed, work: _analyze_ops(workloads.sparse_docs(seed), work),
    "analyze-dense": lambda seed, work: _analyze_ops(workloads.dense_docs(seed), work),
    "verify-sweep": lambda seed, work: _verify_ops(seed),
}


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh directory for input documents inside the benchmark's own tree."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        yield Path(tmp)


def run_op(op: Op, probe: reference.Probe, tracer: spans.Tracer | None = None) -> float:
    """Call the CLI once under the probe, inside the root span when traced,
    and return the seconds it took. Counts the run, and a failure when the
    call raises, exits non-zero or changes its output."""
    out, err = io.StringIO(), io.StringIO()
    root = tracer.span(spans.ROOT_SPAN) if tracer else contextlib.nullcontext()
    latency, problem = 0.0, None
    op.runs += 1
    gc.collect()
    try:
        with probe.running(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with root:
                    code = cli.main(op.argv)
            finally:
                latency = time.perf_counter() - start
    except Exception:  # the benchmark keeps running and counts the failure
        problem = traceback.format_exc()
    else:
        output = out.getvalue()
        if code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        elif op.first_output is None:
            op.first_output = output
        elif output != op.first_output:
            problem = "output differs from its first run"
    if problem:
        op.failures += 1
        print(f"op {op.name}: {problem}", file=sys.stderr)
    return latency


def run_pass(ops: list[Op], tracer: spans.Tracer | None = None, budget: float = math.inf) -> tuple[float, float]:
    """Run the mix once, stopping early once `budget` measured seconds are
    spent; (measured seconds, calibrated seconds)."""
    raw_total, total = 0.0, 0.0
    for op in ops:
        if raw_total >= budget:
            break
        probe = reference.Probe()
        probe.around()
        with tracer.installed() if tracer else contextlib.nullcontext():
            latency = run_op(op, probe, tracer)
        probe.around()
        calibrated = probe.calibrate(latency)
        raw_total, total = raw_total + latency, total + calibrated
        if tracer is None:
            op.latencies.append(calibrated)
            op.raw.append(latency)
    return raw_total, total


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    """The digests recorded for the workload's default seed; none for other seeds."""
    if seed != workloads.DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def gate(ops: list[Op], recorded: dict[str, str]) -> None:
    """Check each operation's first output by independent routes and against
    the digest recorded for it, if any."""
    for op in ops:
        if op.first_output is None:
            op.problems = ["no successful output"]
        else:
            try:
                op.problems = op.check(op.first_output)
                if op.name in recorded and gates.digest(json.loads(op.first_output)) != recorded[op.name]:
                    op.problems.append("digest differs from the one recorded")
            except Exception:  # a malformed output fails its gate, not the benchmark
                op.problems = [traceback.format_exc()]
        for problem in op.problems:
            print(f"gate {op.name}: {problem}", file=sys.stderr)


_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import lieconf.cli
lieconf.cli.main
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import reference
print(elapsed, reference.sample())
"""


def measure_setup() -> tuple[float, float, int]:
    """(median calibrated, median measured, samples) of the time from the start
    of `import lieconf.cli` to a callable main, each in a fresh interpreter,
    after one unmeasured warm-up."""
    calibrated, measured = [], []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        elapsed, ref = (float(x) for x in done.stdout.split())
        if k:
            measured.append(elapsed)
            calibrated.append(elapsed * reference.NOMINAL_S / ref)
    return statistics.median(calibrated), statistics.median(measured), len(measured)


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "lieconf").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "reference_s": reference.sample(),
        "reference_nominal_s": reference.NOMINAL_S,
    }


def measure(workload: str, build: Build, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and check its outputs."""
    with work_dir() as tmp:
        ops = build(seed, tmp)
        timed, passes = 0.0, 0
        untraced_s, traced_s, layers = [], [], []
        while timed < seconds or passes < (MIN_TRACE_PAIRS if trace else MIN_REPS):
            if not trace:
                # after MIN_REPS whole passes, stop as soon as the time is spent
                raw, _ = run_pass(ops, budget=seconds - timed if passes >= MIN_REPS else math.inf)
                timed += raw
            else:
                tracer = spans.Tracer()
                # alternate which half of the pair goes first, so drift cancels
                for traced in (passes % 2 == 1, passes % 2 == 0):
                    raw, calibrated = run_pass(ops, tracer if traced else None)
                    timed += raw
                    if traced:
                        traced_s.append(calibrated)
                        layers.append(tracer.summary(calibration=calibrated / raw))
                    else:
                        untraced_s.append(calibrated)
            passes += 1
        gate(ops, recorded_digests(workload, seed))

    attempted = sum(op.runs for op in ops)
    failed = sum(op.runs if op.problems else op.failures for op in ops)
    metrics: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, samples)
    if trace:
        per_layer = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
        per_layer["trace.pass_s"] = statistics.median(untraced_s)
        per_layer["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        for name, unit in spans.PER_LAYER.items():
            metrics[name] = (per_layer[name], unit, len(layers))
        self_sum = sum(value for name, value in per_layer.items() if name.endswith(".self_s"))
        print(
            f"{workload}: span self times sum to {self_sum:.6g} s per pass against an untraced "
            f"pass of {per_layer['trace.pass_s']:.6g} s, overhead {per_layer['trace.overhead_s']:.6g} s"
        )
    else:
        samples = sum(len(op.latencies) for op in ops)
        medians = [statistics.median(op.latencies) for op in ops]
        raw_medians = [statistics.median(op.raw) for op in ops]
        instances = sum(op.instances for op in ops)
        setup, setup_raw, setup_samples = measure_setup()
        values = {
            "instances_per_s": (instances / sum(medians), samples),
            "instance_s.p50": (statistics.median(medians), samples),
            "setup_s": (setup, setup_samples),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        for name, unit in END_TO_END.items():
            metrics[name] = (values[name][0], unit, values[name][1])
        print(
            f"{workload}: measured (uncalibrated) instances_per_s = {instances / sum(raw_medians):.6g}, "
            f"instance_s.p50 = {statistics.median(raw_medians):.6g} s, setup_s = {setup_raw:.6g} s"
        )
    return {"attempted": attempted, "failed": failed, "passes": passes, "metrics": metrics}


def _print_result(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: passes={result['passes']} attempted={attempted} failed={failed}")
    print(f"  ops_failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for metric, (value, unit, samples) in result["metrics"].items():
        print(f"  {metric} = {value:.6g} {unit} (samples={samples})")


def main(argv: list[str] | None = None, registry: dict[str, Build] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(registry) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(registry) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, args.trace)))
    results = {}
    for name in names:
        results[name] = measure(name, registry[name], args.seed, args.seconds, bool(args.trace))
        _print_result(name, results[name])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(names) > 1
    metrics = {
        (f"{name}/{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, result in results.items()
        for metric, (value, unit, _) in result["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
