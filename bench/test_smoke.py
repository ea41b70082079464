"""Smoke test of the benchmark harness at a tiny size.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json declares is printed with its unit,
and that the correctness gates flag corrupted outputs.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import gates  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from lieconf import cli  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "tiny-sparse": lambda seed, work: harness._analyze_ops(workloads.sparse_docs(seed, dims=(4,)), work),
    "tiny-dense": lambda seed, work: harness._analyze_ops(workloads.dense_docs(seed, dims=(3,), per_dim=1), work),
    "tiny-verify": lambda seed, work: harness._verify_ops(seed, samples=5),
}


def _run(argv, registry=TINY):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert harness.main(argv, registry) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _check_printed(lines, result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"  {m['name']} = ") and f" {m['unit']} (samples=" in line for line in lines)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    assert set(harness.END_TO_END.items()) == {(m["name"], m["unit"]) for m in DECLARED["end_to_end"]}
    for name in TINY:
        lines, result = _run(["--workload", name, "--seconds", "0"])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        _check_printed(lines, result, DECLARED["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert lines[0].startswith("env ") and {"python", "nproc", "loadavg", "commit"} <= set(json.loads(lines[0][4:]))


def test_every_per_layer_metric_is_printed_with_its_unit():
    assert set(harness.spans.PER_LAYER.items()) == {(m["name"], m["unit"]) for m in DECLARED["per_layer"]}
    for name in ("tiny-sparse", "tiny-verify"):
        lines, result = _run(["--workload", name, "--seconds", "0", "--trace", "1"])
        assert result["correct"]
        _check_printed(lines, result, DECLARED["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    calls = len(workloads.verify_seeds(0))
    assert metrics["cli.main.calls"] == calls
    assert metrics["conformal.verify_lightlike.calls"] == calls * workloads.verify_instances(5)


def test_traced_spans_are_removed_after_the_pass():
    originals = [getattr(module, attr) for module, attr, _ in harness.spans.TRACED]
    tracer = harness.spans.Tracer()
    with tracer.installed():
        assert cli.build_report is not originals[1]
    assert [getattr(module, attr) for module, attr, _ in harness.spans.TRACED] == originals
    assert cli.build_report is originals[1]


def _analyze(doc):
    out = io.StringIO()
    path = BENCH_DIR / ".work" / "smoke.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(doc.text)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["analyze", "--input", str(path)]) == 0
    finally:
        path.unlink()
    return json.loads(out.getvalue())


def test_gates_pass_real_reports_and_flag_corrupted_ones():
    doc = workloads.sparse_docs(3, dims=(4,))[0]
    assert doc.expect_nonkilling
    report = _analyze(doc)
    assert gates.check_analyze(doc.text, report, True) == []
    assert report["solitons"]

    flipped = json.loads(json.dumps(report))
    flipped["solitons"][0]["rho"] = str(-Fraction(flipped["solitons"][0]["rho"]))
    assert gates.check_analyze(doc.text, flipped, True)

    basis = json.loads(json.dumps(report))
    basis["conformal"]["basis"][0][-1] = str(-Fraction(basis["conformal"]["basis"][0][-1]))
    assert any("kernel" in p for p in gates.check_analyze(doc.text, basis, True))

    scalar = json.loads(json.dumps(report))
    scalar["scalar_curvature"] = str(Fraction(scalar["scalar_curvature"]) + 1)
    assert any("Milnor" in p for p in gates.check_analyze(doc.text, scalar, True))

    assert gates.check_analyze(doc.text, report, False)


def test_digest_ignores_detail_strings_only():
    report = {"verdicts": [{"check": "c", "status": "pass", "detail": "one wording"}]}
    reworded = {"verdicts": [{"check": "c", "status": "pass", "detail": "another"}]}
    failed = {"verdicts": [{"check": "c", "status": "violated", "detail": "one wording"}]}
    assert gates.digest(report) == gates.digest(reworded) != gates.digest(failed)


def test_verify_gate_flags_violations():
    payload = {
        "instances": 1,
        "counts": {"pass": 4, "hypothesis_not_met": 0, "violated": 1},
        "results": [{"verdicts": [{"status": "pass"}] * 4 + [{"status": "violated"}]}],
    }
    assert gates.check_verify(payload, 1)
    payload["counts"] = {"pass": 5, "hypothesis_not_met": 0, "violated": 0}
    assert gates.check_verify(payload, 1)


def test_a_failed_gate_fails_every_operation_it_covers():
    def failing(seed, work):
        ops = harness._analyze_ops(workloads.sparse_docs(seed, dims=(4,)), work)
        ops[0].check = lambda output: ["corrupted on purpose"]
        ops[1].check = lambda output: json.loads(output)["no such key"]
        return ops

    _, result = _run(["--workload", "broken", "--seconds", "0"], {"broken": failing})
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
