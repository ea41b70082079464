"""Output guard: sha256 digests of full reports, verify runs and generated
instances. The report and the seed-0 verify digests were recorded before
the exact core moved from Fraction loops to integer contractions; the
verify-sweep, table and generator digests before instance generation
moved to ints.

Any drift in the JSON a report or a verify run prints, or in the instances
`sampling` draws for a seed, fails here, without the benchmark. A change
that means to alter output records new digests and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from lieconf import Instance, build_report, instance_to_document, sampling, verification_targets
from lieconf.cli import main

ANALYZE_DIGESTS = {
    "abelian(n=2,p=1)": "a729c51d927e260676974ff920e7f5133b622bb48d1557a0d66a42f94a4f13b4",
    "abelian(n=3,p=2)": "ce72a700db60bf7408ace38a7d8d89a56b9033bd9f4ab432a89e965d8f34b835",
    "abelian(n=4,p=3)": "79cb33e62ec8ba2cce22adee1e79b46cee00ef1bd3db43fef016148c1014b23c",
    "heisenberg3": "4583764a1400924f3ed155179b7a22a2466434092b85139713a40cffc6db5860",
    "so3": "1b6a98fdff2671e3158e13b520d9d86138ce32146e3c68d77dccea093c5103ad",
    "sl2": "5935d564cdc5b0ee6d9c060c6c2b5b1595368eb0ab9a7f2ef32e94d1cc328b68",
    "affine2": "04720d12718cfa85067f1096ecc8f16dec64eb8fa06f7db7c3a35e6cc30f1a44",
    "general3(alpha=1,beta=1,delta=1,gamma=1)": "97f2db4b3ef6f9448cc6c042c080b08ea210bfe7b78435f3500997944024fe6b",
    "nonuni3(alpha=1,beta=0)": "77d205de75e5cd03d1f606df3497a3540bd5cf59c9010e7d4a6ecac90999df6a",
    "nonuni3(alpha=1,beta=1)": "e0952a93eb9342b56eed60702a9c4462d4e5c5faa4f681617c4eba8e6f707ca9",
    "damekricci4(alpha=0)": "536fe154183b50c813c4478e43bdaefa257bcd3f371783ffcaf3f9593b0ee063",
    "damekricci4(alpha=1/2)": "2f5185a371a83236b06243bfc33e573a2edd1e1a66e23a54529913c2ef367bb1",
    "damekricci4(alpha=1)": "a763eb137c61269b8cd695b680c3eecf4f4d167db588cdc46b9487011d75deb7",
    "damekricci4(alpha=2)": "996ee35949d7a56fdcc6f08133b3e3630732e1b93e17a9e536fa42e9adee733d",
    "diagonalN(lambda1=1,lambda2=1,lambda3=2,n=4)": "63150a0bda409598ac234140a86b9aa355a26446383eb5881f17956e4ee1dbd5",
    "diagonalN(lambda1=1,lambda2=2,lambda3=3,n=4)": "8e3a8fd4ecab5093799630e871620034728f96c515a60ef4e5cdf5833fb9463d",
    "gradedN(beta12=1,lambda1=3/2,lambda2=3/2,lambda3=3,n=4)": "1e2161e2297864a0fa25238bfc9ef763686953521cd552e808513f052ad76a31",
    "gradedN(beta12=1,lambda1=1,lambda2=3,lambda3=4,n=4)": "ff3cdd93905ee649c1400f41affaa81646448bd667e0343e1750b5904d8d5f81",
}

# lieconf verify --scope all --seed 0 --samples 10 (JSON on stdout, exit 0)
VERIFY_DIGEST = "08108d85e746bda180ac288188f47dfb45c826c577856e2e3f49b366c487e997"

# lieconf verify --scope all --seed S --samples 30, the benchmark's verify-sweep calls
SWEEP_DIGESTS = {
    0: "65d1031a00dcb45dde234c7b4a08fdb13b2c7296da3d97f81329ec201ac7215f",
    1: "9f04030dd9d9138f5ca96f1e3fe65d74aaf5d368a8edb543350f6d9a0ff6ec30",
    2: "5e1fcf660f8a19f94c4dede38163a8ac3fb4909f89ca9eb19508afa3b0e224ac",
    3: "cc9cd19594014b7679879e6d59245c671c83052b6113b6f0b6f9741fb757cb99",
}

# lieconf verify --scope all --seed 0 --samples 30 --format table
TABLE_DIGEST = "b60d17a48ce189911c9ccdfe58d60ff294b5646ba4f9f18a69ba0af695d0a157"

# the documents of sampling.random_instances(random.Random(s), 30), as one JSON list
INSTANCE_DIGESTS = {
    0: "173428fc47b24b265c2f4cb365ff2c47a7ac59ad68bf3d8c87e937ec30dc5ca3",
    1: "8b2407f33227be28697b462985b6789e890ba2e5b9d4a4ca76cfb81b43302cf7",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("label", "g", "m"), [pytest.param(*t, id=t[0]) for t in verification_targets()])
def test_analyze_report_unchanged(label, g, m):
    # the bytes `lieconf analyze` prints for this instance
    text = json.dumps(build_report(g, m, name=label), indent=2, ensure_ascii=False) + "\n"
    assert _sha256(text) == ANALYZE_DIGESTS[label]


def _run(argv: list[str]) -> str:
    """stdout of a successful, silent `lieconf` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def test_verify_output_unchanged():
    assert _sha256(_run(["verify", "--scope", "all", "--seed", "0", "--samples", "10"])) == VERIFY_DIGEST


@pytest.mark.parametrize("seed", sorted(SWEEP_DIGESTS))
def test_verify_sweep_output_unchanged(seed):
    argv = ["verify", "--scope", "all", "--seed", str(seed), "--samples", "30"]
    assert _sha256(_run(argv)) == SWEEP_DIGESTS[seed]


def test_verify_table_unchanged():
    argv = ["verify", "--scope", "all", "--seed", "0", "--samples", "30", "--format", "table"]
    assert _sha256(_run(argv)) == TABLE_DIGEST


@pytest.mark.parametrize("seed", sorted(INSTANCE_DIGESTS))
def test_random_instances_unchanged(seed):
    docs = [
        instance_to_document(Instance(g, m, name=label))
        for label, g, m in sampling.random_instances(random.Random(seed), 30)
    ]
    assert _sha256(json.dumps(docs, indent=2, ensure_ascii=False) + "\n") == INSTANCE_DIGESTS[seed]
