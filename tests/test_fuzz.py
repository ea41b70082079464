"""Fuzzing the input boundary: documents and argv never end in a traceback.

Every strategy is bounded (a few short leaves, dimensions up to 4, small
parameter values), so no example builds a large object or a slow instance.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from lieconf import Instance, LieconfError, parse_instance
from lieconf.cli import main

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(["1", "-1/2", "3/4", "0", "1/0", "x", "1e2", "1e99999", "", "nan"])
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@st.composite
def documents(draw):
    """Document-shaped values: known fields and near-valid shapes, where
    about one field in eight is swapped for an arbitrary JSON value."""
    dim = draw(st.integers(1, 4))

    def rarely() -> bool:
        return draw(st.integers(0, 7)) == 5

    def maybe(strategy):
        return draw(json_values) if rarely() else draw(strategy)

    rational = st.sampled_from([0, 0, 1, -2, "1/2", "-3/4", "5"])
    indices = st.sampled_from([str(k) for k in range(1, dim + 1)] + ["0", "x", "\uff13"])
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    brackets = []
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)) if pairs else ():
        brackets.append(
            {
                "i": maybe(st.just(i)),
                "j": maybe(st.just(j)),
                "coeffs": maybe(st.dictionaries(indices, rational, max_size=dim)),
            }
        )
    diagonal = [draw(st.sampled_from([1, -1, "1/2", 0])) for _ in range(dim)]
    metric = [[diagonal[r] if r == c else maybe(st.just(0)) for c in range(dim)] for r in range(dim)]
    doc = {"dim": maybe(st.just(dim)), "brackets": maybe(st.just(brackets)), "metric": maybe(st.just(metric))}
    if draw(st.booleans()):
        doc["name"] = maybe(st.text(max_size=4))
    if draw(st.booleans()):
        doc["metadata"] = maybe(st.dictionaries(st.text(max_size=4), json_values, max_size=2))
    if rarely():
        doc[draw(st.text(max_size=4))] = draw(json_values)
    if rarely():
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@given(json_values | documents())
@settings(max_examples=200, deadline=None)
def test_parse_instance_gives_instance_or_library_error(value):
    try:
        assert isinstance(parse_instance(value), Instance)
    except LieconfError:
        pass


FAMILIES = [
    "abelian", "heisenberg3", "so3", "sl2", "affine2", "general3", "nonuni3", "damekricci4", "diagonalN", "gradedN",
    "nosuch",
]  # fmt: skip
PARAMS = ["n=3", "p=1", "alpha=1/2", "alpha=0", "beta=1", "lambda1=1", "lambda2=2", "a=1", "x=1/0", "=", "n"]
OPTION_VALUES = {
    "--family": FAMILIES,
    "--param": PARAMS,
    "--input": ["-", "missing.json"],
    "--format": ["json", "table", "xml"],
    "--scope": ["all", "unimodular", "bounds", "lightlike", "degenerate", "corollary", "bogus"],
    "--seed": ["0", "1", "-1", "x"],
    "--samples": ["0", "1", "2", "-1"],
}
COMMAND_OPTIONS = {
    "analyze": ["--family", "--param", "--input", "--format"],
    "verify": ["--scope", "--family", "--param", "--seed", "--samples", "--format"],
    "catalog": ["--param", "--format"],
}
TOKENS = ["analyze", "verify", "catalog", "list", "show", "emit", *OPTION_VALUES, *FAMILIES, *PARAMS, "1/2", "-"]


@st.composite
def argvs(draw):
    """Short command lines: a subcommand, then a few options with values,
    sometimes with a stray token inserted."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command == "catalog":
        argv.append(draw(st.sampled_from(["list", "show", "emit"])))
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(FAMILIES)))
    for option in draw(st.lists(st.sampled_from(COMMAND_OPTIONS[command]), max_size=3)):
        argv += [option, draw(st.sampled_from(OPTION_VALUES[option]))]
    if draw(st.integers(0, 3)) == 2:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


STDIN = [
    "",
    "[" * 5000,
    '{"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": 1}}], "metric": [[0, 1], [1, 0]]}',
    '{"dim": 2, "metric": [[1, 0], [0, 0]]}',
    '{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": 1}}, {"i": 1, "j": 3, "coeffs": {"1": 1}}], '
    '"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
]


@given(argvs(), st.sampled_from(STDIN))
@settings(max_examples=200, deadline=None)
def test_cli_exits_with_documented_code(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        if "--format" not in argv:
            json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: ")
