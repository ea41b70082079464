"""Built-in families of metric Lie algebras.

Each family packages a bracket table and a compatible metric behind named
rational parameters, with the validity constraints checked up front so a
bad parameter fails with a message naming the parameter and the rule it
broke. Families cover the standard low-dimensional unimodular algebras
(controls: only Killing fields appear), the solvable non-unimodular
families that carry genuinely conformal non-Killing fields, and two
scalable n-dimensional families whose non-Killing condition is an exact
equality on the eigenvalue parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import MAX_DIM, LieAlgebra
from .errors import ConstraintViolated, UnknownFamily
from .exact import ONE, ZERO, frac
from .geometry import PseudoMetric

Params = Mapping[str, Fraction | int | str]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    description: str
    default: str | None = None  # rational literal, or None when required
    optional: bool = False  # absent and defaultless: the builder decides


@dataclass(frozen=True)
class FamilySpec:
    name: str
    dimension: str  # fixed number or rule in terms of n
    summary: str
    parameters: tuple[ParamSpec, ...]
    constraints: str
    builder: Callable[[dict[str, Fraction]], tuple[LieAlgebra, PseudoMetric]]


def _normalize(spec: FamilySpec, params: Params) -> dict[str, Fraction]:
    known = {p.name for p in spec.parameters}
    dynamic = any(p.name.endswith("...") for p in spec.parameters)
    out: dict[str, Fraction] = {}
    for key, value in params.items():
        if key not in known and not dynamic:
            raise ConstraintViolated(key, f"not a parameter of family {spec.name!r}")
        out[key] = frac(value)
    for p in spec.parameters:
        if p.name.endswith("...") or p.name in out:
            continue
        if p.default is not None:
            out[p.name] = frac(p.default)
        elif not p.optional:
            raise ConstraintViolated(p.name, "required parameter is missing")
    return out


def _int_param(params: dict[str, Fraction], name: str, minimum: int) -> int:
    value = params[name]
    if value.denominator != 1:
        raise ConstraintViolated(name, "must be an integer")
    n = int(value)
    if n < minimum:
        raise ConstraintViolated(name, f"must be at least {minimum}")
    if n > MAX_DIM:
        raise ConstraintViolated(name, f"must be at most {MAX_DIM}")
    return n


def _nonzero(params: dict[str, Fraction], name: str) -> Fraction:
    value = params[name]
    if value == 0:
        raise ConstraintViolated(name, "must be nonzero")
    return value


def _split_signature_metric(n: int, p: int) -> PseudoMetric:
    return PseudoMetric.diagonal([ONE] * p + [-ONE] * (n - p))


def _null_pair_metric(n: int) -> PseudoMetric:
    """Identity on the first n - 2 coordinates, a hyperbolic pair at the end."""
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rows[n - 2][n - 2] = ZERO
    rows[n - 1][n - 1] = ZERO
    rows[n - 2][n - 1] = ONE
    rows[n - 1][n - 2] = ONE
    return PseudoMetric.from_rows(rows)


# -- builders -----------------------------------------------------------------


def _build_abelian(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    n = _int_param(params, "n", 1)
    p = _int_param(params, "p", 0) if "p" in params else n
    if p > n:
        raise ConstraintViolated("p", "must satisfy 0 <= p <= n")
    return LieAlgebra(n, {}), _split_signature_metric(n, p)


def _build_heisenberg3(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    g = LieAlgebra(3, {(0, 1): (0, 0, 1)})
    return g, _split_signature_metric(3, 2)


def _build_so3(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    a, b, c = (_nonzero(params, k) for k in ("a", "b", "c"))
    g = LieAlgebra(3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)})
    return g, PseudoMetric.diagonal([a, b, c])


def _build_sl2(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    a, b, c = (_nonzero(params, k) for k in ("a", "b", "c"))
    # h = e1, e = e2, f = e3: [h,e] = 2e, [h,f] = -2f, [e,f] = h
    g = LieAlgebra(3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})
    return g, PseudoMetric.diagonal([a, b, c])


def _build_affine2(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    g = LieAlgebra(2, {(0, 1): (0, 1)})
    m = PseudoMetric.from_rows([[0, 1], [1, 0]])
    return g, m


def _general3_brackets(alpha: Fraction, beta: Fraction, gamma: Fraction, delta: Fraction) -> LieAlgebra:
    return LieAlgebra(
        3,
        {
            (0, 2): (alpha, beta, ZERO),
            (1, 2): (gamma, delta, ZERO),
        },
    )


_GENERAL3_METRIC = ((1, 0, 0), (0, 0, -1), (0, -1, 0))


def _build_general3(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    alpha, beta, gamma, delta = (params[k] for k in ("alpha", "beta", "gamma", "delta"))
    if alpha + delta == 0:
        raise ConstraintViolated("delta", "must satisfy alpha + delta != 0")
    return _general3_brackets(alpha, beta, gamma, delta), PseudoMetric.from_rows(_GENERAL3_METRIC)


def _build_nonuni3(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    alpha = _nonzero(params, "alpha")
    beta = params["beta"]
    return (
        _general3_brackets(alpha, beta, ZERO, 2 * alpha),
        PseudoMetric.from_rows(_GENERAL3_METRIC),
    )


def _build_damekricci4(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    alpha = params["alpha"]
    half = Fraction(1, 2)
    g = LieAlgebra(
        4,
        {
            (0, 1): (0, 0, alpha, 0),
            (0, 3): (-half, 0, 0, 0),
            (1, 3): (0, -half, 0, 0),
            (2, 3): (0, 0, -1, 0),
        },
    )
    m = PseudoMetric.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
    )
    return g, m


def _eigenvalues(params: dict[str, Fraction], n: int) -> list[Fraction]:
    known = {f"lambda{i}" for i in range(1, n)}
    for key in params:
        if key.startswith("lambda") and key not in known:
            raise ConstraintViolated(key, f"eigenvalue parameters are lambda1..lambda{n - 1}")
    lams = []
    for i in range(1, n):
        key = f"lambda{i}"
        if key not in params:
            raise ConstraintViolated(key, "required parameter is missing")
        value = params[key]
        if value == 0:
            raise ConstraintViolated(key, "must be nonzero")
        lams.append(value)
    if sum(lams, start=ZERO) == 0:
        raise ConstraintViolated("lambda1", "eigenvalues must not sum to zero")
    return lams


def _diagonal_brackets(n: int, lams: Sequence[Fraction]) -> dict[tuple[int, int], tuple]:
    # [e_n, e_i] = lambda_i e_i, stored as [e_i, e_n] = -lambda_i e_i
    table: dict[tuple[int, int], tuple] = {}
    for i in range(n - 1):
        coords = [ZERO] * n
        coords[i] = -lams[i]
        table[(i, n - 1)] = tuple(coords)
    return table


def _build_diagonaln(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    n = _int_param(params, "n", 2)
    for key in params:
        if key != "n" and not key.startswith("lambda"):
            raise ConstraintViolated(key, "not a parameter of family 'diagonalN'")
    lams = _eigenvalues(params, n)
    return LieAlgebra(n, _diagonal_brackets(n, lams)), _null_pair_metric(n)


def _build_gradedn(params: dict[str, Fraction]) -> tuple[LieAlgebra, PseudoMetric]:
    n = _int_param(params, "n", 3)
    for key in params:
        if key != "n" and not key.startswith("lambda") and not key.startswith("beta"):
            raise ConstraintViolated(key, "not a parameter of family 'gradedN'")
    lams = _eigenvalues(params, n)
    table = _diagonal_brackets(n, lams)
    for key, value in params.items():
        if not key.startswith("beta"):
            continue
        digits = key[len("beta") :]
        if len(digits) != 2 or not digits.isdigit():
            raise ConstraintViolated(key, "beta parameters are written betaIJ with single digits i < j")
        i, j = int(digits[0]), int(digits[1])
        if not (1 <= i < j <= n - 2):
            raise ConstraintViolated(key, f"needs 1 <= i < j <= {n - 2}")
        if value == 0:
            continue
        if lams[i - 1] + lams[j - 1] != lams[n - 2]:
            raise ConstraintViolated(
                key, f"nonzero beta{i}{j} needs lambda{i} + lambda{j} = lambda{n - 1}"
            )
        coords = [ZERO] * n
        coords[n - 2] = value
        table[(i - 1, j - 1)] = tuple(coords)
    return LieAlgebra(n, table), _null_pair_metric(n)


_FAMILIES: tuple[FamilySpec, ...] = (
    FamilySpec(
        name="abelian",
        dimension="n",
        summary="Abelian algebra with a diagonal metric of signature (p, n - p).",
        parameters=(
            ParamSpec("n", "dimension, a positive integer"),
            ParamSpec("p", "number of positive directions", optional=True),
        ),
        constraints="n >= 1; 0 <= p <= n (p defaults to n)",
        builder=_build_abelian,
    ),
    FamilySpec(
        name="heisenberg3",
        dimension="3",
        summary="Heisenberg algebra [e1, e2] = e3 with the diagonal (+, +, -) metric.",
        parameters=(),
        constraints="none",
        builder=_build_heisenberg3,
    ),
    FamilySpec(
        name="so3",
        dimension="3",
        summary="Compact simple algebra, cyclic brackets, diagonal metric diag(a, b, c).",
        parameters=(
            ParamSpec("a", "first diagonal metric entry", default="1"),
            ParamSpec("b", "second diagonal metric entry", default="1"),
            ParamSpec("c", "third diagonal metric entry", default="-1"),
        ),
        constraints="a, b, c all nonzero",
        builder=_build_so3,
    ),
    FamilySpec(
        name="sl2",
        dimension="3",
        summary="Split simple algebra in the (h, e, f) basis, diagonal metric diag(a, b, c).",
        parameters=(
            ParamSpec("a", "first diagonal metric entry", default="1"),
            ParamSpec("b", "second diagonal metric entry", default="1"),
            ParamSpec("c", "third diagonal metric entry", default="-1"),
        ),
        constraints="a, b, c all nonzero",
        builder=_build_sl2,
    ),
    FamilySpec(
        name="affine2",
        dimension="2",
        summary="Non-abelian plane [e1, e2] = e2 with the hyperbolic-pair metric.",
        parameters=(),
        constraints="none",
        builder=_build_affine2,
    ),
    FamilySpec(
        name="general3",
        dimension="3",
        summary=(
            "Solvable 3-dimensional algebra [e1, e3] = alpha e1 + beta e2, "
            "[e2, e3] = gamma e1 + delta e2, Lorentzian null-pair metric."
        ),
        parameters=(
            ParamSpec("alpha", "coefficient of e1 in [e1, e3]"),
            ParamSpec("beta", "coefficient of e2 in [e1, e3]"),
            ParamSpec("gamma", "coefficient of e1 in [e2, e3]"),
            ParamSpec("delta", "coefficient of e2 in [e2, e3]"),
        ),
        constraints="alpha + delta != 0 (non-unimodular)",
        builder=_build_general3,
    ),
    FamilySpec(
        name="nonuni3",
        dimension="3",
        summary=(
            "The general3 slice gamma = 0, delta = 2 alpha that carries a "
            "non-Killing conformal field."
        ),
        parameters=(
            ParamSpec("alpha", "eigenvalue parameter"),
            ParamSpec("beta", "nilpotent mixing parameter", default="0"),
        ),
        constraints="alpha != 0",
        builder=_build_nonuni3,
    ),
    FamilySpec(
        name="damekricci4",
        dimension="4",
        summary=(
            "4-dimensional solvable algebra [e1, e2] = alpha e3, [e1, e4] = -e1/2, "
            "[e2, e4] = -e2/2, [e3, e4] = -e3, metric I_2 plus a (-1) hyperbolic pair."
        ),
        parameters=(ParamSpec("alpha", "central-bracket coefficient", default="1"),),
        constraints="none",
        builder=_build_damekricci4,
    ),
    FamilySpec(
        name="diagonalN",
        dimension="n",
        summary=(
            "[e_n, e_i] = lambda_i e_i for i < n, with the identity metric on "
            "e_1..e_{n-2} and a unit hyperbolic pair on (e_{n-1}, e_n)."
        ),
        parameters=(
            ParamSpec("n", "dimension, an integer >= 2"),
            ParamSpec("lambda1...", "eigenvalues lambda1..lambda{n-1}, one per basis direction"),
        ),
        constraints="every lambda_i != 0 and their sum != 0",
        builder=_build_diagonaln,
    ),
    FamilySpec(
        name="gradedN",
        dimension="n",
        summary=(
            "diagonalN enriched by brackets [e_i, e_j] = beta_ij e_{n-1} for "
            "i < j <= n - 2, with the same null-pair metric."
        ),
        parameters=(
            ParamSpec("n", "dimension, an integer >= 3"),
            ParamSpec("lambda1...", "eigenvalues lambda1..lambda{n-1}"),
            ParamSpec("beta12...", "optional betaIJ coefficients, default 0"),
        ),
        constraints=(
            "every lambda_i != 0, their sum != 0, and each nonzero betaIJ "
            "needs lambda_i + lambda_j = lambda_{n-1}"
        ),
        builder=_build_gradedn,
    ),
)


def list_families() -> tuple[FamilySpec, ...]:
    """All built-in families in a stable order."""
    return _FAMILIES


def family(name: str) -> FamilySpec:
    for spec in _FAMILIES:
        if spec.name == name:
            return spec
    raise UnknownFamily(f"unknown family {name!r}; known: {', '.join(f.name for f in _FAMILIES)}")


def instantiate(name: str, params: Params | None = None) -> tuple[LieAlgebra, PseudoMetric]:
    """Build (algebra, metric) for a named family, validating constraints."""
    spec = family(name)
    return spec.builder(_normalize(spec, params or {}))


#: Representative parameter choices covering every family, including both
#: sides of the diagonalN / gradedN non-Killing dichotomy.
_TARGET_PARAMS: tuple[tuple[str, dict], ...] = (
    ("abelian", {"n": 2, "p": 1}),
    ("abelian", {"n": 3, "p": 2}),
    ("abelian", {"n": 4, "p": 3}),
    ("heisenberg3", {}),
    ("so3", {}),
    ("sl2", {}),
    ("affine2", {}),
    ("general3", {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1}),
    ("nonuni3", {"alpha": 1, "beta": 0}),
    ("nonuni3", {"alpha": 1, "beta": 1}),
    ("damekricci4", {"alpha": 0}),
    ("damekricci4", {"alpha": Fraction(1, 2)}),
    ("damekricci4", {"alpha": 1}),
    ("damekricci4", {"alpha": 2}),
    ("diagonalN", {"n": 4, "lambda1": 1, "lambda2": 1, "lambda3": 2}),
    ("diagonalN", {"n": 4, "lambda1": 1, "lambda2": 2, "lambda3": 3}),
    (
        "gradedN",
        {"n": 4, "lambda1": Fraction(3, 2), "lambda2": Fraction(3, 2), "lambda3": 3, "beta12": 1},
    ),
    ("gradedN", {"n": 4, "lambda1": 1, "lambda2": 3, "lambda3": 4, "beta12": 1}),
)


def family_label(name: str, params: Params) -> str:
    """The instance label name(k=v,...) with parameters in sorted order."""
    if not params:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}({inner})"


def verification_targets() -> list[tuple[str, LieAlgebra, PseudoMetric]]:
    """Labeled built-in instances the verify pipeline runs over."""
    return [(family_label(name, params), *instantiate(name, params)) for name, params in _TARGET_PARAMS]
