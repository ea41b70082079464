"""Acceptance gate: every headline result, exercised end to end.

Each criterion is one test that finishes by logging a single
``ACCEPTANCE <n> PASS/FAIL`` line (echoed again in the terminal summary),
then asserting. Everything is exact Fraction arithmetic - the tolerance
everywhere is equality.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import sympy

from helpers import record_acceptance, riemann_tensor
from lieconf import (
    Matrix,
    conformal_space,
    curvature,
    det,
    instantiate,
    inverse,
    kernel,
    killing_space,
    levi_civita,
    nonkilling_exists,
    rank,
    signature,
    soliton_from_conformal,
    verification_targets,
)
from lieconf import sampling
from lieconf.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_dim2_classification(capsys):
    problems: list[str] = []
    code, out = run_cli(capsys, "analyze", "--family", "affine2")
    report = json.loads(out)
    if code != 0:
        problems.append(f"analyze exited {code}")
    if report["conformal"]["basis"] != [["1", "0", "-1/2"]]:
        problems.append(f"conformal basis {report['conformal']['basis']}")
    if report["conformal"]["killing"]["dim"] != 0:
        problems.append("killing space not zero")
    if report["scalar_curvature"] != "0":
        problems.append(f"scalar {report['scalar_curvature']} != 0")
    soliton = report["solitons"][0]
    if soliton["causal"] != "lightlike":
        problems.append(f"field causal character {soliton['causal']}")
    if (soliton["lambda"], soliton["class"], soliton["trivial"]) != ("1/2", "shrinking", False):
        problems.append(f"soliton ({soliton['lambda']}, {soliton['class']}, trivial={soliton['trivial']})")
    ok = record_acceptance(
        "1",
        not problems,
        "dim-2 non-abelian instance: conformal span{(1,0,-1/2)}, zero Killing space, "
        "lightlike field, scalar 0, shrinking non-trivial soliton with lambda 1/2"
        + ("" if not problems else " -- " + "; ".join(problems)),
    )
    assert ok, problems


def _shear_oracle(alpha: Fraction, beta: Fraction, delta: Fraction):
    """Brute-force elimination of the dim-3 conformal equations, via sympy.

    The equations below are assembled by hand from the bracket relations
    [e1,e3] = alpha e1 + beta e2, [e2,e3] = delta e2 and the null-pair
    metric <e1,e1> = 1, <e2,e3> = -1: entries (1,1), (1,3), (2,3), (3,3)
    of L_X g = 2 rho g. Normalized to x1 = 1.
    """
    a, b, d = (sympy.Rational(v) for v in (alpha, beta, delta))
    x2, x3, rho = sympy.symbols("x2 x3 rho")
    equations = [
        a * x3 - rho,  # (1,1)
        a * 1 + b * x3,  # (1,3)
        d * x3 - 2 * rho,  # (2,3)
        b * 1 + d * x2,  # (3,3)
    ]
    solutions = sympy.solve(equations, [x2, x3, rho], dict=True)
    assert len(solutions) == 1, "elimination oracle expected a unique normalized solution"
    s = solutions[0]
    return tuple(Fraction(int(v.p), int(v.q)) for v in (s[x2], s[x3], s[rho]))


def test_criterion_2_dim3_classification():
    problems: list[str] = []

    g, m = instantiate("nonuni3", {"alpha": 1, "beta": 0})
    c = conformal_space(g, m)
    if c.space.basis != ((Fraction(0), Fraction(0), Fraction(1), Fraction(1)),):
        problems.append(f"beta=0 basis {c.space.basis}")

    alpha, beta, delta = Fraction(1), Fraction(1), Fraction(2)
    g, m = instantiate("nonuni3", {"alpha": alpha, "beta": beta})
    c = conformal_space(g, m)
    if c.dim != 1:
        problems.append(f"beta=1 solution space dim {c.dim}")
    (x, rho), = c.solutions()
    x1, x2, x3 = x
    if x2 / x1 != -beta / delta:
        problems.append(f"x2/x1 = {x2 / x1} != {-beta / delta}")
    if x3 / x1 != -delta / (2 * beta):
        problems.append(f"x3/x1 = {x3 / x1} != {-delta / (2 * beta)}")
    oracle_x2, oracle_x3, oracle_rho = _shear_oracle(alpha, beta, delta)
    if (x2 / x1, x3 / x1, rho / x1) != (oracle_x2, oracle_x3, oracle_rho):
        problems.append(
            f"solver ({x2 / x1}, {x3 / x1}, {rho / x1}) != oracle ({oracle_x2}, {oracle_x3}, {oracle_rho})"
        )
    ok = record_acceptance(
        "2",
        not problems,
        "dim-3 solvable instances: beta=0 branch gives X=e3 with rho=alpha; beta=1 branch "
        f"matches the elimination oracle with rho/x1 = {oracle_rho} = -delta^2/(4 beta)"
        + ("" if not problems else " -- " + "; ".join(problems)),
    )
    assert ok, problems


def test_criterion_3_null_pair_family():
    problems: list[str] = []
    expected_basis = (
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)),
    )
    scalar_mismatches: list[str] = []
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        g, m = instantiate("damekricci4", {"alpha": alpha})
        c = conformal_space(g, m)
        if c.space.basis != expected_basis:
            problems.append(f"alpha={alpha}: conformal basis {c.space.basis}")
            continue
        (x, rho), = c.solutions()
        report = soliton_from_conformal(g, m, x, rho, curvature(g, m).scalar)
        reference = alpha * (1 - alpha) / 2
        # soliton triviality clause: trivial exactly when lambda hits the
        # reference constant
        if report.trivial != (report.constant == reference):
            problems.append(
                f"alpha={alpha}: trivial={report.trivial} but lambda={report.constant}, reference={reference}"
            )
        if report.scalar != reference:
            scalar_mismatches.append(
                f"alpha={alpha}: computed scalar {report.scalar}, reference {reference}"
            )
    detail = (
        "4-dim null-pair family, alpha in {0, 1/2, 1, 2}: conformal span{(0,0,0,1,-1/2)} "
        "and soliton-triviality clause hold"
    )
    if scalar_mismatches:
        detail += (
            "; scalar-curvature reference value alpha(1-alpha)/2 NOT met: "
            + "; ".join(scalar_mismatches)
            + " (exact computation gives 0 for every alpha)"
        )
    ok = record_acceptance("3", not (problems or scalar_mismatches), detail)
    assert ok, (
        problems,
        scalar_mismatches,
        "The exact scalar curvature of this family is 0 for every alpha: the Ricci "
        "form concentrates on the null direction e4 (entry (4,4) = (alpha^2 + 1)/2) "
        "and the inverse metric has no (4,4) component to trace it against, so every "
        "contribution cancels. The reference formula alpha(1-alpha)/2 agrees only at "
        "alpha in {0, 1}; no sign convention changes a zero. The conformal-space and "
        "soliton clauses above hold exactly.",
    )


def test_criterion_4_unimodular_conformal_is_killing():
    rng = random.Random(41)
    failures: list[str] = []
    algebras = [
        ("abelian(n=2)", instantiate("abelian", {"n": 2})[0]),
        ("abelian(n=3)", instantiate("abelian", {"n": 3})[0]),
        ("abelian(n=4)", instantiate("abelian", {"n": 4})[0]),
        ("heisenberg3", instantiate("heisenberg3")[0]),
        ("so3", instantiate("so3")[0]),
        ("sl2", instantiate("sl2")[0]),
    ]
    metrics_checked = 0
    for label, g in algebras:
        assert g.is_unimodular, label
        for positive in range(g.dim + 1):
            for _ in range(50):
                m = sampling.random_metric(rng, g.dim, positive)
                metrics_checked += 1
                c = conformal_space(g, m)
                if nonkilling_exists(c):
                    failures.append(f"{label} p={positive}: non-Killing solution")
                    continue
                for x, rho in c.solutions():
                    if rho != 0:
                        failures.append(f"{label} p={positive}: rho={rho}")
                    if g.dim * rho != -g.trace_ad(x):
                        failures.append(f"{label} p={positive}: trace identity")

    # the trace identity must hold on non-unimodular instances too
    trace_targets = list(verification_targets())
    trace_targets += sampling.random_instances(rng, 50)
    for label, g, m in trace_targets:
        for x, rho in conformal_space(g, m).solutions():
            if g.dim * rho != -g.trace_ad(x):
                failures.append(f"{label}: trace identity n rho = -tr(ad_x)")
    ok = record_acceptance(
        "4",
        not failures,
        f"unimodular algebras: every conformal field is Killing across {metrics_checked} "
        f"seeded metrics (>= 50 per signature per algebra); trace identity verified on "
        f"{len(trace_targets)} further instances"
        + ("" if not failures else " -- " + "; ".join(failures[:5])),
    )
    assert ok, failures[:20]


def test_criterion_5_nonkilling_structure():
    failures: list[str] = []
    hit = 0
    for label, g, m in verification_targets():
        c = conformal_space(g, m)
        if not nonkilling_exists(c):
            continue
        hit += 1
        p, q = m.signature
        bound = min(p, q)
        if g.center().dim > bound:
            failures.append(f"{label}: center dim {g.center().dim} > min(p,q) = {bound}")
        ideal = g.commutator_ideal()
        if ideal.dim < g.dim - bound:
            failures.append(f"{label}: commutator dim {ideal.dim} < n - min(p,q) = {g.dim - bound}")
        if not m.restriction_degenerate(ideal):
            failures.append(f"{label}: metric non-degenerate on the commutator ideal")
    if hit == 0:
        failures.append("no catalog instance admits a non-Killing conformal field")
    ok = record_acceptance(
        "5",
        not failures,
        f"dimension bounds and degenerate commutator restriction hold on all {hit} "
        "catalog instances with non-Killing solutions"
        + ("" if not failures else " -- " + "; ".join(failures)),
    )
    assert ok, failures


def _eigenvalue_grid(n: int) -> list[dict[str, Fraction]]:
    last = f"lambda{n - 1}"
    grid: list[dict[str, Fraction]] = []
    conforming = {f"lambda{i}": Fraction(1) for i in range(1, n - 1)}
    conforming[last] = Fraction(2)
    grid.append(conforming)
    fractional = {f"lambda{i}": Fraction(3, 2) for i in range(1, n - 1)}
    fractional[last] = Fraction(3)
    grid.append(fractional)
    grid.append({f"lambda{i}": Fraction(1) for i in range(1, n)})
    grid.append({f"lambda{i}": Fraction(i) for i in range(1, n)})
    negative = {f"lambda{i}": Fraction(-1) for i in range(1, n - 1)}
    negative[last] = Fraction(-2)
    grid.append(negative)
    lopsided = dict(conforming)
    lopsided["lambda1"] = Fraction(2)
    grid.append(lopsided)
    return grid


def test_criterion_6_grading_dichotomy():
    failures: list[str] = []
    outcomes: dict[str, set[bool]] = {"diagonalN": set(), "gradedN": set()}
    instances = 0
    for n in (3, 4, 5, 6):
        last = f"lambda{n - 1}"
        for lams in _eigenvalue_grid(n):
            if any(v == 0 for v in lams.values()) or sum(lams.values()) == 0:
                failures.append(f"n={n}: grid violates the eigenvalue constraints {lams}")
                continue
            conforming = all(
                lams[f"lambda{i}"] == lams[last] / 2 for i in range(1, n - 1)
            )
            cases: list[tuple[str, dict]] = [
                ("diagonalN", {"n": n, **lams}),
                ("gradedN", {"n": n, **lams}),
            ]
            if n >= 4 and lams["lambda1"] + lams["lambda2"] == lams[last]:
                cases.append(("gradedN", {"n": n, **lams, "beta12": Fraction(1)}))
            for family_name, params in cases:
                g, m = instantiate(family_name, params)
                instances += 1
                found = nonkilling_exists(conformal_space(g, m))
                outcomes[family_name].add(found)
                if found != conforming:
                    failures.append(
                        f"{family_name} n={n} {sorted(lams.items())}: nonkilling={found}, conforming={conforming}"
                    )
                if family_name == "gradedN":
                    en = [0] * n
                    en[n - 1] = 1
                    for i in range(n - 2):
                        for j in range(i + 1, n - 2):
                            w = g.bracket_basis(i, j)
                            lam = lams[f"lambda{i + 1}"] + lams[f"lambda{j + 1}"]
                            if g.bracket(en, w) != tuple(lam * c for c in w):
                                failures.append(
                                    f"gradedN n={n}: grading identity fails on ({i + 1}, {j + 1})"
                                )
    for family_name, seen in outcomes.items():
        if seen != {True, False}:
            failures.append(f"{family_name}: grid produced outcomes {seen}, expected both")
    ok = record_acceptance(
        "6",
        not failures,
        f"diagonal/graded families over n in 3..6 ({instances} instances): non-Killing "
        "solutions appear exactly at the half-grading, and the grading bracket identity holds"
        + ("" if not failures else " -- " + "; ".join(failures[:5])),
    )
    assert ok, failures[:20]


def _connection_curvature_problems(label: str, g, m) -> list[str]:
    problems = []
    n = g.dim
    conn = levi_civita(g, m)
    basis = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
    for i in range(n):
        for j in range(n):
            torsion = [
                a - b for a, b in zip(conn.table[i][j], conn.table[j][i])
            ]
            if torsion != list(g.bracket_basis(i, j)):
                problems.append(f"{label}: torsion at ({i}, {j})")
            for k in range(n):
                if (
                    m.inner(conn.table[i][j], basis[k])
                    + m.inner(basis[j], conn.table[i][k])
                    != 0
                ):
                    problems.append(f"{label}: metric compatibility at ({i}, {j}, {k})")
    riemann = riemann_tensor(g, conn)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if riemann[i][j][k] != tuple(-c for c in riemann[j][i][k]):
                    problems.append(f"{label}: antisymmetry at ({i}, {j}, {k})")
                cyclic = [
                    a + b + c
                    for a, b, c in zip(
                        riemann[i][j][k],
                        riemann[j][k][i],
                        riemann[k][i][j],
                    )
                ]
                if any(c != 0 for c in cyclic):
                    problems.append(f"{label}: Bianchi identity at ({i}, {j}, {k})")
    return problems


def test_criterion_7_geometry_identities():
    failures: list[str] = []
    targets = list(verification_targets())
    targets += sampling.random_instances(random.Random(7), 100, dims=(2, 3, 4))
    for label, g, m in targets:
        failures.extend(_connection_curvature_problems(label, g, m))
    ok = record_acceptance(
        "7",
        not failures,
        f"torsion-free, metric-compatible, antisymmetric, first-Bianchi: exact on all "
        f"{len(targets)} catalog and random instances"
        + ("" if not failures else " -- " + "; ".join(failures[:5])),
    )
    assert ok, failures[:20]


def test_criterion_8_infrastructure(capsys, tmp_path):
    failures: list[str] = []
    rng = random.Random(2024)
    for index in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = Matrix.from_rows(
            [[sampling.random_fraction(rng) for _ in range(cols)] for _ in range(rows)]
        )
        if rank(a) + kernel(a).dim != a.cols:
            failures.append(f"matrix {index}: rank-nullity")

        n = rng.randint(1, 4)
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = sampling.random_fraction(rng)
        sym = Matrix.from_rows(entries)
        s = sampling.random_invertible(rng, n)
        if signature(s.transpose() @ sym @ s) != signature(sym):
            failures.append(f"matrix {index}: congruence invariance")

        b = sampling.random_int_matrix(rng, n)
        if det(b) != 0 and b @ inverse(b) != Matrix.identity(n):
            failures.append(f"matrix {index}: inverse")

    first = run_cli(capsys, "analyze", "--family", "sl2")
    second = run_cli(capsys, "analyze", "--family", "sl2")
    if first != second:
        failures.append("analyze output is not deterministic")

    code, emitted = run_cli(capsys, "catalog", "emit", "damekricci4", "--param", "alpha=2")
    if code != 0:
        failures.append("catalog emit failed")
    path = tmp_path / "emitted.json"
    path.write_text(emitted, encoding="utf-8")
    code_a, via_file = run_cli(capsys, "analyze", "--input", str(path))
    code_b, via_family = run_cli(
        capsys, "analyze", "--family", "damekricci4", "--param", "alpha=2"
    )
    if code_a != 0 or code_b != 0:
        failures.append("round-trip analyze failed")
    else:
        a, b = json.loads(via_file), json.loads(via_family)
        if any(a[k] != b[k] for k in ("conformal", "solitons", "scalar_curvature", "signature")):
            failures.append("document round-trip changed the analysis")

    ok = record_acceptance(
        "8",
        not failures,
        "exact-core invariants on 200 seeded random matrices; CLI determinism and "
        "document round-trip" + ("" if not failures else " -- " + "; ".join(failures[:5])),
    )
    assert ok, failures[:20]
