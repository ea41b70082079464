"""Left-invariant conformal vector fields and the theorem verifiers.

A left-invariant field X on a metric Lie group is conformal exactly when
its Lie derivative of the metric is a constant multiple of the metric:

    (L_X g)(e_i, e_j) = -<[X, e_i], e_j> - <e_i, [X, e_j]> = 2 rho g_ij.

Both sides are constant bilinear forms, so the condition is a finite
linear system in the coordinates of X together with the conformal factor
rho. This module solves that system exactly, splits off the Killing part
(rho = 0), and verifies the structural statements that hold for the
resulting solution spaces: unimodular algebras admit only Killing
solutions, a non-Killing solution forces dimension bounds on the center
and the commutator ideal, non-Killing solutions are lightlike, and the
metric degenerates on the commutator ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import LieAlgebra
from .errors import DimensionMismatch
from .exact import (
    Matrix,
    Subspace,
    Vector,
    ZERO,
    frac,
    kernel,
    quotient,
    vector,
)
from .geometry import LoweredStructure, PseudoMetric, lowered_structure


def lie_derivative_metric(
    g: LieAlgebra, m: PseudoMetric, x: Sequence[Fraction | int | str]
) -> Matrix:
    """(L_x g) = -(ad_x^T G + G ad_x) as an exact symmetric matrix.

    The bracket comes first (ad_x) and the Gram matrix second, so this
    never reads the lowered structure constants the conformal solver uses.
    """
    if g.dim != m.dim:
        raise DimensionMismatch("algebra and metric dimensions differ")
    xv = vector(x)
    if len(xv) != g.dim:
        raise DimensionMismatch("field coordinates must match the algebra dimension")
    # the Gram matrix is symmetric, so ad_x^T G is the transpose of G ad_x
    gram_ad = m.gram @ g.ad(xv)
    return -(gram_ad + gram_ad.transpose())


def conformal_system(
    g: LieAlgebra, m: PseudoMetric, low: LoweredStructure | None = None
) -> Matrix:
    """The linear system whose kernel is the conformal solution space.

    Unknowns are (x_1, ..., x_n, rho); one row per unordered basis pair
    (i, j) with i <= j encodes (L_X g)(e_i, e_j) - 2 rho g_ij = 0, read
    from the lowered structure constants `low` (computed when not given).
    """
    if low is None:
        low = lowered_structure(g, m)
    n, t, den, gram = g.dim, low.ints, low.den, m.gram.entries
    entries: list[Fraction] = []
    for i in range(n):
        for j in range(i, n):
            entries.extend(quotient(-t[k][i][j] - t[k][j][i], den) for k in range(n))
            entries.append(-2 * gram[i * n + j])
    return Matrix(n * (n + 1) // 2, n + 1, tuple(entries))


@dataclass(frozen=True)
class ConformalSolutionSpace:
    """All (x, rho) pairs solving the conformal equation, as one subspace.

    The space lives in QQ^(n+1): the first n coordinates are the field,
    the last is the conformal factor. The basis is canonical, so equal
    inputs give identical spaces.
    """

    algebra_dim: int
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def solutions(self) -> Iterator[tuple[Vector, Fraction]]:
        """The canonical basis, split into (field, factor) pairs."""
        for b in self.space.basis:
            yield b[: self.algebra_dim], b[self.algebra_dim]

    def contains(self, x: Sequence[Fraction | int | str], rho: Fraction | int | str) -> bool:
        return self.space.contains(vector(x) + (frac(rho),))


def conformal_space(
    g: LieAlgebra, m: PseudoMetric, low: LoweredStructure | None = None
) -> ConformalSolutionSpace:
    """Solve the conformal equation jointly in (x, rho)."""
    return ConformalSolutionSpace(g.dim, kernel(conformal_system(g, m, low)))


def is_conformal_solution(
    g: LieAlgebra,
    m: PseudoMetric,
    x: Sequence[Fraction | int | str],
    rho: Fraction | int | str,
) -> bool:
    """Residual check of L_x g = 2 rho g, independent of the solver."""
    return (lie_derivative_metric(g, m, x) - m.gram.scale(2 * frac(rho))).is_zero()


def killing_space(c: ConformalSolutionSpace) -> Subspace:
    """The rho = 0 slice of the solution space, projected to the algebra."""
    n = c.algebra_dim
    if c.space.is_zero():
        return Subspace.zero(n)
    rho_row = Matrix.from_rows([[b[n] for b in c.space.basis]])
    coeffs = kernel(rho_row)
    fields = [
        tuple(
            sum((w[s] * c.space.basis[s][k] for s in range(c.space.dim)), start=ZERO)
            for k in range(n)
        )
        for w in coeffs.basis
    ]
    return Subspace.span(n, fields)


def nonkilling_exists(c: ConformalSolutionSpace) -> bool:
    """Whether some solution has rho != 0 (a structural check, no sampling)."""
    return any(b[c.algebra_dim] != 0 for b in c.space.basis)


# -- verifiers ----------------------------------------------------------------


class VerdictStatus(Enum):
    PASSED = "pass"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"
    VIOLATED = "violated"


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one verifier on one instance.

    HYPOTHESIS_NOT_MET means the instance is outside the statement's
    hypothesis and nothing was asserted; VIOLATED means a checked
    instance contradicts the statement and carries a counterexample.
    """

    check: str
    status: VerdictStatus
    detail: str
    counterexample: Vector | None = None

    @property
    def passed(self) -> bool:
        return self.status is VerdictStatus.PASSED


def verify_theorem_unimodular(
    g: LieAlgebra, m: PseudoMetric, space: ConformalSolutionSpace
) -> VerdictReport:
    """On a unimodular algebra every conformal solution must be Killing.

    Reads the solved space only: the statement holds exactly when no basis
    solution has rho != 0, and the first one that does is the
    counterexample.
    """
    check = "unimodular-conformal-is-killing"
    if not g.is_unimodular:
        return VerdictReport(check, VerdictStatus.HYPOTHESIS_NOT_MET, "algebra is not unimodular")
    witness = next((b for b in space.space.basis if b[space.algebra_dim] != 0), None)
    if witness is not None:
        return VerdictReport(check, VerdictStatus.VIOLATED, "non-Killing solution found", witness)
    return VerdictReport(check, VerdictStatus.PASSED, f"dim {space.dim} all Killing")


def verify_bounds_nonunimodular(
    g: LieAlgebra, m: PseudoMetric, space: ConformalSolutionSpace
) -> VerdictReport:
    """A non-Killing solution bounds the center and the commutator ideal.

    dim center <= min(p, q) and dim [g, g] >= n - min(p, q).
    """
    check = "nonkilling-dimension-bounds"
    if not nonkilling_exists(space):
        return VerdictReport(
            check, VerdictStatus.HYPOTHESIS_NOT_MET, "no non-Killing conformal solution"
        )
    p, q = m.signature
    bound = min(p, q)
    center_dim = g.center().dim
    commutator_dim = g.commutator_ideal().dim
    if center_dim > bound:
        return VerdictReport(
            check,
            VerdictStatus.VIOLATED,
            f"center dimension {center_dim} exceeds min(p, q) = {bound}",
        )
    if commutator_dim < g.dim - bound:
        return VerdictReport(
            check,
            VerdictStatus.VIOLATED,
            f"commutator ideal dimension {commutator_dim} is below n - min(p, q) = {g.dim - bound}",
        )
    return VerdictReport(
        check,
        VerdictStatus.PASSED,
        f"dim center = {center_dim} <= {bound}, dim [g, g] = {commutator_dim} >= {g.dim - bound}",
    )


def verify_lightlike(
    g: LieAlgebra, m: PseudoMetric, space: ConformalSolutionSpace
) -> VerdictReport:
    """Every non-Killing solution must be a lightlike field.

    With P the field parts of the canonical basis, <x, x> vanishes on the
    whole solution space exactly when A = P G P^T = 0. The solutions with
    rho != 0 are Zariski-dense in the space whenever one exists, so this
    is equivalent to the statement, and exact. A violation carries a
    witness found without random draws: w = e_s (A_ss != 0) or e_s + e_t
    (A_st != 0) in basis coordinates, and if rho(w) = 0, w + t e_r with
    rho_r != 0 for the first t in 1, 2, 3 where the quadratic <x, x> in t
    is nonzero (it has at most two roots).
    """
    check = "nonkilling-solutions-lightlike"
    if not nonkilling_exists(space):
        detail = "solution space is zero" if space.space.is_zero() else "no non-Killing solution"
        return VerdictReport(check, VerdictStatus.PASSED, f"{detail}; vacuous")
    n, k, basis = space.algebra_dim, space.dim, space.space.basis
    p = Matrix.from_rows([b[:n] for b in basis])
    a = p @ m.gram @ p.transpose()
    if a.is_zero():
        return VerdictReport(
            check,
            VerdictStatus.PASSED,
            f"field parts of all {k} basis solutions span a totally null subspace; all lightlike",
        )
    pairs = [(s, s) for s in range(k)] + [(s, t) for s in range(k) for t in range(s + 1, k)]
    s, t = next((s, t) for s, t in pairs if a.at(s, t) != 0)
    r = next(i for i, b in enumerate(basis) if b[n] != 0)

    def combination(shift: int) -> Vector:
        w = [int(i in (s, t)) + shift * (i == r) for i in range(k)]
        return tuple(sum((c * b[j] for c, b in zip(w, basis)), start=ZERO) for j in range(n + 1))

    witness = next(
        v for v in map(combination, range(4)) if v[n] != 0 and m.inner(v[:n], v[:n]) != 0
    )
    return VerdictReport(check, VerdictStatus.VIOLATED, "non-Killing solution is not lightlike", witness)


def verify_degenerate_restriction(
    g: LieAlgebra, m: PseudoMetric, space: ConformalSolutionSpace
) -> VerdictReport:
    """With a non-Killing solution present, g degenerates on [g, g]."""
    check = "metric-degenerate-on-commutator"
    if g.is_unimodular:
        return VerdictReport(check, VerdictStatus.HYPOTHESIS_NOT_MET, "algebra is unimodular")
    if not nonkilling_exists(space):
        return VerdictReport(
            check, VerdictStatus.HYPOTHESIS_NOT_MET, "no non-Killing conformal solution"
        )
    ideal = g.commutator_ideal()
    if not m.restriction_degenerate(ideal):
        return VerdictReport(
            check,
            VerdictStatus.VIOLATED,
            f"metric restricted to the {ideal.dim}-dimensional commutator ideal is non-degenerate",
        )
    return VerdictReport(
        check,
        VerdictStatus.PASSED,
        f"restriction to the {ideal.dim}-dimensional commutator ideal is degenerate",
    )
