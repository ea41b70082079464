"""Left-invariant pseudo-Riemannian metrics and their curvature.

A left-invariant metric on a Lie group is determined by one symmetric
non-degenerate bilinear form on the Lie algebra, stored here as its exact
Gram matrix in the distinguished basis. The Levi-Civita connection is
recovered algebraically from the Koszul formula

    <nabla_{e_i} e_j, e_k> = (1/2) ( <[e_i,e_j], e_k>
                                   - <[e_j,e_k], e_i>
                                   + <[e_k,e_i], e_j> ),

the only surviving terms for left-invariant fields, and curvature follows
from the convention recorded in CURVATURE_CONVENTION.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebra
from .errors import Degenerate, DimensionMismatch, NotSymmetric
from .exact import (
    Inertia,
    Matrix,
    Subspace,
    Vector,
    ZERO,
    det,
    inverse,
    signature,
    vector,
    zero_vector,
)

#: The sign convention used throughout. The two standard conventions differ
#: by a global sign of the Riemann tensor; on the built-in calibration
#: family (damekricci4) both give the same, identically zero, scalar
#: curvature, so the unflipped form below is kept.
CURVATURE_CONVENTION = {
    "riemann": "R(x, y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z",
    "ricci": "ric(y, z) = trace of x -> R(x, y)z",
    "scalar": "sum over i, j of g^{ij} ric_{ij}",
    "sign_flipped": False,
}


class CausalCharacter(Enum):
    """Causal type of a vector; the zero vector counts as lightlike."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


class PseudoMetric:
    """A symmetric non-degenerate bilinear form with exact entries."""

    __slots__ = ("gram", "_inertia", "_inverse")

    def __init__(self, gram: Matrix) -> None:
        if not gram.is_square():
            raise DimensionMismatch("a Gram matrix must be square")
        if not gram.is_symmetric():
            raise NotSymmetric("a metric must have a symmetric Gram matrix")
        if det(gram) == 0:
            raise Degenerate("a metric must be non-degenerate")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_inertia", None)
        object.__setattr__(self, "_inverse", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PseudoMetric is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> PseudoMetric:
        return cls(Matrix.from_rows(rows))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int | str]) -> PseudoMetric:
        return cls(Matrix.diagonal(values))

    @property
    def dim(self) -> int:
        return self.gram.rows

    @property
    def inertia(self) -> Inertia:
        cached = self._inertia
        if cached is None:
            cached = signature(self.gram)
            object.__setattr__(self, "_inertia", cached)
        return cached

    @property
    def signature(self) -> tuple[int, int]:
        """(p, q) with p positive and q negative directions; z = 0 always."""
        inertia = self.inertia
        return inertia.positive, inertia.negative

    @property
    def inverse_gram(self) -> Matrix:
        cached = self._inverse
        if cached is None:
            cached = inverse(self.gram)
            object.__setattr__(self, "_inverse", cached)
        return cached

    def inner(self, x: Sequence[Fraction | int | str], y: Sequence[Fraction | int | str]) -> Fraction:
        xv, yv = vector(x), vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise DimensionMismatch("inner product arguments must match the metric dimension")
        return sum((a * b for a, b in zip(self.gram.apply(yv), xv)), start=ZERO)

    def causal_character(self, x: Sequence[Fraction | int | str]) -> CausalCharacter:
        norm = self.inner(x, x)
        if norm > 0:
            return CausalCharacter.SPACELIKE
        if norm < 0:
            return CausalCharacter.TIMELIKE
        return CausalCharacter.LIGHTLIKE

    def restricted_gram(self, s: Subspace) -> Matrix:
        if s.is_zero():
            raise DimensionMismatch("the zero subspace has no restricted Gram matrix")
        b = s.basis_matrix()
        return b @ self.gram @ b.transpose()

    def restriction_degenerate(self, s: Subspace) -> bool:
        """Whether the metric restricted to s has a radical; False for s = 0."""
        if s.ambient_dim != self.dim:
            raise DimensionMismatch("subspace lives in a different dimension")
        if s.is_zero():
            return False
        return det(self.restricted_gram(s)) == 0

    def __repr__(self) -> str:
        p, q = self.signature
        return f"PseudoMetric(dim={self.dim}, signature=({p}, {q}))"


@dataclass(frozen=True)
class Connection:
    """The Levi-Civita table nabla_{e_i} e_j on a metric Lie algebra."""

    dim: int
    table: tuple[tuple[Vector, ...], ...]  # table[i][j] = nabla_{e_i} e_j


def lowered_structure(g: LieAlgebra, m: PseudoMetric) -> tuple[tuple[Vector, ...], ...]:
    """The lowered structure constants low[i][j][k] = <[e_i, e_j], e_k>.

    One Gram product per unordered basis pair; antisymmetry gives the rest.
    """
    if g.dim != m.dim:
        raise DimensionMismatch("algebra and metric dimensions differ")
    n = g.dim
    low = [[zero_vector(n)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            low[i][j] = m.gram.apply(g.bracket_basis(i, j))
            low[j][i] = tuple(-c for c in low[i][j])
    return tuple(tuple(row) for row in low)


def levi_civita(
    g: LieAlgebra, m: PseudoMetric, low: tuple[tuple[Vector, ...], ...] | None = None
) -> Connection:
    """The unique torsion-free metric connection, from the Koszul formula,
    read from `low = lowered_structure(g, m)` (computed when not given)."""
    if low is None:
        low = lowered_structure(g, m)
    n = g.dim
    ginv = m.inverse_gram
    half = Fraction(1, 2)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            # covector c_k = <nabla_{e_i} e_j, e_k>
            covector = [half * (low[i][j][k] - low[j][k][i] + low[k][i][j]) for k in range(n)]
            row.append(ginv.apply(covector))
        table.append(tuple(row))
    return Connection(n, tuple(table))


@dataclass(frozen=True)
class CurvatureReport:
    """Ricci form and scalar curvature."""

    ricci: Matrix
    scalar: Fraction
    convention: dict


def curvature(g: LieAlgebra, m: PseudoMetric, conn: Connection | None = None) -> CurvatureReport:
    """Ricci and scalar curvature of the metric Lie algebra.

    With G[a][b] = nabla_{e_a} e_b and tau_t = sum_i G[i][t]_i, the trace
    over i of R(e_i, e_y)e_z contracts to

        ric(y, z) = sum_t G[y][z]_t tau_t - sum_{i,t} G[i][z]_t G[y][t]_i
                    - sum_{i,a} [e_i, e_y]_a G[a][z]_i,

    read straight from the Koszul table without building R(e_i, e_j)e_k.
    """
    table = (levi_civita(g, m) if conn is None else conn).table
    n = g.dim
    tau = [sum((table[i][t][i] for i in range(n)), start=ZERO) for t in range(n)]
    ricci_rows = []
    for y in range(n):
        brackets = [g.bracket_basis(i, y) for i in range(n)]
        row = []
        for z in range(n):
            value = sum((a * b for a, b in zip(table[y][z], tau) if a), start=ZERO)
            for i in range(n):
                for t, a in enumerate(table[i][z]):
                    if a:
                        value -= a * table[y][t][i]
                for a, c in enumerate(brackets[i]):
                    if c:
                        value -= c * table[a][z][i]
            row.append(value)
        ricci_rows.append(row)
    ricci = Matrix.from_rows(ricci_rows)
    ginv = m.inverse_gram
    scalar = sum((ginv.at(i, j) * ricci.at(i, j) for i in range(n) for j in range(n)), start=ZERO)
    return CurvatureReport(ricci, scalar, dict(CURVATURE_CONVENTION))
