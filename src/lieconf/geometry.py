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

The Gram matrix and its inverse stay Fraction matrices; the contractions
run on Python ints, each tensor over one common denominator: the lowered
structure constants over den = D_c * D_g (algebra and Gram denominators),
the connection over S = 2 * den * D_inv (D_inv that of the inverse Gram),
and Ricci over S^2 * D_c. Fractions are built only for the returned
`Connection.table`, Ricci matrix and scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebra import LieAlgebra
from .errors import Degenerate, DimensionMismatch, NotSymmetric
from .exact import (
    Inertia,
    Matrix,
    Subspace,
    Vector,
    ZERO,
    det,
    dot,
    inverse,
    quotient,
    signature,
    vector,
)

IntTensor = tuple[tuple[tuple[int, ...], ...], ...]

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
    """The Levi-Civita table nabla_{e_i} e_j on a metric Lie algebra.

    `table[i][j]` = nabla_{e_i} e_j in Fractions; the same table cleared to
    one denominator is table[i][j][k] == ints[i][j][k] / den.
    """

    dim: int
    table: tuple[tuple[Vector, ...], ...]  # table[i][j] = nabla_{e_i} e_j
    den: int
    ints: IntTensor


class LoweredStructure(NamedTuple):
    """The lowered structure constants <[e_i, e_j], e_k> = ints[i][j][k] / den."""

    den: int
    ints: IntTensor


def lowered_structure(g: LieAlgebra, m: PseudoMetric) -> LoweredStructure:
    """The lowered structure constants low[i][j][k] = <[e_i, e_j], e_k>.

    Integer contractions of the algebra's tensor with the cleared Gram
    matrix, one per unordered basis pair; antisymmetry gives the rest.
    """
    if g.dim != m.dim:
        raise DimensionMismatch("algebra and metric dimensions differ")
    n = g.dim
    gram_den, gram = m.gram.cleared()
    zero = (0,) * n
    low = [[zero] * n for _ in range(n)]
    for i, plane in enumerate(g.ints):
        for j in range(i + 1, n):
            c = plane[j]
            if any(c):
                # the Gram matrix is symmetric, so its rows are its columns
                low[i][j] = tuple(dot(c, column) for column in gram)
                low[j][i] = tuple(-x for x in low[i][j])
    return LoweredStructure(g.den * gram_den, tuple(tuple(row) for row in low))


def levi_civita(g: LieAlgebra, m: PseudoMetric, low: LoweredStructure | None = None) -> Connection:
    """The unique torsion-free metric connection, from the Koszul formula,
    read from `low = lowered_structure(g, m)` (computed when not given)."""
    if low is None:
        low = lowered_structure(g, m)
    n, t = g.dim, low.ints
    inv_den, ginv = m.inverse_gram.cleared()
    den = 2 * low.den * inv_den
    zero = (0,) * n
    ints = []
    for i in range(n):
        row = []
        for j in range(n):
            # 2 * low.den * <nabla_{e_i} e_j, e_k>, raised by the inverse Gram rows
            covector = [t[i][j][k] - t[j][k][i] + t[k][i][j] for k in range(n)]
            row.append(tuple(dot(r, covector) for r in ginv) if any(covector) else zero)
        ints.append(tuple(row))
    table = tuple(tuple(tuple(quotient(x, den) for x in v) for v in row) for row in ints)
    return Connection(n, table, den, tuple(ints))


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
    On the integer tables G[a][b]_k = T[a][b][k] / S and
    [e_i, e_y]_a = C[i][y][a] / D_c (tau summed from T), that is

        ric(y, z) = (D_c * (sum_t T[y][z][t] tau_t - sum_{i,t} T[i][z][t] T[y][t][i])
                     - S * sum_{i,a} C[i][y][a] T[a][z][i]) / (S^2 * D_c).
    """
    conn = levi_civita(g, m) if conn is None else conn
    n, t, s, c = g.dim, conn.ints, conn.den, g.ints
    tau = [sum(t[i][k][i] for i in range(n)) for k in range(n)]
    # across[y][i][k] = T[y][k][i] and down[z][i][a] = T[a][z][i]
    across = [[tuple(t[y][k][i] for k in range(n)) for i in range(n)] for y in range(n)]
    down = [[tuple(t[a][z][i] for a in range(n)) for i in range(n)] for z in range(n)]
    rows = []
    for y in range(n):
        row = []
        for z in range(n):
            quadratic = dot(t[y][z], tau) - sum(dot(t[i][z], across[y][i]) for i in range(n))
            bracket = sum(dot(c[i][y], down[z][i]) for i in range(n))
            row.append(g.den * quadratic - s * bracket)
        rows.append(row)
    ricci_den = s * s * g.den
    ricci = Matrix.from_rows([[quotient(x, ricci_den) for x in row] for row in rows])
    inv_den, ginv = m.inverse_gram.cleared()
    total = sum(dot(a, b) for a, b in zip(ginv, rows))
    return CurvatureReport(ricci, Fraction(total, inv_den * ricci_den), dict(CURVATURE_CONVENTION))
