"""Lie algebras presented by structure constants on a fixed basis.

A bracket table maps ordered basis pairs (i, j) with i < j to the
coordinate vector of [e_i, e_j]; the (j, i) values follow by antisymmetry
and are never stored, so antisymmetry holds by construction. Validation
therefore consists of shape checks plus the Jacobi identity. All indices
in this module are 0-based; the document layer translates to the 1-based
external convention.

The constructor also clears the table once to one common denominator:
c_ij^k = ints[i][j][k] / den, with `ints` the full antisymmetric integer
tensor. The Jacobi check, unimodularity, the centre, `change_of_basis`
and the geometry layer contract on those ints; Fractions appear only in
the stored table, in `bracket`/`ad`, and in the subspaces, tables and
residuals this module returns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionMismatch, JacobiViolation
from .exact import (
    Matrix,
    Subspace,
    Vector,
    ZERO,
    common_denominator,
    dot,
    inverse,
    is_zero_vector,
    kernel,
    quotient,
    scale_vector,
    stack,
    vector,
    zero_vector,
)

BracketTable = Mapping[tuple[int, int], Sequence[Fraction | int | str]]

#: Largest dimension a catalog family or an instance document may ask for.
#: Every layer is dense and exact (n^3 Koszul entries, O(n^4) Ricci): analyze
#: on abelian at n = 64 takes about 9 s on a 2-core x86-64 VM, most of it in
#: the 64 soliton checks, and n = 10**6 would not fit in memory.
MAX_DIM = 64

#: Largest `verify --samples`. It counts the random instances verify adds and
#: sets max(1, samples // 5) random metrics per signature, so time and output
#: grow linearly: 1,000 takes about 0.8 s and prints 3.8 MB on a 2-core
#: x86-64 VM.
MAX_SAMPLES = 10_000


class LieAlgebra:
    """A finite-dimensional Lie algebra over QQ with a distinguished basis.

    The constructor validates the table and raises JacobiViolation on the
    first basis triple whose Jacobi residual is nonzero; a violation is the
    only way construction can fail once shapes are right. `den` and `ints`
    hold the cleared table: [e_i, e_j] = sum_k ints[i][j][k] / den e_k.
    """

    __slots__ = ("dim", "den", "ints", "_table", "_unimodular", "_center", "_commutator")

    def __init__(self, dim: int, brackets: BracketTable) -> None:
        if dim < 1:
            raise DimensionMismatch("a Lie algebra needs dimension >= 1")
        table: dict[tuple[int, int], Vector] = {}
        for (i, j), coords in brackets.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(
                    f"bracket key ({i}, {j}) must satisfy 0 <= i < j < {dim}"
                )
            v = vector(coords)
            if len(v) != dim:
                raise DimensionMismatch(
                    f"bracket [e_{i}, e_{j}] has {len(v)} coordinates, expected {dim}"
                )
            if not is_zero_vector(v):
                table[(i, j)] = v
        den, flat = common_denominator(c for v in table.values() for c in v)
        ints = [[(0,) * dim for _ in range(dim)] for _ in range(dim)]
        for index, (i, j) in enumerate(table):
            row = flat[index * dim : (index + 1) * dim]
            ints[i][j] = tuple(row)
            ints[j][i] = tuple(-x for x in row)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(tuple(r) for r in ints))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_unimodular", None)
        object.__setattr__(self, "_center", None)
        object.__setattr__(self, "_commutator", None)
        self._check_jacobi()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LieAlgebra is immutable")

    def _check_jacobi(self) -> None:
        """sum_m c_ij^m c_mk^q + cyclic = 0 on every basis triple i < j < k.

        Summed on the integer tensor over its nonzero entries; a failing
        triple's residual [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
        is that sum over den^2.
        """
        n = self.dim
        rows = [[[(m, x) for m, x in enumerate(row) if x] for row in plane] for plane in self.ints]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    residual = [0] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in rows[a][b]:
                            for q, y in rows[m][c]:
                                residual[q] += x * y
                    if any(residual):
                        d2 = self.den * self.den
                        raise JacobiViolation(i, j, k, tuple(Fraction(r, d2) for r in residual))

    # -- bracket machinery -------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for basis indices, including the antisymmetric flips."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise DimensionMismatch(f"basis indices ({i}, {j}) out of range")
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))
        return scale_vector(Fraction(-1), self._table.get((j, i), zero_vector(self.dim)))

    def bracket(self, x: Sequence[Fraction | int | str], y: Sequence[Fraction | int | str]) -> Vector:
        """[x, y], extended bilinearly from the table."""
        xv, yv = vector(x), vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise DimensionMismatch("bracket arguments must match the algebra dimension")
        out = [ZERO] * self.dim
        for (i, j), c in self._table.items():
            coeff = xv[i] * yv[j] - xv[j] * yv[i]
            if coeff != 0:
                for k in range(self.dim):
                    out[k] += coeff * c[k]
        return tuple(out)

    def ad(self, x: Sequence[Fraction | int | str]) -> Matrix:
        """The matrix of ad_x = [x, .] in the distinguished basis.

        One pass over the stored table: [e_i, e_j] = c (i < j) adds x_i c
        to column j and -x_j c to column i.
        """
        xv = vector(x)
        n = self.dim
        if len(xv) != n:
            raise DimensionMismatch("bracket arguments must match the algebra dimension")
        out = [ZERO] * (n * n)
        for (i, j), c in self._table.items():
            xi, xj = xv[i], xv[j]
            if xi or xj:
                for k, ck in enumerate(c):
                    if ck:
                        out[k * n + j] += xi * ck
                        out[k * n + i] -= xj * ck
        return Matrix(n, n, tuple(out))

    def trace_ad(self, x: Sequence[Fraction | int | str]) -> Fraction:
        m = self.ad(x)
        return sum((m.at(i, i) for i in range(self.dim)), start=ZERO)

    # -- structural invariants ---------------------------------------------

    @property
    def is_unimodular(self) -> bool:
        """True when every adjoint map is traceless: sum_j c_ij^j = 0 for all i."""
        cached = self._unimodular
        if cached is None:
            n = self.dim
            cached = not any(sum(plane[j][j] for j in range(n)) for plane in self.ints)
            object.__setattr__(self, "_unimodular", cached)
        return cached

    def center(self) -> Subspace:
        """{x : [e_i, x] = 0 for all i}: the kernel of the stacked ad(e_i).

        ad(e_i) has columns c_ij, so its rows are read off the integer
        tensor (scaled by den, which leaves the kernel unchanged).
        """
        cached = self._center
        if cached is None:
            n = self.dim
            ads = [
                Matrix(n, n, tuple(Fraction(plane[j][q]) for q in range(n) for j in range(n)))
                for plane in self.ints
            ]
            cached = kernel(stack(ads))
            object.__setattr__(self, "_center", cached)
        return cached

    def commutator_ideal(self) -> Subspace:
        """[g, g] = span of all basis brackets."""
        cached = self._commutator
        if cached is None:
            cached = Subspace.span(self.dim, list(self._table.values()))
            object.__setattr__(self, "_commutator", cached)
        return cached

    # -- basis changes -------------------------------------------------------

    def change_of_basis(self, s: Matrix) -> LieAlgebra:
        """The same algebra written in the basis f_j = sum_i s[i][j] e_i.

        Requires s invertible; the new table is s^-1 [s e_i, s e_j],
        contracted on ints: with s = S / d_s, s^-1 = T / d_t and the
        tensor C / den, [f_i, f_j] has coordinates
        sum_k T_lk sum_ab S_ai S_bj C_ab^k over den d_s^2 d_t. The Jacobi
        identity is re-validated as a safety net.
        """
        n = self.dim
        if s.rows != n or s.cols != n:
            raise DimensionMismatch("change of basis matrix must be square of the algebra dimension")
        t_den, t = inverse(s).cleared()
        s_den, rows = s.cleared()
        den = self.den * s_den * s_den * t_den
        columns = list(zip(*rows))
        by_k = [list(zip(*plane)) for plane in self.ints]  # by_k[a][k][b] = C_ab^k
        # [e_a, s e_j] = sum_k half[j][a][k] e_k / (den d_s)
        half = [[[dot(col, c) for c in c_a] for c_a in by_k] for col in columns]
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                # [s e_i, s e_j] = sum_k image[k] e_k / (den d_s^2)
                image = [dot(columns[i], c) for c in zip(*half[j])]
                if any(image):
                    table[(i, j)] = tuple(quotient(dot(row, image), den) for row in t)
        return LieAlgebra(n, table)

    def structure_table(self) -> dict[tuple[int, int], Vector]:
        """A copy of the stored (i < j, nonzero) part of the bracket table."""
        return dict(self._table)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self._table)})"
