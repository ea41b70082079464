"""Exact rational linear algebra: matrices, canonical subspaces, inertia.

Matrices, vectors and every result hold `fractions.Fraction` scalars;
nothing here ever touches floating point. Inside, the heavy loops run on
Python ints, which spares the gcd every Fraction operation pays: `rref`
scales each row to a primitive integer row (`integer_row`) and eliminates
without fractions, dividing by its pivots only when it builds the result;
`det` and `signature` clear the whole matrix once (`Matrix.cleared`) and
eliminate on ints (`int_det`, symmetric Schur complements); a matrix
product clears each factor to one denominator and multiplies ints. The
algebra, geometry and sampling layers use the same clearing
(`common_denominator`, `Matrix.cleared`, `int_det`) to contract tensors
and draw instances on ints.
Outputs are canonical (reduced row echelon bases, deterministic
pivoting), so equal inputs produce bit-identical results. The report
layer depends on that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, NotSymmetric, SingularMatrix

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Largest decimal exponent a literal may carry (Python's int-string digit
#: limit), checked before Fraction builds 10**e: "1e999999999" fails at once.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?[0_]*([\d_]*)$")


def frac(value: Fraction | int | str) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact Fraction.

    Floats are rejected on purpose: admitting them would silently launder
    rounding error into the exact pipeline. A string whose decimal exponent
    exceeds MAX_EXPONENT in magnitude raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        digits = exponent[1].replace("_", "") if exponent else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
        return Fraction(text)
    raise TypeError(f"not an exact scalar: {value!r}")


def vector(values: Iterable[Fraction | int | str]) -> Vector:
    """Coerce an iterable of scalars to a tuple of Fractions."""
    return tuple(frac(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise DimensionMismatch(f"basis index {i} out of range for dimension {n}")
    return tuple(ONE if j == i else ZERO for j in range(n))


def add_vectors(x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def scale_vector(c: Fraction, x: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in x)


def is_zero_vector(x: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in x)


# -- integer kernels: Fractions cleared to ints over one denominator -----------


def common_denominator(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, ints) with d the lcm of the denominators and values[i] == ints[i] / d."""
    values = list(values)
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def dot(x: Iterable[int], y: Iterable[int]) -> int:
    """sum_i x[i] * y[i] over Python ints."""
    return sum(map(mul, x, y))


def quotient(x: int, den: int) -> Fraction:
    """x / den as a Fraction (the shared ZERO when x is 0)."""
    return Fraction(x, den) if x else ZERO


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """(ints, scale) with ints primitive (content 1) and row == scale * ints.

    A zero row gives zeros and scale 1.
    """
    d, ints = common_denominator(row)
    content = gcd(*ints)
    if content > 1:
        ints = [x // content for x in ints]
    return ints, Fraction(content or 1, d)


@dataclass(frozen=True)
class Matrix:
    """An immutable rows x cols matrix of Fractions, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int | str]]) -> Matrix:
        rows = [vector(r) for r in rows]
        if not rows:
            raise DimensionMismatch("cannot build a matrix from zero rows")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("rows have unequal lengths")
        return cls(len(rows), width, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int | str]) -> Matrix:
        d = vector(values)
        n = len(d)
        return cls(n, n, tuple(d[i] if i == j else ZERO for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise DimensionMismatch(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def cleared(self) -> tuple[int, list[list[int]]]:
        """(d, rows): self[i][j] == rows[i][j] / d, d the lcm of the denominators."""
        d, flat = common_denominator(self.entries)
        return d, [flat[i * self.cols : (i + 1) * self.cols] for i in range(self.rows)]

    def transpose(self) -> Matrix:
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: Matrix) -> Matrix:
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: Matrix) -> Matrix:
        self._require_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # one integer product over the product of the two common denominators
        left_den, rows = self.cleared()
        right_den, right = other.cleared()
        den = left_den * right_den
        cols = [[row[j] for row in right] for j in range(other.cols)]
        return Matrix(
            self.rows, other.cols, tuple(quotient(dot(r, c), den) for r in rows for c in cols)
        )

    def scale(self, c: Fraction | int | str) -> Matrix:
        f = frac(c)
        return Matrix(self.rows, self.cols, tuple(f * a for a in self.entries))

    def apply(self, v: Sequence[Fraction | int | str]) -> Vector:
        """Matrix-vector product."""
        x = vector(v)
        if len(x) != self.cols:
            raise DimensionMismatch(f"vector of length {len(x)} for {self.rows}x{self.cols}")
        return tuple(
            sum((a * b for a, b in zip(self.row(i), x)), start=ZERO) for i in range(self.rows)
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        n, e = self.rows, self.entries
        return self.is_square() and all(
            e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i + 1, n)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __str__(self) -> str:
        cells = [[str(self.at(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )

    def _require_same_shape(self, other: Matrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )


def stack(matrices: Sequence[Matrix]) -> Matrix:
    """Stack matrices with equal column counts vertically."""
    if not matrices:
        raise DimensionMismatch("cannot stack zero matrices")
    width = matrices[0].cols
    if any(m.cols != width for m in matrices):
        raise DimensionMismatch("stacked matrices must share a column count")
    entries: list[Fraction] = []
    for m in matrices:
        entries.extend(m.entries)
    return Matrix(sum(m.rows for m in matrices), width, tuple(entries))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (exact Gauss-Jordan).

    Pivoting is deterministic (first nonzero entry scanning down), so the
    result is the canonical RREF of the row space. The elimination is
    fraction-free (Bareiss 1968; H. Cohen, A Course in Computational
    Algebraic Number Theory, 2.2): rows are primitive integer rows, row i
    becomes p * row_i - f * pivot_row and is divided by its content (one
    gcd per updated row), and the pivot rows are divided by their pivots
    only at the end. Every step keeps the row space, and the RREF of a row
    space is unique, so the result equals Gauss-Jordan over Fractions.
    """
    if not m.rows:
        raise DimensionMismatch("cannot build a matrix from zero rows")
    a = [integer_row(m.row(i))[0] for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        top = a[r]
        p = top[c]
        for i in range(m.rows):
            f = a[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], top)]
                content = gcd(*row)
                a[i] = [x // content for x in row] if content > 1 else row
        pivots.append(c)
        r += 1
    entries = [quotient(x, row[c]) for row, c in zip(a, pivots) for x in row]
    entries += [ZERO] * ((m.rows - len(pivots)) * m.cols)
    return Matrix(m.rows, m.cols, tuple(entries)), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Right null space {v : m v = 0} as a canonical Subspace."""
    reduced, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced.at(r, f)
        vectors.append(v)
    return Subspace.span(m.cols, vectors)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse: the right half of the RREF of [m | I].

    [m | I] always has rank n, so m is singular exactly when a pivot falls
    in the right block.
    """
    if not m.is_square():
        raise DimensionMismatch("only square matrices can be inverted")
    n = m.rows
    identity = Matrix.identity(n)
    reduced, pivots = rref(Matrix.from_rows([m.row(i) + identity.row(i) for i in range(n)]))
    if pivots[-1] >= n:
        raise SingularMatrix(f"matrix of rank < {n} has no inverse")
    return Matrix.from_rows([reduced.row(i)[n:] for i in range(n)])


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every division is exact, so it never leaves the ints."""
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top, p = a[k], a[k][k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[k] = 0
        prev = p
    return sign * a[n - 1][n - 1] if n else 1


def det(m: Matrix) -> Fraction:
    """Determinant: the matrix is cleared once to D * m = A over ints
    (`Matrix.cleared`), and det m = int_det(A) / D^n."""
    if not m.is_square():
        raise DimensionMismatch("determinant requires a square matrix")
    d, rows = m.cleared()
    return Fraction(int_det(rows), d**m.rows)


class Inertia(NamedTuple):
    """Sylvester inertia of a symmetric matrix."""

    positive: int
    negative: int
    zero: int


def signature(m: Matrix) -> Inertia:
    """Sylvester inertia (p, q, z) of a symmetric matrix, computed exactly.

    The matrix is cleared once to an integer matrix A (a positive multiple,
    so the inertia is the same) and reduced by symmetric Schur complements:
    with pivot p = A[0][0] and first row (p, v), A is congruent to
    diag(p, A_rest - v v^T / p), and |p| A_rest - sign(p) v v^T is a
    positive multiple of that complement, divided by its content (a
    positive gcd) to keep the entries small. A zero pivot is repaired
    either by a symmetric swap with a later nonzero diagonal entry or,
    failing that, by adding a later row/column pair (which puts
    2 A[0][j] != 0 on the diagonal, valid in characteristic zero); a zero
    first row is one zero direction.
    """
    if not m.is_symmetric():
        raise NotSymmetric("inertia requires a symmetric matrix")
    a = m.cleared()[1]
    positive = negative = zero = 0
    while a:
        if a[0][0] == 0:
            j = next((j for j in range(1, len(a)) if a[j][j]), None)
            if j is not None:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((j for j in range(1, len(a)) if a[0][j]), None)
                if j is None:
                    zero += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
        p, v = a[0][0], a[0][1:]
        if p > 0:
            positive += 1
            rest = [[p * x - vi * y for x, y in zip(row[1:], v)] for vi, row in zip(v, a[1:])]
        else:
            negative += 1
            rest = [[vi * y - p * x for x, y in zip(row[1:], v)] for vi, row in zip(v, a[1:])]
        content = gcd(*(x for row in rest for x in row))
        a = [[x // content for x in row] for row in rest] if content > 1 else rest
    return Inertia(positive, negative, zero)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of QQ^n held by its canonical (RREF) basis.

    Two Subspace values compare equal exactly when they are the same
    subspace; an empty basis encodes the zero subspace.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, ambient_dim: int, vectors: Sequence[Sequence[Fraction | int | str]]) -> Subspace:
        coerced = [vector(v) for v in vectors]
        for v in coerced:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"spanning vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        coerced = [v for v in coerced if not is_zero_vector(v)]
        if not coerced:
            return cls(ambient_dim, ())
        reduced, pivots = rref(Matrix.from_rows(coerced))
        return cls(ambient_dim, tuple(reduced.row(r) for r in range(len(pivots))))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls.span(ambient_dim, [basis_vector(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v: Sequence[Fraction | int | str]) -> bool:
        x = vector(v)
        if len(x) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(x)} in ambient dimension {self.ambient_dim}"
            )
        if is_zero_vector(x):
            return True
        if self.is_zero():
            return False
        return rank(Matrix.from_rows(list(self.basis) + [x])) == self.dim

    def basis_matrix(self) -> Matrix:
        if self.is_zero():
            raise DimensionMismatch("the zero subspace has no basis matrix")
        return Matrix.from_rows(self.basis)
