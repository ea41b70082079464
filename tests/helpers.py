"""Shared hypothesis strategies and independent sympy oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import sympy
from hypothesis import strategies as st

from lieconf import Matrix, Subspace, inverse, kernel, lie_derivative_metric
from lieconf.errors import DimensionMismatch, NotSymmetric
from lieconf.algebra import LieAlgebra
from lieconf.exact import Vector, basis_vector
from lieconf.geometry import Connection, PseudoMetric
from lieconf import sampling

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero_rationals = rationals.filter(lambda f: f != 0)


@st.composite
def matrices(draw, min_dim: int = 1, max_dim: int = 4, square: bool = False):
    rows = draw(st.integers(min_dim, max_dim))
    cols = rows if square else draw(st.integers(min_dim, max_dim))
    entries = [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(entries)


@st.composite
def symmetric_matrices(draw, min_dim: int = 1, max_dim: int = 4):
    n = draw(st.integers(min_dim, max_dim))
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(rationals)
    return Matrix.from_rows(a)


@st.composite
def vectors(draw, dim: int):
    return tuple(draw(rationals) for _ in range(dim))


@st.composite
def algebra_metric_pairs(draw, min_dim: int = 2, max_dim: int = 4):
    """Random valid (LieAlgebra, PseudoMetric) pairs via the seeded samplers.

    The sampled integer Gram matrix G is rescaled to D G D with D a drawn
    diagonal of nonzero rationals, which keeps the signature but gives the
    metric (and its inverse) non-integer entries.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(min_dim, max_dim))
    rng = random.Random(seed)
    g = sampling.random_algebra(rng, dim)
    m = sampling.random_metric(rng, dim, rng.randint(0, dim))
    d = Matrix.diagonal(draw(st.lists(nonzero_rationals, min_size=dim, max_size=dim)))
    return g, PseudoMetric(d @ m.gram @ d)


@st.composite
def bracket_tables(draw, min_dim: int = 2, max_dim: int = 5):
    """(dim, table) bracket tables, many of them failing the Jacobi identity.

    Either a valid sampled algebra's table with one coordinate perturbed
    (or left as it is), or a table of a few random rational brackets.
    """
    dim = draw(st.integers(min_dim, max_dim))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if draw(st.booleans()):
        g = sampling.random_algebra(random.Random(draw(st.integers(0, 2**32 - 1))), dim)
        table = {key: list(g.bracket_basis(*key)) for key in pairs}
        if draw(st.booleans()):
            key = draw(st.sampled_from(pairs))
            table[key][draw(st.integers(0, dim - 1))] += draw(nonzero_rationals)
        return dim, table
    keys = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    return dim, {key: draw(st.lists(rationals, min_size=dim, max_size=dim)) for key in keys}


def fraction_jacobi(dim: int, table) -> tuple[tuple[int, int, int], tuple[Fraction, ...]] | None:
    """The first basis triple i < j < k with a nonzero Jacobi residual, and
    that residual, computed in Fractions through the bilinear bracket; None
    when the identity holds. The oracle for `LieAlgebra`'s integer check.
    """

    def bracket(x, y):
        out = [Fraction(0)] * dim
        for (i, j), c in table.items():
            coeff = x[i] * y[j] - x[j] * y[i]
            if coeff != 0:
                for k in range(dim):
                    out[k] += coeff * Fraction(c[k])
        return out

    def add(*vs):
        return tuple(sum(cs, Fraction(0)) for cs in zip(*vs))

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                ei, ej, ek = (basis_vector(dim, a) for a in (i, j, k))
                residual = add(
                    bracket(bracket(ei, ej), ek),
                    bracket(bracket(ej, ek), ei),
                    bracket(bracket(ek, ei), ej),
                )
                if any(residual):
                    return (i, j, k), residual
    return None


# -- sympy oracles (independent arithmetic path) --------------------------------


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)]
    )


def sympy_rank(m: Matrix) -> int:
    return to_sympy(m).rank()


def sympy_det(m: Matrix) -> Fraction:
    value = to_sympy(m).det()
    return Fraction(int(value.p), int(value.q))


def sympy_nullspace(m: Matrix) -> list[tuple[Fraction, ...]]:
    out = []
    for column in to_sympy(m).nullspace():
        out.append(tuple(Fraction(int(c.p), int(c.q)) for c in column))
    return out


def sympy_inertia(m: Matrix) -> tuple[int, int, int]:
    """Inertia via Descartes' rule on the characteristic polynomial.

    A symmetric rational matrix has only real eigenvalues, so the count of
    sign changes in the coefficient sequence of det(t I - M) is exactly the
    number of positive eigenvalues (and of p(-t) the negative ones); the
    multiplicity of the zero root is the number of trailing zero
    coefficients. Entirely independent of congruence diagonalization.
    """
    coeffs = to_sympy(m).charpoly().all_coeffs()
    degree = len(coeffs) - 1

    def sign_changes(seq) -> int:
        nonzero = [c for c in seq if c != 0]
        return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))

    positive = sign_changes(coeffs)
    negative = sign_changes([c * (-1) ** (degree - i) for i, c in enumerate(coeffs)])
    zero = next((i for i, c in enumerate(reversed(coeffs)) if c != 0), degree + 1)
    return positive, negative, zero


def brackets_oracle(g: LieAlgebra) -> list[sympy.Matrix]:
    """ad matrices of the basis vectors, rebuilt through sympy arithmetic."""
    n = g.dim
    ads = []
    for k in range(n):
        cols = []
        for j in range(n):
            cols.append([sympy.Rational(c) for c in g.bracket_basis(k, j)])
        ads.append(sympy.Matrix(cols).T)
    return ads


def sympy_conformal_basis(g: LieAlgebra, m: PseudoMetric) -> list[tuple[Fraction, ...]]:
    """The conformal solution space recomputed along a different route.

    Uses the operator identity L_X g = -(Ad_X^T G + G Ad_X) built from
    sympy matrix products instead of per-entry inner products, then takes
    sympy's nullspace.
    """
    n = g.dim
    gram = to_sympy(m.gram)
    ads = brackets_oracle(g)
    forms = [-(ad.T * gram + gram * ad) for ad in ads]
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [forms[k][i, j] for k in range(n)]
            row.append(-2 * gram[i, j])
            rows.append(row)
    system = sympy.Matrix(rows)
    return [
        tuple(Fraction(int(c.p), int(c.q)) for c in column)
        for column in system.nullspace()
    ]


def orthogonal_complement(m: PseudoMetric, s: Subspace) -> Subspace:
    """{v : <b, v> = 0 for every b in s}; dim is complementary, though
    the two spaces can intersect when the restriction is degenerate."""
    if s.ambient_dim != m.dim:
        raise DimensionMismatch("subspace lives in a different dimension")
    if s.is_zero():
        return Subspace.full(m.dim)
    return kernel(s.basis_matrix() @ m.gram)


def lie_derivative_by_inner(g: LieAlgebra, m: PseudoMetric, x) -> Matrix:
    """(L_x g)(e_i, e_j) = -<[x, e_i], e_j> - <e_i, [x, e_j]>, entry by entry.

    Brackets x with each basis vector and pairs through `m.inner`, with no
    ad matrix or matrix product, as the oracle for `lie_derivative_metric`.
    """
    n = g.dim
    basis = [basis_vector(n, i) for i in range(n)]
    brackets = [g.bracket(x, basis[i]) for i in range(n)]
    return Matrix.from_rows(
        [
            [-m.inner(brackets[i], basis[j]) - m.inner(basis[i], brackets[j]) for j in range(n)]
            for i in range(n)
        ]
    )


def soliton_system(g: LieAlgebra, m: PseudoMetric) -> Matrix:
    """The soliton equation as a linear system in (x, mu), mu = lambda - R.

    Writing lambda = R - rho turns the soliton equation into
    (L_x g)(e_i, e_j) + 2 mu g_ij = 0 with mu = -rho. The rows come from
    Lie derivatives of the basis (bracket, then inner product), so they
    never read the lowered structure tensor the conformal solver uses.
    """
    n = g.dim
    derivatives = [lie_derivative_metric(g, m, basis_vector(n, k)) for k in range(n)]
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [derivatives[k].at(i, j) for k in range(n)]
            row.append(2 * m.gram.at(i, j))
            rows.append(row)
    return Matrix.from_rows(rows)


def soliton_solution_space(g: LieAlgebra, m: PseudoMetric) -> Subspace:
    """All (x, mu) soliton pairs, mu = lambda - R, as a canonical subspace."""
    return kernel(soliton_system(g, m))


def riemann_tensor(g: LieAlgebra, conn: Connection) -> list[list[list[tuple[Fraction, ...]]]]:
    """R(e_i, e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k.

    The library contracts Ricci straight from the Koszul table and never
    builds this tensor; here nabla_u v = sum_ab u_a v_b nabla_{e_a} e_b is
    expanded bilinearly in its own loop, for the Bianchi and symmetry checks.
    """
    n = g.dim

    def nabla(u, v):
        out = [Fraction(0)] * n
        for a in range(n):
            for b in range(n):
                if u[a] and v[b]:
                    for k in range(n):
                        out[k] += u[a] * v[b] * conn.table[a][b][k]
        return out

    e = [basis_vector(n, i) for i in range(n)]
    return [
        [
            [
                tuple(
                    p - q - r
                    for p, q, r in zip(
                        nabla(e[i], conn.table[j][k]),
                        nabla(e[j], conn.table[i][k]),
                        nabla(g.bracket_basis(i, j), e[k]),
                    )
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def milnor_scalar(g: LieAlgebra, m: PseudoMetric) -> Fraction:
    """Scalar curvature by Milnor's formula, with no connection at all.

    s = -1/4 sum g^{ia} g^{jb} <[e_i,e_j],[e_a,e_b]> - 1/2 sum g^{ij} B(e_i,e_j)
        - <H,H>, with B the Killing form and <H,X> = tr ad_X (Milnor 1976;
    Besse, Einstein Manifolds 7.38-7.39). The inverse Gram matrix and the
    ad matrices come from sympy.
    """
    n = g.dim
    ginv = to_sympy(m.gram).inv()
    ads = brackets_oracle(g)
    gram = to_sympy(m.gram)
    brackets = {(i, j): ads[i][:, j] for i in range(n) for j in range(n)}
    first = sum(
        ginv[i, a] * ginv[j, b] * (brackets[i, j].T * gram * brackets[a, b])[0, 0]
        for i in range(n)
        for j in range(n)
        for a in range(n)
        for b in range(n)
        if ginv[i, a] != 0 and ginv[j, b] != 0
    )
    killing = sum(ginv[i, j] * (ads[i] * ads[j]).trace() for i in range(n) for j in range(n))
    traces = [ad.trace() for ad in ads]
    mean = sum(ginv[i, j] * traces[i] * traces[j] for i in range(n) for j in range(n))
    value = sympy.Rational(-1, 4) * first - sympy.Rational(1, 2) * killing - mean
    return Fraction(int(value.p), int(value.q))


# -- Fraction routes the library replaced by integer ones (oracles) -------------


def congruence_diagonalize(m: Matrix) -> tuple[Vector, Matrix]:
    """Diagonalize a symmetric matrix by congruence.

    Returns (d, s) with s.T @ m @ s equal to diag(d). Uses symmetric
    row/column elimination; a zero diagonal pivot is repaired either by a
    symmetric swap with a later nonzero diagonal entry or, failing that, by
    adding a row/column pair (which creates 2*m[i][j] != 0 on the diagonal,
    valid in characteristic zero).
    """
    if not m.is_symmetric():
        raise NotSymmetric("congruence diagonalization requires a symmetric matrix")
    n = m.rows
    a = m.row_lists()
    p = Matrix.identity(n).row_lists()  # accumulates row operations: p @ m @ p.T stays equal to a

    def swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        p[i], p[j] = p[j], p[i]

    def add_row(i: int, j: int) -> None:
        # row_i += row_j, col_i += col_j
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] += row[j]
        p[i] = [x + y for x, y in zip(p[i], p[j])]

    def eliminate(i: int, j: int, f: Fraction) -> None:
        # row_j -= f row_i, col_j -= f col_i
        a[j] = [x - f * y for x, y in zip(a[j], a[i])]
        for row in a:
            row[j] -= f * row[i]
        p[j] = [x - f * y for x, y in zip(p[j], p[i])]

    for i in range(n):
        if a[i][i] == 0:
            diag_swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if diag_swap is not None:
                swap(i, diag_swap)
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    continue  # whole remaining row/column is zero
                add_row(i, off)
        for j in range(i + 1, n):
            if a[j][i] != 0:
                eliminate(i, j, a[j][i] / a[i][i])
    d = tuple(a[i][i] for i in range(n))
    s = Matrix.from_rows(p).transpose()
    return d, s


def fraction_change_of_basis(g: LieAlgebra, s: Matrix) -> LieAlgebra:
    """g in the basis f_j = sum_i s[i][j] e_i, as s^-1 [s e_i, s e_j] through
    the generic Fraction bracket and `Matrix.apply`."""
    s_inv = inverse(s)
    columns = [s.column(j) for j in range(g.dim)]
    table = {
        (i, j): s_inv.apply(g.bracket(columns[i], columns[j]))
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
    }
    return LieAlgebra(g.dim, table)


def fraction_random_invertible(rng: random.Random, n: int, bound: int = 4) -> Matrix:
    """`sampling.random_invertible` drawn into a Fraction Matrix and rejected
    on a sympy determinant."""
    while True:
        m = Matrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if sympy_det(m) != 0:
            return m


def fraction_random_metric(rng: random.Random, n: int, positive: int) -> PseudoMetric:
    """`sampling.random_metric` as the matrix product s^T diag(I_p, -I_q) s."""
    d = Matrix.diagonal([1] * positive + [-1] * (n - positive))
    s = fraction_random_invertible(rng, n)
    return PseudoMetric(s.transpose() @ d @ s)


# -- acceptance reporting --------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: str, ok: bool, detail: str) -> bool:
    """Log one pass/fail line for an acceptance criterion; echoed at exit."""
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok
