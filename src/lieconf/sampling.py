"""Seeded random generation of exact test instances.

Everything here is driven by `random.Random(seed)`, so a fixed seed gives
a fixed sequence of instances. Metrics with a prescribed signature are
produced as s.T d s with d = diag(I_p, -I_q) and s a random invertible
integer matrix, which guarantees both non-degeneracy and the signature.
Random algebras come from two Jacobi-safe constructions: a semidirect sum
of a line acting on an abelian ideal by an arbitrary matrix, and random
basis conjugations of catalog algebras.

Matrices are drawn as integer rows, rejected on an integer determinant
(`int_det`), and the Gram matrix s.T d s is summed on ints; Fraction
matrices are built once, for the returned `Matrix`, `PseudoMetric` and
`LieAlgebra.change_of_basis` (which conjugates on ints itself).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Sequence

from . import catalog
from .algebra import LieAlgebra
from .exact import Matrix, dot, int_det
from .geometry import PseudoMetric


def random_fraction(rng: random.Random, numerator: int = 9, denominator: int = 4) -> Fraction:
    return Fraction(rng.randint(-numerator, numerator), rng.randint(1, denominator))


def _int_rows(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def _int_matrix(rows: list[list[int]]) -> Matrix:
    return Matrix(len(rows), len(rows), tuple(Fraction(x) for row in rows for x in row))


def _invertible_rows(rng: random.Random, n: int, bound: int = 4) -> list[list[int]]:
    """Random integer rows with nonzero determinant (rejection sampled)."""
    while True:
        rows = _int_rows(rng, n, bound)
        if int_det(rows):
            return rows


def random_int_matrix(rng: random.Random, n: int, bound: int = 4) -> Matrix:
    return _int_matrix(_int_rows(rng, n, bound))


def random_invertible(rng: random.Random, n: int, bound: int = 4) -> Matrix:
    """A random integer matrix with nonzero determinant (rejection sampled)."""
    return _int_matrix(_invertible_rows(rng, n, bound))


def random_metric(rng: random.Random, n: int, positive: int) -> PseudoMetric:
    """A random exact metric of signature (positive, n - positive).

    The Gram matrix s^T d s is summed on ints: sum_k d_k s_ki s_kj.
    """
    if not 0 <= positive <= n:
        raise ValueError(f"signature ({positive}, {n - positive}) is not achievable in dimension {n}")
    d = [1] * positive + [-1] * (n - positive)
    columns = list(zip(*_invertible_rows(rng, n)))
    weighted = [[dk * x for dk, x in zip(d, column)] for column in columns]
    gram = tuple(Fraction(dot(w, column)) for w in weighted for column in columns)
    return PseudoMetric(Matrix(n, n, gram))


def random_line_action_algebra(rng: random.Random, n: int) -> LieAlgebra:
    """A semidirect sum: e_n acts on the abelian span of e_1..e_{n-1}.

    [e_n, e_i] = A e_i for a random integer matrix A; every such table
    satisfies the Jacobi identity, so this samples freely.
    """
    if n < 2:
        return LieAlgebra(1, {})
    a = _int_rows(rng, n - 1, 3)
    # [e_i, e_n] = -A e_i
    return LieAlgebra(n, {(i, n - 1): [-row[i] for row in a] + [0] for i in range(n - 1)})


_CONJUGATION_POOL: tuple[tuple[str, dict], ...] = (
    ("abelian", {"n": 3}),
    ("heisenberg3", {}),
    ("so3", {}),
    ("sl2", {}),
    ("affine2", {}),
    ("nonuni3", {"alpha": 1, "beta": 1}),
    ("damekricci4", {"alpha": 2}),
    ("diagonalN", {"n": 4, "lambda1": 1, "lambda2": 1, "lambda3": 2}),
)


@cache
def _conjugation_bases() -> tuple[LieAlgebra, ...]:
    """The pool's algebras, instantiated (and Jacobi-checked) once, on first use."""
    return tuple(catalog.instantiate(*spec)[0] for spec in _CONJUGATION_POOL)


def random_algebra(rng: random.Random, dim: int) -> LieAlgebra:
    """A random Jacobi-valid algebra of the given dimension (2..4)."""
    candidates = [g for g in _conjugation_bases() if g.dim == dim]
    if rng.random() < 0.5 or not candidates:
        base = random_line_action_algebra(rng, dim)
    else:
        base = rng.choice(candidates)
    return base.change_of_basis(random_invertible(rng, dim))


def random_instances(
    rng: random.Random, count: int, dims: Sequence[int] = (2, 3, 4)
) -> list[tuple[str, LieAlgebra, PseudoMetric]]:
    """Labeled random (algebra, metric) pairs across the given dimensions."""
    out = []
    for index in range(count):
        n = rng.choice(list(dims))
        g = random_algebra(rng, n)
        m = random_metric(rng, n, rng.randint(0, n))
        out.append((f"random-{index}-dim{n}", g, m))
    return out
