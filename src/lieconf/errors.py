"""Exception types shared across the library."""

from __future__ import annotations

import sys


class LieconfError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(LieconfError):
    """A vector or matrix has the wrong shape for the requested operation."""


class SingularMatrix(LieconfError):
    """Inversion was requested for a matrix with zero determinant."""


class NotSymmetric(LieconfError):
    """A symmetric matrix was required (metric tensors, inertia input)."""


class Degenerate(LieconfError):
    """A candidate metric tensor has zero determinant."""


def _printable(c: object) -> str:
    try:
        return str(c)
    except ValueError:  # a numerator or denominator past the int-to-string limit
        return f"<more than {sys.get_int_max_str_digits()} digits>"


class JacobiViolation(LieconfError):
    """A structure table fails the Jacobi identity.

    Carries the offending basis triple (0-based) and the residual vector
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]. The message prints
    a coordinate past Python's int-to-string digit limit as a placeholder.
    """

    def __init__(self, i: int, j: int, k: int, residual: tuple) -> None:
        self.indices = (i, j, k)
        self.residual = residual
        coords = ", ".join(_printable(c) for c in residual)
        super().__init__(
            f"Jacobi identity fails on basis triple {self.indices}: residual ({coords})"
        )


class NotAConformalSolution(LieconfError):
    """A pair (x, rho) does not satisfy the conformal equation for the metric."""


class UnknownFamily(LieconfError):
    """A catalog family name is not recognised."""


class ConstraintViolated(LieconfError):
    """A catalog parameter violates the family's validity constraint."""

    def __init__(self, param: str, constraint: str) -> None:
        self.param = param
        self.constraint = constraint
        super().__init__(f"parameter {param!r}: {constraint}")


class DocumentError(LieconfError):
    """An instance document failed to parse; carries the offending path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")
