"""Left-invariant Yamabe solitons built from conformal solutions.

A pair (X, lambda) is a Yamabe soliton for the metric when

    (R - lambda) g = (1/2) L_X g,

with R the (constant) scalar curvature. Comparing with the conformal
equation L_X g = 2 rho g shows every conformal solution yields exactly
one soliton constant, lambda = R - rho, and the soliton is trivial
(X Killing) precisely when lambda = R.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebra
from .conformal import (
    ConformalSolutionSpace,
    VerdictReport,
    VerdictStatus,
    is_conformal_solution,
    lie_derivative_metric,
)
from .errors import NotAConformalSolution
from .exact import Vector, frac, vector
from .geometry import PseudoMetric, curvature


class SolitonClass(Enum):
    """Sign class of the soliton constant."""

    SHRINKING = "shrinking"  # lambda > 0
    STEADY = "steady"  # lambda = 0
    EXPANDING = "expanding"  # lambda < 0


def classify_constant(lam: Fraction) -> SolitonClass:
    if lam > 0:
        return SolitonClass.SHRINKING
    if lam < 0:
        return SolitonClass.EXPANDING
    return SolitonClass.STEADY


@dataclass(frozen=True)
class SolitonReport:
    """One soliton: the field, its conformal factor, and the constant."""

    field: Vector
    rho: Fraction
    constant: Fraction  # the soliton constant lambda
    scalar: Fraction  # scalar curvature of the metric
    kind: SolitonClass
    trivial: bool  # trivial iff the field is Killing iff constant == scalar


def check_soliton(
    g: LieAlgebra,
    m: PseudoMetric,
    x: Sequence[Fraction | int | str],
    lam: Fraction | int | str,
) -> bool:
    """Exact residual check of (R - lambda) g = (1/2) L_x g."""
    lam = frac(lam)
    scalar = curvature(g, m).scalar
    lhs = m.gram.scale(scalar - lam)
    rhs = lie_derivative_metric(g, m, x).scale(Fraction(1, 2))
    return (lhs - rhs).is_zero()


def soliton_from_conformal(
    g: LieAlgebra,
    m: PseudoMetric,
    x: Sequence[Fraction | int | str],
    rho: Fraction | int | str,
    scalar: Fraction,
) -> SolitonReport:
    """The unique soliton carried by a conformal solution (x, rho), given
    the metric's scalar curvature (`curvature(g, m).scalar`).

    Raises NotAConformalSolution when the pair fails the conformal
    equation, so reports are only ever built on verified solutions.
    """
    rho = frac(rho)
    xv = vector(x)
    if not is_conformal_solution(g, m, xv, rho):
        raise NotAConformalSolution(
            f"L_x g != 2 rho g for x = {xv} with rho = {rho}"
        )
    lam = scalar - rho
    return SolitonReport(
        field=xv,
        rho=rho,
        constant=lam,
        scalar=scalar,
        kind=classify_constant(lam),
        trivial=rho == 0,
    )


def verify_corollary_unimodular(
    g: LieAlgebra, m: PseudoMetric, space: ConformalSolutionSpace
) -> VerdictReport:
    """On a unimodular algebra every soliton must be trivial (lambda = R).

    Every conformal solution (x, rho) carries the soliton (x, mu) with
    mu = lambda - R = -rho, so the soliton space is the conformal space
    with its last coordinate negated; its mu-projection must vanish.
    """
    check = "unimodular-solitons-trivial"
    if not g.is_unimodular:
        return VerdictReport(check, VerdictStatus.HYPOTHESIS_NOT_MET, "algebra is not unimodular")
    offenders = [x + (-rho,) for x, rho in space.solutions() if rho != 0]
    if offenders:
        return VerdictReport(
            check,
            VerdictStatus.VIOLATED,
            "soliton with lambda != R on a unimodular algebra",
            offenders[0],
        )
    return VerdictReport(
        check,
        VerdictStatus.PASSED,
        f"soliton space has dimension {space.dim} with lambda = R throughout",
    )
