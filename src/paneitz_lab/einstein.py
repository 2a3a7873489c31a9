"""Closed-form constants for the fourth-order conformal operator on Einstein manifolds.

On an Einstein manifold the operator reduces to the constant-coefficient form
Delta^2 + alpha*Delta + alpha_bar, and every quantity handled here is an
explicit function of the dimension n and the scalar curvature S.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def sphere_volume(n: int) -> float:
    """Volume of the round unit n-sphere, 2 pi^((n+1)/2) / Gamma((n+1)/2).

    Gamma((n+1)/2) overflows for n >= 343; such n are refused.
    """
    try:
        return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
    except OverflowError:
        raise ValueError(f"dimension n = {n} is too large: Gamma((n+1)/2) overflows") from None


def euclidean_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n, i.e. Vol(S^(n-1))."""
    return sphere_volume(n - 1)


class EinsteinData:
    """Dimension, scalar curvature and cached volume of the model manifold.

    S^2 enters alpha_bar and Q, so an S whose square overflows is refused.
    """

    def __init__(self, n: int, S: float):
        if not isinstance(n, int) or n < 5:
            raise ValueError(f"dimension must be an integer >= 5, got {n!r}")
        if not math.isfinite(S * S):
            raise ValueError(f"scalar curvature S = {S!r} is too large at n = {n}: S^2 overflows")
        self.n = n
        self.S = S
        self.vol = sphere_volume(n)


def round_sphere(n: int) -> EinsteinData:
    """Round unit n-sphere: S = n(n-1)."""
    return EinsteinData(n=n, S=float(n * (n - 1)))


class OperatorCoefficients(NamedTuple):
    """Coefficients of Delta^2 + alpha*Delta + alpha_bar and derived constants.

    a and b are the roots of x^2 - alpha x + alpha_bar, so the operator
    factors as (Delta + a)(Delta + b).  N = 2n/(n-4) is the critical
    exponent; K2_inv_sq is the canonical (oracle) sharp Sobolev constant
    K2^(-2) for this dimension.
    """

    n: int
    alpha: float
    alpha_bar: float
    a: float
    b: float
    N: float
    K2_inv_sq: float
    coercive: bool  # S > 0; positivity constructions require this


def derive_coefficients(data: EinsteinData) -> OperatorCoefficients:
    """Closed-form coefficient algebra for the Einstein reduction.

    alpha     = (n^2 - 2n - 4) / (2 n (n-1)) * S
    alpha_bar = (n-4)(n^2-4) / (16 n (n-1)^2) * S^2

    and alpha^2/4 - alpha_bar = S^2 / (n^2 (n-1)^2) holds identically.
    """
    n, S = data.n, data.S
    alpha = (n * n - 2 * n - 4) / (2 * n * (n - 1)) * S
    # alpha^2/4 and alpha_bar nearly cancel at large n; evaluating alpha_bar
    # as alpha^2/4 minus the exact gap keeps the identity tight to round-off
    # (algebraically identical to (n-4)(n^2-4)/(16 n (n-1)^2) S^2)
    half_gap = abs(S) / (n * (n - 1))
    alpha_bar = alpha * alpha / 4.0 - half_gap * half_gap
    a = alpha / 2 - half_gap
    b = alpha / 2 + half_gap
    return OperatorCoefficients(
        n=n,
        alpha=alpha,
        alpha_bar=alpha_bar,
        a=a,
        b=b,
        N=_critical_exponent(n),
        K2_inv_sq=sharp_constant_oracle(n),
        coercive=S > 0,
    )


def _critical_exponent(n: int) -> float:
    """N = 2n/(n-4), the critical Sobolev exponent of the operator."""
    return 2 * n / (n - 4)


def q_curvature_einstein(data: EinsteinData) -> float:
    """Q-curvature of an Einstein metric (constant S, |Ric|^2 = S^2/n)."""
    n, S = data.n, data.S
    return (
        (n**3 - 4 * n**2 + 16 * (n - 1)) / (8 * (n - 1) ** 2 * (n - 2) ** 2) * S * S
        - 2.0 / (n - 2) ** 2 * S * S / n
    )


def sharp_constant_oracle(n: int) -> float:
    """Canonical K2^(-2): the constant-function value of the sharp quotient
    on the round unit sphere, alpha_bar_round * Vol(S^n)^(4/n)."""
    alpha_bar_round = n * (n + 2) * (n - 2) * (n - 4) / 16.0
    return alpha_bar_round * sphere_volume(n) ** (4.0 / n)


class SharpConstantReport(NamedTuple):
    """The oracle K2^(-2) next to the two closed-form expressions as printed,
    with pairwise ratios.  Ratios are reported, never asserted equal."""

    oracle: float
    paper_formula: float
    sphere_volume_formula: float
    ratios: dict


def sharp_constant_report(data: EinsteinData) -> SharpConstantReport:
    """Evaluate every closed-form candidate for K2^(-2) at dimension n.

    oracle: alpha_bar_round * Vol(S^n)^(4/n)
    paper_formula: pi^2 n (n-1)(n^2-4) Gamma(n/2)/Gamma(n)
    sphere_volume_formula: n(n+2)(n-2)(n-4)/16 * area(S^(n-1))^(4/n)
    """
    n = data.n
    oracle = sharp_constant_oracle(n)
    paper_formula = (
        math.pi**2 * n * (n - 1) * (n * n - 4) * math.exp(math.lgamma(n / 2) - math.lgamma(n))
    )
    sphere_volume_formula = (
        n * (n + 2) * (n - 2) * (n - 4) / 16.0 * euclidean_sphere_area(n) ** (4.0 / n)
    )
    ratios = {
        "paper_over_oracle": paper_formula / oracle,
        "sphere_volume_over_oracle": sphere_volume_formula / oracle,
        "paper_over_sphere_volume": paper_formula / sphere_volume_formula,
    }
    return SharpConstantReport(
        oracle=oracle,
        paper_formula=paper_formula,
        sphere_volume_formula=sphere_volume_formula,
        ratios=ratios,
    )
