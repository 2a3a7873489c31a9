"""Numerical audits of the Sobolev-type inequalities.

Each audit evaluates both sides of an inequality on concrete trial data
and reports the ratio with a verdict; nothing here asserts validity.  The
refined inequality is checked both as literally stated (where constants
violate it) and in its second-eigenvalue form (what the underlying
argument actually provides).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .einstein import (
    OperatorCoefficients,
    _critical_exponent,
    euclidean_sphere_area,
    sharp_constant_oracle,
)
from .spectral import (
    ConformalDensity,
    assemble_mass,
    assemble_stiffness,
    solve_generalized_eigen,
)
from .zonal import ZonalField


@dataclass
class InequalityReport:
    """Pure data: both sides, their ratio, and a recomputable verdict."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    verdict: str  # holds | violated | boundary
    details: dict = field(default_factory=dict)


def _verdict(ratio: float) -> str:
    if abs(ratio - 1.0) <= 1e-10:
        return "boundary"
    return "holds" if ratio < 1.0 else "violated"


def make_report(name: str, lhs: float, rhs: float, **details) -> InequalityReport:
    ratio = lhs / rhs if rhs != 0 else math.inf
    return InequalityReport(
        name=name, lhs=lhs, rhs=rhs, ratio=ratio, verdict=_verdict(ratio), details=details
    )


# ---------------------------------------------------------------------------
# sphere-side audits


def lemma1_audit(
    eps: float,
    A_eps: float,
    fields: Sequence[ZonalField],
    n: int,
) -> list[InequalityReport]:
    """||u||_N^2 <= (K2^2 + eps)||Lap u||_2^2 + A(eps)||u||_2^2 per field.

    K2 takes the canonical oracle value.  The minimal A clearing the whole
    family is computed directly (the inequality is affine in A) and
    attached to every report.
    """
    if eps < 0 or A_eps < 0:
        raise ValueError("eps and A_eps must be nonnegative")
    K2_sq = 1.0 / sharp_constant_oracle(n)
    N = _critical_exponent(n)
    rows = []
    minimal_A = -math.inf
    for f in fields:
        rule = f.basis.rule
        lN_sq = rule.lN_mass(f.values, N) ** (2.0 / N)
        lap_sq = float(np.dot(f.basis.eigs**2, f.coeffs**2))
        l2_sq = float(np.dot(f.coeffs, f.coeffs))
        minimal_A = max(minimal_A, (lN_sq - (K2_sq + eps) * lap_sq) / l2_sq)
        rows.append(
            make_report(
                "lemma1",
                lN_sq,
                (K2_sq + eps) * lap_sq + A_eps * l2_sq,
                lN_norm_sq=lN_sq,
                lap_norm_sq=lap_sq,
                l2_norm_sq=l2_sq,
                eps=eps,
                A_eps=A_eps,
            )
        )
    for r in rows:
        r.details["minimal_A_for_family"] = minimal_A
    return rows


def refined_inequality_ratio(
    u: ConformalDensity,
    v: ZonalField,
    coeffs: OperatorCoefficients,
    eps: float = 0.1,
) -> InequalityReport:
    """The refined inequality as printed, plus its second-eigenvalue form.

    As printed: int u^(N-2) v^2 <= 2^(-4/n) K2^2 int v P(v) (int u^N)^(2/N).
    Constants make the ratio exactly 2^(4/n) — violated.  The
    second-eigenvalue form asks lambda_2(u) (int u^N)^(4/n) >=
    2^(4/n) K2^(-2) (1+eps)^(-1); its ratio is reported in the details.
    """
    n = coeffs.n
    basis = v.basis
    K2_inv_sq = sharp_constant_oracle(n)
    rule = basis.rule
    lhs = rule.integrate(u.weight_values * v.values**2)
    A_diag = assemble_stiffness(coeffs, basis)
    energy = float(np.dot(A_diag, v.coeffs**2))
    rhs = 2.0 ** (-4.0 / n) / K2_inv_sq * energy * u.lN_mass() ** (2.0 / coeffs.N)
    report = make_report("refined-inequality-as-printed", lhs, rhs)

    B = assemble_mass(u, basis)
    spec = solve_generalized_eigen(A_diag, B, 2, basis)
    lam2_bar = float(spec.eigenvalues[1]) * u.lN_mass() ** (4.0 / n)
    threshold = 2.0 ** (4.0 / n) * K2_inv_sq / (1.0 + eps)
    report.details.update(
        lam2_bar=lam2_bar,
        lam2_threshold=threshold,
        lam2_form_ratio=lam2_bar / threshold,
        lam2_form_holds=bool(lam2_bar >= threshold),
        eps=eps,
    )
    return report


# ---------------------------------------------------------------------------
# Euclidean side


@dataclass(frozen=True)
class EuclideanRadialGrid:
    """Radial quadrature on R^n: Gauss core on (0, R) plus an inverted tail.

    Weights carry the full measure omega_(n-1) r^(n-1) dr; the tail panel
    substitutes r = R/s so algebraically decaying profiles are integrated
    over all of (R, infinity) without truncation bias.
    """

    n: int
    R: float
    r: np.ndarray
    weights: np.ndarray
    core_count: int

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def tail_fraction(self, values: np.ndarray) -> float:
        """Mass fraction carried by nodes beyond R."""
        total = self.integrate(np.abs(values))
        if total == 0:
            return 0.0
        tail = float(np.dot(self.weights[self.core_count:], np.abs(values[self.core_count:])))
        return tail / total


def build_radial_grid(n: int, R: float = 50.0, q: int = 400) -> EuclideanRadialGrid:
    """q-node core on (0, R) and a q/2-node tail panel."""
    if R <= 0 or q < 4:
        raise ValueError("need R > 0 and q >= 4")
    area = euclidean_sphere_area(n)
    x, w = np.polynomial.legendre.leggauss(q)
    r_core = 0.5 * R * (x + 1.0)
    w_core = 0.5 * R * w * area * r_core ** (n - 1)
    s, ws = np.polynomial.legendre.leggauss(q // 2)
    s = 0.5 * (s + 1.0)
    ws = 0.5 * ws
    r_tail = R / s
    w_tail = ws * area * r_tail ** (n - 1) * R / s**2
    order = np.argsort(r_tail)
    return EuclideanRadialGrid(
        n=n,
        R=R,
        r=np.concatenate([r_core, r_tail[order]]),
        weights=np.concatenate([w_core, w_tail[order]]),
        core_count=q,
    )


@dataclass(frozen=True)
class RadialProfile:
    """A radial function with analytic first and second derivatives."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


def standard_bubble(n: int) -> RadialProfile:
    """(1 + r^2)^(-(n-4)/2): the extremal of the flat Sobolev embedding."""
    m = (n - 4) / 2.0

    def f(r):
        return (1.0 + r * r) ** -m

    def df(r):
        return -2 * m * r * (1.0 + r * r) ** (-m - 1)

    def d2f(r):
        b = 1.0 + r * r
        return -2 * m * b ** (-m - 1) + 4 * m * (m + 1) * r * r * b ** (-m - 2)

    return RadialProfile(f=f, df=df, d2f=d2f)


def flat_laplacian(profile: RadialProfile, r: np.ndarray, n: int) -> np.ndarray:
    """-v'' - (n-1) v'/r for a radial profile on R^n."""
    return -(profile.d2f(r) + (n - 1) / r * profile.df(r))


def euclidean_corollary_check(
    grid: EuclideanRadialGrid, u: RadialProfile, v: RadialProfile
) -> InequalityReport:
    """int u^(N-2) v^2 dx <= 2^(-4/n) K2^2 int (Lap v)^2 dx (int u^N dx)^(2/N).

    The stated volume exponent 2/N is not scale-consistent in u; the
    inequality is applied in the unit-mass regime, so u is rescaled to
    int u^N = 1 before evaluation (both exponent readings then coincide).
    Profiles must essentially decay inside the core radius: the tail-panel
    mass fraction of the u^N integrand must stay below 1e-8.
    """
    n = grid.n
    N = _critical_exponent(n)
    uN = u.f(grid.r) ** N
    frac = grid.tail_fraction(uN)
    if frac > 1e-8:
        raise ValueError(
            f"profile tail mass fraction {frac:.2e} beyond R={grid.R}; increase R"
        )
    u_scale = grid.integrate(uN) ** (-1.0 / N)
    lap = flat_laplacian(v, grid.r, n)
    lhs = grid.integrate((u_scale * u.f(grid.r)) ** (N - 2) * v.f(grid.r) ** 2)
    K2_sq = 1.0 / sharp_constant_oracle(n)
    uN_mass = 1.0
    rhs = 2.0 ** (-4.0 / n) * K2_sq * grid.integrate(lap**2) * uN_mass ** (2.0 / N)
    sharp_quotient = grid.integrate(lap**2) / grid.integrate(
        np.abs(v.f(grid.r)) ** N
    ) ** (2.0 / N)
    return make_report(
        "euclidean-corollary",
        lhs,
        rhs,
        uN_mass=uN_mass,
        v_sharp_quotient=sharp_quotient,
        tail_fraction=frac,
    )

