"""Numerical audits of the Sobolev-type inequalities.

Each audit evaluates both sides of an inequality on concrete trial data
and reports the ratio with a verdict; nothing here asserts validity.  The
refined inequality is checked both as literally stated (where constants
violate it) and in its second-eigenvalue form (what the underlying
argument actually provides).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bubbles import _bubble_power
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
    normalized_invariant,
    restricted_mass,
    solve_generalized_eigen,
)
from .zonal import ZonalField, gauss_rule

REFINED_EPS = 0.1   # slack (1+eps)^(-1) in the second-eigenvalue form of the refined inequality
RADIAL_NODES = 400  # Gauss nodes in the core of the radial grid, half as many in its tail
# From this dimension on the core takes twice RADIAL_NODES nodes: the u^N
# peak of the standard bubble, of width about 1/sqrt(n) near r = 1, needs
# them (the euclidean-corollary ratio misses 2^(4/n) by 2.7e-11 at n = 300
# and 1.6e-10 at n = 334 on 400 nodes, by at most 5.1e-14 on 800).
RADIAL_DOUBLING_DIM = 200


class InequalityReport(NamedTuple):
    """Pure data: both sides, their ratio, and a recomputable verdict."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    verdict: str  # holds | violated | boundary
    details: dict


def _verdict(ratio: float) -> str:
    if abs(ratio - 1.0) <= 1e-10:
        return "boundary"
    return "holds" if ratio < 1.0 else "violated"


def make_report(name: str, lhs: float, rhs: float, **details) -> InequalityReport:
    """Both sides and their verdict; a non-finite side is refused, since no
    verdict can be read from it."""
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"{name}: non-finite side (lhs {lhs}, rhs {rhs})")
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
) -> InequalityReport:
    """The refined inequality as printed, plus its second-eigenvalue form.

    As printed: int u^(N-2) v^2 <= 2^(-4/n) K2^2 int v P(v) (int u^N)^(2/N).
    Constants make the ratio exactly 2^(4/n) — violated.  The
    second-eigenvalue form asks lambda_2(u) (int u^N)^(4/n) >=
    2^(4/n) K2^(-2) (1+eps)^(-1), eps = REFINED_EPS; its ratio is reported
    in the details.
    """
    n = coeffs.n
    basis = v.basis
    K2_inv_sq = sharp_constant_oracle(n)
    lhs = float(restricted_mass(u, v)[0, 0])
    A_diag = assemble_stiffness(coeffs, basis)
    energy = float(np.dot(A_diag, v.coeffs**2))
    rhs = 2.0 ** (-4.0 / n) / K2_inv_sq * energy * u.lN_mass() ** (2.0 / coeffs.N)
    report = make_report("refined-inequality-as-printed", lhs, rhs)

    B = assemble_mass(u, basis)
    spec = solve_generalized_eigen(A_diag, B, 2, basis)
    lam2_bar = normalized_invariant(spec, u, 2)
    threshold = 2.0 ** (4.0 / n) * K2_inv_sq / (1.0 + REFINED_EPS)
    report.details.update(
        lam2_bar=lam2_bar,
        lam2_threshold=threshold,
        lam2_form_ratio=lam2_bar / threshold,
        lam2_form_holds=bool(lam2_bar >= threshold),
        eps=REFINED_EPS,
    )
    return report


# ---------------------------------------------------------------------------
# Euclidean side


class EuclideanRadialGrid(NamedTuple):
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


def _legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the package's zonal rule
    of S^2, whose x-weight is 1, without the measure Vol(S^1) its weights
    carry."""
    rule = gauss_rule(2, q)
    return rule.nodes, rule.weights / euclidean_sphere_area(2)


def build_radial_grid(n: int, R: float = 50.0) -> EuclideanRadialGrid:
    """RADIAL_NODES-node core on (0, R), twice as many from
    n = RADIAL_DOUBLING_DIM on, and a tail panel of half as many nodes as
    the core, less the nodes where the measure r^(n-1) overflows double
    precision.

    That happens at the outermost tail nodes (r near 1e6) from n = 52 on, and
    inside the core from n = 183 on.  The profiles the grid is for decay at
    least like r^(-n-1), so at those nodes they have underflowed to 0 and
    their products with the weight lie far below any sum's last bit, while
    inf * 0 would turn every sum into NaN.  No node is dropped for n <= 51.
    """
    if R <= 0:
        raise ValueError("need R > 0")
    q = RADIAL_NODES if n < RADIAL_DOUBLING_DIM else 2 * RADIAL_NODES
    area = euclidean_sphere_area(n)
    x, w = _legendre(q)
    r_core = 0.5 * R * (x + 1.0)
    s, ws = _legendre(q // 2)
    s = 0.5 * (s + 1.0)
    ws = 0.5 * ws
    r_tail = R / s
    with np.errstate(over="ignore"):
        w_core = 0.5 * R * w * area * r_core ** (n - 1)
        w_tail = ws * area * r_tail ** (n - 1) * R / s**2
    order = np.argsort(r_tail)
    r = np.concatenate([r_core, r_tail[order]])
    weights = np.concatenate([w_core, w_tail[order]])
    finite = np.isfinite(weights)
    return EuclideanRadialGrid(
        n=n,
        R=R,
        r=r[finite],
        weights=weights[finite],
        core_count=int(finite[:q].sum()),
    )


class RadialProfile(NamedTuple):
    """A radial function with analytic first and second derivatives."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


def standard_bubble(n: int) -> RadialProfile:
    """(1 + r^2)^(-(n-4)/2): the extremal of the flat Sobolev embedding."""

    def derivative(order):
        return lambda r: _bubble_power(r, 1.0, n)[order]

    return RadialProfile(f=derivative(0), df=derivative(1), d2f=derivative(2))


def bubble_radius(n: int) -> float:
    """Core radius for the standard bubble on R^n: at least 50, and far enough
    that u^N = (1 + r^2)^(-n) keeps at most 1e-9 of its mass beyond it, a
    decade under the tail fraction euclidean_corollary_check refuses.

    The tail int_R^inf r^(n-1) (1 + r^2)^(-n) dr is below R^(-n)/n and the
    total is B(n/2, n/2)/2.  Only n = 5 needs more than 50 (R = 88.5).
    """
    log_beta = 2 * math.lgamma(n / 2) - math.lgamma(n)
    return max(50.0, math.exp((math.log(2 / n) - log_beta - math.log(1e-9)) / n))


def flat_laplacian(profile: RadialProfile, r: np.ndarray, n: int) -> np.ndarray:
    """-v'' - (n-1) v'/r for a radial profile on R^n."""
    return -(profile.d2f(r) + (n - 1) / r * profile.df(r))


def _normal_power(
    grid: EuclideanRadialGrid, values: np.ndarray, N: float
) -> tuple[float, np.ndarray]:
    """(c, |c f|^N at the nodes) from the node values of f, where c is 1, or
    the power of two that lifts a subnormal L^N mass of f into the normal
    double range: a subnormal mass has lost digits, and the standard
    bubble's is subnormal from n = 327 on.  Scaling by c is exact at every
    node, so the values of f are kept up to the factor."""
    power = np.abs(values) ** N
    mass = grid.integrate(power)
    tiny = np.finfo(float).tiny
    if not 0 < mass < tiny:
        return 1.0, power
    amplitude = 2.0 ** math.ceil(1 + (math.log2(tiny) - math.log2(mass)) / N)
    return amplitude, np.abs(amplitude * values) ** N


def euclidean_corollary_check(
    grid: EuclideanRadialGrid, u: RadialProfile, v: RadialProfile
) -> InequalityReport:
    """int u^(N-2) v^2 dx <= 2^(-4/n) K2^2 int (Lap v)^2 dx (int u^N dx)^(2/N).

    The stated volume exponent 2/N is not scale-consistent in u; the
    inequality is applied in the unit-mass regime, so u is rescaled to
    int u^N = 1 before evaluation (both exponent readings then coincide).
    Both sides are homogeneous of degree 2 in v, so v is evaluated at the
    amplitude of ``_normal_power``: 1, unless its L^N mass is subnormal.
    Profiles must essentially decay inside the core radius: the tail-panel
    mass fraction of the u^N integrand must stay below 1e-8.
    """
    n = grid.n
    N = _critical_exponent(n)
    u_values = u.f(grid.r)
    amplitude, uN = _normal_power(grid, u_values, N)
    frac = grid.tail_fraction(uN)
    if frac > 1e-8:
        raise ValueError(
            f"profile tail mass fraction {frac:.2e} beyond R={grid.R}; increase R"
        )
    mass = grid.integrate(uN)
    if not mass >= np.finfo(float).tiny:
        raise ValueError(
            f"euclidean-corollary: the L^N mass of u, {mass:.3g}, is below the "
            f"normal double range at n = {n}"
        )
    u_scale = amplitude * mass ** (-1.0 / N)
    v_values = v.f(grid.r)
    v_amplitude, vN = _normal_power(grid, v_values, N)
    v_values = v_amplitude * v_values
    lap = v_amplitude * flat_laplacian(v, grid.r, n)
    lhs = grid.integrate((u_scale * u_values) ** (N - 2) * v_values**2)
    K2_sq = 1.0 / sharp_constant_oracle(n)
    rhs = 2.0 ** (-4.0 / n) * K2_sq * grid.integrate(lap**2)
    sharp_quotient = grid.integrate(lap**2) / grid.integrate(vN) ** (2.0 / N)
    return make_report(
        "euclidean-corollary",
        lhs,
        rhs,
        uN_mass=1.0,  # u_scale gives u unit L^N mass
        v_sharp_quotient=sharp_quotient,
        tail_fraction=frac,
    )

