"""Concentrated (Aubin-type) test functions and the bounds built from them.

phi_eps = eta(theta) * (theta^2 + eps^2)^(-(n-4)/2) concentrates at a pole
as eps -> 0 and drives the sharp-quotient functional Y toward the best
Sobolev constant.  This module evaluates Y, fits the small-eps expansion
Y ~ A - C eps^2, assembles the two-component test density u_eps behind the
second-invariant upper bound, and gives and samples the sharp constant of
the elementary power inequality used alongside it.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .einstein import (
    OperatorCoefficients,
    _critical_exponent,
    derive_coefficients,
    round_sphere,
    sharp_constant_oracle,
)
from .spectral import (
    ConformalDensity,
    assemble_stiffness,
    minimax_over_plane,
    round_setup,
)
from .zonal import QuadratureRule, ZonalBasis, ZonalField, constant_field

CUTOFF_RADIUS = 0.5  # delta of the cutoff eta: 1 on [0, delta], 0 from 2 delta on


class BubbleSpec:
    """One concentrated profile: scale eps and pole."""

    def __init__(self, eps: float, center: str = "north"):
        if not 0 < eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {eps}")
        if center not in ("north", "south"):
            raise ValueError("center must be 'north' or 'south'")
        self.eps = eps
        self.center = center


def _cutoff(theta: np.ndarray, delta: float):
    """Quintic smoothstep cutoff: 1 on [0, delta], 0 on [2*delta, pi], C^2.

    Returns (eta, eta', eta'') at the given colatitudes.  The clip makes
    the smoothstep exactly 0 or 1, with zero derivatives, off (delta, 2 delta).
    """
    t = np.clip((theta - delta) / delta, 0.0, 1.0)
    s = t**3 * (6 * t * t - 15 * t + 10)
    ds = 30 * t * t * (t - 1) ** 2
    d2s = 60 * t * (t - 1) * (2 * t - 1)
    return 1.0 - s, -ds / delta, -d2s / delta**2


def _bubble_power(r: np.ndarray, eps2: float, n: int):
    """(r^2 + eps2)^(-(n-4)/2) and its first two r-derivatives."""
    m = (n - 4) / 2.0
    base = r * r + eps2
    return (
        base**-m,
        -2 * m * r * base ** (-m - 1),
        -2 * m * base ** (-m - 1) + 4 * m * (m + 1) * r * r * base ** (-m - 2),
    )


def bubble_profile(theta: np.ndarray, spec: BubbleSpec, n: int):
    """phi, phi', phi'' of the cutoff bubble at the given colatitudes.

    Geodesic distance from the center is theta itself (north) or
    pi - theta (south); derivatives are with respect to theta.  A scale
    so large that eps^2 overflows is refused.
    """
    r = theta if spec.center == "north" else math.pi - theta
    sgn = 1.0 if spec.center == "north" else -1.0
    try:  # math.pow raises on overflow for a Python and a numpy float alike
        eps2 = math.pow(spec.eps, 2)
    except OverflowError:
        raise ValueError(f"eps={spec.eps} is too large at n={n}: eps^2 overflows") from None
    g, dg, d2g = _bubble_power(r, eps2, n)
    eta, deta, d2eta = _cutoff(r, CUTOFF_RADIUS)
    phi = eta * g
    dphi = deta * g + eta * dg
    d2phi = d2eta * g + 2 * deta * dg + eta * d2g
    return phi, sgn * dphi, d2phi


def _profile_mass(rule: QuadratureRule, phi: np.ndarray, N: float, spec: BubbleSpec):
    """(integral of |phi/s|^N, s) from the node values of a bubble profile: s = 1, or
    max|phi| where the mass of phi overflows (n >= 131, q = 1600); a subnormal
    mass, which has lost the digits the quotient is read from, is refused."""
    with np.errstate(over="ignore"):  # an infinite mass is taken again of phi / s
        mass, scale = rule.lN_mass(phi, N), 1.0
    if mass == math.inf:
        scale = float(np.abs(phi).max())
        mass = rule.lN_mass(phi / scale, N)
    if not mass >= sys.float_info.min:
        raise ValueError(
            f"eps={spec.eps} is too large at n={rule.n}: the L^N mass of phi_eps "
            f"underflows to {mass:.3g}, below the normal double range"
        )
    return mass, scale


def sphere_laplacian_values(
    theta: np.ndarray, dphi: np.ndarray, d2phi: np.ndarray, n: int
) -> np.ndarray:
    """Laplace-Beltrami of a zonal profile from its theta-derivatives."""
    return -(d2phi + (n - 1) / np.tan(theta) * dphi)


def functional_Y(v: ZonalField, coeffs: OperatorCoefficients) -> float:
    """Sharp-quotient functional: energy of v over its L^N norm squared.

    Scale-invariant; equals the canonical K2^(-2) for constants on the
    round sphere.  Energy computed in coefficient space (exact Laplacian),
    the L^N norm by quadrature.
    """
    basis = v.basis
    A_diag = assemble_stiffness(coeffs, basis)
    num = float(np.dot(A_diag, v.coeffs**2))
    den = basis.rule.lN_mass(v.values, coeffs.N) ** (2.0 / coeffs.N)
    if den == 0:
        raise ValueError("field is zero in L^N norm")
    return num / den


def profile_quotient(
    spec: BubbleSpec, coeffs: OperatorCoefficients, rule: QuadratureRule
) -> float:
    """Y of the bubble via analytic derivatives at the quadrature nodes.

    Bypasses the basis: the energy integrand (Lap phi)^2 + alpha phi'^2 +
    alpha_bar phi^2 is evaluated pointwise, so small-eps profiles are not
    smoothed by truncation.  It is read from phi / s (``_profile_mass``).
    """
    n = coeffs.n
    phi, dphi, d2phi = bubble_profile(rule.theta, spec, n)
    mass, scale = _profile_mass(rule, phi, coeffs.N, spec)
    phi, dphi, d2phi = phi / scale, dphi / scale, d2phi / scale
    lap = sphere_laplacian_values(rule.theta, dphi, d2phi, n)
    num = rule.integrate(lap**2 + coeffs.alpha * dphi**2 + coeffs.alpha_bar * phi**2)
    return num / mass ** (2.0 / coeffs.N)


def _alias_floor(rule: QuadratureRule) -> float:
    # a bubble narrower than a few node spacings near the pole is invisible
    # to the quadrature
    return 3.0 * math.pi / len(rule.nodes)


class BubbleField(NamedTuple):
    """Cutoff bubble projected on the basis, plus its L^N-normalized form."""

    spec: BubbleSpec
    phi: ZonalField
    v: ZonalField       # c_eps * phi, unit L^N mass
    c_eps: float


def bubble_field(specs: BubbleSpec | list[BubbleSpec], basis: ZonalBasis):
    """Project phi_eps on the zonal basis and normalize to unit L^N mass, for
    one BubbleSpec, or for a grid of them as a list: one product with the
    table gives every coefficient row, and one product back every v_eps's
    node values.  The first bad spec in grid order is refused."""
    grid = [specs] if isinstance(specs, BubbleSpec) else list(specs)
    rule = basis.rule
    floor = _alias_floor(rule)
    N = _critical_exponent(basis.n)
    phi_vals, c_eps = np.empty((len(grid), len(rule.nodes))), []
    for i, spec in enumerate(grid):
        if spec.eps < floor:
            raise ValueError(f"eps={spec.eps} under the alias floor {floor:.4f}; "
                             f"need q >= {math.ceil(3 * math.pi / spec.eps)} nodes")
        phi_vals[i], _, _ = bubble_profile(rule.theta, spec, basis.n)
        mass, scale = _profile_mass(rule, phi_vals[i], N, spec)
        c_eps.append(mass ** (-1.0 / N) / scale)
    coeffs = (phi_vals * rule.weights) @ basis.table.T
    v_vals = (coeffs * np.array(c_eps)[:, None]) @ basis.table
    fields = [BubbleField(spec, ZonalField(basis, c), ZonalField(basis, c * ce, v), ce)
              for spec, c, ce, v in zip(grid, coeffs, c_eps, v_vals)]
    return fields[0] if isinstance(specs, BubbleSpec) else fields


DEFAULT_EPS_GRID = (0.05, 0.075, 0.1, 0.15, 0.2)


class SweepReport(NamedTuple):
    """Least-squares fit Y(eps) ~ A - C eps^2 over a grid."""

    n: int
    eps: np.ndarray
    Y: np.ndarray
    A: float
    C: float
    residual: float  # rms misfit relative to A


def epsilon_sweep(eps_grid, n: int, q: int = 200) -> SweepReport:
    """Fit the small-eps expansion of Y(phi_eps) on the round n-sphere."""
    if n <= 6:
        raise ValueError("sweep fit requires n > 6")
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    if len(set(eps.tolist())) < 3:  # np.unique would import numpy.ma
        # two distinct points fit the two parameters exactly, one leaves them
        # undetermined: either way the residual would claim a fit it lacks
        raise ValueError(
            f"need at least 3 distinct grid points to fit two parameters, got {eps.tolist()}"
        )
    data = round_sphere(n)
    coeffs = derive_coefficients(data)
    from .zonal import build_quadrature

    rule = build_quadrature(data, q)
    floor = _alias_floor(rule)
    if eps[0] < floor:
        raise ValueError(
            f"grid point {eps[0]} under the alias floor {floor:.4f} at q={q}"
        )
    Y = np.array([profile_quotient(BubbleSpec(eps=e), coeffs, rule) for e in eps])
    design = np.column_stack([np.ones_like(eps), -(eps**2)])
    (A, C), *_ = np.linalg.lstsq(design, Y, rcond=None)
    fit = design @ np.array([A, C])
    residual = float(np.sqrt(np.mean((fit - Y) ** 2)) / A)
    return SweepReport(n=n, eps=eps, Y=Y, A=float(A), C=float(C), residual=residual)


class BoundReport(NamedTuple):
    """Two-plane upper bound at u_eps against the closed-form target."""

    n: int
    eps: np.ndarray
    bounds: np.ndarray
    best_eps: float
    best_bound: float
    rhs: float
    ratio: float           # best_bound / rhs
    hypothesis_ok: bool    # n >= 12 per the strict-bound regime


def lemma3_bound(
    n: int,
    best_mu1: float,
    eps_grid=DEFAULT_EPS_GRID,
    q: int = 200,
    L: int = 48,
) -> BoundReport:
    """Certified upper bound for the second normalized eigenvalue at u_eps.

    u_eps = Y(v_eps)^(1/(N-2)) v_eps + mu1^(1/(N-2)) * const, with the
    constant the unit-mass round first minimizer.  The bound is the sup of
    the Rayleigh quotient over span(v_eps, const) times the volume factor
    of u_eps; the target is (mu1^(n/4) + K2^(-2*n/4))^(4/n), which is
    2^(4/n) K2^(-2) on the round sphere.  The sup reads only the plane's
    2x2 mass, from the node values of u_eps, v_eps and the constant, so
    no (L+1)x(L+1) mass form is assembled.  mu1 must be positive and
    finite: it is a first eigenvalue invariant, and the bound means
    nothing otherwise.  A non-finite bound or an empty eps grid is refused.
    """
    if not 0.0 < best_mu1 < math.inf:
        raise ValueError(f"mu1 must be positive and finite, got {best_mu1}")
    if len(eps_grid) == 0:
        raise ValueError("eps_grid is empty: the bound needs at least one eps")
    setup = round_setup(n, q=q, L=L)
    coeffs = setup.coeffs
    N = coeffs.N
    expo = 1.0 / (N - 2)
    vol = setup.rule.weights.sum()
    vconst = constant_field(setup.basis, vol ** (-1.0 / N))
    eps = np.asarray(eps_grid, dtype=float)
    bounds = []
    fields = bubble_field([BubbleSpec(eps=float(e)) for e in eps], setup.basis)
    for e, bf in zip(eps, fields):
        Yv = functional_Y(bf.v, coeffs)
        # numpy powers, which overflow to inf where Python's raise (a huge mu1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            a, b = np.float64(Yv) ** expo, np.float64(best_mu1) ** expo
            u_nodes = a * bf.v.values + b * vconst.values
        bound = math.nan  # u_eps itself overflows (n = 283 from eps = 0.075 on)
        if np.isfinite(u_nodes).all():
            # truncation ripple can dip below zero in the tail; clip, the
            # density only needs to be nonnegative
            u = ConformalDensity(setup.basis, np.clip(u_nodes, 0.0, None), N)
            sup = minimax_over_plane(setup.A_diag, u, bf.v, vconst)
            # the mass of u / max u, whose N-th power cannot overflow (that of
            # u does from n = 152 on); the scale s comes back as s^(4N/n)
            # = s^(8/(n-4))
            scale = u.values.max()
            mass = setup.rule.lN_mass(u.values / scale, N)
            with np.errstate(over="ignore"):  # refused just below, by name
                bound = sup * scale ** (8.0 / (n - 4)) * mass ** (4.0 / n)
        if not math.isfinite(bound):
            raise ValueError(f"the two-plane bound at n={n}, eps={e:g} is not finite ({bound})")
        bounds.append(bound)
    bounds = np.array(bounds)
    # the target in scaled form: the n/4-th powers of mu1 and K2^(-2)
    # overflow from n = 210 on, that of their ratio (at most 1) never does
    hi, lo = sorted((best_mu1, sharp_constant_oracle(n)), reverse=True)
    rhs = hi * (1.0 + (lo / hi) ** (n / 4.0)) ** (4.0 / n)
    i = int(np.argmin(bounds))
    return BoundReport(
        n=n,
        eps=eps,
        bounds=bounds,
        best_eps=float(eps[i]),
        best_bound=float(bounds[i]),
        rhs=float(rhs),
        ratio=float(bounds[i] / rhs),
        hypothesis_ok=n >= 12,
    )


def elementary_inequality_check(
    p: float, C: float, samples: int, seed: int = 0
) -> int:
    """Count violations of (x+y)^p <= x^p + y^p + C(x^(p-1)y + xy^(p-1)).

    x, y drawn log-uniform over [1e-6, 1e6]^2.  A 1e-12 relative slack
    absorbs round-off in the exact-equality cases (p = 3, C = 3).
    """
    if p <= 2:
        raise ValueError("exponent must exceed 2")
    if C <= 0:
        raise ValueError("constant must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-6, 6, samples)
    y = 10.0 ** rng.uniform(-6, 6, samples)
    lhs = (x + y) ** p
    rhs = x**p + y**p + C * (x ** (p - 1) * y + x * y ** (p - 1))
    return int(np.sum(lhs > rhs * (1 + 1e-12)))


def elementary_inequality_constant(p: float) -> float:
    """Least C with (x+y)^p <= x^p + y^p + C(x^(p-1)y + xy^(p-1)) for all
    x, y > 0, the inequality ``elementary_inequality_check`` samples.  It is
    symmetric and homogeneous, so C is the sup over s = y/x in (0, 1] of
    Q(s) = ((1+s)^p - 1 - s^p)/(s + s^(p-1)): the larger of its maximum on
    s = 1/1024, ..., 1 and its limit p at 0 (3 at p = 3, 7 at p = 4)."""
    if p <= 2:
        raise ValueError("exponent must exceed 2")
    s = np.arange(1, 1025) / 1024  # (1+s)^p - 1 loses at most three digits
    Q = ((1 + s) ** p - 1 - s**p) / (s + s ** (p - 1))
    return max(float(p), float(Q.max()))
