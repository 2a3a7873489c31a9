"""Explicit eigenfunction constructions and nodal diagnostics.

Houses the positivity lift for the first eigenfield, the two-constraint
orthogonal pair construction, sign-change profiling, and the |w| = u
fixed-point residual for second eigenfields.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .einstein import OperatorCoefficients
from .spectral import ConformalDensity, assemble_stiffness, restricted_mass
from .zonal import QuadratureRule, ZonalField, analyze


class PositivityResult(NamedTuple):
    """Positive lift f of a first eigenfield and its energy audit.

    ``energy`` is the quadratic-form value of the rescaled lift f_hat = k*f
    (mass-normalized); ``gap`` = energy - lambda_1 is reported, not asserted
    zero.
    """

    f: ZonalField
    k: float
    energy: float
    gap: float


def positivity_lift(
    v: ZonalField,
    coeffs: OperatorCoefficients,
    u: ConformalDensity,
    lambda_1: float,
) -> PositivityResult:
    """Lift the first eigenfield to a positive field of equal energy.

    Solves (Delta + alpha/2) f = |(Delta + alpha/2) v| through the diagonal
    resolvent, then rescales to unit weighted mass.  Requires positive
    scalar curvature so the resolvent exists.
    """
    if not coeffs.coercive:
        raise ValueError("positivity lift requires positive scalar curvature")
    basis = v.basis
    half = coeffs.alpha / 2.0
    r_coeffs = (basis.eigs + half) * v.coeffs
    r_nodes = basis.table.T @ r_coeffs
    abs_proj = analyze(basis, np.abs(r_nodes))
    f = ZonalField(basis, abs_proj.coeffs / (basis.eigs + half))
    mass = float(restricted_mass(u, f)[0, 0])
    if mass <= 0:
        raise ValueError("lifted field has zero weighted mass")
    k = 1.0 / np.sqrt(mass)
    A_diag = assemble_stiffness(coeffs, basis)
    energy = float(np.dot(A_diag, (k * f.coeffs) ** 2))
    return PositivityResult(f=f, k=k, energy=energy, gap=energy - lambda_1)


class OrthogonalPair(NamedTuple):
    """Constraint-satisfying combination w = alpha_c v + beta_c s."""

    alpha_c: float
    beta_c: float
    w: ZonalField
    overlap: float              # t = weighted inner product of v and s
    cross_constraint: float     # weighted <v, w>, should vanish
    norm_constraint: float      # weighted <w, w>, should be 1
    printed_norm_value: float   # what the textbook-printed pair integrates to


def orthogonal_pair(
    v: ZonalField, s: ZonalField, u: ConformalDensity
) -> OrthogonalPair:
    """Combine two unit-mass fields into one orthogonal to the first.

    With t the weighted overlap, alpha_c = -t/sqrt(1-t^2) and
    beta_c = 1/sqrt(1-t^2) satisfy both constraints exactly.  The printed
    closed-form pair (alpha = (t/(1-t))^(1/2), beta = -((1-t)t)^(-1/2))
    meets the orthogonality constraint but integrates to (1+t)/t instead
    of 1; that value is reported as a diagnostic.
    """
    basis = v.basis
    t = float(restricted_mass(u, v, s)[0, 1])
    if abs(t) >= 1:
        raise ValueError(f"fields are effectively proportional (overlap {t:.6f})")
    root = np.sqrt(1.0 - t * t)
    alpha_c = -t / root
    beta_c = 1.0 / root
    w = ZonalField(basis, alpha_c * v.coeffs + beta_c * s.coeffs)
    M = restricted_mass(u, v, w)
    cross, norm = float(M[0, 1]), float(M[1, 1])
    printed = (1.0 + t) / t if t != 0 else np.nan
    return OrthogonalPair(
        alpha_c=alpha_c,
        beta_c=beta_c,
        w=w,
        overlap=t,
        cross_constraint=cross,
        norm_constraint=norm,
        printed_norm_value=printed,
    )


class NodalProfile(NamedTuple):
    """Sign structure of a field along theta in [0, pi]."""

    sign_changes: int
    crossings: list[float]      # theta locations, linear interpolation
    weighted_orthogonality: float  # integral of u^(N-2) v w


DEAD_BAND = 1e-9  # relative; distinguishes ripple from genuine sign changes


def nodal_profile(
    w: ZonalField, u: ConformalDensity, v: ZonalField
) -> NodalProfile:
    """Count sign changes of w over the node sequence with a dead-band."""
    basis = w.basis
    vals = w.values
    amax = np.max(np.abs(vals))
    if amax == 0:
        raise ValueError("field is zero at every node")
    band = DEAD_BAND * amax
    signs = np.sign(vals)
    signs[np.abs(vals) <= band] = 0
    live = signs[signs != 0]
    changes = int(np.sum(live[1:] * live[:-1] < 0))
    # crossing locations between consecutive opposite-sign nodes
    theta = basis.rule.theta
    crossings = []
    idx = np.flatnonzero(signs != 0)
    for i, j in zip(idx[:-1], idx[1:]):
        if signs[i] * signs[j] < 0:
            frac = vals[i] / (vals[i] - vals[j])
            crossings.append(float(theta[i] + frac * (theta[j] - theta[i])))
    ortho = float(restricted_mass(u, v, w)[0, 1])
    return NodalProfile(
        sign_changes=changes,
        crossings=crossings,
        weighted_orthogonality=ortho,
    )


def _fixed_point_residual(
    rule: QuadratureRule, w_vals: np.ndarray, u_vals: np.ndarray, N: float
) -> float:
    """L^N distance between |w|/||w||_N and u, from node values; u must
    already have unit L^N mass."""
    wabs = np.abs(w_vals)
    wnorm = rule.lN_mass(wabs, N) ** (1.0 / N)
    if wnorm == 0:
        raise ValueError("field is identically zero")
    return rule.lN_mass(wabs / wnorm - u_vals, N) ** (1.0 / N)


def fixed_point_residual(w: ZonalField, u: ConformalDensity) -> float:
    """L^N distance between |w|/||w||_N and the normalized density.

    Zero exactly when u coincides with the modulus of the second
    eigenfield at the nodes, the attainment signature.
    """
    un = u.values * u.lN_mass() ** (-1.0 / u.N)
    return _fixed_point_residual(w.basis.rule, w.values, un, u.N)
