"""Numerical laboratory for the fourth-order conformal operator on round spheres.

Closed-form coefficient algebra, a zonal spectral discretization, the
generalized eigenproblem under conformal densities, descent over densities
for the first and second normalized eigenvalue invariants, concentrated
test-function bounds, and audits of the associated Sobolev inequalities.

The package root re-exports only the closed-form algebra of `einstein`,
which needs no numpy, so the `coeffs` and `report` subcommands start
without it; import the array modules by their own names.
"""

from .einstein import (
    EinsteinData,
    OperatorCoefficients,
    derive_coefficients,
    q_curvature_einstein,
    round_sphere,
    sharp_constant_oracle,
    sharp_constant_report,
    sphere_volume,
)

__version__ = "0.1.0"

__all__ = [
    "EinsteinData",
    "OperatorCoefficients",
    "derive_coefficients",
    "q_curvature_einstein",
    "round_sphere",
    "sharp_constant_oracle",
    "sharp_constant_report",
    "sphere_volume",
    "__version__",
]
