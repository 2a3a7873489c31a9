"""Numerical laboratory for the fourth-order conformal operator on round spheres.

Closed-form coefficient algebra, a zonal spectral discretization, the
generalized eigenproblem under conformal densities, descent over densities
for the first and second normalized eigenvalue invariants, concentrated
test-function bounds, and audits of the associated Sobolev inequalities.

The package root imports nothing; import each module by its own name.
"""
