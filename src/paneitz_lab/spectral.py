"""Generalized eigenproblem for the pencil (A, B(u)).

A is the quadratic form of Delta^2 + alpha*Delta + alpha_bar, diagonal in
the zonal basis with entries (mu_l + a)(mu_l + b).  B(u) is the
u^(N-2)-weighted mass form of a conformal density u, assembled by
quadrature and possibly only positive semidefinite (densities may vanish
on sets of positive measure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .einstein import EinsteinData, OperatorCoefficients
from .zonal import QuadratureRule, ZonalBasis, ZonalField


class DegeneratePencilError(ValueError):
    """Raised when the pencil cannot be solved as requested."""


@dataclass
class ConformalDensity:
    """Nonnegative zonal density u, normally with unit L^N mass."""

    basis: ZonalBasis
    values: np.ndarray          # u at the quadrature nodes, >= 0
    N: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.basis.rule.nodes.shape:
            raise ValueError("density values must live on the quadrature nodes")
        if np.any(self.values < 0):
            raise ValueError("density must be nonnegative at every node")
        if not np.any(self.values > 0):
            raise ValueError("density is identically zero (degenerate metric)")

    def lN_mass(self) -> float:
        """Integral of u^N."""
        return self.basis.rule.lN_mass(self.values, self.N)

    def normalize(self) -> "ConformalDensity":
        scale = self.lN_mass() ** (-1.0 / self.N)
        return ConformalDensity(basis=self.basis, values=self.values * scale, N=self.N)


def density_from_sqrt_field(qfield: ZonalField, N: float) -> ConformalDensity:
    """Density u = q^2 with unit L^N mass: nonnegative by construction,
    zeros permitted."""
    return ConformalDensity(basis=qfield.basis, values=qfield.values**2, N=N).normalize()


def constant_density(basis: ZonalBasis, N: float) -> ConformalDensity:
    """The normalized constant density u = Vol^(-1/N)."""
    vol = basis.rule.weights.sum()
    return ConformalDensity(
        basis=basis,
        values=np.full_like(basis.rule.nodes, vol ** (-1.0 / N)),
        N=N,
    )


def assemble_stiffness(coeffs: OperatorCoefficients, basis: ZonalBasis) -> np.ndarray:
    """Diagonal of the operator quadratic form: (mu_l + a)(mu_l + b)."""
    if coeffs.n != basis.n:
        raise ValueError("coefficient dimension does not match the basis")
    return (basis.eigs + coeffs.a) * (basis.eigs + coeffs.b)


def mass_from_values(
    rule: QuadratureRule, table: np.ndarray, values: np.ndarray, N: float
) -> np.ndarray:
    """M_ab = Sum_j w_j u^(N-2)(x_j) f_a(x_j) f_b(x_j) from the node values
    of u and of the functions f_a, the rows of table, unvalidated; the one
    home of the mass formula.  The basis table gives the full form B(u),
    the node values of a few fields the form restricted to their span.
    Leading axes of values are a stack of densities, and give a stack of
    forms."""
    wdens = rule.weights * values ** (N - 2)
    return (table * wdens[..., None, :]) @ table.T


def assemble_mass(u: ConformalDensity, basis: ZonalBasis) -> np.ndarray:
    """B_lm = Sum_j w_j u^(N-2)(x_j) Z_l(x_j) Z_m(x_j), symmetric PSD."""
    if u.basis is not basis and u.basis.n != basis.n:
        raise ValueError("density and basis dimensions disagree")
    if u.values.shape != basis.rule.nodes.shape:
        raise ValueError(
            f"density lives on {len(u.values)} nodes, basis on {len(basis.rule.nodes)}"
        )
    return mass_from_values(basis.rule, basis.table, u.values, u.N)


def restricted_mass(u: ConformalDensity, *fields: ZonalField) -> np.ndarray:
    """The mass form B(u) restricted to a few fields, M_ab = f_a^T B(u) f_b,
    from their node values: O(q) per entry, against the O(L^2 q) of
    assembling B(u) to read it."""
    for f in fields:
        if f.basis.n != u.basis.n or f.values.shape != u.values.shape:
            raise ValueError(
                f"density lives on {len(u.values)} nodes at n={u.basis.n}, "
                f"field on {len(f.values)} at n={f.basis.n}"
            )
    table = np.array([f.values for f in fields])
    return mass_from_values(u.basis.rule, table, u.values, u.N)


@dataclass
class GeneralizedSpectrum:
    """Ascending eigenvalues of the pencil with B-orthonormal eigenfields."""

    eigenvalues: np.ndarray
    eigenfields: list[ZonalField]
    residuals: np.ndarray
    shift: float  # regularization actually added to B (0.0 if none)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic sign: first coefficient above noise is positive."""
    idx = np.flatnonzero(np.abs(vec) > 1e-12 * np.linalg.norm(vec))
    if len(idx) and vec[idx[0]] < 0:
        return -vec
    return vec


def pencil_eigen(
    A_diag: np.ndarray, B: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Smallest k eigenpairs of A v = lambda B v as plain arrays.

    Returns (eigenvalues, V, shift): the ascending eigenvalues, their
    B-normalized coefficient vectors as the columns of V, with no sign
    convention, and the regularization added to B (0.0 if none).

    A must be positive definite (refused otherwise; that is the S <= 0
    regime).  B may be singular: a fixed relative shift
    delta = 1e-12 * trace(B)/dim is then added.  The solve inverts the
    pencil through A^(-1/2), which keeps near-null directions of B
    harmless: they correspond to huge Rayleigh quotients and never pollute
    the bottom of the spectrum.

    Leading axes of B are a stack of pencils sharing A, solved in one call;
    every row gets the bits of its own two-dimensional call, the shift is
    probed and applied row by row, and any refusal refuses the whole stack.
    """
    dim = len(A_diag)
    if not 1 <= k <= dim:
        raise DegeneratePencilError(f"requested {k} eigenvalues from a {dim}-dim pencil")
    if (A_diag <= 0).any():
        raise DegeneratePencilError(
            "operator form is not positive definite (nonpositive scalar curvature regime)"
        )
    shift = 0.0 if B.ndim == 2 else np.zeros(B.shape[:-2])
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        if B.ndim == 2:
            shift = 1e-12 * np.trace(B) / dim
            B = B + shift * np.eye(dim)
        else:
            B = B.copy()
            for i in np.ndindex(shift.shape):
                try:
                    np.linalg.cholesky(B[i])
                except np.linalg.LinAlgError:
                    shift[i] = 1e-12 * np.trace(B[i]) / dim
                    B[i] = B[i] + shift[i] * np.eye(dim)
    s = 1.0 / np.sqrt(A_diag)
    C = np.asarray_chkfinite((B * s).swapaxes(-1, -2) * s)
    w, Y = np.linalg.eigh(C)  # ascending; LAPACK dsyevd on the lower triangle
    mass = w[..., ::-1][..., :k]
    if (mass <= 0).any():
        raise DegeneratePencilError("mass form vanishes on the requested eigenspace")
    top = Y.swapaxes(-1, -2)[..., ::-1, :][..., :k, :]
    V = (top * s / np.sqrt(mass)[..., None]).swapaxes(-1, -2)
    return 1.0 / mass, V, shift


def solve_generalized_eigen(
    A_diag: np.ndarray, B: np.ndarray, k: int, basis: ZonalBasis
) -> GeneralizedSpectrum:
    """``pencil_eigen`` with sign-fixed eigenfields and relative residuals
    ||A v - lambda B v|| / ||A v|| (B including any shift)."""
    lams, V, shift = pencil_eigen(A_diag, B, k)
    if shift > 0:
        B = B + shift * np.eye(len(A_diag))
    fields, residuals = [], []
    for lam, v in zip(lams, V.T):
        v = _fix_sign(v)
        av = A_diag * v
        residuals.append(np.linalg.norm(av - lam * (B @ v)) / np.linalg.norm(av))
        fields.append(ZonalField(basis, v))
    return GeneralizedSpectrum(
        eigenvalues=lams,
        eigenfields=fields,
        residuals=np.array(residuals),
        shift=shift,
    )


def rayleigh(A_diag: np.ndarray, B: np.ndarray, v: ZonalField) -> float:
    """Generalized Rayleigh quotient of a single field."""
    c = v.coeffs
    mass = float(c @ (B @ c))
    if mass <= 0:
        raise DegeneratePencilError("field has zero mass-form norm")
    return float(np.dot(A_diag, c * c)) / mass


def minimax_over_plane(
    A_diag: np.ndarray, u: ConformalDensity, v: ZonalField, w: ZonalField
) -> float:
    """Sup of the Rayleigh quotient of the pencil (A, B(u)) over span(v, w):
    the larger eigenvalue of the 2x2 restricted pencil, computed exactly.

    The energy form is summed in coefficient space; the mass form comes
    from the node values of u, v and w (``restricted_mass``), so B(u) is
    never assembled."""
    M = restricted_mass(u, v, w)
    cv, cw = v.coeffs, w.coeffs
    E = np.array(
        [
            [np.dot(A_diag, cv * cv), np.dot(A_diag, cv * cw)],
            [np.dot(A_diag, cv * cw), np.dot(A_diag, cw * cw)],
        ]
    )
    if np.linalg.det(M) <= 0 or M[0, 0] <= 0:
        raise DegeneratePencilError("plane is degenerate for the mass form")
    # M = R R^T turns the pencil into the symmetric R^(-1) E R^(-T)
    Rinv = np.linalg.inv(np.linalg.cholesky(M))
    return float(np.linalg.eigvalsh(Rinv @ E @ Rinv.T)[-1])


def normalized_invariant(
    spectrum: GeneralizedSpectrum, u: ConformalDensity, k: int
) -> float:
    """lambda_k(u) * (integral of u^N)^(4/n); invariant under u -> c*u."""
    n = u.basis.n
    return float(spectrum.eigenvalues[k - 1]) * u.lN_mass() ** (4.0 / n)


@dataclass(frozen=True)
class SphereSetup:
    """Bundle of the standard objects for one round-sphere discretization."""

    data: EinsteinData
    coeffs: OperatorCoefficients
    rule: QuadratureRule
    basis: ZonalBasis
    A_diag: np.ndarray


def round_setup(n: int, q: int = 200, L: int = 48) -> SphereSetup:
    """Quadrature, basis and operator form for the round unit n-sphere."""
    from .einstein import derive_coefficients, round_sphere
    from .zonal import build_basis, build_quadrature

    data = round_sphere(n)
    coeffs = derive_coefficients(data)
    rule = build_quadrature(data, q)
    basis = build_basis(rule, L)
    return SphereSetup(
        data=data,
        coeffs=coeffs,
        rule=rule,
        basis=basis,
        A_diag=assemble_stiffness(coeffs, basis),
    )


def solve_density(
    setup: SphereSetup, u: ConformalDensity, k: int
) -> GeneralizedSpectrum:
    """Convenience: assemble B(u) and solve for the smallest k pairs."""
    B = assemble_mass(u, setup.basis)
    return solve_generalized_eigen(setup.A_diag, B, k, setup.basis)
