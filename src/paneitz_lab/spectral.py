"""Generalized eigenproblem for the pencil (A, B(u)).

A is the quadratic form of Delta^2 + alpha*Delta + alpha_bar, diagonal in
the zonal basis with entries (mu_l + a)(mu_l + b).  B(u) is the
u^(N-2)-weighted mass form of a conformal density u, assembled by
quadrature and possibly only positive semidefinite (densities may vanish
on sets of positive measure).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .einstein import EinsteinData, OperatorCoefficients
from .zonal import QuadratureRule, ZonalBasis, ZonalField, fold


class DegeneratePencilError(ValueError):
    """Raised when the pencil cannot be solved as requested."""


class ConformalDensity:
    """Nonnegative zonal density u, normally with unit L^N mass."""

    def __init__(self, basis: ZonalBasis, values: np.ndarray, N: float):
        self.basis = basis
        self.values = np.asarray(values, dtype=float)  # u at the quadrature nodes, >= 0
        self.N = N
        if self.values.shape != basis.rule.nodes.shape:
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


# A pencil of at least this dimension is large: it is solved by
# ``_block_krylov``, a smaller one by a full eigh.  Measured (one pinned CPU,
# one BLAS thread, n = 12, a smooth random density, k = 2): eigh 1.8 against
# 2.4 ms for ``_block_krylov`` at dim 129, 2.7 against 2.5 ms at 161, 3.3
# against 2.4 ms at 193 and 20 against 5.6 ms at 401.  The mass form has no
# gate: ``assemble_mass`` takes 1.9-2.2 ms (3.7-3.9 for the random density)
# against 10-11 ms for the general product over a full 401x1600 table,
# 0.46-0.65 (0.85-1.1) against 2.0-2.5 ms on 151x1600, 29-34 (43) against
# 35-41 (38-40) us on 49x200, and 21 (25) against 9 us on 17x200.
KRYLOV_MIN_DIM = 150


def mass_from_values(
    rule: QuadratureRule, table: np.ndarray, values: np.ndarray, N: float
) -> np.ndarray:
    """M_ab = Sum_j w_j u^(N-2)(x_j) f_a(x_j) f_b(x_j), unvalidated, from the
    node values of u and of the rows f_a of table: of a few fields, the
    restriction of B(u) to their span; of a stack of tables, such as the
    parity sectors, the stack of their forms."""
    return (table * (rule.weights * values ** (N - 2))) @ table.mT


def assemble_mass(u: ConformalDensity, basis: ZonalBasis) -> np.ndarray:
    """B_lm = Sum_j w_j u^(N-2)(x_j) Z_l(x_j) Z_m(x_j), symmetric PSD, summed
    over the nonnegative nodes from the basis blocks: each pair (x, -x) adds
    Z_l(x) Z_m(x) (d(x) + (-1)^(l+m) d(-x)) for d = w u^(N-2) (``fold``).  The
    even-even and odd-odd blocks are symmetric products (BLAS syrk) weighted
    by the sum, so B is exactly symmetric; the even-odd block is one general
    product weighted by the difference (exactly zero, and not formed, for an
    even density), and its transpose the odd-even block.  That is a quarter
    of the general product's multiply-adds, an eighth for an even density."""
    if u.basis is not basis and u.basis.n != basis.n:
        raise ValueError("density and basis dimensions disagree")
    if u.values.shape != basis.rule.nodes.shape:
        raise ValueError(
            f"density lives on {len(u.values)} nodes, basis on {len(basis.rule.nodes)}"
        )
    a, b = fold(basis.rule.weights * u.values ** (u.N - 2))
    root = np.sqrt(a)
    X, Y = basis.even * root, basis.odd * root
    B = np.empty((basis.dim, basis.dim))
    B[0::2, 0::2] = X @ X.T
    B[1::2, 1::2] = Y @ Y.T
    B[0::2, 1::2] = (basis.even * b) @ basis.odd.T if b.any() else 0.0  # 0: an even density
    B[1::2, 0::2] = B[0::2, 1::2].T
    return B


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


class GeneralizedSpectrum:
    """Ascending eigenvalues of the pencil with B-orthonormal eigenfields."""

    # a class attribute: the trace probe ``_probe_solve`` in perfbench/spans.py
    # still counts the solves with shift > 0; no solve shifts B any more
    shift = 0.0

    def __init__(
        self, eigenvalues: np.ndarray, eigenfields: list[ZonalField], residuals: np.ndarray
    ):
        self.eigenvalues = eigenvalues
        self.eigenfields = eigenfields
        self.residuals = residuals

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic sign: first coefficient above noise is positive."""
    idx = np.flatnonzero(np.abs(vec) > 1e-12 * np.linalg.norm(vec))
    if len(idx) and vec[idx[0]] < 0:
        return -vec
    return vec


def pencil_eigen(A_diag: np.ndarray, B: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest k eigenpairs of A v = lambda B v as plain arrays: the
    ascending eigenvalues and their B-normalized coefficient vectors as the
    columns of V, with no sign convention.  A_diag and B may also be stacks,
    of shapes (s, d) and (s, d, d): the diagonal blocks of one pencil, such
    as its parity sectors, solved by one batched eigh; the k smallest
    eigenvalues over all blocks are returned, and V, of shape (s, d, k),
    holds column j in its own block and zeros in the others.  A block padded
    to the common d by a zero row and column of B and any positive entry of
    A has a padded eigenvalue 0 of C below, never among the top k.

    A must be positive definite (refused otherwise: the S <= 0 regime).  B
    need only be positive semidefinite, as the mass form of a density with
    zeros is: the solve takes the largest eigenvalues of C = A^(-1/2) B
    A^(-1/2), the reciprocals of the pencil's smallest, so a null direction
    of B is an eigenvalue 0 of C, far from the top.  A single pencil of
    dimension ``KRYLOV_MIN_DIM`` or more is solved for its k pairs alone
    (``_block_krylov``), or by the full eigh when that gives up."""
    dim = A_diag.size
    if not 1 <= k <= dim:
        raise DegeneratePencilError(f"requested {k} eigenvalues from a {dim}-dim pencil")
    if (A_diag <= 0).any():
        raise DegeneratePencilError(
            "operator form is not positive definite (nonpositive scalar curvature regime)"
        )
    s = 1.0 / np.sqrt(A_diag)
    C = np.asarray_chkfinite((B * s[..., None, :]).mT * s[..., None, :])
    mass, top = _top_eigenpairs(C, k)
    if (mass <= 0).any():
        raise DegeneratePencilError("mass form vanishes on the requested eigenspace")
    return 1.0 / mass, top * s[..., None] / np.sqrt(mass)


RITZ_TOL = 1e-14  # Ritz residual ||C y - theta y|| that ends the Krylov solve, relative to ||C||
PLANE_TOL = 1e-8  # least 1 - M01^2/(M00 M11) of a plane's mass M; below it half the digits are lost


def _top_eigenpairs(C: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of the symmetric C, or of the block-diagonal
    matrix whose blocks C stacks, descending, and their unit eigenvectors as
    the columns of an array of C's shape with k columns; for a stack, column
    j is zero in every block but its own."""
    if C.ndim == 2 and len(C) >= KRYLOV_MIN_DIM:
        pairs = _block_krylov(C, k)
        if pairs is not None:
            return pairs[0], pairs[1].T
    w, Y = np.linalg.eigh(C)  # ascending, per block; LAPACK dsyevd on the lower triangle
    if C.ndim == 2:
        return w[::-1][:k], Y[:, ::-1][:, :k]
    order = w.ravel().argsort()[: -k - 1 : -1]  # the top k over every block
    block, col = order // w.shape[-1], order % w.shape[-1]
    top = np.zeros(C.shape[:-1] + (k,))
    top[block, :, np.arange(k)] = Y[block, :, col]
    return w.ravel()[order], top


def _block_krylov(C: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The k largest eigenpairs of one symmetric positive semidefinite C, as
    ``_top_eigenpairs`` returns them, by block Krylov iteration with full
    reorthogonalization and Rayleigh-Ritz at each step (Saad, Numerical
    Methods for Large Eigenvalue Problems, 2nd ed., ch. 4-6); None when the
    space breaks down or reaches half the dimension unconverged.

    The start block is fixed, of k + 2 columns, so a double top eigenvalue
    is found and the result is deterministic; it is seeded, since the first
    k + 2 unit vectors break down on a constant density's diagonal pencil
    and give up after 13 times as long on two-bubble k = 3 pencils (L = 400).
    The pencil residual weighs the error of an eigenvector of C by sqrt(A),
    which is large at high degree; so the converged Ritz vectors take one
    more product with C, which damps that error by 1/sqrt(A), and a last
    Rayleigh-Ritz on its span gives the pairs.
    """
    dim, p = len(C), k + 2
    cap = dim // 2  # columns the space may reach
    Q = np.empty((dim, cap))  # orthonormal basis of the Krylov space
    W = np.empty((dim, cap))  # C @ Q
    T = np.empty((cap, cap))  # Q^T C Q
    X = np.random.default_rng(0).standard_normal((dim, p))
    scale = np.linalg.norm(X, axis=0)  # of each new column before orthogonalization
    m = 0
    while m + p <= cap:
        block, R = np.linalg.qr(X)
        if (np.abs(np.diag(R)) <= 1e-10 * scale).any():
            return None  # the new block lies in the space already spanned
        new = slice(m, m + p)
        Q[:, new] = block
        W[:, new] = C @ block
        m += p
        T[:m, new] = Q[:, :m].T @ W[:, new]
        T[new, :m] = T[:m, new].T
        theta, S = np.linalg.eigh(T[:m, :m])
        theta, S = theta[::-1], S[:, ::-1]
        ritz = W[:, :m] @ S[:, :k] - Q[:, :m] @ (S[:, :k] * theta[:k])
        if np.linalg.norm(ritz, axis=0).max() <= RITZ_TOL * theta[0]:
            Z, _ = np.linalg.qr(W[:, :m] @ S[:, :p])  # C times the top p Ritz vectors
            w, G = np.linalg.eigh(Z.T @ (C @ Z))
            return w[::-1][:k], (Z @ G[:, ::-1][:, :k]).T
        X = W[:, new]
        scale = np.linalg.norm(X, axis=0)
        for _ in range(2):  # classical Gram-Schmidt, twice
            X = X - Q[:, :m] @ (Q[:, :m].T @ X)
    return None


def solve_generalized_eigen(
    A_diag: np.ndarray, B: np.ndarray, k: int, basis: ZonalBasis
) -> GeneralizedSpectrum:
    """``pencil_eigen`` with sign-fixed eigenfields and relative residuals
    ||A v - lambda B v|| / ||A v||."""
    lams, V = pencil_eigen(A_diag, B, k)
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
    never assembled.  A plane within ``PLANE_TOL`` of rank one is refused,
    read on M scaled to a unit diagonal, where a huge plane cannot overflow."""
    M = restricted_mass(u, v, w)
    d = np.sqrt(M.diagonal())  # >= 0: a sum of nonnegative terms
    if not (d > 0).all() or 1.0 - (M[0, 1] / d[0] / d[1]) ** 2 <= PLANE_TOL:
        raise DegeneratePencilError("plane is degenerate for the mass form")
    cv, cw = v.coeffs, w.coeffs
    E = np.array(
        [
            [np.dot(A_diag, cv * cv), np.dot(A_diag, cv * cw)],
            [np.dot(A_diag, cv * cw), np.dot(A_diag, cw * cw)],
        ]
    )
    # M = R R^T turns the pencil into the symmetric R^(-1) E R^(-T)
    Rinv = np.linalg.inv(np.linalg.cholesky(M))
    return float(np.linalg.eigvalsh(Rinv @ E @ Rinv.T)[-1])


def normalized_invariant(
    spectrum: GeneralizedSpectrum, u: ConformalDensity, k: int
) -> float:
    """lambda_k(u) * (integral of u^N)^(4/n); invariant under u -> c*u."""
    n = u.basis.n
    return float(spectrum.eigenvalues[k - 1]) * u.lN_mass() ** (4.0 / n)


class SphereSetup(NamedTuple):
    """Bundle of the standard objects for one round-sphere discretization."""

    data: EinsteinData
    coeffs: OperatorCoefficients
    rule: QuadratureRule
    basis: ZonalBasis
    A_diag: np.ndarray


_held: dict[int, SphereSetup] = {}  # the setups of the last (n, q), by L


def round_setup(n: int, q: int = 200, L: int = 48) -> SphereSetup:
    """Quadrature, basis and operator form for the round unit n-sphere.

    One setup is held: that of the last (n, q), at the largest L asked for.
    A smaller L gets the leading rows of its basis blocks as views, since
    the recurrence rows do not depend on L; so a caller's setup and the one
    ``lemma3_bound`` asks for share one basis, and ``minimize``, which asks
    for its final L first, builds no second one.  The held setup is dropped
    before the next is built, so that no two bases coexist.  Its arrays are
    read-only, as the Gauss rule's are."""
    top = max(_held, default=None)
    if top is None or (_held[top].basis.n, len(_held[top].rule.nodes)) != (n, q) or top < L:
        _held.clear()
        top = L
        _held[L] = _build_setup(n, q, L)
    if L not in _held:
        full = _held[top]
        basis = ZonalBasis(L, full.rule, full.basis.even[: L // 2 + 1], full.basis.odd[: (L + 1) // 2])
        basis.eigs.flags.writeable = False
        _held[L] = full._replace(basis=basis, A_diag=full.A_diag[: L + 1])
    return _held[L]


def _build_setup(n: int, q: int, L: int) -> SphereSetup:
    from .einstein import derive_coefficients, round_sphere
    from .zonal import build_basis, build_quadrature

    data = round_sphere(n)
    coeffs = derive_coefficients(data)
    rule = build_quadrature(data, q)
    basis = build_basis(rule, L)
    A_diag = assemble_stiffness(coeffs, basis)
    for a in (basis.even, basis.odd, basis.eigs, A_diag):
        a.flags.writeable = False
    return SphereSetup(data=data, coeffs=coeffs, rule=rule, basis=basis, A_diag=A_diag)


def solve_density(
    setup: SphereSetup, u: ConformalDensity, k: int
) -> GeneralizedSpectrum:
    """Convenience: assemble B(u) and solve for the smallest k pairs."""
    B = assemble_mass(u, setup.basis)
    return solve_generalized_eigen(setup.A_diag, B, k, setup.basis)
