"""Quadrature and orthonormal zonal basis on the round n-sphere.

A zonal (rotationally symmetric) function lives on x = cos(theta) with the
surface measure area(S^(n-1)) * (1-x^2)^((n-2)/2) dx.  The basis functions
are the orthonormal Gegenbauer-type polynomials for that weight; they are
Laplace-Beltrami eigenfunctions with exact eigenvalues l(l+n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .einstein import EinsteinData, euclidean_sphere_area


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule in x = cos(theta); weights carry the full surface measure."""

    n: int
    nodes: np.ndarray    # x_j, strictly increasing in (-1, 1)
    weights: np.ndarray  # positive, sum = Vol(S^n)
    theta: np.ndarray    # arccos(nodes), cached

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _recurrence(n: int, m: int) -> tuple[float, np.ndarray]:
    """Coefficients of the orthonormal three-term recurrence for the weight
    (1-x^2)^((n-2)/2) on [-1, 1]: its integral b0 and sqrt(beta_k),
    k = 1..m, the off-diagonal of the Jacobi matrix."""
    mu = (n - 2) / 2
    k = np.arange(1, m + 1)
    beta = k * (k + 2 * mu) / ((2 * k + 2 * mu + 1) * (2 * k + 2 * mu - 1))
    b0 = math.sqrt(math.pi) * math.gamma(mu + 1) / math.gamma(mu + 1.5)
    return b0, np.sqrt(beta)


def _rows(x: np.ndarray, b0: float, sqrt_beta: np.ndarray):
    """Yield p_0(x), ..., p_m(x), m = len(sqrt_beta): the polynomials
    orthonormal for the x-weight, by their three-term recurrence."""
    prev = np.full_like(x, 1.0 / math.sqrt(b0))
    yield prev
    if len(sqrt_beta) == 0:
        return
    cur = x * prev / sqrt_beta[0]
    yield cur
    for j in range(1, len(sqrt_beta)):
        prev, cur = cur, (x * cur - sqrt_beta[j - 1] * prev) / sqrt_beta[j]
        yield cur


def build_quadrature(data: EinsteinData, q: int) -> QuadratureRule:
    """Gauss rule with q nodes, exact for x-polynomials of degree <= 2q-1.

    The nodes are the eigenvalues of the Jacobi matrix of the weight
    (1-x^2)^((n-2)/2) (LAPACK dsterf; no eigenvectors are formed).  The
    weights are the Christoffel numbers Vol(S^(n-1)) / Sum_{l<q} p_l(x_j)^2,
    summed in one pass of the recurrence that ``build_basis`` runs.  Unlike
    Golub-Welsch weights (squared eigenvector components, accurate only
    relative to the largest weight) they keep their relative accuracy at
    the poles, where they are tiny for large n.
    """
    if q < 2:
        raise ValueError("need at least 2 quadrature nodes")
    n = data.n
    b0, sqrt_beta = _recurrence(n, q - 1)
    x = eigh_tridiagonal(np.zeros(q), sqrt_beta, eigvals_only=True)
    # the exact nodes are antisymmetric; averaging the two computed halves
    # makes them so, and the weights exactly symmetric
    x = (x - x[::-1]) / 2
    christoffel = np.zeros(q)
    for p in _rows(x, b0, sqrt_beta):
        christoffel += p * p
    w = euclidean_sphere_area(n) / christoffel
    return QuadratureRule(n=n, nodes=x, weights=w, theta=np.arccos(x))


@dataclass(frozen=True)
class ZonalBasis:
    """Orthonormal zonal harmonics Z_0..Z_L tabulated at the quadrature nodes.

    ``table[l, j] = Z_l(x_j)``; ``eigs[l] = l(l+n-1)`` is the exact
    Laplace-Beltrami eigenvalue of Z_l.
    """

    n: int
    L: int
    rule: QuadratureRule
    table: np.ndarray
    eigs: np.ndarray = field(init=False)

    def __post_init__(self):
        l = np.arange(self.L + 1, dtype=float)
        object.__setattr__(self, "eigs", l * (l + self.n - 1))

    @property
    def dim(self) -> int:
        return self.L + 1


def build_basis(rule: QuadratureRule, L: int) -> ZonalBasis:
    """Orthonormal basis up to degree L; requires L < q so every Gram
    integral (degree <= 2L) is quadrature-exact."""
    q = len(rule.nodes)
    if L >= q:
        raise ValueError(f"basis degree L={L} must be < node count q={q} (aliasing)")
    b0, sqrt_beta = _recurrence(rule.n, L)
    P = np.array(list(_rows(rule.nodes, b0, sqrt_beta)))
    # rows are orthonormal for the x-weight; rescale to the full measure
    table = P / math.sqrt(euclidean_sphere_area(rule.n))
    return ZonalBasis(n=rule.n, L=L, rule=rule, table=table)


@dataclass
class ZonalField:
    """A zonal function held as basis coefficients with cached node values."""

    basis: ZonalBasis
    coeffs: np.ndarray
    _values: np.ndarray | None = None

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.dim,):
            raise ValueError(
                f"expected {self.basis.dim} coefficients, got {self.coeffs.shape}"
            )

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = synthesize(self)
        return self._values

    def __mul__(self, c: float) -> "ZonalField":
        return ZonalField(self.basis, self.coeffs * c)

    __rmul__ = __mul__

    def __add__(self, other: "ZonalField") -> "ZonalField":
        return ZonalField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "ZonalField") -> "ZonalField":
        return ZonalField(self.basis, self.coeffs - other.coeffs)


def synthesize(field: ZonalField) -> np.ndarray:
    """Node values Sum_l c_l Z_l(x_j)."""
    return field.basis.table.T @ field.coeffs


def analyze(basis: ZonalBasis, values: np.ndarray) -> ZonalField:
    """Quadrature projection c_l = Sum_j w_j f(x_j) Z_l(x_j).

    Exact inverse of ``synthesize`` for fields of degree <= L; anything
    beyond the basis degree is aliased by design.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != basis.rule.nodes.shape:
        raise ValueError("value vector length does not match the quadrature rule")
    return ZonalField(basis, basis.table @ (basis.rule.weights * values))


def laplacian(field: ZonalField) -> ZonalField:
    """Laplace-Beltrami action, exact in coefficient space."""
    return ZonalField(field.basis, field.basis.eigs * field.coeffs)


def constant_field(basis: ZonalBasis, value: float = 1.0) -> ZonalField:
    """The constant function as a ZonalField (Z_0 = Vol^(-1/2))."""
    c = np.zeros(basis.dim)
    c[0] = value * math.sqrt(basis.rule.weights.sum())
    return ZonalField(basis, c)
