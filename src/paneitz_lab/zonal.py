"""Quadrature and orthonormal zonal basis on the round n-sphere.

A zonal (rotationally symmetric) function lives on x = cos(theta) with the
surface measure area(S^(n-1)) * (1-x^2)^((n-2)/2) dx.  The basis functions
are the orthonormal Gegenbauer-type polynomials for that weight; they are
Laplace-Beltrami eigenfunctions with exact eigenvalues l(l+n-1).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .einstein import EinsteinData, euclidean_sphere_area


class QuadratureRule(NamedTuple):
    """Gauss rule in x = cos(theta); weights carry the full surface measure."""

    n: int
    nodes: np.ndarray    # x_j, strictly increasing in (-1, 1)
    weights: np.ndarray  # positive, sum = Vol(S^n)
    theta: np.ndarray    # arccos(nodes), cached

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature sum of the node values."""
        return float(np.dot(self.weights, values))

    def lN_mass(self, values: np.ndarray, N: float) -> float:
        """Integral of |f|^N from the node values of f."""
        return self.integrate(np.abs(values) ** N)


def _recurrence(n: int, m: int) -> tuple[float, np.ndarray]:
    """Coefficients of the orthonormal three-term recurrence for the weight
    (1-x^2)^((n-2)/2) on [-1, 1]: its integral b0 and sqrt(beta_k),
    k = 1..m, the off-diagonal of the Jacobi matrix."""
    mu = (n - 2) / 2
    k = np.arange(1, m + 1)
    beta = k * (k + 2 * mu) / ((2 * k + 2 * mu + 1) * (2 * k + 2 * mu - 1))
    # b0 = sqrt(pi) Gamma(n/2) / Gamma((n+1)/2), from exact integers: both
    # Gamma factors overflow for n >= 343, and their log-gamma difference
    # loses up to 2e-13 relative to cancellation
    h = n // 2
    if n % 2:
        b0 = math.pi * (math.comb(2 * h, h) / 4**h)
    else:
        b0 = 4**h / (h * math.comb(2 * h, h))
    return b0, np.sqrt(beta)


def _rows(x: np.ndarray, b0: float, sqrt_beta: np.ndarray):
    """Yield p_0(x), ..., p_m(x), m = len(sqrt_beta): the polynomials
    orthonormal for the x-weight, by their three-term recurrence."""
    s = [0.0, *sqrt_beta.tolist()]  # Python floats; s[0] multiplies p_(-1) = 0
    prev, cur = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(b0))
    yield cur
    for j in range(1, len(s)):
        nxt = x * cur  # one new array per row, updated in place
        nxt -= s[j - 1] * prev
        nxt /= s[j]
        prev, cur = cur, nxt
        yield cur


# The largest rule ``build_quadrature`` builds: four times the largest in use
# (q = 1600).  The build takes 0.08 s at q = 1600, 0.54 s at 3200 and 3.5 s at
# 6400 (one CPU, one BLAS thread); at q = 100000 its odd block alone would
# need 18.6 GiB.
MAX_QUADRATURE_NODES = 6400


def build_quadrature(data: EinsteinData, q: int) -> QuadratureRule:
    """Gauss rule with q nodes, exact for x-polynomials of degree <= 2q-1.

    The nodes are the eigenvalues of the Jacobi matrix J of the weight
    (1-x^2)^((n-2)/2).  J has a zero diagonal, so J^2 splits into its even-
    and odd-index blocks, and the odd block, of order q//2, has the squared
    positive nodes as its eigenvalues (Golub & Welsch 1969); no eigenvectors
    are formed.  The weights are the Christoffel numbers
    Vol(S^(n-1)) / Sum_{l<q} p_l(x_j)^2, summed in one pass of the recurrence
    that ``build_basis`` runs; unlike Golub-Welsch weights (squared
    eigenvector components) they keep their relative accuracy at the poles,
    where they are tiny for large n.  Both are computed on the nonnegative
    half and mirrored (``unfold``): the nodes are exactly antisymmetric (x = 0
    is a node when q is odd) and the weights exactly symmetric.

    Rules are memoized per process on (n, q) and shared, so their arrays
    are read-only.  Raises ValueError for q above ``MAX_QUADRATURE_NODES``,
    before anything is allocated, and when a weight underflows to zero, as
    at (n, q) = (200, 1600) or (340, 200)."""
    if q < 2:
        raise ValueError("need at least 2 quadrature nodes")
    if q > MAX_QUADRATURE_NODES:
        raise ValueError(
            f"q={q} exceeds the cap of {MAX_QUADRATURE_NODES} quadrature nodes: the "
            f"node solve holds a dense (q/2)x(q/2) matrix ({8 * (q // 2) ** 2 / 2**30:.1f} GiB "
            "here) and its time grows like q^3"
        )
    return gauss_rule(data.n, q)


@functools.lru_cache(maxsize=32)
def gauss_rule(n: int, q: int) -> QuadratureRule:
    """The memoized q-node rule of ``build_quadrature`` for the weight
    (1-x^2)^((n-2)/2), without its checks on q, for any n >= 2; at n = 2
    the weight is 1, and the rule is Gauss-Legendre with every weight scaled
    by Vol(S^1) = 2 pi."""
    b0, sqrt_beta = _recurrence(n, q - 1)
    m = q // 2
    s = np.append(sqrt_beta, 0.0)  # s[i] = J[i, i+1], zero past the end
    T = np.zeros((m, m))  # odd-index block of J^2; eigvalsh reads its lower half
    T.flat[:: m + 1] = s[0 : 2 * m : 2] ** 2 + s[1 : 2 * m : 2] ** 2
    T.flat[m :: m + 1] = s[1 : 2 * m - 1 : 2] * s[2 : 2 * m : 2]
    positive = np.sqrt(np.linalg.eigvalsh(T))
    half = np.concatenate(([0.0], positive)) if q % 2 else positive
    christoffel = np.zeros(len(half))
    with np.errstate(over="ignore"):  # an infinite sum gives a zero weight
        for p in _rows(half, b0, sqrt_beta):
            christoffel += p * p
    w_half = euclidean_sphere_area(n) / christoffel
    if not (w_half > 0).all():
        raise ValueError(
            f"Gauss weights underflow to zero at n={n}, q={q}; "
            "the dimension is too large for double precision"
        )
    x, w = unfold(0.0, half, q), unfold(w_half, 0.0, q)
    theta = np.arccos(x)
    for a in (x, w, theta):
        a.flags.writeable = False
    return QuadratureRule(n=n, nodes=x, weights=w, theta=theta)


class ZonalBasis:
    """Orthonormal zonal harmonics Z_0..Z_L, held at the nonnegative nodes
    x_j of the mirrored rule, ``rule.nodes[q // 2:]``, since Z_l(-x) =
    (-1)^l Z_l(x): ``even[i, j] = Z_2i(x_j)``, ``odd[i, j] = Z_(2i+1)(x_j)``
    (0 at a node x = 0, which odd q has).  ``eigs[l] = l(l+n-1)`` is the
    exact Laplace-Beltrami eigenvalue of Z_l."""

    def __init__(self, L: int, rule: QuadratureRule, even: np.ndarray, odd: np.ndarray):
        self.n, self.L, self.dim, self.rule = rule.n, L, L + 1, rule
        self.even, self.odd = even, odd
        l = np.arange(L + 1, dtype=float)
        self.eigs = l * (l + self.n - 1)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Node values Sum_l c_l Z_l(x_j) on the whole rule, for the
        coefficients along the last axis."""
        e, o = coeffs[..., 0::2] @ self.even, coeffs[..., 1::2] @ self.odd
        return unfold(e, o, len(self.rule.nodes))

    def project(self, g: np.ndarray) -> np.ndarray:
        """Sum_j g(x_j) Z_l(x_j) over the whole rule, for the node values g
        along the last axis."""
        s, d = fold(g)
        c = np.empty(g.shape[:-1] + (self.dim,))
        c[..., 0::2], c[..., 1::2] = s @ self.even.T, d @ self.odd.T
        return c


def fold(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(x) + g(-x) and g(x) - g(-x) at the nonnegative nodes x of a mirrored
    rule, from the node values g along the last axis; a node x = 0, its own
    mirror, counts once: g(0) and 0."""
    q = g.shape[-1]
    m = q // 2  # nodes of each sign; x = 0 is node m when q is odd
    plus, minus = g[..., m:], g[..., q - 1 - m :: -1]
    s, d = plus + minus, plus - minus
    s[..., : q % 2] = plus[..., : q % 2]
    return s, d


def unfold(e: np.ndarray, o: np.ndarray, q: int) -> np.ndarray:
    """Values on the mirrored q-node rule of f = e + o, from an even part e
    and an odd part o at its nonnegative nodes: f(-x) = e(x) - o(x)."""
    return np.concatenate(((e - o)[..., ::-1][..., : q // 2], e + o), axis=-1)


def build_basis(rule: QuadratureRule, L: int) -> ZonalBasis:
    """Orthonormal basis up to degree L; requires L < q so every Gram
    integral (degree <= 2L) is quadrature-exact.  The recurrence runs on the
    nonnegative nodes alone: it is exactly sign-symmetric, so the rows at -x
    are those at x times (-1)^l, bit for bit."""
    q = len(rule.nodes)
    if L >= q:
        raise ValueError(f"basis degree L={L} must be < node count q={q} (aliasing)")
    b0, sqrt_beta = _recurrence(rule.n, L)
    # one buffer, the even rows first, which a dropped basis frees as one block
    rows, d = np.empty((L + 1, q - q // 2)), L // 2 + 1
    for l, row in enumerate(_rows(rule.nodes[q // 2 :], b0, sqrt_beta)):
        rows[l // 2 + l % 2 * d] = row
    rows /= math.sqrt(euclidean_sphere_area(rule.n))  # from the x-weight to the full measure
    return ZonalBasis(L, rule, rows[:d], rows[d:])


class ZonalField:
    """A zonal function held as basis coefficients with cached node values."""

    def __init__(self, basis: ZonalBasis, coeffs: np.ndarray, values: np.ndarray | None = None):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (basis.dim,):
            raise ValueError(f"expected {basis.dim} coefficients, got {self.coeffs.shape}")
        self._values = values  # node values: the caller's, or synthesized on first use

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = synthesize(self)
        return self._values

    def __mul__(self, c: float) -> "ZonalField":
        return ZonalField(self.basis, self.coeffs * c)


def synthesize(field: ZonalField) -> np.ndarray:
    """Node values Sum_l c_l Z_l(x_j)."""
    return field.basis.values(field.coeffs)


def analyze(basis: ZonalBasis, values: np.ndarray) -> ZonalField:
    """Quadrature projection c_l = Sum_j w_j f(x_j) Z_l(x_j).

    Exact inverse of ``synthesize`` for fields of degree <= L; anything
    beyond the basis degree is aliased by design.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != basis.rule.nodes.shape:
        raise ValueError("value vector length does not match the quadrature rule")
    return ZonalField(basis, basis.project(basis.rule.weights * values))


def constant_field(basis: ZonalBasis, value: float = 1.0) -> ZonalField:
    """The constant function as a ZonalField (Z_0 = Vol^(-1/2))."""
    c = np.zeros(basis.dim)
    c[0] = value * math.sqrt(basis.rule.weights.sum())
    return ZonalField(basis, c)
