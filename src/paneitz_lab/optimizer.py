"""Descent over conformal densities for the normalized eigenvalue invariants.

The density is parameterized as u = q^2 with q a zonal field of moderate
degree, which keeps u >= 0 while allowing zeros (generalized metrics).
The objective lambda_bar_k(u) = lambda_k(u) (int u^N)^(4/n) is scale
invariant.  Each start is descended on its own by BFGS with an Armijo line
search, which follows lambda_k unsmoothed: where lambda_{k-1} meets
lambda_k, as it does near two-bubble configurations, lambda_k has a kink,
and BFGS steps across it without a smoothing rule (Lewis & Overton,
Math. Program. 141 (2013)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .einstein import _critical_exponent, sharp_constant_oracle
from .spectral import SphereSetup, mass_from_values, pencil_eigen, round_setup
from .toolkit import _fixed_point_residual
from .zonal import QuadratureRule, ZonalBasis, ZonalField, analyze

GAP_TOL = 1e-6      # relative eigenvalue gap at which gradient() refuses
GRAD_TOL = 1e-7     # stationarity |g| |c| / lambda_bar_k at which a descent stops
INIT_EPS = 0.1      # bubble scale of the two-bubble start


class DegenerateGapError(RuntimeError):
    """Plain eigenvalue gradient requested at a near-crossing."""


class OptimizerConfig:
    def __init__(
        self,
        n: int,
        k: int = 2,
        L_opt: int = 16,
        restarts: int = 1,
        max_iters: int = 60,
        seed: int = 0,  # read by nothing; kept only because perfbench/workloads.py passes it
        q_nodes: int = 200,
        L_final: int = 48,
    ):
        self.n = n
        self.k = k
        self.L_opt = L_opt
        self.restarts = restarts
        self.max_iters = max_iters
        self.q_nodes = q_nodes
        self.L_final = L_final
        if self.n < 5:
            raise ValueError("dimension must be >= 5")
        # a k >= 3 descent ends on line-search details, not near a stationary point
        if self.k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {self.k}")
        if self.L_opt < 2 or self.L_opt > self.L_final:
            raise ValueError(f"need 2 <= L_opt <= L_final, got L_opt = {self.L_opt}, L_final = {self.L_final}")
        if self.q_nodes <= self.L_final:
            raise ValueError(
                f"need q_nodes > L_final (aliasing), got q_nodes = {self.q_nodes}, L_final = {self.L_final}"
            )
        if self.restarts not in (1, 2):
            raise ValueError(f"restarts must be 1 or 2, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters (--iterations) must be >= 0, got {self.max_iters}")


class RunTrace:
    """Per-state history of one restart, its start first and its returned state last."""

    def __init__(self, start_label: str, pencil_solves: int = 0):
        self.start_label = start_label
        self.objectives: list[float] = []   # lambda_bar_k of each state
        self.grad_norms: list[float] = []
        self.gaps: list[float] = []         # lambda_{k+1} - lambda_k
        self.residuals: list[float] = []    # |w|/||w||_N vs u distance
        self.status = "running"
        self.annotations: list[str] = []
        self.pencil_solves = pencil_solves  # pencil eigensolves, the start's included
        self.stationarity = math.nan        # |g| |c| / lambda_bar_k of the returned state
        self.rejected_trials = 0            # line-search trials that failed Armijo or raised


class MinimizeResult(NamedTuple):
    config: OptimizerConfig
    best: ZonalField             # q of the winner, u = q^2, on the L_opt basis
    best_objective: float        # lambda_bar_k at L_opt
    final_objective: float       # re-evaluated at L_final
    traces: list[RunTrace]
    diagnostics: dict


class _Space(NamedTuple):
    """The coefficients a descent moves, the rule their node values live on,
    and the pencil that u = q^2 solves there.

    An even q (its odd coefficients zero) moves only its even coefficients,
    c[::2], on the nonnegative half of the mirrored rule with doubled
    weights; a node at x = 0 counts once.  Its density is even, so its mass
    form has no even-odd block, and the pencil splits into the even and the
    odd sector: the even and the odd rows of the basis, the odd ones padded
    with a zero row to the even count, solved as one stack.  Any other q
    moves every coefficient on the full rule, with one full pencil."""

    step: int               # the coefficients moved are c[::step]
    rule: QuadratureRule    # the nodes the values live on
    table: np.ndarray       # the rows that synthesize q from those coefficients
    tables: np.ndarray      # the pencil's rows: (sectors, d, nodes), or the full (d, nodes)
    A_diag: np.ndarray      # its operator diagonal: (sectors, d), or the full (d,)
    N: float


def _space(setup: SphereSetup, even: bool) -> _Space:
    table, A_diag, rule = setup.basis.table, setup.A_diag, setup.rule
    if not even:
        return _Space(1, rule, table, table, A_diag, setup.coeffs.N)
    q, dim = len(rule.nodes), len(table)
    m = q // 2  # nodes of each sign; x = 0 is node m when q is odd
    weights = 2.0 * rule.weights[m:]
    weights[: q % 2] = rule.weights[m : m + q % 2]  # x = 0 counts once
    half = rule._replace(nodes=rule.nodes[m:], weights=weights, theta=rule.theta[m:])
    d = (dim + 1) // 2  # even rows; the odd ones are dim // 2
    tables = np.zeros((2, d, q - m))
    tables[0], tables[1, : dim // 2] = table[0::2, m:], table[1::2, m:]
    sector_A = np.ones((2, d))  # the padded entry's A: any positive value
    sector_A[0], sector_A[1, : dim // 2] = A_diag[0::2], A_diag[1::2]
    return _Space(2, half, tables[0], tables, sector_A, setup.coeffs.N)


def _renormalize(c: np.ndarray, space, N: float) -> np.ndarray:
    """c scaled so that u = q^2 has unit L^N mass; the mass is taken of
    q / max|q|, whose 2N-th power cannot overflow.  space is a basis or a
    _Space: what gives the synthesis table and the rule."""
    qvals = space.table.T @ c
    scale = np.abs(qvals).max()
    if scale <= 0 or not math.isfinite(scale):
        raise ValueError("degenerate parameterization (zero or non-finite mass)")
    mass = space.rule.lN_mass(qvals / scale, 2 * N)
    return c * (mass ** (-1.0 / (2 * N)) / scale)


def _eigen(qvals: np.ndarray, space: _Space, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's eigenvalues and B-normalized coefficient columns for the
    pencil of u = q^2, from the node values of q."""
    B = mass_from_values(space.rule, space.tables, qvals**2, space.N)
    return pencil_eigen(space.A_diag, B, kmax)


def _solve_rows(
    c: np.ndarray, space: _Space, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node values q of c, then ``_eigen`` of u = q^2: one descent solve."""
    qvals = space.table.T @ c
    return (qvals, *_eigen(qvals, space, kmax))


def _node_values(v: np.ndarray, space: _Space) -> np.ndarray:
    """Node values of an eigenfield from its coefficients, as ``_eigen``
    returns them: one column of V, of every sector."""
    return space.tables.reshape(-1, space.tables.shape[-1]).T @ v.ravel()


def objective(q: ZonalField, k: int, setup: SphereSetup) -> float:
    """lambda_bar_k of the normalized density u = q^2."""
    space = _space(setup, even=False)
    c = _renormalize(q.coeffs, space, space.N)
    return float(_solve_rows(c, space, k)[1][k - 1])


def _eig_gradient(
    qvals: np.ndarray, w: np.ndarray, lam: np.ndarray, space: _Space
) -> np.ndarray:
    """Gradient of lambda_bar_j wrt the moved q-coefficients at unit-mass
    u = q^2, from the node values of q and of the B-normalized eigenfield w
    of lam.

    First-order pencil perturbation through delta(u^(N-2)) plus the volume
    factor; for u normalized the two prefactors coincide at N - 2, leaving

        grad_m = 2 lambda_j (N-2) sum_j w_j q Z_m (u^(N-1) - u^(N-3) w^2).

    Only w^2 enters, so the sign of the eigenvector does not matter.
    """
    N = space.N
    u = qvals**2
    # guard u^(N-3) at zeros of u when N < 3 (n > 12)
    if N >= 3:
        core = u ** (N - 1) - u ** (N - 3) * w**2
    else:
        core = u ** (N - 1) - np.where(u > 0, u, 1.0) ** (N - 3) * w**2 * (u > 0)
    return 2 * lam * (N - 2) * (space.table @ (space.rule.weights * qvals * core))


def gradient(q: ZonalField, k: int, setup: SphereSetup) -> np.ndarray:
    """Analytic gradient of lambda_bar_k; refuses near-degenerate gaps."""
    space = _space(setup, even=False)
    c = _renormalize(q.coeffs, space, space.N)
    kmax = min(k + 1, setup.basis.dim)
    qvals, lam, V = _solve_rows(c, space, kmax)
    tol = GAP_TOL * abs(lam[k - 1])
    if k > 1 and lam[k - 1] - lam[k - 2] < tol:
        raise DegenerateGapError("eigenvalue crossing below k")
    if kmax > k and lam[k] - lam[k - 1] < tol:
        raise DegenerateGapError("eigenvalue crossing above k")
    return _eig_gradient(qvals, _node_values(V[..., k - 1], space), lam[k - 1], space)


def two_bubble_initializer(basis: ZonalBasis) -> ZonalField:
    """q from sqrt-bubble profiles of scale INIT_EPS at the two poles, with
    equal mass at each, projected to the basis.  It is even, and its odd
    coefficients, rounding error, are dropped, so that it descends as an
    even start."""
    from .bubbles import BubbleSpec, bubble_profile  # only this start needs it

    n, theta = basis.n, basis.rule.theta
    # sqrt of the bubble density profile: exponent (n-4)/4 in q-space
    phi_n, _, _ = bubble_profile(theta, BubbleSpec(eps=INIT_EPS, center="north"), n)
    phi_s, _, _ = bubble_profile(theta, BubbleSpec(eps=INIT_EPS, center="south"), n)
    h = math.sqrt(0.5)
    c = analyze(basis, h * np.sqrt(phi_n) + h * np.sqrt(phi_s)).coeffs
    c[1::2] = 0.0
    return ZonalField(basis, _renormalize(c, basis, _critical_exponent(n)))


def _backtrack(t: float, slope: float, J: float, J_try: float) -> float:
    """The step after a trial at t is rejected: the minimizer of the quadratic
    through J, its slope and J_try, kept in [0.1 t, 0.5 t] (Nocedal & Wright,
    2nd ed., 3.5).  A non-finite J_try, or a quadratic without positive
    curvature, halves t."""
    curvature = J_try - J - slope * t
    if not (math.isfinite(J_try) and curvature > 0):
        return 0.5 * t
    return max(0.1 * t, min(-slope * t * t / (2 * curvature), 0.5 * t))


def _descend(
    label: str, start: ZonalField, config: OptimizerConfig, setup: SphereSetup
) -> tuple[np.ndarray, RunTrace]:
    """BFGS descent of one start, with an Armijo line search of at most 40
    trials per iteration.

    Up to max_iters + 1 iterations record the state, and no step follows
    the last, so the trace ends on the returned coefficients.  The descent
    stops early once |g| |c| / lambda_bar_k is at most GRAD_TOL, for the
    gradient g of lambda_bar_k in the moved coefficients c: unit-mass
    coefficients scale with Vol(S^n) and the gradient with its inverse, so
    the test reads the same in every dimension.  A trial that raises is
    annotated and rejected; it counts as a pencil solve only if its
    renormalization passed.  A start whose odd coefficients are
    all zero descends in its even coefficients alone, in the two parity
    sectors of its pencil (_Space): BFGS would drift along the axial Moebius
    dilation, a flat direction of lambda_bar_k, on the odd ones.  Returns
    the coefficients and the trace.
    """
    k = config.k
    kmax = k + 1
    space = _space(setup, even=not start.coeffs[1::2].any())
    N = space.N
    trace = RunTrace(start_label=label, pencil_solves=1)
    c = _renormalize(start.coeffs[:: space.step], space, N)
    qvals, lam, V = _solve_rows(c, space, kmax)
    H = None  # inverse Hessian; None until the first update and after a reset
    for it in range(config.max_iters + 1):
        J = float(lam[k - 1])
        w_k = _node_values(V[..., k - 1], space)  # the k-th eigenfield
        g = _eig_gradient(qvals, w_k, lam[k - 1], space)
        gnorm, cnorm = math.sqrt(g @ g), math.sqrt(c @ c)
        trace.objectives.append(J)
        trace.grad_norms.append(gnorm)
        trace.gaps.append(float(lam[k] - lam[k - 1]))
        trace.residuals.append(_fixed_point_residual(space.rule, w_k, qvals**2, N))
        trace.stationarity = gnorm * cnorm / J
        if trace.stationarity <= GRAD_TOL:
            trace.status = "gradient-converged"
            break
        if it == config.max_iters:
            trace.status = "max-iters"
            break
        if it:
            # BFGS update from the last accepted step, H <- E H E^T + rho s s^T
            # with E = I - rho s y^T, skipped unless s'y > 0; the first update
            # starts from H0 = (s'y / y'y) I (Nocedal & Wright, 2nd ed., 6.1)
            s, y = c - c_old, g - g_old
            sy = s @ y
            if sy > 0:
                if H is None:
                    H = sy / (y @ y) * np.eye(len(c))
                rho = 1.0 / sy
                E = np.eye(len(c)) - rho * s[:, None] * y
                H = E @ H @ E.T + rho * s[:, None] * s
        c_old, g_old = c, g
        # d = -H g from t = 1; without H, or where d does not descend, H is
        # dropped and the step is 0.25 |c| along -g/|g|: unit-mass coefficients
        # scale with Vol(S^n), and a fixed length stalls at the start from n ~ 150 on
        if H is not None:
            d = -(H @ g)
            slope = g @ d
        if H is None or slope >= 0:
            H = None
            length = 0.25 * cnorm
            d = -length * g / gnorm
            slope = -length * gnorm
        t = 1.0
        for _ in range(40):
            solved = False
            try:
                c_try = _renormalize(c + t * d, space, N)
                solved = True
                q_try, lam_try, V_try = _solve_rows(c_try, space, kmax)
                J_try = float(lam_try[k - 1])
            except (ValueError, ArithmeticError) as exc:
                trace.annotations.append(f"iter {it}: step rejected ({exc})")
                J_try = math.nan
            trace.pencil_solves += solved
            if math.isfinite(J_try) and J_try <= J + 1e-4 * t * slope:
                c, qvals, lam, V = c_try, q_try, lam_try, V_try
                break
            trace.rejected_trials += 1
            t = _backtrack(t, slope, J, J_try)
        else:
            trace.status = "line-search-stalled"
            break
    coeffs = np.zeros(setup.basis.dim)
    coeffs[:: space.step] = c
    return coeffs, trace


def _starts(config: OptimizerConfig, setup: SphereSetup) -> list[tuple[str, ZonalField]]:
    """The constant and, with config.restarts = 2, the antipodal two-bubble
    configuration, which is built only then; both are even, and the descent
    normalizes them."""
    constant = np.zeros(setup.basis.dim)
    constant[0] = 1.0
    starts = [("constant", ZonalField(setup.basis, constant))]
    if config.restarts == 2:
        starts.append(("two-bubble", two_bubble_initializer(setup.basis)))
    return starts


def minimize(config: OptimizerConfig) -> MinimizeResult:
    """Descent from each start; returns the best density with full traces.

    Each start (see _starts) descends on its own.  The winner is the
    restart whose trace ends lowest; it is re-evaluated on the finer L_final
    basis (a variational improvement, never an increase).
    """
    # the final setup first: the descent's is its leading rows
    fine = round_setup(config.n, q=config.q_nodes, L=config.L_final)
    setup = round_setup(config.n, q=config.q_nodes, L=config.L_opt)
    runs = [_descend(label, start, config, setup) for label, start in _starts(config, setup)]
    traces = [trace for _, trace in runs]
    values = [trace.objectives[-1] for trace in traces]
    best = ZonalField(setup.basis, runs[values.index(min(values))][0])

    # final evaluation on the finer basis: q, of degree L_opt, is the same
    # field with zero coefficients above L_opt; only the pencil grows
    c = np.zeros(fine.basis.dim)
    c[: setup.basis.dim] = best.coeffs
    space = _space(fine, even=not c[1::2].any())
    c = _renormalize(c[:: space.step], space, space.N)
    final = float(_eigen(space.table.T @ c, space, config.k)[0][config.k - 1])

    K2_inv_sq = sharp_constant_oracle(config.n)
    round_pair_bound = 2.0 ** (4.0 / config.n) * K2_inv_sq
    diagnostics = {
        "K2_inv_sq": K2_inv_sq,
        # attainment hypothesis: mu2 * K2^2 * 2^(-4/n) < 1
        "attainment_product": final / round_pair_bound if config.k == 2 else None,
        "attainment_flag": (final < round_pair_bound) if config.k == 2 else None,
        "round_pair_bound": round_pair_bound,
    }
    return MinimizeResult(
        config=config,
        best=best,
        best_objective=min(values),
        final_objective=final,
        traces=traces,
        diagnostics=diagnostics,
    )
