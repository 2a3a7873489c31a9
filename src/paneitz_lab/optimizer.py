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
from .spectral import (
    SphereSetup,
    density_from_sqrt_field,
    mass_from_values,
    normalized_invariant,
    pencil_eigen,
    round_setup,
    solve_density,
)
from .toolkit import _fixed_point_residual
from .zonal import ZonalBasis, ZonalField, analyze

GAP_TOL = 1e-6      # relative eigenvalue gap at which gradient() refuses
GRAD_TOL = 1e-7     # relative gradient-norm stopping rule
STALL_WINDOW = 10   # iterations over which the objective's decrease is judged
STALL_TOL = 1e-6    # relative decrease over STALL_WINDOW below which a descent stops
INIT_EPS = 0.1      # bubble scale of the two-bubble start
INIT_SPLIT = 0.5    # its north-pole mass fraction


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
        seed: int = 0,
        q_nodes: int = 200,
        L_final: int = 48,
    ):
        self.n = n
        self.k = k
        self.L_opt = L_opt
        self.restarts = restarts
        self.max_iters = max_iters
        self.seed = seed
        self.q_nodes = q_nodes
        self.L_final = L_final
        if self.n < 5:
            raise ValueError("dimension must be >= 5")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.L_opt < 2 or self.L_opt > self.L_final:
            raise ValueError(f"need 2 <= L_opt <= L_final, got L_opt = {self.L_opt}, L_final = {self.L_final}")
        if self.q_nodes <= self.L_final:
            raise ValueError(
                f"need q_nodes > L_final (aliasing), got q_nodes = {self.q_nodes}, L_final = {self.L_final}"
            )
        if self.k > self.L_opt + 1:
            raise ValueError(
                f"k = {self.k} exceeds the dimension {self.L_opt + 1} "
                f"of the descent basis (L_opt = {self.L_opt})"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
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
        self.rejected_trials = 0            # line-search trials that failed Armijo or raised


class MinimizeResult(NamedTuple):
    config: OptimizerConfig
    best: ZonalField             # q of the winner, u = q^2, on the L_opt basis
    best_objective: float        # lambda_bar_k at L_opt
    final_objective: float       # re-evaluated at L_final
    traces: list[RunTrace]
    diagnostics: dict


def _renormalize(c: np.ndarray, basis: ZonalBasis, N: float) -> np.ndarray:
    """c scaled so that u = q^2 has unit L^N mass; the mass is taken of
    q / max|q|, whose 2N-th power cannot overflow."""
    qvals = basis.table.T @ c
    scale = np.abs(qvals).max()
    if scale <= 0 or not math.isfinite(scale):
        raise ValueError("degenerate parameterization (zero or non-finite mass)")
    mass = basis.rule.lN_mass(qvals / scale, 2 * N)
    return c * (mass ** (-1.0 / (2 * N)) / scale)


def _solve_rows(
    c: np.ndarray, setup: SphereSetup, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node values q of c, then the kernel's eigenvalues and B-normalized
    coefficient columns for the pencil of u = q^2."""
    qvals = setup.basis.table.T @ c
    B = mass_from_values(setup.basis.rule, setup.basis.table, qvals**2, setup.coeffs.N)
    lams, V = pencil_eigen(setup.A_diag, B, kmax)
    return qvals, lams, V


def objective(q: ZonalField, k: int, setup: SphereSetup) -> float:
    """lambda_bar_k of the normalized density u = q^2."""
    c = _renormalize(q.coeffs, setup.basis, setup.coeffs.N)
    return float(_solve_rows(c, setup, k)[1][k - 1])


def _eig_gradient(
    qvals: np.ndarray, w: np.ndarray, lam: np.ndarray, setup: SphereSetup
) -> np.ndarray:
    """Gradient of lambda_bar_j wrt the q-coefficients at unit-mass u = q^2,
    from the node values of q and of the B-normalized eigenfield w of lam.

    First-order pencil perturbation through delta(u^(N-2)) plus the volume
    factor; for u normalized the two prefactors coincide at N - 2, leaving

        grad_m = 2 lambda_j (N-2) sum_j w_j q Z_m (u^(N-1) - u^(N-3) w^2).

    Only w^2 enters, so the sign of the eigenvector does not matter.
    """
    basis = setup.basis
    N = setup.coeffs.N
    u = qvals**2
    # guard u^(N-3) at zeros of u when N < 3 (n > 12)
    if N >= 3:
        core = u ** (N - 1) - u ** (N - 3) * w**2
    else:
        core = u ** (N - 1) - np.where(u > 0, u, 1.0) ** (N - 3) * w**2 * (u > 0)
    return 2 * lam * (N - 2) * (basis.table @ (basis.rule.weights * qvals * core))


def gradient(q: ZonalField, k: int, setup: SphereSetup) -> np.ndarray:
    """Analytic gradient of lambda_bar_k; refuses near-degenerate gaps."""
    c = _renormalize(q.coeffs, setup.basis, setup.coeffs.N)
    kmax = min(k + 1, setup.basis.dim)
    qvals, lam, V = _solve_rows(c, setup, kmax)
    tol = GAP_TOL * abs(lam[k - 1])
    if k > 1 and lam[k - 1] - lam[k - 2] < tol:
        raise DegenerateGapError("eigenvalue crossing below k")
    if kmax > k and lam[k] - lam[k - 1] < tol:
        raise DegenerateGapError("eigenvalue crossing above k")
    w = setup.basis.table.T @ V[:, k - 1]
    return _eig_gradient(qvals, w, lam[k - 1], setup)


def two_bubble_initializer(eps: float, split: float, basis: ZonalBasis) -> ZonalField:
    """q from sqrt-bubble profiles at the two poles, projected to the basis.

    split is the mass fraction at the north pole; split = 1 gives a single
    bubble, eps large flattens toward the constant.  An equal split is even,
    and its odd coefficients, rounding error, are dropped, so that it
    descends as an even start.
    """
    if not 0 <= split <= 1:
        raise ValueError("split must lie in [0, 1]")
    from .bubbles import BubbleSpec, bubble_profile  # only this start needs it

    n = basis.n
    theta = basis.rule.theta
    # sqrt of the bubble density profile: exponent (n-4)/4 in q-space
    phi_n, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, center="north"), n)
    phi_s, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, center="south"), n)
    qvals = math.sqrt(split) * np.sqrt(phi_n) + math.sqrt(1 - split) * np.sqrt(phi_s)
    c = analyze(basis, qvals).coeffs
    if split == 0.5:
        c[1::2] = 0.0
    N = _critical_exponent(n)
    return ZonalField(basis, _renormalize(c, basis, N))


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
    stops early once the gradient is small, or once lambda_bar_k has fallen
    by at most STALL_TOL relative over the last STALL_WINDOW iterations.  A
    trial that raises is annotated and rejected; it counts as a pencil solve
    only if its renormalization passed.  A start whose odd coefficients are
    all zero descends in its even coefficients alone: the odd entries of its
    gradient are rounding error, and BFGS would drift along the axial Moebius
    dilation, a flat direction of lambda_bar_k, on them.  Returns the
    coefficients and the trace.
    """
    basis, N, k = setup.basis, setup.coeffs.N, config.k
    kmax = min(k + 1, basis.dim)
    even = not start.coeffs[1::2].any()
    trace = RunTrace(start_label=label, pencil_solves=1)
    c = _renormalize(start.coeffs, basis, N)
    qvals, lam, V = _solve_rows(c, setup, kmax)
    H = None  # inverse Hessian; None until the first update and after a reset
    for it in range(config.max_iters + 1):
        J = float(lam[k - 1])
        w_k = basis.table.T @ V[:, k - 1]  # the k-th eigenfield
        g = _eig_gradient(qvals, w_k, lam[k - 1], setup)
        if even:
            g[1::2] = 0.0
        gnorm = math.sqrt(g @ g)
        trace.objectives.append(J)
        trace.grad_norms.append(gnorm)
        trace.gaps.append(float(lam[k] - lam[k - 1]) if kmax > k else math.nan)
        trace.residuals.append(_fixed_point_residual(basis.rule, w_k, qvals**2, N))
        if gnorm <= GRAD_TOL * max(abs(J), 1.0):
            trace.status = "gradient-converged"
            return c, trace
        if it >= STALL_WINDOW and trace.objectives[-STALL_WINDOW - 1] - J <= STALL_TOL * abs(J):
            trace.status = "objective-stalled"
            return c, trace
        if it == config.max_iters:
            break
        if it:
            # BFGS update from the last accepted step, H <- E H E^T + rho s s^T
            # with E = I - rho s y^T, skipped unless s'y > 0; the first update
            # starts from H0 = (s'y / y'y) I (Nocedal & Wright, 2nd ed., 6.1)
            s, y = c - c_old, g - g_old
            sy = s @ y
            if sy > 0:
                if H is None:
                    H = sy / (y @ y) * np.eye(basis.dim)
                rho = 1.0 / sy
                E = np.eye(basis.dim) - rho * s[:, None] * y
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
            length = 0.25 * math.sqrt(c @ c)
            d = -length * g / gnorm
            slope = -length * gnorm
        t = 1.0
        for _ in range(40):
            solved = False
            try:
                c_try = _renormalize(c + t * d, basis, N)
                solved = True
                q_try, lam_try, V_try = _solve_rows(c_try, setup, kmax)
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
            return c, trace
    trace.status = "max-iters"
    return c, trace


def _starts(config: OptimizerConfig, setup: SphereSetup) -> list[tuple[str, ZonalField]]:
    """The first config.restarts of: the constant, the antipodal two-bubble
    configuration, then seeded random coefficient draws; the descent
    normalizes them.  The two-bubble start is built only when it is
    descended, and the seed is read only when a random start is drawn."""
    basis = setup.basis
    constant = np.zeros(basis.dim)
    constant[0] = 1.0
    starts = [("constant", ZonalField(basis, constant))]
    if config.restarts >= 2:
        starts.append(("two-bubble", two_bubble_initializer(INIT_EPS, INIT_SPLIT, basis)))
    if config.restarts > len(starts):
        rng = np.random.default_rng(config.seed)  # imports numpy.random
        decay = 0.5 ** np.arange(basis.dim)
        for i in range(config.restarts - len(starts)):
            c = rng.standard_normal(basis.dim) * decay
            c[0] += 1.0  # bias away from heavily degenerate densities
            starts.append((f"random-{i}", ZonalField(basis, c)))
    return starts


def minimize(config: OptimizerConfig) -> MinimizeResult:
    """Multi-start descent; returns the best density with full traces.

    Each start (see _starts) descends on its own.  The winner is the
    restart whose trace ends lowest; it is re-evaluated on the finer L_final
    basis (a variational improvement, never an increase).
    """
    setup = round_setup(config.n, q=config.q_nodes, L=config.L_opt)
    N = setup.coeffs.N
    runs = [_descend(label, start, config, setup) for label, start in _starts(config, setup)]
    traces = [trace for _, trace in runs]
    values = [trace.objectives[-1] for trace in traces]
    best = ZonalField(setup.basis, runs[values.index(min(values))][0])

    # final evaluation on the finer basis over the same (memoized) rule: q is
    # exact at the nodes, only the eigenproblem subspace grows
    fine = round_setup(config.n, q=config.q_nodes, L=config.L_final)
    u_fine = density_from_sqrt_field(analyze(fine.basis, best.values), N)
    final = normalized_invariant(solve_density(fine, u_fine, config.k), u_fine, config.k)

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
