"""Descent over conformal densities for the normalized eigenvalue invariants.

The density is parameterized as u = q^2 with q a zonal field of moderate
degree, which keeps u >= 0 while allowing zeros (generalized metrics).
The objective lambda_bar_k(u) = lambda_k(u) (int u^N)^(4/n) is scale
invariant.  The descent is BFGS with an Armijo line search, one restart per
row of stacked arrays, and follows lambda_k unsmoothed: where lambda_{k-1}
meets lambda_k, as it does near two-bubble configurations, lambda_k has a
kink, and BFGS steps across it without a smoothing rule (Lewis & Overton,
Math. Program. 141 (2013)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bubbles import BubbleSpec, bubble_profile
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
from .zonal import ZonalBasis, ZonalField, _float_power, analyze

GAP_TOL = 1e-6      # relative eigenvalue gap at which gradient() refuses
GRAD_TOL = 1e-7     # relative gradient-norm stopping rule
INIT_EPS = 0.1      # bubble scale of the two-bubble start
INIT_SPLIT = 0.5    # its north-pole mass fraction


class DegenerateGapError(RuntimeError):
    """Plain eigenvalue gradient requested at a near-crossing."""


@dataclass
class OptimizerConfig:
    n: int
    k: int = 2
    L_opt: int = 16
    restarts: int = 8
    max_iters: int = 60
    seed: int = 0
    q_nodes: int = 200
    L_final: int = 48

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("dimension must be >= 5")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.L_opt < 2 or self.L_opt > self.L_final:
            raise ValueError("need 2 <= L_opt <= L_final")
        if self.k > self.L_opt + 1:
            raise ValueError(
                f"k = {self.k} exceeds the dimension {self.L_opt + 1} "
                f"of the descent basis (L_opt = {self.L_opt})"
            )
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters (--iterations) must be >= 0, got {self.max_iters}")


@dataclass
class RunTrace:
    """Per-iteration history of one restart."""

    start_label: str
    objectives: list[float] = field(default_factory=list)   # lambda_bar_k at each iteration
    grad_norms: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)         # lambda_{k+1} - lambda_k
    residuals: list[float] = field(default_factory=list)    # |w|/||w||_N vs u distance
    status: str = "running"
    annotations: list[str] = field(default_factory=list)
    pencil_solves: int = 0      # pencil eigensolves, the start's included
    rejected_trials: int = 0    # line-search trials that failed Armijo or raised


@dataclass
class MinimizeResult:
    config: OptimizerConfig
    best: ZonalField             # q of the winner, u = q^2, on the L_opt basis
    best_objective: float        # lambda_bar_k at L_opt
    final_objective: float       # re-evaluated at L_final
    traces: list[RunTrace]
    diagnostics: dict


def _renormalize(c: np.ndarray, basis: ZonalBasis, N: float) -> np.ndarray:
    """c scaled so that u = q^2 has unit L^N mass, each row of a stack on its
    own; the mass is taken of q / max|q|, whose 2N-th power cannot overflow."""
    qvals = np.matmul(basis.table.T, c[..., None])[..., 0]
    scale = np.abs(qvals).max(axis=-1)
    if (scale <= 0).any() or not np.isfinite(scale).all():
        raise ValueError("degenerate parameterization (zero or non-finite mass)")
    mass = np.asarray(basis.rule.lN_mass(qvals / scale[..., None], 2 * N))
    return c * (_float_power(mass, -1.0 / (2 * N)) / scale)[..., None]


def _solve_rows(
    c: np.ndarray, setup: SphereSetup, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node values q of c, then the kernel's eigenvalues and B-normalized
    coefficient columns for the pencil of u = q^2; leading axes of c are a
    stack of rows, solved in one call."""
    qvals = np.matmul(setup.basis.table.T, c[..., None])[..., 0]
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

    Only w^2 enters, so the sign of the eigenvector does not matter.  The
    arguments broadcast: leading axes give a stack of gradients.
    """
    basis = setup.basis
    N = setup.coeffs.N
    u = qvals**2
    # guard u^(N-3) at zeros of u when N < 3 (n > 12)
    if N >= 3:
        core = u ** (N - 1) - u ** (N - 3) * w**2
    else:
        core = u ** (N - 1) - np.where(u > 0, u, 1.0) ** (N - 3) * w**2 * (u > 0)
    synth = np.matmul(basis.table, (basis.rule.weights * qvals * core)[..., None])[..., 0]
    return np.asarray(2 * lam * (N - 2))[..., None] * synth


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
    bubble, eps large flattens toward the constant.
    """
    if not 0 <= split <= 1:
        raise ValueError("split must lie in [0, 1]")
    n = basis.n
    theta = basis.rule.theta
    # sqrt of the bubble density profile: exponent (n-4)/4 in q-space
    phi_n, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, center="north"), n)
    phi_s, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, center="south"), n)
    qvals = math.sqrt(split) * np.sqrt(phi_n) + math.sqrt(1 - split) * np.sqrt(phi_s)
    c = analyze(basis, qvals).coeffs
    N = _critical_exponent(n)
    return ZonalField(basis, _renormalize(c, basis, N))


def _solve_trials(c: np.ndarray, setup: SphereSetup, kmax: int):
    """Renormalize and solve a stack of trial rows in one call.

    If the stack is refused, every row is redone alone through the same
    kernel, so a degenerate row costs the others nothing.  Returns the
    renormalized rows, their node values, eigenvalues (NaN for a refused
    row) and eigenvector columns, then for each refused row the error and
    whether its pencil was solved (its renormalization passed).
    """
    basis, N = setup.basis, setup.coeffs.N
    try:
        c = _renormalize(c, basis, N)
        return (c, *_solve_rows(c, setup, kmax), {})
    except (ValueError, ArithmeticError):
        pass
    out = [np.zeros_like(c), np.zeros((len(c), len(basis.rule.nodes))),
           np.full((len(c), kmax), np.nan), np.zeros((len(c), basis.dim, kmax))]
    refused = {}
    for i in range(len(c)):
        solved = False
        try:
            row = _renormalize(c[i : i + 1], basis, N)
            solved = True
            for arr, value in zip(out, (row, *_solve_rows(row, setup, kmax))):
                arr[i] = value[0]
        except (ValueError, ArithmeticError) as exc:
            refused[i] = exc, solved
    return (*out, refused)


def _lockstep_descent(
    starts: list[tuple[str, ZonalField]], config: OptimizerConfig, setup: SphereSetup
) -> tuple[np.ndarray, list[float], list[RunTrace]]:
    """Descend every start together, as rows of stacked arrays.

    Each restart keeps its own BFGS inverse Hessian (one layer of a stacked
    (restarts, dim, dim) array), Armijo step, 40-trial cap and status; each
    iteration and each line-search trial round solves all of its
    still-running rows in one stacked call.
    A restart keeps its row for the whole descent: stopping only sets its
    status, and a stopped row takes no further trial.  Returns the final
    coefficient rows, their lambda_bar_k and the traces.
    """
    basis, N, k = setup.basis, setup.coeffs.N, config.k
    kmax = min(k + 1, basis.dim)
    traces = [RunTrace(start_label=label, pencil_solves=1) for label, _ in starts]
    c = _renormalize(np.array([start.coeffs for _, start in starts]), basis, N)
    qvals, lam, V = _solve_rows(c, setup, kmax)
    H = np.zeros((len(c), basis.dim, basis.dim))  # all-zero: the row has no H yet
    for it in range(config.max_iters):
        running = [r for r, trace in enumerate(traces) if trace.status == "running"]
        if not running:
            break
        J = lam[:, k - 1].tolist()
        w_k = np.matmul(basis.table.T, V[..., k - 1, None])[..., 0]  # each row's k-th eigenfield
        g = _eig_gradient(qvals, w_k, lam[:, k - 1], setup)
        gnorm_rows = np.sqrt(np.vecdot(g, g))
        gnorm = gnorm_rows.tolist()
        gaps = (lam[:, k] - lam[:, k - 1]).tolist() if kmax > k else [math.nan] * len(c)
        residuals = _fixed_point_residual(basis.rule, w_k, qvals**2, N).tolist()
        pending = []
        for r in running:
            trace = traces[r]
            trace.objectives.append(J[r])
            trace.grad_norms.append(gnorm[r])
            trace.gaps.append(gaps[r])
            trace.residuals.append(residuals[r])
            if gnorm[r] <= GRAD_TOL * max(abs(J[r]), 1.0):
                trace.status = "gradient-converged"
            else:
                pending.append(r)
        if it:
            # BFGS update of each pending row's inverse Hessian from its last
            # accepted step, H <- E H E^T + rho s s^T with E = I - rho s y^T,
            # skipped unless s'y > 0; a row's first update starts from
            # H0 = (s'y / y'y) I (Nocedal & Wright, 2nd ed., 6.1)
            s, y = c - c_old, g - g_old
            sy = np.vecdot(s, y)
            upd = [r for r in pending if sy[r] > 0]
            fresh = [r for r in upd if not H[r].any()]
            H[fresh] = (sy[fresh] / np.vecdot(y[fresh], y[fresh]))[:, None, None] * np.eye(basis.dim)
            s, y, rho = s[upd], y[upd], (1.0 / sy[upd])[:, None, None]
            E = np.eye(basis.dim) - rho * s[:, :, None] * y[:, None, :]
            H[upd] = E @ H[upd] @ E.transpose(0, 2, 1) + rho * s[:, :, None] * s[:, None, :]
        c_old, g_old = c.copy(), g
        # d = -H g from t = 1; a row without H, or whose d does not descend,
        # drops its H and takes a displacement of 0.25 along -g/|g|
        d = -np.matmul(H, g[..., None])[..., 0]
        slope = np.vecdot(g, d)
        reset = [r for r in pending if slope[r] >= 0]
        H[reset] = 0.0
        d[reset] = -0.25 * g[reset] / gnorm_rows[reset, None]
        slope[reset] = -0.25 * gnorm_rows[reset]
        t = [1.0] * len(c)
        for _ in range(40):
            if not pending:
                break
            c_new, q_new, lam_new, V_new, refused = _solve_trials(
                c[pending] + np.array([t[r] for r in pending])[:, None] * d[pending], setup, kmax
            )
            J_try = lam_new[:, k - 1].tolist()
            lost = []
            for p, r in enumerate(pending):
                trace = traces[r]
                exc, solved = refused.get(p, (None, True))
                trace.pencil_solves += solved
                if exc is not None:
                    trace.annotations.append(f"iter {it}: step rejected ({exc})")
                elif math.isfinite(J_try[p]) and J_try[p] <= J[r] + 1e-4 * t[r] * slope[r]:
                    c[r], qvals[r], lam[r], V[r] = c_new[p], q_new[p], lam_new[p], V_new[p]
                    continue
                trace.rejected_trials += 1
                t[r] *= 0.5
                lost.append(r)
            pending = lost
        for r in pending:
            traces[r].status = "line-search-stalled"
    for trace in traces:  # the cap stops only the restarts still running
        if trace.status == "running":
            trace.status = "max-iters"
    return c, lam[:, k - 1].tolist(), traces


def _starts(config: OptimizerConfig, setup: SphereSetup) -> list[tuple[str, ZonalField]]:
    """The first config.restarts of: the antipodal two-bubble configuration,
    the constant, then seeded random coefficient draws, each normalized."""
    basis, N = setup.basis, setup.coeffs.N
    rng = np.random.default_rng(config.seed)
    constant = np.zeros(basis.dim)
    constant[0] = 1.0
    starts = [
        ("two-bubble", two_bubble_initializer(INIT_EPS, INIT_SPLIT, basis)),
        ("constant", ZonalField(basis, _renormalize(constant, basis, N))),
    ][: config.restarts]
    decay = 0.5 ** np.arange(basis.dim)
    for i in range(config.restarts - len(starts)):
        c = rng.standard_normal(basis.dim) * decay
        c[0] += 1.0  # bias away from heavily degenerate densities
        starts.append((f"random-{i}", ZonalField(basis, _renormalize(c, basis, N))))
    return starts


def minimize(config: OptimizerConfig) -> MinimizeResult:
    """Multi-start descent; returns the best density with full traces.

    The starts (see _starts) descend in lockstep.  The winner is
    re-evaluated on the finer L_final basis (a variational improvement,
    never an increase).
    """
    setup = round_setup(config.n, q=config.q_nodes, L=config.L_opt)
    N = setup.coeffs.N
    starts = _starts(config, setup)
    rows, values, traces = _lockstep_descent(starts, config, setup)
    if config.max_iters == 0:
        # the starts themselves, each solved once
        rows = [start.coeffs for _, start in starts]
        for trace, val in zip(traces, values):
            trace.status = "no-iterations"
            trace.objectives.append(val)
    best_val = min(values)
    best = ZonalField(setup.basis, rows[values.index(best_val)])

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
        best_objective=best_val,
        final_objective=final,
        traces=traces,
        diagnostics=diagnostics,
    )
