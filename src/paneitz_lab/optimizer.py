"""Descent over conformal densities for the normalized eigenvalue invariants.

The density is parameterized as u = q^2 with q a zonal field of moderate
degree, which keeps u >= 0 while allowing zeros (generalized metrics).
The objective lambda_bar_k(u) = lambda_k(u) (int u^N)^(4/n) is scale
invariant; eigenvalue crossings near two-bubble configurations are handled
by soft-min/soft-max smoothing with an annealed temperature.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bubbles import BubbleSpec, bubble_profile
from .einstein import _critical_exponent, sharp_constant_oracle
from .spectral import (
    SphereSetup,
    assemble_mass,
    assemble_stiffness,
    density_from_sqrt_field,
    mass_from_values,
    pencil_eigen,
    round_setup,
)
from .toolkit import _fixed_point_residual
from .zonal import ZonalBasis, analyze, build_basis


class DegenerateGapError(RuntimeError):
    """Plain eigenvalue gradient requested at a near-crossing."""


@dataclass
class DensityParameterization:
    """Coefficients of q with u = q^2; degree is len(coeffs) - 1."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if not np.any(self.coeffs != 0):
            raise ValueError("all-zero parameterization is a degenerate density")

    @property
    def L_opt(self) -> int:
        return len(self.coeffs) - 1


@dataclass
class OptimizerConfig:
    n: int
    k: int = 2
    L_opt: int = 16
    restarts: int = 8
    max_iters: int = 500
    seed: int = 0
    q_nodes: int = 200
    L_final: int = 48
    gap_tol: float = 1e-6       # relative; below this the gradient is smoothed
    grad_tol: float = 1e-7      # relative gradient-norm stopping rule
    init_eps: float = 0.1
    init_split: float = 0.5

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("dimension must be >= 5")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.L_opt < 2 or self.L_opt > self.L_final:
            raise ValueError("need 2 <= L_opt <= L_final")


@dataclass
class RunTrace:
    """Per-iteration history of one restart."""

    start_label: str
    objectives: list[float] = field(default_factory=list)   # accepted surrogate values
    lambda_bars: list[float] = field(default_factory=list)  # raw lambda_bar_k
    grad_norms: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)         # lambda_{k+1} - lambda_k
    residuals: list[float] = field(default_factory=list)    # |w|/||w||_N vs u distance
    wall_times: list[float] = field(default_factory=list)
    status: str = "running"
    annotations: list[str] = field(default_factory=list)
    pencil_solves: int = 0      # pencil eigensolves, the start's included
    rejected_trials: int = 0    # line-search trials that failed Armijo or raised


@dataclass
class MinimizeResult:
    config: OptimizerConfig
    best: DensityParameterization
    best_objective: float        # lambda_bar_k at L_opt
    final_objective: float       # re-evaluated at L_final
    traces: list[RunTrace]
    diagnostics: dict


def _engine(config: OptimizerConfig) -> SphereSetup:
    return round_setup(config.n, q=config.q_nodes, L=config.L_opt)


def _renormalize(c: np.ndarray, basis: ZonalBasis, N: float) -> np.ndarray:
    qvals = basis.table.T @ c
    mass = basis.rule.lN_mass(qvals, 2 * N)
    if mass <= 0 or not math.isfinite(mass):
        raise ValueError("degenerate parameterization (zero or non-finite mass)")
    return c * mass ** (-1.0 / (2 * N))


def _solve(
    c: np.ndarray, setup: SphereSetup, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node values q of c, then the kernel's eigenvalues and B-normalized
    coefficient columns for the pencil of u = q^2."""
    qvals = setup.basis.table.T @ c
    B = mass_from_values(setup.basis, qvals**2, setup.coeffs.N)
    lams, V, _ = pencil_eigen(setup.A_diag, B, kmax)
    return qvals, lams, V


def objective(params: DensityParameterization, k: int, setup: SphereSetup) -> float:
    """lambda_bar_k of the normalized density u = q^2."""
    c = _renormalize(params.coeffs, setup.basis, setup.coeffs.N)
    return float(_solve(c, setup, k)[1][k - 1])


def _eig_gradient(
    qvals: np.ndarray, w: np.ndarray, lam: float, setup: SphereSetup
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


def gradient(
    params: DensityParameterization, k: int, setup: SphereSetup
) -> np.ndarray:
    """Analytic gradient of lambda_bar_k; refuses near-degenerate gaps."""
    c = _renormalize(params.coeffs, setup.basis, setup.coeffs.N)
    kmax = min(k + 1, setup.basis.dim)
    qvals, lam, V = _solve(c, setup, kmax)
    tol = 1e-6 * abs(lam[k - 1])
    if k > 1 and lam[k - 1] - lam[k - 2] < tol:
        raise DegenerateGapError("eigenvalue crossing below k")
    if kmax > k and lam[k] - lam[k - 1] < tol:
        raise DegenerateGapError("eigenvalue crossing above k")
    return _eig_gradient(qvals, setup.basis.table.T @ V[:, k - 1], lam[k - 1], setup)


def two_bubble_initializer(
    eps: float, split: float, basis: ZonalBasis, delta: float = 0.5
) -> DensityParameterization:
    """q from sqrt-bubble profiles at the two poles, projected to the basis.

    split is the mass fraction at the north pole; split = 1 gives a single
    bubble, eps large flattens toward the constant.
    """
    if not 0 <= split <= 1:
        raise ValueError("split must lie in [0, 1]")
    n = basis.n
    theta = basis.rule.theta
    # sqrt of the bubble density profile: exponent (n-4)/4 in q-space
    half = BubbleSpec(eps=eps, delta=delta, center="north")
    phi_n, _, _ = bubble_profile(theta, half, n)
    phi_s, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, delta=delta, center="south"), n)
    qvals = math.sqrt(split) * np.sqrt(phi_n) + math.sqrt(1 - split) * np.sqrt(phi_s)
    c = analyze(basis, qvals).coeffs
    N = _critical_exponent(n)
    return DensityParameterization(_renormalize(c, basis, N))


def _constant_start(basis: ZonalBasis, N: float) -> DensityParameterization:
    c = np.zeros(basis.dim)
    c[0] = 1.0
    return DensityParameterization(_renormalize(c, basis, N))


def _random_start(basis: ZonalBasis, N: float, rng) -> DensityParameterization:
    decay = 0.5 ** np.arange(basis.dim)
    c = rng.standard_normal(basis.dim) * decay
    c[0] += 1.0  # bias away from heavily degenerate densities
    return DensityParameterization(_renormalize(c, basis, N))


def _descend(
    start: DensityParameterization,
    label: str,
    config: OptimizerConfig,
    setup: SphereSetup,
) -> tuple[DensityParameterization, float, RunTrace]:
    basis, coeffs = setup.basis, setup.coeffs
    N, k = coeffs.N, config.k
    kmax = min(k + 1, basis.dim)
    trace = RunTrace(start_label=label)
    c = _renormalize(start.coeffs.copy(), basis, N)
    step, grow = 0.25, False
    t0 = time.perf_counter()

    def surrogate(lam: np.ndarray, T: float):
        """Objective and eigen-weights; smoothed across near-crossings.

        Activation widens with the temperature: early iterations smooth
        over gaps up to a few T (the two-bubble near-collision), annealing
        sharpens the surrogate back to the plain eigenvalue.
        """
        # the lower crossing is a ridge (lambda_k is locally a max): widen
        # its activation so the descent walks the ridge instead of zigzagging
        tol_lo = max(config.gap_tol, 0.02) * abs(lam[k - 1])
        tol_hi = max(config.gap_tol * abs(lam[k - 1]), 5.0 * T)
        lo = k > 1 and lam[k - 1] - lam[k - 2] < tol_lo
        hi = kmax > k and lam[k] - lam[k - 1] < tol_hi
        if not lo and not hi:
            return float(lam[k - 1]), {k - 1: 1.0}
        idx = [k - 1]
        if lo:
            idx.insert(0, k - 2)
        if hi:
            idx.append(k)
        vals = lam[idx]
        if lo:
            # top of the colliding cluster: soft-max, never colder than the
            # gap itself so both branches keep real weight on the ridge
            T_eff = max(T, vals.max() - vals.min())
            z = vals / T_eff
            zmax = z.max()
            J = T_eff * (zmax + math.log(np.sum(np.exp(z - zmax))))
            p = np.exp(z - zmax)
        else:
            # isolated below, colliding above: soft-min
            z = -vals / T
            zmax = z.max()
            J = -T * (zmax + math.log(np.sum(np.exp(z - zmax))))
            p = np.exp(z - zmax)
        p = p / p.sum()
        return float(J), dict(zip(idx, p))

    qvals, lam, V = _solve(c, setup, kmax)
    trace.pencil_solves += 1
    for it in range(config.max_iters):
        lam_k = float(lam[k - 1])
        T = max(1e-3 * lam_k * 0.98**it, 1e-10 * lam_k)
        J, weights = surrogate(lam, T)
        # eigenfield node values, each synthesized once per iteration
        w_vals = {j: basis.table.T @ V[:, j] for j in {*weights, k - 1}}
        g = np.zeros_like(c)
        for j, p in weights.items():
            g += p * _eig_gradient(qvals, w_vals[j], lam[j], setup)
        gnorm = float(np.linalg.norm(g))
        gap = float(lam[k] - lam_k) if kmax > k else float("nan")
        trace.objectives.append(J)
        trace.lambda_bars.append(lam_k)
        trace.grad_norms.append(gnorm)
        trace.gaps.append(gap)
        trace.residuals.append(_fixed_point_residual(basis.rule, w_vals[k - 1], qvals**2, N))
        trace.wall_times.append(time.perf_counter() - t0)
        if gnorm <= config.grad_tol * max(abs(J), 1.0):
            trace.status = "gradient-converged"
            break
        # Armijo backtracking along the normalized direction; the step is a
        # displacement in coefficient space, comparable across iterations.
        # Each iteration starts from the last accepted step, doubled (up to
        # 0.25) only if that step was accepted at once and gained at least
        # half its linear prediction (Nocedal & Wright, 2nd ed., sec. 3.5)
        d = g / gnorm
        accepted = False
        if grow:
            step = min(step * 2.0, 0.25)
        for trial in range(40):
            try:
                c_try = _renormalize(c - step * d, basis, N)
                trace.pencil_solves += 1
                solved = _solve(c_try, setup, kmax)
            except (ValueError, ArithmeticError) as exc:
                trace.annotations.append(f"iter {it}: step rejected ({exc})")
            else:
                J_try, _ = surrogate(solved[1], T)
                if math.isfinite(J_try) and J_try <= J - 1e-4 * step * gnorm:
                    accepted = True
                    break
            trace.rejected_trials += 1
            step *= 0.5
        if not accepted:
            trace.status = "line-search-stalled"
            break
        grow = trial == 0 and J - J_try >= 0.5 * step * gnorm
        c, (qvals, lam, V) = c_try, solved
    else:
        trace.status = "max-iters"
    return DensityParameterization(c), float(lam[k - 1]), trace


def minimize(config: OptimizerConfig) -> MinimizeResult:
    """Multi-start descent; returns the best density with full traces.

    Starts: the antipodal two-bubble configuration, the constant, and
    seeded random coefficient draws.  The winner is re-evaluated on the
    finer L_final basis (a variational improvement, never an increase).
    """
    setup = _engine(config)
    N = setup.coeffs.N
    rng = np.random.default_rng(config.seed)
    starts: list[tuple[str, DensityParameterization]] = [
        ("two-bubble", two_bubble_initializer(config.init_eps, config.init_split, setup.basis)),
        ("constant", _constant_start(setup.basis, N)),
    ]
    for i in range(max(config.restarts - len(starts), 0)):
        starts.append((f"random-{i}", _random_start(setup.basis, N, rng)))

    traces, best, best_val = [], None, math.inf
    for label, start in starts:
        if config.max_iters == 0:
            val = objective(start, config.k, setup)
            trace = RunTrace(start_label=label, status="no-iterations", pencil_solves=1)
            trace.objectives.append(val)
            trace.lambda_bars.append(val)
            dens = start
        else:
            dens, val, trace = _descend(start, label, config, setup)
        traces.append(trace)
        if val < best_val:
            best, best_val = dens, val

    # final evaluation on the finer basis over the same rule: q is exact at
    # the nodes, only the eigenproblem subspace grows
    fine_basis = build_basis(setup.rule, config.L_final)
    qvals = setup.basis.table.T @ best.coeffs
    u_fine = density_from_sqrt_field(
        analyze(fine_basis, qvals), N, normalize=True
    )
    B = assemble_mass(u_fine, fine_basis)
    fine_A = assemble_stiffness(setup.coeffs, fine_basis)
    fine_lams, _, _ = pencil_eigen(fine_A, B, config.k)
    final = float(fine_lams[config.k - 1]) * u_fine.lN_mass() ** (4.0 / config.n)

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
