"""Descent over conformal densities for the normalized eigenvalue invariants.

The density is parameterized as u = q^2 with q a zonal field of moderate
degree, which keeps u >= 0 while allowing zeros (generalized metrics).
The objective lambda_bar_k(u) = lambda_k(u) (int u^N)^(4/n) is scale
invariant; eigenvalue crossings near two-bubble configurations are handled
by soft-min/soft-max smoothing with an annealed temperature.
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

GAP_TOL = 1e-6      # relative eigenvalue gap below which the gradient is smoothed
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
    max_iters: int = 500
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
    objectives: list[float] = field(default_factory=list)   # accepted surrogate values
    lambda_bars: list[float] = field(default_factory=list)  # raw lambda_bar_k
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
    """c scaled so that u = q^2 has unit L^N mass; leading axes of c are a
    stack of coefficient rows, each scaled on its own."""
    qvals = np.matmul(basis.table.T, c[..., None])[..., 0]
    mass = np.asarray(basis.rule.lN_mass(qvals, 2 * N))
    if (mass <= 0).any() or not np.isfinite(mass).all():
        raise ValueError("degenerate parameterization (zero or non-finite mass)")
    return c * _float_power(mass, -1.0 / (2 * N))[..., None]


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


def _node_values(basis: ZonalBasis, V: np.ndarray) -> np.ndarray:
    """Node values of each coefficient column of V (..., dim, m), as rows
    (..., m, q); one matrix-vector product per column."""
    return np.matmul(basis.table.T, V.swapaxes(-1, -2)[..., None])[..., 0]


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
    return _eig_gradient(qvals, _node_values(setup.basis, V)[k - 1], lam[k - 1], setup)


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


def _constant_start(basis: ZonalBasis, N: float) -> ZonalField:
    c = np.zeros(basis.dim)
    c[0] = 1.0
    return ZonalField(basis, _renormalize(c, basis, N))


def _random_start(basis: ZonalBasis, N: float, rng) -> ZonalField:
    decay = 0.5 ** np.arange(basis.dim)
    c = rng.standard_normal(basis.dim) * decay
    c[0] += 1.0  # bias away from heavily degenerate densities
    return ZonalField(basis, _renormalize(c, basis, N))


def _surrogate(spectra: list[list[float]], T: list[float], k: int):
    """Objectives of a stack of spectra (lists of eigenvalues), smoothed
    across near-crossings.

    Activation widens with the temperature: early iterations smooth
    over gaps up to a few T (the two-bubble near-collision), annealing
    sharpens the surrogate back to the plain eigenvalue.  Returns the
    objectives, and for each smoothed row its eigenvalue indices and
    their weights; every other row weighs lambda_k alone.
    """
    J, soft = [], {}
    for r, (spec, t) in enumerate(zip(spectra, T)):
        lk = spec[k - 1]
        # the lower crossing is a ridge (lambda_k is locally a max): widen
        # its activation so the descent walks the ridge instead of zigzagging
        lo = k > 1 and lk - spec[k - 2] < max(GAP_TOL, 0.02) * abs(lk)
        hi = len(spec) > k and spec[k] - lk < max(GAP_TOL * abs(lk), 5.0 * t)
        if not lo and not hi:
            J.append(lk)
            continue
        idx = [k - 2] * lo + [k - 1] + [k] * hi
        vals = [spec[j] for j in idx]
        if lo:
            # top of the colliding cluster: soft-max, never colder than the
            # gap itself so both branches keep real weight on the ridge
            t = max(t, max(vals) - min(vals))
            z = [v / t for v in vals]
        else:
            # isolated below, colliding above: soft-min
            z, t = [-v / t for v in vals], -t
        zmax = max(z)
        p = np.exp([v - zmax for v in z])
        total = p.sum()
        J.append(t * (zmax + math.log(total)))
        soft[r] = idx, p / total
    return J, soft


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

    Each restart keeps its own temperature, surrogate, Armijo step, grow
    flag, 40-trial cap and status; each iteration and each line-search
    trial round solves all of its still-pending rows in one stacked call.
    A row that stops leaves the stack.  Returns the final coefficient rows,
    their lambda_bar_k and the traces.
    """
    basis, N, k = setup.basis, setup.coeffs.N, config.k
    kmax = min(k + 1, basis.dim)
    traces = [RunTrace(start_label=label, pencil_solves=1) for label, _ in starts]
    c = _renormalize(np.array([start.coeffs for _, start in starts]), basis, N)
    qvals, lam, V = _solve_rows(c, setup, kmax)
    final_c, final_lam = np.empty_like(c), np.empty(len(c))  # filled by stop()
    # row r of the stack is restart live[r], with its Armijo step and grow flag
    live, step, grow = list(range(len(c))), [0.25] * len(c), [False] * len(c)

    def stop(rows: list[int], status: str) -> list[int]:
        """Take the given rows out of the stack with their final state."""
        nonlocal live, step, grow, c, qvals, lam, V
        for r in rows:
            traces[live[r]].status = status
            final_c[live[r]], final_lam[live[r]] = c[r], lam[r, k - 1]
        keep = [r for r in range(len(live)) if r not in rows]
        live, step, grow = ([x[r] for r in keep] for x in (live, step, grow))
        c, qvals, lam, V = c[keep], qvals[keep], lam[keep], V[keep]
        return keep

    for it in range(config.max_iters):
        if not live:
            break
        lam_k = lam[:, k - 1].tolist()
        T = [max(1e-3 * lk * 0.98**it, 1e-10 * lk) for lk in lam_k]
        J, soft = _surrogate(lam.tolist(), T, k)
        # eigenfield node values; the gradient sums those of the eigenvalues
        # each row's surrogate weighs, in their order, with its weights
        w_vals = _node_values(basis, V)
        grads = _eig_gradient(qvals[:, None], w_vals, lam, setup)
        weights = np.zeros((len(live), kmax))
        weights[:, k - 1] = 1.0
        used = weights > 0
        for r, (idx, p) in soft.items():
            weights[r, idx], used[r, idx] = p, True
        g = np.zeros_like(c)
        for j in range(kmax):
            m = used[:, j]
            if m.any():
                g[m] += weights[m, j, None] * grads[m, j]
        gnorm_rows = np.sqrt(np.vecdot(g, g))
        gnorm = gnorm_rows.tolist()
        gaps = (lam[:, k] - lam[:, k - 1]).tolist() if kmax > k else [math.nan] * len(live)
        residuals = _fixed_point_residual(basis.rule, w_vals[:, k - 1], qvals**2, N).tolist()
        converged = []
        for r, i in enumerate(live):
            trace = traces[i]
            trace.objectives.append(J[r])
            trace.lambda_bars.append(lam_k[r])
            trace.grad_norms.append(gnorm[r])
            trace.gaps.append(gaps[r])
            trace.residuals.append(residuals[r])
            if gnorm[r] <= GRAD_TOL * max(abs(J[r]), 1.0):
                converged.append(r)
        # Armijo backtracking along the normalized direction; the step is a
        # displacement in coefficient space, comparable across iterations.
        # Each iteration starts from the last accepted step, doubled (up to
        # 0.25) only if that step was accepted at once and gained at least
        # half its linear prediction (Nocedal & Wright, 2nd ed., sec. 3.5)
        if converged:
            keep = stop(converged, "gradient-converged")
            J, T, gnorm = ([x[r] for r in keep] for x in (J, T, gnorm))
            g, gnorm_rows = g[keep], gnorm_rows[keep]
        d = g / gnorm_rows[:, None]
        step = [min(s * 2.0, 0.25) if up else s for s, up in zip(step, grow)]
        pending = list(range(len(live)))
        for trial in range(40):
            if not pending:
                break
            # every live row takes the first trial; gather only the rest
            at = slice(None) if trial == 0 else pending
            c_new, q_new, lam_new, V_new, refused = _solve_trials(
                c[at] - np.array([step[r] for r in pending])[:, None] * d[at], setup, kmax
            )
            J_try, _ = _surrogate(lam_new.tolist(), [T[r] for r in pending], k)
            won, lost = [], []
            for p, r in enumerate(pending):
                trace = traces[live[r]]
                exc, solved = refused.get(p, (None, True))
                trace.pencil_solves += solved
                if exc is not None:
                    trace.annotations.append(f"iter {it}: step rejected ({exc})")
                elif math.isfinite(J_try[p]) and J_try[p] <= J[r] - 1e-4 * step[r] * gnorm[r]:
                    grow[r] = trial == 0 and J[r] - J_try[p] >= 0.5 * step[r] * gnorm[r]
                    won.append(p)
                    continue
                trace.rejected_trials += 1
                step[r] *= 0.5
                lost.append(r)
            if len(won) == len(live):
                c, qvals, lam, V = c_new, q_new, lam_new, V_new
            elif won:
                rows = [pending[p] for p in won]
                c[rows], qvals[rows] = c_new[won], q_new[won]
                lam[rows], V[rows] = lam_new[won], V_new[won]
            pending = lost
        if pending:
            stop(pending, "line-search-stalled")
    stop(list(range(len(live))), "max-iters")
    return final_c, final_lam.tolist(), traces


def _starts(config: OptimizerConfig, setup: SphereSetup) -> list[tuple[str, ZonalField]]:
    """The first config.restarts of: the antipodal two-bubble configuration,
    the constant, then seeded random coefficient draws."""
    N = setup.coeffs.N
    rng = np.random.default_rng(config.seed)
    starts = [
        ("two-bubble", two_bubble_initializer(INIT_EPS, INIT_SPLIT, setup.basis)),
        ("constant", _constant_start(setup.basis, N)),
    ][: config.restarts]
    for i in range(config.restarts - len(starts)):
        starts.append((f"random-{i}", _random_start(setup.basis, N, rng)))
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
            trace.lambda_bars.append(val)
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
