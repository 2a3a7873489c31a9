from dataclasses import replace

import numpy as np
import pytest

import paneitz_lab.optimizer as optimizer
from paneitz_lab.einstein import sharp_constant_oracle
from paneitz_lab.optimizer import (
    OptimizerConfig,
    _lockstep_descent,
    _renormalize,
    _starts,
    gradient,
    minimize,
    objective,
    two_bubble_initializer,
)
from paneitz_lab.spectral import (
    density_from_sqrt_field,
    normalized_invariant,
    round_setup,
    solve_density,
)
from paneitz_lab.zonal import ZonalField


@pytest.fixture(scope="module")
def engine12():
    cfg = OptimizerConfig(n=12, k=2)
    return round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)


@pytest.fixture(scope="module")
def engine5():
    cfg = OptimizerConfig(n=5, k=1)
    return round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)


def test_constant_objective_matches_oracle(engine5):
    c = np.zeros(engine5.basis.dim)
    c[0] = 1.0
    p = ZonalField(engine5.basis, c)
    assert objective(p, 1, engine5) == pytest.approx(sharp_constant_oracle(5), rel=1e-10)
    # second eigenvalue of the round pencil
    assert objective(p, 2, engine5) == pytest.approx(921.4494609652465, rel=1e-8)


def test_objective_scale_invariance(engine12):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(engine12.basis.dim)
    a = objective(ZonalField(engine12.basis, c), 2, engine12)
    b = objective(ZonalField(engine12.basis, 2.0 * c), 2, engine12)
    assert a == pytest.approx(b, rel=1e-12)


def test_gradient_orthogonal_to_scaling(engine12):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(engine12.basis.dim)
    c[0] += 1.0
    p = ZonalField(engine12.basis, _renormalize(c, engine12.basis, engine12.coeffs.N))
    g = gradient(p, 2, engine12)
    cosine = g @ p.coeffs / (np.linalg.norm(g) * np.linalg.norm(p.coeffs))
    assert abs(cosine) < 1e-10


def test_constant_is_stationary_for_k1(engine5):
    c = np.zeros(engine5.basis.dim)
    c[0] = 1.0
    p = ZonalField(engine5.basis, _renormalize(c, engine5.basis, engine5.coeffs.N))
    g = gradient(p, 1, engine5)
    assert np.linalg.norm(g) < 1e-8


def test_two_bubble_initializer_limits(engine12):
    # an equal split is symmetric about the equator (quadrature nodes come in
    # mirror pairs, so reversing the node order flips theta -> pi - theta)
    for eps in (0.1, 2.0):
        vals = two_bubble_initializer(eps, 0.5, engine12.basis).values
        assert np.max(np.abs(vals - vals[::-1])) < 1e-9 * np.max(np.abs(vals))
    single = two_bubble_initializer(0.1, 1.0, engine12.basis)
    lam1 = objective(single, 1, engine12)
    # concentrated but still resolvable: within ~50% of the sharp value
    assert lam1 < 1.5 * sharp_constant_oracle(12)
    with pytest.raises(ValueError):
        two_bubble_initializer(0.1, 1.5, engine12.basis)


def test_zero_iterations_returns_initializer():
    res = minimize(OptimizerConfig(n=12, k=2, restarts=2, max_iters=0))
    assert all(tr.status == "no-iterations" for tr in res.traces)
    assert res.best_objective == min(tr.objectives[0] for tr in res.traces)


def test_minimize_k1_does_not_beat_round_value():
    res = minimize(OptimizerConfig(n=5, k=1, restarts=3, max_iters=120))
    oracle = sharp_constant_oracle(5)
    assert res.final_objective <= oracle * (1 + 1e-6)
    # zonal candidates cannot go below the sharp value either
    assert res.final_objective >= oracle * (1 - 1e-6)


@pytest.mark.parametrize("n", [5, 7, 12, 20])
def test_attainment_product_never_drops_below_one(n):
    # on the round sphere mu_2 is 2^(4/n) K2^(-2) (ROADMAP item 1): a product
    # below 1 would be a discretization defect, not attainment
    res = minimize(OptimizerConfig(n=n, k=2, restarts=3, max_iters=60))
    assert res.diagnostics["attainment_product"] >= 1 - 1e-8


def test_minimize_k2_trace_and_ordering():
    cfg = OptimizerConfig(n=12, k=2, restarts=3, max_iters=80, seed=5)
    res = minimize(cfg)
    for tr in res.traces:
        assert np.all(np.diff(tr.objectives) <= 1e-9)  # accepted-step monotone
    start_val = res.traces[0].objectives[0]
    assert res.best_objective <= start_val
    assert res.diagnostics["round_pair_bound"] == pytest.approx(
        2 ** (1 / 3) * sharp_constant_oracle(12)
    )


def test_default_descent_is_cheap_and_monotone(monkeypatch):
    # the default n = 12 run makes at most 1,000 pencil solves, every
    # restart's objective never rises, and the product stays at or below
    # the value the steepest descent with a 500-iteration cap reached
    solves = 0
    solve = optimizer._solve_rows

    def counting(c, *args):
        nonlocal solves
        solves += len(c)  # the rows of one stacked solve
        return solve(c, *args)

    monkeypatch.setattr(optimizer, "_solve_rows", counting)
    res = minimize(OptimizerConfig(n=12, k=2, seed=0))
    # the record's counters are the solves made
    assert solves == sum(tr.pencil_solves for tr in res.traces) <= 1000
    assert res.diagnostics["attainment_product"] <= 1.0047
    for tr in res.traces:
        assert np.all(np.diff(tr.objectives) <= 0)
        assert tr.pencil_solves <= 1 + len(tr.objectives) + tr.rejected_trials


@pytest.mark.parametrize("n, excess", [(7, 2.5987e-2), (12, 4.6212e-3), (20, 1.8556e-3)])
def test_default_product_is_no_worse_than_steepest_descent(n, excess, request):
    # product - 1 at seed 0 of the steepest descent this descent replaced
    res = request.getfixturevalue("minimize12") if n == 12 else minimize(OptimizerConfig(n=n, k=2))
    assert res.diagnostics["attainment_product"] - 1 <= excess


def _trace_bits(trace):
    """Everything a trace records but its wall times, as comparable bits."""
    lists = (trace.objectives, trace.grad_norms, trace.gaps, trace.residuals)
    return [np.asarray(v).tobytes() for v in lists] + [
        trace.status, trace.annotations, trace.pencil_solves, trace.rejected_trials
    ]


@pytest.mark.parametrize(
    "n, k, restarts, max_iters",
    [(12, 2, 8, OptimizerConfig.max_iters), (5, 2, 8, 500), (8, 2, 3, 200), (8, 2, 3, 58),
     (5, 1, 3, 120)],
    ids=["12", "5", "8", "8-short", "5-k1-converged"],
)
def test_each_restart_descends_as_if_alone(n, k, restarts, max_iters, request):
    # the lockstep descent is bookkeeping: a start descended as a stack of
    # one gives the bits it gives inside the stack of all starts
    cfg = OptimizerConfig(n=n, k=k, seed=0, restarts=restarts, max_iters=max_iters)
    res = request.getfixturevalue("minimize12") if n == 12 else minimize(cfg)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    alone = [_lockstep_descent([start], cfg, setup) for start in _starts(cfg, setup)]
    assert len(alone) == len(res.traces) == cfg.restarts
    if k == 1:
        # its constant restart converges on iteration 1 and keeps its row,
        # untouched, for the rest of the descent
        assert [(tr.status, len(tr.objectives)) for tr in res.traces] == [
            ("max-iters", max_iters), ("gradient-converged", 1), ("max-iters", max_iters)
        ]
    for trace, (_, _, (trace_alone,)) in zip(res.traces, alone):
        assert _trace_bits(trace) == _trace_bits(trace_alone)
    winner = min(range(len(alone)), key=lambda i: alone[i][1][0])
    assert res.best.coeffs.tobytes() == alone[winner][0][0].tobytes()
    assert res.best_objective == alone[winner][1][0]


@pytest.mark.parametrize("stall, max_iters", [(10, 30), (29, 30)], ids=["mid-descent", "at-cap"])
def test_a_forced_stall_stops_only_its_row(stall, max_iters, monkeypatch):
    # every trial of the last restart is refused on one iteration: it stops
    # as stalled after 40 rejected trials, also on the cap iteration, is
    # never solved again, and the other restarts descend as if it never had
    cfg = OptimizerConfig(n=8, k=2, seed=0, restarts=3, max_iters=max_iters)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    starts = _starts(cfg, setup)
    *_, clean = _lockstep_descent(starts, cfg, setup)
    *_, before = _lockstep_descent(starts, replace(cfg, max_iters=stall), setup)
    iteration, solved, refused = -1, 0, 0
    eig_gradient, solve = optimizer._eig_gradient, optimizer._solve_rows

    def counting(*args):  # the descent takes one gradient per iteration
        nonlocal iteration
        iteration += 1
        return eig_gradient(*args)

    def refusing(c, *args):
        nonlocal solved, refused
        solved += len(c)
        qvals, lam, V = solve(c, *args)
        if iteration == stall:  # the last restart is the last row of every stack
            lam[-1] = np.nan
            refused += 1
        return qvals, lam, V

    monkeypatch.setattr(optimizer, "_eig_gradient", counting)
    monkeypatch.setattr(optimizer, "_solve_rows", refusing)
    *_, traces = _lockstep_descent(starts, cfg, setup)
    hit = traces[-1]
    assert refused == 40
    assert (hit.status, len(hit.objectives)) == ("line-search-stalled", stall + 1)
    assert hit.objectives == clean[-1].objectives[: stall + 1]
    assert hit.rejected_trials == before[-1].rejected_trials + 40
    # every solve after the stall is another restart's
    assert hit.pencil_solves == before[-1].pencil_solves + 40
    assert solved == sum(tr.pencil_solves for tr in traces)
    for trace, trace_clean in zip(traces[:-1], clean[:-1]):
        assert _trace_bits(trace) == _trace_bits(trace_clean)


@pytest.mark.parametrize("n", [5, 12])
def test_descent_takes_the_checked_gradient(n):
    # each restart's first step follows gradient(), the function that the
    # finite-difference criterion checks
    cfg = OptimizerConfig(n=n, k=2, max_iters=1)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    starts = _starts(cfg, setup)
    *_, traces = _lockstep_descent(starts, cfg, setup)
    for (_, start), trace in zip(starts, traces):
        norm = np.linalg.norm(gradient(start, cfg.k, setup))
        assert trace.grad_norms[0] == pytest.approx(norm, rel=1e-12)


def test_a_refused_row_costs_the_other_rows_nothing(monkeypatch):
    cfg = OptimizerConfig(n=12, k=2, restarts=3, max_iters=30)
    baseline = minimize(cfg)
    calls = []
    solve = optimizer._solve_rows

    def flaky(c, *args):
        calls.append(len(c))
        # the first trial round (all three rows) fails, then its second row
        # fails again when the round is redone row by row
        if len(calls) in (2, 4):
            raise ValueError("injected")
        return solve(c, *args)

    monkeypatch.setattr(optimizer, "_solve_rows", flaky)
    res = minimize(cfg)
    assert calls[:5] == [3, 3, 1, 1, 1]
    for i in (0, 2):
        assert _trace_bits(res.traces[i]) == _trace_bits(baseline.traces[i])
    hit, clean = res.traces[1], baseline.traces[1]
    assert hit.annotations == ["iter 0: step rejected (injected)"] and not clean.annotations
    assert hit.objectives[0] == clean.objectives[0]
    # the refused trial was solved (its renormalization passed) and rejected
    assert hit.pencil_solves == 1 + len(hit.objectives) + hit.rejected_trials
    assert hit.rejected_trials >= 1


def test_restarts_are_run_exactly():
    for restarts, labels in [
        (1, ["two-bubble"]),
        (2, ["two-bubble", "constant"]),
        (3, ["two-bubble", "constant", "random-0"]),
    ]:
        res = minimize(OptimizerConfig(n=12, k=2, restarts=restarts, max_iters=0))
        assert [tr.start_label for tr in res.traces] == labels
    with pytest.raises(ValueError, match="restarts must be >= 1, got 0"):
        OptimizerConfig(n=12, restarts=0)
    with pytest.raises(ValueError, match=r"max_iters \(--iterations\) must be >= 0, got -3"):
        OptimizerConfig(n=12, max_iters=-3)


def test_minimize_determinism():
    cfg = OptimizerConfig(n=12, k=2, restarts=2, max_iters=40, seed=9)
    a = minimize(cfg)
    b = minimize(cfg)
    assert np.array_equal(a.best.coeffs, b.best.coeffs)
    assert a.final_objective == b.final_objective
    for ta, tb in zip(a.traces, b.traces):
        assert ta.objectives == tb.objectives


def test_degenerate_parameterization_rejected(engine12):
    with pytest.raises(ValueError, match="degenerate parameterization"):
        objective(ZonalField(engine12.basis, np.zeros(17)), 2, engine12)


def test_winner_is_a_field_on_the_descent_basis():
    # the winner carries its L_opt basis, and re-solving its density there
    # gives back the reported objective
    res = minimize(OptimizerConfig(n=12, k=2, restarts=2, max_iters=20))
    setup = round_setup(12, q=200, L=16)
    assert isinstance(res.best, ZonalField)
    assert res.best.basis.L == setup.basis.L and res.best.basis.rule is setup.rule
    assert np.array_equal(res.best.basis.table, setup.basis.table)
    u = density_from_sqrt_field(res.best, setup.coeffs.N)
    value = normalized_invariant(solve_density(setup, u, 2), u, 2)
    assert value == pytest.approx(res.best_objective, rel=1e-10)


@pytest.mark.parametrize("n", range(5, 25))
def test_renormalize_and_k1_minimum_in_every_dimension(n):
    # 2N = 4n/(n-4) is rarely an even integer: the mass must integrate |q|^(2N)
    cfg = OptimizerConfig(n=n, k=1)
    setup = round_setup(n, q=cfg.q_nodes, L=cfg.L_opt)
    N = setup.coeffs.N
    rng = np.random.default_rng(n)
    c = rng.standard_normal(setup.basis.dim) * 0.5 ** np.arange(setup.basis.dim)
    qvals = setup.basis.table.T @ _renormalize(c, setup.basis, N)
    assert setup.rule.integrate((qvals**2) ** N) == pytest.approx(1.0, abs=1e-12)
    res = minimize(OptimizerConfig(n=n, k=1, restarts=2, max_iters=20))
    assert res.final_objective == pytest.approx(sharp_constant_oracle(n), rel=1e-8)
