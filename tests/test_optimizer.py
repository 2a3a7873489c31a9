import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paneitz_lab.optimizer as optimizer
from conftest import full_table, two_bubble_field
from paneitz_lab.einstein import sharp_constant_oracle
from paneitz_lab.optimizer import (
    GRAD_TOL,
    INIT_EPS,
    OptimizerConfig,
    _backtrack,
    _descend,
    _node_values,
    _renormalize,
    _solve_rows,
    _space,
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
    # the start is symmetric about the equator (quadrature nodes come in
    # mirror pairs, so reversing the node order flips theta -> pi - theta),
    # and it is the equal split of the two-bubble family with its odd
    # coefficients, rounding error, dropped
    q = two_bubble_initializer(engine12.basis)
    vals = q.values
    assert np.max(np.abs(vals - vals[::-1])) < 1e-9 * np.max(np.abs(vals))
    assert not q.coeffs[1::2].any()  # so it descends as an even start
    family = two_bubble_field(engine12.basis, INIT_EPS, 0.5).coeffs
    assert np.abs(family[1::2]).max() <= 1e-14 * np.abs(family).max()
    family[1::2] = 0.0
    N = engine12.coeffs.N
    assert q.coeffs.tobytes() == _renormalize(family, engine12.basis, N).tobytes()
    # a single bubble is concentrated but still resolvable: within ~50% of
    # the sharp value
    single = two_bubble_field(engine12.basis, INIT_EPS, 1.0)
    assert objective(single, 1, engine12) < 1.5 * sharp_constant_oracle(12)


def test_zero_iterations_returns_initializer():
    # the same loop with one round and no step: each trace is its start
    cfg = OptimizerConfig(n=12, k=2, restarts=2, max_iters=0)
    res = minimize(cfg)
    assert [(tr.status, len(tr.objectives)) for tr in res.traces] == [("max-iters", 1)] * 2
    assert res.best_objective == min(tr.objectives[0] for tr in res.traces)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    _, start = _starts(cfg, setup)[[tr.objectives[0] for tr in res.traces].index(res.best_objective)]
    assert res.best.coeffs.tobytes() == _renormalize(start.coeffs, setup.basis, setup.coeffs.N).tobytes()


def test_minimize_k1_does_not_beat_round_value():
    res = minimize(OptimizerConfig(n=5, k=1, restarts=2, max_iters=120))
    oracle = sharp_constant_oracle(5)
    assert res.final_objective <= oracle * (1 + 1e-6)
    # zonal candidates cannot go below the sharp value either
    assert res.final_objective >= oracle * (1 - 1e-6)


@pytest.mark.parametrize("n", [5, 7, 12, 20])
def test_attainment_product_never_drops_below_one(n):
    # on the round sphere mu_2 is 2^(4/n) K2^(-2) (ROADMAP item 1): a product
    # below 1 would be a discretization defect, not attainment
    res = minimize(OptimizerConfig(n=n, k=2, restarts=2, max_iters=60))
    assert res.diagnostics["attainment_product"] >= 1 - 1e-8


def test_minimize_k2_trace_and_ordering():
    cfg = OptimizerConfig(n=12, k=2, restarts=2, max_iters=80)
    res = minimize(cfg)
    for tr in res.traces:
        assert np.all(np.diff(tr.objectives) <= 1e-9)  # accepted-step monotone
    start_val = res.traces[0].objectives[0]
    assert res.best_objective <= start_val
    assert res.diagnostics["round_pair_bound"] == pytest.approx(
        2 ** (1 / 3) * sharp_constant_oracle(12)
    )


def test_default_descent_is_cheap_and_monotone(monkeypatch):
    # the default n = 12 run descends the even constant start in its even
    # coefficients and stops on a small gradient after at most 50 pencil
    # solves (it makes 45), every restart's objective never rises, q stays
    # even, and product - 1 stays at or below 1.6e-3 (it reads 1.596e-3)
    solves = 0
    solve = optimizer._solve_rows

    def counting(c, *args):
        nonlocal solves
        solves += 1
        return solve(c, *args)

    monkeypatch.setattr(optimizer, "_solve_rows", counting)
    res = minimize(OptimizerConfig(n=12, k=2))
    # the record's counters are the solves made
    assert solves == sum(tr.pencil_solves for tr in res.traces) <= 50
    assert [tr.status for tr in res.traces] == ["gradient-converged"]
    assert not res.best.coeffs[1::2].any()
    assert res.diagnostics["attainment_product"] - 1 <= 1.6e-3
    for tr in res.traces:
        assert np.all(np.diff(tr.objectives) <= 0)
        assert tr.pencil_solves <= len(tr.objectives) + tr.rejected_trials


@pytest.mark.parametrize("n", [5, 7, 12, 20, 30, 50, 150])
def test_the_even_descent_costs_no_more_than_the_full_one(n, monkeypatch):
    # the default run descends the even constant start in its even
    # coefficients; against the same start descended in every coefficient
    # under the same stop, it makes no more solves (66 against 72 at n = 5,
    # 53 against 121 at n = 150), reads product - 1 within 0.1 % and
    # returns an even q
    cfg = OptimizerConfig(n=n, k=2)
    res = minimize(cfg)
    space = optimizer._space
    monkeypatch.setattr(optimizer, "_space", lambda setup, even: space(setup, even=False))
    full = minimize(cfg)
    assert res.traces[0].pencil_solves <= full.traces[0].pencil_solves
    excess = full.diagnostics["attainment_product"] - 1
    assert res.diagnostics["attainment_product"] - 1 <= 1.001 * excess
    assert not res.best.coeffs[1::2].any()


def _even_densities(setup):
    """The even q of the constant and of the two-bubble start on a setup."""
    constant = np.zeros(setup.basis.dim)
    constant[0] = 1.0
    return {"constant": constant, "two-bubble": two_bubble_initializer(setup.basis).coeffs}


@pytest.mark.parametrize("q", [200, 201])
@pytest.mark.parametrize("L", [16, 48])
@pytest.mark.parametrize("n", [5, 12, 20])
def test_the_parity_sectors_solve_the_full_pencil(n, L, q):
    # an even q solved in its two sectors on the half rule gives the full
    # pencil's lowest eigenvalues, and its eigenfields' values at the
    # nonnegative nodes up to sign; with q odd, x = 0 is a node of the half
    setup = round_setup(n, q=q, L=L)
    even, full = _space(setup, even=True), _space(setup, even=False)
    m = q // 2
    assert even.rule.nodes[0] == (0.0 if q % 2 else setup.rule.nodes[m])
    assert even.rule.weights.sum() == pytest.approx(setup.rule.weights.sum(), rel=1e-13)
    kmax = 4
    for label, c in _even_densities(setup).items():
        c = _renormalize(c, full, full.N)
        qvals, lam, V = _solve_rows(c[::2], even, kmax)
        qfull, lam_full, V_full = _solve_rows(c, full, kmax)
        np.testing.assert_allclose(qvals, qfull[m:], rtol=0, atol=1e-13 * np.abs(qfull).max())
        np.testing.assert_allclose(lam, lam_full, rtol=1e-12, atol=0, err_msg=label)
        for j in range(kmax):
            w, w_full = _node_values(V[..., j], even), _node_values(V_full[:, j], full)[m:]
            w_full = w_full * np.sign(w @ w_full)
            assert np.abs(w - w_full).max() <= 1e-10 * np.abs(w_full).max(), (label, j)


def test_an_odd_node_count_descends_even():
    # q = 201 puts a node at x = 0, which the half rule counts once
    res = minimize(OptimizerConfig(n=12, q_nodes=201))
    assert not res.best.coeffs[1::2].any()
    assert [tr.status for tr in res.traces] == ["gradient-converged"]
    assert res.diagnostics["attainment_product"] - 1 <= 1.6e-3


@pytest.mark.parametrize("n, excess", [(7, 2.5987e-2), (12, 4.6212e-3), (20, 1.8556e-3)])
def test_default_product_is_no_worse_than_steepest_descent(n, excess, request):
    # product - 1 of the steepest descent this descent replaced, at its seed 0
    res = request.getfixturevalue("minimize12") if n == 12 else minimize(OptimizerConfig(n=n, k=2))
    assert res.diagnostics["attainment_product"] - 1 <= excess


@pytest.mark.parametrize("n, k", [(5, 2), (12, 2), (20, 2), (12, 1)], ids=["5", "12", "20", "12-k1"])
def test_default_starts_return_the_two_start_winner(n, k, request):
    # the two-bubble start never wins: the default descends the constant
    # start alone and returns the same bits
    res = minimize(OptimizerConfig(n=n, k=k))
    assert [tr.start_label for tr in res.traces] == ["constant"]
    two = (
        request.getfixturevalue("minimize12") if (n, k) == (12, 2)
        else minimize(OptimizerConfig(n=n, k=k, restarts=2))
    )
    assert [tr.start_label for tr in two.traces] == ["constant", "two-bubble"]
    assert res.best.coeffs.tobytes() == two.best.coeffs.tobytes()
    assert res.best_objective == two.best_objective
    assert res.final_objective == two.final_objective


@pytest.mark.parametrize(
    "config",
    [OptimizerConfig(n=12, k=1, L_final=2, restarts=2), OptimizerConfig(n=6, k=1)]
    + [OptimizerConfig(n=n, k=k) for n in (5, 12, 20) for k in (1, 2)],
    ids=["12-k1-L2", "6-k1", "5-k1", "5-k2", "12-k1", "12-k2", "20-k1", "20-k2"],
)
def test_final_objective_exceeds_the_descent_by_rounding_at_most(config):
    # the L_final basis contains the descent's; where both solves agree in
    # exact arithmetic (the first two cases), the re-evaluation lands a few
    # ulps above best_objective: 1914.4360194261028 -> ...033 and
    # 247.28444736615984 -> ...6052
    res = minimize(config)
    assert res.final_objective <= res.best_objective * (1 + 1e-14)


def _trace_bits(trace):
    """Everything a trace records but its wall times, as comparable bits."""
    lists = (trace.objectives, trace.grad_norms, trace.gaps, trace.residuals)
    return [np.asarray(v).tobytes() for v in lists] + [
        trace.status, trace.annotations, trace.pencil_solves, trace.rejected_trials
    ]


@pytest.mark.parametrize(
    "n, k, restarts, max_iters",
    [(12, 2, 2, OptimizerConfig(n=12).max_iters), (5, 2, 2, 500), (8, 2, 2, 200), (8, 2, 2, 58),
     (5, 1, 2, 120)],
    ids=["12", "5", "8", "8-short", "5-k1-converged"],
)
def test_each_restart_descends_as_if_alone(n, k, restarts, max_iters, request):
    # minimize runs every start, and its winner, the start whose trace ends
    # lowest, is that start's own descent, bit for bit
    cfg = OptimizerConfig(n=n, k=k, restarts=restarts, max_iters=max_iters)
    res = request.getfixturevalue("minimize12") if n == 12 else minimize(cfg)
    assert len(res.traces) == cfg.restarts
    if k == 1:
        # its constant restart converges on iteration 1; the two-bubble one,
        # even, runs to the cap
        assert [(tr.status, len(tr.objectives)) for tr in res.traces] == [
            ("gradient-converged", 1), ("max-iters", max_iters + 1)
        ]
    winner = min(range(len(res.traces)), key=lambda i: res.traces[i].objectives[-1])
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    c, trace = _descend(*_starts(cfg, setup)[winner], cfg, setup)
    assert _trace_bits(res.traces[winner]) == _trace_bits(trace)
    assert res.best.coeffs.tobytes() == c.tobytes()
    assert res.best_objective == trace.objectives[-1]


def test_the_winner_is_the_lowest_start_wherever_it_is_listed(monkeypatch):
    # the constant start ends lowest; listed second, it still wins
    cfg = OptimizerConfig(n=8, k=2, restarts=2, max_iters=20)
    monkeypatch.setattr(optimizer, "_starts", lambda *args: _starts(*args)[::-1])
    res = minimize(cfg)
    assert [tr.start_label for tr in res.traces] == ["two-bubble", "constant"]
    ends = [tr.objectives[-1] for tr in res.traces]
    assert ends.index(min(ends)) == 1
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    c, trace = _descend(*_starts(cfg, setup)[0], cfg, setup)
    assert res.best.coeffs.tobytes() == c.tobytes()
    assert res.best_objective == trace.objectives[-1] == min(ends)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(1e-12, 1.0), slope=st.floats(-1e6, -1e-9), J=st.floats(-1e6, 1e6), rise=st.floats(0.0, 1e6),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_a_rejected_trial_shrinks_the_step(t, slope, J, rise, bad):
    # a finite trial that fails Armijo moves t into [0.1 t, 0.5 t]; a
    # non-finite one halves it exactly
    J_try = J + 1e-4 * t * slope + rise
    if J_try > J + 1e-4 * t * slope:
        assert 0.1 * t <= _backtrack(t, slope, J, J_try) <= 0.5 * t
    assert _backtrack(t, slope, J, bad) == 0.5 * t


@pytest.mark.parametrize("n", [5, 6, 7, 8, 12, 20, 30, 50, 150, 258, 334])
def test_default_descent_stops_on_its_stationarity(n):
    # the default stops at the first state whose |g| |c| / lambda_bar_k is
    # at most GRAD_TOL, a test that reads the same in every dimension, and
    # the trace reports that measure of the state it returns; at n = 6 the
    # descent needs 69 steps and ends on the cap of 60
    res = minimize(OptimizerConfig(n=n, k=2))
    (tr,) = res.traces
    assert tr.status == ("max-iters" if n == 6 else "gradient-converged")
    assert (tr.stationarity <= GRAD_TOL) == (tr.status == "gradient-converged")
    cnorm = np.linalg.norm(res.best.coeffs)
    assert tr.stationarity == pytest.approx(tr.grad_norms[-1] * cnorm / tr.objectives[-1], rel=1e-12)


@pytest.mark.parametrize("stall, max_iters", [(10, 30), (29, 30)], ids=["mid-descent", "at-cap"])
def test_a_forced_stall_ends_the_descent(stall, max_iters, monkeypatch):
    # every trial on one iteration is refused: the descent stops as stalled
    # after 40 rejected trials, also on the cap iteration, and is never
    # solved again
    cfg = OptimizerConfig(n=8, k=2, restarts=2, max_iters=max_iters)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    label, start = _starts(cfg, setup)[-1]
    _, clean = _descend(label, start, cfg, setup)
    stopped = OptimizerConfig(n=8, k=2, restarts=2, max_iters=stall)
    _, before = _descend(label, start, stopped, setup)
    iteration, solved, refused = -1, 0, 0
    eig_gradient, solve = optimizer._eig_gradient, optimizer._solve_rows

    def counting(*args):  # the descent takes one gradient per iteration
        nonlocal iteration
        iteration += 1
        return eig_gradient(*args)

    def refusing(c, *args):
        nonlocal solved, refused
        solved += 1
        qvals, lam, V = solve(c, *args)
        if iteration == stall:
            lam[:] = np.nan
            refused += 1
        return qvals, lam, V

    monkeypatch.setattr(optimizer, "_eig_gradient", counting)
    monkeypatch.setattr(optimizer, "_solve_rows", refusing)
    _, hit = _descend(label, start, cfg, setup)
    assert refused == 40
    assert (hit.status, len(hit.objectives)) == ("line-search-stalled", stall + 1)
    assert hit.objectives == clean.objectives[: stall + 1]
    assert hit.rejected_trials == before.rejected_trials + 40
    assert hit.pencil_solves == before.pencil_solves + 40
    assert solved == hit.pencil_solves  # no solve after the stall


@pytest.mark.parametrize("n", [5, 12])
def test_descent_takes_the_checked_gradient(n):
    # each restart's first step follows gradient(), the function that the
    # finite-difference criterion checks; both starts are even, and gradient()
    # solves them in the descent's space, so the step is its even part, bit
    # for bit, and its odd partials are exactly 0
    cfg = OptimizerConfig(n=n, k=2, restarts=2, max_iters=1)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    for label, start in _starts(cfg, setup):
        _, trace = _descend(label, start, cfg, setup)
        g = gradient(start, cfg.k, setup)
        assert trace.grad_norms[0] == pytest.approx(np.linalg.norm(g), rel=1e-12)
        moved = np.ascontiguousarray(g[::2])
        assert trace.grad_norms[0] == math.sqrt(moved @ moved) and not g[1::2].any()


@pytest.mark.parametrize("n, seed", [(12, 0), (20, 1)])
def test_a_trial_refused_by_its_solve_is_counted(n, seed, monkeypatch):
    # the first trial's pencil solve raises: that trial is annotated,
    # counted as solved (its renormalization passed) and rejected
    cfg = OptimizerConfig(n=n, k=2, seed=seed, max_iters=30)
    baseline = minimize(cfg)
    calls = 0
    solve = optimizer._solve_rows

    def flaky(c, *args):
        nonlocal calls
        calls += 1
        if calls == 2:  # the start's solve, then the first trial
            raise ValueError("injected")
        return solve(c, *args)

    monkeypatch.setattr(optimizer, "_solve_rows", flaky)
    (hit,), (clean,) = minimize(cfg).traces, baseline.traces
    assert hit.annotations == ["iter 0: step rejected (injected)"] and not clean.annotations
    assert hit.objectives[0] == clean.objectives[0]
    assert hit.rejected_trials >= 1
    assert hit.pencil_solves == len(hit.objectives) + hit.rejected_trials == calls


def test_a_trial_refused_before_its_solve_is_not_counted(monkeypatch):
    # a trial that _renormalize refuses is annotated and rejected, but it
    # was never solved, so pencil_solves does not count it
    cfg = OptimizerConfig(n=12, k=2, max_iters=30)
    baseline = minimize(cfg)
    calls, solves = 0, 0
    renormalize, solve = optimizer._renormalize, optimizer._solve_rows

    def flaky(c, *args):
        nonlocal calls
        calls += 1
        if calls == 2:  # the start, then the first trial
            raise ValueError("injected")
        return renormalize(c, *args)

    def counting(c, *args):
        nonlocal solves
        solves += 1
        return solve(c, *args)

    monkeypatch.setattr(optimizer, "_renormalize", flaky)
    monkeypatch.setattr(optimizer, "_solve_rows", counting)
    (hit,), (clean,) = minimize(cfg).traces, baseline.traces
    assert hit.annotations == ["iter 0: step rejected (injected)"] and not clean.annotations
    assert hit.objectives[0] == clean.objectives[0]
    assert hit.rejected_trials >= 1
    assert hit.pencil_solves == solves == len(hit.objectives) + hit.rejected_trials - 1


@pytest.mark.parametrize("n", [150, 258])
def test_first_step_scales_with_the_coefficients(n):
    # the coefficients of a unit-mass q scale with Vol(S^n), so a first step
    # of fixed length stalls every restart at its start from n ~ 150 on
    res = minimize(OptimizerConfig(n=n, k=2, restarts=2))
    for tr in res.traces:
        assert (tr.status, len(tr.objectives)) != ("line-search-stalled", 1)
    assert res.diagnostics["attainment_product"] - 1 <= 1e-4
    # the engine value is the lowest terminal objective of all the restarts
    assert res.best_objective == min(tr.objectives[-1] for tr in res.traces)


def test_restarts_are_run_exactly():
    for restarts, labels in [
        (1, ["constant"]),
        (2, ["constant", "two-bubble"]),
    ]:
        res = minimize(OptimizerConfig(n=12, k=2, restarts=restarts, max_iters=0))
        assert [tr.start_label for tr in res.traces] == labels
    for restarts in (0, 3, 8):
        with pytest.raises(ValueError, match=f"restarts must be 1 or 2, got {restarts}"):
            OptimizerConfig(n=12, restarts=restarts)
    with pytest.raises(ValueError, match=r"max_iters \(--iterations\) must be >= 0, got -3"):
        OptimizerConfig(n=12, max_iters=-3)
    with pytest.raises(ValueError, match="k must be 1 or 2, got 3"):
        OptimizerConfig(n=12, k=3)
    # k = 2 reads three eigenvalues, so L_final = 1 is refused by name
    with pytest.raises(ValueError, match="need L_final >= 2, got L_final = 1"):
        OptimizerConfig(n=12, L_final=1)


def test_too_few_quadrature_nodes_are_refused_before_the_descent(monkeypatch):
    # q_nodes <= L_final would alias the final basis: refused by both keys
    # before a single pencil is solved
    calls = []
    monkeypatch.setattr(optimizer, "_solve_rows", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="need q_nodes > L_final .*got q_nodes = 48, L_final = 48"):
        minimize(OptimizerConfig(n=12, k=2, q_nodes=48))
    assert calls == []


def test_minimize_determinism():
    cfg = OptimizerConfig(n=12, k=2, restarts=2, max_iters=40)
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
    assert np.array_equal(res.best.basis.even, setup.basis.even)
    assert np.array_equal(res.best.basis.odd, setup.basis.odd)
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
    qvals = full_table(setup.basis).T @ _renormalize(c, setup.basis, N)
    assert setup.rule.integrate((qvals**2) ** N) == pytest.approx(1.0, abs=1e-12)
    res = minimize(OptimizerConfig(n=n, k=1, restarts=2, max_iters=20))
    assert res.final_objective == pytest.approx(sharp_constant_oracle(n), rel=1e-8)
