import numpy as np
import pytest

import paneitz_lab.optimizer as optimizer
from paneitz_lab.einstein import sharp_constant_oracle
from paneitz_lab.optimizer import (
    DensityParameterization,
    OptimizerConfig,
    _engine,
    _renormalize,
    gradient,
    minimize,
    objective,
    two_bubble_initializer,
)


@pytest.fixture(scope="module")
def engine12():
    return _engine(OptimizerConfig(n=12, k=2))


@pytest.fixture(scope="module")
def engine5():
    return _engine(OptimizerConfig(n=5, k=1))


def test_constant_objective_matches_oracle(engine5):
    c = np.zeros(engine5.basis.dim)
    c[0] = 1.0
    p = DensityParameterization(c)
    assert objective(p, 1, engine5) == pytest.approx(sharp_constant_oracle(5), rel=1e-10)
    # second eigenvalue of the round pencil
    assert objective(p, 2, engine5) == pytest.approx(921.4494609652465, rel=1e-8)


def test_objective_scale_invariance(engine12):
    rng = np.random.default_rng(0)
    c = rng.standard_normal(engine12.basis.dim)
    a = objective(DensityParameterization(c), 2, engine12)
    b = objective(DensityParameterization(2.0 * c), 2, engine12)
    assert a == pytest.approx(b, rel=1e-12)


def test_gradient_orthogonal_to_scaling(engine12):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(engine12.basis.dim)
    c[0] += 1.0
    p = DensityParameterization(_renormalize(c, engine12.basis, engine12.coeffs.N))
    g = gradient(p, 2, engine12)
    cosine = g @ p.coeffs / (np.linalg.norm(g) * np.linalg.norm(p.coeffs))
    assert abs(cosine) < 1e-10


def test_constant_is_stationary_for_k1(engine5):
    c = np.zeros(engine5.basis.dim)
    c[0] = 1.0
    p = DensityParameterization(_renormalize(c, engine5.basis, engine5.coeffs.N))
    g = gradient(p, 1, engine5)
    assert np.linalg.norm(g) < 1e-8


def test_two_bubble_initializer_limits(engine12):
    from paneitz_lab.zonal import ZonalField

    # an equal split is symmetric about the equator (quadrature nodes come in
    # mirror pairs, so reversing the node order flips theta -> pi - theta)
    for eps in (0.1, 2.0):
        vals = ZonalField(engine12.basis, two_bubble_initializer(eps, 0.5, engine12.basis).coeffs).values
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


def test_minimize_k2_trace_and_ordering():
    cfg = OptimizerConfig(n=12, k=2, restarts=3, max_iters=80, seed=5)
    res = minimize(cfg)
    for tr in res.traces:
        assert np.all(np.diff(tr.objectives) <= 1e-9)  # accepted-step monotone
    start_val = res.traces[0].lambda_bars[0]
    assert res.best_objective <= start_val
    assert res.diagnostics["round_pair_bound"] == pytest.approx(
        2 ** (1 / 3) * sharp_constant_oracle(12)
    )


def test_step_grows_only_after_an_easy_acceptance(monkeypatch):
    # an iteration whose first trial is accepted costs one solve; the bound
    # leaves room for a quarter of the iterations to backtrack once
    solves = 0
    solve = optimizer._solve

    def counting(*args):
        nonlocal solves
        solves += 1
        return solve(*args)

    monkeypatch.setattr(optimizer, "_solve", counting)
    cfg = OptimizerConfig(n=12, k=2, restarts=3, max_iters=200, seed=0)
    res = minimize(cfg)
    iterations = sum(len(tr.objectives) for tr in res.traces)
    assert solves <= 1.25 * iterations + cfg.restarts
    # the record's counters are the solves made
    assert solves == sum(tr.pencil_solves for tr in res.traces)
    for tr in res.traces:
        assert tr.pencil_solves <= 1 + len(tr.objectives) + tr.rejected_trials


def test_minimize_determinism():
    cfg = OptimizerConfig(n=12, k=2, restarts=2, max_iters=40, seed=9)
    a = minimize(cfg)
    b = minimize(cfg)
    assert np.array_equal(a.best.coeffs, b.best.coeffs)
    assert a.final_objective == b.final_objective
    for ta, tb in zip(a.traces, b.traces):
        assert ta.objectives == tb.objectives


def test_degenerate_parameterization_rejected():
    with pytest.raises(ValueError):
        DensityParameterization(np.zeros(17))


@pytest.mark.parametrize("n", range(5, 25))
def test_renormalize_and_k1_minimum_in_every_dimension(n):
    # 2N = 4n/(n-4) is rarely an even integer: the mass must integrate |q|^(2N)
    setup = _engine(OptimizerConfig(n=n, k=1))
    N = setup.coeffs.N
    rng = np.random.default_rng(n)
    c = rng.standard_normal(setup.basis.dim) * 0.5 ** np.arange(setup.basis.dim)
    qvals = setup.basis.table.T @ _renormalize(c, setup.basis, N)
    assert setup.rule.integrate((qvals**2) ** N) == pytest.approx(1.0, abs=1e-12)
    res = minimize(OptimizerConfig(n=n, k=1, restarts=2, max_iters=20))
    assert res.final_objective == pytest.approx(sharp_constant_oracle(n), rel=1e-8)
