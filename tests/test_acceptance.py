"""Acceptance suite: one test (one pass/fail line under -v) per criterion."""

import json
import math

import numpy as np
import pytest

from conftest import random_density
from paneitz_lab.einstein import (
    EinsteinData,
    derive_coefficients,
    q_curvature_einstein,
    sharp_constant_oracle,
    sharp_constant_report,
    sphere_volume,
)
from paneitz_lab.spectral import (
    assemble_mass,
    constant_density,
    normalized_invariant,
    rayleigh,
    round_setup,
    solve_density,
)
from paneitz_lab.zonal import ZonalField


def test_criterion_01_coefficient_identities():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(5, 21))
        S = float(rng.uniform(1e-6, 1e3))
        data = EinsteinData(n=n, S=S)
        c = derive_coefficients(data)
        identity = c.alpha**2 / 4 - c.alpha_bar
        target = S**2 / (n**2 * (n - 1) ** 2)
        assert abs(identity - target) <= 1e-12 * target
        assert abs(c.a + c.b - c.alpha) <= 1e-12 * abs(c.alpha)
        assert abs(c.a * c.b - c.alpha_bar) <= 1e-12 * abs(c.alpha_bar)
        q = q_curvature_einstein(data)
        assert abs((n - 4) / 2 * q - c.alpha_bar) <= 1e-12 * abs(c.alpha_bar)


def test_criterion_02_round_sphere_spectrum():
    for n in (5, 6, 8, 12):
        setup = round_setup(n, q=200, L=48)
        u = constant_density(setup.basis, setup.coeffs.N)
        spec = solve_density(setup, u, 10)
        vol = sphere_volume(n)
        c = setup.coeffs
        for l in range(10):
            mu = l * (l + n - 1)
            expected = (mu**2 + c.alpha * mu + c.alpha_bar) * vol ** (4.0 / n)
            got = normalized_invariant(spec, u, l + 1)
            assert abs(got - expected) <= 1e-8 * expected
    # spot values
    setup = round_setup(5, q=200, L=48)
    u = constant_density(setup.basis, setup.coeffs.N)
    spec = solve_density(setup, u, 2)
    assert spec.eigenvalues[0] == pytest.approx(102.38327344058294, rel=1e-8)
    assert spec.eigenvalues[1] == pytest.approx(921.4494609652465, rel=1e-8)


def test_criterion_03_sharp_constant_audit(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    lam1 = solve_density(setup5, u, 1).eigenvalues[0]
    oracle = sharp_constant_oracle(5)
    assert abs(lam1 - oracle) <= 1e-8 * oracle
    report = sharp_constant_report(setup5.data)
    assert report.ratios["paper_over_oracle"] >= 1.5  # discrepancy detected, reported


def test_criterion_04_plane_minimax(setup5_opt):
    rng = np.random.default_rng(4)
    theta = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    B_cache = None
    for _ in range(50):
        u = random_density(setup5_opt.basis, setup5_opt.coeffs.N, rng)
        spec = solve_density(setup5_opt, u, 2)
        v1, v2 = spec.eigenfields
        B = assemble_mass(u, setup5_opt.basis)
        sup = max(
            rayleigh(
                setup5_opt.A_diag,
                B,
                ZonalField(setup5_opt.basis, math.cos(t) * v1.coeffs + math.sin(t) * v2.coeffs),
            )
            for t in theta
        )
        lam2 = spec.eigenvalues[1]
        assert abs(sup - lam2) <= 1e-8 * lam2


def test_criterion_05_positivity_lift(setup5):
    from paneitz_lab.toolkit import positivity_lift

    rng = np.random.default_rng(0)
    for _ in range(50):
        u = random_density(setup5.basis, setup5.coeffs.N, rng, bias=0.0)
        spec = solve_density(setup5, u, 1)
        v = spec.eigenfields[0]
        lam1 = float(spec.eigenvalues[0])
        res = positivity_lift(v, setup5.coeffs, u, lam1)
        assert np.all(res.f.values > 0)
        assert np.all(res.f.values >= np.abs(v.values) - 1e-10)
        B = assemble_mass(u, setup5.basis)
        f_hat = ZonalField(setup5.basis, res.k * res.f.coeffs)
        assert rayleigh(setup5.A_diag, B, f_hat) >= lam1 - 1e-8


def test_criterion_06_orthogonal_pair(setup5_opt):
    from paneitz_lab.toolkit import orthogonal_pair

    rng = np.random.default_rng(6)
    basis = setup5_opt.basis
    done = 0
    while done < 100:
        u = random_density(basis, setup5_opt.coeffs.N, rng)
        B = assemble_mass(u, basis)
        cv = rng.standard_normal(basis.dim)
        cs = rng.standard_normal(basis.dim)
        cv = cv / math.sqrt(cv @ B @ cv)
        cs = cs / math.sqrt(cs @ B @ cs)
        # near-proportional draws amplify round-off through 1/sqrt(1-t^2);
        # the construction itself requires non-proportional inputs
        if abs(cv @ B @ cs) >= 0.9:
            continue
        pair = orthogonal_pair(ZonalField(basis, cv), ZonalField(basis, cs), u)
        assert abs(pair.cross_constraint) <= 1e-12
        assert abs(pair.norm_constraint - 1.0) <= 1e-12
        assert math.isfinite(pair.printed_norm_value)  # defect (1+t)/t reported
        done += 1


def test_criterion_07_gradient_finite_differences():
    from paneitz_lab.optimizer import (
        DegenerateGapError,
        OptimizerConfig,
        _renormalize,
        gradient,
        objective,
    )

    cfg = OptimizerConfig(n=12, k=2)
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    N = setup.coeffs.N
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        c = rng.standard_normal(setup.basis.dim) * 0.5 ** np.arange(setup.basis.dim)
        c[0] += 1.0
        p = ZonalField(setup.basis, _renormalize(c, setup.basis, N))
        try:
            g = gradient(p, 2, setup)
        except DegenerateGapError:
            continue
        h = 1e-5
        fd = np.zeros_like(p.coeffs)
        for m in range(len(fd)):
            e = np.zeros_like(fd)
            e[m] = h
            fp = objective(ZonalField(setup.basis, p.coeffs + e), 2, setup)
            fm = objective(ZonalField(setup.basis, p.coeffs - e), 2, setup)
            fd[m] = (fp - fm) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd)
        checked += 1


def test_criterion_08_bubble_sweep_limit():
    from paneitz_lab.bubbles import DEFAULT_EPS_GRID, epsilon_sweep

    rep = epsilon_sweep(DEFAULT_EPS_GRID, 12)
    oracle = sharp_constant_oracle(12)
    assert abs(rep.A - oracle) <= 0.02 * oracle
    assert rep.residual <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason=(
        "on the round sphere the sharp quotient is minimized by constants, so "
        "Y(phi_eps) approaches its small-eps limit from above and the fitted "
        "quadratic coefficient comes out negative; the expected positive sign "
        "cannot occur in this geometry"
    ),
)
def test_criterion_08_bubble_sweep_quadratic_sign():
    from paneitz_lab.bubbles import DEFAULT_EPS_GRID, epsilon_sweep

    rep = epsilon_sweep(DEFAULT_EPS_GRID, 12)
    assert rep.C > 0


def test_criterion_09_two_plane_bound_margin(minimize12):
    from paneitz_lab.bubbles import DEFAULT_EPS_GRID, lemma3_bound

    oracle = sharp_constant_oracle(12)
    rep = lemma3_bound(12, oracle, DEFAULT_EPS_GRID)
    target = 2.0 ** (4.0 / 12.0) * oracle
    assert rep.best_bound <= target * 1.05
    assert minimize12.final_objective <= rep.best_bound


def test_criterion_10_nodal_diagnostics(minimize12):
    from paneitz_lab.optimizer import _renormalize, two_bubble_initializer
    from paneitz_lab.spectral import ConformalDensity, solve_density
    from paneitz_lab.toolkit import fixed_point_residual, nodal_profile

    cfg = minimize12.config
    setup = round_setup(cfg.n, q=cfg.q_nodes, L=cfg.L_opt)
    N = setup.coeffs.N

    def second_pair(params):
        c = _renormalize(params.coeffs, setup.basis, N)
        u = ConformalDensity(setup.basis, ZonalField(setup.basis, c).values**2, N)
        spec = solve_density(setup, u, 2)
        return u, spec.eigenfields[0], spec.eigenfields[1]

    u_t, v_t, w_t = second_pair(minimize12.best)
    profile = nodal_profile(w_t, u_t, v_t)
    assert profile.sign_changes >= 1
    assert abs(profile.weighted_orthogonality) <= 1e-8
    u_0, _, w_0 = second_pair(two_bubble_initializer(0.1, 0.5, setup.basis))
    assert fixed_point_residual(w_t, u_t) < fixed_point_residual(w_0, u_0)


def test_criterion_11_refined_inequality_audit():
    from paneitz_lab.optimizer import two_bubble_initializer
    from paneitz_lab.sobolev import refined_inequality_ratio
    from paneitz_lab.spectral import density_from_sqrt_field
    from paneitz_lab.zonal import constant_field

    for n in (5, 6, 8, 12):
        setup = round_setup(n, q=200, L=16)
        u = constant_density(setup.basis, setup.coeffs.N)
        v = constant_field(setup.basis)
        report = refined_inequality_ratio(u, v, setup.coeffs)
        assert abs(report.ratio - 2.0 ** (4.0 / n)) <= 1e-10
        assert report.verdict == "violated"
    for n in (5, 12):
        setup = round_setup(n, q=200, L=16)
        for eps in (0.1, 0.15, 0.2):
            p = two_bubble_initializer(eps, 0.5, setup.basis)
            u = density_from_sqrt_field(p, setup.coeffs.N)
            report = refined_inequality_ratio(u, constant_field(setup.basis), setup.coeffs)
            assert report.details["lam2_form_ratio"] >= 1.0


def test_criterion_12_elementary_inequality():
    from paneitz_lab.bubbles import elementary_inequality_check

    for p in (2.5, 3.0, 4.0, 5.5):
        assert elementary_inequality_check(p, 2.0**p, 100_000, seed=12) == 0
    assert elementary_inequality_check(4.0, 0.1, 100_000, seed=12) > 0


def test_criterion_13_record_determinism(tmp_path):
    from paneitz_lab.cli import ExperimentConfig, dispatch

    config = ExperimentConfig(
        command="minimize", n=12, k=2, restarts=2, iterations=20, seed=3, out=str(tmp_path)
    )
    dispatch(config)
    record = tmp_path / config.config_hash / "record.json"
    first = record.read_bytes()
    dispatch(config)
    assert record.read_bytes() == first
    assert json.loads(first)["schema"] == 1
