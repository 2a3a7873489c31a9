import math
import re

import numpy as np
import pytest

import paneitz_lab.bubbles as bubbles
import paneitz_lab.spectral as spectral
import paneitz_lab.zonal as zonal

from paneitz_lab.bubbles import (
    DEFAULT_EPS_GRID,
    BubbleSpec,
    bubble_field,
    bubble_profile,
    elementary_inequality_check,
    elementary_inequality_constant,
    epsilon_sweep,
    functional_Y,
    lemma3_bound,
    profile_quotient,
)
from paneitz_lab.einstein import sharp_constant_oracle
from paneitz_lab.zonal import ZonalField, constant_field


def test_spec_validation():
    with pytest.raises(ValueError):
        BubbleSpec(eps=0.0)
    with pytest.raises(ValueError):
        BubbleSpec(eps=0.1, center="equator")
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            BubbleSpec(eps=eps)


def test_profile_plateau_and_cutoff(setup12):
    spec = BubbleSpec(eps=0.1)
    theta = setup12.rule.theta
    phi, _, _ = bubble_profile(theta, spec, 12)
    inner = theta <= 0.5
    expected = (theta[inner] ** 2 + 0.01) ** (-4.0)
    assert np.allclose(phi[inner], expected, rtol=1e-14)
    assert np.all(phi[theta >= 1.0] == 0.0)


def test_profile_derivatives_match_fd():
    spec = BubbleSpec(eps=0.15)
    theta = np.linspace(0.05, 1.3, 200)
    h = 1e-6
    phi, dphi, d2phi = bubble_profile(theta, spec, 12)
    pp, _, _ = bubble_profile(theta + h, spec, 12)
    pm, _, _ = bubble_profile(theta - h, spec, 12)
    assert np.max(np.abs((pp - pm) / (2 * h) - dphi)) < 1e-5 * np.max(np.abs(dphi))
    assert np.max(np.abs((pp - 2 * phi + pm) / h**2 - d2phi)) < 1e-3 * np.max(np.abs(d2phi))


def test_Y_constant_is_oracle(setup5):
    v = constant_field(setup5.basis)
    assert functional_Y(v, setup5.coeffs) == pytest.approx(sharp_constant_oracle(5), rel=1e-10)
    # scale invariance
    assert functional_Y(v * 3.0, setup5.coeffs) == pytest.approx(
        functional_Y(v, setup5.coeffs), rel=1e-12
    )


def test_Y_z1_above_constant(setup5):
    e1 = np.zeros(setup5.basis.dim)
    e1[1] = 1.0
    assert functional_Y(ZonalField(setup5.basis, e1), setup5.coeffs) > sharp_constant_oracle(5)


def test_bubble_normalization(setup12):
    bf = bubble_field(BubbleSpec(eps=0.1), setup12.basis)
    N = setup12.coeffs.N
    rule = setup12.rule
    phi_vals, _, _ = bubble_profile(rule.theta, bf.spec, 12)
    mass = rule.integrate((bf.c_eps * phi_vals) ** N)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_alias_guard(setup12):
    with pytest.raises(ValueError, match="alias"):
        bubble_field(BubbleSpec(eps=0.01), setup12.basis)


@pytest.mark.parametrize("q, L", [(200, 48), (1600, 400)])
@pytest.mark.parametrize("n", [5, 12, 50])
def test_grid_projection_is_the_per_spec_projection(n, q, L):
    # one product over the eps grid each way against a quadrature projection
    # and a synthesis per spec: equal to rounding, in grid order
    setup = spectral.round_setup(n, q=q, L=L)
    N = setup.coeffs.N
    fields = bubble_field([BubbleSpec(eps=e) for e in DEFAULT_EPS_GRID], setup.basis)
    assert [bf.spec.eps for bf in fields] == list(DEFAULT_EPS_GRID)
    for bf in fields:
        phi_vals, _, _ = bubble_profile(setup.rule.theta, bf.spec, n)
        ref = zonal.analyze(setup.basis, phi_vals).coeffs
        c_eps = setup.rule.lN_mass(phi_vals, N) ** (-1.0 / N)
        assert np.max(np.abs(bf.phi.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert bf.c_eps == pytest.approx(c_eps, rel=1e-13)
        assert np.max(np.abs(bf.v.coeffs - c_eps * ref)) <= 1e-13 * c_eps * np.max(np.abs(ref))
        values = zonal.synthesize(bf.v)
        assert np.max(np.abs(bf.v.values - values)) <= 1e-13 * np.max(np.abs(values))


def test_grid_is_refused_at_its_point_under_the_alias_floor(setup12):
    # the last point is the one under the floor, and the message names it
    message = "eps=0.01 under the alias floor 0.0471; need q >= 943 nodes"
    grid = [BubbleSpec(eps=e) for e in (*DEFAULT_EPS_GRID, 0.01)]
    with pytest.raises(ValueError, match=re.escape(message)):
        bubble_field(grid, setup12.basis)
    with pytest.raises(ValueError, match=re.escape(message)):
        lemma3_bound(12, sharp_constant_oracle(12), (*DEFAULT_EPS_GRID, 0.01))


@pytest.mark.parametrize("n", [131, 151])
def test_an_overflowing_bubble_mass_is_taken_at_unit_scale(n):
    # |phi_eps|^N overflows at eps = 0.05 from n = 131 on at q = 1600: the
    # mass is taken of phi / max|phi| and the scale folded back, so v_eps
    # has unit mass and the quotient is finite (4.5e-3 below K2^(-2) at
    # n = 151, the rule's known sub-sharp defect at the narrowest eps)
    setup = spectral.round_setup(n, q=1600, L=16)
    N = setup.coeffs.N
    spec = BubbleSpec(eps=0.05)
    phi_vals, _, _ = bubble_profile(setup.rule.theta, spec, n)
    with np.errstate(over="ignore"):
        assert setup.rule.lN_mass(phi_vals, N) == math.inf
    bf = bubble_field(spec, setup.basis)
    assert setup.rule.lN_mass(bf.c_eps * phi_vals, N) == pytest.approx(1.0, rel=1e-13)
    Y = profile_quotient(spec, setup.coeffs, setup.rule)
    assert math.isfinite(Y) and abs(Y / sharp_constant_oracle(n) - 1) < 1e-2


def test_c_eps_scaling_law(setup12):
    # log c_eps against log eps has slope ~ (n-4)/2 for small eps
    logs = [
        math.log(bubble_field(BubbleSpec(eps=e), setup12.basis).c_eps) for e in DEFAULT_EPS_GRID
    ]
    slope = np.polyfit(np.log(DEFAULT_EPS_GRID), logs, 1)[0]
    assert slope == pytest.approx((12 - 4) / 2, rel=0.1)


def test_sweep_guards():
    with pytest.raises(ValueError):
        epsilon_sweep(DEFAULT_EPS_GRID, 5)  # n must exceed 6
    with pytest.raises(ValueError):
        epsilon_sweep((0.1, 0.2), 12)  # too few points
    for grid in ((0.1, 0.1, 0.1), (0.1, 0.1, 0.2)):  # too few distinct points
        with pytest.raises(ValueError, match="need at least 3 distinct grid points"):
            epsilon_sweep(grid, 12)


@pytest.mark.parametrize("n, eps, mass", [(12, 2e13, "4.94e-322"), (30, 1.5e5, "1.27e-320")])
def test_subnormal_bubble_mass_is_refused(n, eps, mass):
    # a subnormal L^N mass has lost its digits: at n = 12 the excess read
    # 1.0074769 at eps = 2e13 against 0.98565137 for every eps <= 1e11
    setup = spectral.round_setup(n, q=200, L=16)
    message = f"eps={eps} is too large at n={n}: the L^N mass of phi_eps underflows to {mass}"
    with pytest.raises(ValueError, match=re.escape(message)):
        profile_quotient(BubbleSpec(eps=eps), setup.coeffs, setup.rule)


def test_sweep_fit_quality():
    rep = epsilon_sweep(DEFAULT_EPS_GRID, 12)
    oracle = sharp_constant_oracle(12)
    assert rep.A == pytest.approx(oracle, rel=0.02)
    assert rep.residual <= 0.01
    # constants minimize the sharp quotient on the round sphere, so the
    # well-resolved samples sit at or above the limit and the fitted
    # quadratic slope is negative (the narrowest profile carries ~0.2%
    # quadrature error and may dip slightly below)
    assert np.all(rep.Y[1:] >= oracle * (1 - 1e-6))
    assert rep.C < 0


def test_lemma3_bound_structure():
    oracle = sharp_constant_oracle(12)
    rep = lemma3_bound(12, oracle, DEFAULT_EPS_GRID)
    assert rep.rhs == pytest.approx(2 ** (1 / 3) * oracle, rel=1e-12)
    assert rep.hypothesis_ok
    assert rep.best_bound == rep.bounds.min()
    assert rep.ratio < 1.05
    # degenerate large-eps end is far above the target
    assert rep.bounds[0] > rep.bounds[-1]
    assert not lemma3_bound(8, sharp_constant_oracle(8), (0.1, 0.2)).hypothesis_ok


@pytest.mark.parametrize("n", [12, 20, 30])
def test_lemma3_ladder_descends_to_the_target(n):
    # the two-plane bound approaches 2^(4/n) K2^(-2) from above as the basis
    # resolves a narrower bubble: non-increasing in L, never below the target
    # (ratio - 1 runs from 3.3e-2 to 1.8e-5 at n = 12, 7.1e-2 to 1.7e-7 at n = 30)
    ratios = []
    for L in (24, 48, 96, 192, 400):
        q = max(200, 4 * L)
        eps = np.geomspace(1.05 * 3 * math.pi / q, 0.45, 14)
        ratios.append(lemma3_bound(n, sharp_constant_oracle(n), eps, q=q, L=L).ratio)
    ratios = np.array(ratios)
    assert np.all(np.diff(ratios) <= 0), ratios
    assert np.all(ratios >= 1 - 1e-9), ratios


@pytest.mark.parametrize("n", [5, 12, 100])
def test_lemma3_target_is_the_round_pair_value(n):
    # the target in scaled form: exactly 2^(4/n) K2^(-2) when mu1 = K2^(-2),
    # and the closed form wherever its n/4-th powers stay finite
    K = sharp_constant_oracle(n)
    assert lemma3_bound(n, K, (0.1, 0.2)).rhs == 2.0 ** (4.0 / n) * K
    rhs = lemma3_bound(n, 3.0 * K, (0.1, 0.2)).rhs
    assert rhs == pytest.approx(((3.0 * K) ** (n / 4) + K ** (n / 4)) ** (4 / n), rel=1e-13)


@pytest.mark.parametrize(
    "n, mu1, message",
    [pytest.param(12, mu1, "mu1", id=str(mu1)) for mu1 in (-1.0, 0.0, math.nan, math.inf)]
    + [pytest.param(20, 1e300, "the two-plane bound at n=20, eps=0.05 is not finite (nan)", id="1e+300")],
)
def test_lemma3_bound_refuses_a_meaningless_mu1(n, mu1, message):
    # mu1 = -1 and 0 once gave ratios 1149 and 1072 at n = 12, without an
    # error; a finite mu1 whose power 1/(N-2) overflows gives no bound
    with pytest.raises(ValueError, match=re.escape(message)):
        lemma3_bound(n, mu1, DEFAULT_EPS_GRID)


def test_lemma3_bound_refuses_the_rank_one_plane():
    # at L = 0 the bubble's projection is a constant, so the plane is one
    # line, whose 2x2 mass rounds to a positive determinant: it is refused
    # by name, not by numpy's Cholesky
    with pytest.raises(spectral.DegeneratePencilError, match="plane is degenerate"):
        lemma3_bound(12, 100.0, L=0)


@pytest.mark.parametrize("n", [152, 200, 282])
def test_lemma3_bound_is_finite_where_the_mass_of_u_overflows(n):
    # the L^N mass of u_eps overflows from n = 152 on, that of u_eps / max u_eps
    # never does; at n = 283 u_eps itself overflows (test_cli refuses it)
    rep = lemma3_bound(n, sharp_constant_oracle(n))
    assert np.isfinite(rep.bounds).all()
    assert rep.ratio >= 1 - 1e-9


def test_lemma3_bound_folds_the_mass_scale_back_exactly(monkeypatch):
    # at n = 151, the last n where the mass of u_eps is finite, each bound
    # is sup * (int u_eps^N)^(4/n) to 1e-12 relative
    n = 151
    unscaled = []
    minimax = bubbles.minimax_over_plane

    def recorded(A_diag, u, v, w):
        sup = minimax(A_diag, u, v, w)
        unscaled.append(sup * u.lN_mass() ** (4.0 / n))
        return sup

    monkeypatch.setattr(bubbles, "minimax_over_plane", recorded)
    rep = lemma3_bound(n, sharp_constant_oracle(n))
    assert np.isfinite(unscaled).all()
    np.testing.assert_allclose(rep.bounds, unscaled, rtol=1e-12, atol=0)


def test_lemma3_bound_forms_no_full_mass(monkeypatch):
    # the bound reads three entries of B(u) per eps; it must form only the
    # plane's 2x2 mass, never the (L+1)x(L+1) one
    shapes = []
    kernel = spectral.mass_from_values

    def counted(*args, **kwargs):
        M = kernel(*args, **kwargs)
        shapes.append(M.shape)
        return M

    monkeypatch.setattr(spectral, "mass_from_values", counted)
    lemma3_bound(12, sharp_constant_oracle(12), DEFAULT_EPS_GRID, q=200, L=48)
    assert shapes == [(2, 2)] * len(DEFAULT_EPS_GRID)


def test_lemma3_bound_reuses_the_callers_basis(monkeypatch):
    # the job's own setup is held, so the bound builds no second basis table
    spectral.round_setup(12, q=400, L=96)
    builds = []
    build = zonal.build_basis

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(zonal, "build_basis", counted)
    lemma3_bound(12, sharp_constant_oracle(12), DEFAULT_EPS_GRID, q=400, L=96)
    assert builds == []
    # a smaller L is the held table's leading rows, those of a fresh build
    view = spectral.round_setup(12, q=400, L=48)
    assert builds == []
    assert view.basis.table.tobytes() == build(view.rule, 48).table.tobytes()
    spectral.round_setup(12, q=401, L=48)  # the counter sees a build that does happen
    assert len(builds) == 1


def test_elementary_inequality_cases():
    assert elementary_inequality_check(3.0, 3.0, 50_000) == 0  # binomial equality
    assert elementary_inequality_check(4.0, 16.0, 50_000) == 0
    assert elementary_inequality_check(4.0, 0.1, 10_000) > 0
    with pytest.raises(ValueError):
        elementary_inequality_check(2.0, 1.0, 10)
    with pytest.raises(ValueError, match="exponent must exceed 2"):
        elementary_inequality_constant(2.0)


@pytest.mark.parametrize("p, sharp", [(3, 3.0), (4, 7.0), (5, 15.0), (2.5, 2.5)])
def test_elementary_inequality_constant_is_sharp(p, sharp):
    # the closed form: 2^(p-1) - 1 from p = 3 on, at x = y, and p below it,
    # approached as y/x -> 0; the sampler finds no violation at the constant
    # and some a tenth below it
    assert elementary_inequality_constant(p) == pytest.approx(sharp, rel=0, abs=1e-12)
    assert elementary_inequality_check(p, sharp, 10_000) == 0
    assert elementary_inequality_check(p, sharp - 0.1, 10_000) > 0


def test_profile_quotient_matches_basis_route(setup12):
    # analytic node evaluation and coefficient-space evaluation agree for a
    # wide, well-resolved bubble
    spec = BubbleSpec(eps=0.2)
    analytic = profile_quotient(spec, setup12.coeffs, setup12.rule)
    bf = bubble_field(spec, setup12.basis)
    basis_route = functional_Y(bf.v, setup12.coeffs)
    # L = 48 truncation of the bubble leaves a few-tenths-percent offset
    assert analytic == pytest.approx(basis_route, rel=5e-3)
