import math

import numpy as np
import pytest

from paneitz_lab.einstein import euclidean_sphere_area, sharp_constant_oracle, sphere_volume
from paneitz_lab.sobolev import (
    RadialProfile,
    bubble_radius,
    build_radial_grid,
    euclidean_corollary_check,
    flat_laplacian,
    lemma1_audit,
    make_report,
    refined_inequality_ratio,
    standard_bubble,
)
from paneitz_lab.spectral import constant_density, round_setup
from paneitz_lab.zonal import constant_field


def test_verdict_consistency():
    assert make_report("x", 1.0, 2.0).verdict == "holds"
    assert make_report("x", 2.0, 1.0).verdict == "violated"
    assert make_report("x", 1.0, 1.0 + 1e-12).verdict == "boundary"


def test_radial_grid_ball_volume():
    for n in (5, 12):
        grid = build_radial_grid(n, R=50.0)
        ball = euclidean_sphere_area(n) * grid.R**n / n
        indicator = np.where(grid.r <= grid.R, 1.0, 0.0)
        assert grid.integrate(indicator) == pytest.approx(ball, rel=1e-10)
        assert np.all(grid.weights > 0)


def test_radial_grid_tail_panel():
    # integral of r^(-n-1) over r > R is known in closed form
    n = 5
    grid = build_radial_grid(n, R=10.0)
    vals = np.where(grid.r > grid.R, grid.r ** (-n - 1.0), 0.0)
    # with the surface measure the integrand is r^(-2), so the tail is area/R
    expected = euclidean_sphere_area(n) / grid.R
    assert grid.integrate(vals) == pytest.approx(expected, rel=1e-10)


def test_standard_bubble_is_sharp_extremal():
    # flat-space quotient of the bubble equals the canonical sharp constant
    for n in (8, 12):
        grid = build_radial_grid(n)
        rep = euclidean_corollary_check(grid, standard_bubble(n), standard_bubble(n))
        assert rep.details["v_sharp_quotient"] == pytest.approx(
            sharp_constant_oracle(n), rel=1e-10
        )
        assert rep.ratio == pytest.approx(2 ** (4 / n), rel=1e-10)
        assert rep.verdict == "violated"


@pytest.mark.parametrize("n", [5, 6, 7, 8, 12, 20, 40])
def test_bubble_radius_keeps_the_tail_small(n):
    R = bubble_radius(n)
    assert R == 50.0 if n >= 6 else R > 50.0
    rep = euclidean_corollary_check(build_radial_grid(n, R=R), standard_bubble(n), standard_bubble(n))
    assert rep.details["tail_fraction"] <= 1e-9
    assert rep.ratio == pytest.approx(2 ** (4 / n), rel=1e-10)


@pytest.mark.parametrize("n", [51, 52, 60])
def test_radial_grid_stays_finite_in_high_dimensions(n):
    # r^(n-1) overflows at the outermost tail node from n = 52 on; the grid
    # drops such nodes instead of carrying an infinite weight into inf * 0
    grid = build_radial_grid(n, R=bubble_radius(n))
    assert np.all(np.isfinite(grid.weights)) and np.all(grid.weights > 0)
    assert len(grid.r) == (600 if n <= 51 else 599 if n == 52 else 598)
    rep = euclidean_corollary_check(grid, standard_bubble(n), standard_bubble(n))
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    assert rep.ratio == pytest.approx(2 ** (4 / n), rel=1e-10)
    assert rep.details["v_sharp_quotient"] == pytest.approx(sharp_constant_oracle(n), rel=1e-10)


@pytest.mark.parametrize("n", [250, 300, 334])
def test_radial_grid_resolves_the_bubble_in_high_dimensions(n):
    # the bubble's u^N peak narrows like 1/sqrt(n); the doubled core keeps
    # the corollary at 2^(4/n) and the bubble's quotient at K_2^-2 (errors
    # up to 1.6e-10 on the 400-node core)
    grid = build_radial_grid(n, R=bubble_radius(n))
    rep = euclidean_corollary_check(grid, standard_bubble(n), standard_bubble(n))
    assert abs(rep.ratio / 2 ** (4 / n) - 1) <= 1e-13
    assert abs(rep.details["v_sharp_quotient"] / sharp_constant_oracle(n) - 1) <= 1e-13


def test_non_finite_sides_are_refused():
    with pytest.raises(ValueError, match="x: non-finite side"):
        make_report("x", math.nan, 1.0)
    with pytest.raises(ValueError, match="x: non-finite side"):
        make_report("x", 1.0, math.inf)
    # a profile whose L^N mass underflows to zero cannot be normalized
    zero = RadialProfile(f=np.zeros_like, df=np.zeros_like, d2f=np.zeros_like)
    with pytest.raises(ValueError, match="below the normal double range at n = 330"):
        euclidean_corollary_check(build_radial_grid(330), zero, standard_bubble(330))


def test_euclidean_decay_guard():
    grid = build_radial_grid(12, R=0.5)
    with pytest.raises(ValueError, match="increase R"):
        euclidean_corollary_check(grid, standard_bubble(12), standard_bubble(12))


def test_disjoint_supports_hold_trivially():
    n = 12
    grid = build_radial_grid(n)

    def gauss(c, s):
        return RadialProfile(
            f=lambda r: np.exp(-((r - c) ** 2) / s),
            df=lambda r: -2 * (r - c) / s * np.exp(-((r - c) ** 2) / s),
            d2f=lambda r: (-2 / s + 4 * (r - c) ** 2 / s**2) * np.exp(-((r - c) ** 2) / s),
        )

    rep = euclidean_corollary_check(grid, gauss(8.0, 0.5), gauss(1.0, 0.1))
    assert rep.verdict == "holds"
    assert rep.lhs < 1e-12 * rep.rhs


def test_lemma1_constant_needs_l2_term(setup5):
    v = constant_field(setup5.basis)
    rep = lemma1_audit(0.0, 0.0, [v], 5)[0]
    assert rep.verdict == "violated"
    # minimal A over constants is Vol^(-4/n)
    assert rep.details["minimal_A_for_family"] == pytest.approx(
        sphere_volume(5) ** (-4 / 5), rel=1e-10
    )


def test_lemma1_bubble_probe(setup12):
    from paneitz_lab.bubbles import BubbleSpec, bubble_field

    fields = [bubble_field(BubbleSpec(eps=e), setup12.basis).v for e in (0.05, 0.1)]
    reports = lemma1_audit(0.1, 2.0, fields, 12)
    for rep in reports:
        # concentrated profiles clear the inequality with the slack epsilon
        assert rep.verdict == "holds"
        margin = rep.details["lN_norm_sq"] / rep.details["lap_norm_sq"]
        assert margin <= (1 / sharp_constant_oracle(12)) * 1.1


def test_refined_constant_counterexample():
    for n in (5, 6, 8, 12):
        setup = round_setup(n, q=200, L=8)
        u = constant_density(setup.basis, setup.coeffs.N)
        rep = refined_inequality_ratio(u, constant_field(setup.basis), setup.coeffs)
        assert rep.ratio == pytest.approx(2 ** (4 / n), abs=1e-10)
        assert rep.verdict == "violated"
        assert rep.details["lam2_form_holds"]
