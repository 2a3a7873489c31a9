import math

import numpy as np
import pytest

from paneitz_lab.einstein import euclidean_sphere_area, sharp_constant_oracle, sphere_volume
from paneitz_lab.sobolev import (
    bubble_radius,
    build_radial_grid,
    euclidean_corollary_check,
    lemma1_audit,
    make_report,
    refined_inequality_ratio,
)
from paneitz_lab.spectral import constant_density, round_setup
from paneitz_lab.zonal import constant_field


def test_verdict_consistency():
    assert make_report("x", 1.0, 2.0).verdict == "holds"
    assert make_report("x", 2.0, 1.0).verdict == "violated"
    assert make_report("x", 1.0, 1.0 + 1e-12).verdict == "boundary"


def test_radial_grid_ball_volume():
    for n in (5, 12):
        grid, R = build_radial_grid(n), bubble_radius(n)
        ball = euclidean_sphere_area(n) * R**n / n
        indicator = np.where(grid.r <= R, 1.0, 0.0)
        assert grid.integrate(indicator) == pytest.approx(ball, rel=1e-10)
        assert np.all(grid.weights > 0)


def test_radial_grid_tail_panel():
    # integral of r^(-n-1) over r > R is known in closed form
    n = 5
    grid, R = build_radial_grid(n), bubble_radius(n)
    vals = np.where(grid.r > R, grid.r ** (-n - 1.0), 0.0)
    # with the surface measure the integrand is r^(-2), so the tail is area/R
    expected = euclidean_sphere_area(n) / R
    assert grid.integrate(vals) == pytest.approx(expected, rel=1e-10)


def test_standard_bubble_is_sharp_extremal():
    # in every dimension with a normal bubble mass: the flat-space quotient
    # is the canonical sharp constant, the corollary's ratio is 2^(4/n), and
    # the core radius leaves at most 1e-9 of the u^N mass to the tail panel
    # (the doubled core from n = 200 on resolves the u^N peak, whose width
    # narrows like 1/sqrt(n); on 400 nodes the ratio misses by 1.6e-10)
    for n in range(5, 340):
        rep = euclidean_corollary_check(n)
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
        assert abs(rep.ratio / 2 ** (4 / n) - 1) <= 1e-13, n
        assert abs(rep.details["v_sharp_quotient"] / sharp_constant_oracle(n) - 1) <= 1e-13, n
        assert rep.details["tail_fraction"] <= 1e-9, n
        assert rep.verdict == "violated"


@pytest.mark.parametrize("n", [5, 6, 7, 8, 12, 20, 40])
def test_bubble_radius_keeps_the_tail_small(n):
    # the grid's core radius is the bubble's; only n = 5 needs more than 50
    R = bubble_radius(n)
    assert R == 50.0 if n >= 6 else R > 50.0
    # the core ends below R and the tail panel starts above it
    grid = build_radial_grid(n)
    assert grid.r[grid.core_count - 1] < R < grid.r[grid.core_count]


@pytest.mark.parametrize("n", [51, 52, 60])
def test_radial_grid_stays_finite_in_high_dimensions(n):
    # r^(n-1) overflows at the outermost tail node from n = 52 on; the grid
    # drops such nodes instead of carrying an infinite weight into inf * 0
    grid = build_radial_grid(n)
    assert np.all(np.isfinite(grid.weights)) and np.all(grid.weights > 0)
    assert len(grid.r) == (600 if n <= 51 else 599 if n == 52 else 598)


@pytest.mark.parametrize("n", [250, 300, 334])
def test_radial_grid_resolves_the_bubble_in_high_dimensions(n):
    # r^(n-1) overflows inside the core here: the grid drops those outer
    # nodes and the whole tail panel, and keeps no infinite weight (the
    # every-n test holds the corollary's values on these grids)
    grid = build_radial_grid(n)
    assert np.all(np.isfinite(grid.weights))
    assert grid.core_count == len(grid.r)


@pytest.mark.parametrize("n", [340, 341, 342, 343])
def test_an_underflowing_bubble_mass_is_refused(n):
    # past n = 339 the bubble's u^N underflows to 0 at every node, beyond
    # what the power-of-two lift can restore
    with pytest.raises(ValueError, match=f"below the normal double range at n = {n}$"):
        euclidean_corollary_check(n)


def test_non_finite_sides_are_refused():
    with pytest.raises(ValueError, match="x: non-finite side"):
        make_report("x", math.nan, 1.0)
    with pytest.raises(ValueError, match="x: non-finite side"):
        make_report("x", 1.0, math.inf)


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

    fields = bubble_field([BubbleSpec(eps=e) for e in (0.05, 0.1)], setup12.basis)
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
