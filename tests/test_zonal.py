import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_gegenbauer

import paneitz_lab.zonal as zonal
from conftest import full_table
from paneitz_lab.bubbles import DEFAULT_EPS_GRID, BubbleSpec, _profile_mass, bubble_field, bubble_profile
from paneitz_lab.einstein import (
    euclidean_sphere_area,
    round_sphere,
    sharp_constant_oracle,
    sphere_volume,
)
from paneitz_lab.spectral import (
    constant_density,
    normalized_invariant,
    round_setup,
    solve_density,
)
from paneitz_lab.zonal import (
    MAX_QUADRATURE_NODES,
    ZonalField,
    _recurrence,
    _rows,
    analyze,
    build_basis,
    build_quadrature,
    constant_field,
    synthesize,
)


@pytest.fixture(scope="module")
def rule5():
    return build_quadrature(round_sphere(5), 40)


@pytest.fixture(scope="module")
def basis5(rule5):
    return build_basis(rule5, 12)


def test_total_measure(rule5):
    # Vol(S^5) = pi^3 by the Wallis integral
    assert rule5.weights.sum() == pytest.approx(math.pi**3, rel=1e-12)
    assert np.all(rule5.weights > 0)
    assert np.all(np.diff(rule5.nodes) > 0)


def test_wallis_moments(rule5):
    # x^2 against sin^4 weight: ratio of Wallis integrals = 1/6
    assert rule5.integrate(rule5.nodes**2) == pytest.approx(math.pi**3 / 6, rel=1e-12)
    # odd moments vanish by symmetry
    assert abs(rule5.integrate(rule5.nodes**3)) < 1e-14
    for n in (6, 8, 12):
        rule = build_quadrature(round_sphere(n), 30)
        assert rule.weights.sum() == pytest.approx(sphere_volume(n), rel=1e-12)


def _gegenbauer_rule(n, q):
    """scipy's Gauss-Gegenbauer nodes and weights for (1-x^2)^((n-2)/2),
    the weights scaled by Vol(S^(n-1)) like the package's rule."""
    x, w = roots_gegenbauer(q, (n - 1) / 2)
    return x, w * euclidean_sphere_area(n)


@pytest.mark.parametrize("n", [*range(5, 25), 30])
def test_weights_match_gegenbauer_in_every_dimension(n):
    for q in (200, 800):
        rule = build_quadrature(round_sphere(n), q)
        x, w = _gegenbauer_rule(n, q)
        assert np.max(np.abs(rule.nodes - x)) <= 5e-13
        assert np.max(np.abs(rule.weights / w - 1)) <= 1e-8
        assert abs(rule.weights.sum() / sphere_volume(n) - 1) <= 1e-12


@pytest.mark.parametrize("n", [8, 12, 20, 30])
def test_weights_match_gegenbauer_at_q1600(n):
    # scipy's own weights are off by ~1e-8 here (n = 8, against mpmath)
    rule = build_quadrature(round_sphere(n), 1600)
    x, w = _gegenbauer_rule(n, 1600)
    assert np.max(np.abs(rule.nodes - x)) <= 5e-13
    assert np.max(np.abs(rule.weights / w - 1)) <= 5e-8
    assert abs(rule.weights.sum() / sphere_volume(n) - 1) <= 1e-12


def _mp_gauss_gegenbauer(mp, q, lam, x0):
    """Node and weight of the q-point Gauss rule for (1-x^2)^(lam-1/2)
    nearest x0, in high precision: Newton on C_q^lam through the classical
    Gegenbauer recurrence, then the closed-form weight
    pi 2^(2-2lam) Gamma(q+2lam) / (q! Gamma(lam)^2 (1-x^2) C_q'(x)^2)."""

    def gegenbauer(k, a, x):
        c0, c1 = mp.mpf(1), 2 * a * x
        for j in range(2, k + 1):
            c0, c1 = c1, (2 * (j + a - 1) * x * c1 - (j + 2 * a - 2) * c0) / j
        return c1

    x = mp.mpf(x0)
    for _ in range(2):
        x -= gegenbauer(q, lam, x) / (2 * lam * gegenbauer(q - 1, lam + 1, x))
    d = 2 * lam * gegenbauer(q - 1, lam + 1, x)
    w = (
        mp.pi * mp.power(2, 2 - 2 * lam) * mp.gamma(q + 2 * lam)
        / (mp.factorial(q) * mp.gamma(lam) ** 2 * (1 - x * x) * d * d)
    )
    return x, w


@pytest.mark.parametrize("n", [8, 30])
def test_polar_weight_against_mpmath(n):
    mp = pytest.importorskip("mpmath")
    q = 1600
    rule = build_quadrature(round_sphere(n), q)
    with mp.workdps(30):
        x, w = _mp_gauss_gegenbauer(mp, q, mp.mpf(n - 1) / 2, rule.nodes[0])
        w *= euclidean_sphere_area(n)
        assert abs(float(x) - rule.nodes[0]) <= 1e-15
        assert abs(float(w / rule.weights[0]) - 1) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 40), q=st.integers(2, 64))
def test_rule_is_symmetric(n, q):
    rule = build_quadrature(round_sphere(n), q)
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert (0.0 in rule.nodes) == (q % 2 == 1)


def test_rule_is_memoized_and_read_only():
    rule = build_quadrature(round_sphere(7), 30)
    assert build_quadrature(round_sphere(7), 30) is rule
    assert build_quadrature(round_sphere(7), 31) is not rule
    for a in (rule.nodes, rule.weights, rule.theta):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_oversized_quadrature_is_refused_before_any_allocation(monkeypatch):
    # at q = 100000 the node solve's odd block alone would take 18.6 GiB; the
    # refusal must come before the rule is built
    def unreachable(n, q):
        raise AssertionError(f"rule (n={n}, q={q}) was built")

    monkeypatch.setattr(zonal, "gauss_rule", unreachable)
    for q in (MAX_QUADRATURE_NODES + 1, 100000):
        with pytest.raises(ValueError, match=rf"q={q} exceeds the cap of 6400 quadrature nodes"):
            build_quadrature(round_sphere(12), q)
    monkeypatch.setattr(zonal, "gauss_rule", lambda n, q: (n, q))
    assert build_quadrature(round_sphere(12), MAX_QUADRATURE_NODES) == (12, 6400)


def test_recurrence_b0_matches_gamma_form():
    # the gamma form overflows from n = 343 on
    for n in range(5, 341):
        b0, _ = _recurrence(n, 0)
        gamma_form = math.sqrt(math.pi) * math.gamma(n / 2) / math.gamma((n + 1) / 2)
        assert b0 == pytest.approx(gamma_form, rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, q", [(200, 1600), (340, 200), (300, 1600)])
def test_weight_underflow_refused(n, q):
    # at (300, 1600) the Christoffel sum itself overflows
    with pytest.raises(ValueError, match=f"n={n}, q={q}"):
        build_quadrature(round_sphere(n), q)


def test_lambda1_of_constant_is_sharp_at_n30_fine():
    # the Golub-Welsch weights gave lambda_bar_1 / K2^(-2) - 1 = -0.999 here
    setup = round_setup(30, q=1600, L=400)
    u = constant_density(setup.basis, setup.coeffs.N)
    lam1 = normalized_invariant(solve_density(setup, u, 1), u, 1)
    assert lam1 == pytest.approx(sharp_constant_oracle(30), rel=1e-8)


def test_quadrature_guard():
    with pytest.raises(ValueError):
        build_quadrature(round_sphere(5), 1)


def test_basis_orthonormal(basis5):
    W = basis5.rule.weights
    gram = basis5.project(basis5.values(np.eye(basis5.dim)) * W)
    assert np.max(np.abs(gram - np.eye(basis5.dim))) < 1e-10


@pytest.mark.parametrize("n, q, L", [(12, 1600, 400), (5, 200, 16)])
def test_basis_table_has_the_bits_of_the_list_and_divide_formula(n, q, L):
    # the reference: every recurrence row over the whole rule in a list,
    # stacked into one array, then divided into a second one; the basis
    # blocks are its even and odd rows at the nonnegative nodes, contiguous
    rule = build_quadrature(round_sphere(n), q)
    b0, sqrt_beta = _recurrence(n, L)
    reference = np.array(list(_rows(rule.nodes, b0, sqrt_beta))) / math.sqrt(
        euclidean_sphere_area(n)
    )
    basis, m = build_basis(rule, L), q // 2
    for block, rows in ((basis.even, reference[0::2, m:]), (basis.odd, reference[1::2, m:])):
        assert block.shape == rows.shape and block.flags.c_contiguous
        assert block.tobytes() == rows.tobytes()


def test_basis_constant_mode(basis5):
    vol = basis5.rule.weights.sum()
    assert np.allclose(basis5.even[0], vol**-0.5)
    assert basis5.eigs[1] == 5 and basis5.eigs[2] == 12  # l(l+n-1) at n=5


def test_basis_aliasing_guard(rule5):
    with pytest.raises(ValueError):
        build_basis(rule5, len(rule5.nodes))


def test_round_trip(basis5):
    rng = np.random.default_rng(1)
    c = rng.standard_normal(basis5.dim)
    f = ZonalField(basis5, c)
    back = analyze(basis5, synthesize(f))
    assert np.max(np.abs(back.coeffs - c)) < 1e-12


@pytest.mark.parametrize("q", [200, 201, 1600, 1601])
@pytest.mark.parametrize("n", [5, 12, 151])
def test_blocks_mirrored_are_the_full_rule_recurrence(n, q):
    # the recurrence is exactly sign-symmetric: the blocks at the nonnegative
    # nodes, mirrored by parity, are the full rule's rows bit for bit, and at
    # odd q every odd row is exactly 0 at x = 0
    rule = build_quadrature(round_sphere(n), q)
    basis, m = build_basis(rule, q // 4), q // 2
    reference = full_table(basis)
    for block, sign, rows in ((basis.even, 1.0, reference[0::2]), (basis.odd, -1.0, reference[1::2])):
        mirrored = np.concatenate((sign * block[:, ::-1][:, :m], block), axis=1)
        assert mirrored.tobytes() == rows.tobytes()
    if q % 2:
        assert rule.nodes[m] == 0.0 and not basis.odd[:, 0].any()


@pytest.mark.parametrize("q", [200, 201])
@pytest.mark.parametrize("n", [5, 12])
def test_round_trip_at_even_and_odd_q(n, q):
    basis = build_basis(build_quadrature(round_sphere(n), q), 48)
    c = np.random.default_rng(q).standard_normal(basis.dim)
    back = analyze(basis, synthesize(ZonalField(basis, c))).coeffs
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("q", [1600, 1601])
@pytest.mark.parametrize("n", [12, 151])
def test_bubble_field_is_the_full_table_product(n, q):
    # the coefficients of v_eps against the projection by the full table, and
    # its node values against the full table's synthesis of them
    setup = round_setup(n, q=q, L=400)
    rule, N = setup.rule, setup.coeffs.N
    T = full_table(setup.basis)
    specs = [BubbleSpec(eps=e) for e in DEFAULT_EPS_GRID]
    for spec, v in zip(specs, bubble_field(specs, setup.basis)):
        phi, _, _ = bubble_profile(rule.theta, spec, n)
        mass, scale = _profile_mass(rule, phi, N, spec)
        coeffs = T @ (rule.weights * phi) * (mass ** (-1.0 / N) / scale)
        assert np.max(np.abs(v.coeffs - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
        values = v.coeffs @ T
        assert np.max(np.abs(v.values - values)) <= 1e-13 * np.max(np.abs(values))


def test_aliasing_is_real(basis5):
    # a function of degree L+3 does not round-trip
    x = basis5.rule.nodes
    vals = x ** (basis5.L + 3)
    back = synthesize(analyze(basis5, vals))
    assert np.max(np.abs(back - vals)) > 1e-6


def test_parseval(basis5):
    rng = np.random.default_rng(2)
    f = ZonalField(basis5, rng.standard_normal(basis5.dim))
    assert basis5.rule.integrate(f.values**2) == pytest.approx(
        float(np.dot(f.coeffs, f.coeffs)), rel=1e-10
    )


def test_laplacian_matches_derivative_form(basis5):
    # Delta in coefficient space vs -(1-x^2) f'' + n x f' for a polynomial
    x = basis5.rule.nodes
    n = basis5.n
    f_vals = x**3 - 0.2 * x
    f = analyze(basis5, f_vals)
    lap = synthesize(ZonalField(basis5, basis5.eigs * f.coeffs))
    expected = -(1 - x**2) * 6 * x + n * x * (3 * x**2 - 0.2)
    assert np.max(np.abs(lap - expected)) < 1e-8


def test_constant_field_value(basis5):
    f = constant_field(basis5, 2.5)
    assert np.allclose(f.values, 2.5)


def test_field_length_check(basis5):
    with pytest.raises(ValueError):
        ZonalField(basis5, np.ones(basis5.dim + 1))
    with pytest.raises(ValueError):
        analyze(basis5, np.ones(3))
