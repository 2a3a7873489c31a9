import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh

from conftest import random_density
from paneitz_lab.einstein import sharp_constant_oracle, sphere_volume
from paneitz_lab.spectral import (
    ConformalDensity,
    DegeneratePencilError,
    assemble_mass,
    assemble_stiffness,
    constant_density,
    density_from_sqrt_field,
    mass_from_values,
    minimax_over_plane,
    normalized_invariant,
    pencil_eigen,
    rayleigh,
    restricted_mass,
    round_setup,
    solve_density,
    solve_generalized_eigen,
)
from paneitz_lab.zonal import ZonalField, constant_field


def test_stiffness_closed_form(setup5):
    A = assemble_stiffness(setup5.coeffs, setup5.basis)
    assert A[0] == pytest.approx(6.5625)
    assert A[1] == pytest.approx(59.0625)   # (5 + 1.75)(5 + 3.75)
    assert A[2] == pytest.approx(216.5625)  # 13.75 * 15.75


def test_constant_density_mass_identity(setup5):
    # B for the constant density is Vol^(-4/n) * identity
    u = constant_density(setup5.basis, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    vol = sphere_volume(5)
    assert np.max(np.abs(B - vol ** (-4 / 5) * np.eye(setup5.basis.dim))) < 1e-10


def test_round_spectrum_and_invariant(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    spec = solve_density(setup5, u, 2)
    assert spec.eigenvalues[0] == pytest.approx(sharp_constant_oracle(5), rel=1e-10)
    assert normalized_invariant(spec, u, 1) == pytest.approx(spec.eigenvalues[0])
    assert np.all(spec.residuals <= 1e-8)


def test_scale_invariance(setup5):
    rng = np.random.default_rng(3)
    u = random_density(setup5.basis, setup5.coeffs.N, rng)
    base = None
    for c in (0.1, 3.0, 10.0):
        scaled = ConformalDensity(setup5.basis, c * u.values, u.N)
        spec = solve_density(setup5, scaled, 2)
        inv = normalized_invariant(spec, scaled, 2)
        if base is None:
            base = inv
        assert inv == pytest.approx(base, rel=1e-10)


def test_b_orthonormality_and_residuals(setup5):
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = random_density(setup5.basis, setup5.coeffs.N, rng)
        spec = solve_density(setup5, u, 3)
        B = assemble_mass(u, setup5.basis)
        V = np.column_stack([f.coeffs for f in spec.eigenfields])
        gram = V.T @ B @ V
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        assert np.all(spec.residuals <= 1e-8)
        assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_minimax_over_plane_equals_lambda2(setup5):
    rng = np.random.default_rng(5)
    u = random_density(setup5.basis, setup5.coeffs.N, rng)
    spec = solve_density(setup5, u, 2)
    sup = minimax_over_plane(setup5.A_diag, u, *spec.eigenfields)
    assert sup == pytest.approx(spec.eigenvalues[1], rel=1e-10)


def test_rayleigh_of_mixture(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    spec = solve_density(setup5, u, 2)
    B = assemble_mass(u, setup5.basis)
    v1, v2 = spec.eigenfields
    mix = ZonalField(
        setup5.basis, math.cos(math.pi / 4) * v1.coeffs + math.sin(math.pi / 4) * v2.coeffs
    )
    assert rayleigh(setup5.A_diag, B, mix) == pytest.approx(
        spec.eigenvalues.mean(), rel=1e-10
    )


def test_singular_density_shift_recorded(setup5):
    # density vanishing on half the sphere: B is near-singular, the solver
    # records a shift and the bottom eigenvalues stay clean
    vals = np.where(setup5.rule.nodes > 0, 1.0, 0.0)
    u = ConformalDensity(setup5.basis, vals, setup5.coeffs.N).normalize()
    spec = solve_density(setup5, u, 2)
    assert spec.shift >= 0
    assert np.all(spec.residuals <= 1e-8)


def test_monotone_refinement():
    rng = np.random.default_rng(6)
    previous = None
    coarse = round_setup(5, q=200, L=12)
    u_coarse = random_density(coarse.basis, coarse.coeffs.N, rng)
    for L in (12, 24, 48):
        setup = round_setup(5, q=200, L=L)
        vals = u_coarse.values  # same node values, nested approximation spaces
        u = ConformalDensity(setup.basis, vals, setup.coeffs.N)
        lam2 = solve_density(setup, u, 2).eigenvalues[1]
        if previous is not None:
            assert lam2 <= previous * (1 + 1e-12)
        previous = lam2


def test_error_paths(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    with pytest.raises(DegeneratePencilError):
        solve_generalized_eigen(setup5.A_diag, B, setup5.basis.dim + 1, setup5.basis)
    with pytest.raises(DegeneratePencilError):
        solve_generalized_eigen(-setup5.A_diag, B, 1, setup5.basis)
    with pytest.raises(ValueError):
        ConformalDensity(setup5.basis, np.zeros_like(setup5.rule.nodes), setup5.coeffs.N)
    with pytest.raises(ValueError):
        ConformalDensity(setup5.basis, -np.ones_like(setup5.rule.nodes), setup5.coeffs.N)
    # same dimension, another node count: refused by name, not by a numpy broadcast
    coarse = round_setup(5, q=100, L=8)
    with pytest.raises(ValueError, match="density lives on 100 nodes, basis on 200"):
        assemble_mass(constant_density(coarse.basis, coarse.coeffs.N), setup5.basis)


def test_density_from_sqrt_field_normalizes(setup5):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(setup5.basis.dim)
    u = density_from_sqrt_field(ZonalField(setup5.basis, c), setup5.coeffs.N)
    assert u.lN_mass() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [5, 12])
def test_kernel_matches_dressed_solve(n, setup5, setup12):
    setup = setup5 if n == 5 else setup12
    rng = np.random.default_rng(10 + n)
    for _ in range(4):
        u = random_density(setup.basis, setup.coeffs.N, rng)
        B = assemble_mass(u, setup.basis)
        lams, V, shift = pencil_eigen(setup.A_diag, B, 3)
        spec = solve_generalized_eigen(setup.A_diag, B, 3, setup.basis)
        assert np.array_equal(lams, spec.eigenvalues)
        assert shift == spec.shift
        for v, f in zip(V.T, spec.eigenfields):
            assert np.array_equal(v, f.coeffs) or np.array_equal(-v, f.coeffs)


def test_kernel_shift_path(setup5):
    # u vanishes on all but 8 nodes, so B has rank 8 < dim and is shifted
    vals = np.where(setup5.rule.nodes > setup5.rule.nodes[-9], 1.0, 0.0)
    u = ConformalDensity(setup5.basis, vals, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    lams, V, shift = pencil_eigen(setup5.A_diag, B, 2)
    assert shift == pytest.approx(1e-12 * np.trace(B) / setup5.basis.dim)
    spec = solve_generalized_eigen(setup5.A_diag, B, 2, setup5.basis)
    assert spec.shift == shift
    assert np.array_equal(lams, spec.eigenvalues)
    assert np.all(spec.residuals <= 1e-10)
    gram = V.T @ (B + shift * np.eye(setup5.basis.dim)) @ V
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_kernel_refusals(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    dim = setup5.basis.dim
    with pytest.raises(DegeneratePencilError, match="eigenvalues from"):
        pencil_eigen(setup5.A_diag, B, dim + 1)
    with pytest.raises(DegeneratePencilError, match="eigenvalues from"):
        pencil_eigen(setup5.A_diag, B, 0)
    with pytest.raises(DegeneratePencilError, match="not positive definite"):
        pencil_eigen(np.where(np.arange(dim) == 3, 0.0, setup5.A_diag), B, 1)
    with pytest.raises(DegeneratePencilError, match="mass form vanishes"):
        pencil_eigen(setup5.A_diag, np.zeros((dim, dim)), 1)


@pytest.mark.parametrize("n", [5, 12])
def test_stacked_kernel_matches_row_calls_bit_for_bit(n, setup5, setup12):
    # a stack of pencils, one of them singular (the shift path), solves with
    # the bits of the one-row calls: values, vectors and per-row shifts
    setup = setup5 if n == 5 else setup12
    rng = np.random.default_rng(20 + n)
    dens = [random_density(setup.basis, setup.coeffs.N, rng).values for _ in range(3)]
    dens.insert(1, np.where(setup.rule.nodes > setup.rule.nodes[-9], 1.0, 0.0))
    values = np.array(dens)
    B = mass_from_values(setup.rule, setup.basis.table, values, setup.coeffs.N)
    lams, V, shift = pencil_eigen(setup.A_diag, B, 3)
    assert lams.shape == (4, 3) and V.shape == (4, setup.basis.dim, 3)
    assert shift[1] > 0 and np.any(shift == 0.0)  # shifted and unshifted rows
    for i, u in enumerate(values):
        B_row = mass_from_values(setup.rule, setup.basis.table, u, setup.coeffs.N)
        assert B_row.tobytes() == B[i].tobytes()
        lams_row, V_row, shift_row = pencil_eigen(setup.A_diag, B_row, 3)
        assert lams_row.tobytes() == lams[i].tobytes()
        assert np.ascontiguousarray(V_row).tobytes() == np.ascontiguousarray(V[i]).tobytes()
        assert shift_row == shift[i]


def test_stacked_kernel_refuses_the_whole_stack(setup5):
    B = assemble_mass(constant_density(setup5.basis, setup5.coeffs.N), setup5.basis)
    dim = setup5.basis.dim
    with pytest.raises(DegeneratePencilError, match="mass form vanishes"):
        pencil_eigen(setup5.A_diag, np.array([B, np.zeros((dim, dim))]), 1)
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil_eigen(setup5.A_diag, np.array([B, np.full((dim, dim), np.nan)]), 1)
    with pytest.raises(DegeneratePencilError, match="eigenvalues from"):
        pencil_eigen(setup5.A_diag, np.array([B, B]), dim + 1)
    with pytest.raises(DegeneratePencilError, match="not positive definite"):
        pencil_eigen(-setup5.A_diag, np.array([B, B]), 1)


@pytest.mark.parametrize("dim", [17, 49, 401])
def test_kernel_reproduces_scipy_eigh(dim):
    # scipy is the oracle for the symmetrized pencil C = A^(-1/2) B A^(-1/2);
    # the kernel solves it with numpy's driver, so agreement is to round-off
    rng = np.random.default_rng(dim)
    M = rng.standard_normal((dim, dim))
    B = M @ M.T / dim + 0.1 * np.eye(dim)
    A_diag = (np.arange(dim) + 1.5) * (np.arange(dim) + 3.0)
    k = 3
    lams, V, shift = pencil_eigen(A_diag, B, k)
    s = 1.0 / np.sqrt(A_diag)
    w, Y = eigh((B * s).T * s)
    mass = w[::-1][:k]
    V_ref = Y[:, ::-1][:, :k] * s[:, None] / np.sqrt(mass)
    assert shift == 0.0
    assert np.max(np.abs(lams * mass - 1)) <= 1e-12
    signs = np.sign(np.sum(V * V_ref, axis=0))
    assert np.max(np.abs(V * signs - V_ref)) <= 1e-12 * np.max(np.abs(V_ref))
    assert np.max(np.abs(V.T @ B @ V - np.eye(k))) <= 1e-12
    for lam, v in zip(lams, V.T):
        av = A_diag * v
        assert np.linalg.norm(av - lam * (B @ v)) <= 1e-10 * np.linalg.norm(av)


def test_minimax_over_plane_matches_scipy(setup5):
    rng = np.random.default_rng(8)
    u = random_density(setup5.basis, setup5.coeffs.N, rng)
    wdens = setup5.rule.weights * u.values ** (u.N - 2)
    A = setup5.A_diag
    for _ in range(20):
        cv, cw = rng.standard_normal((2, setup5.basis.dim)) * 0.7 ** np.arange(setup5.basis.dim)
        v, w = ZonalField(setup5.basis, cv), ZonalField(setup5.basis, cw)
        # the restricted forms as minimax_over_plane sums them, since the
        # planes can be ill-conditioned enough to amplify a reordered sum
        E = np.array([[A @ (cv * cv), A @ (cv * cw)], [A @ (cv * cw), A @ (cw * cw)]])
        F = np.array([v.values, w.values])
        M = (F * wdens) @ F.T
        sup = minimax_over_plane(A, u, v, w)
        assert sup == pytest.approx(eigh(E, M, eigvals_only=True)[-1], rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 2**32 - 1))
def test_plane_mass_from_node_values_is_the_full_form(n, seed):
    # the 2x2 mass of a plane from node values, and the plane's sup, agree
    # with the same forms read off the assembled (L+1)x(L+1) B(u)
    setup = round_setup(n, q=120, L=24)
    rng = np.random.default_rng(seed)
    u = random_density(setup.basis, setup.coeffs.N, rng)
    cv, cw = rng.standard_normal((2, setup.basis.dim)) * 0.8 ** np.arange(setup.basis.dim)
    cw = cw - (cw @ cv) / (cv @ cv) * cv
    B = assemble_mass(u, setup.basis)
    full = np.array([[cv @ B @ cv, cv @ B @ cw], [cw @ B @ cv, cw @ B @ cw]])
    assume(np.linalg.det(full) >= 1e-2 * full[0, 0] * full[1, 1])  # well-conditioned
    v, w = ZonalField(setup.basis, cv), ZonalField(setup.basis, cw)
    M = restricted_mass(u, v, w)
    # relative to the Cauchy-Schwarz scale, since the cross term may vanish
    scale = np.sqrt(np.outer(np.diag(full), np.diag(full)))
    assert np.max(np.abs(M - full) / scale) <= 1e-12
    A = setup.A_diag
    E = np.array([[A @ (cv * cv), A @ (cv * cw)], [A @ (cv * cw), A @ (cw * cw)]])
    sup = minimax_over_plane(A, u, v, w)
    assert sup == pytest.approx(eigh(E, full, eigvals_only=True)[-1], rel=1e-12)


def test_minimax_over_plane_refuses_bad_planes(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    v = constant_field(setup5.basis)
    for w in (v, ZonalField(setup5.basis, np.zeros(setup5.basis.dim))):
        with pytest.raises(DegeneratePencilError, match="plane is degenerate"):
            minimax_over_plane(setup5.A_diag, u, v, w)
    coarse = round_setup(5, q=60, L=16)
    with pytest.raises(ValueError, match="density lives on 200 nodes"):
        restricted_mass(u, constant_field(coarse.basis))
    with pytest.raises(ValueError, match="density lives on 200 nodes"):
        minimax_over_plane(setup5.A_diag, u, v, constant_field(coarse.basis))
