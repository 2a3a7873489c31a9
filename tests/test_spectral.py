import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import eigh

import paneitz_lab.spectral as spectral
import paneitz_lab.zonal as zonal
from conftest import random_density, two_bubble_field
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


def test_singular_density_matches_the_dense_solve(setup5):
    # the two-bubble density of `spectrum --density two-bubble` at n = 5 has
    # a B whose smallest eigenvalues are round-off; its eigenvalues are those
    # of the dense solve of that same B, with no regularization added to it
    from paneitz_lab.optimizer import two_bubble_initializer

    q = two_bubble_initializer(setup5.basis)
    u = density_from_sqrt_field(q, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    assert np.linalg.eigvalsh(B)[0] <= 1e-15 * np.trace(B)
    spec = solve_density(setup5, u, 3)
    lams_ref, _ = _dense_pencil_eigen(setup5.A_diag, B, 3)
    assert np.max(np.abs(spec.eigenvalues / lams_ref - 1)) <= 1e-13
    assert np.all(spec.residuals <= 1e-13)
    # the same for a density vanishing on half the sphere
    vals = np.where(setup5.rule.nodes > 0, 1.0, 0.0)
    u = ConformalDensity(setup5.basis, vals, setup5.coeffs.N).normalize()
    B = assemble_mass(u, setup5.basis)
    spec = solve_density(setup5, u, 2)
    lams_ref, _ = _dense_pencil_eigen(setup5.A_diag, B, 2)
    assert np.max(np.abs(spec.eigenvalues / lams_ref - 1)) <= 1e-13
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
        lams, V = pencil_eigen(setup.A_diag, B, 3)
        spec = solve_generalized_eigen(setup.A_diag, B, 3, setup.basis)
        assert np.array_equal(lams, spec.eigenvalues)
        for v, f in zip(V.T, spec.eigenfields):
            assert np.array_equal(v, f.coeffs) or np.array_equal(-v, f.coeffs)


def test_kernel_rank_deficient_path(setup5):
    # u vanishes on all but 8 nodes, so B is a sum of 8 rank-one forms of
    # dimension 49: the kernel solves it as it stands, on the path of a
    # regular B
    vals = np.where(setup5.rule.nodes > setup5.rule.nodes[-9], 1.0, 0.0)
    u = ConformalDensity(setup5.basis, vals, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    assert np.linalg.matrix_rank(B) <= 8
    lams, V = pencil_eigen(setup5.A_diag, B, 2)
    spec = solve_generalized_eigen(setup5.A_diag, B, 2, setup5.basis)
    assert np.array_equal(lams, spec.eigenvalues)
    assert np.all(spec.residuals <= 1e-10)  # on B itself
    assert np.max(np.abs(V.T @ B @ V - np.eye(2))) < 1e-12


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
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil_eigen(setup5.A_diag, np.full((dim, dim), np.nan), 1)


def _stack(dims, rng):
    """A stack of SPD mass blocks of the given dimensions, each padded to the
    largest with a zero row and column, and its operator diagonals, padded
    with 1; with the block-diagonal pencil it stands for."""
    d = max(dims)
    A, B = np.ones((len(dims), d)), np.zeros((len(dims), d, d))
    for i, di in enumerate(dims):
        M = rng.standard_normal((di, di))
        B[i, :di, :di] = M @ M.T / di + 0.1 * np.eye(di)
        A[i, :di] = rng.uniform(1.0, 100.0, di)
    full = np.zeros((sum(dims), sum(dims)))
    at = np.cumsum([0, *dims])
    for i, di in enumerate(dims):
        full[at[i] : at[i + 1], at[i] : at[i + 1]] = B[i, :di, :di]
    return A, B, np.concatenate([A[i, :di] for i, di in enumerate(dims)]), full


@pytest.mark.parametrize("dims", [(9, 8), (25, 24), (5, 5), (17,)])
def test_a_stack_solves_its_block_diagonal_pencil(dims):
    # one batched solve of the blocks gives the k lowest pairs of the whole
    # pencil; each column lives in its own block, zero in the others
    rng = np.random.default_rng(sum(dims))
    A, B, A_full, B_full = _stack(dims, rng)
    k = 5
    lams, V = pencil_eigen(A, B, k)
    lams_ref, V_ref = pencil_eigen(A_full, B_full, k)
    np.testing.assert_allclose(lams, lams_ref, rtol=1e-12, atol=0)
    assert V.shape == (len(dims), max(dims), k)
    at = np.cumsum([0, *dims])
    for j in range(k):
        v = np.concatenate([V[i, :di, j] for i, di in enumerate(dims)])
        assert np.count_nonzero(np.abs(V[:, :, j]).max(axis=1)) == 1  # one block
        assert (V[:, :, j][np.arange(max(dims)) >= np.array(dims)[:, None]] == 0).all()  # no padding
        v_ref = V_ref[:, j] * np.sign(v @ V_ref[:, j])
        assert np.abs(v - v_ref).max() <= 1e-10 * np.abs(v_ref).max()
        assert v @ B_full @ v == pytest.approx(1.0, rel=1e-12)
    assert at[-1] == len(A_full)


def test_stack_refusals():
    # a stack is refused as a single pencil is, with the same messages
    A, B, _, _ = _stack((9, 8), np.random.default_rng(0))
    with pytest.raises(DegeneratePencilError, match="requested 19 eigenvalues from a 18-dim pencil"):
        pencil_eigen(A, B, 19)
    with pytest.raises(DegeneratePencilError, match="eigenvalues from"):
        pencil_eigen(A, B, 0)
    with pytest.raises(DegeneratePencilError, match="not positive definite"):
        pencil_eigen(np.where(np.arange(9) == 3, -1.0, A), B, 1)
    with pytest.raises(DegeneratePencilError, match="mass form vanishes"):
        pencil_eigen(A, np.zeros_like(B), 1)
    with pytest.raises(DegeneratePencilError, match="mass form vanishes"):
        pencil_eigen(A, B, 18)  # the padded row's eigenvalue of C is 0
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil_eigen(A, np.where(B > 0, np.inf, B), 1)


def test_a_stack_of_tables_gives_the_stack_of_forms(setup12):
    # mass_from_values takes a stack of tables row by row, with the general
    # product: the parity sectors on the half rule, and tables of the
    # mirror sum's size on a rule that is not mirrored
    rule, table = setup12.rule, setup12.basis.table
    values = random_density(setup12.basis, setup12.coeffs.N, np.random.default_rng(4)).values
    stack = np.stack([table[0::2], table[1::2, :][np.r_[0:24, 0]]])
    B = mass_from_values(rule, stack, values, setup12.coeffs.N)
    for i in range(2):
        assert B[i].tobytes() == mass_from_values(rule, stack[i], values, setup12.coeffs.N).tobytes()
    big = np.repeat(table[None, :, :], 4, axis=1)[:, : spectral.KRYLOV_MIN_DIM]
    B = mass_from_values(rule, big, values, setup12.coeffs.N)
    np.testing.assert_array_equal(B[0], _general_mass(rule, big[0], values, setup12.coeffs.N))


def _general_mass(rule, table, values, N):
    """The mass form as the general product over every node, the reference
    for the mirror sum of large tables."""
    wdens = rule.weights * values ** (N - 2)
    return (table * wdens) @ table.T


@pytest.mark.parametrize("n", [12, 30])
def test_large_mass_is_the_symmetric_product(n):
    # above the gate the form is exactly symmetric, and within 16 ulp of
    # max|B| of the general product (measured: <= 8 ulp for the constant
    # density, 10 for the random one and 11 for the two-bubble one)
    from paneitz_lab.optimizer import two_bubble_initializer

    setup = round_setup(n, q=1600, L=400)
    assert setup.basis.dim >= spectral.KRYLOV_MIN_DIM
    N = setup.coeffs.N
    densities = {
        "constant": constant_density(setup.basis, N),
        "random": random_density(setup.basis, N, np.random.default_rng(n)),
        "two-bubble": density_from_sqrt_field(two_bubble_initializer(setup.basis), N),
    }
    for name, u in densities.items():
        B = assemble_mass(u, setup.basis)
        ref = _general_mass(setup.rule, setup.basis.table, u.values, u.N)
        assert np.array_equal(B, B.T), name
        assert np.max(np.abs(B - ref)) <= 16 * np.spacing(np.max(np.abs(ref))), name


@pytest.mark.parametrize("n, q, L", [(5, 1600, 400), (12, 1600, 400), (30, 1600, 400), (12, 401, 200)])
def test_large_mass_is_the_mirror_sum(n, q, L):
    # the parity-split sum over the nonnegative nodes against the general
    # product over all of them: the asymmetric two-bubble density has a
    # large even-odd block, and the odd q puts a node at x = 0 (measured:
    # <= 27 ulp of max|B|, at n = 5 for the random density)
    from paneitz_lab.optimizer import INIT_EPS

    setup = round_setup(n, q=q, L=L)
    assert setup.basis.dim >= spectral.KRYLOV_MIN_DIM
    N = setup.coeffs.N
    densities = {
        "constant": constant_density(setup.basis, N),
        "random": random_density(setup.basis, N, np.random.default_rng(n)),
        "two-bubble": density_from_sqrt_field(two_bubble_field(setup.basis, INIT_EPS, 0.3), N),
    }
    for name, u in densities.items():
        B = assemble_mass(u, setup.basis)
        ref = _general_mass(setup.rule, setup.basis.table, u.values, N)
        assert np.array_equal(B, B.T), name
        assert np.max(np.abs(B - ref)) <= 32 * np.spacing(np.max(np.abs(ref))), name


def test_restricted_mass_of_many_fields_is_the_direct_sum(setup12):
    # the node values of KRYLOV_MIN_DIM fields are no mirrored basis table:
    # their restricted form is the general product, not the mirror sum
    rng = np.random.default_rng(0)
    u = constant_density(setup12.basis, setup12.coeffs.N)
    fields = [ZonalField(setup12.basis, rng.standard_normal(setup12.basis.dim)) for _ in range(150)]
    M = restricted_mass(u, *fields)
    ref = _general_mass(setup12.rule, np.array([f.values for f in fields]), u.values, u.N)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


def _mobius_density(setup, eps):
    """u_t = psi_t^((n-4)/2), psi_t(x) = sqrt(1-t^2)/(1-tx): the conformal
    factor of an axial Moebius dilation, a bubble of width
    eps = sqrt((1-t)/(1+t)) at the pole x = 1."""
    t = (1 - eps**2) / (1 + eps**2)
    psi = math.sqrt(1 - t * t) / (1 - t * setup.rule.nodes)
    return ConformalDensity(setup.basis, psi ** ((setup.basis.n - 4) / 2), setup.coeffs.N)


@pytest.mark.parametrize(
    "q, L, n, eps",
    [(1600, 400, n, eps) for n in (5, 7, 12, 20, 30) for eps in (0.229, 0.071)]
    + [(400, 96, n, 0.229) for n in (5, 6, 8, 12)],
)
def test_moebius_density_has_the_round_spectrum(q, L, n, eps):
    # P is conformally covariant, and u_t pulls the round metric back by a
    # Moebius map: the pencil (P, u_t^(N-2)) has the round eigenvalues, scaled
    # by the volume, and lambda_bar_1(u_t) is the sharp constant K2^(-2)
    # (measured: <= 1.6e-14 at (1600, 400), where eps = 0.071 makes a large
    # even-odd mass block, and 2.2e-15 on the dense path at (400, 96))
    setup = round_setup(n, q=q, L=L)
    u = _mobius_density(setup, eps)
    spec = solve_density(setup, u, 3)
    scale = (u.lN_mass() / setup.rule.weights.sum()) ** (4 / n)
    assert np.max(np.abs(spec.eigenvalues * scale / setup.A_diag[:3] - 1)) <= 1e-12
    assert normalized_invariant(spec, u, 1) / sharp_constant_oracle(n) - 1 == pytest.approx(0, abs=1e-12)


def test_small_mass_keeps_the_general_product(setup12):
    # below the gate, a density on the descent's 17-row table and one on the
    # default 49-row table keep the general product's bits
    setup = round_setup(12, q=200, L=16)
    rng = np.random.default_rng(8)
    for s in (setup, setup12):
        u = random_density(s.basis, s.coeffs.N, rng)
        B = assemble_mass(u, s.basis)
        ref = _general_mass(s.rule, s.basis.table, u.values, s.coeffs.N)
        assert B.shape[-1] < spectral.KRYLOV_MIN_DIM
        assert B.tobytes() == ref.tobytes()


def test_round_setup_is_held_and_read_only():
    setup = round_setup(12, 200, 16)
    assert round_setup(12, q=200, L=16) is setup
    for a in (setup.basis.table, setup.basis.eigs, setup.A_diag):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    other = round_setup(5, q=200, L=16)  # a different discretization replaces it
    assert round_setup(5, q=200, L=16) is other
    assert round_setup(12, q=200, L=16) is not setup


def test_a_smaller_degree_is_served_by_the_held_table(monkeypatch):
    # the held setup of an (n, q) serves every smaller L with its leading
    # rows, bit for bit those of a fresh build, and a larger L rebuilds it
    full = round_setup(7, q=203, L=48)
    builds = []
    build = zonal.build_basis

    def counted(*args):
        builds.append(args[1])
        return build(*args)

    monkeypatch.setattr(zonal, "build_basis", counted)
    for L in (0, 16, 47):
        view = round_setup(7, q=203, L=L)
        assert round_setup(7, q=203, L=L) is view
        assert view.basis.table.base is full.basis.table and view.rule is full.rule
        assert view.basis.table.tobytes() == build(full.rule, L).table.tobytes()
        assert view.A_diag.tobytes() == assemble_stiffness(full.coeffs, view.basis).tobytes()
        assert view.basis.eigs.tobytes() == full.basis.eigs[: L + 1].tobytes()
        for a in (view.basis.table, view.basis.eigs, view.A_diag):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
    assert builds == []
    assert round_setup(7, q=203, L=64).basis.L == 64
    assert builds == [64]


def test_the_held_table_is_dropped_before_the_next_build(monkeypatch):
    # two basis tables never coexist: the held one, and its views, are gone
    # when the next (n, q) builds its own
    held = weakref.ref(round_setup(8, q=205, L=48).basis.table)
    view = weakref.ref(round_setup(8, q=205, L=16).basis.table)
    alive = []
    build = zonal.build_basis

    def probed(*args):
        alive.append((held() is not None, view() is not None))
        return build(*args)

    monkeypatch.setattr(zonal, "build_basis", probed)
    round_setup(9, q=205, L=48)
    assert alive == [(False, False)]


def test_a_second_minimize_builds_no_basis(monkeypatch):
    # minimize asks for its final setup first, so the descent's is a view,
    # and a second run at the same n builds nothing
    from paneitz_lab.optimizer import OptimizerConfig, minimize

    first = minimize(OptimizerConfig(n=12))
    builds = []
    build = zonal.build_basis
    monkeypatch.setattr(zonal, "build_basis", lambda *args: builds.append(args) or build(*args))
    second = minimize(OptimizerConfig(n=12))
    assert builds == []
    assert second.final_objective == first.final_objective


@pytest.mark.parametrize("dim", [17, 49, 401])
def test_kernel_reproduces_scipy_eigh(dim):
    # scipy is the oracle for the symmetrized pencil C = A^(-1/2) B A^(-1/2);
    # the kernel solves it with numpy's driver, so agreement is to round-off
    rng = np.random.default_rng(dim)
    M = rng.standard_normal((dim, dim))
    B = M @ M.T / dim + 0.1 * np.eye(dim)
    A_diag = (np.arange(dim) + 1.5) * (np.arange(dim) + 3.0)
    k = 3
    lams, V = pencil_eigen(A_diag, B, k)
    s = 1.0 / np.sqrt(A_diag)
    w, Y = eigh((B * s).T * s)
    mass = w[::-1][:k]
    V_ref = Y[:, ::-1][:, :k] * s[:, None] / np.sqrt(mass)
    assert np.max(np.abs(lams * mass - 1)) <= 1e-12
    signs = np.sign(np.sum(V * V_ref, axis=0))
    assert np.max(np.abs(V * signs - V_ref)) <= 1e-12 * np.max(np.abs(V_ref))
    assert np.max(np.abs(V.T @ B @ V - np.eye(k))) <= 1e-12
    for lam, v in zip(lams, V.T):
        av = A_diag * v
        assert np.linalg.norm(av - lam * (B @ v)) <= 1e-10 * np.linalg.norm(av)


def _krylov_served(monkeypatch) -> list[bool]:
    """Record, call by call, whether the block Krylov solve returned pairs
    (True) or left the pencil to the dense fallback (False)."""
    served, kernel = [], spectral._block_krylov

    def recorded(C, k):
        pairs = kernel(C, k)
        served.append(pairs is not None)
        return pairs

    monkeypatch.setattr(spectral, "_block_krylov", recorded)
    return served


def _dense_pencil_eigen(A_diag, B, k):
    """The reference: every pair of C = A^(-1/2) B A^(-1/2) from one eigh,
    in the kernel's order of operations, so that it has the dense bits."""
    s = 1.0 / np.sqrt(A_diag)
    w, Y = np.linalg.eigh((B * s).T * s)
    mass = w[::-1][:k]
    return 1.0 / mass, (Y.T[::-1][:k] * s / np.sqrt(mass)[:, None]).T


def _pencil_from_spectrum(w, A_diag, seed):
    """A pencil (A, B) whose C = A^(-1/2) B A^(-1/2) has the eigenvalues w
    in random eigenvectors."""
    U, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(w), len(w))))
    C = (U * w) @ U.T
    r = np.sqrt(A_diag)
    return ((C + C.T) / 2 * r).T * r


# the one pencil here that the top-k solve leaves to the dense eigh: C of
# the half-sphere density at n = 5, L = 400 has a smallest eigenvalue of
# -2.8e-19, and for k = 3 the Krylov block loses rank
DENSE_FALLBACK = {(5, 400, "singular", 3)}


@pytest.mark.parametrize("n", [5, 12, 20, 30])
def test_top_k_kernel_matches_the_dense_solve(n, monkeypatch):
    # large pencils take the top-k path; the dense eigh of the same C is the
    # reference, on densities with distinct, near-degenerate (the two-bubble
    # lambda_2, lambda_3) and singular-B spectra
    from paneitz_lab.optimizer import two_bubble_initializer

    served, expected = _krylov_served(monkeypatch), []
    rng = np.random.default_rng(30 + n)
    for L in (spectral.KRYLOV_MIN_DIM, 400):
        setup = round_setup(n, q=1600, L=L)
        N = setup.coeffs.N
        half = np.where(setup.rule.nodes > 0, 1.0, 0.0)
        densities = {
            "constant": constant_density(setup.basis, N),
            "random": random_density(setup.basis, N, rng),
            "two-bubble": density_from_sqrt_field(two_bubble_initializer(setup.basis), N),
            "singular": ConformalDensity(setup.basis, half, N).normalize(),
        }
        for name, u in densities.items():
            B = assemble_mass(u, setup.basis)
            lams_ref = None
            for k in (3, 2, 1):
                lams, V = pencil_eigen(setup.A_diag, B, k)
                expected.append((n, L, name, k) not in DENSE_FALLBACK)
                if lams_ref is None:
                    lams_ref, _ = _dense_pencil_eigen(setup.A_diag, B, 3)
                assert np.max(np.abs(lams / lams_ref[:k] - 1)) <= 1e-13, (name, L, k)
                assert np.max(np.abs(V.T @ B @ V - np.eye(k))) <= 1e-12, (name, L, k)
                for lam, v in zip(lams, V.T):
                    av = setup.A_diag * v
                    residual = np.linalg.norm(av - lam * (B @ v)) / np.linalg.norm(av)
                    assert residual <= 1e-13, (name, L, k)
    assert served == expected


def test_top_k_kernel_finds_a_double_top_eigenvalue(monkeypatch):
    # mass 1 twice on top: one Krylov vector spans one direction of that
    # eigenspace, so a single-vector space would return lambda_2 = 9
    served = _krylov_served(monkeypatch)
    dim = 401
    A_diag = (np.arange(dim) + 1.5) * (np.arange(dim) + 3.0)
    w = 1.0 / np.arange(dim, 0, -1.0) ** 2
    w[-2] = w[-1]
    B = _pencil_from_spectrum(w, A_diag, seed=1)
    for k in (2, 3):
        lams, V = pencil_eigen(A_diag, B, k)
        assert np.max(np.abs(lams - [1.0, 1.0, 9.0][:k])) <= 1e-13
        assert np.max(np.abs(V.T @ B @ V - np.eye(k))) <= 1e-12
    assert served == [True, True]


def test_flat_spectrum_takes_the_dense_fallback(monkeypatch):
    # eigenvalues evenly spaced over [1, 2]: a Krylov space of half the
    # dimension does not resolve the top pairs, and the dense eigh serves
    # them, with its own bits; so it does when k + 2 columns already pass
    # half the dimension
    served = _krylov_served(monkeypatch)
    dim = 401
    A_diag = (np.arange(dim) + 1.5) * (np.arange(dim) + 3.0)
    flat = _pencil_from_spectrum(np.linspace(1.0, 2.0, dim), A_diag, seed=2)
    decaying = _pencil_from_spectrum(1.0 / np.arange(dim, 0, -1.0) ** 2, A_diag, seed=3)
    for B, k in ((flat, 2), (decaying, dim // 2 - 1)):
        lams, V = pencil_eigen(A_diag, B, k)
        lams_ref, V_ref = _dense_pencil_eigen(A_diag, B, k)
        assert lams.tobytes() == lams_ref.tobytes()
        assert np.ascontiguousarray(V).tobytes() == np.ascontiguousarray(V_ref).tobytes()
    assert served == [False, False]


def test_a_rank_two_mass_breaks_the_krylov_space_down(monkeypatch):
    # a density nonzero at two nodes has a mass form of rank 2: the first
    # product with C already spans its range, so the second block loses
    # rank and the Krylov solve gives up there, on its second QR; the dense
    # eigh serves the pairs, with its own bits
    setup = round_setup(12, q=400, L=160)
    values = np.zeros(len(setup.rule.nodes))
    values[[100, 250]] = 1.0
    B = mass_from_values(setup.rule, setup.basis.table, values, setup.coeffs.N)
    assert np.linalg.matrix_rank(B) == 2
    served, qrs = _krylov_served(monkeypatch), []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda X: qrs.append(X.shape) or qr(X))
    lams, V = pencil_eigen(setup.A_diag, B, 2)
    lams_ref, V_ref = _dense_pencil_eigen(setup.A_diag, B, 2)
    assert lams.tobytes() == lams_ref.tobytes()
    assert np.ascontiguousarray(V).tobytes() == np.ascontiguousarray(V_ref).tobytes()
    assert served == [False]
    assert qrs == [(161, 4)] * 2


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
