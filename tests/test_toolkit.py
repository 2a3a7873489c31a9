import numpy as np
import pytest

import paneitz_lab.spectral as spectral
from conftest import random_density
from paneitz_lab.einstein import EinsteinData, derive_coefficients
from paneitz_lab.spectral import assemble_mass, constant_density, solve_density
from paneitz_lab.toolkit import (
    fixed_point_residual,
    nodal_profile,
    orthogonal_pair,
    positivity_lift,
)
from paneitz_lab.zonal import ZonalField, analyze, constant_field


def _unit_field(coeffs_vec, basis, B):
    c = coeffs_vec / np.sqrt(coeffs_vec @ B @ coeffs_vec)
    return ZonalField(basis, c)


def test_lift_of_positive_constant_is_identity(setup5):
    u = constant_density(setup5.basis, setup5.coeffs.N)
    spec = solve_density(setup5, u, 1)
    v = spec.eigenfields[0]  # constant, positive by the sign convention
    assert np.all(v.values > 0)
    res = positivity_lift(v, setup5.coeffs, setup5.basis, u, float(spec.eigenvalues[0]))
    assert np.allclose(res.f.values, v.values, atol=1e-10)
    assert res.k == pytest.approx(1.0, abs=1e-10)
    assert abs(res.gap) < 1e-8


def test_lift_dominates_sign_changing_field(setup5):
    # v = Z_1 (proportional to cos theta) under the constant density
    u = constant_density(setup5.basis, setup5.coeffs.N)
    B = assemble_mass(u, setup5.basis)
    e1 = np.zeros(setup5.basis.dim)
    e1[1] = 1.0
    v = _unit_field(e1, setup5.basis, B)
    res = positivity_lift(v, setup5.coeffs, setup5.basis, u, 0.0)
    assert np.all(res.f.values > 0)
    assert np.all(res.f.values >= np.abs(v.values) - 1e-10)


def test_lift_refuses_nonpositive_curvature(setup5):
    flat = derive_coefficients(EinsteinData(n=5, S=-10.0))
    u = constant_density(setup5.basis, setup5.coeffs.N)
    v = constant_field(setup5.basis)
    with pytest.raises(ValueError):
        positivity_lift(v, flat, setup5.basis, u, 0.0)


def test_orthogonal_pair_known_overlap(setup5_opt):
    basis = setup5_opt.basis
    u = constant_density(basis, setup5_opt.coeffs.N)
    B = assemble_mass(u, basis)
    v = _unit_field(np.eye(basis.dim)[0], basis, B)
    s_raw = 0.5 * v.coeffs + np.sqrt(1 - 0.25) * np.eye(basis.dim)[1] / np.sqrt(B[1, 1])
    s = ZonalField(basis, s_raw)
    pair = orthogonal_pair(v, s, u)
    assert pair.overlap == pytest.approx(0.5, abs=1e-12)
    assert pair.alpha_c == pytest.approx(-0.5773502691896258, abs=1e-12)
    assert pair.beta_c == pytest.approx(1.1547005383792517, abs=1e-12)
    assert pair.printed_norm_value == pytest.approx(3.0, abs=1e-10)


def test_orthogonal_pair_zero_overlap(setup5_opt):
    basis = setup5_opt.basis
    u = constant_density(basis, setup5_opt.coeffs.N)
    B = assemble_mass(u, basis)
    v = _unit_field(np.eye(basis.dim)[0], basis, B)
    s = _unit_field(np.eye(basis.dim)[1], basis, B)
    pair = orthogonal_pair(v, s, u)
    assert pair.alpha_c == pytest.approx(0.0, abs=1e-14)
    assert pair.beta_c == pytest.approx(1.0, abs=1e-14)


def test_orthogonal_pair_rejects_proportional(setup5_opt):
    basis = setup5_opt.basis
    u = constant_density(basis, setup5_opt.coeffs.N)
    B = assemble_mass(u, basis)
    v = _unit_field(np.eye(basis.dim)[0], basis, B)
    with pytest.raises(ValueError):
        orthogonal_pair(v, v, u)


def test_nodal_profile_z1(setup5_opt):
    basis = setup5_opt.basis
    u = constant_density(basis, setup5_opt.coeffs.N)
    e1 = np.zeros(basis.dim)
    e1[1] = 1.0
    w = ZonalField(basis, e1)
    v = constant_field(basis)
    profile = nodal_profile(w, u, v)
    assert profile.sign_changes == 1
    assert profile.is_nodal
    assert profile.crossings[0] == pytest.approx(np.pi / 2, abs=1e-2)
    # count invariant under flips and positive scaling
    assert nodal_profile(w * -1.0, u, v).sign_changes == 1
    assert nodal_profile(w * 7.0, u, v).sign_changes == 1


def test_nodal_profile_constant_not_nodal(setup5_opt):
    basis = setup5_opt.basis
    u = constant_density(basis, setup5_opt.coeffs.N)
    profile = nodal_profile(constant_field(basis), u, constant_field(basis))
    assert profile.sign_changes == 0
    assert not profile.is_nodal


def test_fixed_point_residual_zero_at_match(setup5_opt):
    from paneitz_lab.spectral import ConformalDensity

    rng = np.random.default_rng(11)
    basis = setup5_opt.basis
    N = setup5_opt.coeffs.N
    w = ZonalField(basis, rng.standard_normal(basis.dim))
    wabs = np.abs(w.values)
    wn = basis.rule.integrate(wabs**N) ** (1 / N)
    u = ConformalDensity(basis, wabs / wn, N)
    assert fixed_point_residual(w, u) == pytest.approx(0.0, abs=1e-12)


def test_fixed_point_residual_positive_for_mismatch(setup5_opt):
    basis = setup5_opt.basis
    u = constant_density(basis, setup5_opt.coeffs.N)
    e1 = np.zeros(basis.dim)
    e1[1] = 1.0
    assert fixed_point_residual(ZonalField(basis, e1), u) > 0.1


def test_toolkit_inner_products_form_no_full_mass(setup5, monkeypatch):
    # each diagnostic reads one to three weighted inner products, from the
    # node values of its fields, never from the (L+1)x(L+1) mass form
    rng = np.random.default_rng(12)
    u = random_density(setup5.basis, setup5.coeffs.N, rng)
    spec = solve_density(setup5, u, 2)
    v, w = spec.eigenfields
    shapes = []
    kernel = spectral.mass_from_values

    def counted(*args, **kwargs):
        M = kernel(*args, **kwargs)
        shapes.append(M.shape)
        return M

    monkeypatch.setattr(spectral, "mass_from_values", counted)
    positivity_lift(v, setup5.coeffs, setup5.basis, u, float(spec.eigenvalues[0]))
    pair = orthogonal_pair(v, (v + w) * np.sqrt(0.5), u)
    profile = nodal_profile(w, u, v)
    assert shapes == [(1, 1), (2, 2), (2, 2), (2, 2)]
    assert pair.overlap == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert abs(pair.cross_constraint) <= 1e-12
    assert abs(profile.weighted_orthogonality) <= 1e-12
