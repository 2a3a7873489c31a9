import math

import pytest
from hypothesis import given, strategies as st

from paneitz_lab.einstein import (
    EinsteinData,
    derive_coefficients,
    q_curvature_einstein,
    round_sphere,
    sharp_constant_oracle,
    sharp_constant_report,
    sphere_volume,
)


def test_volume_closed_forms():
    assert sphere_volume(5) == pytest.approx(math.pi**3, rel=1e-14)
    assert sphere_volume(6) == pytest.approx(16 * math.pi**3 / 15, rel=1e-14)


def test_large_dimension_refused_by_name():
    # Gamma((n+1)/2) overflows from n = 343 on; below that the volume is exact
    assert sphere_volume(342) == 2.0 * math.pi**171.5 / math.gamma(171.5)
    assert round_sphere(342).vol > 0
    with pytest.raises(ValueError, match="n = 343"):
        round_sphere(343)


def test_known_coefficients_n5():
    c = derive_coefficients(EinsteinData(n=5, S=20.0))
    assert c.alpha == pytest.approx(5.5)
    assert c.alpha_bar == pytest.approx(6.5625)
    assert c.a == pytest.approx(1.75)
    assert c.b == pytest.approx(3.75)
    assert c.N == pytest.approx(10.0)


def test_known_coefficients_n12():
    c = derive_coefficients(EinsteinData(n=12, S=132.0))
    assert c.alpha == pytest.approx(58.0)
    assert c.alpha_bar == pytest.approx(840.0)
    assert (c.a, c.b) == (pytest.approx(28.0), pytest.approx(30.0))
    assert c.N == pytest.approx(3.0)


def test_zero_curvature_degenerates():
    c = derive_coefficients(EinsteinData(n=5, S=0.0))
    assert c.alpha == 0 and c.alpha_bar == 0 and c.a == 0 and c.b == 0
    assert not c.coercive
    assert q_curvature_einstein(EinsteinData(n=7, S=0.0)) == 0


def test_dimension_guard():
    with pytest.raises(ValueError):
        EinsteinData(n=4, S=12.0)


@given(
    n=st.integers(min_value=5, max_value=20),
    S=st.floats(min_value=1e-3, max_value=1e3),
)
def test_root_gap_identity(n, S):
    c = derive_coefficients(EinsteinData(n=n, S=S))
    assert c.b - c.a == pytest.approx(2 * S / (n * (n - 1)), rel=1e-10)
    assert c.alpha**2 / 4 - c.alpha_bar == pytest.approx(
        S**2 / (n**2 * (n - 1) ** 2), rel=1e-10
    )


def test_q_curvature_consistency():
    data = EinsteinData(n=6, S=30.0)
    c = derive_coefficients(data)
    assert (6 - 4) / 2 * q_curvature_einstein(data) == pytest.approx(c.alpha_bar, rel=1e-12)
    assert c.alpha_bar == pytest.approx(24.0)


def test_sharp_constant_report_n5():
    report = sharp_constant_report(round_sphere(5))
    assert report.oracle == pytest.approx(6.5625 * math.pi ** (12 / 5), rel=1e-12)
    # the printed closed form is off by a ratio > 2 at n = 5; reported, not fixed
    assert report.ratios["paper_over_oracle"] == pytest.approx(2.243, abs=0.01)
    assert report.paper_formula > 0 and report.sphere_volume_formula > 0


def test_gamma_ratio_candidate_matches_oracle():
    # pi^2 n (n-4)(n^2-4) [Gamma(n/2)/Gamma(n)]^(4/n) equals the oracle by
    # the Legendre duplication formula
    for n in (5, 6, 8, 12, 17):
        log_ratio = math.lgamma(n / 2) - math.lgamma(n)
        candidate = math.pi**2 * n * (n - 4) * (n * n - 4) * math.exp(4.0 / n * log_ratio)
        assert candidate == pytest.approx(sharp_constant_oracle(n), rel=1e-10)
