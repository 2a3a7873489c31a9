import math

import numpy as np
import pytest

from paneitz_lab.spectral import round_setup


@pytest.fixture(scope="session")
def setup5():
    return round_setup(5, q=200, L=48)


@pytest.fixture(scope="session")
def setup12():
    return round_setup(12, q=200, L=48)


@pytest.fixture(scope="session")
def setup5_opt():
    return round_setup(5, q=200, L=16)


@pytest.fixture(scope="session")
def minimize12():
    """One full k=2 run at n=12 from both starts, shared by the bound, nodal
    and per-start descent checks."""
    from paneitz_lab.optimizer import OptimizerConfig, minimize

    return minimize(OptimizerConfig(n=12, k=2, restarts=2))


def random_density(basis, N, rng, degree=8, bias=1.0):
    """Smooth random normalized density u = q^2 with decaying spectrum."""
    from paneitz_lab.spectral import density_from_sqrt_field
    from paneitz_lab.zonal import ZonalField

    c = np.zeros(basis.dim)
    d = min(degree, basis.L)
    c[: d + 1] = rng.standard_normal(d + 1) * 0.5 ** np.arange(d + 1)
    c[0] += bias
    return density_from_sqrt_field(ZonalField(basis, c), N)


def two_bubble_field(basis, eps, split):
    """q of sqrt-bubble profiles of scale eps at the two poles, with the mass
    fraction split at the north pole, projected to the basis: the family
    whose equal split at eps = INIT_EPS is the descent's two-bubble start."""
    from paneitz_lab.bubbles import BubbleSpec, bubble_profile
    from paneitz_lab.zonal import analyze

    theta = basis.rule.theta
    phi_n, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, center="north"), basis.n)
    phi_s, _, _ = bubble_profile(theta, BubbleSpec(eps=eps, center="south"), basis.n)
    return analyze(basis, math.sqrt(split) * np.sqrt(phi_n) + math.sqrt(1 - split) * np.sqrt(phi_s))
