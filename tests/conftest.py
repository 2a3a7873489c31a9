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
    """One full default k=2 run at n=12, shared by the bound and nodal checks."""
    from paneitz_lab.optimizer import OptimizerConfig, minimize

    return minimize(OptimizerConfig(n=12, k=2))


def random_density(basis, N, rng, degree=8, bias=1.0):
    """Smooth random normalized density u = q^2 with decaying spectrum."""
    from paneitz_lab.spectral import density_from_sqrt_field
    from paneitz_lab.zonal import ZonalField

    c = np.zeros(basis.dim)
    d = min(degree, basis.L)
    c[: d + 1] = rng.standard_normal(d + 1) * 0.5 ** np.arange(d + 1)
    c[0] += bias
    return density_from_sqrt_field(ZonalField(basis, c), N)
