import numpy as np
import pytest

from flamefront.bifurcation import asymptotic_guess
from flamefront.model import ModelKind
from flamefront.solver import SolveConfig, quasi_newton_solve


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def linear_wave_small():
    """Converged linear traveling wave at h = 0.05, k0 = 1, nx = 256."""
    guess = asymptotic_guess(1, 0.05, ModelKind.LINEAR)
    return quasi_newton_solve(guess, 0.05, ModelKind.LINEAR, k0=1)


@pytest.fixture(scope="session")
def nonlinear_wave_small():
    """Converged nonlinear traveling wave at h = 0.05, k0 = 1, nx = 256."""
    guess = asymptotic_guess(1, 0.05, ModelKind.NONLINEAR)
    return quasi_newton_solve(guess, 0.05, ModelKind.NONLINEAR, k0=1)


@pytest.fixture(scope="session")
def fast_config():
    # loose-but-valid settings for tests that only need a converged state
    return SolveConfig(nx=64, max_iters=50)


@pytest.fixture(scope="session")
def flat17_probe():
    """Stability probe of the flat front at alpha = 17 (rate should be 12)."""
    from flamefront.evolution import stability_probe
    from flamefront.solver import flat_solution

    return stability_probe(flat_solution(17.0))
