import numpy as np
import pytest

from slowfast import SimConfig, get_builtin
from slowfast.simulate import _pool_size


@pytest.fixture(scope="session")
def example21():
    return get_builtin("example21")


@pytest.fixture(scope="session")
def ou():
    return get_builtin("ou-coupled")


@pytest.fixture(scope="session")
def pure_fast():
    return get_builtin("pure-fast-l2")


@pytest.fixture
def forks():
    """Skip a worker-count test where ``workers=2`` would run serially.

    On one usable core, or beside another thread, the pool falls back to the
    serial loop, and comparing that loop with itself checks nothing.
    """
    if _pool_size(2, 2) < 2:
        pytest.skip("workers=2 runs serially here: one usable core or another thread alive")


@pytest.fixture
def small_config():
    # cheap but long enough for the fast component to relax a few times
    return SimConfig(epsilon=0.1, dt=0.01, horizon=0.5, n_paths=64, seed=11, x0=0.5, y0=1.0)


def gaussian_pdf(y, mean, var=1.0):
    return np.exp(-0.5 * (y - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
