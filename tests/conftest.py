import os

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

    On one usable core, or beside another thread, the Euler loop forks no
    children and runs its chunks serially, and comparing that loop with
    itself checks nothing.
    """
    if _pool_size(2, 2) < 2:
        pytest.skip("workers=2 runs serially here: one usable core or another thread alive")


def assert_no_children():
    """Fail if this process has a child, running or exited but not reaped.

    ``os.waitpid(-1, WNOHANG)`` raises ChildProcessError only when there is
    none; it returns (0, 0) for a running child and reaps an exited one.
    """
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def small_config():
    # cheap but long enough for the fast component to relax a few times
    return SimConfig(epsilon=0.1, dt=0.01, horizon=0.5, n_paths=64, seed=11, x0=0.5, y0=1.0)


def gaussian_pdf(y, mean, var=1.0):
    return np.exp(-0.5 * (y - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)
