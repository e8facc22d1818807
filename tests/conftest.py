import numpy as np
import pytest

from hnlslab.fields import Grid


@pytest.fixture
def rng():
    return np.random.default_rng(20250817)


# (lam, sigma) pairs the one nonlinearity rule refuses
BAD_NONLINEARITY = [(np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0),
                    (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
                    (1.0, -0.5)]


def hnls_grid(n=64, length=40.0, d=2):
    alpha = (1.0,) + (-1.0,) * (d - 1)
    return Grid((n,) * d, (length,) * d, alpha)


def nls_grid(n=64, length=40.0, d=2):
    return Grid((n,) * d, (length,) * d, (1.0,) * d)
