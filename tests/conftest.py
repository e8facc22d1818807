import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from hnlslab import (PlaneWaveSpec, RunConfig, StandingWaveSpec,
                     gaussian_field, shoot_ground_state, stability_run)
from hnlslab.fields import Grid


@pytest.fixture
def rng():
    return np.random.default_rng(20250817)


# (lam, sigma) pairs the one nonlinearity rule refuses
BAD_NONLINEARITY = [(np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0),
                    (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
                    (1.0, -0.5)]


# CPython 3.11 hands a call's argument references to the callee's frame;
# 3.10 keeps them on the caller's stack until the call returns, so there
# no callee can free a field it was passed.
needs_owned_arguments = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="the caller's frame holds call arguments on CPython < 3.11")


def hnls_grid(n=64, length=40.0, d=2):
    alpha = (1.0,) + (-1.0,) * (d - 1)
    return Grid((n,) * d, (length,) * d, alpha)


def nls_grid(n=64, length=40.0, d=2):
    return Grid((n,) * d, (length,) * d, (1.0,) * d)


# ---------------------------------------------------------------------------
# session fixtures: work that several test modules assert on, done once

PROFILE_GRID = Grid((64,), (40.0,), (1.0,))


@pytest.fixture(scope="session")
def ground_state():
    """The cubic radial ground state (test_acceptance, test_radial)."""
    return shoot_ground_state(2.0)


def _quintic_sweep(spec):
    """The quintic stability sweep of the acceptance and coupled suites:
    eps = 1e-3, 5e-4, 2.5e-4 to T = 5 on 64^2 from an off-centre Gaussian
    shape.  `elapsed` is the wall time of the `stability_run` call."""
    grid = hnls_grid()
    shape = gaussian_field(grid, amplitude=1.0, width=2.0,
                           center=(3.0, -2.0))
    eps = (1e-3, 5e-4, 2.5e-4)
    start = time.monotonic()
    reports = stability_run(spec, shape, eps, RunConfig(5.0))
    return SimpleNamespace(spec=spec, eps=eps, reports=reports,
                           elapsed=time.monotonic() - start)


@pytest.fixture(scope="session")
def plane_quintic_sweep():
    """Plane wave at |c| = 2 (test_09, test_stability_sweep_plane_quintic)."""
    f0 = gaussian_field(PROFILE_GRID, amplitude=0.4, width=4.0).values
    return _quintic_sweep(PlaneWaveSpec(f0=f0, c=(2.0,), lam=1.0, sigma=4.0,
                                        grid=hnls_grid()))


@pytest.fixture(scope="session")
def standing_quintic_sweep():
    """Standing wave at omega = 2 pi / 40 (test_10,
    test_stability_sweep_standing_quintic)."""
    f0 = gaussian_field(PROFILE_GRID, amplitude=0.5, width=2.0).values
    return _quintic_sweep(StandingWaveSpec(f0=f0, omega=2.0 * np.pi / 40.0,
                                           lam=1.0, sigma=4.0,
                                           grid=hnls_grid()))
