"""Plane-wave, standing-wave, and semiclassical family constructors."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import BAD_NONLINEARITY, hnls_grid

from hnlslab import (
    ComplexField,
    EvolutionProblem,
    FieldDataError,
    Grid,
    GridError,
    PlaneWaveSpec,
    RunConfig,
    SemiclassicalSpec,
    StandingWaveSpec,
    TransformError,
    apply_linear_propagator,
    bound_state_defect,
    gaussian_field,
    integrate_transform_odes,
    lift_profile,
    norms,
    residual_hnls,
    run,
    semiclassical_field,
    signature_quadratic,
    wave_field,
)
from hnlslab import spectral
from hnlslab.evolution import harmonic_saddle_potential
from hnlslab.fields import _abs2, evaluate_at_axes, l2_norm

PROFILE_GRID = Grid((64,), (40.0,), (1.0,))


def _rel(a, b):
    return np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel())


def _bump(width, amplitude=0.7):
    return gaussian_field(PROFILE_GRID, amplitude=amplitude, width=width).values


# ---------------------------------------------------------------------------
# plane waves

def test_plane_wave_spec_validation():
    f0 = _bump(3.0)
    with pytest.raises(FieldDataError):
        PlaneWaveSpec(f0=f0.reshape(8, 8), period=40.0, c=(1.0,), lam=1.0,
                      sigma=2.0)
    with pytest.raises(FieldDataError):
        PlaneWaveSpec(f0=f0[:60], period=40.0, c=(1.0,), lam=1.0, sigma=2.0)
    with pytest.raises(FieldDataError):
        PlaneWaveSpec(f0=f0 * np.nan, period=40.0, c=(1.0,), lam=1.0,
                      sigma=2.0)
    with pytest.raises(ValueError):
        PlaneWaveSpec(f0=f0, period=-40.0, c=(1.0,), lam=1.0, sigma=2.0)
    with pytest.raises(ValueError):
        PlaneWaveSpec(f0=f0, period=40.0, c=(), lam=1.0, sigma=2.0)
    with pytest.raises(ValueError):
        PlaneWaveSpec(f0=f0, period=40.0, c=(1.0,), lam=1.0, sigma=-1.0)


@pytest.mark.parametrize("lam, sigma", BAD_NONLINEARITY)
def test_wave_specs_reject_non_finite_nonlinearity(lam, sigma):
    with pytest.raises(ValueError):
        PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(1.0,), lam=lam,
                      sigma=sigma)
    with pytest.raises(ValueError):
        StandingWaveSpec(f0=_bump(2.0), omega=2.0 * np.pi / 40.0, lam=lam,
                         sigma=sigma)


_NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("spec, params", [
    *((PlaneWaveSpec, {"period": v, "c": (1.0,)}) for v in _NON_FINITE[:2]),
    *((PlaneWaveSpec, {"period": 40.0, "c": (v,)}) for v in _NON_FINITE),
    *((StandingWaveSpec, {"omega": v}) for v in _NON_FINITE),
])
def test_wave_specs_reject_non_finite_wave_parameters(spec, params):
    with pytest.raises(ValueError, match="finite"):
        spec(f0=_bump(3.0), lam=1.0, sigma=2.0, **params)


def test_plane_wave_spec_follows_the_grid_size_rule():
    # a 4-sample profile is refused when the spec is built (Grid needs
    # >= 8 samples), not later by the profile grid
    with pytest.raises(FieldDataError):
        PlaneWaveSpec(f0=np.ones(4, dtype=complex), period=40.0, c=(1.0,),
                      lam=1.0, sigma=2.0)
    PlaneWaveSpec(f0=np.ones(8, dtype=complex), period=40.0, c=(1.0,),
                  lam=1.0, sigma=2.0)


def test_lift_rejects_incompatible_boxes():
    grid = hnls_grid()
    f0 = _bump(3.0)
    with pytest.raises(GridError):
        lift_profile(f0, (1.0, 1.0), grid)  # too many speeds for d=2
    with pytest.raises(GridError):
        lift_profile(f0, (0.7,), grid)  # 0.7 * 40 / 40 not an integer
    with pytest.raises(GridError):
        lift_profile(f0, (1.0,), grid, period=35.0)


def test_lift_gather_matches_trig_series():
    # same function sampled at 64 (gather branch) and 128 (series branch)
    grid = Grid((64, 32), (40.0, 40.0), (1.0, -1.0))
    coarse = lift_profile(_bump(4.0), (2.0,), grid)
    fine_grid = Grid((128,), (40.0,), (1.0,))
    f_fine = gaussian_field(fine_grid, amplitude=0.7, width=4.0).values
    fine = lift_profile(f_fine, (2.0,), grid)
    assert np.max(np.abs(coarse - fine)) < 1e-13


def test_lift_gather_is_bit_stable():
    grid = hnls_grid()
    f0 = _bump(3.0)
    assert np.array_equal(lift_profile(f0, (2.0,), grid),
                          lift_profile(f0, (2.0,), grid))


@pytest.mark.parametrize("shape, c", [((64, 32), (2.0,)),
                                      ((16, 8, 8), (1.0, -2.0))])
def test_lift_gather_in_chunks_is_the_index_formula(shape, c, monkeypatch):
    # chunks of 3 rows on two row blocks: row i of the lift is
    # f[(i - sum_j s_j y_j) mod n], s_j = c_j n dy_j / dx the index shifts
    monkeypatch.setattr(spectral, "_workers", 2)
    monkeypatch.setattr(spectral, "SPLIT_POINTS", int(np.prod(shape)) // 2)
    monkeypatch.setattr(spectral, "CHUNK_POINTS",
                        3 * int(np.prod(shape[1:])))
    d, n = len(shape), shape[0]
    grid = Grid(shape, (40.0,) * d, (1.0,) + (-1.0,) * (d - 1))
    f0 = _bump(3.0)[::64 // n] * (1.0 - 0.5j)
    idx = np.arange(n).reshape((n,) + (1,) * (d - 1))
    for j, cj in enumerate(c):
        along = [1] * d
        along[1 + j] = shape[1 + j]
        y = np.arange(shape[1 + j]) - shape[1 + j] // 2
        idx = idx - round(cj * n / shape[1 + j]) * y.reshape(along)
    assert np.array_equal(lift_profile(f0, c, grid), f0[np.mod(idx, n)])


def test_exact_lift_and_l2_norm_add_their_result_and_one_chunk(monkeypatch):
    # 512^2 on one CPU: the exact gather and the |u|^2 sum walk chunks of
    # rows, so neither forms an index or |u|^2 array of the grid's shape
    # (two int64 index arrays, 4 MiB, and |u|^2 with im^2, 4 MiB, before)
    monkeypatch.setattr(spectral, "_workers", 1)
    grid = hnls_grid(n=512)
    f0 = gaussian_field(Grid((512,), (40.0,), (1.0,)), amplitude=0.8,
                        width=3.0).values
    lift_profile(f0, (1.0,), grid)          # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u = lift_profile(f0, (1.0,), grid)
        lift_rise = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        l2_norm(ComplexField(grid, u))
        norm_rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert lift_rise <= u.nbytes + 256 * 1024
    assert norm_rise <= 256 * 1024


def test_unit_speed_flow_preserves_modulus_and_norms():
    grid = hnls_grid()
    f0 = _bump(4.0) * (1.0 + 0.25j)
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(1.0,), lam=1.0, sigma=2.0)
    u0 = wave_field(spec, 0.0, grid)
    n0 = norms(u0, ps=(4, 6))
    for t in (2.5, 10.0):
        ut = wave_field(spec, t, grid)
        assert np.max(np.abs(np.abs(ut.values) - np.abs(u0.values))) < 1e-12
        nt = norms(ut, ps=(4, 6))
        assert nt.l2 == pytest.approx(n0.l2, rel=1e-12)
        assert nt.lp[4] == pytest.approx(n0.lp[4], rel=1e-12)
        assert nt.lp[6] == pytest.approx(n0.lp[6], rel=1e-12)


def test_unit_speed_formula_matches_full_evolution():
    grid = hnls_grid()
    f0 = _bump(4.0, amplitude=0.8) * (1.0 + 0.25j)
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(1.0,), lam=1.0, sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    state, _ = run(wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=1.0, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = wave_field(spec, 1.0, grid)
    assert _rel(state.field.values, expect.values) < 1e-6


def test_profile_free_flow_matches_propagator():
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(2.0,), lam=0.0,
                         sigma=2.0)
    direct = wave_field(spec, 0.35, grid)
    lifted = apply_linear_propagator(wave_field(spec, 0.0, grid), 0.35)
    assert _rel(direct.values, lifted.values) < 1e-9


def test_lift_commute_on_wrap_free_grid():
    # n_y = 2 n_x so every c=2 lifted frequency (and every nonlinear
    # product) is representable in y: the 2-D stepper then reproduces the
    # lifted 1-D evolution to rounding.
    grid = Grid((64, 128), (40.0, 40.0), (1.0, -1.0))
    spec = PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(2.0,), lam=1.0,
                         sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    state, _ = run(wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=0.3, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = wave_field(spec, 0.3, grid)
    assert _rel(state.field.values, expect.values) < 1e-6


def test_lift_commute_square_grid_alias_floor():
    # On a square grid the c=2 lift doubles frequencies in y, so the box
    # Gaussian's periodization tail (edge value ~e^-12.5) wraps with the
    # wrong symbol; that floor sits near 5e-7 and is data, not solver.
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(4.0), period=40.0, c=(2.0,), lam=1.0,
                         sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    state, _ = run(wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=0.3, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = wave_field(spec, 0.3, grid)
    assert _rel(state.field.values, expect.values) < 5e-6


def test_plane_wave_residual_small():
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(2.0,), lam=1.0,
                         sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    h = 1e-3
    triple = [wave_field(spec, t, grid) for t in (0.5 - h, 0.5, 0.5 + h)]
    assert residual_hnls(*triple, problem) < 5e-3


def test_three_dimensional_lift_point_values():
    grid = Grid((32, 32, 64), (40.0, 40.0, 40.0), (1.0, -1.0, -1.0))
    g1 = Grid((32,), (40.0,), (1.0,))
    f0 = gaussian_field(g1, amplitude=0.5, width=3.0).values
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(1.0, 2.0), lam=1.0, sigma=2.0)
    u = wave_field(spec, 0.0, grid)
    xi = 2.0 * np.pi * np.fft.fftfreq(32, d=40.0 / 32)
    coef = np.fft.fft(f0) * np.exp(1j * xi * 20.0) / 32
    X, Y1, Y2 = grid.meshgrid()
    for i, j, l in ((3, 7, 11), (20, 1, 30), (31, 31, 63)):
        z = X[i, j, l] - Y1[i, j, l] - 2.0 * Y2[i, j, l]
        assert abs(u.values[i, j, l] - np.sum(coef * np.exp(1j * xi * z))) \
            < 1e-12


# ---------------------------------------------------------------------------
# standing waves

def test_standing_wave_carrier_must_sit_on_grid():
    grid = hnls_grid()
    f0 = gaussian_field(Grid((64,), (40.0,), (-1.0,)), amplitude=0.5,
                        width=2.0).values
    bad = StandingWaveSpec(f0=f0, omega=0.3, lam=1.0, sigma=4.0)
    with pytest.raises(GridError):
        wave_field(bad, 0.1, grid)
    with pytest.raises(GridError):
        wave_field(
            StandingWaveSpec(f0=f0[:32], omega=2.0 * np.pi / 40.0, lam=1.0,
                             sigma=4.0), 0.1, grid)


def test_standing_constant_profile_is_phase_flow():
    grid = hnls_grid()
    amp = 0.8
    om = 2.0 * np.pi * 2 / 40.0
    spec = StandingWaveSpec(f0=np.full(64, amp, dtype=complex), omega=om,
                            lam=1.0, sigma=4.0)
    t = 0.7
    got = wave_field(spec, t, grid)
    x = grid.coord_along(0)
    expect = amp * np.exp(1j * (om * x - om * om * t + amp ** 4 * t)) \
        * np.ones(grid.n)
    assert _rel(got.values, expect) < 1e-10


def test_standing_free_flow_matches_propagator():
    grid = hnls_grid()
    f0 = gaussian_field(Grid((64,), (40.0,), (-1.0,)), amplitude=0.5,
                        width=2.0).values
    spec = StandingWaveSpec(f0=f0, omega=2.0 * np.pi / 40.0, lam=0.0,
                            sigma=4.0)
    direct = wave_field(spec, 0.4, grid)
    lifted = apply_linear_propagator(wave_field(spec, 0.0, grid),
                                     0.4)
    assert _rel(direct.values, lifted.values) < 1e-10


def test_standing_wave_residual_small():
    grid = hnls_grid()
    f0 = gaussian_field(Grid((64,), (40.0,), (-1.0,)), amplitude=0.5,
                        width=2.0).values
    spec = StandingWaveSpec(f0=f0, omega=2.0 * np.pi / 40.0, lam=1.0,
                            sigma=4.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=4.0)
    h = 1e-3
    triple = [wave_field(spec, t, grid)
              for t in (0.3 - h, 0.3, 0.3 + h)]
    assert residual_hnls(*triple, problem) < 5e-3


def test_standing_lift_commute():
    # single-x-mode fields factorize exactly through the 2-D stepper
    grid = hnls_grid()
    f0 = gaussian_field(Grid((64,), (40.0,), (-1.0,)), amplitude=0.5,
                        width=2.0).values
    spec = StandingWaveSpec(f0=f0, omega=2.0 * np.pi / 40.0, lam=1.0,
                            sigma=4.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=4.0)
    state, _ = run(wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=0.25, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = wave_field(spec, 0.25, grid)
    assert _rel(state.field.values, expect.values) < 1e-6


# ---------------------------------------------------------------------------
# semiclassical fields

def _candidate(grid):
    # exp(-|x|^2/4): narrow enough in k, small at the box edge
    return gaussian_field(grid, amplitude=1.0, width=np.sqrt(2.0))


def test_semiclassical_identity_at_time_zero():
    grid = hnls_grid()
    A0 = _candidate(grid)
    spec = SemiclassicalSpec(A0=A0, k=0.3, gamma0=0.7, a0=0.0, lam=1.0)
    psi = semiclassical_field(spec, 0.0)
    assert np.array_equal(psi.values, A0.values)


def _semiclassical_reference(spec, t, state):
    # the whole-array formula: f A0(x / b) exp(i (a q / 4 + gamma0 g))
    grid = spec.A0.grid
    if t == 0.0 and state is None:
        a_t, b_t, f_t, g_t = spec.a0, 1.0, 1.0, 0.0
    else:
        a_t, b_t, f_t, g_t = state.at(t)
    if b_t == 1.0:
        inner = spec.A0.values
    else:
        inner = evaluate_at_axes(spec.A0, [grid.coords[j] / b_t
                                           for j in range(grid.d)])
    phase = 0.25 * a_t * signature_quadratic(grid) + spec.gamma0 * g_t
    return f_t * inner * np.exp(1j * phase)


@pytest.mark.parametrize("n", [(128, 128), (256, 256), (32, 32, 16)])
def test_semiclassical_field_keeps_the_bits_of_the_formula(n):
    # the one-buffer field against the whole-array formula: b = 1 at t = 0
    # without a state, then three times of a shrinking b; 256^2 is 4 chunks
    grid = Grid(n, (40.0,) * len(n), (1.0,) + (-1.0,) * (len(n) - 1))
    A0 = ComplexField(grid, _candidate(grid).values
                      * np.exp(0.3j * grid.coord_along(0)))
    spec = SemiclassicalSpec(A0=A0, k=0.25, gamma0=0.7, a0=0.5, lam=1.0)
    state = integrate_transform_odes(0.5, 0.25, grid.d,
                                     np.linspace(0.0, 2.0, 65))
    for t, st in ((0.0, None), (0.3125, state), (1.0, state), (2.0, state)):
        psi = semiclassical_field(spec, t, state=st)
        assert psi.values.tobytes() == _semiclassical_reference(
            spec, t, st).tobytes()


def _stationary_reference(u, grid, V, gamma0, lam):
    # the whole-array form of the bound-state defect
    def norm(x):
        return np.sqrt(float(np.sum(_abs2(x))))
    box = spectral.ifftn(spectral.fftn(u) * (-grid.symbol))
    nl = lam * np.abs(u) ** (4.0 / grid.d) * u
    pot = (V + gamma0) * u
    res = box + nl - pot
    return norm(res) / (norm(box) + norm(nl) + norm(pot))


@pytest.mark.parametrize("gamma0", [0.7, 1.3])
@pytest.mark.parametrize("n", [(128, 128), (256,), (32, 32, 16)])
def test_stationary_residual_keeps_the_bits_of_the_formula(n, gamma0):
    grid = Grid(n, (40.0,) * len(n), (1.0,) + (-1.0,) * (len(n) - 1))
    u = _candidate(grid).values * np.exp(0.3j * grid.coord_along(0))
    V = harmonic_saddle_potential(grid, 0.25)
    defect = bound_state_defect(ComplexField(grid, u), 0.25, gamma0, -0.5)
    assert defect == _stationary_reference(u, grid, V, gamma0, -0.5)


def test_semiclassical_sample_and_defect_memory_is_bounded():
    # the benchmark's 128^2 sample, its spectrum kept by the spec: three
    # fields at the peak (the axis matrix and two contractions, or the
    # result and the chirp's scratch), where the whole-array formula took
    # five; the defect holds two complex and two real arrays beside A0,
    # V and the symbol, where it took about six complex ones
    grid = hnls_grid(n=128)
    field = 16 * 128 * 128             # bytes of one complex field
    spec = SemiclassicalSpec(A0=_candidate(grid), k=0.25, gamma0=0.0,
                             a0=0.5, lam=1.0)
    state = integrate_transform_odes(0.5, 0.25, 2, np.linspace(0.0, 2.0, 65))
    semiclassical_field(spec, 1.0, state=state)         # forms the spectrum
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        semiclassical_field(spec, 2.0, state=state)
        sample = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        bound_state_defect(spec.A0, 0.25, 0.0, 1.0)
        defect = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sample <= 3 * field + 64 * 1024
    assert defect <= 4.5 * field + 64 * 1024


def test_semiclassical_sup_decay_on_saddle():
    grid = hnls_grid()
    spec = SemiclassicalSpec(A0=_candidate(grid), k=1.0, gamma0=0.5, a0=0.0,
                             lam=1.0)
    state = integrate_transform_odes(0.0, 1.0, 2,
                                     np.linspace(0.0, 100.0, 1001))
    ts = np.array([10.0, 17.8, 31.6, 56.2, 100.0])
    sups = [semiclassical_field(spec, t, state=state).linf() for t in ts]
    slope = np.polyfit(np.log(ts), np.log(sups), 1)[0]
    assert -1.1 < slope < -0.9  # -d/2 for d=2


def test_semiclassical_halving_and_floor_crossing():
    grid = hnls_grid()
    A0 = _candidate(grid)
    spec = SemiclassicalSpec(A0=A0, k=0.0, gamma0=0.5, a0=-1.0, lam=1.0)
    state = integrate_transform_odes(-1.0, 0.0, 2, np.linspace(0.0, 0.5, 251))
    ratio = semiclassical_field(spec, 0.5, state=state).linf() / A0.linf()
    assert abs(ratio - 2.0) < 1e-6

    # b^2 is exactly quadratic in t, so extrapolating a fit from the
    # well-resolved window [0.5, 0.9] to the 1e-6 crossing is model-exact;
    # the discriminant is clamped because the double root at t=1 sits a
    # rounding error away from it.
    fine = integrate_transform_odes(-1.0, 0.0, 2, np.linspace(0.0, 0.9, 901),
                                    max_step=1e-4)
    sel = fine.t >= 0.5
    c2, c1, c0 = np.polyfit(fine.t[sel], fine.b[sel] ** 2, 2)
    disc = max(c1 * c1 - 4.0 * c2 * (c0 - 1e-12), 0.0)
    t_star = (-c1 - np.sqrt(disc)) / (2.0 * c2)
    assert t_star < 1.0
    assert abs(t_star - 1.0) <= 1e-6


def test_semiclassical_singular_saddle_cases():
    grid = hnls_grid()
    A0 = _candidate(grid)
    for a0, t_sing in ((-1.0, 1.0 / 3.0), (0.0, 0.5), (1.0, 1.0)):
        state = integrate_transform_odes(a0, -1.0, 2,
                                         np.linspace(0.0, 2.0, 2001))
        assert state.truncated
        assert state.singular_time is not None
        assert abs(state.singular_time - t_sing) < 1e-3
        spec = SemiclassicalSpec(A0=A0, k=-1.0, gamma0=0.0, a0=a0, lam=1.0)
        with pytest.raises(TransformError):
            semiclassical_field(spec, t_sing + 0.1, state=state)


def test_semiclassical_state_checks():
    grid = hnls_grid()
    spec = SemiclassicalSpec(A0=_candidate(grid), k=0.0, gamma0=0.0, a0=0.0,
                             lam=1.0)
    bad_state = integrate_transform_odes(0.0, 0.0, 3,
                                         np.linspace(0.0, 0.2, 11))
    with pytest.raises(TransformError):
        semiclassical_field(spec, 0.1, state=bad_state)
    with pytest.raises(TransformError):
        semiclassical_field(spec, -0.5)


def test_bound_state_defect_conventions():
    grid = hnls_grid()
    zero = ComplexField(grid, np.zeros(grid.n, dtype=complex))
    assert bound_state_defect(zero, 1.0, 0.5, 1.0) == 0.0
    spec = SemiclassicalSpec(_candidate(grid), 1.0, 0.5, 0.0, 1.0)
    assert spec.defect == pytest.approx(0.4866430042, abs=1e-8)
    assert 0.0 < spec.defect < 1.0


def test_semiclassical_residual_follows_the_defect():
    # with k=0, a0=0 the coefficients stay trivial and the constructed
    # field is A e^{i gamma g(t)}; its equation residual tracks the defect
    grid = hnls_grid()
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    st = integrate_transform_odes(0.0, 0.0, 2, np.linspace(0.0, 0.2, 101))
    h = 1e-3
    ratios = []
    for amplitude, width in ((1.2, 1.5), (1.0, 1.3)):
        A = gaussian_field(grid, amplitude=amplitude, width=width)
        sp = SemiclassicalSpec(A0=A, k=0.0, gamma0=0.5, a0=0.0, lam=1.0)
        assert sp.defect == bound_state_defect(A, 0.0, 0.5, 1.0) > 0.0
        triple = [semiclassical_field(sp, t, state=st)
                  for t in (0.1 - h, 0.1, 0.1 + h)]
        ratios.append(residual_hnls(*triple, problem) / sp.defect)
    assert all(1.0 / 3.0 < r < 3.0 for r in ratios)
    assert 1.0 / 3.0 < ratios[0] / ratios[1] < 3.0


def test_bound_state_defect_does_not_depend_on_blas_threads():
    # the seed-11 semiclassical candidate (128^2, where OpenBLAS threads its
    # dot products): the defect's repr with 1 and 2 BLAS threads
    import hnlslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnlslab.__file__)))
    code = ("import math, hnlslab\n"
            "g = hnlslab.Grid((128, 128), (40.0, 40.0), (1.0, -1.0))\n"
            "A0 = hnlslab.gaussian_field(g, amplitude=1.0,"
            " width=math.sqrt(2.0))\n"
            "print(repr(hnlslab.bound_state_defect(A0, 0.25, 1.0, 1.0)))\n")
    defects = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        defects.append(out.stdout.strip())
    assert defects[0] == defects[1]
