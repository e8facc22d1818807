"""Plane-wave, standing-wave, and semiclassical family constructors."""

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
    plane_wave_field,
    refine_bound_state,
    residual_hnls,
    run,
    semiclassical_field,
    standing_wave_field,
)

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


def test_unit_speed_flow_preserves_modulus_and_norms():
    grid = hnls_grid()
    f0 = _bump(4.0) * (1.0 + 0.25j)
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(1.0,), lam=1.0, sigma=2.0)
    u0 = plane_wave_field(spec, 0.0, grid)
    n0 = norms(u0, ps=(4, 6))
    for t in (2.5, 10.0):
        ut = plane_wave_field(spec, t, grid)
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
    state, _ = run(plane_wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=1.0, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = plane_wave_field(spec, 1.0, grid)
    assert _rel(state.field.values, expect.values) < 1e-6


def test_profile_free_flow_matches_propagator():
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(2.0,), lam=0.0,
                         sigma=2.0)
    direct = plane_wave_field(spec, 0.35, grid)
    lifted = apply_linear_propagator(plane_wave_field(spec, 0.0, grid), 0.35)
    assert _rel(direct.values, lifted.values) < 1e-9


def test_lift_commute_on_wrap_free_grid():
    # n_y = 2 n_x so every c=2 lifted frequency (and every nonlinear
    # product) is representable in y: the 2-D stepper then reproduces the
    # lifted 1-D evolution to rounding.
    grid = Grid((64, 128), (40.0, 40.0), (1.0, -1.0))
    spec = PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(2.0,), lam=1.0,
                         sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    state, _ = run(plane_wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=0.3, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = plane_wave_field(spec, 0.3, grid)
    assert _rel(state.field.values, expect.values) < 1e-6


def test_lift_commute_square_grid_alias_floor():
    # On a square grid the c=2 lift doubles frequencies in y, so the box
    # Gaussian's periodization tail (edge value ~e^-12.5) wraps with the
    # wrong symbol; that floor sits near 5e-7 and is data, not solver.
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(4.0), period=40.0, c=(2.0,), lam=1.0,
                         sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    state, _ = run(plane_wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=0.3, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = plane_wave_field(spec, 0.3, grid)
    assert _rel(state.field.values, expect.values) < 5e-6


def test_plane_wave_residual_small():
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(3.0), period=40.0, c=(2.0,), lam=1.0,
                         sigma=2.0)
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    h = 1e-3
    triple = [plane_wave_field(spec, t, grid) for t in (0.5 - h, 0.5, 0.5 + h)]
    assert residual_hnls(*triple, problem) < 5e-3


def test_three_dimensional_lift_point_values():
    grid = Grid((32, 32, 64), (40.0, 40.0, 40.0), (1.0, -1.0, -1.0))
    g1 = Grid((32,), (40.0,), (1.0,))
    f0 = gaussian_field(g1, amplitude=0.5, width=3.0).values
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(1.0, 2.0), lam=1.0, sigma=2.0)
    u = plane_wave_field(spec, 0.0, grid)
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
        standing_wave_field(bad, 0.1, grid)
    with pytest.raises(GridError):
        standing_wave_field(
            StandingWaveSpec(f0=f0[:32], omega=2.0 * np.pi / 40.0, lam=1.0,
                             sigma=4.0), 0.1, grid)


def test_standing_constant_profile_is_phase_flow():
    grid = hnls_grid()
    amp = 0.8
    om = 2.0 * np.pi * 2 / 40.0
    spec = StandingWaveSpec(f0=np.full(64, amp, dtype=complex), omega=om,
                            lam=1.0, sigma=4.0)
    t = 0.7
    got = standing_wave_field(spec, t, grid)
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
    direct = standing_wave_field(spec, 0.4, grid)
    lifted = apply_linear_propagator(standing_wave_field(spec, 0.0, grid),
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
    triple = [standing_wave_field(spec, t, grid)
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
    state, _ = run(standing_wave_field(spec, 0.0, grid),
                   problem, RunConfig(t_end=0.25, dt0=1e-3,
                                      sample_stride=10 ** 9))
    expect = standing_wave_field(spec, 0.25, grid)
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


def test_refinement_lowers_defect_and_scales_residual():
    grid = hnls_grid()
    seed = gaussian_field(grid, amplitude=1.2, width=1.5)
    A1, g1, d1 = refine_bound_state(seed, 0.0, 1.0, iters=100)
    A2, g2, d2 = refine_bound_state(seed, 0.0, 1.0, iters=500)
    d_seed = bound_state_defect(seed, 0.0, g1, 1.0)
    assert d2 <= d1 < d_seed

    # with k=0, a0=0 the coefficients stay trivial and the constructed
    # field is A e^{i gamma g(t)}; its equation residual tracks the defect
    problem = EvolutionProblem(grid=grid, lam=1.0, sigma=2.0)
    h = 1e-3
    ratios = []
    for A, gm, dd in ((A1, g1, d1), (A2, g2, d2)):
        sp = SemiclassicalSpec(A0=A, k=0.0, gamma0=gm, a0=0.0, lam=1.0)
        assert sp.defect == dd
        st = integrate_transform_odes(0.0, 0.0, 2, np.linspace(0.0, 0.2, 101))
        triple = [semiclassical_field(sp, t, state=st)
                  for t in (0.1 - h, 0.1, 0.1 + h)]
        ratios.append(residual_hnls(*triple, problem) / dd)
    assert 1.0 / 3.0 < ratios[0] / ratios[1] < 3.0


def test_refine_rejects_zero_seed():
    grid = hnls_grid()
    zero = ComplexField(grid, np.zeros(grid.n, dtype=complex))
    with pytest.raises(ValueError):
        refine_bound_state(zero, 0.0, 1.0, iters=5)
