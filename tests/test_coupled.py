"""Decomposed evolution u = v + phi: steppers, stability harness, two waves."""

import warnings

import numpy as np
import pytest

from conftest import hnls_grid

from hnlslab import (
    ComplexField,
    DecomposedState,
    EvolutionProblem,
    Grid,
    GridError,
    PlaneWaveSpec,
    STATUS_BLOWNUP,
    STATUS_RUNNING,
    StabilityReport,
    StandingWaveSpec,
    StepperState,
    certify_regime,
    constant_field,
    gaussian_field,
    lift_structured,
    make_decomposed,
    norms,
    profile_hypothesis_warnings,
    run_decomposed,
    stability_run,
    step_decomposed,
    step_perturbation,
    step_strang,
    two_wave_run,
)
from hnlslab import spectral

PROFILE_GRID = Grid((64,), (40.0,), (1.0,))


def _bump(width, amplitude=0.7):
    return gaussian_field(PROFILE_GRID, amplitude=amplitude, width=width).values


def _plane_spec(c=(1.0,), lam=1.0, sigma=2.0, width=3.0, amplitude=0.7):
    return PlaneWaveSpec(f0=_bump(width, amplitude), period=40.0, c=c,
                         lam=lam, sigma=sigma)


def _standing_spec(lam=1.0, sigma=4.0):
    return StandingWaveSpec(f0=_bump(2.0, amplitude=0.5),
                            omega=2.0 * np.pi / 40.0, lam=lam, sigma=sigma)


def _seed(grid, amplitude=0.05):
    return gaussian_field(grid, amplitude=amplitude, width=2.0,
                          center=(3.0, -2.0))


def _diff_h1(a, b):
    return norms(a.with_values(a.values - b.values)).h1


# ---------------------------------------------------------------------------
# construction and guards

def test_make_decomposed_initial_state():
    grid = hnls_grid()
    spec = _plane_spec()
    state = make_decomposed(spec, grid)
    assert state.t == 0.0
    assert state.status == STATUS_RUNNING
    assert state.v.linf() == 0.0
    expect = lift_structured(spec, spec.f0, grid, 0.0)
    assert np.array_equal(state.full_field().values, expect)


def test_make_decomposed_rejects_bad_inputs():
    grid = hnls_grid()
    spec = _plane_spec()
    with pytest.raises(GridError):
        make_decomposed(spec, grid, v0=constant_field(hnls_grid(n=32), 0.0))
    late = ComplexField(grid, np.zeros(grid.n, dtype=complex), t=0.5)
    with pytest.raises(ValueError):
        make_decomposed(spec, grid, v0=late)
    with pytest.raises(TypeError):
        make_decomposed("gaussian", grid)
    with pytest.raises(TypeError):
        lift_structured(3.5, _bump(3.0), grid, 0.0)


def test_components_must_stay_synchronized():
    grid = hnls_grid()
    state = make_decomposed(_plane_spec(), grid)
    drifted = ComplexField(state.profile.grid, state.profile.values, t=1.0)
    with pytest.raises(ValueError):
        DecomposedState(v=state.v, spec=state.spec, profile=drifted)


def test_state_derives_both_problems():
    grid = hnls_grid()
    plane = make_decomposed(_plane_spec(sigma=2.0), grid)
    assert plane.problem.grid.same_box(grid)
    assert (plane.problem.lam, plane.problem.sigma) == (1.0, 2.0)
    assert plane.problem.potential is None
    assert plane.profile_problem.grid.same_box(plane.profile.grid)
    standing = make_decomposed(_standing_spec(lam=-1.0), grid)
    assert standing.profile_problem.grid.same_box(standing.profile.grid)
    assert (standing.problem.lam, standing.problem.sigma) == (-1.0, 4.0)


def test_finished_state_is_inert():
    grid = hnls_grid()
    base = make_decomposed(_plane_spec(), grid)
    dead = DecomposedState(v=base.v, spec=base.spec, profile=base.profile,
                           status=STATUS_BLOWNUP)
    assert step_decomposed(dead, 1e-3) is dead
    assert step_perturbation(dead, 1e-3) is dead
    with pytest.raises(ValueError):
        run_decomposed(base, -1.0)


# ---------------------------------------------------------------------------
# dual-path agreement: subtraction stepper vs direct perturbation integrator

def test_dual_path_agreement_plane_wave():
    grid = hnls_grid()
    spec = _plane_spec()
    v0 = _seed(grid)
    a, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2)
    b, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2,
                          stepper=step_perturbation)
    assert norms(a.v).h1 > 1e-3          # the perturbation is alive
    assert _diff_h1(a.v, b.v) < 1e-5     # measured 2e-11


def test_dual_path_agreement_standing_wave():
    grid = hnls_grid()
    spec = _standing_spec()
    v0 = _seed(grid)
    a, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2)
    b, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2,
                          stepper=step_perturbation)
    assert _diff_h1(a.v, b.v) < 1e-5     # measured 9e-10


def test_zero_perturbation_is_fixed_point_plane():
    # v0 = 0 must stay 0: the full field and the lifted profile march in
    # lockstep.  |c| = 1 keeps the lift an exact index gather, so the only
    # debris is the (identical) time-stepping of both paths.
    grid = hnls_grid()
    state, series = run_decomposed(make_decomposed(_plane_spec(), grid), 2.0)
    assert state.status == STATUS_RUNNING
    assert abs(state.t - 2.0) < 1e-9
    assert float(np.max(series.h)) < 1e-9    # measured 2e-11


def test_zero_perturbation_is_fixed_point_standing():
    grid = hnls_grid()
    _, series = run_decomposed(make_decomposed(_standing_spec(), grid), 2.0)
    assert float(np.max(series.h)) < 1e-9    # measured 3e-12


def test_perturbation_stepper_reduces_to_plain_solver():
    # With a zero profile the coupling term collapses to the bare
    # nonlinearity and the stepper must reproduce the production solver.
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=np.zeros(64, dtype=complex), period=40.0,
                         c=(1.0,), lam=1.0, sigma=2.0)
    v0 = gaussian_field(grid, amplitude=0.5, width=3.0)
    problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
    state, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.1,
                              stepper=step_perturbation)
    su = StepperState(field=v0, dt=1e-3)
    for _ in range(100):
        su = step_strang(su, problem)
    assert _diff_h1(state.v, su.field) < 1e-10   # measured 7e-15


def test_perturbation_stepper_is_second_order():
    grid = hnls_grid()
    spec = _plane_spec()
    v0 = _seed(grid, amplitude=0.2)
    ref, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2, dt=1e-4)
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        s, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2,
                              dt=dt, stepper=step_perturbation)
        errs.append(_diff_h1(s.v, ref.v))
    assert all(e > 1e-12 for e in errs)      # above the reference floor
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


# ---------------------------------------------------------------------------
# regime certification

def test_certify_regime_windows():
    g2 = hnls_grid()
    g3 = Grid((16, 16, 16), (40.0, 40.0, 40.0), (1.0, -1.0, -1.0))

    ok, note = certify_regime(_plane_spec(c=(2.0,), sigma=4.0), g2)
    assert ok and "quintic" in note
    ok, _ = certify_regime(_plane_spec(c=(2.0,), sigma=4.0, lam=-1.0), g2)
    assert not ok
    ok, _ = certify_regime(_plane_spec(c=(0.5,), sigma=4.0), g2)
    assert not ok                      # below the speed threshold
    ok, _ = certify_regime(_plane_spec(c=(2.0,), sigma=2.0), g2)
    assert not ok                      # planar cubic is not certified
    ok, note = certify_regime(_plane_spec(c=(1.0, 2.0), sigma=2.0), g3)
    assert ok and "transverse" in note

    ok, note = certify_regime(_standing_spec(), g2)
    assert ok and "standing" in note
    ok, _ = certify_regime(_standing_spec(lam=-1.0), g2)
    assert not ok
    ok, note = certify_regime(3.5, g2)
    assert not ok and "unknown" in note


# ---------------------------------------------------------------------------
# stability harness

def test_stability_sweep_plane_quintic():
    # Certified window: planar quintic, |c| = 2 > 1, focusing.  Halving the
    # perturbation must roughly halve the measured response.
    grid = hnls_grid()
    f0 = _bump(4.0, amplitude=0.4)
    assert profile_hypothesis_warnings(f0, 40.0) == []
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(2.0,), lam=1.0, sigma=4.0)
    shape = _seed(grid, amplitude=1.0)
    eps = (1e-3, 5e-4, 2.5e-4)
    reports = stability_run(spec, shape, eps, 5.0)
    sups = []
    for r, e in zip(reports, eps):
        assert r.in_regime
        assert r.status == "Bounded"
        assert abs(r.h_series[0] - e) < 1e-12 * e   # v0 normalized to eps
        assert 0.5 < r.h_sup / e < 10.0
        sups.append(r.h_sup)
    assert 1.6 < sups[0] / sups[1] < 2.5
    assert 1.6 < sups[1] / sups[2] < 2.5
    # profile decay proxies over [1, 5]: sqrt(t) ||phi||_inf levels off and
    # ||grad phi||_inf never exceeds its initial value
    r = reports[0]
    late = r.t >= 1.0
    scaled = np.sqrt(r.t[late]) * r.phi_sup[late]
    assert float(np.max(scaled)) < 2.0 * scaled[0]     # measured ratio 1.57
    assert float(np.max(r.grad_phi_sup)) <= 1.05 * r.grad_phi_sup[0]


def test_stability_zero_eps_measures_grid_debris():
    # eps = 0 isolates the lift/step commutation error.  On the square grid
    # the c = 2 lift folds the profile's box-edge spectral tail onto modes
    # with the wrong symbol, so the debris is small but not zero.
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(4.0, amplitude=0.4), period=40.0,
                         c=(2.0,), lam=1.0, sigma=4.0)
    reports = stability_run(spec, _seed(grid, amplitude=1.0), (0.0,), 5.0)
    assert reports[0].status == "Bounded"
    assert reports[0].h_series[0] == 0.0
    assert reports[0].h_sup < 1e-4           # measured 1.8e-5


def test_stability_sweep_standing_quintic():
    grid = hnls_grid()
    spec = _standing_spec()
    eps = (1e-3, 5e-4, 2.5e-4)
    reports = stability_run(spec, _seed(grid, amplitude=1.0), eps, 5.0)
    sups = []
    for r, e in zip(reports, eps):
        assert r.in_regime
        assert r.status == "Bounded"
        assert 0.5 < r.h_sup / e < 10.0
        sups.append(r.h_sup)
    assert 1.6 < sups[0] / sups[1] < 2.5
    assert 1.6 < sups[1] / sups[2] < 2.5


def test_stability_detects_blowup():
    # Focusing quintic below the speed threshold; the profile is sampled on
    # its own fine grid so the 1-D collapse is resolved up to sup ~ 7.
    # (|c| < 1 with a non-integer speed needs an anisotropic box: the lift is
    # compatible because 0.5 * 80 / 40 is an integer.)
    fine = Grid((512,), (40.0,), (1.0,))
    f0 = gaussian_field(fine, amplitude=2.2, width=1.2).values
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(0.5,), lam=1.0, sigma=4.0)
    grid = Grid((64, 64), (40.0, 80.0), (1.0, -1.0))
    reports = stability_run(spec, _seed(grid, amplitude=1.0), (1e-3,), 0.5,
                            linf_ceiling=5.0)
    r = reports[0]
    assert r.status == "BlownUp"
    assert not r.in_regime
    assert r.t[-1] < 0.2                     # detected at t ~ 0.08


def test_stability_negative_eps_rejected(monkeypatch):
    # every eps is checked before the first run, so a bad entry late in
    # the list starts no sweep, and a non-finite one is refused by name
    import hnlslab.coupled as coupled
    runs = []
    monkeypatch.setattr(coupled, "run_decomposed",
                        lambda *a, **kw: runs.append(a))
    grid = hnls_grid()
    for eps in ((-1e-3,), (1e-3, -1e-3), (np.nan,), (np.inf,), (-np.inf,)):
        with pytest.raises(ValueError, match="eps"):
            stability_run(_plane_spec(), _seed(grid), eps, 0.1)
    assert runs == []


def test_stability_reports_growth_past_the_factor():
    # h_sup >= ||v0||_H1 = eps, so a growth factor below 1 marks any run
    # that does not blow up Grew, with the measured h_sup / eps
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(4.0, amplitude=0.4), period=40.0,
                         c=(2.0,), lam=1.0, sigma=4.0)
    rep, = stability_run(spec, _seed(grid, amplitude=1.0), (1e-3,), 0.5,
                         dt=1e-2, grow_factor=0.5)
    ratio = rep.h_sup / 1e-3
    assert ratio >= 1.0 - 1e-12
    assert rep.status == f"Grew(ratio={ratio:.4g})"


def test_stability_report_payload():
    rep = StabilityReport(eps=1e-3, t=np.array([0.0, 1.0]),
                          h_series=np.array([1e-3, 2e-3]), h_sup=2e-3,
                          status="Bounded", in_regime=True,
                          regime_note="planar quintic plane-wave window",
                          phi_sup=np.array([0.4, 0.3]),
                          grad_phi_sup=np.array([0.1, 0.1]),
                          series_path="run/eps_1e-3.csv")
    assert rep.payload() == {"eps": 1e-3, "h_sup": 2e-3, "status": "Bounded",
                 "in_regime": True,
                 "regime_note": "planar quintic plane-wave window",
                 "series": "run/eps_1e-3.csv"}


# ---------------------------------------------------------------------------
# profile hypothesis lint

def test_profile_lint_passes_localized_and_flags_wide():
    assert profile_hypothesis_warnings(_bump(4.0, amplitude=0.4), 40.0) == []
    wide = profile_hypothesis_warnings(_bump(12.0, amplitude=1.0), 40.0)
    assert len(wide) == 3
    joined = " ".join(wide)
    for word in ("localization", "smoothness", "gradient"):
        assert word in joined


def test_profile_lint_degenerate_inputs():
    assert profile_hypothesis_warnings(np.zeros(64, dtype=complex), 40.0) == []
    msgs = profile_hypothesis_warnings(np.full(64, np.nan, dtype=complex),
                                       40.0)
    assert len(msgs) == 1 and "non-finite" in msgs[0]
    msgs = profile_hypothesis_warnings(np.ones(4, dtype=complex), 40.0)
    assert len(msgs) == 1
    msgs = profile_hypothesis_warnings(np.ones((8, 8), dtype=complex), 40.0)
    assert len(msgs) == 1


# ---------------------------------------------------------------------------
# two-wave interaction

def test_two_wave_interaction_stays_localized():
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), period=40.0, c=(-1.0,),
                       lam=1.0, sigma=2.0)
    out = two_wave_run(s1, s2, None, 1.0, grid)
    assert out.status == "Done"
    assert out.remainder[0] < 1e-12          # u0 is exactly the two lifts
    assert 1e-3 < float(np.max(out.remainder)) < out.product_scale
    # the remainder lives where the waves overlap, not in the far corner of
    # the (z1, z2) fundamental cell
    assert out.boundary_fraction < 1e-6      # measured 5e-9


def test_two_wave_symmetry_and_degenerate_cases():
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), period=40.0, c=(-1.0,),
                       lam=1.0, sigma=2.0)
    a = two_wave_run(s1, s2, None, 0.5, grid)
    b = two_wave_run(s2, s1, None, 0.5, grid)
    assert np.allclose(a.remainder, b.remainder, rtol=0.0, atol=1e-10)
    assert abs(a.product_scale - b.product_scale) < 1e-9

    # a vanishing partner reduces the run to single-wave debris
    s2z = PlaneWaveSpec(f0=np.zeros(64, dtype=complex), period=40.0,
                        c=(-1.0,), lam=1.0, sigma=2.0)
    out = two_wave_run(s1, s2z, None, 0.5, grid)
    _, series = run_decomposed(make_decomposed(s1, grid), 0.5)
    assert np.allclose(out.remainder, series.h, rtol=0.0, atol=1e-10)


def test_two_wave_rejects_bad_pairs():
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    with pytest.raises(ValueError):
        two_wave_run(s1, _plane_spec(c=(1.0,), width=2.0), None, 0.1, grid)
    with pytest.raises(ValueError):
        two_wave_run(s1, _plane_spec(c=(-1.0,), lam=-1.0), None, 0.1, grid)
    with pytest.raises(TypeError):
        two_wave_run(s1, _standing_spec(), None, 0.1, grid)
    with pytest.raises(GridError):
        two_wave_run(s1, _plane_spec(c=(-1.0,)),
                     constant_field(hnls_grid(n=32), 0.0), 0.1, grid)
    # the run starts at t = 0, so a later v0 used to be run from there
    late = ComplexField(grid, np.zeros(grid.n, dtype=complex), t=0.5)
    with pytest.raises(ValueError):
        two_wave_run(s1, _plane_spec(c=(-1.0,)), late, 0.1, grid)


def test_two_wave_remainder_at_t0_is_v0():
    # u(0) = v0 + l1 + l2 exactly, so the remainder there is v0 itself
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), period=40.0, c=(-1.0,),
                       lam=1.0, sigma=2.0)
    assert two_wave_run(s1, s2, None, 0.02, grid).remainder[0] == 0.0
    v0 = _seed(grid)
    out = two_wave_run(s1, s2, v0, 0.02, grid)
    assert out.remainder[0] == norms(v0).h1


# ---------------------------------------------------------------------------
# the march policy shared with the full solver

def test_decomposed_and_two_wave_reject_non_finite_times():
    # a NaN end time used to return Running (decomposed) or Done at t=0
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = _plane_spec(c=(-1.0,), width=2.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            run_decomposed(make_decomposed(s1, grid), bad)
        with pytest.raises(ValueError):
            two_wave_run(s1, s2, None, bad, grid)
    with pytest.raises(ValueError):
        run_decomposed(make_decomposed(s1, grid), 0.1, dt=np.nan)
    with pytest.raises(ValueError):
        two_wave_run(s1, s2, None, 0.1, grid, dt=0.0)


def test_non_finite_perturbation_step_is_recorded_blowup():
    # a huge v0 on a quintic wave overflows the perturbation integrator's
    # RK4 sweep at dt = 5e-2; the run reports BlownUp and keeps the
    # finite samples instead of raising from the H1 norm
    grid = hnls_grid()
    spec = _plane_spec(c=(2.0,), sigma=4.0, amplitude=1.5)
    v0 = gaussian_field(grid, amplitude=5.0, width=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, series = run_decomposed(
            make_decomposed(spec, grid, v0=v0), 1.0, dt=5e-2,
            stepper=step_perturbation, linf_ceiling=1e300)
    assert state.status == STATUS_BLOWNUP
    assert len(series.t) >= 1
    for col in (series.t, series.h, series.phi_sup, series.grad_phi_sup):
        assert np.all(np.isfinite(col))


def test_completed_decomposed_run_stays_running():
    grid = hnls_grid()
    state, series = run_decomposed(make_decomposed(_plane_spec(), grid),
                                   0.05, sample_stride=4)
    assert state.status == STATUS_RUNNING
    assert abs(state.t - 0.05) < 1e-12
    # first sample, every 4th step, and the last
    assert len(series.t) == 1 + 50 // 4 + 1
    assert series.t[-1] == state.t


# ---------------------------------------------------------------------------
# carried spectra: the default run against the single-step forms

@pytest.mark.parametrize("spec", [
    _plane_spec(c=(1.0,)),
    _plane_spec(c=(2.0,), sigma=4.0, amplitude=0.4, width=4.0),
    _standing_spec(),
])
def test_carried_run_matches_step_decomposed_loop(spec):
    grid = hnls_grid()
    v0 = _seed(grid)
    # 0.0537 / 4e-3 leaves a clipped last step
    kw = dict(dt=4e-3, sample_stride=5)
    a, sa = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.0537, **kw)
    b, sb = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.0537,
                           stepper=step_decomposed, **kw)
    assert a.status == b.status == STATUS_RUNNING
    assert a.t == b.t
    assert np.array_equal(sa.t, sb.t) and len(sa.t) == 1 + 13 // 5 + 1
    phi_h1 = norms(ComplexField(
        grid, lift_structured(spec, b.profile.values, grid, b.t))).h1
    assert norms(b.v).h1 > 1e-3              # the perturbation is alive
    assert _diff_h1(a.v, b.v) <= 1e-11 * phi_h1   # measured 1.2e-14
    assert np.allclose(sa.h, sb.h, rtol=0.0, atol=1e-11 * phi_h1)
    assert np.allclose(a.profile.values, b.profile.values, rtol=0.0,
                       atol=1e-12)


def test_two_wave_run_matches_step_strang_loop():
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), period=40.0, c=(-1.0,),
                       lam=1.0, sigma=2.0)
    v0 = _seed(grid)
    T, dt, stride = 0.0537, 4e-3, 5
    out = two_wave_run(s1, s2, v0, T, grid, dt=dt, sample_stride=stride)

    problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
    u = StepperState(field=ComplexField(
        grid, v0.values + lift_structured(s1, s1.f0, grid, 0.0)
        + lift_structured(s2, s2.f0, grid, 0.0)), dt=dt)
    profiles = [(StepperState(field=ComplexField(PROFILE_GRID, s.f0),
                              dt=dt),
                 EvolutionProblem(Grid((64,), (40.0,), (s.dispersion,)),
                                  lam=1.0, sigma=2.0)) for s in (s1, s2)]
    ts, rem = [0.0], [norms(v0).h1]
    t, steps = 0.0, 0
    while T - t > 1e-12:
        h = min(dt, T - t)
        u = step_strang(StepperState(field=u.field, dt=h), problem)
        profiles = [(step_strang(StepperState(field=p.field, dt=h), pb), pb)
                    for p, pb in profiles]
        t, steps = t + h, steps + 1
        if steps % stride == 0 or T - t <= 1e-12:
            r = u.field.values - sum(
                lift_structured(s, p.field.values, grid, t)
                for s, (p, _) in zip((s1, s2), profiles))
            ts.append(t)
            rem.append(norms(ComplexField(grid, r)).h1)
    assert out.status == "Done"
    assert np.array_equal(out.t, ts)
    assert np.allclose(out.remainder, rem, rtol=0.0,
                       atol=1e-11 * np.sqrt(out.product_scale))


class _Counter:
    """Counts the calls of wrapped functions whose arguments `when` takes."""

    def __init__(self):
        self.calls = 0

    def wrap(self, fn, when=lambda *args: True):
        def counted(*args, **kwargs):
            self.calls += bool(when(*args))
            return fn(*args, **kwargs)
        return counted


def test_carried_run_fft_and_lift_counts(monkeypatch):
    # per step: 2 full-grid FFTs; per sample after t=0: one ifftn and one
    # lift to form v; per sample: one fftn in the H1 norm; once: the
    # forward FFT of u0 = v0 + lift(phi0)
    import hnlslab.coupled as coupled
    grid = hnls_grid(n=32)
    spec = PlaneWaveSpec(f0=_bump(3.0)[::2], period=40.0, c=(1.0,),
                         lam=1.0, sigma=2.0)
    state = make_decomposed(spec, grid, v0=_seed(grid))
    ffts, lifts = _Counter(), _Counter()
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(spectral, name, ffts.wrap(
            getattr(spectral, name), lambda a, *rest: a.shape == grid.n))
    monkeypatch.setattr(coupled, "lift_structured",
                        lifts.wrap(coupled.lift_structured))
    _, series = run_decomposed(state, 0.025, dt=1e-3, sample_stride=10)
    n_steps, k = 25, len(series.t)
    assert k == 4                         # samples at steps 0, 10, 20, 25
    assert ffts.calls == 2 * n_steps + 2 * k
    assert lifts.calls == k


def test_carried_run_leaves_a_blown_up_state_alone():
    grid = hnls_grid()
    base = make_decomposed(_plane_spec(), grid, v0=_seed(grid))
    dead = DecomposedState(v=base.v, spec=base.spec, profile=base.profile,
                           status=STATUS_BLOWNUP)
    out, series = run_decomposed(dead, 0.1)
    assert out is dead
    assert list(series.t) == [0.0]
    ref, ref_series = run_decomposed(dead, 0.1, stepper=step_decomposed)
    assert ref is dead and np.array_equal(series.h, ref_series.h)


def test_carried_run_under_a_ceiling_its_loose_bound_passes():
    # sup|u| + 2 sup|profile| is about 3 * 0.75 here, the bounded
    # ||v||_inf + ||profile||_inf about 0.75: a ceiling of 1.5 stops neither
    grid = hnls_grid()
    spec = _plane_spec()
    v0 = _seed(grid)
    kw = dict(dt=4e-3, sample_stride=5, linf_ceiling=1.5)
    a, sa = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.0537, **kw)
    b, sb = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.0537,
                           stepper=step_decomposed, **kw)
    assert a.status == b.status == STATUS_RUNNING
    assert a.t == b.t == 0.0537
    assert np.array_equal(sa.t, sb.t)
    assert _diff_h1(a.v, b.v) <= 1e-11 * norms(b.v).h1 + 1e-13


def test_carried_run_detects_blowup_where_the_stepper_does():
    # the collapse of test_stability_detects_blowup: the carried run must
    # not stop on its loose first-step bound (about 6.6 > 5)
    fine = Grid((512,), (40.0,), (1.0,))
    f0 = gaussian_field(fine, amplitude=2.2, width=1.2).values
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(0.5,), lam=1.0, sigma=4.0)
    grid = Grid((64, 64), (40.0, 80.0), (1.0, -1.0))
    v0 = _seed(grid, amplitude=1e-3)
    a, sa = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.5,
                           linf_ceiling=5.0)
    b, sb = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.5,
                           linf_ceiling=5.0, stepper=step_decomposed)
    assert a.status == b.status == STATUS_BLOWNUP
    assert np.array_equal(sa.t, sb.t)
    assert 0.02 < a.t == b.t < 0.2              # detected at t ~ 0.08
