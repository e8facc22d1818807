"""Decomposed evolution u = v + phi: steppers, stability harness, two waves."""

import tracemalloc
import warnings
import weakref
from dataclasses import replace

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
    RunConfig,
    STATUS_BLOWNUP,
    STATUS_RUNNING,
    StabilityReport,
    StandingWaveSpec,
    StepperState,
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
from hnlslab import coupled, spectral

PROFILE_GRID = Grid((64,), (40.0,), (1.0,))
BOX = hnls_grid()


def _bump(width, amplitude=0.7):
    return gaussian_field(PROFILE_GRID, amplitude=amplitude, width=width).values


def _plane_spec(c=(1.0,), lam=1.0, sigma=2.0, width=3.0, amplitude=0.7,
                grid=BOX):
    return PlaneWaveSpec(f0=_bump(width, amplitude), c=c, lam=lam,
                         sigma=sigma, grid=grid)


def _standing_spec(lam=1.0, sigma=4.0, grid=BOX):
    return StandingWaveSpec(f0=_bump(2.0, amplitude=0.5),
                            omega=2.0 * np.pi / 40.0, lam=lam, sigma=sigma,
                            grid=grid)


def _seed(grid, amplitude=0.05):
    return gaussian_field(grid, amplitude=amplitude, width=2.0,
                          center=(3.0, -2.0))


def _diff_h1(a, b):
    return norms(a.with_values(a.values - b.values)).h1


# ---------------------------------------------------------------------------
# construction and guards

def test_make_decomposed_initial_state():
    spec = _plane_spec()
    state = make_decomposed((spec,))
    assert state.t == 0.0
    assert state.status == STATUS_RUNNING
    assert state.v.linf() == 0.0
    expect = lift_structured(spec, spec.f0, 0.0)
    assert np.array_equal(state.full_field().values, expect)


def test_make_decomposed_rejects_bad_inputs():
    grid = hnls_grid()
    spec = _plane_spec()
    with pytest.raises(GridError):
        make_decomposed((spec,), v0=constant_field(hnls_grid(n=32), 0.0))
    late = ComplexField(grid, np.zeros(grid.n, dtype=complex), t=0.5)
    with pytest.raises(ValueError):
        make_decomposed((spec,), v0=late)
    with pytest.raises(AttributeError):
        make_decomposed(("gaussian",))
    # the waves of one state share (lam, sigma), and there is at least one
    for specs in ((), (spec, _plane_spec(c=(-1.0,), lam=-1.0)),
                  (spec, _plane_spec(c=(-1.0,), sigma=4.0))):
        with pytest.raises(ValueError, match="share"):
            make_decomposed(specs)
    with pytest.raises(AttributeError):
        lift_structured(3.5, _bump(3.0), 0.0)


def test_decomposed_state_takes_one_box():
    # v and every wave lie on one box: a wave or a v on another is refused
    # by the state itself, whoever builds it
    plane = _plane_spec()
    other = _plane_spec(c=(-1.0,), grid=Grid((64, 64), (40.0, 80.0),
                                               (1.0, -1.0)))
    with pytest.raises(GridError):
        make_decomposed((plane, other))
    state = make_decomposed((plane,))
    with pytest.raises(GridError):
        DecomposedState(v=constant_field(other.grid, 0.0), specs=state.specs,
                        profiles=state.profiles)
    with pytest.raises(GridError):
        DecomposedState(v=state.v, specs=(plane, other),
                        profiles=state.profiles * 2)


def test_components_must_stay_synchronized():
    state = make_decomposed((_plane_spec(),))
    profile, = state.profiles
    drifted = ComplexField(profile.grid, profile.values, t=1.0)
    with pytest.raises(ValueError):
        DecomposedState(v=state.v, specs=state.specs, profiles=(drifted,))


def test_state_derives_both_problems():
    grid = hnls_grid()
    plane = make_decomposed((_plane_spec(sigma=2.0),))
    assert plane.problem.grid.same_box(grid)
    assert (plane.problem.lam, plane.problem.sigma) == (1.0, 2.0)
    assert plane.problem.potential is None
    assert plane.specs[0].problem.grid.same_box(plane.profiles[0].grid)
    standing = make_decomposed((_standing_spec(lam=-1.0),))
    assert standing.specs[0].problem.grid.same_box(
        standing.profiles[0].grid)
    assert (standing.problem.lam, standing.problem.sigma) == (-1.0, 4.0)


def test_finished_state_is_inert():
    base = make_decomposed((_plane_spec(),))
    dead = replace(base, status=STATUS_BLOWNUP)
    assert step_decomposed(dead, 1e-3) is dead
    assert step_perturbation(dead, 1e-3) is dead
    with pytest.raises(ValueError):
        run_decomposed(base, RunConfig(-1.0))


# ---------------------------------------------------------------------------
# dual-path agreement: subtraction stepper vs direct perturbation integrator

@pytest.mark.parametrize("specs", [
    (_plane_spec(),),
    # v = u - phi_1 - phi_2 obeys the perturbation equation with each
    # wave's own nonlinearity subtracted
    (_plane_spec(), PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), c=(-1.0,),
                                  lam=1.0, sigma=2.0, grid=BOX)),
], ids=["one", "two"])
def test_dual_path_agreement_plane_wave(specs):
    grid = hnls_grid()
    v0 = _seed(grid)
    a, _ = run_decomposed(make_decomposed(specs, v0=v0), RunConfig(0.2))
    b, _ = run_decomposed(make_decomposed(specs, v0=v0), RunConfig(0.2),
                          stepper=step_perturbation)
    assert norms(a.v).h1 > 1e-3          # the perturbation is alive
    assert _diff_h1(a.v, b.v) < 1e-5     # measured 1.0e-12 and 1.4e-12


def test_dual_path_agreement_standing_wave():
    grid = hnls_grid()
    spec = _standing_spec()
    v0 = _seed(grid)
    a, _ = run_decomposed(make_decomposed((spec,), v0=v0), RunConfig(0.2))
    b, _ = run_decomposed(make_decomposed((spec,), v0=v0), RunConfig(0.2),
                          stepper=step_perturbation)
    assert _diff_h1(a.v, b.v) < 1e-5     # measured 9e-10


def test_zero_perturbation_is_fixed_point_plane():
    # v0 = 0 must stay 0: the full field and the lifted profile march in
    # lockstep.  |c| = 1 keeps the lift an exact index gather, so the only
    # debris is the (identical) time-stepping of both paths.
    state, series = run_decomposed(make_decomposed((_plane_spec(),)),
                                   RunConfig(2.0))
    assert state.status == STATUS_RUNNING
    assert abs(state.t - 2.0) < 1e-9
    assert float(np.max(series.h)) < 1e-9    # measured 2e-11


def test_zero_perturbation_is_fixed_point_standing():
    _, series = run_decomposed(make_decomposed((_standing_spec(),)),
                               RunConfig(2.0))
    assert float(np.max(series.h)) < 1e-9    # measured 3e-12


def test_perturbation_stepper_reduces_to_plain_solver():
    # With a zero profile the coupling term collapses to the bare
    # nonlinearity and the stepper must reproduce the production solver.
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=np.zeros(64, dtype=complex),
                         c=(1.0,), lam=1.0, sigma=2.0, grid=BOX)
    v0 = gaussian_field(grid, amplitude=0.5, width=3.0)
    problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
    state, _ = run_decomposed(make_decomposed((spec,), v0=v0),
                              RunConfig(0.1), stepper=step_perturbation)
    su = StepperState(field=v0, dt=1e-3)
    for _ in range(100):
        su = step_strang(su, problem)
    assert _diff_h1(state.v, su.field) < 1e-10   # measured 7e-15


def test_perturbation_stepper_is_second_order():
    grid = hnls_grid()
    spec = _plane_spec()
    v0 = _seed(grid, amplitude=0.2)
    ref, _ = run_decomposed(make_decomposed((spec,), v0=v0),
                            RunConfig(0.2, dt0=1e-4))
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        s, _ = run_decomposed(make_decomposed((spec,), v0=v0),
                              RunConfig(0.2, dt0=dt),
                              stepper=step_perturbation)
        errs.append(_diff_h1(s.v, ref.v))
    assert all(e > 1e-12 for e in errs)      # above the reference floor
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


# ---------------------------------------------------------------------------
# regime certification

def test_certify_regime_windows():
    g2 = hnls_grid()
    g3 = Grid((16, 16, 16), (40.0, 40.0, 40.0), (1.0, -1.0, -1.0))
    wide = Grid((64, 64), (40.0, 80.0), (1.0, -1.0))   # 0.5 * 80 / 40 = 1

    ok, note = _plane_spec(c=(2.0,), sigma=4.0, grid=g2).regime()
    assert ok and "quintic" in note
    ok, _ = _plane_spec(c=(2.0,), sigma=4.0, lam=-1.0, grid=g2).regime()
    assert not ok
    ok, _ = _plane_spec(c=(0.5,), sigma=4.0, grid=wide).regime()
    assert not ok                      # below the speed threshold
    ok, _ = _plane_spec(c=(2.0,), sigma=2.0, grid=g2).regime()
    assert not ok                      # planar cubic is not certified
    ok, note = _plane_spec(c=(1.0, 2.0), sigma=2.0, grid=g3).regime()
    assert ok and "transverse" in note

    ok, note = _standing_spec(grid=g2).regime()
    assert ok and "standing" in note
    ok, _ = _standing_spec(lam=-1.0, grid=g2).regime()
    assert not ok
    # the windows are the paper's theorem's, on the hnls signature only
    off = Grid((64, 64), (40.0, 40.0), (1.7, -0.6))
    for spec in (_plane_spec(c=(2.0,), sigma=4.0, grid=off),
                 _standing_spec(grid=off)):
        ok, note = spec.regime()
        assert not ok and "alpha=(1.7, -0.6)" in note


# ---------------------------------------------------------------------------
# stability harness

def test_stability_sweep_plane_quintic(plane_quintic_sweep):
    # Certified window: planar quintic, |c| = 2 > 1, focusing.  Halving the
    # perturbation must roughly halve the measured response.
    sweep = plane_quintic_sweep
    assert profile_hypothesis_warnings(sweep.spec.f0, 40.0) == []
    eps, reports = sweep.eps, sweep.reports
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
    spec = PlaneWaveSpec(f0=_bump(4.0, amplitude=0.4),
                         c=(2.0,), lam=1.0, sigma=4.0, grid=BOX)
    reports = stability_run(spec, _seed(grid, amplitude=1.0), (0.0,),
                            RunConfig(5.0))
    assert reports[0].status == "Bounded"
    assert reports[0].h_series[0] == 0.0
    assert reports[0].h_sup < 1e-4           # measured 1.8e-5


def test_stability_sweep_standing_quintic(standing_quintic_sweep):
    eps = standing_quintic_sweep.eps
    reports = standing_quintic_sweep.reports
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
    grid = Grid((64, 64), (40.0, 80.0), (1.0, -1.0))
    spec = PlaneWaveSpec(f0=f0, c=(0.5,), lam=1.0, sigma=4.0, grid=grid)
    reports = stability_run(spec, _seed(grid, amplitude=1.0), (1e-3,),
                            RunConfig(0.5, linf_ceiling=5.0))
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
            stability_run(_plane_spec(), _seed(grid), eps, RunConfig(0.1))
    assert runs == []


def test_stability_reports_growth_past_the_factor():
    # h_sup >= ||v0||_H1 = eps, so a growth factor below 1 marks any run
    # that does not blow up Grew, with the measured h_sup / eps
    grid = hnls_grid()
    spec = PlaneWaveSpec(f0=_bump(4.0, amplitude=0.4),
                         c=(2.0,), lam=1.0, sigma=4.0, grid=BOX)
    rep, = stability_run(spec, _seed(grid, amplitude=1.0), (1e-3,),
                         RunConfig(0.5, dt0=1e-2), grow_factor=0.5)
    ratio = rep.h_sup / 1e-3
    assert ratio >= 1.0 - 1e-12
    assert rep.status == f"Grew(ratio={ratio:.4g})"


def test_stability_report_payload():
    rep = StabilityReport(eps=1e-3, t=np.array([0.0, 1.0]),
                          h_series=np.array([1e-3, 2e-3]), h_sup=2e-3,
                          status="Bounded", in_regime=True,
                          regime_note="planar quintic plane-wave window",
                          phi_sup=np.array([0.4, 0.3]),
                          grad_phi_sup=np.array([0.1, 0.1]))
    assert rep.payload() == {"eps": 1e-3, "h_sup": 2e-3, "status": "Bounded",
                 "in_regime": True,
                 "regime_note": "planar quintic plane-wave window"}


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
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), c=(-1.0,),
                       lam=1.0, sigma=2.0, grid=BOX)
    out = two_wave_run(s1, s2, RunConfig(1.0))
    assert out.status == "Done"
    assert out.remainder[0] < 1e-12          # u0 is exactly the two lifts
    assert 1e-3 < float(np.max(out.remainder)) < out.product_scale
    # the remainder lives where the waves overlap, not in the far corner of
    # the (z1, z2) fundamental cell
    assert out.boundary_fraction < 1e-6      # measured 5e-9


def test_two_wave_run_frees_its_lifts_before_the_march(monkeypatch):
    lifts, alive = [], []
    lift, march = coupled.lift_structured, coupled.march

    def traced_lift(spec, values, t):
        out = lift(spec, values, t)
        if t == 0.0:
            lifts.append(weakref.ref(out))
        return out

    def traced_march(*args):
        alive.append([ref() is not None for ref in lifts])
        return march(*args)

    monkeypatch.setattr(coupled, "lift_structured", traced_lift)
    monkeypatch.setattr(coupled, "march", traced_march)
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), c=(-1.0,),
                       lam=1.0, sigma=2.0, grid=BOX)
    out = two_wave_run(_plane_spec(c=(1.0,)), s2,
                       RunConfig(0.05, dt0=1e-2, sample_stride=1))
    assert out.status == "Done"
    # product_scale's two lifts and u0's two, each freed before the march
    assert len(alive) == 1 and len(alive[0]) >= 2
    assert not any(alive[0])


def _band_fraction_reference(values, grid, speeds):
    """The boundary fraction by the whole-array formula, on meshgrids."""
    mesh = grid.meshgrid()
    period = grid.length[0]
    band = np.ones(grid.n, dtype=bool)
    for c in speeds:
        z = mesh[0].astype(float).copy()
        for j, cj in enumerate(c):
            z -= cj * mesh[1 + j]
        z -= period * np.round(z / period)
        band &= np.abs(z) > 0.8 * (period / 2.0)
    total = float(np.sum(np.abs(values) ** 2))
    return float(np.sum(np.abs(values[band]) ** 2) / total)


@pytest.mark.parametrize("n, speeds", [
    ((64, 64), ((0.5,), (-0.5,))),
    ((64, 32, 32), ((1.0, 0.0), (0.0, -1.0))),
    ((64, 64, 64), ((1.0, 0.0), (0.0, -1.0)))],
    ids=["64x64", "64x32x32", "64x64x64"])
def test_band_fraction_matches_the_whole_array_formula(n, speeds, rng,
                                                       monkeypatch):
    # 64^2 is one chunk, so the streamed sums have the formula's bits; the
    # 3-D grids are 4 and 16 chunks, 64^3 on two row blocks
    monkeypatch.setattr(spectral, "_workers", 2)
    grid = Grid(n, (40.0, 80.0) if len(n) == 2 else (40.0,) * 3,
                (1.0,) + (-1.0,) * (len(n) - 1))
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = coupled._band_fraction(values, grid, speeds)
    ref = _band_fraction_reference(values, grid, speeds)
    assert 0.0 < ref < 1.0
    if len(n) == 2:
        assert got == ref
    else:
        assert got == pytest.approx(ref, rel=1e-12)


def test_two_wave_band_step_stays_within_the_march_peak(monkeypatch):
    # a 64^3 run on two row blocks: the boundary band is summed chunk by
    # chunk after the march, so its step adds less than a sample does
    # (meshgrids of the box took the band step to 24.8 MiB against the
    # march's 21.0 MiB)
    monkeypatch.setattr(spectral, "_workers", 2)
    grid = Grid((64,) * 3, (40.0,) * 3, (1.0, -1.0, -1.0))
    peaks, march = {}, coupled.march

    def traced_march(*args):
        tracemalloc.reset_peak()
        out = march(*args)
        peaks["march"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(coupled, "march", traced_march)
    s1, s2 = (PlaneWaveSpec(f0=_bump(3.0, amplitude=0.5), c=c,
                            lam=1.0, sigma=2.0, grid=grid)
              for c in ((1.0, 0.0), (0.0, -1.0)))
    tracemalloc.start()
    try:
        out = two_wave_run(s1, s2, RunConfig(5e-3, sample_stride=5))
        peaks["band"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status == "Done"
    assert peaks["band"] <= peaks["march"]


def test_two_wave_symmetry_and_degenerate_cases():
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), c=(-1.0,),
                       lam=1.0, sigma=2.0, grid=BOX)
    a = two_wave_run(s1, s2, RunConfig(0.5))
    b = two_wave_run(s2, s1, RunConfig(0.5))
    assert np.allclose(a.remainder, b.remainder, rtol=0.0, atol=1e-10)
    assert abs(a.product_scale - b.product_scale) < 1e-9

    # a vanishing partner reduces the run to single-wave debris
    s2z = PlaneWaveSpec(f0=np.zeros(64, dtype=complex),
                        c=(-1.0,), lam=1.0, sigma=2.0, grid=BOX)
    out = two_wave_run(s1, s2z, RunConfig(0.5))
    _, series = run_decomposed(make_decomposed((s1,)), RunConfig(0.5))
    assert np.allclose(out.remainder, series.h, rtol=0.0, atol=1e-10)


def test_two_wave_rejects_bad_pairs():
    s1 = _plane_spec(c=(1.0,))
    with pytest.raises(ValueError):
        two_wave_run(s1, _plane_spec(c=(1.0,), width=2.0), RunConfig(0.1))
    with pytest.raises(ValueError):
        two_wave_run(s1, _plane_spec(c=(-1.0,), lam=-1.0), RunConfig(0.1))
    with pytest.raises(TypeError):
        two_wave_run(s1, _standing_spec(), RunConfig(0.1))


def test_two_wave_remainder_at_t0_is_v0():
    # u(0) = v0 + l1 + l2 exactly, so the remainder there is v0 itself:
    # 0 for a two-wave run, and any v0 in the decomposed run of two waves
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), c=(-1.0,),
                       lam=1.0, sigma=2.0, grid=BOX)
    assert two_wave_run(s1, s2, RunConfig(0.02)).remainder[0] == 0.0
    v0 = _seed(grid)
    _, series = run_decomposed(make_decomposed((s1, s2), v0),
                               RunConfig(0.02))
    assert series.h[0] == norms(v0).h1


# ---------------------------------------------------------------------------
# the march policy shared with the full solver

def test_decomposed_and_two_wave_reject_non_finite_times():
    # a NaN end time used to return Running (decomposed) or Done at t=0;
    # the run's RunConfig refuses it
    s1 = _plane_spec(c=(1.0,))
    s2 = _plane_spec(c=(-1.0,), width=2.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            run_decomposed(make_decomposed((s1,)), RunConfig(bad))
        with pytest.raises(ValueError):
            two_wave_run(s1, s2, RunConfig(bad))
    with pytest.raises(ValueError):
        run_decomposed(make_decomposed((s1,)), RunConfig(0.1, dt0=np.nan))
    with pytest.raises(ValueError):
        two_wave_run(s1, s2, RunConfig(0.1, dt0=0.0))


def test_decomposed_runs_refuse_an_adaptive_config(monkeypatch):
    # the carried march has no test with a changing step, so every
    # decomposed run takes a fixed one; the refusal comes before the march
    s1 = _plane_spec(c=(1.0,))
    s2 = _plane_spec(c=(-1.0,), width=2.5)
    monkeypatch.setattr(coupled, "march", None)
    adaptive = RunConfig(0.1, adapt=True)
    with pytest.raises(ValueError, match="fixed step"):
        run_decomposed(make_decomposed((s1,)), adaptive)
    with pytest.raises(ValueError, match="fixed step"):
        run_decomposed(make_decomposed((s1,)), adaptive,
                       stepper=step_decomposed)
    with pytest.raises(ValueError, match="fixed step"):
        stability_run(s1, _seed(hnls_grid()), (1e-3,), adaptive)
    with pytest.raises(ValueError, match="fixed step"):
        two_wave_run(s1, s2, adaptive)


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
            make_decomposed((spec,), v0=v0),
            RunConfig(1.0, dt0=5e-2, linf_ceiling=1e300),
            stepper=step_perturbation)
    assert state.status == STATUS_BLOWNUP
    assert len(series.t) >= 1
    for col in (series.t, series.h, series.phi_sup, series.grad_phi_sup):
        assert np.all(np.isfinite(col))


def test_completed_decomposed_run_stays_running():
    state, series = run_decomposed(make_decomposed((_plane_spec(),)),
                                   RunConfig(0.05, sample_stride=4))
    assert state.status == STATUS_RUNNING
    assert abs(state.t - 0.05) < 1e-12
    # first sample, every 4th step, and the last
    assert len(series.t) == 1 + 50 // 4 + 1
    assert series.t[-1] == state.t


# ---------------------------------------------------------------------------
# carried spectra: the default run against the single-step forms

@pytest.mark.parametrize("specs", [
    (_plane_spec(c=(1.0,)),),
    (_plane_spec(c=(2.0,), sigma=4.0, amplitude=0.4, width=4.0),),
    (_standing_spec(),),
    (_plane_spec(c=(1.0,)), PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5),
                                          c=(-1.0,), lam=1.0, sigma=2.0,
                                          grid=BOX)),
], ids=["plane", "plane-quintic", "standing", "two-waves"])
def test_carried_run_matches_step_decomposed_loop(specs):
    grid = hnls_grid()
    v0 = _seed(grid)
    # 0.0537 / 4e-3 leaves a clipped last step
    config = RunConfig(0.0537, dt0=4e-3, sample_stride=5)
    a, sa = run_decomposed(make_decomposed(specs, v0=v0), config)
    b, sb = run_decomposed(make_decomposed(specs, v0=v0), config,
                           stepper=step_decomposed)
    assert a.status == b.status == STATUS_RUNNING
    assert a.t == b.t
    assert np.array_equal(sa.t, sb.t) and len(sa.t) == 1 + 13 // 5 + 1
    phi_h1 = _diff_h1(b.full_field(), b.v)
    assert norms(b.v).h1 > 1e-3              # the perturbation is alive
    assert _diff_h1(a.v, b.v) <= 1e-11 * phi_h1   # measured <= 1.5e-13
    assert np.allclose(sa.h, sb.h, rtol=0.0, atol=1e-11 * phi_h1)
    for pa, pb in zip(a.profiles, b.profiles, strict=True):
        assert np.allclose(pa.values, pb.values, rtol=0.0, atol=1e-12)


def test_two_wave_run_matches_step_strang_loop():
    grid = hnls_grid()
    s1 = _plane_spec(c=(1.0,))
    s2 = PlaneWaveSpec(f0=_bump(2.5, amplitude=0.5), c=(-1.0,),
                       lam=1.0, sigma=2.0, grid=BOX)
    T, dt, stride = 0.0537, 4e-3, 5
    out = two_wave_run(s1, s2, RunConfig(T, dt0=dt, sample_stride=stride))

    problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
    u = StepperState(field=ComplexField(
        grid, lift_structured(s1, s1.f0, 0.0)
        + lift_structured(s2, s2.f0, 0.0)), dt=dt)
    profiles = [(StepperState(field=ComplexField(s.problem.grid, s.f0),
                              dt=dt), s.problem) for s in (s1, s2)]
    ts, rem = [0.0], [0.0]
    t, steps = 0.0, 0
    while T - t > 1e-12:
        h = min(dt, T - t)
        u = step_strang(StepperState(field=u.field, dt=h), problem)
        profiles = [(step_strang(StepperState(field=p.field, dt=h), pb), pb)
                    for p, pb in profiles]
        t, steps = t + h, steps + 1
        if steps % stride == 0 or T - t <= 1e-12:
            r = u.field.values - sum(
                lift_structured(s, p.field.values, t)
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
    spec = PlaneWaveSpec(f0=_bump(3.0)[::2], c=(1.0,), lam=1.0, sigma=2.0,
                         grid=grid)
    state = make_decomposed((spec,), v0=_seed(grid))
    ffts, lifts = _Counter(), _Counter()
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(spectral, name, ffts.wrap(
            getattr(spectral, name), lambda a, *rest: a.shape == grid.n))
    monkeypatch.setattr(coupled, "lift_structured",
                        lifts.wrap(coupled.lift_structured))
    _, series = run_decomposed(state, RunConfig(0.025))
    n_steps, k = 25, len(series.t)
    assert k == 4                         # samples at steps 0, 10, 20, 25
    assert ffts.calls == 2 * n_steps + 2 * k
    assert lifts.calls == k


def test_carried_run_leaves_a_blown_up_state_alone():
    grid = hnls_grid()
    base = make_decomposed((_plane_spec(),), v0=_seed(grid))
    dead = replace(base, status=STATUS_BLOWNUP)
    out, series = run_decomposed(dead, RunConfig(0.1))
    assert out is dead
    assert list(series.t) == [0.0]
    ref, ref_series = run_decomposed(dead, RunConfig(0.1),
                                     stepper=step_decomposed)
    assert ref is dead and np.array_equal(series.h, ref_series.h)


def test_carried_run_under_a_ceiling_its_loose_bound_passes():
    # sup|u| + 2 sup|profile| is about 3 * 0.75 here, the bounded
    # ||v||_inf + ||profile||_inf about 0.75: a ceiling of 1.5 stops neither
    grid = hnls_grid()
    spec = _plane_spec()
    v0 = _seed(grid)
    config = RunConfig(0.0537, dt0=4e-3, sample_stride=5, linf_ceiling=1.5)
    a, sa = run_decomposed(make_decomposed((spec,), v0=v0), config)
    b, sb = run_decomposed(make_decomposed((spec,), v0=v0), config,
                           stepper=step_decomposed)
    assert a.status == b.status == STATUS_RUNNING
    assert a.t == b.t == 0.0537
    assert np.array_equal(sa.t, sb.t)
    assert _diff_h1(a.v, b.v) <= 1e-11 * norms(b.v).h1 + 1e-13


@pytest.mark.parametrize("partner", [None, 0.3], ids=["one", "two"])
def test_carried_run_detects_blowup_where_the_stepper_does(partner):
    # the collapse of test_stability_detects_blowup, alone or beside a weak
    # wave at the opposite speed: the carried run must not stop on its
    # loose first-step bound (about 6.6 > 5 for the one wave)
    fine = Grid((512,), (40.0,), (1.0,))
    f0 = gaussian_field(fine, amplitude=2.2, width=1.2).values
    grid = Grid((64, 64), (40.0, 80.0), (1.0, -1.0))
    specs = (PlaneWaveSpec(f0=f0, c=(0.5,), lam=1.0, sigma=4.0, grid=grid),)
    if partner is not None:
        specs += (PlaneWaveSpec(
            f0=gaussian_field(fine, amplitude=partner, width=2.0).values,
            c=(-0.5,), lam=1.0, sigma=4.0, grid=grid),)
    v0 = _seed(grid, amplitude=1e-3)
    config = RunConfig(0.5, linf_ceiling=5.0)
    a, sa = run_decomposed(make_decomposed(specs, v0=v0), config)
    b, sb = run_decomposed(make_decomposed(specs, v0=v0), config,
                           stepper=step_decomposed)
    assert a.status == b.status == STATUS_BLOWNUP
    assert np.array_equal(sa.t, sb.t)
    assert 0.02 < a.t == b.t < 0.2              # detected at t ~ 0.08
