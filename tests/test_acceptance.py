"""Acceptance suite: one test per advertised guarantee.

Each test prints a single PASS/FAIL line with the measured numbers, so a
`pytest -v -s tests/test_acceptance.py` run doubles as the sign-off sheet.
Two moment identities are asserted in the form the data actually satisfies
(center-of-mass slope carries a factor 2*alpha_j; the moment flux is the
dilation one); the single-factor / sign-flipped shorthands are printed
alongside for the record.  See the notes in tests 02 and 03.
"""

import time

import numpy as np
import pytest

from conftest import hnls_grid

from hnlslab import (
    ComplexField,
    EvolutionProblem,
    FieldTrajectory,
    Grid,
    PlaneWaveSpec,
    RunConfig,
    STATUS_BLOWNUP,
    STATUS_DONE,
    SemiclassicalSpec,
    StandingWaveSpec,
    apply_pct,
    closed_form_b,
    concentration_scan,
    constraint_residuals,
    gaussian_field,
    harmonic_saddle_potential,
    integrate_transform_odes,
    make_decomposed,
    make_radial_profile,
    norms,
    plane_wave_field,
    profile_hypothesis_warnings,
    radial_energy,
    read_snapshot,
    residual_hnls,
    run,
    run_decomposed,
    semiclassical_field,
    shoot_ground_state,
    snapshot_nbytes,
    solve_radial,
    stability_run,
    step_perturbation,
    verify_conservation,
    write_snapshot,
)
from scipy.interpolate import CubicSpline

PROFILE_GRID = Grid((64,), (40.0,), (1.0,))


def _check(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{label}: {detail}"


def _rel(a, b):
    return np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel())


def _conservation_run(lam, dt):
    grid = hnls_grid(n=128)
    u0 = gaussian_field(grid, amplitude=0.7, width=3.0, boost=(0.5, -0.3))
    problem = EvolutionProblem(grid, lam=lam, sigma=2.0)
    start = time.monotonic()
    _, series = run(u0, problem,
                    RunConfig(t_end=1.0, dt0=dt, sample_stride=10))
    elapsed = time.monotonic() - start
    return verify_conservation(series), elapsed


@pytest.fixture(scope="module")
def focusing_run():
    """Boosted-Gaussian focusing run shared by tests 01-03."""
    return _conservation_run(lam=1.0, dt=1e-3)


@pytest.fixture(scope="module")
def ground_state():
    return shoot_ground_state(2.0)


def test_01_conservation_drifts_and_dt_convergence(focusing_run):
    rep_plus, t_plus = focusing_run
    rep_minus, t_minus = _conservation_run(lam=-1.0, dt=1e-3)
    rep_half, t_half = _conservation_run(lam=1.0, dt=5e-4)
    elapsed = t_plus + t_minus + t_half
    ratio = rep_plus.energy_drift / rep_half.energy_drift
    drift_ok = all(r.mass_drift < 1e-10 and r.momentum_drift < 1e-8
                   and r.energy_drift < 1e-6
                   for r in (rep_plus, rep_minus))
    _check("01 conservation on 128^2, sigma=2, lam=+/-1, t in [0,1]",
           drift_ok and 3.0 <= ratio <= 5.0 and elapsed < 120.0,
           f"mass {rep_plus.mass_drift:.1e}/{rep_minus.mass_drift:.1e}, "
           f"momentum {rep_plus.momentum_drift:.1e}/"
           f"{rep_minus.momentum_drift:.1e}, "
           f"energy {rep_plus.energy_drift:.1e}/{rep_minus.energy_drift:.1e}, "
           f"halving ratio {ratio:.2f}, {elapsed:.0f} s")


def test_02_center_of_mass_moves_linearly(focusing_run):
    rep, _ = focusing_run
    # d/dt int x_j |u|^2 = 2 alpha_j Im int conj(u) d_j u: the factor
    # 2 alpha_j is forced by the continuity equation, so the slope is
    # asserted against 2 alpha_j p_j; the bare slope/p_j ratio (which the
    # single-factor shorthand would make 1) is printed for the record.
    slope_rel = abs(rep.com_slope[0] - rep.com_predicted[0]) \
        / abs(rep.com_predicted[0])
    _check("02 center-of-mass linearity on the boosted run",
           rep.com_fit_residual < 1e-6 and slope_rel < 1e-6
           and rep.ysign_matches_flip is True,
           f"fit residual {rep.com_fit_residual:.1e} of excursion, "
           f"|slope_x/2p_x - 1| = {slope_rel:.1e}, "
           f"literal slope_x/p_x = {rep.com_single_factor_ratio[0]:.6f}, "
           f"y-slope sign flipped vs momentum: {rep.ysign_matches_flip}")


def test_03_virial_identities(focusing_run):
    rep, _ = focusing_run
    # The signed second moment int (x^2 - |y|^2)|u|^2 differentiates to the
    # dilation flux 4 Im int conj(u) (x u_x + y . grad_y u): the signature
    # signs cancel against the moment's own.  The sign-flipped variant's
    # residual is printed to document that it is NOT the matching one.
    rate_ok = rep.virial_rate_residual < 1e-2 * rep.virial_scale
    second_ok = rep.virial_second_residual < 1e-2 * rep.virial_second_scale
    _check("03 virial rate/second-derivative identities",
           rate_ok and second_ok and rep.rate_convention == "dilation",
           f"rate residual {rep.virial_rate_residual:.1e} vs "
           f"1e-2*scale {1e-2 * rep.virial_scale:.1e}, "
           f"second residual {rep.virial_second_residual:.1e} vs "
           f"1e-2*|16E| {1e-2 * rep.virial_second_scale:.1e}, "
           f"sign-flipped variant residual "
           f"{rep.virial_rate_signed_residual:.1e}")


def _closed_abg(a0, k, t):
    """Independent closed forms: b^2 = (1+a0 t)^2 + 4k t^2,
    a = (b^2)'/(2 b^2), g = elementary antiderivative of b^-2."""
    t = np.asarray(t, dtype=float)
    b2 = (1 + a0 * t) ** 2 + 4 * k * t ** 2
    a = (a0 + (a0 ** 2 + 4 * k) * t) / b2
    if k > 0:
        rk = 2 * np.sqrt(k)
        g = (np.arctan(((a0 ** 2 + 4 * k) * t + a0) / rk)
             - np.arctan(a0 / rk)) / rk
    else:
        g = t / (1 + a0 * t)
    return a, np.sqrt(b2), g


def test_04_transform_odes_match_closed_forms():
    # named parameter pairs on their validity ranges; the chirp constraint
    # is checked with a centered stencil, so each window/step is chosen to
    # keep the h^2 truncation of the steepest coefficient under the budget
    closed_dev = 0.0
    constraint_dev = 0.0
    cases = (
        (0.0, 0.25, 2.0, 1.0, 2e-5),
        (0.0, 1.0, 2.0, 1.0, 2e-5),
        (-1.0, 0.0, 0.9, 0.5, 1e-5),   # a ~ -1/(1-t): stop short of t=1
    )
    for a0, k, t_end, t_con, h in cases:
        t = np.linspace(0.0, t_end, 401)
        # the steep case accumulates ~2e-8 of RK4 error at the default
        # step; an order of magnitude off the step buys four back
        st = integrate_transform_odes(a0, k, 2, t, max_step=1e-4)
        a_ref, b_ref, g_ref = _closed_abg(a0, k, t)
        closed_dev = max(closed_dev,
                         float(np.max(np.abs(st.a - a_ref))),
                         float(np.max(np.abs(st.b - b_ref))),
                         float(np.max(np.abs(st.g - g_ref))),
                         float(np.max(np.abs(st.f - b_ref ** -1.0))))
        fine = integrate_transform_odes(
            a0, k, 2, np.arange(0.0, t_con + h / 2, h))
        constraint_dev = max(constraint_dev,
                             *constraint_residuals(fine).values())
    rng = np.random.default_rng(20250817)
    candidate_dev = 0.0
    for _ in range(20):
        a0 = float(rng.uniform(-1.5, 1.5))
        k = float(rng.uniform(0.05, 1.5))
        t = np.linspace(0.0, 2.0, 201)
        st = integrate_transform_odes(a0, k, 2, t)
        candidate_dev = max(candidate_dev, float(
            np.max(np.abs(st.b - closed_form_b(a0, k, t)))))
    _check("04 conjugation ODEs vs closed forms (named + 20 random pairs)",
           closed_dev < 1e-8 and constraint_dev < 1e-8
           and candidate_dev < 1e-8,
           f"closed-form dev {closed_dev:.1e}, constraint dev "
           f"{constraint_dev:.1e}, candidate-b dev {candidate_dev:.1e}")


def test_05_transform_maps_saddle_potential_runs_to_free_solutions():
    g = hnls_grid(n=128)
    k = 1.0
    problem_pot = EvolutionProblem(g, lam=1.0, sigma=2.0,
                                   potential=harmonic_saddle_potential(g, k))
    traj = FieldTrajectory()
    run(gaussian_field(g, amplitude=0.8, width=1.3),
        problem_pot, RunConfig(t_end=0.75, dt0=5e-4, sample_stride=10),
        observer=lambda st, s: traj.append(st.field))
    problem_free = EvolutionProblem(g, lam=1.0, sigma=2.0)
    h, t = 5e-3, 0.55

    def transformed_residual(state):
        vm, vc, vp = (apply_pct(traj, state, s, g) for s in (t - h, t, t + h))
        return residual_hnls(vm, vc, vp, problem_free)

    nodes = np.linspace(0.0, 0.8, 801)
    r_right = transformed_residual(integrate_transform_odes(0.0, k, 2, nodes))
    r_wrong = transformed_residual(
        integrate_transform_odes(0.0, 0.25, 2, nodes))
    _check("05 solution-to-solution conjugation (right k vs wrong k)",
           r_right < 5e-3 and r_wrong > 10.0 * r_right,
           f"residual {r_right:.1e} (budget 5e-3), wrong-k residual "
           f"{r_wrong:.1e} = {r_wrong / r_right:.0f}x")


def test_06_semiclassical_trichotomy():
    grid = hnls_grid()
    A0 = gaussian_field(grid, amplitude=1.0, width=np.sqrt(2.0))

    # expanding branch: sup decays like t^(-d/2)
    spec = SemiclassicalSpec(A0=A0, k=1.0, gamma0=0.5, a0=0.0, lam=1.0)
    state = integrate_transform_odes(0.0, 1.0, 2,
                                     np.linspace(0.0, 100.0, 1001))
    ts = np.array([10.0, 17.8, 31.6, 56.2, 100.0])
    sups = [semiclassical_field(spec, t, state=state).linf() for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(sups), 1)[0])

    # marginal branch: b decays to the 1e-6 level at t = 1.  b^2 is exactly
    # quadratic, so extrapolating a fit from [0.5, 0.9] to the crossing is
    # model-exact; the discriminant is clamped because the double root sits
    # a rounding error away.
    fine = integrate_transform_odes(-1.0, 0.0, 2, np.linspace(0.0, 0.9, 901),
                                    max_step=1e-4)
    sel = fine.t >= 0.5
    c2, c1, c0 = np.polyfit(fine.t[sel], fine.b[sel] ** 2, 2)
    disc = max(c1 * c1 - 4.0 * c2 * (c0 - 1e-12), 0.0)
    t_star = (-c1 - np.sqrt(disc)) / (2.0 * c2)

    # collapsing branch: finite-time singularity for every a0
    singular_ok = True
    sing_times = []
    for a0, t_sing in ((-1.0, 1.0 / 3.0), (0.0, 0.5), (1.0, 1.0)):
        st = integrate_transform_odes(a0, -1.0, 2,
                                      np.linspace(0.0, 2.0, 2001))
        singular_ok &= bool(st.truncated and st.singular_time is not None
                            and abs(st.singular_time - t_sing) < 1e-3)
        sing_times.append(st.singular_time)
    _check("06 semiclassical trichotomy (decay / crossing / collapse)",
           -1.1 < slope < -0.9 and abs(t_star - 1.0) <= 1e-6 and singular_ok,
           f"log-log slope {slope:.4f} (want -1 +/- 10%), crossing "
           f"|t*-1| = {abs(t_star - 1.0):.2e}, singular times "
           f"{[f'{s:.4f}' for s in sing_times]}")


def test_07_unit_speed_plane_wave_is_phase_flow():
    grid = hnls_grid()
    f0 = gaussian_field(PROFILE_GRID, amplitude=0.7,
                        width=4.0).values * (1.0 + 0.25j)
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(1.0,), lam=1.0, sigma=2.0)
    problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
    u0 = plane_wave_field(spec, 0.0, grid)
    base = np.abs(u0.values)
    drift = 0.0

    def watch(st, s):
        nonlocal drift
        drift = max(drift, float(
            np.max(np.abs(np.abs(st.field.values) - base))))

    run(u0, problem,
        RunConfig(t_end=10.0, dt0=1e-2, sample_stride=10), observer=watch)
    state, _ = run(u0, problem,
                   RunConfig(t_end=1.0, dt0=1e-3, sample_stride=10 ** 9))
    formula = _rel(state.field.values,
                   plane_wave_field(spec, 1.0, grid).values)
    _check("07 |c|=1 plane wave: modulus frozen, formula reproduced",
           drift < 1e-12 and formula < 1e-6,
           f"max modulus drift {drift:.1e} over t in [0,10], formula "
           f"mismatch {formula:.1e} at t=1")


def _plane_spec(c=(1.0,), lam=1.0, sigma=2.0, width=3.0, amplitude=0.7):
    f0 = gaussian_field(PROFILE_GRID, amplitude=amplitude, width=width).values
    return PlaneWaveSpec(f0=f0, period=40.0, c=c, lam=lam, sigma=sigma)


def _standing_spec():
    f0 = gaussian_field(PROFILE_GRID, amplitude=0.5, width=2.0).values
    return StandingWaveSpec(f0=f0, omega=2.0 * np.pi / 40.0, lam=1.0,
                            sigma=4.0)


def _seed(grid, amplitude):
    return gaussian_field(grid, amplitude=amplitude, width=2.0,
                          center=(3.0, -2.0))


def _diff_h1(a, b):
    return norms(a.with_values(a.values - b.values)).h1


def test_08_decomposed_flow_dual_path_and_fixed_point():
    grid = hnls_grid()
    spec = _plane_spec()
    v0 = _seed(grid, amplitude=0.05)
    a, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2)
    b, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2,
                          stepper=step_perturbation)
    agree = _diff_h1(a.v, b.v)
    _, series = run_decomposed(make_decomposed(spec, grid), 2.0)
    quiet = float(np.max(series.h))
    _check("08 subtraction vs perturbation steppers, zero seed inert",
           norms(a.v).h1 > 1e-3 and agree < 1e-5 and quiet < 1e-9,
           f"dual-path H1 gap {agree:.1e} at t=0.2, v0=0 stays below "
           f"{quiet:.1e} in H1 to t=2")


def test_09_plane_wave_stability_scaling():
    grid = hnls_grid()
    f0 = gaussian_field(PROFILE_GRID, amplitude=0.4, width=4.0).values
    lint = profile_hypothesis_warnings(f0, 40.0)
    spec = PlaneWaveSpec(f0=f0, period=40.0, c=(2.0,), lam=1.0, sigma=4.0)
    eps = (1e-3, 5e-4, 2.5e-4)
    start = time.monotonic()
    reports = stability_run(spec, _seed(grid, amplitude=1.0), eps, 5.0)
    elapsed = time.monotonic() - start
    bounded = all(r.status == "Bounded" and r.in_regime for r in reports)
    gains = [r.h_sup / e for r, e in zip(reports, eps)]
    ratios = [reports[0].h_sup / reports[1].h_sup,
              reports[1].h_sup / reports[2].h_sup]
    r = reports[0]
    late = r.t >= 1.0
    scaled = np.sqrt(r.t[late]) * r.phi_sup[late]
    proxies_ok = (float(np.max(scaled)) < 2.0 * scaled[0]
                  and float(np.max(r.grad_phi_sup))
                  <= 1.05 * r.grad_phi_sup[0])
    _check("09 plane-wave stability sweep (quintic, |c|=2, T=5)",
           lint == [] and bounded
           and all(0.5 < g < 10.0 for g in gains)
           and all(1.6 < q < 2.5 for q in ratios)
           and proxies_ok and elapsed < 600.0,
           f"h_sup/eps {[f'{g:.2f}' for g in gains]}, halving ratios "
           f"{[f'{q:.3f}' for q in ratios]}, sqrt(t)*phi_sup spread "
           f"{float(np.max(scaled) / scaled[0]):.2f}x over t in [1,5], "
           f"{elapsed:.0f} s")


def test_10_standing_wave_counterpart():
    grid = hnls_grid()
    spec = _standing_spec()
    v0 = _seed(grid, amplitude=0.05)
    a, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2)
    b, _ = run_decomposed(make_decomposed(spec, grid, v0=v0), 0.2,
                          stepper=step_perturbation)
    agree = _diff_h1(a.v, b.v)
    eps = (1e-3, 5e-4, 2.5e-4)
    reports = stability_run(spec, _seed(grid, amplitude=1.0), eps, 5.0)
    bounded = all(r.status == "Bounded" and r.in_regime for r in reports)
    gains = [r.h_sup / e for r, e in zip(reports, eps)]
    ratios = [reports[0].h_sup / reports[1].h_sup,
              reports[1].h_sup / reports[2].h_sup]
    _check("10 standing-wave decoupling and stability (omega=2pi/40)",
           agree < 1e-5 and bounded
           and all(0.5 < g < 10.0 for g in gains)
           and all(1.6 < q < 2.5 for q in ratios),
           f"dual-path H1 gap {agree:.1e}, h_sup/eps "
           f"{[f'{g:.2f}' for g in gains]}, halving ratios "
           f"{[f'{q:.3f}' for q in ratios]}")


def test_11_radial_collapse_concentration_and_trace_jump(ground_state):
    focus = make_radial_profile(1024, 15.0, lambda r: 3.5 * np.exp(-r * r),
                                lam=1.0, sigma=2.0)
    res = solve_radial(focus, 2e-3, 1.0, adapt=True, linf_ceiling=60.0,
                       sample_stride=5)
    scan = concentration_scan(res.trajectory, [0.1, 0.2, 0.4])
    defocus = make_radial_profile(1024, 15.0, lambda r: 3.5 * np.exp(-r * r),
                                  lam=-1.0, sigma=2.0)
    res_d = solve_radial(defocus, 2e-3, 1.0, adapt=True, linf_ceiling=60.0,
                         sample_stride=5)

    def chirped(r):
        return 1.5 * np.exp(-r * r) * np.exp(-0.25j * r * r)

    conj = make_radial_profile(1024, 20.0, chirped, lam=1.0, sigma=2.0,
                               sign=-1)
    mirror = make_radial_profile(1024, 20.0, lambda r: np.conj(chirped(r)),
                                 lam=-1.0, sigma=2.0, sign=1)
    res_c = solve_radial(conj, 1e-3, 0.5)
    res_m = solve_radial(mirror, 1e-3, 0.5)
    conj_dev = float(np.max(np.abs(res_c.profile.values
                                   - np.conj(res_m.profile.values))))

    # explicit self-similar pair: the inner trace of the transformed branch
    # jumps by exactly the ground-state amplitude at t = 1/2
    gs = ground_state
    Q = CubicSpline(gs.r, gs.values)
    rgrid = np.linspace(0.0, 25.0, 2048)
    from hnlslab import RadialTrajectory

    def w_at(t):
        arg = rgrid / (1 - t)
        base = np.where(arg <= 25.0, Q(np.clip(arg, 0, 25.0)), 0.0)
        return (1 - t) ** -1 * np.exp(1j * t / (1 - t)) * base \
            * np.exp(-0.25j * rgrid ** 2 / (1 - t))

    tv, tw = RadialTrajectory(rgrid), RadialTrajectory(rgrid)
    for tk in (0.3, 0.4, 0.5, 0.6, 0.7):
        tv.append(tk, np.exp(1j * tk) * Q(rgrid))
        tw.append(tk, w_at(tk))
    from hnlslab import cone_trace_jump
    jump = cone_trace_jump(tv, tw, 0.5)

    _check("11 radial suite: collapse, concentration, conjugation, jump",
           radial_energy(focus) < 0 and res.status == STATUS_BLOWNUP
           and scan.increasing == (True, True, True)
           and res_d.status == STATUS_DONE and conj_dev < 1e-10
           and abs(jump - gs.q0) < 0.05 * gs.q0,
           f"focusing {res.status} at t={res.t_detect:.3f}, concentration "
           f"increasing {scan.increasing}, defocusing {res_d.status}, "
           f"conjugation dev {conj_dev:.1e}, jump {jump:.4f} vs Q(0) "
           f"{gs.q0:.4f}")


def test_12_snapshot_format_and_round_trip(tmp_path):
    rng = np.random.default_rng(20250817)
    size_ok = True
    exact = True
    for trial in range(100):
        d = int(rng.integers(1, 4))
        n = tuple(int(2 ** rng.integers(3, 6)) for _ in range(d))
        length = tuple(float(rng.uniform(5.0, 50.0)) for _ in range(d))
        alpha = tuple(float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
                      for _ in range(d))
        grid = Grid(n, length, alpha)
        values = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        field = ComplexField(grid, values, t=float(rng.uniform(0.0, 10.0)))
        path = tmp_path / f"trial{trial}.snap"
        nbytes = write_snapshot(field, path)
        expect = 24 + 20 * d + 16 * int(np.prod(n))
        size_ok &= (nbytes == expect == path.stat().st_size
                    == snapshot_nbytes(grid))
        back = read_snapshot(path)
        exact &= (back.values.tobytes() == field.values.tobytes()
                  and back.t == field.t and back.grid.n == grid.n
                  and back.grid.length == grid.length
                  and back.grid.alpha == grid.alpha)
    _check("12 snapshot byte-size formula and bit-exact round-trip",
           size_ok and exact,
           "100 random fields, header 24+20d bytes, payload 16 bytes/sample")
