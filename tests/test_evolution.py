import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hnlslab.fields import (
    ComplexField, Grid, GridError, apply_linear_propagator, constant_field,
    gaussian_field, random_smooth_field,
)
from hnlslab.evolution import (
    STATUS_BLOWNUP, STATUS_DONE, EvolutionProblem, FieldTrajectory, RunConfig,
    SpectralMarch, StepperState, _fixed_dt_samples, harmonic_saddle_potential,
    march, residual_hnls, run, step_strang,
)
from hnlslab import spectral
from hnlslab.observables import sample
from conftest import BAD_NONLINEARITY, hnls_grid, needs_owned_arguments


def _run_field(f, problem, **kw):
    cfg = RunConfig(**kw)
    state, series = run(f, problem, cfg)
    return state, series


# --------------------------------------------------------------- exact limits

def test_linear_run_matches_propagator(rng):
    # lam = 0: the split scheme collapses to the exact free flow
    g = hnls_grid(n=32)
    f = random_smooth_field(g, rng)
    problem = EvolutionProblem(g, lam=0.0, sigma=2.0)
    state, _ = _run_field(f, problem, t_end=0.5, dt0=1e-2)
    ref = apply_linear_propagator(f, 0.5)
    assert state.status == STATUS_DONE
    assert np.max(np.abs(state.field.values - ref.values)) < 1e-12
    assert np.isclose(state.t, 0.5)


def test_constant_data_exact_phase():
    # spatially constant u(0) = A evolves as A exp(i lam |A|^sigma t) exactly
    g = hnls_grid(n=16)
    A = 0.9 - 0.3j
    f = constant_field(g, A)
    problem = EvolutionProblem(g, lam=1.5, sigma=2.0)
    state, _ = _run_field(f, problem, t_end=1.0, dt0=1e-2)
    ref = A * np.exp(1j * 1.5 * abs(A) ** 2 * 1.0)
    assert np.max(np.abs(state.field.values - ref)) < 1e-11


def test_bright_soliton_benchmark():
    # d=1, alpha=(1), lam=2, sigma=2: u = sech(x) e^{it} is exact
    g = Grid((512,), (40 * np.pi,), (1.0,))
    x = g.coords[0]
    f = ComplexField(g, 1.0 / np.cosh(x))
    problem = EvolutionProblem(g, lam=2.0, sigma=2.0)
    state, _ = _run_field(f, problem, t_end=1.0, dt0=1e-3)
    ref = np.exp(1j * 1.0) / np.cosh(x)
    err = np.sqrt(g.cell * np.sum(np.abs(state.field.values - ref) ** 2))
    assert err < 1e-6


def test_mass_conservation_long_run():
    g = hnls_grid(n=64)
    f = gaussian_field(g, amplitude=0.8, width=1.3, boost=(0.5, -0.3))
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    state, series = _run_field(f, problem, t_end=1.0, dt0=1e-3,
                               sample_stride=100)
    m = series.column("mass")
    assert np.max(np.abs(m - m[0])) < 1e-10 * m[0]
    assert state.step_count == 1000


def test_time_reversal():
    g = hnls_grid(n=32)
    f = gaussian_field(g, amplitude=0.7, width=1.2)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    fwd, _ = _run_field(f, problem, t_end=0.3, dt0=1e-3)
    back, _ = _run_field(fwd.field, problem, t_end=0.0, dt0=1e-3)
    assert back.status == STATUS_DONE
    assert np.isclose(back.t, 0.0, atol=1e-12)
    assert np.max(np.abs(back.field.values - f.values)) < 1e-10


def test_strang_second_order():
    g = hnls_grid(n=32)
    f = gaussian_field(g, amplitude=0.8, width=1.2)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    ref, _ = _run_field(f, problem, t_end=0.2, dt0=2e-5)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        st, _ = _run_field(f, problem, t_end=0.2, dt0=dt)
        errs.append(np.max(np.abs(st.field.values - ref.field.values)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for p in orders:
        assert 1.8 < p < 2.2, f"observed order {orders}"


# ----------------------------------------------------------------- residuals

def test_residual_small_on_true_solution():
    g = hnls_grid(n=64)
    f = gaussian_field(g, amplitude=0.8, width=1.3)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    h = 1e-3
    center, _ = _run_field(f, problem, t_end=0.1, dt0=1e-4)
    minus, _ = _run_field(center.field, problem, t_end=0.1 - h, dt0=1e-4)
    plus, _ = _run_field(center.field, problem, t_end=0.1 + h, dt0=1e-4)
    r = residual_hnls(minus.field, center.field, plus.field, problem)
    assert r < 1e-4  # O(h^2) with a modest constant

    # a random triple is nowhere near a solution
    rngl = np.random.default_rng(3)
    bogus = [f.with_values(random_smooth_field(g, rngl).values, t=t)
             for t in (0.099, 0.1, 0.101)]
    assert residual_hnls(*bogus, problem) > 1.0


def test_residual_validates_inputs():
    g = hnls_grid(n=16)
    g2 = hnls_grid(n=32)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    a = constant_field(g, 1.0, t=0.0)
    b = constant_field(g, 1.0, t=0.1)
    c = constant_field(g, 1.0, t=0.2)
    with pytest.raises(GridError):
        residual_hnls(constant_field(g2, 1.0), b, c, problem)
    with pytest.raises(ValueError):
        residual_hnls(c, b, a, problem)  # stamps out of order
    with pytest.raises(ValueError):
        residual_hnls(a, b, constant_field(g, 1.0, t=0.5), problem)  # uncentered


# -------------------------------------------------------------------- blow-up

def test_focusing_blowup_detected_and_timed():
    # elliptic focusing, negative energy: variance vanishes by
    # t* = sqrt(V0 / (-8E)) and the amplitude diverges before then
    g = Grid((64, 64), (8.0, 8.0), (1.0, 1.0))
    f = gaussian_field(g, amplitude=3.0, width=1.0)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    s0 = sample(f, 1.0, 2.0)
    assert s0.energy < 0
    t_star = np.sqrt(s0.virial / (-8.0 * s0.energy))
    state, series = _run_field(f, problem, t_end=float(t_star), dt0=1e-3,
                               adapt=True, linf_ceiling=15.0)
    assert state.status == STATUS_BLOWNUP
    assert state.t_detect is not None
    assert state.t_detect < t_star
    # run() must have kept every emitted sample finite
    assert all(np.isfinite(s.linf) for s in series.samples)


def test_detection_time_monotone_in_ceiling():
    g = Grid((64, 64), (8.0, 8.0), (1.0, 1.0))
    f = gaussian_field(g, amplitude=3.0, width=1.0)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    times = []
    for ceiling in (8.0, 15.0):
        state, _ = _run_field(f, problem, t_end=0.45, dt0=2e-4,
                              linf_ceiling=ceiling)
        assert state.status == STATUS_BLOWNUP
        times.append(state.t_detect)
    assert times[0] <= times[1]


def test_defocusing_run_stays_bounded():
    g = hnls_grid(n=32)
    f = gaussian_field(g, amplitude=1.5, width=1.0)
    problem = EvolutionProblem(g, lam=-1.0, sigma=2.0)
    state, _ = _run_field(f, problem, t_end=1.0, dt0=1e-3, adapt=True)
    assert state.status == STATUS_DONE


# ------------------------------------------------------------------ potential

def test_saddle_potential_shape():
    g = hnls_grid(n=64, length=40.0)
    V = harmonic_saddle_potential(g, k=0.5)
    X, Y = g.meshgrid()
    center = np.unravel_index(np.argmin(X**2 + Y**2), g.n)
    assert V[center] == 0.0
    # exact quadratic well inside the flat region
    i = np.searchsorted(g.coords[0], 3.0)
    j = np.searchsorted(g.coords[1], -2.0)
    x, y = g.coords[0][i], g.coords[1][j]
    assert np.isclose(V[i, j], 0.5 * (x**2 - y**2), rtol=1e-12)
    # tapered to zero on the boundary ring
    assert abs(V[0, 0]) < 1e-12
    assert np.max(np.abs(V[0, :])) < 1e-12


def test_potential_changes_dynamics_and_energy_is_conserved():
    g = hnls_grid(n=64)
    V = harmonic_saddle_potential(g, k=0.3)
    f = gaussian_field(g, amplitude=0.5, width=1.2)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0, potential=V)
    state, series = _run_field(f, problem, t_end=0.5, dt0=5e-4,
                               sample_stride=50)
    e = series.column("energy")
    assert np.max(np.abs(e - e[0])) < 1e-7 * max(1.0, abs(e[0]))
    free, _ = _run_field(f, EvolutionProblem(g, lam=1.0, sigma=2.0),
                         t_end=0.5, dt0=5e-4)
    assert np.max(np.abs(free.field.values - state.field.values)) > 1e-3


def test_potential_shape_validated():
    g = hnls_grid(n=16)
    with pytest.raises(GridError):
        EvolutionProblem(g, lam=1.0, sigma=2.0, potential=np.zeros((8, 8)))


# ----------------------------------------------------------------- trajectory

def test_trajectory_interpolation():
    g = hnls_grid(n=16)
    times = np.linspace(0.0, 1.0, 9)
    # field values polynomial in t (degree 3) -> 4-point Lagrange is exact
    base = gaussian_field(g, width=1.5).values
    traj = FieldTrajectory()
    for t in times:
        traj.append(ComplexField(g, (1.0 + 2 * t + t**3) * base, t=t))
    mid = traj.at(0.4375)
    expected = (1.0 + 2 * 0.4375 + 0.4375**3) * base
    assert np.max(np.abs(mid.values - expected)) < 1e-12
    node = traj.at(0.5)
    assert np.max(np.abs(node.values - (1.0 + 1.0 + 0.125) * base)) < 1e-14
    assert traj.t_min == 0.0 and traj.t_max == 1.0


def test_trajectory_validation():
    g = hnls_grid(n=16)
    traj = FieldTrajectory([constant_field(g, 1.0, t=0.0),
                            constant_field(g, 1.0, t=0.1)])
    with pytest.raises(ValueError):
        traj.append(constant_field(g, 1.0, t=0.05))
    with pytest.raises(GridError):
        traj.append(constant_field(hnls_grid(n=32), 1.0, t=0.2))
    with pytest.raises(ValueError):
        traj.at(-0.5)
    with pytest.raises(ValueError):
        traj.at(0.05)  # inside range but too few snapshots for cubic


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(t_end=1.0, dt0=-1e-3)
    with pytest.raises(ValueError):
        RunConfig(t_end=1.0, dt0=1e-3, sample_stride=0)
    with pytest.raises(ValueError):
        RunConfig(t_end=-1.0, dt0=1e-3, adapt=True)


def test_step_strang_stamps_time():
    g = hnls_grid(n=16)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    st = StepperState(field=constant_field(g, 0.5), dt=0.01)
    st = step_strang(st, problem)
    assert np.isclose(st.t, 0.01)
    assert st.step_count == 1
    st = step_strang(st, problem, direction=-1.0)
    assert np.isclose(st.t, 0.0, atol=1e-15)


# ------------------------------------------------------------- fused march

def _strang_loop(f, problem, t_end, dt):
    """Reference march: one step_strang call per step, last step clipped."""
    direction = 1.0 if t_end >= f.t else -1.0
    st = StepperState(field=f, dt=dt)
    while abs(t_end - st.t) > 1e-12 * max(abs(t_end), 1.0):
        st.dt = min(dt, abs(t_end - st.t))
        st = step_strang(st, problem, direction)
    return st


def _alpha(name, d, seed=5):
    if name == "hnls":
        return (1.0,) + (-1.0,) * (d - 1)
    if name == "nls":
        return (1.0,) * d
    return tuple(np.random.default_rng(seed).uniform(-1.5, 1.5, d))


@pytest.mark.parametrize("alpha, sigma, saddle, t0, t_end", [
    ("hnls", 2.0, False, 0.0, 0.0537),
    ("nls", 4.0, False, 0.0, 0.0537),
    ("random", 1.5, False, 0.0, 0.0537),
    ("hnls", 2.0, True, 0.0, 0.0537),
    ("hnls", 0.0, False, 0.0, 0.0537),
    ("nls", 1.5, True, 0.3, 0.2463),     # backward in time
    ("random", 4.0, False, 0.3, 0.2463),
])
def test_run_matches_step_strang_loop(alpha, sigma, saddle, t0, t_end):
    g = Grid((32, 32), (20.0, 20.0), _alpha(alpha, 2))
    f = gaussian_field(g, amplitude=0.9, width=1.5, boost=(0.4, -0.2), t=t0)
    V = harmonic_saddle_potential(g, k=0.3) if saddle else None
    problem = EvolutionProblem(g, lam=1.0, sigma=sigma, potential=V)
    dt = 4e-3                  # 0.0537 / 4e-3 leaves a clipped last step
    state, series = _run_field(f, problem, t_end=t_end, dt0=dt,
                               sample_stride=3)
    ref = _strang_loop(f, problem, t_end, dt)
    assert state.status == STATUS_DONE
    assert state.step_count == ref.step_count == 14
    assert state.t == ref.t
    err = np.linalg.norm(state.field.values - ref.field.values)
    assert err <= 1e-12 * np.linalg.norm(ref.field.values)
    # the last sample describes the returned field
    last = sample(state.field, 1.0, sigma, V)
    assert series.samples[-1].t == state.t
    assert abs(series.samples[-1].energy - last.energy) \
        <= 1e-12 * max(1.0, abs(last.energy))


class _PassCounter:
    """Counts 1-D FFT passes over a grid of `size` points: `fftn` and
    `ifftn` make one per axis, `ifft_along` on a slab its share of one."""

    def __init__(self, monkeypatch, size):
        self.passes = 0.0
        for name in ("fftn", "ifftn", "ifft_along"):
            original = getattr(spectral, name)

            def counted(a, *args, _fn=original, _whole=name != "ifft_along",
                        **kwargs):
                self.passes += a.ndim if _whole else a.size / size
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(spectral, name, counted)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fft_count_per_step_and_sample(d, monkeypatch):
    g = hnls_grid(n=16, length=20.0, d=d)
    f = gaussian_field(g, amplitude=0.8, width=2.0)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    counter = _PassCounter(monkeypatch, f.values.size)
    state, series = _run_field(f, problem, t_end=0.025, dt0=1e-3,
                               sample_stride=10)
    n_steps, k = state.step_count, len(series)
    assert (n_steps, k) == (25, 4)        # samples at steps 0, 10, 20, 25
    # two transforms a step, one per sample (its field) and one at the end;
    # a sample's fluxes take two passes per axis, one inverse FFT for d = 1
    flux = 2 * d if d > 1 else 1
    assert counter.passes <= d * (2 * n_steps + k + 1) + flux * k
    counter.passes = 0
    sample(state.field, 1.0, 2.0)
    assert counter.passes == d + flux


def test_adaptive_dt_follows_sampled_sup():
    # a focusing Gaussian grows, so dt0 / (1 + linf^sigma) shrinks
    g = Grid((64, 64), (8.0, 8.0), (1.0, 1.0))
    f = gaussian_field(g, amplitude=3.0, width=1.0)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    stride, dt0 = 5, 1e-3
    dts = []
    cfg = RunConfig(t_end=0.05, dt0=dt0, adapt=True, sample_stride=stride)
    state, series = run(f, problem, cfg, lambda st, s: dts.append(st.dt))
    assert state.status == STATUS_DONE
    linf = series.column("linf")
    expected = dt0 / (1.0 + linf ** 2)
    # the dt a sample reports was chosen from the previous sample's sup;
    # the last one may be clipped to land on t_end
    assert len(dts) > 5
    assert np.all(np.asarray(dts[1:-1]) == expected[:-2])
    assert dts[-1] <= expected[-2]
    steps = np.diff(series.t)[:-1]
    assert np.allclose(steps, stride * expected[:-2], rtol=1e-9, atol=0.0)
    assert expected[-1] < 0.5 * dt0


def test_run_config_rejects_non_finite_times():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            RunConfig(t_end=bad)
        with pytest.raises(ValueError):
            RunConfig(t_end=1.0, dt0=bad)


# ------------------------------------------------------------- the one loop

def _scripted_march(bounds, **kw):
    """march() over a fake state whose k-th step returns bounds[k]."""
    seen = []
    steps = iter(bounds)

    def record(m):
        seen.append((m.steps, m.t, m.status))
        return 1.0

    m = march(0.0, RunConfig(**kw), 2.0, lambda h: next(steps), record)
    return m, seen


def test_march_samples_first_every_stride_and_last():
    m, seen = _scripted_march([1.0] * 10, t_end=1.0, dt0=0.1,
                              sample_stride=3)
    assert m.status == STATUS_DONE and m.steps == 10
    assert [s for s, _, _ in seen] == [0, 3, 6, 9, 10]
    assert seen[-1][2] == STATUS_DONE
    assert abs(seen[-1][1] - 1.0) < 1e-12
    # a run whose last step is a stride step is sampled there only once
    m, seen = _scripted_march([1.0] * 10, t_end=1.0, dt0=0.1,
                              sample_stride=5)
    assert [s for s, _, _ in seen] == [0, 5, 10]


def test_march_clips_the_last_step():
    sizes = []

    def step(h):
        sizes.append(h)
        return 1.0

    m = march(0.0, RunConfig(t_end=-0.25, dt0=0.1), 2.0, step,
              lambda m: 1.0)
    assert m.status == STATUS_DONE
    assert sizes[:2] == [-0.1, -0.1] and abs(sizes[2] + 0.05) < 1e-15
    assert abs(m.t + 0.25) < 1e-15


def test_march_blowup_policy():
    # the ceiling defaults to 1e6 x the first sample's sup, and a finite
    # state is sampled where it is detected
    m, seen = _scripted_march([10.0, 1e6, 2e6, 1.0], t_end=1.0, dt0=0.1,
                              sample_stride=10)
    assert m.status == STATUS_BLOWNUP and m.steps == 3
    assert abs(m.t_detect - 0.3) < 1e-12
    assert seen[-1] == (3, m.t_detect, STATUS_BLOWNUP)
    # a non-finite state stops the march without being sampled
    for bad in (float("nan"), float("inf")):
        m, seen = _scripted_march([1.0, bad], t_end=1.0, dt0=0.1,
                                  sample_stride=1)
        assert m.status == STATUS_BLOWNUP and m.steps == 2
        assert [s for s, _, _ in seen] == [0, 1]
    # an explicit ceiling replaces the default
    m, _ = _scripted_march([1.0, 3.0], t_end=1.0, dt0=0.1, linf_ceiling=2.0)
    assert m.status == STATUS_BLOWNUP and m.steps == 2


def _adaptive_march(sups, **kw):
    """Adaptive march() whose k-th sample reports sups[k]; the step sizes
    it takes."""
    sizes, samples = [], iter(sups)

    def step(h):
        sizes.append(h)
        return 1.0

    m = march(0.0, RunConfig(adapt=True, sample_stride=1, **kw), 2.0, step,
              lambda m: next(samples))
    return m, sizes


def test_march_dt_floor_underflow():
    # the rule dt0 / (1 + sup^2) passes under dt_floor at sup = 100: while
    # the sup still grows that is a blow-up, detected where it is seen
    m, sizes = _adaptive_march([1.0, 100.0], t_end=1.0, dt0=0.1,
                               dt_floor=1e-3)
    assert m.status == STATUS_BLOWNUP and m.steps == 1
    assert sizes == [0.05]
    assert m.t_detect == m.t == 0.05
    # a sup that stops growing runs on at dt_floor
    m, sizes = _adaptive_march([100.0] * 6, t_end=0.05, dt0=0.1,
                               dt_floor=1e-2)
    assert m.status == STATUS_DONE and m.t_detect is None
    assert m.steps == 5 and m.dt <= 1e-2
    assert all(abs(h - 1e-2) < 1e-15 for h in sizes)


def test_run_config_rejects_unusable_ceiling_and_floor():
    # a NaN ceiling compares false against every sup and would switch
    # blow-up detection off; the config schema refuses these values too
    for bad in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            RunConfig(t_end=1.0, linf_ceiling=bad)
        with pytest.raises(ValueError):
            RunConfig(t_end=1.0, dt_floor=bad)
    RunConfig(t_end=1.0, linf_ceiling=np.inf, dt_floor=1e-12)


def test_fixed_dt_samples_counts_the_records_of_march():
    # the parse-time count of a conservation-report is what `march` takes,
    # clipped last steps, t_end = 0 and a span inside the Done tolerance
    # included
    for t_end in (0.0, 1e-13, 1e-3, 0.0095, 0.01, 0.055, -0.055, 0.1, 0.37,
                  1.0, 2.5):
        for dt0 in (1e-3, 3e-3, 7e-3, 0.01, 0.05):
            for stride in (1, 2, 3, 10):
                config = RunConfig(t_end=t_end, dt0=dt0, sample_stride=stride)
                records = []
                march(0.0, config, 2.0, lambda h: 1.0,
                      lambda m: records.append(m.steps) or 1.0)
                assert _fixed_dt_samples(config) == len(records), \
                    (t_end, dt0, stride)


# ------------------------------------------------------ nonlinearity and box

@pytest.mark.parametrize("lam, sigma", BAD_NONLINEARITY)
def test_problem_rejects_non_finite_nonlinearity(lam, sigma):
    # sigma = NaN used to run and report BlownUp at the first step
    with pytest.raises(ValueError):
        EvolutionProblem(hnls_grid(n=16), lam=lam, sigma=sigma)


def test_run_rejects_a_field_on_another_box():
    # stepping with one operator and sampling with another used to end Done
    f = gaussian_field(hnls_grid(n=32, length=40.0), amplitude=0.5,
                       width=2.0)
    problem = EvolutionProblem(Grid((32, 32), (20.0, 20.0), (1.0, 1.0)),
                               lam=1.0, sigma=2.0)
    with pytest.raises(GridError):
        _run_field(f, problem, t_end=0.01)


def test_run_forms_the_linear_phase_once_per_step_size(monkeypatch):
    # 25 steps of dt0 and a clipped last step: two distinct step sizes
    g = hnls_grid(n=16, length=20.0)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    formula, calls = problem.linear_phase, []
    monkeypatch.setattr(problem, "linear_phase",
                        lambda dt: calls.append(dt) or formula(dt))
    state, _ = _run_field(gaussian_field(g, amplitude=0.8, width=2.0),
                          problem, t_end=0.0255, dt0=1e-3)
    assert state.status == STATUS_DONE and state.step_count == 26
    assert len(calls) == 2


def _traced_rise(fn) -> int:
    """How far fn() raises the traced peak above the memory traced before."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    fn()
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("n", [512, 64])
def test_step_and_sample_memory_is_bounded(n, monkeypatch):
    # two row blocks on any machine: 512^2 splits, 64^2 stays one block
    monkeypatch.setattr(spectral, "_workers", 2)
    g = hnls_grid(n=n)
    march = SpectralMarch(gaussian_field(g, amplitude=0.8, width=3.0),
                          EvolutionProblem(g, lam=1.0, sigma=4.0))
    size, field = g.n[0] * g.n[1], march.spectrum.nbytes
    nb = spectral.blocks(size)
    assert nb == (2 if n == 512 else 1)
    # the phase map's scratch: one real and one complex chunk per block
    scratch = nb * min(spectral.CHUNK_POINTS, size // nb) * 24
    slack = 128 * 1024      # Python objects and the chunks' partial sums
    tracemalloc.start()
    try:
        march.step(1e-3)            # warm-up: L(h/2) and FFT plans
        sample(march.field(1e-3), 1.0, 4.0, spectrum=march.spectrum)
        step = _traced_rise(lambda: march.step(1e-3))
        # a sample forms the field in place of L(h/2) and walks chunks
        # through its scratch
        taken = _traced_rise(lambda: sample(march.field(2e-3), 1.0, 4.0,
                                            spectrum=march.spectrum))
    finally:
        tracemalloc.stop()
    assert step <= scratch + 32 * 1024
    if n == 512:
        assert step <= field // 4
    assert taken <= _sample_scratch(nb, g.n) + slack


def _sample_scratch(nb: int, shape: tuple) -> int:
    """A sample's largest scratch on nb row blocks of a field of `shape`
    whose chunks hold CHUNK_POINTS points or the whole block: two complex
    chunks for the moment fluxes and one of numpy's iterator buffers (up
    to 8192 complex values) for the broadcast multiply by i xi_j, plus
    the partial marginals of the axis j that streams, one of n_j floats
    per chunk."""
    size = math.prod(shape)
    chunk = min(spectral.CHUNK_POINTS, size // nb)
    partials = max(1, size // spectral.CHUNK_POINTS) * max(shape) * 8
    return nb * (2 * chunk + min(chunk, 8192)) * 16 + partials


@pytest.mark.parametrize("d", [2, 3])
def test_sample_after_steps_holds_no_propagator_and_no_abs2(d, monkeypatch):
    # 512^2 and 64^3, in two row blocks: forming the field lets go of
    # L(h/2), and every reduction of the sample walks chunks, so the field
    # and the sample together add only the sample's scratch to the march:
    # no |u|^2, no derivative and no |u^|^2 of the grid's shape
    monkeypatch.setattr(spectral, "_workers", 2)
    g = hnls_grid(n=512 if d == 2 else 64, d=d)
    march = SpectralMarch(gaussian_field(g, amplitude=0.8, width=3.0),
                          EvolutionProblem(g, lam=1.0, sigma=2.0))
    slack = 256 * 1024      # numpy's iterator buffers and Python objects
    tracemalloc.start()
    try:
        for _ in range(3):
            march.step(1e-3)        # L(h/2) is formed and held
        taken = _traced_rise(lambda: sample(march.field(3e-3), 1.0, 2.0,
                                            spectrum=march.spectrum))
    finally:
        tracemalloc.stop()
    # holding L(h/2) or |u|^2 would add a quarter of the field or more
    assert taken <= _sample_scratch(2, g.n) + slack


@needs_owned_arguments
def test_run_frees_its_field_after_the_first_step():
    g = hnls_grid(n=16)
    refs = []

    def initial():
        f = gaussian_field(g, amplitude=0.8, width=3.0)
        refs.append(weakref.ref(f.values))     # the field's memory
        return f

    alive = []
    run(initial(), EvolutionProblem(g, lam=1.0, sigma=2.0),
        RunConfig(t_end=3e-3, dt0=1e-3, sample_stride=1),
        observer=lambda st, s: alive.append(refs[0]() is not None))
    # the first sample reads the field itself; every later one does not
    assert alive == [True, False, False, False]


@needs_owned_arguments
def test_run_peak_holds_the_march_and_one_sample(monkeypatch):
    # 64^3 in two row blocks: N = 262144 points, 4 MiB complex, 2 MiB
    # real.  Past the first step a run holds the spectrum and, while it
    # steps, L(h/2) and the phase map's chunks (8.75 MiB).  A sample lets
    # go of L(h/2) and adds the physical field and its scratch, two
    # complex chunks per block and one iterator buffer (9.25 MiB): every
    # reduction walks chunks, so no |u|^2 and no derivative of the grid's
    # shape is formed.  Building the initial field holds two fields
    # (8 MiB), and it is gone by the first step.  The margin of 0.5 MiB
    # covers numpy's buffers for the split FFT passes and smaller arrays.
    monkeypatch.setattr(spectral, "_workers", 2)
    g = Grid((64,) * 3, (30.0,) * 3, (1.0, -1.0, -1.0))
    mib = 2 ** 20
    bound = (4 * mib                            # spectrum
             + 4 * mib                          # field
             + _sample_scratch(2, g.n)         # the sample's chunks
             + mib // 2)                        # margin
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, series = run(gaussian_field(g, amplitude=0.7, width=3.0),
                        problem, RunConfig(t_end=4e-3, dt0=1e-3,
                                           sample_stride=2))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(series) == 3
    assert peak <= bound
