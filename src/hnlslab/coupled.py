"""Evolution on decomposed spaces: structured wave plus H1 perturbation.

A solution is written u = v + phi where phi is a lifted plane or standing
wave and v carries everything else.  The primary method advances u with
the full solver and phi with its own low-dimensional solver, then defines
v by subtraction — it inherits the full solver's conservation exactness
and needs no linearization.  `run_decomposed` and `two_wave_run` carry the
spectrum of u and of each profile between steps (`SpectralMarch`, two FFTs
a step) and lift the profile to form v only where v is read: at samples,
and at a step whose cheap sup bound passes the blow-up ceiling.
`step_decomposed` is the same method as a single step.  A direct
integrator for the perturbation equation

    i v_t + box v + lam (|v+phi|^sigma (v+phi) - |phi|^sigma phi) = 0

exists purely as a cross-validation oracle.  On top of the steppers sit
the stability harness (sup of ||v||_H1 per perturbation size) and the
two-wave interaction run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .fields import (ComplexField, Grid, GridError, _in_order,
                     constant_field, multiply_out, norms)
from .evolution import (STATUS_BLOWNUP, STATUS_RUNNING, EvolutionProblem,
                        RunConfig, SpectralMarch, StepperState, march,
                        step_strang)
from .families import PlaneWaveSpec


def lift_structured(spec, values: np.ndarray, grid: Grid,
                    t: float) -> np.ndarray:
    """Full-grid samples of the structured wave built from profile values;
    every lift in this module goes through here."""
    return spec.lift(values, grid, t)


@dataclass
class DecomposedState:
    """u = v + phi with both components time-synchronized.

    `spec` is a plane or standing wave spec from `families`.  `profile`
    holds the low-dimensional samples of the structured part on its own
    grid; the lift to the full grid happens on demand.  Both evolution
    problems follow from `spec` and v's grid.
    """

    v: ComplexField
    spec: object
    profile: ComplexField
    status: str = STATUS_RUNNING

    def __post_init__(self):
        if abs(self.v.t - self.profile.t) > 1e-12 * max(1.0, abs(self.v.t)):
            raise ValueError(f"components out of sync: v at t={self.v.t}, "
                             f"profile at t={self.profile.t}")

    @property
    def t(self) -> float:
        return self.v.t

    @property
    def problem(self) -> EvolutionProblem:
        """The full problem u = v + phi evolves under."""
        return EvolutionProblem(self.v.grid, self.spec.lam, self.spec.sigma)

    @property
    def profile_problem(self) -> EvolutionProblem:
        """The profile equation's problem."""
        return self.spec.profile(self.v.grid)[0]

    def full_field(self) -> ComplexField:
        phi = lift_structured(self.spec, self.profile.values, self.v.grid,
                              self.t)
        return self.v.with_values(self.v.values + phi)


def _initial_v(v0: ComplexField | None, grid: Grid) -> ComplexField:
    """v0 of a decomposed or two-wave run: zero when None, else a field on
    `grid`'s box stamped t=0."""
    if v0 is None:
        return constant_field(grid, 0.0)
    if not v0.grid.same_box(grid):
        raise GridError("v0 grid does not match the target grid")
    if v0.t != 0.0:
        raise ValueError("v0 must be stamped t=0")
    return v0


def make_decomposed(spec, grid: Grid,
                    v0: ComplexField | None = None) -> DecomposedState:
    """Initial decomposed state at t=0; v0 defaults to zero.  GridError
    when the wave does not fit `grid`."""
    _, field = spec.profile(grid)
    return DecomposedState(v=_initial_v(v0, grid), spec=spec, profile=field)


def step_decomposed(state: DecomposedState, dt: float) -> DecomposedState:
    """Advance u = v + phi with the full stepper, phi with its profile
    stepper, and subtract.  Blow-up of either component is recorded on the
    returned status, never raised."""
    if state.status != STATUS_RUNNING:
        return state
    grid = state.v.grid
    t = state.t
    phi0 = lift_structured(state.spec, state.profile.values, grid, t)
    u = state.v.with_values(state.v.values + phi0)
    su = step_strang(StepperState(field=u, dt=dt), state.problem)
    sp = step_strang(StepperState(field=state.profile, dt=dt),
                     state.profile_problem)
    status = STATUS_RUNNING
    if not (su.field.is_finite() and sp.field.is_finite()):
        status = STATUS_BLOWNUP
        v1 = su.field.values - phi0
    else:
        phi1 = lift_structured(state.spec, sp.field.values, grid, t + dt)
        v1 = su.field.values - phi1
    return DecomposedState(v=ComplexField(grid, v1, t=t + dt),
                           spec=state.spec, profile=sp.field, status=status)


def step_perturbation(state: DecomposedState, dt: float) -> DecomposedState:
    """Advance v by the perturbation equation directly: Strang linear
    half-steps around one classical RK4 sweep of the nonlinear coupling,
    with phi sampled at the substep times."""
    if state.status != STATUS_RUNNING:
        return state
    grid = state.v.grid
    t = state.t
    half = 0.5 * dt
    profile_problem = state.profile_problem
    sp_h = step_strang(StepperState(field=state.profile, dt=half),
                       profile_problem)
    sp_1 = step_strang(StepperState(field=sp_h.field, dt=half),
                       profile_problem)
    phi0 = lift_structured(state.spec, state.profile.values, grid, t)
    phi_h = lift_structured(state.spec, sp_h.field.values, grid, t + half)
    phi_1 = lift_structured(state.spec, sp_1.field.values, grid, t + dt)

    problem = state.problem
    lam, sigma = problem.lam, problem.sigma

    def coupling(w, phi):
        s = w + phi
        return 1j * lam * (np.abs(s) ** sigma * s - np.abs(phi) ** sigma * phi)

    ph = multiply_out(problem.linear_phase(half))
    w = spectral.ifftn(spectral.fftn(state.v.values) * ph)
    # an overflow here is a blow-up, recorded below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = coupling(w, phi0)
        k2 = coupling(w + half * k1, phi_h)
        k3 = coupling(w + half * k2, phi_h)
        k4 = coupling(w + dt * k3, phi_1)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    w = spectral.ifftn(spectral.fftn(w) * ph)

    status = STATUS_RUNNING
    if not (np.all(np.isfinite(w.view(float))) and sp_1.field.is_finite()):
        status = STATUS_BLOWNUP
    return DecomposedState(v=ComplexField(grid, w, t=t + dt),
                           spec=state.spec, profile=sp_1.field, status=status)


# ---------------------------------------------------------------------------
# runs and reports

@dataclass
class CoupledSeries:
    """Sampled diagnostics of a decomposed run."""
    t: np.ndarray
    h: np.ndarray             # ||v||_H1
    phi_sup: np.ndarray       # ||phi||_inf
    grad_phi_sup: np.ndarray  # ||grad phi||_inf


def _stepped(state: DecomposedState, stepper):
    """`step(h)`, `now(t)` and `exact` of a run that calls `stepper` once
    per step; `now` returns the stepper's latest state, and the step's
    bound is already exact."""
    def step(h: float) -> float:
        nonlocal state
        state = stepper(state, h)
        if state.status != STATUS_RUNNING:
            return math.inf        # the stepper found a non-finite component
        return state.v.linf() + state.profile.linf()

    return step, lambda t: state, None


def _carried(state: DecomposedState):
    """`step(h)`, `now(t)` and `exact(m)` of the subtraction method with
    carried spectra; `now` forms the decomposed state at the march time t,
    once per step taken, and `exact` reads its ||v||_inf + ||profile||_inf
    where the step's bound sup|u| + 2 sup|profile| is too loose."""
    if state.status != STATUS_RUNNING:
        return (lambda h: math.inf), (lambda t: state), None
    grid, spec = state.v.grid, state.spec
    u = SpectralMarch(state.full_field(), state.problem)
    f = SpectralMarch(state.profile, state.profile_problem)
    current = state

    def step(h: float) -> float:
        nonlocal current
        current = None
        return u.step(h) + 2.0 * f.step(h)

    def now(t: float) -> DecomposedState:
        nonlocal current
        if current is None:
            profile = f.field(t)
            phi = lift_structured(spec, profile.values, grid, t)
            current = replace(state, profile=profile, v=ComplexField(
                grid, u.field(t).values - phi, t=t))
        return current

    def exact(m) -> float:
        s = now(m.t)
        return s.v.linf() + s.profile.linf()

    return step, now, exact


def run_decomposed(state: DecomposedState, t_end: float, *,
                   dt: float = 1e-3, stepper=None, sample_stride: int = 10,
                   linf_ceiling: float | None = None) -> tuple:
    """March to t_end, sampling ||v||_H1 and the profile decay proxies
    every stride.

    By default this is the subtraction method with carried spectra: u =
    v0 + phi0 and the profile each march as a `SpectralMarch` (two FFTs a
    step on the full grid), and v = u - lift(profile) is formed only at
    samples and at blow-up, so the profile is lifted once per sample, not
    twice per step.  An explicit `stepper(state, h)` (such as
    `step_perturbation`) is called once per step instead.  A state that is
    not "Running" is left as it is.

    Both split substeps are pointwise unitary, so a collapsing component
    never turns non-finite by itself; blow-up is detected by `march`, as
    in the full solver, from a bound on ||v||_inf + ||profile||_inf
    passing `linf_ceiling` (default: 1e6 times its initial value) or
    turning non-finite.  With carried spectra the bound is sup|u| + 2
    sup|profile| over the half-step fields, since |v| <= |u| + |phi|; it
    can be three times the bounded quantity, so when it passes the
    ceiling v is formed and ||v||_inf + ||profile||_inf at the step's end
    decides, as it does after every step of a stepper.  A completed run
    keeps the status "Running".
    """
    config = RunConfig(t_end=t_end, dt0=dt, linf_ceiling=linf_ceiling,
                       sample_stride=sample_stride)
    if t_end < state.t:
        raise ValueError("decomposed runs only go forward")
    if stepper is not None:
        step, now, exact = _stepped(state, stepper)
    else:
        step, now, exact = _carried(state)
    ts, hs, ps, gs = [], [], [], []

    def record(m) -> float:
        s = now(m.t)
        nb = norms(s.v)
        p, gp = s.spec.proxies(s.profile)
        ts.append(s.t)
        hs.append(nb.h1)
        ps.append(p)
        gs.append(gp)
        return nb.linf + p

    m = march(state.t, config, state.spec.sigma, step, record, exact)
    state = now(m.t)
    if m.status == STATUS_BLOWNUP and state.status == STATUS_RUNNING:
        state = replace(state, status=STATUS_BLOWNUP)
    series = CoupledSeries(t=np.asarray(ts), h=np.asarray(hs),
                           phi_sup=np.asarray(ps),
                           grad_phi_sup=np.asarray(gs))
    return state, series


@dataclass
class StabilityReport:
    """Measured response of ||v||_H1 to a perturbation of size eps."""
    eps: float
    t: np.ndarray
    h_series: np.ndarray
    h_sup: float
    status: str               # Bounded | Grew(ratio=...) | BlownUp
    in_regime: bool
    regime_note: str
    phi_sup: np.ndarray
    grad_phi_sup: np.ndarray

    def payload(self) -> dict:
        """The report's summary as a JSON record."""
        return {
            "eps": self.eps,
            "h_sup": self.h_sup,
            "status": self.status,
            "in_regime": self.in_regime,
            "regime_note": self.regime_note,
        }


def stability_run(spec, v0_shape: ComplexField, eps_list, T: float, *,
                  dt: float = 1e-3, sample_stride: int = 10,
                  grow_factor: float = 10.0,
                  linf_ceiling: float | None = None) -> list:
    """One decomposed run per eps on v0_shape's grid, with v0 = eps *
    shape / ||shape||_H1.  Every eps must be finite and >= 0; the whole
    list is checked before the first run.

    Blow-up is a recorded outcome.  `Grew` is declared when h_sup exceeds
    grow_factor * eps — the certified windows promise existence of bounds,
    not their values, so the factor is an explicit harness knob, not physics.
    """
    eps_list = tuple(eps_list)
    for eps in eps_list:
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
    grid = v0_shape.grid
    in_regime, note = spec.regime(grid)
    shape_h1 = norms(v0_shape).h1
    reports = []
    for eps in eps_list:
        if eps == 0.0 or shape_h1 == 0.0:
            v0 = constant_field(grid, 0.0)
        else:
            v0 = ComplexField(grid, v0_shape.values * (eps / shape_h1))
        state = make_decomposed(spec, grid, v0=v0)
        state, series = run_decomposed(state, T, dt=dt,
                                       sample_stride=sample_stride,
                                       linf_ceiling=linf_ceiling)
        h_sup = float(np.max(series.h))
        if state.status == STATUS_BLOWNUP:
            status = "BlownUp"
        elif eps > 0.0 and h_sup > grow_factor * eps:
            status = f"Grew(ratio={h_sup / eps:.4g})"
        else:
            status = "Bounded"
        reports.append(StabilityReport(
            eps=float(eps), t=series.t, h_series=series.h, h_sup=h_sup,
            status=status, in_regime=in_regime, regime_note=note,
            phi_sup=series.phi_sup, grad_phi_sup=series.grad_phi_sup))
    return reports


@dataclass
class TwoWaveSeries:
    """Interaction remainder ||u - lift f1 - lift f2||_H1 over time.

    `boundary_fraction` measures localization in the profile frame
    (z_i = x - c_i . y): the fraction of remainder mass sitting in the
    corner of the (z1, z2) fundamental cell, far from both waves.  The
    box frame is the wrong place to look — sheared stripes re-intersect
    near the torus edge no matter how localized the interaction is.
    """
    t: np.ndarray
    remainder: np.ndarray
    status: str
    boundary_fraction: float
    product_scale: float      # ||lift f1||_H1 * ||lift f2||_H1 at t=0


def two_wave_run(spec1: PlaneWaveSpec, spec2: PlaneWaveSpec,
                 v0: ComplexField | None, T: float, grid: Grid, *,
                 dt: float = 1e-3, sample_stride: int = 10) -> TwoWaveSeries:
    """Evolve u = v0 + lift(f1) + lift(f2) fully, the profiles
    independently, and report the interaction remainder in H1.

    u and both profiles are carried as spectra (`SpectralMarch`); the
    remainder is formed at samples only.  A step's sup bound for `march`
    is the sum of the three half-step sups.  The initial lifts are read
    only to form u and `product_scale`, and are freed before the march;
    v0's values stay only as the remainder of the t=0 sample, until the
    next sample replaces it."""
    for s in (spec1, spec2):
        if not isinstance(s, PlaneWaveSpec):
            raise TypeError("two-wave interaction takes plane-wave specs")
    if spec1.c == spec2.c:
        raise ValueError("profiles must travel at distinct speeds")
    if spec1.lam != spec2.lam or spec1.sigma != spec2.sigma:
        raise ValueError("both waves must share (lam, sigma)")
    config = RunConfig(t_end=T, dt0=dt, sample_stride=sample_stride)
    if T < 0:
        raise ValueError("two-wave runs only go forward")
    prob1, f1 = spec1.profile(grid)
    prob2, f2 = spec2.profile(grid)
    l1 = lift_structured(spec1, f1.values, grid, 0.0)
    l2 = lift_structured(spec2, f2.values, grid, 0.0)
    v0 = _initial_v(v0, grid)
    scale = norms(ComplexField(grid, l1)).h1 * norms(ComplexField(grid, l2)).h1

    problem = EvolutionProblem(grid=grid, lam=spec1.lam, sigma=spec1.sigma)
    waves = [SpectralMarch(ComplexField(grid, v0.values + l1 + l2), problem),
             SpectralMarch(f1, prob1), SpectralMarch(f2, prob2)]
    # at t=0 the remainder is v0 itself; subtracting the lifts back out
    # would leave roundoff
    last = v0.values
    del l1, l2, v0
    ts, rem = [], []

    def step(h: float) -> float:
        return sum(w.step(h) for w in waves)

    def record(m) -> float:
        nonlocal last
        u, g1, g2 = (w.field(m.t) for w in waves)
        if m.steps > 0:
            last = u.values - lift_structured(spec1, g1.values, grid, m.t) \
                - lift_structured(spec2, g2.values, grid, m.t)
        ts.append(m.t)
        rem.append(norms(ComplexField(grid, last, t=m.t)).h1)
        return u.linf() + g1.linf() + g2.linf()

    status = march(0.0, config, spec1.sigma, step, record).status

    return TwoWaveSeries(t=np.asarray(ts), remainder=np.asarray(rem),
                         status=status,
                         boundary_fraction=_band_fraction(
                             last, grid, (spec1.c, spec2.c)),
                         product_scale=float(scale))


def _band_fraction(values: np.ndarray, grid: Grid, speeds) -> float:
    """`TwoWaveSeries.boundary_fraction` of the remainder `values`: the
    share of sum |u|^2 on the cells far from both waves, where
    |z| > 0.8 period / 2 for z = x - c . y wrapped into one period
    (period: the box along x) and c each of the two `speeds`.  It is summed
    chunk by chunk (`spectral.streamed`) from per-axis coordinates, so it
    forms no array of the grid's shape; a field of one chunk gives the
    bits of the whole-array sums."""
    totals, far = zip(*spectral.streamed(
        _band_sums, (values, grid.coord_along(0)),
        (float, float, float, bool, bool), speeds,
        [grid.coord_along(j) for j in range(1, grid.d)], grid.length[0]))
    total = _in_order(totals)
    return float(_in_order(far) / total) if total > 0 else 0.0


def _band_sums(u, x, a2, z, w, far, band, speeds, ys, period) -> tuple:
    """`_band_fraction`'s two sums over one chunk of rows, whose
    coordinates along axis 0 are `x` and along the other axes `ys`.  The
    band's |u|^2 is gathered (the one array this allocates, at most a
    chunk), as the whole-array formula sums it."""
    np.abs(u, out=a2)
    np.square(a2, out=a2)
    for c, out in zip(speeds, (band, far)):
        np.copyto(z, x)
        for cj, y in zip(c, ys):
            np.subtract(z, cj * y, out=z)
        np.divide(z, period, out=w)
        np.round(w, out=w)
        np.multiply(period, w, out=w)
        np.subtract(z, w, out=z)
        np.abs(z, out=z)
        np.greater(z, 0.8 * (period / 2.0), out=out)
    np.logical_and(band, far, out=band)
    return float(a2.sum()), float(a2[band].sum())
