"""Evolution on decomposed spaces: structured waves plus H1 perturbation.

A solution is written u = v + phi where phi is the sum of one or more
lifted plane or standing waves that share (lam, sigma) and v carries
everything else.  The primary method advances u with the full solver and
each wave's profile with its own low-dimensional solver, then defines v
by subtraction — it inherits the full solver's conservation exactness and
needs no linearization.  `run_decomposed` carries the spectrum of u and
of each profile between steps (`SpectralMarch`, two FFTs a step) and
lifts the profiles to form v only where v is read: at samples, and at a
step whose cheap sup bound passes the blow-up ceiling.
`step_decomposed` is the same method as a single step.  A direct
integrator for the perturbation equation

    i v_t + box v + lam (|v+phi|^sigma (v+phi) - |phi|^sigma phi) = 0

exists purely as a cross-validation oracle.  On top of the steppers sit
the stability harness (sup of ||v||_H1 per perturbation size) and the
two-wave interaction run, a decomposed run of two plane waves whose v is
the interaction remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .fields import (ComplexField, Grid, GridError, _in_order,
                     constant_field, multiply_out, norms)
from .evolution import (STATUS_BLOWNUP, STATUS_DONE, STATUS_RUNNING,
                        EvolutionProblem, RunConfig, SpectralMarch,
                        StepperState, march, step_strang)
from .families import PlaneWaveSpec


def lift_structured(spec, values: np.ndarray, t: float) -> np.ndarray:
    """Samples on the wave's box of the structured wave built from profile
    values; every lift in this module goes through here."""
    return spec.lift(values, t)


@dataclass
class DecomposedState:
    """u = v + phi with every component time-synchronized.

    `specs` is a tuple of plane or standing wave specs from `families`
    that share (lam, sigma); phi is the sum of their lifts.  `profiles`
    holds one low-dimensional sample per spec, on the grid of its
    `problem`; the lifts to the full grid happen on demand.  v and every
    wave lie on one box (GridError otherwise), and every component is
    stamped one time.
    """

    v: ComplexField
    specs: tuple
    profiles: tuple
    status: str = STATUS_RUNNING

    def __post_init__(self):
        for spec in self.specs:
            if not spec.grid.same_box(self.v.grid):
                raise GridError(f"v on {self.v.grid}, a wave on {spec.grid}")
        for profile in self.profiles:
            if abs(self.v.t - profile.t) > 1e-12 * max(1.0, abs(self.v.t)):
                raise ValueError(f"components out of sync: v at t={self.v.t}, "
                                 f"profile at t={profile.t}")

    @property
    def t(self) -> float:
        return self.v.t

    @property
    def problem(self) -> EvolutionProblem:
        """The full problem u = v + phi evolves under."""
        return EvolutionProblem(self.v.grid, self.specs[0].lam,
                                self.specs[0].sigma)

    def full_field(self) -> ComplexField:
        return self.v.with_values(_fold_lifts(
            np.add, self.v.values, self.specs, self.profiles, self.t))


def _fold_lifts(op, values: np.ndarray, specs, profiles,
                t: float) -> np.ndarray:
    """op(values, lift) for each profile's lift at t, one wave at a time:
    np.add forms u = (v + phi_1) + phi_2 ..., np.subtract v from u."""
    for spec, profile in zip(specs, profiles):
        values = op(values, lift_structured(spec, profile.values, t))
    return values


def make_decomposed(specs, v0: ComplexField | None = None) -> DecomposedState:
    """Initial decomposed state at t=0 of the waves `specs`, one or more
    that share (lam, sigma) and their box; v0 defaults to zero, else it
    must lie on that box, stamped t=0."""
    specs = tuple(specs)
    if not specs or any((s.lam, s.sigma) != (specs[0].lam, specs[0].sigma)
                        for s in specs):
        raise ValueError("a decomposed state takes one or more waves that "
                         "share (lam, sigma)")
    if v0 is None:
        v0 = constant_field(specs[0].grid, 0.0)
    elif v0.t != 0.0:
        raise ValueError("v0 must be stamped t=0")
    return DecomposedState(v=v0, specs=specs, profiles=tuple(
        ComplexField(spec.problem.grid, spec.f0) for spec in specs))


def step_decomposed(state: DecomposedState, dt: float) -> DecomposedState:
    """Advance u = v + phi with the full stepper, each profile with its
    own stepper, and subtract.  Blow-up of any component is recorded on
    the returned status, never raised; v then keeps the lifts at the
    step's start."""
    if state.status != STATUS_RUNNING:
        return state
    grid = state.v.grid
    t = state.t
    su = step_strang(StepperState(field=state.full_field(), dt=dt),
                     state.problem)
    profiles = tuple(
        step_strang(StepperState(field=profile, dt=dt), spec.problem).field
        for profile, spec in zip(state.profiles, state.specs))
    if su.field.is_finite() and all(p.is_finite() for p in profiles):
        status, lifted, at = STATUS_RUNNING, profiles, t + dt
    else:
        status, lifted, at = STATUS_BLOWNUP, state.profiles, t
    v1 = _fold_lifts(np.subtract, su.field.values, state.specs, lifted, at)
    return DecomposedState(v=ComplexField(grid, v1, t=t + dt),
                           specs=state.specs, profiles=profiles,
                           status=status)


def step_perturbation(state: DecomposedState, dt: float) -> DecomposedState:
    """Advance v by the perturbation equation directly: Strang linear
    half-steps around one classical RK4 sweep of the nonlinear coupling,
    with phi sampled at the substep times.  With several waves the
    coupling subtracts the sum of the waves' own nonlinearities, as
    v = u - phi_1 - phi_2 - ... requires."""
    if state.status != STATUS_RUNNING:
        return state
    grid = state.v.grid
    t = state.t
    half = 0.5 * dt
    problem, problems = state.problem, [s.problem for s in state.specs]
    lam, sigma = problem.lam, problem.sigma
    halves = tuple(step_strang(StepperState(field=p, dt=half), pb).field
                   for p, pb in zip(state.profiles, problems))
    ends = tuple(step_strang(StepperState(field=p, dt=half), pb).field
                 for p, pb in zip(halves, problems))

    def forcing(profiles, at):
        """phi at `at` and the sum of |phi_i|^sigma phi_i."""
        lifts = [lift_structured(spec, p.values, at)
                 for spec, p in zip(state.specs, profiles)]
        own = [np.abs(phi) ** sigma * phi for phi in lifts]
        return sum(lifts[1:], lifts[0]), sum(own[1:], own[0])

    def coupling(w, phi, own):
        s = w + phi
        return 1j * lam * (np.abs(s) ** sigma * s - own)

    ph = multiply_out(problem.linear_phase(half))
    w = spectral.ifftn(spectral.fftn(state.v.values) * ph)
    # an overflow here is a blow-up, recorded below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        f0, f_h, f_1 = (forcing(state.profiles, t), forcing(halves, t + half),
                        forcing(ends, t + dt))
        k1 = coupling(w, *f0)
        k2 = coupling(w + half * k1, *f_h)
        k3 = coupling(w + half * k2, *f_h)
        k4 = coupling(w + dt * k3, *f_1)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    w = spectral.ifftn(spectral.fftn(w) * ph)

    status = STATUS_RUNNING
    if not (np.all(np.isfinite(w.view(float)))
            and all(p.is_finite() for p in ends)):
        status = STATUS_BLOWNUP
    return DecomposedState(v=ComplexField(grid, w, t=t + dt),
                           specs=state.specs, profiles=ends, status=status)


# ---------------------------------------------------------------------------
# runs and reports

@dataclass
class CoupledSeries:
    """Sampled diagnostics of a decomposed run."""
    t: np.ndarray
    h: np.ndarray             # ||v||_H1
    phi_sup: np.ndarray       # sum of ||phi_i||_inf over the waves
    grad_phi_sup: np.ndarray  # sum of ||grad phi_i||_inf


def _stepped(state: DecomposedState, stepper):
    """`step(h)`, `now(t)` and `exact` of a run that calls `stepper` once
    per step; `now` returns the stepper's latest state, and the step's
    bound is already exact."""
    def step(h: float) -> float:
        nonlocal state
        state = stepper(state, h)
        if state.status != STATUS_RUNNING:
            return math.inf        # the stepper found a non-finite component
        return state.v.linf() + sum(p.linf() for p in state.profiles)

    return step, lambda t: state, None


def _carried(state: DecomposedState):
    """`step(h)`, `now(t)` and `exact(m)` of the subtraction method with
    carried spectra; `now` forms the decomposed state at the march time t,
    once per step taken, and `exact` reads its ||v||_inf + sum
    ||profile_i||_inf where the step's bound is too loose."""
    if state.status != STATUS_RUNNING:
        return (lambda h: math.inf), (lambda t: state), None
    grid, specs = state.v.grid, state.specs
    u = SpectralMarch(state.full_field(), state.problem)
    fs = [SpectralMarch(profile, spec.problem)
          for profile, spec in zip(state.profiles, specs)]
    current = state

    def step(h: float) -> float:
        nonlocal current
        current = None
        return u.step(h) + 2.0 * sum(f.step(h) for f in fs)

    def now(t: float) -> DecomposedState:
        nonlocal current
        if current is None:
            profiles = tuple(f.field(t) for f in fs)
            v = _fold_lifts(np.subtract, u.field(t).values, specs,
                            profiles, t)
            current = DecomposedState(v=ComplexField(grid, v, t=t),
                                      specs=specs, profiles=profiles)
        return current

    def exact(m) -> float:
        s = now(m.t)
        return s.v.linf() + sum(p.linf() for p in s.profiles)

    return step, now, exact


def run_decomposed(state: DecomposedState, config: RunConfig, *,
                   stepper=None) -> tuple:
    """March under `config`, sampling ||v||_H1 and the profile decay
    proxies (summed over the waves) every stride; the step is fixed, and
    an adaptive config is refused (ValueError).

    By default this is the subtraction method with carried spectra: u =
    v0 + phi0 and each profile march as a `SpectralMarch` (two FFTs a
    step on the full grid), and v = u - phi is formed only at samples and
    at blow-up, so each profile is lifted once per sample, not twice per
    step.  An explicit `stepper(state, h)` (such as `step_perturbation`)
    is called once per step instead.  A state that is not "Running" is
    left as it is; a completed run keeps the status "Running".  As `run`
    owns its field, the run owns `state`: the carried march lets go of it
    at the first step, so a caller that does not keep it frees v0 then.

    Both split substeps are pointwise unitary, so a collapsing component
    never turns non-finite by itself; blow-up is detected by `march`, as
    in the full solver, from ||v||_inf + sum ||profile_i||_inf passing
    config.linf_ceiling (default: 1e6 times its initial value) or turning
    non-finite.  With carried spectra a step's bound is sup|u| + 2 sum
    sup|profile_i| over the half-step fields, since |v| <= |u| + |phi|;
    when that passes the ceiling, v is formed and the exact sum decides,
    as it does after every step of a stepper.
    """
    if config.adapt:
        raise ValueError("decomposed runs take a fixed step")
    if config.t_end < state.t:
        raise ValueError("decomposed runs only go forward")
    if stepper is not None:
        step, now, exact = _stepped(state, stepper)
    else:
        step, now, exact = _carried(state)
    t0, sigma = state.t, state.specs[0].sigma
    del state
    ts, hs, ps, gs = [], [], [], []

    def record(m) -> float:
        s = now(m.t)
        p, gp = (sum(x) for x in zip(*(
            spec.proxies(profile)
            for spec, profile in zip(s.specs, s.profiles))))
        nb = norms(s.v)
        ts.append(s.t)
        hs.append(nb.h1)
        ps.append(p)
        gs.append(gp)
        return nb.linf + p

    m = march(t0, config, sigma, step, record, exact)
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


def stability_run(spec, v0_shape: ComplexField, eps_list,
                  config: RunConfig, *, grow_factor: float = 10.0) -> list:
    """One decomposed run under `config` per eps on v0_shape's grid, with
    v0 = eps * shape / ||shape||_H1.  Every eps must be finite and >= 0;
    the whole list is checked before the first run.

    Blow-up is a recorded outcome.  `Grew` is declared when h_sup exceeds
    grow_factor * eps — the certified windows promise existence of bounds,
    not their values, so the factor is an explicit harness knob, not physics.
    """
    eps_list = tuple(eps_list)
    for eps in eps_list:
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
    grid = v0_shape.grid
    in_regime, note = spec.regime()
    shape_h1 = norms(v0_shape).h1
    reports = []
    for eps in eps_list:
        if eps == 0.0 or shape_h1 == 0.0:
            v0 = constant_field(grid, 0.0)
        else:
            v0 = ComplexField(grid, v0_shape.values * (eps / shape_h1))
        state = make_decomposed((spec,), v0=v0)
        state, series = run_decomposed(state, config)
        h_sup = float(np.max(series.h))
        if state.status == STATUS_BLOWNUP:
            status = STATUS_BLOWNUP
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
                 config: RunConfig) -> TwoWaveSeries:
    """Evolve u = lift(f1) + lift(f2) fully, the profiles independently,
    and report the interaction remainder in H1.

    This is `run_decomposed` of the state with both waves under `config`:
    the remainder is its v, and the run's blow-up rule is that of every
    decomposed run.  The initial lifts are read only to form `product_scale` and u, and
    are freed before the march."""
    for s in (spec1, spec2):
        if not isinstance(s, PlaneWaveSpec):
            raise TypeError("two-wave interaction takes plane-wave specs")
    if spec1.c == spec2.c:
        raise ValueError("profiles must travel at distinct speeds")
    h1, h2 = (norms(ComplexField(spec.grid, lift_structured(
        spec, spec.f0, 0.0))).h1 for spec in (spec1, spec2))
    state, series = run_decomposed(make_decomposed((spec1, spec2)), config)
    return TwoWaveSeries(
        t=series.t, remainder=series.h,
        status=STATUS_BLOWNUP if state.status == STATUS_BLOWNUP
        else STATUS_DONE,
        boundary_fraction=_band_fraction(state.v.values, state.v.grid,
                                         (spec1.c, spec2.c)),
        product_scale=float(h1 * h2))


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
