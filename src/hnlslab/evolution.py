"""Split-step time integration of

    i u_t + sum_j alpha_j d^2_j u + lambda |u|^sigma u - V(x) u = 0

on a periodic box.  One Strang step is L(dt/2) N(dt) L(dt/2) where L is the
exact free propagator (diagonal in Fourier space) and N the exact pointwise
phase map u -> u exp(i dt (lambda |u|^sigma - V)).  Both substeps are
unitary, so the discrete mass is conserved to roundoff; the energy drift is
the usual O(dt^2) splitting error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .fields import ComplexField, Grid, GridError, cubic_read
from .observables import ObservableSample, ObservableSeries, sample

STATUS_RUNNING = "Running"
STATUS_DONE = "Done"
STATUS_BLOWNUP = "BlownUp"


def _check_nonlinearity(lam: float, sigma: float) -> None:
    """The rule on (lam, sigma) of every problem, wave spec and radial
    profile: lam finite, sigma finite and >= 0."""
    if not (math.isfinite(lam) and math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"need lam finite and sigma finite >= 0, got "
                         f"lam={lam}, sigma={sigma}")


@dataclass
class EvolutionProblem:
    """Grid plus physics: nonlinearity strength/power and optional potential."""
    grid: Grid
    lam: float
    sigma: float
    potential: np.ndarray | None = None

    def __post_init__(self):
        _check_nonlinearity(self.lam, self.sigma)
        if self.potential is not None:
            self.potential = np.asarray(self.potential, dtype=float)
            if self.potential.shape != self.grid.n:
                raise GridError("potential shape does not match grid")

    def linear_phase(self, dt: float) -> np.ndarray:
        """Fourier multiplier exp(-i dt sum alpha_j xi_j^2)."""
        return np.exp(-1j * dt * self.grid.symbol)


def harmonic_saddle_potential(grid: Grid, k: float, flat_frac: float = 0.8) -> np.ndarray:
    """Signed quadratic potential k (x^2 - |y|^2), tapered near the edges.

    The quadratic form is exact on the central `flat_frac` of each half-axis
    and rolled smoothly to zero at the boundary with a cos^2 ramp, so the
    periodic wrap never sees a jump.  Intended for data concentrated well
    inside the flat region.
    """
    pot = np.zeros(grid.n)
    taper = np.ones(grid.n)
    for j in range(grid.d):
        x = grid.coord_along(j)
        r0 = flat_frac * 0.5 * grid.length[j]
        r1 = 0.5 * grid.length[j]
        ax = np.abs(x)
        ramp = np.where(ax <= r0, 1.0,
                        np.cos(0.5 * np.pi * np.clip((ax - r0) / (r1 - r0), 0.0, 1.0)) ** 2)
        taper = taper * ramp
        sgn = 1.0 if j == 0 else -1.0
        pot = pot + sgn * x ** 2
    return k * pot * taper


@dataclass
class RunConfig:
    t_end: float
    dt0: float = 1e-3
    adapt: bool = False
    linf_ceiling: float | None = None   # default resolved to 1e6 * initial linf
    dt_floor: float | None = None       # default dt0 * 1e-8
    sample_stride: int = 10

    def __post_init__(self):
        if not np.isfinite(self.t_end):
            raise ValueError(f"t_end must be finite, got {self.t_end}")
        if not (np.isfinite(self.dt0) and self.dt0 > 0):
            raise ValueError(f"dt0 must be positive and finite, got {self.dt0}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        for name in ("linf_ceiling", "dt_floor"):
            v = getattr(self, name)
            if v is not None and not v > 0:   # NaN would disable the test
                raise ValueError(f"{name} must be positive, got {v}")
        if self.adapt and self.t_end < 0:
            raise ValueError("adaptive stepping only runs forward in time")


@dataclass
class StepperState:
    field: ComplexField
    dt: float
    step_count: int = 0
    status: str = STATUS_RUNNING
    t_detect: float | None = None

    @property
    def t(self) -> float:
        return self.field.t


def _nonlinear_stage(u: np.ndarray, dt: float, lam: float, sigma: float,
                     potential: np.ndarray | None = None) -> np.ndarray:
    """Apply the exact phase map N(dt): u -> u exp(i dt (lam |u|^sigma - V)),
    in place, and return the amplitude |u|^sigma it used.  The map keeps
    |u| pointwise, so that amplitude also bounds the new field.  Every
    split-step solver calls it: the Strang steps here and the radial step.

    Cost, all pointwise: the amplitude (re^2 + im^2 for sigma = 2, its
    square for sigma = 4, |u|^sigma otherwise), the phase dt (lam amp - V)
    built in one real buffer, cos and sin of it written into the two halves
    of one complex buffer, and one complex multiply.  No complex argument
    is formed and no complex exp is taken; cos/sin give the same bits as
    exp(i phase) with numpy 2.4.  The three buffers are allocated here and
    `spectral.pointwise` runs the map on row blocks of them.
    """
    amp = np.empty(u.shape)
    theta = np.empty(u.shape)
    z = np.empty_like(u)
    spectral.pointwise(_phase_map, u, amp, theta, z, dt, lam, sigma,
                       potential)
    return amp


def _phase_map(u, amp, theta, z, dt, lam, sigma, potential) -> None:
    """`_nonlinear_stage` on one block, written into its buffers."""
    if sigma in (2.0, 4.0):
        np.multiply(u.real, u.real, out=amp)      # the bits of _abs2(u)
        np.multiply(u.imag, u.imag, out=theta)
        amp += theta
        if sigma == 4.0:
            amp *= amp
    else:
        np.abs(u, out=amp)
        amp **= sigma
    np.multiply(lam, amp, out=theta)
    if potential is not None:
        theta -= potential
    theta *= dt
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    u *= z


def step_strang(state: StepperState, problem: EvolutionProblem,
                direction: float = 1.0) -> StepperState:
    """One Strang step of size state.dt (times `direction` = +-1)."""
    dt = state.dt * direction
    half = problem.linear_phase(0.5 * dt)
    u = spectral.ifftn(spectral.fftn(state.field.values) * half)
    _nonlinear_stage(u, dt, problem.lam, problem.sigma, problem.potential)
    u = spectral.ifftn(spectral.fftn(u) * half)
    return StepperState(field=state.field.with_values(u, t=state.field.t + dt),
                        dt=state.dt, step_count=state.step_count + 1,
                        status=state.status)


class SpectralMarch:
    """One field carried as its spectrum u^ = fftn(u) through Strang steps.

    A step is ifftn(u^ L(h/2)) -> N(h) -> fftn -> L(h/2): two FFTs where
    `step_strang` spends four, matching a loop of it to roundoff.  L(h/2)
    is kept for the last h stepped and formed again only when h changes.
    The physical field is formed by one ifftn, and only when `field` asks.
    On a large grid both multiplies, both transforms and the phase map run
    on the row blocks of `spectral`, bit for bit the serial step.  Each
    step allocates its scratch afresh, so none is alive between steps
    (where a sample would add it to the peak memory).
    """

    def __init__(self, field: ComplexField, problem: EvolutionProblem):
        if not field.grid.same_box(problem.grid):
            raise GridError(f"field on {field.grid}, problem on {problem.grid}")
        self.problem = problem
        self.spectrum = spectral.fftn(field.values)
        self._field = field        # None while only the spectrum is current
        self._h = self._half = None     # the last step size and its L(h/2)

    def step(self, h: float) -> float:
        """Advance by h and return the sup of the half-step field L(h/2) u,
        read off the amplitude the nonlinear stage computes (non-finite
        when the field is)."""
        problem, sigma = self.problem, self.problem.sigma
        if h != self._h:
            self._h, self._half = h, problem.linear_phase(0.5 * h)
        w = np.empty_like(self.spectrum)
        spectral.pointwise(np.multiply, self.spectrum, self._half, w)
        spectral.ifftn(w, out=w)
        amp = _nonlinear_stage(w, h, problem.lam, sigma, problem.potential)
        if sigma > 0:
            sup = float(np.max(amp)) ** (1.0 / sigma)
        else:
            sup = float(np.max(np.abs(w)))
        del amp            # free it before the forward FFT: peak memory
        spectral.fftn(w, out=w)
        spectral.pointwise(np.multiply, w, self._half, w)
        self.spectrum = w
        self._field = None
        return sup

    def field(self, t: float) -> ComplexField:
        """The physical field, stamped t; formed once per step taken."""
        if self._field is None or self._field.t != t:
            self._field = ComplexField(self.problem.grid,
                                       spectral.ifftn(self.spectrum), t=t)
        return self._field


@dataclass
class MarchState:
    """Progress of one `march`: shown to each `record` call, then returned."""
    t: float
    dt: float
    steps: int = 0
    status: str = STATUS_RUNNING
    t_detect: float | None = None


def _done_tol(t_end: float) -> float:
    """How close to t_end a march must come to end "Done"."""
    return 1e-12 * max(abs(t_end), 1.0)


def _fixed_dt_samples(config: RunConfig) -> int:
    """Samples a fixed-dt `march` from t = 0 takes: the first, one every
    sample_stride steps and the last; steps end within `_done_tol` of
    t_end.  Step counts past 1e18 are all counted as 1e18."""
    span, tol = abs(config.t_end), _done_tol(config.t_end)
    steps = math.ceil(min((span - tol) / config.dt0, 1e18)) \
        if span > tol else 0
    return 1 + -(-steps // config.sample_stride)


def march(t0: float, config: RunConfig, sigma: float,
          step: Callable[[float], float],
          record: Callable[[MarchState], float],
          exact: Callable[[MarchState], float] | None = None) -> MarchState:
    """The time loop of every solver: advance from t0 to config.t_end.

    `step(h)` advances the caller's state by h (negative when marching
    backward) and returns a bound on its sup norm, non-finite when the
    state is.  `record(m)` samples the state at m.t and returns its exact
    sup norm.  `exact(m)`, when given, returns that sup norm without
    taking a sample; it is asked only when a step's finite bound passes
    the ceiling, and its value decides, so a loose bound stops no run
    early.  Samples are taken first, every sample_stride steps, at
    blow-up when the bound is finite, and last; `m.status` is already
    final for the last two.

    Blow-up is a recorded outcome, not an error: the march stops with
    status "BlownUp" and the detection time when a step's bound passes
    the ceiling (default 1e6 times the first sample's sup) or is
    non-finite, or (with adapt=true) when the step size underflows
    dt_floor while the sup is still growing.  The adaptive rule dt = dt0
    / (1 + sup^sigma) is applied every sample_stride steps to the sup of
    the sample just taken.  Otherwise the last step is clipped to land
    on t_end and the status is "Done".
    """
    direction = 1.0 if config.t_end >= t0 else -1.0
    span = abs(config.t_end - t0)
    m = MarchState(t=t0, dt=min(config.dt0, span) if span > 0
                   else config.dt0)
    sup = record(m)
    if span == 0.0:
        m.status = STATUS_DONE
        return m
    ceiling = config.linf_ceiling if config.linf_ceiling is not None \
        else 1e6 * max(sup, 1e-300)
    dt_floor = config.dt_floor if config.dt_floor is not None \
        else config.dt0 * 1e-8
    tol = _done_tol(config.t_end)
    stride = config.sample_stride
    last_sup = sup
    while True:
        remaining = abs(config.t_end - m.t)
        if remaining <= tol:
            break
        if config.adapt and m.steps % stride == 0:
            dt = config.dt0 / (1.0 + sup ** sigma)
            if dt < dt_floor:
                if sup > last_sup:
                    m.status, m.t_detect = STATUS_BLOWNUP, m.t
                    return m
                dt = dt_floor
            last_sup = sup
            m.dt = dt
        m.dt = min(m.dt, remaining)
        h = m.dt * direction
        bound = step(h)
        m.t = m.t + h
        m.steps += 1
        if exact is not None and math.isfinite(bound) and bound > ceiling:
            bound = exact(m)
        if not math.isfinite(bound) or bound > ceiling:
            m.status, m.t_detect = STATUS_BLOWNUP, m.t
            if math.isfinite(bound):
                record(m)
            return m
        if m.steps % stride == 0:
            sup = record(m)
    m.status = STATUS_DONE
    if m.steps % stride != 0:
        record(m)
    return m


def run(field: ComplexField, problem: EvolutionProblem, config: RunConfig,
        observer: Callable[[StepperState, ObservableSample], None] | None = None,
        ) -> tuple[StepperState, ObservableSeries]:
    """March a field from field.t to config.t_end with `march` in steps of
    config.dt0, sampling observables every sample_stride steps (plus first
    and last).

    The field is a `SpectralMarch`, so one Strang step costs two FFTs and
    matches a loop of `step_strang` to roundoff.  The physical field is
    formed only where it is read: at each sample (and so at each observer
    call and snapshot), at blow-up and at the end of the run.  The step's
    sup bound is that of the half-step field L(dt/2) u, so a step whose
    half-step field passes the ceiling is completed and the run stops at
    its end.
    """
    series = ObservableSeries(alpha=problem.grid.alpha)
    u = SpectralMarch(field, problem)

    def record(m: MarchState) -> float:
        f = u.field(m.t)
        s = sample(f, problem.lam, problem.sigma, problem.potential,
                   spectrum=u.spectrum)
        series.append(s)
        if observer is not None:
            observer(StepperState(f, m.dt, m.steps, m.status,
                                  m.t_detect), s)
        return s.linf

    m = march(field.t, config, problem.sigma, u.step, record)
    return (StepperState(u.field(m.t), m.dt, m.steps, m.status, m.t_detect),
            series)


def residual_hnls(f_minus: ComplexField, f_center: ComplexField,
                  f_plus: ComplexField, problem: EvolutionProblem) -> float:
    """Relative PDE residual of a time-centered field triple.

    || i (u+ - u-)/(2h) + sum alpha_j d^2_j u + lambda |u|^sigma u - V u ||_2
    normalized by ||u||_2, with h read off the time stamps.  Spatial terms
    are spectral; the time derivative is the centered difference, so an
    exact solution scores O(h^2).
    """
    g = problem.grid
    for f in (f_minus, f_plus):
        if not f.grid.same_box(g):
            raise GridError("residual_hnls: fields on mismatched grids")
    h_lo = f_center.t - f_minus.t
    h_hi = f_plus.t - f_center.t
    if h_lo <= 0 or h_hi <= 0 or abs(h_lo - h_hi) > 1e-9 * max(h_lo, h_hi):
        raise ValueError("residual_hnls: time stamps must be centered, t-h < t < t+h")
    h = 0.5 * (f_plus.t - f_minus.t)
    u = f_center.values
    ut = (f_plus.values - f_minus.values) / (2.0 * h)
    lin = spectral.ifftn(spectral.fftn(u) * (-g.symbol))
    res = 1j * ut + lin + problem.lam * np.abs(u) ** problem.sigma * u
    if problem.potential is not None:
        res = res - problem.potential * u
    num = np.sqrt(np.sum(np.abs(res) ** 2))
    den = np.sqrt(np.sum(np.abs(u) ** 2))
    if den == 0.0:
        raise ValueError("residual_hnls: zero center field")
    return float(num / den)


class FieldTrajectory:
    """Time-ordered field snapshots with 4-point Lagrange interpolation."""

    def __init__(self, fields: list[ComplexField] | None = None):
        self.fields: list[ComplexField] = []
        self.times: list[float] = []
        if fields:
            for f in fields:
                self.append(f)

    def append(self, f: ComplexField):
        if self.times and f.t <= self.times[-1]:
            raise ValueError("trajectory times must be strictly increasing")
        if self.fields and not f.grid.same_box(self.fields[0].grid):
            raise GridError("trajectory fields must share one grid")
        self.fields.append(f)
        self.times.append(f.t)

    @property
    def t_min(self) -> float:
        return self.times[0]

    @property
    def t_max(self) -> float:
        return self.times[-1]

    def __len__(self):
        return len(self.fields)

    def at(self, s: float) -> ComplexField:
        """Field at time s by the `cubic_read` rule, stamped s."""
        values = cubic_read(self.times, [f.values for f in self.fields], s)
        return ComplexField(self.fields[0].grid, values, t=s)
