"""Special solution families and their oracles.

Three constructions are housed here: spatial plane waves u = f(t, x - c.y)
riding a 1-D profile, transverse standing waves u = e^{i omega x} phi(t, y),
and semiclassical fields obtained by chirp-dilating a stationary candidate
with the coefficient ODEs from the transforms module.  Each constructor is
an oracle for the full solver: the families are exact modulo the measured
inputs (profile integration error, bound-state defect), so two-path
comparisons against the 2-D stepper make sharp tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import spectral
from .fields import (ComplexField, FieldDataError, Grid, GridError,
                     _is_pow2, evaluate_at_axes)
from .evolution import (STATUS_DONE, EvolutionProblem, RunConfig,
                        _check_nonlinearity, harmonic_saddle_potential, run)
from .transforms import (TransformError, TransformState,
                         integrate_transform_odes, signature_quadratic)


# ---------------------------------------------------------------------------
# spatial plane waves

@dataclass
class PlaneWaveSpec:
    """One period of a profile f plus the transverse speed vector c.

    The lifted field is u(t, x, y) = f(t, x - c.y); it fits a periodic box
    only when every c_j * len_y_j / period is an integer, which is checked
    against the concrete grid at lift time.
    """

    f0: np.ndarray
    period: float
    c: tuple
    lam: float
    sigma: float

    def __post_init__(self):
        self.f0 = np.ascontiguousarray(self.f0, dtype=np.complex128)
        if self.f0.ndim != 1 or not _is_pow2(len(self.f0)):
            raise FieldDataError(
                "profile must be 1-D with a power-of-two sample count >= 8")
        if not np.all(np.isfinite(self.f0)):
            raise FieldDataError("profile samples must be finite")
        self.period = float(self.period)
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be finite and > 0, "
                             f"got {self.period}")
        self.c = tuple(float(v) for v in self.c)
        if not self.c or not all(map(math.isfinite, self.c)):
            raise ValueError(f"speed vector must be finite and non-empty, "
                             f"got {self.c}")
        _check_nonlinearity(self.lam, self.sigma)

    @property
    def speed_sq(self) -> float:
        return float(sum(v * v for v in self.c))

    @property
    def dispersion(self) -> float:
        """Coefficient 1 - |c|^2 of the profile equation; 0 means the
        profile reduces to an exactly solvable phase flow."""
        return 1.0 - self.speed_sq


def _alignment_ints(c: Sequence[float], period: float,
                    length: Sequence[float]) -> list:
    """The integer shifts c_j len_y_j / period of a lift onto a box of
    side lengths `length`; GridError when the lift is not periodic."""
    if len(length) != len(c) + 1:
        raise GridError(f"grid is {len(length)}-D but the speed vector has "
                        f"{len(c)} components")
    if abs(length[0] - period) > 1e-9 * period:
        raise GridError("profile period must equal the box length along "
                        "the plus axis")
    out = []
    for j, cj in enumerate(c):
        m = cj * length[1 + j] / period
        if not math.isfinite(m) or abs(m - round(m)) > 1e-9:
            raise GridError(
                f"c[{j}] * len_y / len_x = {m} is not an integer; the "
                "lifted wave would not be periodic on this box")
        out.append(round(m))
    return out


def lift_profile(values: np.ndarray, c: Sequence[float], grid: Grid,
                 period: float | None = None) -> np.ndarray:
    """Samples of f(x - c.y) on `grid` from one period of f.

    When every index shift c_j dy/dx is an integer the lift is an exact
    gather, so repeated lifts are bit-stable; otherwise the trigonometric
    interpolant of the profile is evaluated at the shifted points.
    """
    vals = np.ascontiguousarray(values, dtype=np.complex128)
    if vals.ndim != 1:
        raise FieldDataError("profile values must be 1-D")
    period = grid.length[0] if period is None else float(period)
    ints = _alignment_ints(c, period, grid.length)
    nz, n0 = len(vals), grid.n[0]
    exact = nz == n0 and all((m * n0) % grid.n[1 + j] == 0
                             for j, m in enumerate(ints))
    if exact:
        idx = np.arange(n0)
        for j, m in enumerate(ints):
            nj = grid.n[1 + j]
            s = (m * n0) // nj
            jj = np.arange(nj) - nj // 2
            idx = idx.reshape(idx.shape + (1,)) \
                - s * jj.reshape((1,) * (j + 1) + (-1,))
        return vals[np.mod(idx, n0)]
    xi = spectral.freq(nz, period / nz)
    coef = spectral.fftn(vals) * np.exp(1j * xi * 0.5 * period) / nz
    mats = [np.exp(1j * np.outer(grid.coords[0], xi)) * coef]
    for j, cj in enumerate(c):
        mats.append(np.exp(-1j * np.outer(cj * grid.coords[1 + j], xi)))
    letters = "abc"[: len(mats)]
    script = ",".join(f"{ax}m" for ax in letters) + "->" + letters
    return np.einsum(script, *mats, optimize=True)


def plane_wave_problem(spec: PlaneWaveSpec) -> tuple:
    """1-D evolution problem and initial field for the profile equation
    i f_t + (1 - |c|^2) f_zz + lam |f|^sigma f = 0."""
    g1 = Grid((len(spec.f0),), (spec.period,), (spec.dispersion,))
    return (EvolutionProblem(grid=g1, lam=spec.lam, sigma=spec.sigma),
            ComplexField(g1, spec.f0))


def plane_wave_profile_at(spec: PlaneWaveSpec, t: float, *,
                          dt: float = 1e-3) -> np.ndarray:
    """Profile samples f(t, .).

    With |c| = 1 the dispersion drops out and the flow is the exact
    pointwise phase rotation f0 * exp(i lam |f0|^sigma t); otherwise the
    profile is marched there by the 1-D split-step solver.
    """
    if abs(spec.dispersion) < 1e-12:
        return spec.f0 * np.exp(1j * spec.lam * t
                                * np.abs(spec.f0) ** spec.sigma)
    return _march_profile(*plane_wave_problem(spec), t, dt, "profile")


def _march_profile(problem: EvolutionProblem, field: ComplexField, t: float,
                   dt: float, what: str) -> np.ndarray:
    """Values of `field` marched by `run` to t (a copy at t = 0); a run
    that does not end Done raises RuntimeError naming `what`."""
    if t == 0.0:
        return field.values.copy()
    state, _ = run(field, problem,
                   RunConfig(t_end=t, dt0=dt, sample_stride=10 ** 9))
    if state.status != STATUS_DONE:
        raise RuntimeError(f"{what} evolution ended {state.status} "
                           f"at t={state.t:.6g}")
    return state.field.values


def plane_wave_field(spec: PlaneWaveSpec, t: float, grid: Grid, *,
                     dt: float = 1e-3) -> ComplexField:
    """Lifted plane wave u(t, x, y) = f(t, x - c.y) on `grid`."""
    _alignment_ints(spec.c, spec.period, grid.length)
    prof = plane_wave_profile_at(spec, t, dt=dt)
    return ComplexField(grid, lift_profile(prof, spec.c, grid, spec.period),
                        t=t)


# ---------------------------------------------------------------------------
# transverse standing waves

@dataclass
class StandingWaveSpec:
    """Transverse profile f0 and an on-grid carrier frequency omega.

    The field is u(t, x, y) = e^{i(omega x - omega^2 t)} g(t, y) where g
    solves i g_t - Delta_y g + lam |g|^sigma g = 0 from g(0) = f0 (the
    sign flips come from pushing the carrier phase through the equation).
    """

    f0: np.ndarray
    omega: float
    lam: float
    sigma: float

    def __post_init__(self):
        self.f0 = np.ascontiguousarray(self.f0, dtype=np.complex128)
        if not np.all(np.isfinite(self.f0)):
            raise FieldDataError("transverse profile must be finite")
        self.omega = float(self.omega)
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        _check_nonlinearity(self.lam, self.sigma)


def standing_wave_problem(spec: StandingWaveSpec, grid: Grid) -> tuple:
    """Transverse evolution problem and initial field for g."""
    if grid.d < 2:
        raise GridError("standing waves need at least one transverse axis")
    if spec.f0.shape != grid.n[1:]:
        raise GridError(f"transverse profile shape {spec.f0.shape} does not "
                        f"match the grid's transverse axes {grid.n[1:]}")
    gT = Grid(grid.n[1:], grid.length[1:], (-1.0,) * (grid.d - 1))
    return (EvolutionProblem(grid=gT, lam=spec.lam, sigma=spec.sigma),
            ComplexField(gT, spec.f0))


def _carrier_index(omega: float, len_x: float) -> int:
    m = omega * len_x / (2.0 * np.pi)
    if not math.isfinite(m) or abs(m - round(m)) > 1e-9:
        raise GridError(f"omega = {omega} is not an x-harmonic of the "
                        "box (needs omega = 2 pi m / len_x)")
    return round(m)


def standing_wave_lift(values: np.ndarray, omega: float, grid: Grid,
                       t: float) -> np.ndarray:
    """e^{i(omega x - omega^2 t)} * values broadcast over the plus axis."""
    phase = np.exp(1j * (omega * grid.coord_along(0) - omega * omega * t))
    return phase * values[np.newaxis, ...]


def standing_wave_field(spec: StandingWaveSpec, t: float, grid: Grid, *,
                        dt: float = 1e-3) -> ComplexField:
    """Standing wave at time t on `grid`."""
    _carrier_index(spec.omega, grid.length[0])
    gvals = _march_profile(*standing_wave_problem(spec, grid), t, dt,
                           "transverse")
    return ComplexField(grid, standing_wave_lift(gvals, spec.omega, grid, t),
                        t=t)


# ---------------------------------------------------------------------------
# semiclassical fields from a stationary candidate

@dataclass
class SemiclassicalSpec:
    """Stationary candidate A0 plus the transform parameters.

    `defect` is the residual of the stationary equation for A0
    (`bound_state_defect`), measured here, never assumed zero: every
    consumer of this spec inherits an error budget proportional to it.
    """

    A0: ComplexField
    k: float
    gamma0: float
    a0: float
    lam: float
    defect: float = dc_field(init=False)

    def __post_init__(self):
        if not isinstance(self.A0, ComplexField):
            raise TypeError("A0 must be a ComplexField")
        for name in ("k", "gamma0", "a0", "lam"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        self.defect = bound_state_defect(self.A0, self.k, self.gamma0,
                                         self.lam)
        if not np.isfinite(self.defect):
            raise ValueError("defect must be finite")


def _stationary_residual(u: np.ndarray, grid: Grid, V: np.ndarray,
                         gamma0: float | None, lam: float) -> tuple:
    """(res, gamma0, defect) of the stationary equation at sigma = 4/d:
    res = box u + lam |u|^sigma u - (V + gamma0) u with spectral
    derivatives, gamma0 the Rayleigh quotient when None, and defect the
    l2 norm of res over the sum of the three terms' norms (0 when they
    all vanish)."""
    box = spectral.ifftn(spectral.fftn(u) * (-grid.symbol))
    nl = lam * np.abs(u) ** (4.0 / grid.d) * u
    if gamma0 is None:
        gamma0 = (np.real(np.vdot(u, box + nl - V * u))
                  / np.real(np.vdot(u, u)))
    gamma0 = float(gamma0)
    pot = (V + gamma0) * u
    res = box + nl - pot
    scale = (np.linalg.norm(box.ravel()) + np.linalg.norm(nl.ravel())
             + np.linalg.norm(pot.ravel()))
    if scale == 0.0:
        return res, gamma0, 0.0
    return res, gamma0, float(np.linalg.norm(res.ravel()) / scale)


def bound_state_defect(A0: ComplexField, k: float, gamma0: float,
                       lam: float) -> float:
    """Relative l2 residual of the stationary equation

        box A0 + lam |A0|^{4/d} A0 = (k (x^2 - |y|^2) + gamma0) A0,

    with spectral derivatives and the same edge-tapered potential the
    evolution module uses.  The power is pinned to sigma = 4/d (the only
    power the chirp-dilation map transports).  Zero fields report 0.
    """
    g = A0.grid
    return _stationary_residual(A0.values, g, harmonic_saddle_potential(g, k),
                                gamma0, lam)[2]


def refine_bound_state(seed: ComplexField, k: float, lam: float, *,
                       gamma0: float | None = None, iters: int = 500,
                       step: float = 0.25) -> tuple:
    """Best-effort stationary-candidate polish; returns (A0, gamma0, defect).

    Preconditioned residual descent at fixed L2 norm: each sweep proposes
    A -/+ step * P R (P a smooth inverse-symbol multiplier), keeps whichever
    proposal lowers the defect and halves the step when neither does.
    gamma0 floats as the Rayleigh quotient unless pinned.  This is a
    documented heuristic with a fixed iteration budget — no convergence is
    claimed, only that the returned defect never exceeds the seed's.
    """
    g = seed.grid
    V = harmonic_saddle_potential(g, k)
    P = 1.0 / (1.0 + np.abs(g.symbol))
    m0 = np.linalg.norm(seed.values.ravel())
    if m0 == 0.0:
        raise ValueError("seed field is zero")

    u = seed.values.copy()
    res, gm, d_cur = _stationary_residual(u, g, V, gamma0, lam)
    best = (u.copy(), gm, d_cur)
    tau = float(step)
    for _ in range(int(iters)):
        if d_cur == 0.0 or tau < 1e-10:
            break
        direction = spectral.ifftn(P * spectral.fftn(res))
        accepted = False
        for sgn in (-1.0, 1.0):
            cand = u + sgn * tau * direction
            cand *= m0 / np.linalg.norm(cand.ravel())
            res_c, gm_c, d_c = _stationary_residual(cand, g, V, gamma0,
                                                   lam)
            if d_c < d_cur:
                u, res, gm, d_cur = cand, res_c, gm_c, d_c
                accepted = True
                break
        if accepted:
            if d_cur < best[2]:
                best = (u.copy(), gm, d_cur)
            tau = min(tau * 1.2, step)
        else:
            tau *= 0.5
    return ComplexField(g, best[0], t=seed.t), best[1], best[2]


def semiclassical_field(spec: SemiclassicalSpec, t: float, *,
                        state: TransformState | None = None,
                        max_step: float = 1e-3) -> ComplexField:
    """Chirp-dilated candidate on A0's grid

        psi(t) = f(t) A0(x / b(t)) exp(i a(t) q(x)/4) exp(i gamma0 g(t)),

    with (a, b, f, g) from the coefficient ODEs for (a0, k).  Fails past
    the collapse time of b: the coefficients stop existing there.
    """
    grid = spec.A0.grid
    if state is not None and state.d != grid.d:
        raise TransformError(f"coefficient state is for d={state.d}, "
                             f"grid is d={grid.d}")
    if t == 0.0 and state is None:
        a_t, b_t, f_t, g_t = spec.a0, 1.0, 1.0, 0.0
    else:
        if state is None:
            if t < 0:
                raise TransformError(
                    "coefficients are integrated forward from t=0")
            npts = max(2, min(4096, int(np.ceil(t / 0.05)) + 1))
            state = integrate_transform_odes(spec.a0, spec.k, grid.d,
                                             np.linspace(0.0, t, npts),
                                             max_step=max_step)
        a_t, b_t, f_t, g_t = state.at(t)
    if b_t == 1.0:
        inner = spec.A0.values
    else:
        pts = [grid.coords[j] / b_t for j in range(grid.d)]
        inner = evaluate_at_axes(spec.A0, pts)
    phase = 0.25 * a_t * signature_quadratic(grid) + spec.gamma0 * g_t
    return ComplexField(grid, f_t * inner * np.exp(1j * phase), t=t)
