"""Special solution families and their oracles.

Three constructions are housed here: spatial plane waves u = f(t, x - c.y)
riding a 1-D profile, transverse standing waves u = e^{i omega x} phi(t, y),
and semiclassical fields obtained by chirp-dilating a stationary candidate
with the coefficient ODEs from the transforms module.  Each constructor is
an oracle for the full solver: the families are exact modulo the measured
inputs (profile integration error, bound-state defect), so two-path
comparisons against the 2-D stepper make sharp tests.

The two wave specs own all that tells plane from standing, behind the same
methods (`profile`, `profile_at`, `lift`, `proxies`, `regime`), and
`profile_hypothesis_warnings` lints the profile of either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import spectral
from .fields import (ComplexField, FieldDataError, Grid, GridError,
                     _abs2_into, _axis_eval_matrix, _evaluate_spectrum,
                     _is_pow2, spectral_derivative)
from .evolution import (STATUS_DONE, EvolutionProblem, RunConfig,
                        _check_nonlinearity, harmonic_saddle_potential, run)

if TYPE_CHECKING:     # `semiclassical_field` imports transforms when called
    from .transforms import TransformState


# ---------------------------------------------------------------------------
# spatial plane waves

@dataclass
class PlaneWaveSpec:
    """One period of a profile f plus the transverse speed vector c.

    The lifted field is u(t, x, y) = f(t, x - c.y); it fits a periodic box
    only when every c_j * len_y_j / period is an integer, which `profile`
    checks against the concrete grid.
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

    def profile(self, grid: Grid) -> tuple:
        """1-D evolution problem and initial field for the profile equation
        i f_t + (1 - |c|^2) f_zz + lam |f|^sigma f = 0; GridError when the
        lifted wave is not periodic on `grid`."""
        _alignment_ints(self.c, self.period, grid.length)
        g1 = Grid((len(self.f0),), (self.period,), (self.dispersion,))
        return (EvolutionProblem(grid=g1, lam=self.lam, sigma=self.sigma),
                ComplexField(g1, self.f0))

    def profile_at(self, t: float, grid: Grid, dt: float) -> np.ndarray:
        """Profile samples f(t, .).

        With |c| = 1 the dispersion drops out and the flow is the exact
        pointwise phase rotation f0 * exp(i lam |f0|^sigma t); otherwise
        the profile is marched there by the 1-D split-step solver.
        """
        problem, field = self.profile(grid)
        if abs(self.dispersion) < 1e-12:
            return self.f0 * np.exp(1j * self.lam * t
                                    * np.abs(self.f0) ** self.sigma)
        return _march_profile(problem, field, t, dt, "profile")

    def lift(self, values: np.ndarray, grid: Grid, t: float) -> np.ndarray:
        """u(t, x, y) = f(t, x - c.y) on `grid` from profile samples."""
        return lift_profile(values, self.c, grid, self.period)

    def proxies(self, profile: ComplexField) -> tuple:
        """(||phi||_inf, ||grad phi||_inf) of the lifted wave, read off its
        profile: |grad phi| = sqrt(1 + |c|^2) |f'|."""
        fz = spectral_derivative(profile, 0, 1)
        return (profile.linf(),
                float(np.sqrt(1.0 + self.speed_sq) * fz.linf()))

    def regime(self, grid: Grid) -> tuple:
        """(in_regime, note) of the certified stability windows: planar
        quintic waves (d=2, sigma=4) and cubic waves with two transverse
        speeds (d=3, sigma=2), both with (|c| - 1) lam > 0."""
        gap = (np.sqrt(self.speed_sq) - 1.0) * self.lam
        if grid.d == 2 and self.sigma == 4.0 and gap > 0:
            return True, "planar quintic plane-wave window"
        if grid.d == 3 and self.sigma == 2.0 and gap > 0:
            return True, "cubic plane-wave window, two transverse speeds"
        return False, (f"outside certified windows: d={grid.d}, "
                       f"sigma={self.sigma}, (|c|-1)lam={gap:.3g}")


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
    interpolant of the profile is evaluated at the shifted points.  The
    gather walks the result in chunks of rows (`spectral.streamed`): row i
    takes vals[(i - shift) mod n], shift being the transverse index shift
    (an array of the transverse shape), so no index array of the grid's
    shape is formed.
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
        shift = np.zeros(grid.n[1:], dtype=np.int64)
        for j, m in enumerate(ints):
            nj = grid.n[1 + j]
            along = [1] * (grid.d - 1)
            along[j] = nj
            shift += ((m * n0) // nj) * (np.arange(nj) - nj // 2).reshape(
                along)
        # row i takes vals[(i - shift) mod n0] = twice[i + (n0 - shift mod n0)]
        shift = n0 - np.remainder(shift, n0)
        out = np.empty(grid.n, dtype=np.complex128)
        rows = np.arange(n0).reshape((n0,) + (1,) * (grid.d - 1))
        spectral.streamed(_gather, (out, rows), (np.int64,),
                          np.concatenate([vals, vals]), shift)
        return out
    xi = spectral.freq(nz, period / nz)
    coef = spectral.fftn(vals) * np.exp(1j * xi * 0.5 * period) / nz
    mats = [np.exp(1j * np.outer(grid.coords[0], xi)) * coef]
    for j, cj in enumerate(c):
        mats.append(np.exp(-1j * np.outer(cj * grid.coords[1 + j], xi)))
    letters = "abc"[: len(mats)]
    script = ",".join(f"{ax}m" for ax in letters) + "->" + letters
    return np.einsum(script, *mats, optimize=True)


def _gather(out, rows, idx, twice, shift) -> None:
    """`lift_profile`'s exact gather on one chunk of rows, through the
    index scratch idx: out = twice[rows + shift], every index in range."""
    np.copyto(idx, shift)
    idx += rows     # one broadcast operand: numpy buffers half a chunk
    np.take(twice, idx, out=out, mode="clip")   # clip: unbuffered, a no-op


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


def wave_field(spec, t: float, grid: Grid, *,
               dt: float = 1e-3) -> ComplexField:
    """The plane or standing wave `spec` at time t on `grid`: its profile
    carried to t (`profile_at`, marching with step dt) and lifted."""
    return ComplexField(grid, spec.lift(spec.profile_at(t, grid, dt), grid, t),
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

    def profile(self, grid: Grid) -> tuple:
        """Transverse evolution problem and initial field for g; GridError
        when omega is not an x-harmonic of `grid` or f0 does not span its
        transverse axes."""
        _carrier_index(self.omega, grid.length[0])
        if grid.d < 2:
            raise GridError("standing waves need at least one transverse "
                            "axis")
        if self.f0.shape != grid.n[1:]:
            raise GridError(f"transverse profile shape {self.f0.shape} does "
                            f"not match the transverse grid size "
                            f"{grid.n[1:]}")
        gT = Grid(grid.n[1:], grid.length[1:], (-1.0,) * (grid.d - 1))
        return (EvolutionProblem(grid=gT, lam=self.lam, sigma=self.sigma),
                ComplexField(gT, self.f0))

    def profile_at(self, t: float, grid: Grid, dt: float) -> np.ndarray:
        """Transverse samples g(t, .), marched by the split-step solver."""
        return _march_profile(*self.profile(grid), t, dt, "transverse")

    def lift(self, values: np.ndarray, grid: Grid, t: float) -> np.ndarray:
        """u(t, x, y) = e^{i(omega x - omega^2 t)} g(t, y) on `grid`."""
        return standing_wave_lift(values, self.omega, grid, t)

    def proxies(self, profile: ComplexField) -> tuple:
        """(||phi||_inf, ||grad phi||_inf) of the lifted wave, read off its
        profile: |grad phi|^2 = omega^2 |g|^2 + |grad_y g|^2."""
        amp2 = (self.omega * np.abs(profile.values)) ** 2
        for j in range(profile.grid.d):
            amp2 = amp2 + np.abs(
                spectral_derivative(profile, j, 1).values) ** 2
        return profile.linf(), float(np.sqrt(np.max(amp2)))

    def regime(self, grid: Grid) -> tuple:
        """(in_regime, note) of the certified stability window: planar
        quintic waves (d=2, sigma=4) with lam > 0."""
        if grid.d == 2 and self.sigma == 4.0 and self.lam > 0:
            return True, "planar quintic standing-wave window"
        return False, (f"outside certified windows: d={grid.d}, "
                       f"sigma={self.sigma}, lam={self.lam}")


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


def profile_hypothesis_warnings(values: np.ndarray,
                                period: float) -> list:
    """Warning-level lint of the profile hypotheses behind the certified
    stability windows.

    Discrete proxies for membership in H2 (spectral tail), L2(z^2 dz)
    and W11 (localization of f and f' at the box edge).  Returns a list
    of human-readable warnings; empty means the hypotheses look satisfied
    at desk precision.  Never raises: the underlying function spaces are
    not decidable from samples, so this is advisory only.
    """
    v = np.ascontiguousarray(values, dtype=np.complex128)
    if v.ndim != 1 or len(v) < 8:
        return ["profile must be a 1-D array of at least 8 samples"]
    if not np.all(np.isfinite(v)):
        return ["profile has non-finite samples"]
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return []
    out = []
    edge = max(abs(v[0]), abs(v[-1]))
    if edge > 1e-4 * peak:
        out.append(
            f"localization proxy: |f| at the box edge is {edge / peak:.2e} "
            "of its peak (> 1e-4); the z^2-moment integral is unreliable")
    n = len(v)
    spec = np.abs(spectral.fftn(v)) / n
    xi = spectral.freq(n, period / n)
    hi = np.abs(xi) > (2.0 / 3.0) * np.max(np.abs(xi))
    tail = float(np.sqrt(np.sum(spec[hi] ** 2) / np.sum(spec ** 2)))
    if tail > 1e-4:
        out.append(
            f"smoothness proxy: {tail:.2e} of the spectral mass sits in "
            "the top third of modes (> 1e-4); H2 membership is doubtful")
    fz = np.abs(spectral.ifftn(1j * xi * spectral.fftn(v)))
    gpeak = float(np.max(fz))
    if gpeak > 0 and max(fz[0], fz[-1]) > 1e-4 * gpeak:
        out.append(
            "gradient localization proxy: |f'| at the box edge exceeds "
            "1e-4 of its peak; the W11 norm is box-size dependent")
    return out


# ---------------------------------------------------------------------------
# semiclassical fields from a stationary candidate

@dataclass
class SemiclassicalSpec:
    """Stationary candidate A0 plus the transform parameters.

    `defect` is the residual of the stationary equation for A0
    (`bound_state_defect`), measured here, never assumed zero: every
    consumer of this spec inherits an error budget proportional to it.
    `spectrum` is A0's, formed at its first read and kept.
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

    @cached_property
    def spectrum(self) -> np.ndarray:
        return spectral.fftn(self.A0.values)


def _norm(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> float:
    """The l2 norm of x as a numpy sum, which unlike np.linalg.norm (BLAS)
    gives the same bits whatever the number of BLAS threads.  |x|^2 is
    formed in the real scratch `out` and `tmp` (see `_abs2_into`; tmp may
    be x.imag when x is not read again), not in new arrays."""
    _abs2_into(x, out, tmp)
    return math.sqrt(float(np.sum(out)))


def bound_state_defect(A0: ComplexField, k: float, gamma0: float,
                       lam: float) -> float:
    """Relative l2 residual of the stationary equation

        box A0 + lam |A0|^{4/d} A0 = (k (x^2 - |y|^2) + gamma0) A0,

    with spectral derivatives and the same edge-tapered potential V the
    evolution module uses: the l2 norm of res = box A0 + nl - pot over
    the sum of the three terms' norms.  The power is pinned to
    sigma = 4/d (the only power the chirp-dilation map transports).  Zero
    fields report 0.  Every reduction is a numpy sum, not BLAS, so the
    defect does not depend on the number of BLAS threads.

    Beside A0 and V it holds two complex and two real arrays of the grid:
    box A0, which becomes box A0 + nl and then res; nl, which becomes the
    potential term; and the real scratch of the amplitude and the norms.
    Each is formed by the operations of the whole-array formula, in its
    order, so the bits are that formula's."""
    g, u = A0.grid, A0.values
    V = harmonic_saddle_potential(g, k)
    amp = np.negative(g.symbol)
    box = spectral.fftn(u)
    np.multiply(box, amp, out=box)
    spectral.ifftn(box, out=box)
    np.abs(u, out=amp)
    amp **= 4.0 / g.d
    np.multiply(lam, amp, out=amp)
    nl = np.multiply(amp, u)
    tmp = np.empty(g.n)
    norm_box = _norm(box, amp, tmp)
    norm_nl = _norm(nl, amp, tmp)
    box += nl
    np.add(V, float(gamma0), out=amp)
    pot = np.multiply(amp, u, out=nl)
    res = np.subtract(box, pot, out=box)
    scale = norm_box + norm_nl + _norm(pot, amp, pot.imag)
    if scale == 0.0:
        return 0.0
    return _norm(res, amp, tmp) / scale


def semiclassical_field(spec: SemiclassicalSpec, t: float, *,
                        state: TransformState | None = None) -> ComplexField:
    """Chirp-dilated candidate on A0's grid

        psi(t) = f(t) A0(x / b(t)) exp(i a(t) q(x)/4) exp(i gamma0 g(t)),

    with (a, b, f, g) from `state` or the coefficient ODEs for (a0, k).
    Fails past the collapse time of b: the coefficients stop existing there.

    The result is formed in one buffer.  At b = 1 that is f A0; otherwise
    A0(x / b) is read off the spec's kept spectrum with one
    `_axis_eval_matrix` per distinct axis (equal axes share it), and f
    times it is written into the buffer.  The chirp is then taken chunk by
    chunk (`spectral.streamed`), in place: q as `signature_quadratic` sums
    it, the phase, its `exp` and the product, the operations of the
    whole-array formula in its order, so the bits are that formula's.
    """
    from .transforms import (TransformError, _signature_terms,
                             integrate_transform_odes)
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
                                             np.linspace(0.0, t, npts))
        a_t, b_t, f_t, g_t = state.at(t)
    out = np.multiply(f_t, spec.A0.values if b_t == 1.0
                      else _dilated(spec, b_t), order="C")
    terms = _signature_terms(grid)
    spectral.streamed(_chirp, (out, terms[0]), (float, complex),
                      [term for term in terms[1:] if term is not None],
                      0.25 * a_t, spec.gamma0 * g_t)
    return ComplexField(grid, out, t=t)


def _dilated(spec: SemiclassicalSpec, b: float) -> np.ndarray:
    """A0(x / b) on A0's grid, read off the spec's spectrum with one
    `_axis_eval_matrix` per distinct axis (the size and length of an axis
    fix its coordinates and wavenumbers); the matrices are freed on
    return."""
    grid = spec.A0.grid
    axes = [(grid.n[j], grid.length[j]) for j in range(grid.d)]
    matrices = {}
    for j, axis in enumerate(axes):
        if axis not in matrices:
            matrices[axis] = _axis_eval_matrix(grid, j, grid.coords[j] / b)
    return _evaluate_spectrum(spec.spectrum, [matrices[a] for a in axes])


def _chirp(u, lead, q, z, rest, scale, shift) -> None:
    """u *= exp(1j * (scale * q + shift)) on one chunk of rows, through the
    scratch q and z: q is `signature_quadratic`, summed from zero as it
    sums it, the axis-0 term `lead` (None when alpha_0 = 0) and then the
    `rest` (`_signature_terms`)."""
    q.fill(0.0)
    if lead is not None:
        q += lead
    for term in rest:
        q += term
    np.multiply(scale, q, out=q)
    q += shift
    np.multiply(1j, q, out=z)
    np.exp(z, out=z)
    u *= z
