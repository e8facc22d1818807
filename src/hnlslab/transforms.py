"""Symmetry group of the signature equation and the two-parameter
pseudo-conformal map.

The map sends v(t, x) = u(g(t), x / b(t)) * exp(i a(t) q(x) / 4) * f(t),
where q is the signature-weighted quadratic form and (a, b, f, g) solve a
small ODE system fixed by two real parameters: the initial chirp a0 and a
curvature parameter k.  With sigma = 4/d it converts solutions of the free
equation into solutions of the equation with the static potential
k * q(x), and back.
"""

import math
from dataclasses import dataclass

import numpy as np

from .evolution import FieldTrajectory
from .fields import (ComplexField, Grid, GridError, cubic_read,
                     evaluate_at_axes, evaluate_dilated, evaluate_linear_map,
                     translate)

B_FLOOR = 1e-8
_LB_FLOOR = math.log(B_FLOOR)
_RESIDUAL_SAMPLES = 3   # samples `constraint_residuals` needs


class TransformError(ValueError):
    pass


@dataclass
class TransformState:
    """Sampled trajectory of the map coefficients for one (a0, k) pair.

    Invariants: a(0) = a0, b(0) = f(0) = 1, g(0) = 0; b stays positive and
    g strictly increasing on the stored range; f equals b^(-d/2) pointwise.
    If the integration hits b < 1e-8 the trajectory is truncated and
    `singular_time` carries a quadratic-fit estimate of the collapse time.
    """
    a0: float
    k: float
    d: int
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    f: np.ndarray
    g: np.ndarray
    truncated: bool = False
    singular_time: float | None = None

    def at(self, s: float) -> tuple:
        """(a, b, f, g) at time s by the `cubic_read` rule."""
        try:
            row = cubic_read(self.t, np.stack((self.a, self.b, self.f,
                                                self.g), axis=1), s)
        except ValueError as exc:
            raise TransformError(str(exc)) from None
        return tuple(float(v) for v in row)


def _rhs(a: float, q: float, lb: float) -> tuple:
    # state (a, a', log b, g):  a'' = -(6 a a' + 4 a^3),  (log b)' = a,
    # g' = b^(-2)
    return q, -(6.0 * a * q + 4.0 * a ** 3), a, math.exp(-2.0 * lb)


def _estimate_singular_time(t: np.ndarray, b: np.ndarray) -> float | None:
    """Root of a quadratic least-squares fit of b(t)^2 near the end of the
    stored range (b^2 is exactly quadratic in t for this ODE family).

    The last few nodes before a collapse are under-resolved (the chirp has
    a pole there), so the fit only uses nodes with b above a safe floor.
    """
    good = np.nonzero(b >= 1e-2)[0]
    if len(good) < 3:
        good = np.arange(len(t))
    sel = good[-min(len(good), 8):]
    if len(sel) < 3:
        return None
    ts, bs = t[sel], b[sel] ** 2
    c2, c1, c0 = np.polyfit(ts, bs, 2)
    if abs(c2) < 1e-14 * max(abs(c1), abs(c0), 1.0):
        if c1 == 0.0:
            return None
        roots = [-c0 / c1]
    else:
        disc = c1 * c1 - 4.0 * c2 * c0
        # a double root (k = 0 collapse) makes the fitted discriminant a
        # rounding-level negative; clamp that to zero instead of giving up
        if disc < 0:
            if disc > -1e-10 * max(c1 * c1, abs(4.0 * c2 * c0), 1e-30):
                disc = 0.0
            else:
                return None
        sq = math.sqrt(disc)
        roots = sorted(((-c1 - sq) / (2.0 * c2), (-c1 + sq) / (2.0 * c2)))
    ahead = [r for r in roots if r >= float(ts[-1]) - 1e-9]
    return float(ahead[0]) if ahead else None


def integrate_transform_odes(a0: float, k: float, d: int,
                             t_grid: np.ndarray,
                             max_step: float = 1e-3) -> TransformState:
    """March the coefficient ODEs over t_grid with classical RK4.

    Integration runs in (a, a', log b, g) so positivity of b is structural.
    Nodes are connected with however many equal substeps keep the local
    step below max_step.  If b drops below 1e-8 (or the state overflows
    approaching a collapse) the trajectory is truncated at the last sound
    node and a singular-time estimate is attached.
    """
    if d not in (1, 2, 3):
        raise TransformError(f"dimension must be 1, 2 or 3, got {d}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise TransformError("t_grid must hold at least two times")
    if abs(t_grid[0]) > 0:
        raise TransformError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise TransformError("t_grid must be strictly increasing")
    if not 0 < max_step < math.inf:
        raise TransformError(f"max_step must be finite and > 0, "
                             f"got {max_step}")

    # Python floats throughout, so an overflow raises OverflowError here
    # instead of turning into numpy warnings
    a0, k = float(a0), float(k)
    a, q, lb, g = a0, 4.0 * k - a0 ** 2, 0.0, 0.0
    ta, tb, tlb, tg = [a], [1.0], [0.0], [0.0]
    truncated = False
    n_done = 1
    for i in range(len(t_grid) - 1):
        dt = t_grid[i + 1] - t_grid[i]
        nsub = max(1, int(math.ceil(dt / max_step)))
        h = float(dt) / nsub
        ok = True
        for _ in range(nsub):
            try:
                k1 = _rhs(a, q, lb)
                k2 = _rhs(a + 0.5 * h * k1[0], q + 0.5 * h * k1[1],
                          lb + 0.5 * h * k1[2])
                k3 = _rhs(a + 0.5 * h * k2[0], q + 0.5 * h * k2[1],
                          lb + 0.5 * h * k2[2])
                k4 = _rhs(a + h * k3[0], q + h * k3[1], lb + h * k3[2])
                a += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
                q += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
                lb_inc = h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
                g += h * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6.0
                lb += lb_inc
            except OverflowError:
                ok = False
                break
            if not (math.isfinite(a) and math.isfinite(q)
                    and math.isfinite(lb) and math.isfinite(g)):
                ok = False
                break
            if lb < _LB_FLOOR or abs(a) > 1e12:
                ok = False
                break
        if not ok:
            truncated = True
            break
        ta.append(a)
        tb.append(math.exp(lb))
        tlb.append(lb)
        tg.append(g)
        n_done += 1

    t_arr = t_grid[:n_done].copy()
    b_arr = np.array(tb)
    lb_arr = np.array(tlb)
    f_arr = np.exp(-0.5 * d * lb_arr)
    g_arr = np.array(tg)
    if np.any(np.diff(g_arr) <= 0):
        raise TransformError("integration produced a non-increasing g")
    singular = _estimate_singular_time(t_arr, b_arr) if truncated else None
    return TransformState(a0=a0, k=k, d=d, t=t_arr,
                          a=np.array(ta), b=b_arr, f=f_arr, g=g_arr,
                          truncated=truncated, singular_time=singular)


def constraint_residuals(state: TransformState) -> dict:
    """Max centered-difference residuals of the defining constraints.

    Keys: "b_growth" (b' = a b), "g_rate" (g' = b^-2), "a_riccati"
    (a' + a^2 = 4 k b^-4) and "f_consistency" (f b^{d/2} = 1, no
    differencing).  Requires a uniform sample grid.
    """
    t = state.t
    if len(t) < _RESIDUAL_SAMPLES:
        raise TransformError(f"need at least {_RESIDUAL_SAMPLES} samples "
                             "for residuals")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(t[-1]), 1.0):
        raise TransformError("constraint residuals need a uniform t grid")
    h = dt[0]
    mid = slice(1, -1)

    def ddt(col):
        return (col[2:] - col[:-2]) / (2.0 * h)

    a, b, f, g = state.a, state.b, state.f, state.g
    res_b = float(np.max(np.abs(ddt(b) - a[mid] * b[mid])))
    res_g = float(np.max(np.abs(ddt(g) - b[mid] ** -2.0)))
    res_a = float(np.max(np.abs(ddt(a) + a[mid] ** 2
                                - 4.0 * state.k * b[mid] ** -4.0)))
    res_f = float(np.max(np.abs(f * b ** (0.5 * state.d) - 1.0)))
    return {"b_growth": res_b, "g_rate": res_g, "a_riccati": res_a,
            "f_consistency": res_f}


def closed_form_b(a0: float, k: float, t):
    """Candidate closed form b(t) = sqrt((1 + a0 t)^2 + 4 k t^2).

    Shipped as an oracle to be validated against the ODE trajectory (the
    validation suite does exactly that); NaN where the radicand is
    negative, i.e. past the collapse time for k < 0.
    """
    t = np.asarray(t, dtype=float)
    rad = (1.0 + a0 * t) ** 2 + 4.0 * k * t ** 2
    out = np.sqrt(np.where(rad >= 0.0, rad, np.nan))
    return float(out) if out.ndim == 0 else out


def closed_form_g(a0: float, k: float, t):
    """Closed form of g(t), the antiderivative of b^-2, where an elementary
    one exists: (arctan(((a0^2 + 4k) t + a0) / (2 sqrt k))
    - arctan(a0 / (2 sqrt k))) / (2 sqrt k) for k > 0, and t / (1 + a0 t)
    for k = 0.  None for k < 0."""
    t = np.asarray(t, dtype=float)
    if k > 0:
        rk = 2.0 * np.sqrt(k)
        out = (np.arctan(((a0 ** 2 + 4 * k) * t + a0) / rk)
               - np.arctan(a0 / rk)) / rk
    elif k == 0:
        out = t / (1.0 + a0 * t)
    else:
        return None
    return float(out) if out.ndim == 0 else out


def signature_quadratic(grid: Grid) -> np.ndarray:
    """q(x) = sum_j x_j^2 / alpha_j on the grid (axes with alpha_j = 0 drop
    out), summed from zero in axis order."""
    return sum(_signature_terms(grid), np.zeros(grid.n))


def _signature_terms(grid: Grid) -> list:
    """The terms x_j^2 / alpha_j of `signature_quadratic`, each along its
    axis (`Grid.signature_weights`: 0 for an axis with alpha_j = 0)."""
    return [w * grid.coord_along(j) ** 2
            for j, w in enumerate(grid.signature_weights)]


def _chirp_factors(grid: Grid, a: float, shift: float = 0.0) -> list:
    """exp(i (a q(x) / 4 + shift)) as one factor along each axis, whose
    product over the box is the chirp: exp(i (a/4 w_0 x_0^2 + shift))
    along axis 0 and exp(i a/4 w_j x_j^2) along each other axis, the
    terms w_j x_j^2 being `_signature_terms`.  Multiplying a field by them
    in turn costs one complex exp per node of each axis, not per point of
    the box."""
    scale = 0.25 * a
    first, *rest = _signature_terms(grid)
    return ([np.exp(1j * (scale * first + shift))]
            + [np.exp(1j * (scale * term)) for term in rest])


def apply_pct(u_sampler, state: TransformState, t: float,
              grid: Grid) -> ComplexField:
    """Evaluate the pseudo-conformal image v(t, .) on `grid`.

    `u_sampler` supplies the source solution u at inner time s = g(t) on
    the rescaled points x / b(t): either a FieldTrajectory (band-limited
    spectral resampling of the stored snapshots) or a callable
    (s, axis_points) -> values evaluated analytically on the tensor grid
    spanned by the per-axis point arrays.
    """
    a_t, b_t, f_t, g_t = state.at(t)
    pts = [grid.coords[j] / b_t for j in range(grid.d)]
    if isinstance(u_sampler, FieldTrajectory):
        inner = u_sampler.at(g_t)
        if inner.grid.d != grid.d:
            raise GridError("trajectory dimension does not match target grid")
        vals = evaluate_at_axes(inner, pts)
    elif callable(u_sampler):
        vals = np.asarray(u_sampler(g_t, pts), dtype=np.complex128)
        if vals.shape != grid.n:
            raise GridError(
                f"sampler returned shape {vals.shape}, expected {grid.n}")
    else:
        raise TypeError("u_sampler must be a FieldTrajectory or a callable")
    vals = f_t * vals
    for factor in _chirp_factors(grid, a_t):
        vals *= factor
    return ComplexField(grid, vals, t=t)


# ---------------------------------------------------------------------------
# point symmetries

_KINDS = ("translation", "gauge", "galilean", "dilation", "hyperbolic-rotation")


@dataclass
class SymmetryParams:
    """One element of the point-symmetry group.

    kind selects the transformation; only the matching parameters are
    read: `shift`/`t0` (translation), `theta` (gauge), `boost` (Galilean
    velocity per axis; an axis with alpha_j = 0 takes none), `scale` and
    `sigma` (dilation; sigma sets the amplitude exponent 2/sigma),
    `rapidity` (hyperbolic rotation, d=2 only).
    """
    kind: str
    shift: tuple | None = None
    t0: float = 0.0
    theta: float = 0.0
    boost: tuple | None = None
    scale: float = 1.0
    sigma: float = 2.0
    rapidity: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise TransformError(
                f"unknown symmetry kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "translation" and self.shift is None and self.t0 == 0.0:
            raise TransformError("translation needs shift and/or t0")
        if self.kind == "galilean" and self.boost is None:
            raise TransformError("galilean needs a boost vector")
        if self.kind == "dilation":
            if self.scale <= 0:
                raise TransformError("dilation scale must be positive")
            if self.sigma <= 0:
                raise TransformError("dilation needs sigma > 0")


def _apply_to_field(field: ComplexField, p: SymmetryParams) -> ComplexField:
    g = field.grid
    if p.kind == "translation":
        out = translate(field, p.shift) if p.shift is not None else field.copy()
        return out.with_values(out.values, t=field.t + p.t0)
    if p.kind == "gauge":
        return field.with_values(field.values * np.exp(1j * p.theta))
    if p.kind == "galilean":
        if len(p.boost) != g.d:
            raise TransformError(f"boost needs {g.d} components")
        t = field.t
        moved = translate(field, tuple(v * t for v in p.boost))
        # i u_t + alpha_j d_j^2 u is invariant under x_j -> x_j - v_j t
        # with the phase v_j x_j / (2 alpha_j) - v_j^2 t / (4 alpha_j)
        phase = np.zeros(g.n)
        for j, v in enumerate(p.boost):
            if v == 0.0:
                continue
            a = g.alpha[j]
            if a == 0.0:
                raise TransformError(
                    f"no Galilean boost along axis {j}: alpha is 0 there")
            phase = phase + v / (2.0 * a) * g.coord_along(j) \
                - v * v * t / (4.0 * a)
        return moved.with_values(moved.values * np.exp(1j * phase))
    if p.kind == "dilation":
        lam = p.scale
        out = evaluate_dilated(field, lam)
        amp = lam ** (2.0 / p.sigma)
        return out.with_values(amp * out.values, t=field.t / lam ** 2)
    if p.kind == "hyperbolic-rotation":
        if g.d != 2:
            raise TransformError("hyperbolic rotation needs d=2")
        c, s = np.cosh(p.rapidity), np.sinh(p.rapidity)
        return evaluate_linear_map(field, np.array([[c, s], [s, c]]))
    raise TransformError(f"unhandled kind {p.kind!r}")  # pragma: no cover


def apply_symmetry(target, params: SymmetryParams):
    """Apply one point symmetry to a ComplexField or a FieldTrajectory.

    Fields are transformed on their own grid with spectral resampling
    where the map moves points; trajectory time stamps are remapped for
    the kinds that reparameterize time (translation t0, dilation).
    """
    if isinstance(target, ComplexField):
        return _apply_to_field(target, params)
    if isinstance(target, FieldTrajectory):
        out = FieldTrajectory()
        for f in target.fields:
            out.append(_apply_to_field(f, params))
        return out
    raise TypeError("target must be a ComplexField or FieldTrajectory")
