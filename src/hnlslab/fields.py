"""Periodic grids, complex fields, and spectral calculus.

Everything downstream (steppers, transforms, wave families) sits on the two
types defined here.  A Grid describes a centered periodic box together with
the signature coefficients of the second-order linear operator

    i u_t + sum_j alpha_j d^2_j u + ... = 0

so the same machinery runs the hyperbolic equation (alpha = (1, -1, ...)),
the elliptic one (all +1), and the 1-D traveling-profile equation
(alpha = (1 - |c|^2,)).  A ComplexField is a complex state sampled on such a
box.  All operations are pure: input fields are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import spectral


class GridError(ValueError):
    """Raised for an inconsistent grid request."""


class FieldDataError(ValueError):
    """Raised when field data is unusable (NaN/Inf, shape mismatch)."""


def _is_pow2(n: int) -> bool:
    return n >= 8 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic box with centered coordinates.

    Axis j carries n[j] samples on [-length[j]/2, length[j]/2) and the
    discrete wavenumbers xi_j = 2*pi*m/length[j], m = -n/2 .. n/2-1 in FFT
    ordering.  `alpha` holds the signature of the linear operator; any real
    vector is legal (zero entries switch an axis off entirely).
    """

    __slots__ = ("d", "n", "length", "alpha", "dx", "cell", "xi", "coords",
                 "symbol")

    def __init__(self, n: Sequence[int], length: Sequence[float],
                 alpha: Sequence[float]):
        n = tuple(int(v) for v in n)
        length = tuple(float(v) for v in length)
        alpha = tuple(float(v) for v in alpha)
        d = len(n)
        if d not in (1, 2, 3):
            raise GridError(f"dimension must be 1, 2 or 3, got {d}")
        if len(length) != d or len(alpha) != d:
            raise GridError("n, length and alpha must have equal length")
        for v in n:
            if not _is_pow2(v):
                raise GridError(f"samples per axis must be a power of two >= 8, got {v}")
        for v in length:
            if not (v > 0) or not np.isfinite(v):
                raise GridError(f"box length must be positive and finite, got {v}")
        for v in alpha:
            if not np.isfinite(v):
                raise GridError(f"alpha entries must be finite, got {v}")
        self.d = d
        self.n = n
        self.length = length
        self.alpha = alpha
        self.dx = tuple(length[j] / n[j] for j in range(d))
        self.cell = float(np.prod(self.dx))
        self.xi = tuple(spectral.freq(n[j], self.dx[j]) for j in range(d))
        self.coords = tuple((np.arange(n[j]) - n[j] // 2) * self.dx[j]
                            for j in range(d))
        # symbol of the linear operator: sum_j alpha_j xi_j^2, full shape
        sym = np.zeros(self.n)
        for j in range(d):
            sym = sym + alpha[j] * self._along(self.xi[j] ** 2, j)
        self.symbol = sym
        for arr in (*self.xi, *self.coords, self.symbol):
            arr.setflags(write=False)

    def _along(self, arr_1d: np.ndarray, axis: int) -> np.ndarray:
        """Reshape a 1-D per-axis array for broadcasting over the box."""
        shape = [1] * self.d
        shape[axis] = self.n[axis]
        return arr_1d.reshape(shape)

    def xi_along(self, axis: int) -> np.ndarray:
        return self._along(self.xi[axis], axis)

    def coord_along(self, axis: int) -> np.ndarray:
        return self._along(self.coords[axis], axis)

    def meshgrid(self):
        return np.meshgrid(*self.coords, indexing="ij")

    def same_box(self, other: "Grid") -> bool:
        return (self.n == other.n and self.length == other.length
                and self.alpha == other.alpha)

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length}, alpha={self.alpha})"


class ComplexField:
    """Complex state sampled on a Grid, stamped with a physical time.

    `values` is always complex128, C-ordered, of shape grid.n.  Fields are
    treated as immutable: operations return fresh instances.
    """

    __slots__ = ("grid", "values", "t")

    def __init__(self, grid: Grid, values: np.ndarray, t: float = 0.0):
        values = np.ascontiguousarray(values, dtype=np.complex128)
        if values.shape != grid.n:
            raise FieldDataError(
                f"field shape {values.shape} does not match grid {grid.n}")
        self.grid = grid
        self.values = values
        self.t = float(t)

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy(), self.t)

    def with_values(self, values: np.ndarray, t: float | None = None) -> "ComplexField":
        return ComplexField(self.grid, values, self.t if t is None else t)

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def __repr__(self):
        return f"ComplexField(n={self.grid.n}, t={self.t:.6g})"


# ---------------------------------------------------------------------------
# initial data constructors

def constant_field(grid: Grid, value: complex, t: float = 0.0) -> ComplexField:
    return ComplexField(grid, np.full(grid.n, value, dtype=np.complex128), t)


def harmonic_field(grid: Grid, modes: Sequence[int], amplitude: complex = 1.0,
                   t: float = 0.0) -> ComplexField:
    """Single plane-wave harmonic exp(i sum_j xi_{m_j} x_j); exactly on-grid."""
    phase = np.zeros(grid.n)
    for j, m in enumerate(modes):
        k = 2.0 * np.pi * m / grid.length[j]
        phase = phase + k * grid.coord_along(j)
    return ComplexField(grid, amplitude * np.exp(1j * phase), t)


def gaussian_field(grid: Grid, amplitude: complex = 1.0,
                   width: float | Sequence[float] = 1.0,
                   center: Sequence[float] | None = None,
                   boost: Sequence[float] | None = None,
                   t: float = 0.0) -> ComplexField:
    """amplitude * exp(-sum ((x_j-c_j)/w_j)^2 / 2) * exp(i k.x) wave packet."""
    d = grid.d
    widths = [float(width)] * d if np.isscalar(width) else [float(w) for w in width]
    center = [0.0] * d if center is None else list(center)
    vals = np.full(grid.n, complex(amplitude), dtype=np.complex128)
    for j in range(d):
        x = grid.coord_along(j) - center[j]
        vals = vals * np.exp(-0.5 * (x / widths[j]) ** 2)
    if boost is not None:
        for j, k in enumerate(boost):
            vals = vals * np.exp(1j * float(k) * grid.coord_along(j))
    return ComplexField(grid, vals, t)


def random_smooth_field(grid: Grid, rng: np.random.Generator,
                        amplitude: float = 1.0, corr: float = 1.0,
                        t: float = 0.0) -> ComplexField:
    """Band-limited random field: white noise low-passed at scale `corr`."""
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    damp = np.ones(grid.n)
    for j in range(grid.d):
        damp = damp * np.exp(-0.5 * (corr * grid.xi_along(j)) ** 2)
    vals = spectral.ifftn(spectral.fftn(noise) * damp)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ComplexField(grid, vals, t)


# ---------------------------------------------------------------------------
# spectral calculus

def spectral_derivative(field: ComplexField, axis: int, order: int = 1, *,
                        spectrum: np.ndarray | None = None) -> ComplexField:
    """Differentiate along one axis by multiplying the spectrum by (i xi)^order.

    `spectrum`, when given, must be fftn(field.values); it saves the forward
    transform, so the derivative costs one inverse FFT.
    """
    g = field.grid
    if not 0 <= axis < g.d:
        raise GridError(f"axis {axis} out of range for d={g.d}")
    if order not in (1, 2):
        raise GridError(f"derivative order must be 1 or 2, got {order}")
    if spectrum is None:
        spectrum = spectral.fftn(field.values)
    out = spectrum * (1j * g.xi_along(axis)) ** order
    spectral.ifftn(out, out=out)
    return field.with_values(out)


def _abs2(values: np.ndarray) -> np.ndarray:
    """|values|^2 as re^2 + im^2: one pass, no hypot."""
    re, im = values.real, values.imag
    out = re * re
    out += im * im
    return out


def _abs_power(a2: np.ndarray, p: float) -> np.ndarray:
    """|u|^p from a2 = |u|^2: products for p = 2, 4, 6, else a2**(p/2)."""
    if p == 2.0:
        return a2
    if p == 4.0:
        return a2 * a2
    if p == 6.0:
        return a2 * a2 * a2
    return a2 ** (0.5 * p)


def _marginal(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum of `a` over every axis but `axis`: a 1-D array to dot with a
    per-axis weight (x_j, x_j^2, xi_j^2) instead of a full-size product."""
    others = tuple(k for k in range(a.ndim) if k != axis)
    return a.sum(axis=others) if others else a


def gradient_sq_integral(field: ComplexField) -> float:
    """integral of |grad u|^2 over the box (all axes weighted +1), via Parseval."""
    g = field.grid
    spec2 = _abs2(spectral.fftn(field.values))
    acc = 0.0
    for j in range(g.d):
        acc += float(np.sum(g.xi[j] ** 2 * _marginal(spec2, j)))
    npts = float(np.prod(g.n))
    return g.cell * acc / npts


@dataclass
class NormBundle:
    l2: float
    h1: float
    linf: float
    lp: dict = dc_field(default_factory=dict)


def norms(field: ComplexField, ps: Sequence[float] = ()) -> NormBundle:
    """L2, H1 and Linf norms (plus requested Lp norms) of a field.

    Quadrature is the plain Riemann sum with the uniform cell weight, which
    is spectrally accurate for smooth periodic data.  One |u|^2 array feeds
    every norm.  Raises FieldDataError on non-finite input rather than
    propagating NaN.
    """
    a2 = _abs2(field.values)
    total = float(np.sum(a2))
    if not math.isfinite(total) and not field.is_finite():
        raise FieldDataError("norms: field contains NaN or Inf")
    w = field.grid.cell
    l2sq = w * total
    h1 = float(np.sqrt(l2sq + gradient_sq_integral(field)))
    bundle = NormBundle(l2=float(np.sqrt(l2sq)), h1=h1,
                        linf=float(np.sqrt(np.max(a2))))
    for p in ps:
        if p <= 0:
            raise GridError(f"Lp norm needs p > 0, got {p}")
        bundle.lp[p] = float((w * np.sum(_abs_power(a2, p))) ** (1.0 / p))
    return bundle


# ---------------------------------------------------------------------------
# polynomial interpolation in time (and radius)

def lagrange_weights(nodes: Sequence[float], s: float) -> list:
    """Weights w_i with sum_i w_i y_i the Lagrange polynomial through
    (nodes_i, y_i), evaluated at s."""
    weights = []
    for i in range(len(nodes)):
        w = 1.0
        for j in range(len(nodes)):
            if j != i:
                w *= (s - nodes[j]) / (nodes[i] - nodes[j])
        weights.append(w)
    return weights


def cubic_read(times: Sequence[float], values: Sequence, s: float):
    """The read rule of every stored trajectory: the value at time s of
    samples `values[i]` at increasing `times[i]`.  s may lie up to 1e-12
    past either end; within 1e-13 * max(1, |s|) of a stored time it is a
    copy of that sample, elsewhere the cubic through the 4 nearest samples.
    Raises ValueError when there is no sample, s is out of range, or the
    cubic needs more samples than there are."""
    if len(times) == 0 or not times[0] - 1e-12 <= s <= times[-1] + 1e-12:
        raise ValueError(f"time {s} outside the stored times")
    idx = int(np.searchsorted(times, s))
    for i in (idx, idx - 1):
        if 0 <= i < len(times) and abs(times[i] - s) <= 1e-13 * max(1.0, abs(s)):
            return values[i].copy()
    if len(times) < 4:
        raise ValueError("need at least 4 samples to interpolate")
    lo = min(max(idx - 2, 0), len(times) - 4)
    w = lagrange_weights(times[lo:lo + 4], s)
    return sum(wk * v for wk, v in zip(w, values[lo:lo + 4]))


def apply_linear_propagator(field: ComplexField, dt: float) -> ComplexField:
    """Advance the free flow i u_t + sum_j alpha_j d^2_j u = 0 by dt exactly.

    Multiplies the spectrum by exp(-i dt sum_j alpha_j xi_j^2); unitary for
    every real dt, so it composes and inverts exactly.
    """
    g = field.grid
    out = spectral.ifftn(spectral.fftn(field.values)
                         * np.exp(-1j * dt * g.symbol))
    return field.with_values(out, t=field.t + dt)


def _edge_fraction(a2: np.ndarray, total: float, band: int = 2) -> float:
    """Share of total = sum(a2) within `band` cells of any box edge.  The
    edge is summed slab by slab, never as total minus interior (which
    cancels): axis j's two edge slabs, restricted to the interior of the
    axes before it so that no cell is counted twice."""
    if total == 0.0:
        return 0.0
    inner = [slice(None)] * a2.ndim
    acc = 0.0
    for j, n in enumerate(a2.shape):
        b = max(0, min(band, n))
        for edge in (slice(0, b), slice(max(n - b, b), n)):
            acc += float(np.sum(a2[tuple(inner[:j]) + (edge,)]))
        inner[j] = slice(b, n - b)
    return acc / total


def boundary_mass_fraction(field: ComplexField, band: int = 2) -> float:
    """Fraction of the discrete mass within `band` cells of any box edge."""
    a2 = _abs2(field.values)
    return _edge_fraction(a2, float(np.sum(a2)), band)


# ---------------------------------------------------------------------------
# trigonometric resampling (exact evaluation of the interpolant)

def _axis_eval_matrix(grid: Grid, axis: int, points: np.ndarray) -> np.ndarray:
    """Matrix E[p, m] = exp(i xi_m (points_p + L/2)) / n for one axis."""
    L = grid.length[axis]
    return np.exp(1j * np.outer(points + 0.5 * L, grid.xi[axis])) / grid.n[axis]


def evaluate_at_axes(field: ComplexField, axis_points: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the trig interpolant on a tensor grid of per-axis points.

    The interpolant is periodic, so points outside the box wrap around;
    callers relying on that should have negligible data near the boundary.
    """
    g = field.grid
    spec = spectral.fftn(field.values)
    out = spec
    for j in range(g.d):
        E = _axis_eval_matrix(g, j, np.asarray(axis_points[j], dtype=float))
        out = np.moveaxis(np.tensordot(E, out, axes=(1, j)), 0, j)
    return out


def evaluate_dilated(field: ComplexField, factor: float) -> ComplexField:
    """Samples of x -> u(factor * x) on the same grid (spectral accuracy)."""
    g = field.grid
    pts = [factor * g.coords[j] for j in range(g.d)]
    return field.with_values(evaluate_at_axes(field, pts))


def evaluate_linear_map(field: ComplexField, matrix: np.ndarray) -> ComplexField:
    """Samples of x -> u(M x) for a 2x2 map M (d=2 only).

    The image lattice is not tensorial, so this contracts per-mode phase
    factors instead of separable matrices.  Data should be negligible
    wherever M maps outside the box.
    """
    g = field.grid
    if g.d != 2:
        raise GridError("evaluate_linear_map is defined for d=2 grids only")
    M = np.asarray(matrix, dtype=float)
    if M.shape != (2, 2):
        raise GridError("matrix must be 2x2")
    spec = spectral.fftn(field.values)
    xi_x, xi_y = np.meshgrid(g.xi[0], g.xi[1], indexing="ij")
    # phase of mode (xi_x, xi_y) at point M(x, y): (M^T xi) . (x, y) + offsets
    kx = M[0, 0] * xi_x + M[1, 0] * xi_y
    ky = M[0, 1] * xi_x + M[1, 1] * xi_y
    off = np.exp(1j * (xi_x * 0.5 * g.length[0] + xi_y * 0.5 * g.length[1]))
    cmod = (spec * off).ravel() / (g.n[0] * g.n[1])
    A = np.exp(1j * np.outer(g.coords[0], kx.ravel()))
    B = np.exp(1j * np.outer(g.coords[1], ky.ravel()))
    vals = np.einsum("pm,qm,m->pq", A, B, cmod, optimize=True)
    return field.with_values(vals)


def translate(field: ComplexField, delta: Sequence[float]) -> ComplexField:
    """Shift field content by `delta`: returns v with v(x) = u(x - delta)."""
    g = field.grid
    if len(delta) != g.d:
        raise GridError(f"delta needs {g.d} entries")
    spec = spectral.fftn(field.values)
    for j, dj in enumerate(delta):
        spec = spec * np.exp(-1j * float(dj) * g.xi_along(j))
    return field.with_values(spectral.ifftn(spec))
