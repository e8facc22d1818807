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

    A Grid stores only per-axis arrays (`xi`, `coords`), never one of the
    full shape: `symbol` is formed on each read, so that no run carries it
    between the steps and samples that need it.  A signature whose symbol
    is not finite somewhere on the box is refused, which the per-axis
    terms `axis_symbol` tell without forming the symbol.
    """

    __slots__ = ("d", "n", "length", "alpha", "dx", "cell", "xi", "coords")

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
        with np.errstate(all="ignore"):      # a box out of range is refused
            self.cell = float(np.prod(self.dx))
        if not 0.0 < self.cell < math.inf:     # then no dx is 0 or inf
            raise GridError(f"box length {length} on {n} points gives the "
                            f"cell volume {self.cell}")
        self.xi = tuple(spectral.freq(n[j], self.dx[j]) for j in range(d))
        self.coords = tuple((np.arange(n[j]) - n[j] // 2) * self.dx[j]
                            for j in range(d))
        with np.errstate(all="ignore"):
            if not np.isfinite(np.concatenate([*self.xi, *self.coords])
                               ** 2).all():
                raise GridError(f"box length {length} on {n} points gives "
                                f"an inf squared coordinate or wavenumber")
            # the symbol's extremes are the sums of the axes' extremes
            terms = self.axis_symbol
            top = sum(float(s.max()) for s in terms)
            bottom = sum(float(s.min()) for s in terms)
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise GridError(f"alpha {alpha} on a box of length {length} "
                            f"gives a symbol out of double range")
        for arr in (*self.xi, *self.coords):
            arr.setflags(write=False)

    @property
    def axis_symbol(self) -> tuple:
        """The per-axis terms alpha_j xi_j^2 of the symbol, as 1-D arrays
        formed on each read."""
        return tuple(a * xi ** 2 for a, xi in zip(self.alpha, self.xi))

    @property
    def symbol(self) -> np.ndarray:
        """Symbol of the linear operator, sum_j alpha_j xi_j^2, as a fresh
        read-only array of the full shape.  The axes' terms `axis_symbol`
        are added in order into one real array, so forming it holds
        nothing else."""
        sym = np.zeros(self.n)
        for j, s in enumerate(self.axis_symbol):
            sym += self._along(s, j)
        sym.setflags(write=False)
        return sym

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


def _abs2_into(values: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """The bits of `_abs2(values)` written into out, im^2 going through
    tmp, which may hold fewer rows than out (it then takes them in turn)."""
    np.multiply(values.real, values.real, out=out)
    step = tmp.shape[0]
    for r in range(0, out.shape[0], step):
        part = out[r:r + step]
        t = tmp[:part.shape[0]]
        np.multiply(values.imag[r:r + step], values.imag[r:r + step], out=t)
        part += t


def _abs_power_into(a2: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """|u|^p from a2 = |u|^2, in out unless p = 2 (a2 itself): products
    for p = 4 and 6, else a2**(p/2), the bits of numpy's `a2 ** (p/2)`."""
    if p == 2.0:
        return a2
    if p in (4.0, 6.0):
        np.multiply(a2, a2, out=out)
        if p == 6.0:
            out *= a2
    else:
        np.power(a2, 0.5 * p, out=out)
    return out


def _marginals(a: np.ndarray) -> list:
    """Sums of `a` over every axis but j, one per axis j: 1-D arrays to dot
    with a per-axis weight (x_j, x_j^2, xi_j^2) instead of a full-size
    product.  Each is a new array, for d = 1 a copy of a."""
    return [a.sum(axis=tuple(k for k in range(a.ndim) if k != j))
            for j in range(a.ndim)]


def _in_order(parts):
    """The sum of `parts` taken left to right: how the chunks' shares of a
    streamed reduction are combined, so its bits follow the chunks alone."""
    acc = parts[0]
    for part in parts[1:]:
        acc = acc + part
    return acc


def _joined(chunk_marginals: list) -> list:
    """The whole array's marginals from its chunks' (`_marginals` of each
    chunk of rows): axis 0's are the chunks' rows in turn, every other
    axis's the chunks' sums in order."""
    first = np.concatenate([m[0] for m in chunk_marginals])
    return [first] + [_in_order([m[j] for m in chunk_marginals])
                      for j in range(1, len(chunk_marginals[0]))]


def _chunk_marginals(a, a2, tmp) -> list:
    """`_marginals` of |a|^2 on one chunk, through its scratch a2, tmp."""
    _abs2_into(a, a2, tmp)
    return _marginals(a2)


def _abs2_marginals(values: np.ndarray) -> list:
    """`_marginals(_abs2(values))` in one streamed pass: a chunk of |u|^2
    and half of one beside `values`, never a full-size array."""
    return _joined(spectral.streamed(_chunk_marginals, (values,),
                                     (float, (float, 2))))


# cells from a box edge that `boundary_mass_fraction` counts as the edge
EDGE_BAND = 2


@dataclass
class _Sums:
    """The reductions of |u|^2 that `_field_sums` takes in one pass."""
    total: float            # sum |u|^2
    top: float              # max |u|^2
    finite: bool            # every value of u is finite
    powers: list            # sum |u|^p, per p asked
    potential: float | None     # sum V |u|^2, with a potential V
    edge: float | None      # sum of |u|^2 within band cells of an edge
    marginals: list | None  # `_marginals(|u|^2)`, when asked


def _field_sums(values: np.ndarray, *, powers=(), potential=None,
                band: int | None = None, marginals: bool = False) -> _Sums:
    """Every full-grid reduction of |u|^2 = re^2 + im^2 in one streamed
    pass (`spectral.streamed`): per chunk of rows, one |u|^2 array and one
    temporary of the chunk.  Each chunk's shares are combined in chunk
    order, so the sums depend on the shape and CHUNK_POINTS alone, and a
    field of one chunk gives the bits of the whole-array sums.

    The edge within `band` cells of the box is summed slab by slab, never
    as total minus interior (which cancels): axis j's two edge slabs,
    restricted to the interior of the axes before it so that no cell is
    counted twice."""
    whole = potential is not None or any(p != 2.0 for p in powers)
    if potential is not None:
        potential = np.broadcast_to(potential, values.shape)
    totals, tops, finites, power_sums, potential_sums, slabs, chunk_marginals \
        = zip(*spectral.streamed(
            _chunk_sums, (values, potential, np.arange(values.shape[0])),
            (float, float if whole else (float, 2)),
            tuple(powers), band, values.shape, marginals))
    edge = None
    if band is not None:
        edge = 0.0
        for slab in zip(*slabs):
            edge += _in_order(slab)
    return _Sums(
        total=_in_order(totals), top=max(tops),     # read when finite
        finite=all(finites),
        powers=[_in_order(sums) for sums in zip(*power_sums)],
        potential=None if potential is None else _in_order(potential_sums),
        edge=edge,
        marginals=_joined(chunk_marginals) if marginals else None)


def _chunk_sums(u, potential, rows, a2, tmp, powers, band, shape,
                marginals) -> tuple:
    """`_field_sums` on one chunk of rows `rows` of an array of `shape`."""
    _abs2_into(u, a2, tmp)
    total = float(a2.sum())
    finite = math.isfinite(total) or bool(np.isfinite(u).all())
    sums = [float(_abs_power_into(a2, p, tmp).sum()) for p in powers]
    pot = None
    if potential is not None:
        pot = float(np.multiply(potential, a2, out=tmp).sum())
    slabs = None
    if band is not None:
        slabs = _edge_slabs(a2, int(rows[0]), shape, band)
    return (total, float(a2.max()), finite, sums, pot, slabs,
            _marginals(a2) if marginals else None)


def _edge_slabs(a2: np.ndarray, r0: int, shape: tuple, band: int) -> list:
    """The sums over a2, the rows r0.. of an array of `shape`, of each of
    the edge slabs of `_field_sums` in turn (0.0 where they miss it)."""
    r1 = r0 + a2.shape[0]
    inner = [slice(None)] * len(shape)
    out = []
    for j, n in enumerate(shape):
        b = max(0, min(band, n))
        for edge in (slice(0, b), slice(max(n - b, b), n)):
            index = tuple(inner[:j]) + (edge,)
            first = index[0].indices(shape[0])
            lo, hi = max(first[0], r0), min(first[1], r1)
            out.append(0.0 if lo >= hi else float(
                a2[(slice(lo - r0, hi - r0),) + index[1:]].sum()))
        inner[j] = slice(b, n - b)
    return out


def _parseval(grid: Grid, marginals: list, weights) -> float:
    """sum_j integral of weights[j] |u^|^2 by Parseval, from the marginals
    of |u^|^2 (`_abs2_marginals` of the spectrum) and one 1-D weight per
    axis: each weight is dotted with its axis's marginal, so no full-size
    weight is formed."""
    acc = 0.0
    for j in range(grid.d):
        acc += float((weights[j] * marginals[j]).sum())
    return grid.cell * acc / float(math.prod(grid.n))


def gradient_sq_integral(field: ComplexField) -> float:
    """integral of |grad u|^2 over the box (all axes weighted +1), via Parseval."""
    g = field.grid
    return _parseval(g, _abs2_marginals(spectral.fftn(field.values)),
                     [xi ** 2 for xi in g.xi])


@dataclass
class NormBundle:
    l2: float
    h1: float
    linf: float
    lp: dict = dc_field(default_factory=dict)


def l2_norm(field: ComplexField) -> float:
    """The `l2` of `norms(field)` alone, from one streamed |u|^2 sum and no
    FFT; a non-finite field gives a non-finite norm."""
    return float(np.sqrt(field.grid.cell * _field_sums(field.values).total))


def norms(field: ComplexField, ps: Sequence[float] = ()) -> NormBundle:
    """L2, H1 and Linf norms (plus requested Lp norms) of a field.

    Quadrature is the plain Riemann sum with the uniform cell weight, which
    is spectrally accurate for smooth periodic data.  One streamed pass
    over |u|^2 (`_field_sums`) feeds every norm but the gradient term.
    Raises FieldDataError on non-finite input rather than propagating NaN.
    """
    sums = _field_sums(field.values, powers=[p for p in ps if p > 0])
    if not sums.finite:
        raise FieldDataError("norms: field contains NaN or Inf")
    w = field.grid.cell
    l2sq = w * sums.total
    h1 = float(np.sqrt(l2sq + gradient_sq_integral(field)))
    bundle = NormBundle(l2=float(np.sqrt(l2sq)), h1=h1,
                        linf=float(np.sqrt(sums.top)))
    power_sums = iter(sums.powers)
    for p in ps:
        if p <= 0:
            raise GridError(f"Lp norm needs p > 0, got {p}")
        bundle.lp[p] = float(np.float64(w * next(power_sums)) ** (1.0 / p))
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


def linear_factors(grid: Grid, dt: float) -> tuple:
    """The d per-axis factors exp(-i dt alpha_j xi_j^2) of the free
    propagator L(dt), as 1-D arrays.  The axis operators commute, so L(dt)
    is exactly their product (`multiply_out`)."""
    return tuple(np.exp(-1j * dt * s) for s in grid.axis_symbol)


def multiply_out(factors: tuple) -> np.ndarray:
    """The full-grid multiplier prod_j factors[j], each point's product
    taken axis 0 first, as one new complex array; for d = 1 it is the one
    factor itself.  `einsum` writes the products straight into the result,
    where a broadcast multiply would take numpy's iterator buffers (up to
    256 KiB) beside it."""
    if len(factors) == 1:
        return factors[0]
    axes = "ijk"[:len(factors)]
    return np.einsum(",".join(axes) + "->" + axes, *factors)


def apply_linear_propagator(field: ComplexField, dt: float) -> ComplexField:
    """Advance the free flow i u_t + sum_j alpha_j d^2_j u = 0 by dt exactly.

    Multiplies the spectrum by L(dt) = `multiply_out(linear_factors(grid,
    dt))`; unitary for every real dt, so it composes and inverts exactly.
    """
    out = spectral.ifftn(spectral.fftn(field.values)
                         * multiply_out(linear_factors(field.grid, dt)))
    return field.with_values(out, t=field.t + dt)


def boundary_mass_fraction(field: ComplexField) -> float:
    """Fraction of the discrete mass within EDGE_BAND cells of an edge."""
    sums = _field_sums(field.values, band=EDGE_BAND)
    return 0.0 if sums.total == 0.0 else sums.edge / sums.total


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
    return _evaluate_spectrum(
        spectral.fftn(field.values),
        (_axis_eval_matrix(g, j, np.asarray(axis_points[j], dtype=float))
         for j in range(g.d)))


def _evaluate_spectrum(spec: np.ndarray, matrices) -> np.ndarray:
    """`evaluate_at_axes` from the field's spectrum and the axes' matrices
    `_axis_eval_matrix`, in axis order: one contraction per axis, each a
    fresh array.  The result is a view of the last, in its layout."""
    out = spec
    for j, E in enumerate(matrices):
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
    factors instead of separable matrices, one row of modes (one xi_x) at
    a time: the phase matrices are n x n, not n x N.  Data should be
    negligible wherever M maps outside the box.
    """
    g = field.grid
    if g.d != 2:
        raise GridError("evaluate_linear_map is defined for d=2 grids only")
    M = np.asarray(matrix, dtype=float)
    if M.shape != (2, 2):
        raise GridError("matrix must be 2x2")
    spec = spectral.fftn(field.values)
    xi_y = g.xi[1]
    vals = np.zeros(g.n, dtype=np.complex128)
    for xi_x, row in zip(g.xi[0], spec):
        # phase of mode (xi_x, xi_y) at point M(x, y): (M^T xi) . (x, y)
        # plus the offsets of the box
        kx = M[0, 0] * xi_x + M[1, 0] * xi_y
        ky = M[0, 1] * xi_x + M[1, 1] * xi_y
        off = np.exp(1j * (xi_x * 0.5 * g.length[0] + xi_y * 0.5 * g.length[1]))
        cmod = row * off / (g.n[0] * g.n[1])
        A = np.exp(1j * np.outer(g.coords[0], kx)) * cmod
        B = np.exp(1j * np.outer(g.coords[1], ky))
        vals += A @ B.T
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
