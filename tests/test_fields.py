import math
import tracemalloc

import numpy as np
import pytest

from hnlslab import fields, spectral
from hnlslab.fields import (
    ComplexField, FieldDataError, Grid, GridError, apply_linear_propagator,
    boundary_mass_fraction, constant_field, evaluate_dilated,
    evaluate_linear_map, gaussian_field, harmonic_field, linear_factors,
    multiply_out, norms, random_smooth_field, spectral_derivative, translate,
)
from hnlslab.evolution import FieldTrajectory
from hnlslab.radial import RadialTrajectory
from hnlslab.transforms import TransformState
from conftest import hnls_grid


# ---------------------------------------------------------------- grid basics

def test_grid_rejects_non_power_of_two():
    with pytest.raises(GridError, match="power of two"):
        Grid((63, 64), (20.0, 20.0), (1.0, -1.0))


def test_grid_rejects_bad_dimension_and_lengths():
    with pytest.raises(GridError):
        Grid((16,) * 4, (10.0,) * 4, (1.0,) * 4)
    with pytest.raises(GridError):
        Grid((16, 16), (-1.0, 10.0), (1.0, -1.0))
    with pytest.raises(GridError):
        Grid((16, 16, 16), (10.0, 10.0), (1.0, -1.0))


@pytest.mark.parametrize("n, length, what", [
    ((16, 16), 1e200, "cell volume inf"),
    ((16, 16), 1e308, "cell volume inf"),
    ((16, 16), 1e-200, "cell volume 0.0"),
    ((8,), 5e-324, "cell volume 0.0"),        # dx itself underflows to 0
    ((8,), 1e200, "squared coordinate"),
    ((8,), 1e-200, "squared coordinate or wavenumber"),
])
def test_grid_rejects_a_box_out_of_double_range(n, length, what):
    # numpy warns about none of it: the refusal is the only report
    with np.errstate(all="raise"):
        with pytest.raises(GridError, match=what):
            Grid(n, (length,) * len(n), (1.0,) * len(n))


@pytest.mark.parametrize("alpha, refused", [
    ((1e308, -1.0), True),            # alpha_x xi_x^2 overflows
    ((4e306, 4e306), True),           # each term is finite, their sum not
    ((4e306, -4e306), False),         # the terms' signs differ: finite
])
def test_grid_refuses_a_symbol_out_of_double_range(alpha, refused):
    # 16 points on a length of 10: max xi^2 = (16 pi / 10)^2 = 25.3
    with np.errstate(all="raise"):
        if refused:
            with pytest.raises(GridError, match="symbol out of double range"):
                Grid((16, 16), (10.0, 10.0), alpha)
        else:
            g = Grid((16, 16), (10.0, 10.0), alpha)
    if not refused:
        assert np.isfinite(g.symbol).all()


@pytest.mark.parametrize("alpha, weights", [
    ((1.0, -1.0), (1.0, -1.0)),
    ((1.7, -0.6), (1.0 / 1.7, -1.0 / 0.6)),
    ((0.0, -2.0), (0.0, -0.5)),             # an axis switched off weighs 0
])
def test_signature_weights_invert_alpha(alpha, weights):
    assert Grid((16, 16), (10.0, 10.0), alpha).signature_weights == weights


def test_wavenumbers_3d():
    g = Grid((32, 32, 32), (20.0, 20.0, 20.0), (1.0, -1.0, -1.0))
    for j in range(3):
        assert np.isclose(np.max(g.xi[j]), 2 * np.pi * 15 / 20)
        assert np.isclose(np.min(g.xi[j]), -2 * np.pi * 16 / 20)


def test_centered_coordinates():
    g = hnls_grid(n=64, length=40.0)
    assert np.isclose(g.coords[0][0], -20.0)
    assert np.isclose(g.coords[0][-1], 20.0 - 40.0 / 64)
    assert np.isclose(g.cell, (40.0 / 64) ** 2)


_SIGNATURES = {"hnls": (1.0, -1.0, -1.0), "nls": (1.0, 1.0, 1.0),
               "zero-axis": (0.0, 0.7, -1.3)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_SIGNATURES))
def test_symbol_is_read_only_and_the_signature_sum(kind, d):
    n = (16, 8, 32)[:d]
    g = Grid(n, (10.0, 7.0, 13.0)[:d], _SIGNATURES[kind][:d])
    # the value a Grid used to store: sum_j alpha_j xi_j^2, axis by axis
    ref = np.zeros(n)
    for j in range(d):
        ref = ref + g.alpha[j] * g.xi_along(j) ** 2
    sym = g.symbol
    assert sym.shape == n and sym.dtype == np.float64
    assert sym.tobytes() == ref.tobytes()       # the same bits, -0.0 too
    assert not sym.flags.writeable
    with pytest.raises(ValueError):
        sym[(0,) * d] = 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_grid_holds_no_array_of_its_shape(d):
    # per-axis arrays only; in 1-D an axis is the whole shape, so d >= 2
    g = Grid((16, 8, 32)[:d], (10.0,) * d, (1.0,) * d)
    assert not hasattr(g, "__dict__")
    held = [getattr(g, name) for name in Grid.__slots__]
    arrays = [a for v in held for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) == 2 * d                  # xi and coords
    assert all(a.ndim == 1 and a.size < math.prod(g.n) for a in arrays)


def test_one_dimensional_grid_allowed():
    # the traveling-profile equation needs d=1 with alpha = 1 - |c|^2
    g = Grid((64,), (30.0,), (0.0,))
    assert g.d == 1 and g.alpha == (0.0,)


# ------------------------------------------------------- spectral derivatives

def test_derivative_single_harmonic():
    g = hnls_grid()
    f = harmonic_field(g, (1, 0))
    k = 2 * np.pi / g.length[0]
    df = spectral_derivative(f, 0)
    assert np.max(np.abs(df.values - 1j * k * f.values)) < 1e-12


def test_derivative_constant_is_zero():
    g = hnls_grid()
    df = spectral_derivative(constant_field(g, 2.0 + 1.0j), 0)
    assert np.max(np.abs(df.values)) < 1e-13


def test_derivative_matches_fd4_oracle():
    # 4th-order centered finite differences as an independent check: the
    # deviation is pure FD truncation error, so it must shrink ~16x per
    # refinement while the spectral result stays put
    errs = []
    for n in (128, 256):
        g = hnls_grid(n=n, length=20.0)
        X, Y = g.meshgrid()
        f = ComplexField(g, np.exp(-X**2 - Y**2))
        dx = g.dx[0]
        v = f.values
        fd4 = (-np.roll(v, -2, 0) + 8 * np.roll(v, -1, 0)
               - 8 * np.roll(v, 1, 0) + np.roll(v, 2, 0)) / (12 * dx)
        df = spectral_derivative(f, 0)
        errs.append(np.max(np.abs(df.values - fd4)))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 12.0


def test_derivative_linearity(rng):
    g = hnls_grid(n=32)
    f = random_smooth_field(g, rng)
    h = random_smooth_field(g, rng)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    lhs = spectral_derivative(ComplexField(g, a * f.values + b * h.values), 1)
    rhs = a * spectral_derivative(f, 1).values + b * spectral_derivative(h, 1).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_second_derivative_is_squared_symbol():
    g = hnls_grid(n=32)
    f = harmonic_field(g, (3, -2))
    d2 = spectral_derivative(f, 1, order=2)
    k = 2 * np.pi * (-2) / g.length[1]
    assert np.max(np.abs(d2.values - (-k**2) * f.values)) < 1e-11


def test_derivative_argument_validation():
    g = hnls_grid(n=16)
    f = constant_field(g, 1.0)
    with pytest.raises(GridError):
        spectral_derivative(f, 2)
    with pytest.raises(GridError):
        spectral_derivative(f, 0, order=3)


# ----------------------------------------------------------------------- norms

def test_norms_zero_field():
    g = hnls_grid(n=16)
    b = norms(ComplexField(g, np.zeros(g.n)))
    assert b.l2 == 0.0 and b.h1 == 0.0 and b.linf == 0.0


def test_norms_constant_closed_form():
    g = Grid((32, 32), (2 * np.pi, 2 * np.pi), (1.0, -1.0))
    b = norms(constant_field(g, 1.0))
    assert np.isclose(b.l2, 2 * np.pi, rtol=1e-12)
    assert np.isclose(b.linf, 1.0)
    assert np.isclose(b.h1, b.l2)  # constant has no gradient


def test_norms_gaussian_analytic():
    g = hnls_grid(n=256, length=40.0)
    X, Y = g.meshgrid()
    f = ComplexField(g, np.exp(-(X**2 + Y**2) / 2))
    b = norms(f)
    assert abs(b.l2**2 - np.pi) < 1e-10 * np.pi


def test_norms_lp_entries():
    g = Grid((16, 16), (2.0, 3.0), (1.0, -1.0))
    f = constant_field(g, 0.5j)
    assert np.isclose(norms(f, ps=(4,)).lp[4], (0.5**4 * 6.0) ** 0.25)
    assert np.isclose(norms(f, ps=(2,)).lp[2], norms(f).l2)
    with pytest.raises(GridError):
        norms(f, ps=(-1.0,))


def test_norms_reject_nan():
    g = hnls_grid(n=16)
    v = np.ones(g.n, dtype=complex)
    v[3, 4] = np.nan
    with pytest.raises(FieldDataError):
        norms(ComplexField(g, v))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norms_match_direct_sums(d, rng):
    g = Grid((32, 16, 8)[:d], (9.0, 7.0, 5.0)[:d], (1.0, -2.0, 0.5)[:d])
    f = random_smooth_field(g, rng, amplitude=1.7, corr=0.6)
    ps = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)
    b = norms(f, ps=ps)
    a = np.abs(f.values)
    spec2 = np.abs(np.fft.fftn(f.values)) ** 2
    grad2 = g.cell * sum(np.sum(g.xi_along(j) ** 2 * spec2)
                         for j in range(d)) / spec2.size
    l2 = np.sqrt(g.cell * np.sum(a ** 2))
    assert b.l2 == pytest.approx(l2, rel=1e-14)
    assert b.h1 == pytest.approx(np.sqrt(l2 ** 2 + grad2), rel=1e-14)
    assert b.linf == pytest.approx(np.max(a), rel=1e-15)
    for p in ps:
        lp = (g.cell * np.sum(a ** p)) ** (1.0 / p)
        assert b.lp[p] == pytest.approx(lp, rel=1e-14), p


def test_h1_dominates_l2(rng):
    g = hnls_grid(n=32)
    for _ in range(5):
        f = random_smooth_field(g, rng)
        b = norms(f)
        assert b.h1 >= b.l2


# ------------------------------------------------------------------ propagator

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_SIGNATURES))
def test_propagator_factors_multiply_out_to_the_exp_of_the_symbol(kind, d):
    # the axis operators commute: L(dt) is the product of its factors, to
    # the roundoff of phases up to |dt| max|symbol|, and in 1-D the one
    # factor is exp(-i dt symbol) itself
    g = Grid((16, 8, 32)[:d], (10.0, 7.0, 13.0)[:d], _SIGNATURES[kind][:d])
    for dt in (1e-3, 0.37, -2.5):
        ref = np.exp(-1j * dt * g.symbol)
        out = multiply_out(linear_factors(g, dt))
        assert out.shape == g.n
        if d == 1:
            assert out.tobytes() == ref.tobytes()
        phase = abs(dt) * float(np.max(np.abs(g.symbol)))
        assert np.max(np.abs(out - ref)) <= 1e-15 * max(1.0, phase)


def test_propagator_constant_unchanged():
    g = hnls_grid(n=16)
    f = constant_field(g, 1.0 - 2.0j)
    out = apply_linear_propagator(f, 0.37)
    assert np.max(np.abs(out.values - f.values)) < 1e-14
    assert np.isclose(out.t, 0.37)


def test_propagator_harmonic_phase():
    g = hnls_grid(n=32, length=20.0)
    f = harmonic_field(g, (2, 1))
    kx = 2 * np.pi * 2 / 20.0
    ky = 2 * np.pi * 1 / 20.0
    dt = 0.21
    expected = f.values * np.exp(-1j * dt * (kx**2 - ky**2))
    out = apply_linear_propagator(f, dt)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_propagator_unitary_and_invertible(rng):
    g = hnls_grid(n=16)
    for _ in range(100):
        f = random_smooth_field(g, rng, corr=0.5)
        dt = float(rng.uniform(-1.0, 1.0))
        out = apply_linear_propagator(f, dt)
        assert abs(norms(out).l2 - norms(f).l2) <= 1e-12 * norms(f).l2
        back = apply_linear_propagator(out, -dt)
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * norms(f).linf


def test_propagator_kills_null_cone_profile():
    # f(x - y) built from a handful of harmonics sits on the null cone of the
    # hyperbolic symbol, so the propagator must leave it alone
    g = hnls_grid(n=64, length=40.0)
    X, Y = g.meshgrid()
    z = X - Y
    vals = np.zeros(g.n, dtype=complex)
    rng = np.random.default_rng(7)
    for m in range(-5, 6):
        zeta = 2 * np.pi * m / g.length[0]
        vals += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(1j * zeta * z)
    f = ComplexField(g, vals)
    out = apply_linear_propagator(f, 0.83)
    assert np.max(np.abs(out.values - f.values)) < 1e-12 * np.max(np.abs(vals))


# ------------------------------------------------------------------ resampling

def test_translate_full_period_identity(rng):
    g = hnls_grid(n=32)
    f = random_smooth_field(g, rng)
    out = translate(f, (g.length[0], -g.length[1]))
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_translate_gaussian_center():
    g = hnls_grid(n=128, length=40.0)
    f = gaussian_field(g, width=1.5)
    out = translate(f, (3.0, -2.0))
    ref = gaussian_field(g, width=1.5, center=(3.0, -2.0))
    assert np.max(np.abs(out.values - ref.values)) < 1e-10


def test_evaluate_dilated_identity_and_mode():
    g = hnls_grid(n=64, length=40.0)
    f = harmonic_field(g, (3, 1))
    same = evaluate_dilated(f, 1.0)
    assert np.max(np.abs(same.values - f.values)) < 1e-11
    doubled = evaluate_dilated(f, 2.0)
    ref = harmonic_field(g, (6, 2))
    assert np.max(np.abs(doubled.values - ref.values)) < 1e-10


def test_evaluate_dilated_gaussian():
    g = hnls_grid(n=128, length=40.0)
    f = gaussian_field(g, width=2.0)
    half = evaluate_dilated(f, 0.5)     # u(x/2): twice as wide
    ref = gaussian_field(g, width=4.0)
    assert np.max(np.abs(half.values - ref.values)) < 1e-9


def test_evaluate_linear_map_identity_and_gaussian():
    g = hnls_grid(n=64, length=40.0)
    f = gaussian_field(g, width=1.5)
    out = evaluate_linear_map(f, np.eye(2))
    assert np.max(np.abs(out.values - f.values)) < 1e-10
    a = 0.3
    M = np.array([[np.cosh(a), np.sinh(a)], [np.sinh(a), np.cosh(a)]])
    out = evaluate_linear_map(f, M)
    X, Y = g.meshgrid()
    Xp = M[0, 0] * X + M[0, 1] * Y
    Yp = M[1, 0] * X + M[1, 1] * Y
    ref = np.exp(-(Xp**2 + Yp**2) / (2 * 1.5**2))
    assert np.max(np.abs(out.values - ref)) < 1e-8


def _linear_map_reference(field, M):
    # the whole-mode contraction: two n x N phase matrices, N = n^2 modes
    g = field.grid
    spec = spectral.fftn(field.values)
    xi_x, xi_y = np.meshgrid(g.xi[0], g.xi[1], indexing="ij")
    kx = M[0, 0] * xi_x + M[1, 0] * xi_y
    ky = M[0, 1] * xi_x + M[1, 1] * xi_y
    off = np.exp(1j * (xi_x * 0.5 * g.length[0] + xi_y * 0.5 * g.length[1]))
    cmod = (spec * off).ravel() / (g.n[0] * g.n[1])
    A = np.exp(1j * np.outer(g.coords[0], kx.ravel()))
    B = np.exp(1j * np.outer(g.coords[1], ky.ravel()))
    return np.einsum("pm,qm,m->pq", A, B, cmod, optimize=True)


_A = 0.3
_LINEAR_MAPS = {
    "boost": ((64, 64), [[np.cosh(_A), np.sinh(_A)], [np.sinh(_A), np.cosh(_A)]]),
    "rotation": ((64, 64), [[np.cos(0.4), -np.sin(0.4)],
                            [np.sin(0.4), np.cos(0.4)]]),
    "shear": ((64, 64), [[1.0, 0.5], [0.0, 1.0]]),
    "swap": ((64, 64), [[0.0, 1.0], [1.0, 0.0]]),
    "reflection": ((64, 64), [[1.0, 0.0], [0.0, -1.0]]),
    # unequal sides: a row of modes is n[1] long, the result n[0] x n[1]
    "scaling-32x64": ((32, 64), [[0.8, 0.0], [0.0, 1.25]]),
    "boost-64x32": ((64, 32), [[np.cosh(_A), np.sinh(_A)],
                               [np.sinh(_A), np.cosh(_A)]]),
}


@pytest.mark.parametrize("name", sorted(_LINEAR_MAPS))
def test_evaluate_linear_map_matches_the_whole_mode_contraction(name):
    n, M = _LINEAR_MAPS[name]
    g = Grid(n, (40.0, 40.0), (1.0, -1.0))
    f = random_smooth_field(g, np.random.default_rng(3))
    M = np.array(M)
    ref = _linear_map_reference(f, M)
    assert np.max(np.abs(evaluate_linear_map(f, M).values - ref)) < 1e-13


def test_evaluate_linear_map_memory_is_bounded():
    # modes are contracted one xi_x row at a time: at 128^2 the peak is a
    # few fields (the spectrum, the result and one row's n x n phase
    # matrices), where the whole-mode contraction took about 390
    M = np.array(_LINEAR_MAPS["boost"][1])
    big = random_smooth_field(hnls_grid(n=128), np.random.default_rng(4))
    field = 16 * 128 * 128                # bytes of one complex field
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_linear_map(big, M)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * field


def test_boundary_mass_fraction_flags_edge_data():
    g = hnls_grid(n=64, length=40.0)
    centered = gaussian_field(g, width=1.0)
    assert boundary_mass_fraction(centered) < 1e-12
    edge = gaussian_field(g, width=1.0, center=(19.0, 0.0))
    assert boundary_mass_fraction(edge) > 1e-3


@pytest.mark.parametrize("band", [0, 1, 2, 3, 4, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_boundary_mass_fraction_matches_edge_mask(band, d, rng,
                                                 monkeypatch):
    # bands up to and past half the box: the two slabs of an axis meet,
    # then cover it, and no cell may be counted twice
    monkeypatch.setattr(fields, "EDGE_BAND", band)
    g = Grid((8,) * d, (5.0,) * d, (1.0,) * d)
    f = random_smooth_field(g, rng, corr=0.3)
    a2 = np.abs(f.values) ** 2
    mask = np.zeros(g.n, dtype=bool)
    for j in range(d):
        for edge in (slice(0, band), slice(max(8 - band, 0), None)):
            sl = [slice(None)] * d
            sl[j] = edge
            mask[tuple(sl)] = True
    want = np.sum(a2[mask]) / np.sum(a2)
    assert boundary_mass_fraction(f) == pytest.approx(want, rel=1e-14,
                                                      abs=1e-300)


# ------------------------------------------------------- trajectory read rule

# five uneven sample times, and per time 8 values (a field or radial
# profile on 8 points, or the map coefficients a, b, f, g in the first 4).
# t_end = 7 puts t_end + 5e-13 inside its sample's 1e-13 * |s| tolerance.
_TIMES = (0.0, 1.0, 2.5, 4.5, 7.0)
_ROWS = np.random.default_rng(11).standard_normal((5, 8))


def _field_reader(k):
    grid = Grid((8,), (1.0,), (1.0,))
    traj = FieldTrajectory([ComplexField(grid, _ROWS[i], t=_TIMES[i])
                            for i in range(k)])

    def read(s):
        field = traj.at(s)
        assert field.t == s
        return field.values
    return read, lambda i: _ROWS[i].astype(np.complex128)


def _radial_reader(k):
    traj = RadialTrajectory(np.linspace(0.0, 1.0, 8))
    for i in range(k):
        traj.append(_TIMES[i], _ROWS[i])
    return traj.at, lambda i: _ROWS[i].astype(np.complex128)


def _transform_reader(k):
    a, b, f, g = _ROWS[:k, :4].T
    state = TransformState(a0=0.0, k=0.0, d=2, t=np.array(_TIMES[:k]),
                           a=a, b=b, f=f, g=g)
    return lambda s: np.array(state.at(s)), lambda i: _ROWS[i, :4]


@pytest.mark.parametrize("reader", [_field_reader, _radial_reader,
                                    _transform_reader])
def test_every_trajectory_reads_by_one_rule(reader):
    read, stored = reader(5)
    for i in (2, 4):
        for s in (_TIMES[i], _TIMES[i] * (1 + 1e-14)):
            assert read(s).tobytes() == stored(i).tobytes()
    assert read(_TIMES[-1] + 5e-13).tobytes() == stored(4).tobytes()
    with pytest.raises(ValueError):
        read(_TIMES[-1] + 1e-11)
    with pytest.raises(ValueError):
        reader(3)[0](0.5)           # the cubic needs 4 samples
    with pytest.raises(ValueError):
        reader(0)[0](0.0)
