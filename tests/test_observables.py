from fractions import Fraction

import numpy as np
import pytest

from hnlslab import spectral
from hnlslab.fields import (
    ComplexField, FieldDataError, Grid, constant_field, gaussian_field,
    random_smooth_field, spectral_derivative,
)
from hnlslab.evolution import (
    EvolutionProblem, RunConfig, _amplitude, _nonlinear_stage,
    harmonic_saddle_potential, run,
)
from hnlslab.observables import (
    energy, sample, verify_conservation, ObservableSample, ObservableSeries,
)
from conftest import hnls_grid, nls_grid


_ALPHAS = {"hnls": (1.0, -1.0, -1.0), "nls": (1.0, 1.0, 1.0),
           "mixed": (0.5, -2.0, 1.5)}


def test_constant_field_closed_forms():
    # on a box of area S, u = A: mass = S A^2, energy = -lam S A^4 / 4
    g = Grid((32, 32), (5.0, 8.0), (1.0, -1.0))
    A = 0.7
    f = constant_field(g, A)
    s = sample(f, lam=1.0, sigma=2.0)
    S = 5.0 * 8.0
    assert np.isclose(s.mass, S * A**2, rtol=1e-13)
    assert np.isclose(s.energy, -S * A**4 / 4, rtol=1e-13)
    assert np.isclose(s.lsig2, S * A**4, rtol=1e-13)
    assert s.momentum == (0.0, 0.0)
    assert np.isclose(s.linf, A)


def test_energy_signature_split():
    # E_hyperbolic = E_elliptic - int |u_y|^2 for the same field
    gh = hnls_grid(n=64)
    ge = nls_grid(n=64)
    f = gaussian_field(gh, width=1.3, boost=(0.5, -0.2))
    fe = ComplexField(ge, f.values)
    uy = spectral_derivative(f, 1)
    int_uy2 = f.grid.cell * float(np.sum(np.abs(uy.values) ** 2))
    eh = energy(f, 1.0, 2.0)
    ee = energy(fe, 1.0, 2.0)
    assert np.isclose(eh, ee - int_uy2, rtol=1e-12, atol=1e-12)


def test_symmetric_gaussian_energy_reduces_to_potential_term():
    # x/y kinetic terms cancel under the (1,-1) signature for radially
    # symmetric data, leaving only -lam/4 int |u|^4
    g = hnls_grid()
    f = gaussian_field(g, width=1.0)
    quartic = g.cell * float(np.sum(np.abs(f.values) ** 4))
    assert np.isclose(energy(f, lam=-1.0, sigma=2.0), quartic / 4, rtol=1e-12)
    assert np.isclose(energy(f, lam=1.0, sigma=2.0), -quartic / 4, rtol=1e-12)


def test_boosted_gaussian_momentum():
    g = hnls_grid(n=128, length=40.0)
    k = (0.9, -0.6)
    f = gaussian_field(g, width=1.2, boost=k)
    s = sample(f, 1.0, 2.0)
    for j in range(2):
        assert np.isclose(s.momentum[j], k[j] * s.mass, rtol=1e-10)
    # real data carries no momentum
    s0 = sample(gaussian_field(g, width=1.2), 1.0, 2.0)
    assert abs(s0.momentum[0]) < 1e-12 and abs(s0.momentum[1]) < 1e-12


def test_gauge_invariance_of_densities():
    g = hnls_grid(n=64)
    f = gaussian_field(g, width=1.5, boost=(0.4, 0.1))
    h = f.with_values(f.values * np.exp(1j * 0.7))
    a = sample(f, 1.0, 2.0)
    b = sample(h, 1.0, 2.0)
    for name in ("mass", "energy", "virial", "virial_rate", "lsig2"):
        assert np.isclose(getattr(a, name), getattr(b, name), rtol=1e-12, atol=1e-12)
    assert np.allclose(a.momentum, b.momentum)


def test_virial_sign_weights():
    # x^2 enters with +, y^2 with - when alpha = (1, -1)
    g = hnls_grid(n=64)
    wide_y = gaussian_field(g, width=(1.0, 3.0))
    s = sample(wide_y, 1.0, 2.0)
    assert s.virial < 0
    wide_x = gaussian_field(g, width=(3.0, 1.0))
    assert sample(wide_x, 1.0, 2.0).virial > 0


def test_virial_second_identity_free_gaussian():
    # for a static Gaussian the virial rate is 0, and the rhs
    # reduces to 16E + 4*lam*((2d+4)/(sigma+2)-d)*P with d=2, sigma=2: 16E
    g = hnls_grid()
    f = gaussian_field(g, width=1.1)
    s = sample(f, 1.0, 2.0)
    assert abs(s.virial_rate) < 1e-10
    assert np.isclose(s.virial_rhs, 16 * s.energy, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf,
                                 1j * np.nan, complex(np.inf, np.nan)])
def test_sample_rejects_nonfinite(bad):
    g = hnls_grid(n=16)
    v = np.ones(g.n, dtype=complex)
    v[3, 5] = bad
    with pytest.raises(FieldDataError):
        sample(ComplexField(g, v), 1.0, 2.0)
    with pytest.raises(FieldDataError):    # raised before reading a spectrum
        sample(ComplexField(g, v), 1.0, 2.0, spectrum=np.zeros(g.n, complex))


# ------------------------------------------------- fused sample vs direct sums

def _reference_sample(f, lam, sigma, V):
    """Every field of `sample`, one direct sum per quantity: |u| through
    np.abs, the complex products conj(u) d_j u and conj(u) x_j d_j u, one
    Parseval sum per axis and a boolean edge mask.  The virial weighs
    x_j^2 by 1/alpha_j (no alpha_j is 0 here), so its rate weighs the
    fluxes by 1."""
    g, u, w = f.grid, f.values, f.grid.cell
    a2 = np.abs(u) ** 2
    spec = np.fft.fftn(u)
    spec2 = np.abs(spec) ** 2
    kin = sum(g.alpha[j] * np.sum(g.xi_along(j) ** 2 * spec2)
              for j in range(g.d)) / u.size
    pot = np.sum(np.abs(u) ** (sigma + 2.0))
    e = 0.5 * w * kin - lam / (sigma + 2.0) * w * pot
    if V is not None:
        e += 0.5 * w * np.sum(V * a2)
    mom, com, rate, virial = [], [], 0.0, 0.0
    for j in range(g.d):
        du = np.fft.ifftn(spec * 1j * g.xi_along(j))
        x = g.coord_along(j)
        flux = w * np.sum(np.imag(np.conj(u) * (x * du)))
        mom.append(w * np.sum(np.imag(np.conj(u) * du)))
        com.append(w * np.sum(x * a2))
        rate += 4.0 * flux
        virial += w * np.sum(x ** 2 * a2) / g.alpha[j]
    mask = np.zeros(g.n, dtype=bool)
    for j in range(g.d):
        for edge in (slice(0, 2), slice(-2, None)):
            sl = [slice(None)] * g.d
            sl[j] = edge
            mask[tuple(sl)] = True
    d = g.d
    return dict(
        mass=w * np.sum(a2), energy=e, momentum=mom, com=com,
        virial=virial, virial_rate=rate,
        virial_rhs=16.0 * e + 4.0 * lam * ((2.0 * d + 4.0) / (sigma + 2.0)
                                           - d) * w * pot,
        lsig2=w * pot, linf=np.max(np.abs(u)),
        boundary_fraction=np.sum(a2[mask]) / np.sum(a2),
        kinetic=w * sum(abs(g.alpha[j]) * np.sum(g.xi_along(j) ** 2 * spec2)
                        for j in range(g.d)) / u.size,
        potential=0.0 if V is None else w * np.sum(np.abs(V) * a2))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("alpha", ["hnls", "nls", "mixed"])
@pytest.mark.parametrize("sigma", [0.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("with_potential", [False, True])
@pytest.mark.parametrize("chunk_rows", [None, 3])
def test_sample_matches_direct_sums(d, alpha, sigma, with_potential,
                                    chunk_rows, monkeypatch):
    n, L = {1: 64, 2: 32, 3: 16}[d], 12.0
    if chunk_rows is not None:
        # every reduction walks chunks of 3 to 5 rows: n // 3 of them
        monkeypatch.setattr(spectral, "CHUNK_POINTS",
                            chunk_rows * n ** (d - 1))
    g = Grid((n,) * d, (L,) * d, _ALPHAS[alpha][:d])
    rng = np.random.default_rng(100 * d + int(4 * sigma))
    f = gaussian_field(g, amplitude=0.9 - 0.3j, width=1.6,
                       center=(1.0, -0.5, 0.7)[:d],
                       boost=(0.6, -0.4, 0.3)[:d])
    # a smooth random part puts mass on the box edges
    f = f.with_values(f.values + random_smooth_field(
        g, rng, amplitude=0.2, corr=0.8).values)
    V = None
    if with_potential:
        V = 0.3 * np.cos(2.0 * np.pi * g.coord_along(0) / L) + np.zeros(g.n)
    lam = -0.7
    s = sample(f, lam, sigma, V)
    ref = _reference_sample(f, lam, sigma, V)
    mass = ref["mass"]
    escale = (abs(ref["energy"]) + ref["kinetic"] + ref["lsig2"]
              + ref["potential"])
    scales = {"mass": mass, "momentum": mass, "com": mass * L,
              "virial": mass * L ** 2, "virial_rate": mass * L,
              "energy": escale, "lsig2": escale, "virial_rhs": 16.0 * escale,
              "linf": ref["linf"], "boundary_fraction": 1.0}
    assert ref["boundary_fraction"] > 1e-4
    for name, scale in scales.items():
        got, want = np.atleast_1d(getattr(s, name)), np.atleast_1d(ref[name])
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
    assert np.array_equal(energy(f, lam, sigma, V), s.energy)


@pytest.mark.parametrize("sigma", [0.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("with_potential", [False, True])
def test_nonlinear_stage_matches_complex_exp(sigma, with_potential):
    g = hnls_grid(n=32, length=12.0)
    rng = np.random.default_rng(7)
    u0 = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    V = harmonic_saddle_potential(g, k=0.3) if with_potential else None
    problem = EvolutionProblem(g, lam=1.3, sigma=sigma, potential=V)
    dt = 0.2
    amp = np.empty(g.n)
    _amplitude(u0, sigma, amp, np.empty(g.n))
    u = u0.copy()
    sup = _nonlinear_stage(u, dt, problem.lam, sigma, V)
    assert sup == (np.max(amp) ** (1.0 / sigma) if sigma > 0
                   else np.max(np.abs(u)))
    # the amplitude: exact products for sigma = 2 and 4, |u|^sigma otherwise
    if sigma == 2.0:
        assert np.array_equal(amp, u0.real ** 2 + u0.imag ** 2)
    elif sigma == 4.0:
        # the quartic is nearer the exact value than abs**4, whose own
        # rounding reaches 1.1e-15, so the two differ by up to ~1.4e-15
        a4 = np.abs(u0) ** 4
        assert np.max(np.abs(amp - a4) / a4) <= 2e-15
        for z, a in zip(u0.ravel()[:300], amp.ravel()[:300]):
            exact = (Fraction(z.real) ** 2 + Fraction(z.imag) ** 2) ** 2
            assert abs(Fraction(a) - exact) <= Fraction(1e-15) * exact
    else:
        assert np.array_equal(amp, np.abs(u0) ** sigma)
    theta = problem.lam * amp - (0.0 if V is None else V)
    if sigma > 0:
        assert np.max(np.abs(dt * theta)) > 1.0   # phases of order one
    ref = u0 * np.exp(1j * dt * theta)
    assert np.all(np.abs(u - ref) <= 4 * np.spacing(np.abs(ref)))
    # the phase map keeps |u| pointwise
    assert np.all(np.abs(np.abs(u) - np.abs(u0))
                  <= 4 * np.spacing(np.abs(u0)))


def test_boundary_flag_on_offcenter_data():
    g = hnls_grid(n=64, length=40.0)
    s = sample(gaussian_field(g, width=1.0, center=(19.5, 0.0)), 1.0, 2.0)
    assert not s.moments_ok
    assert sample(gaussian_field(g, width=1.0), 1.0, 2.0).moments_ok


def test_series_columns():
    g = hnls_grid(n=16)
    ser = ObservableSeries(alpha=g.alpha)
    for t in (0.0, 0.1, 0.2):
        f = constant_field(g, 1.0, t=t)
        ser.append(sample(f, 1.0, 2.0))
    assert np.allclose(ser.t, [0.0, 0.1, 0.2])
    assert ser.column("momentum", 1).shape == (3,)
    assert len(ser) == 3


def test_verify_conservation_needs_enough_samples():
    g = hnls_grid(n=16)
    ser = ObservableSeries(alpha=g.alpha)
    for t in (0.0, 0.1):
        ser.append(sample(constant_field(g, 1.0, t=t), 0.0, 2.0))
    with pytest.raises(ValueError):
        verify_conservation(ser)


def test_conservation_report_on_nonlinear_run():
    # moving wave packet under the full flow: drifts small, center of mass
    # slope = 2 alpha_j momentum_j, dV/dt matches the dilation-flux form
    g = hnls_grid(n=64, length=40.0)
    f = gaussian_field(g, amplitude=0.8, width=1.3, boost=(0.7, -0.4))
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    cfg = RunConfig(t_end=0.2, dt0=5e-4, sample_stride=20)
    _, series = run(f, problem, cfg)
    rep = verify_conservation(series)
    assert rep.mass_drift < 1e-12
    assert rep.energy_drift < 1e-8
    # momentum is conserved up to aliasing of the nonlinear product
    assert rep.momentum_drift < 1e-6
    for j in range(2):
        assert np.isclose(rep.com_slope[j], rep.com_predicted[j],
                          rtol=2e-4, atol=1e-9)
    assert rep.virial_rate_residual < 1e-4 * rep.virial_scale
    assert rep.virial_second_residual < 1e-3 * rep.virial_second_scale
    assert rep.moments_ok


def _synthetic_series(t, V, rate, rhs):
    ser = ObservableSeries(alpha=(1.0, -1.0))
    for tk, vk, rk, hk in zip(t, V, rate, rhs):
        ser.append(ObservableSample(
            t=tk, mass=1.0, energy=hk / 16.0, momentum=(0.25, -0.5),
            com=(0.5 * tk, 1.0 + tk), virial=vk, virial_rate=rk,
            virial_rhs=hk, lsig2=1.0, linf=1.0, boundary_fraction=0.0,
            moments_ok=True))
    return ser


def test_verify_conservation_audits_non_uniform_times():
    # three-point differences on any time grid are exact for a quadratic
    # V(t) = 1 + 2t - 3t^2: dV/dt = 2 - 6t, d2V/dt2 = -6
    t = np.array([0.0, 0.01, 0.025, 0.03, 0.05, 0.0505, 0.09])
    rep = verify_conservation(_synthetic_series(
        t, 1.0 + 2.0 * t - 3.0 * t ** 2, 2.0 - 6.0 * t, np.full(t.size, -6.0)))
    assert rep.virial_rate_residual <= 1e-12 * rep.virial_scale
    assert rep.virial_second_residual <= 1e-9 * rep.virial_second_scale
    assert rep.com_fit_residual <= 1e-12
    assert rep.com_slope == pytest.approx((0.5, 1.0), rel=1e-12)


def _uniform_virial_residuals(series):
    """The virial residuals by centered differences with one step h."""
    t, V = series.t, series.column("virial")
    h = t[1] - t[0]
    dV = (V[2:] - V[:-2]) / (2.0 * h)
    d2V = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / h ** 2
    return (np.max(np.abs(dV - series.column("virial_rate")[1:-1])),
            np.max(np.abs(d2V - series.column("virial_rhs")[1:-1])))


@pytest.mark.parametrize("alpha, dt0, stride", [
    ((1.0, -1.0), 5e-4, 20), ((1.0, 1.0), 1e-3, 10), ((0.5, -2.0), 1e-2, 10)])
def test_verify_conservation_on_uniform_times_is_centered(alpha, dt0, stride):
    g = Grid((32, 32), (40.0, 40.0), alpha)
    f = gaussian_field(g, amplitude=0.8, width=1.3, boost=(0.7, -0.4))
    cfg = RunConfig(t_end=100 * dt0, dt0=dt0, sample_stride=stride)
    _, series = run(f, EvolutionProblem(g, lam=1.0, sigma=2.0), cfg)
    dt = np.diff(series.t)
    assert np.max(np.abs(dt - dt[0])) <= 1e-12 * dt[0]
    rep = verify_conservation(series)
    rate, second = _uniform_virial_residuals(series)
    assert abs(rep.virial_rate_residual - rate) <= 1e-12 * rep.virial_scale
    assert abs(rep.virial_second_residual - second) \
        <= 1e-12 * rep.virial_second_scale


def test_verify_conservation_leaves_sliver_interval_out():
    # t_end a hair past 0.05 makes `march` clip a last step of 1e-7 or
    # 5e-12 after the sample at 0.05, whose d2V would divide the roundoff
    # in V by h- h+; the audit leaves that sample out of the virial
    # residuals, so they stay at the unclipped run's level
    g = hnls_grid(n=32, length=20.0)
    f = gaussian_field(g, amplitude=1.0, width=1.5, boost=(0.5, -0.3))
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    reps, series = {}, {}
    for t_end in (0.05, 0.0500001, 0.050000000005, 0.055):
        _, series[t_end] = run(f, problem, RunConfig(t_end=t_end))
        reps[t_end] = verify_conservation(series[t_end])
    base = reps[0.05]
    for t_end in (0.0500001, 0.050000000005):
        h = np.diff(series[t_end].t)
        assert h[-1] < 1e-3 * h[-2]
        rep = reps[t_end]
        assert rep.virial_rate_residual <= 2.0 * base.virial_rate_residual
        assert rep.virial_second_residual <= 2.0 * base.virial_second_residual
    # intervals 0.01 then 0.005 (ratio 2): every sample is audited, so the
    # residuals are the three-point formula's over all of them, bit for bit
    s, rep = series[0.055], reps[0.055]
    h = np.diff(s.t)
    assert h[-1] == pytest.approx(0.5 * h[-2])
    quot = np.diff(s.column("virial")) / h
    span = h[:-1] + h[1:]
    dV = (h[1:] * quot[:-1] + h[:-1] * quot[1:]) / span
    d2V = 2.0 * (quot[1:] - quot[:-1]) / span
    for got, d, col in ((rep.virial_rate_residual, dV, "virial_rate"),
                        (rep.virial_second_residual, d2V, "virial_rhs")):
        assert got == float(np.max(np.abs(d - s.column(col)[1:-1])))


def _lstsq_com_fit(series):
    """The centre-of-mass slopes and relative fit residual of
    `verify_conservation` by numpy's least-squares solver."""
    t = series.t
    A = np.vstack([t, np.ones_like(t)]).T
    slopes, res, excursion = [], 0.0, 0.0
    for j in range(len(series.alpha)):
        c = series.column("com", j)
        (slope, icpt), *_ = np.linalg.lstsq(A, c, rcond=None)
        slopes.append(slope)
        res = max(res, np.max(np.abs(c - (slope * t + icpt))))
        excursion = max(excursion, np.max(c) - np.min(c))
    return slopes, res / excursion, excursion / (t[-1] - t[0])


@pytest.mark.parametrize("run_config", [
    RunConfig(t_end=0.1, dt0=1e-3, sample_stride=10),
    RunConfig(t_end=0.1, dt0=4e-3, sample_stride=2, adapt=True),
    RunConfig(t_end=0.0955, dt0=1e-3, sample_stride=10)],
    ids=["uniform", "adaptive", "clipped"])
def test_com_fit_matches_least_squares(run_config):
    # the closed-form line through each com_j(t) against lstsq's, on a
    # focusing run whose centre of mass bends off a line, both to 1e-12 of
    # the excursion (the fit residual is relative to it already; measured
    # 4e-15, and slopes within 5e-15 of excursion / time span)
    g = hnls_grid(n=32, length=20.0)
    f = gaussian_field(g, amplitude=1.5, width=1.2, center=(1.0, -0.5),
                       boost=(0.6, -0.4))
    _, series = run(f, EvolutionProblem(
        g, lam=1.0, sigma=2.0,
        potential=harmonic_saddle_potential(g, 0.3)), run_config)
    h = np.diff(series.t)
    if run_config.adapt:
        assert np.ptp(h) > 1e-3 * h[0]
    rep = verify_conservation(series)
    slopes, residual, scale = _lstsq_com_fit(series)
    assert rep.com_fit_residual > 1e-3
    assert abs(rep.com_fit_residual - residual) <= 1e-12
    for got, ref in zip(rep.com_slope, slopes):
        assert abs(got - ref) <= 1e-12 * scale


def test_conservation_report_elliptic_run():
    # same audit on the all-plus signature: the centre of mass moves at
    # 2 p_j on every axis
    g = nls_grid(n=64, length=40.0)
    f = gaussian_field(g, amplitude=0.6, width=1.4, boost=(0.5, 0.3))
    problem = EvolutionProblem(g, lam=-1.0, sigma=2.0)
    cfg = RunConfig(t_end=0.2, dt0=5e-4, sample_stride=20)
    _, series = run(f, problem, cfg)
    rep = verify_conservation(series)
    for j in range(2):
        assert np.isclose(rep.com_slope[j], rep.com_predicted[j],
                          rtol=1e-3)
    assert rep.virial_rate_residual < 1e-4 * rep.virial_scale


def test_energy_with_potential_term():
    g = hnls_grid(n=32)
    X, Y = g.meshgrid()
    V = 0.3 * (X**2 - Y**2)
    f = gaussian_field(g, width=1.0)
    e0 = energy(f, 1.0, 2.0)
    e1 = energy(f, 1.0, 2.0, potential=V)
    extra = 0.5 * g.cell * float(np.sum(V * np.abs(f.values) ** 2))
    assert np.isclose(e1 - e0, extra, rtol=1e-12)
