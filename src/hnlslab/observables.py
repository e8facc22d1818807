"""Conserved quantities and moment diagnostics for a field trajectory.

The energy uses the signature-weighted gradient

    E = 1/2 sum_j alpha_j int |d_j u|^2  -  lambda/(sigma+2) int |u|^(sigma+2)

which reduces to the usual splitting (x minus transverse) for the hyperbolic
signature.  Two moment-flux conventions are tracked side by side, because
they differ in the wild: `virial_rate` is the one that actually differentiates
the signed second moment (verified against centered differences in the test
suite); `virial_rate_signed` weights the transverse axes with the signature
sign instead and is reported for reference only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import spectral
from . import fields
from .fields import (ComplexField, FieldDataError, Grid, _abs2_marginals,
                     _field_sums, _in_order, _parseval, spectral_derivative)

# boundary mass fraction above which moment observables are untrustworthy
MOMENT_BOUNDARY_TOL = 1e-8
_AUDIT_SAMPLES = 5      # samples `verify_conservation` needs


@dataclass
class ObservableSample:
    """All scalar diagnostics of one field at one instant."""
    t: float
    mass: float
    energy: float
    momentum: tuple          # Im int conj(u) d_j u, per axis
    com: tuple               # int x_j |u|^2, per axis
    virial: float            # int (sum_j sign(alpha_j) x_j^2) |u|^2
    virial_rate: float       # 4 sum_j |alpha_j| Im int conj(u) x_j d_j u
    virial_rate_signed: float  # 4 sum_j sign(alpha_j) Im int conj(u) x_j d_j u
    virial_rhs: float        # 16 E + 4 lambda ((2d+4)/(sigma+2) - d) int |u|^(sigma+2)
    lsig2: float             # int |u|^(sigma+2)
    linf: float
    boundary_fraction: float
    moments_ok: bool         # False once boundary mass pollutes the moments


@dataclass
class ObservableSeries:
    alpha: tuple
    samples: list = dc_field(default_factory=list)

    def append(self, s: ObservableSample):
        self.samples.append(s)

    def column(self, name: str, axis: int | None = None) -> np.ndarray:
        if axis is None:
            return np.array([getattr(s, name) for s in self.samples])
        return np.array([getattr(s, name)[axis] for s in self.samples])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def __len__(self):
        return len(self.samples)


def _energy(grid: Grid, spectrum: np.ndarray, lsig2: float,
            potential_sum: float | None, lam: float, sigma: float) -> float:
    """E from the spectrum, lsig2 = int |u|^(sigma+2) and potential_sum =
    sum V |u|^2 (None without a potential).  The kinetic term
    sum_j alpha_j int |d_j u|^2 is the Parseval sum of the per-axis
    marginals of |u^|^2 weighted by grid.axis_symbol, as
    `gradient_sq_integral` weights them by xi_j^2; they are reduced chunk
    by chunk (`_abs2_marginals`), so no full-size array is formed."""
    kin = _parseval(grid, _abs2_marginals(spectrum), grid.axis_symbol)
    e = 0.5 * kin - lam / (sigma + 2.0) * lsig2
    if potential_sum is not None:
        e += 0.5 * grid.cell * potential_sum
    return e


def energy(field: ComplexField, lam: float, sigma: float,
           potential: np.ndarray | None = None, *,
           spectrum: np.ndarray | None = None) -> float:
    """Signature-weighted energy; optional static real potential adds
    1/2 int V |u|^2.  `spectrum`, when given, must be fftn(field.values)."""
    sums = _field_sums(field.values, powers=(sigma + 2.0,),
                       potential=potential)
    if spectrum is None:
        spectrum = spectral.fftn(field.values)
    return _energy(field.grid, spectrum, field.grid.cell * sums.powers[0],
                   sums.potential, lam, sigma)


def _flux_marginals(field: ComplexField, spectrum: np.ndarray) -> list:
    """Per axis j the marginal Q_j(x_j) = Im sum over the other axes of
    conj(u) d_j u, from the spectrum of u.

    For d >= 2 no full d_j u is formed.  The spectrum is cut into slabs of
    the other axes' wavenumbers; each slab is transformed back along axis
    j alone, as u_j = ifft_j(u^) and du_j = ifft_j(i xi_j u^), and by
    Parseval over the other axes Q_j = Im sum conj(u_j) du_j / N_other.
    That is two 1-D passes per axis, 2d in all where d inverse transforms
    of the whole field take d^2.  For d = 1 the field itself stands in for
    u_j, and d_x u is one inverse transform."""
    grid = field.grid
    if grid.d == 1:
        du = spectral_derivative(field, 0, spectrum=spectrum).values
        return [_flux_density(field.values, du)]
    out = []
    for j in range(grid.d):
        # slabs are rows of another axis, swapped first; j lies at `axis`
        other = 1 if j == 0 else 0
        axis = 1 if j == 0 else j
        shape = [1] * grid.d
        shape[axis] = grid.n[j]
        # no name holds an axis's partials once they are summed, so the
        # next axis streams beside this one's marginal alone
        out.append(_in_order(spectral.streamed(
            _flux_chunk, (spectrum.swapaxes(0, other),),
            (complex, complex), axis, (1j * grid.xi[j]).reshape(shape)))
            / float(math.prod(grid.n) // grid.n[j]))
    return out


def _flux_density(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Im(conj(u) du) = u.re du.im - u.im du.re, formed in du's buffer and
    returned as a view of it."""
    q, t = du.imag, du.real
    np.multiply(u.real, q, out=q)
    np.multiply(u.imag, t, out=t)
    q -= t
    return q


def _flux_chunk(slab, u_j, du_j, axis, ixi) -> np.ndarray:
    """One slab's share of `_flux_marginals` along `axis`, through the
    scratch u_j and du_j."""
    np.copyto(u_j, slab)
    # from the contiguous copy: a strided slab would take two of numpy's
    # iterator buffers, not one
    np.multiply(u_j, ixi, out=du_j)
    spectral.ifft_along(u_j, axis)
    spectral.ifft_along(du_j, axis)
    q = _flux_density(u_j, du_j)
    return q.sum(axis=tuple(k for k in range(q.ndim) if k != axis))


def sample(field: ComplexField, lam: float, sigma: float,
           potential: np.ndarray | None = None, *,
           spectrum: np.ndarray | None = None) -> ObservableSample:
    """Compute every scalar diagnostic of `field` in one pass.

    The moment fluxes and the kinetic energy all come from one spectrum:
    `spectrum` if given (it must be fftn(field.values)), else one forward
    FFT here.  Beyond it a sample costs two 1-D inverse passes per axis
    (`_flux_marginals`), for d = 1 one inverse FFT.

    Every full-grid reduction walks bounded chunks, so beside the field
    and the spectrum a sample holds one chunk's scratch per row block at a
    time and no full-size array (d = 1 forms d_x u).  One streamed pass
    over |u|^2 (`fields._field_sums`) gives mass, linf, the finiteness
    test, |u|^(sigma+2), the potential term, the edge slabs of the
    boundary fraction and, as a 1-D marginal per axis, the centre of mass
    and virial.  Per axis the marginal of q_j = Im(conj(u) d_j u) gives
    both the momentum and the moment flux; and the per-axis marginals of
    |u^|^2, taken in one more streamed pass, give the kinetic energy.
    """
    g = field.grid
    w = g.cell
    u = field.values
    sums = _field_sums(u, powers=(sigma + 2.0,), potential=potential,
                       band=fields.EDGE_BAND, marginals=True)
    if not sums.finite:
        raise FieldDataError("sample: field contains NaN or Inf")
    total = sums.total
    linf = float(np.sqrt(sums.top))
    lsig2 = g.cell * sums.powers[0]
    bf = 0.0 if total == 0.0 else sums.edge / total
    if spectrum is None:
        spectrum = spectral.fftn(u)

    mom = []
    com = []
    rate_abs = 0.0
    rate_signed = 0.0
    virial = 0.0
    for j, qj in enumerate(_flux_marginals(field, spectrum)):
        a2j = sums.marginals[j]
        xj = g.coords[j]
        flux = w * float(np.sum(xj * qj))
        sgn = 1.0 if g.alpha[j] >= 0 else -1.0
        mom.append(w * float(np.sum(qj)))
        com.append(w * float(np.sum(xj * a2j)))
        rate_abs += 4.0 * abs(g.alpha[j]) * flux
        rate_signed += 4.0 * sgn * flux
        virial += sgn * w * float(np.sum(xj * xj * a2j))

    e = _energy(g, spectrum, lsig2, sums.potential, lam, sigma)
    d = g.d
    rhs = 16.0 * e + 4.0 * lam * ((2.0 * d + 4.0) / (sigma + 2.0) - d) * lsig2
    return ObservableSample(
        t=field.t, mass=w * total, energy=e, momentum=tuple(mom),
        com=tuple(com), virial=virial, virial_rate=rate_abs,
        virial_rate_signed=rate_signed, virial_rhs=rhs, lsig2=lsig2,
        linf=linf, boundary_fraction=bf,
        moments_ok=bool(bf <= MOMENT_BOUNDARY_TOL))


@dataclass
class ConservationReport:
    """Drift and identity residuals measured over a sampled trajectory.

    Drifts are relative to the initial value (mass, energy) or normalized by
    the initial mass (momentum, whose initial value may legitimately be 0).
    `com_slope` / `com_predicted` compare the fitted linear center-of-mass
    motion against 2 * alpha_j * momentum_j; `com_single_factor_ratio` records
    slope / momentum_j for reference.  The virial residuals are based on
    centered first/second differences at the interior sample times, tested
    against both flux conventions; `rate_convention` records which matched.
    """
    mass_drift: float
    energy_drift: float
    momentum_drift: float
    com_slope: tuple
    com_predicted: tuple
    com_fit_residual: float
    com_single_factor_ratio: tuple
    ysign_matches_flip: bool | None
    virial_rate_residual: float
    virial_rate_signed_residual: float
    rate_convention: str
    virial_scale: float
    virial_second_residual: float
    virial_second_scale: float
    moments_ok: bool


def _rel_drift(col: np.ndarray) -> float:
    ref = abs(col[0])
    if ref == 0.0:
        ref = max(np.max(np.abs(col)), 1.0)
    return float(np.max(np.abs(col - col[0])) / ref)


def verify_conservation(series: ObservableSeries) -> ConservationReport:
    """Audit a sampled run: drifts, center-of-mass linearity, virial identities.

    Needs at least 5 samples.  The virial derivatives are three-point
    differences at the interior samples on the series' own time grid,
    which need not be uniform (an adaptive run, or a last interval clipped
    to land on t_end): with h- and h+ the intervals before and after a
    sample and D- and D+ the difference quotients over them,
    dV/dt = (h+ D- + h- D+) / (h- + h+) and d2V/dt2 = 2 (D+ - D-) / (h- + h+),
    which are the centered differences when h- = h+.  A sample whose two
    intervals differ by more than 1e3x (a last step clipped to a sliver
    of dt) is left out of the virial residuals, since its d2V divides the
    roundoff in V by h- h+; every sample is kept when none qualifies.
    The drifts and the center-of-mass fit, an ordinary least-squares
    line, use every sample.
    """
    if len(series) < _AUDIT_SAMPLES:
        raise ValueError(f"verify_conservation needs at least "
                         f"{_AUDIT_SAMPLES} samples")
    t = series.t

    mass = series.column("mass")
    en = series.column("energy")
    mass_drift = _rel_drift(mass)
    energy_drift = _rel_drift(en)

    d = len(series.alpha)
    mom_drift = 0.0
    slopes, preds, ratios = [], [], []
    fit_res = 0.0
    excursion = 0.0
    for j in range(d):
        pj = series.column("momentum", j)
        mom_drift = max(mom_drift, float(np.max(np.abs(pj - pj[0]))) / max(mass[0], 1e-300))
        cj = series.column("com", j)
        A = np.vstack([t, np.ones_like(t)]).T
        (slope, icpt), *_ = np.linalg.lstsq(A, cj, rcond=None)
        slopes.append(float(slope))
        preds.append(float(2.0 * series.alpha[j] * np.mean(pj)))
        pm = float(np.mean(pj))
        ratios.append(float(slope / pm) if pm != 0.0 else float("nan"))
        fit_res = max(fit_res, float(np.max(np.abs(cj - (slope * t + icpt)))))
        excursion = max(excursion, float(np.max(cj) - np.min(cj)))
    fit_res = fit_res / max(excursion, 1e-300)

    ysign = None
    if d >= 2 and any(a < 0 for a in series.alpha):
        j = next(i for i, a in enumerate(series.alpha) if a < 0)
        pj = float(np.mean(series.column("momentum", j)))
        if abs(pj) > 0 and abs(slopes[j]) > 0:
            ysign = bool(np.sign(slopes[j]) == -np.sign(pj))

    V = series.column("virial")
    rate = series.column("virial_rate")
    rate_s = series.column("virial_rate_signed")
    rhs = series.column("virial_rhs")
    h = np.diff(t)
    quot = np.diff(V) / h
    hm, hp, span = h[:-1], h[1:], h[:-1] + h[1:]
    dV = (hp * quot[:-1] + hm * quot[1:]) / span
    d2V = 2.0 * (quot[1:] - quot[:-1]) / span
    a, b = np.abs(hm), np.abs(hp)
    keep = np.maximum(a, b) <= 1e3 * np.minimum(a, b)
    if not keep.any():
        keep[:] = True
    dV, d2V, mid = dV[keep], d2V[keep], np.flatnonzero(keep) + 1
    res_rate = float(np.max(np.abs(dV - rate[mid])))
    res_rate_s = float(np.max(np.abs(dV - rate_s[mid])))
    scale = max(float(np.max(np.abs(rate))), 1e-300)
    res_second = float(np.max(np.abs(d2V - rhs[mid])))
    scale2 = max(float(np.max(np.abs(16.0 * en))), 1e-300)

    return ConservationReport(
        mass_drift=mass_drift, energy_drift=energy_drift,
        momentum_drift=mom_drift,
        com_slope=tuple(slopes), com_predicted=tuple(preds),
        com_fit_residual=fit_res, com_single_factor_ratio=tuple(ratios),
        ysign_matches_flip=ysign,
        virial_rate_residual=res_rate,
        virial_rate_signed_residual=res_rate_s,
        rate_convention="dilation" if res_rate <= res_rate_s else "signature-signed",
        virial_scale=scale,
        virial_second_residual=res_second, virial_second_scale=scale2,
        moments_ok=all(s.moments_ok for s in series.samples))
