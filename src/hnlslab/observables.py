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

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (ComplexField, FieldDataError, boundary_mass_fraction,
                     spectral_derivative)

# boundary mass fraction above which moment observables are untrustworthy
MOMENT_BOUNDARY_TOL = 1e-8


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
    lam: float
    sigma: float
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


def energy(field: ComplexField, lam: float, sigma: float,
           potential: np.ndarray | None = None, *,
           spectrum: np.ndarray | None = None) -> float:
    """Signature-weighted energy; optional static real potential adds
    1/2 int V |u|^2.  `spectrum`, when given, must be fftn(field.values)."""
    g = field.grid
    w = g.cell
    if spectrum is None:
        spectrum = np.fft.fftn(field.values)
    spec2 = np.abs(spectrum) ** 2
    npts = float(np.prod(g.n))
    kin = 0.0
    for j in range(g.d):
        kin += g.alpha[j] * float(np.sum(g.xi_along(j) ** 2 * spec2)) / npts
    a = np.abs(field.values)
    pot = float(np.sum(a ** (sigma + 2.0)))
    e = 0.5 * w * kin - lam / (sigma + 2.0) * w * pot
    if potential is not None:
        e += 0.5 * w * float(np.sum(potential * a ** 2))
    return e


def sample(field: ComplexField, lam: float, sigma: float,
           potential: np.ndarray | None = None, *,
           spectrum: np.ndarray | None = None) -> ObservableSample:
    """Compute every scalar diagnostic of `field` in one pass.

    The d derivatives and the kinetic energy all come from one spectrum:
    `spectrum` if given (it must be fftn(field.values)), else one forward
    FFT here.  A sample therefore costs d inverse FFTs plus that one.
    """
    if not field.is_finite():
        raise FieldDataError("sample: field contains NaN or Inf")
    if spectrum is None:
        spectrum = np.fft.fftn(field.values)
    g = field.grid
    w = g.cell
    u = field.values
    a2 = np.abs(u) ** 2
    mass = w * float(np.sum(a2))

    mom = []
    com = []
    rate_abs = 0.0
    rate_signed = 0.0
    virial = 0.0
    for j in range(g.d):
        du = spectral_derivative(field, j, spectrum=spectrum).values
        pj = w * float(np.sum(np.imag(np.conj(u) * du)))
        xj = g.coord_along(j)
        comj = w * float(np.sum(xj * a2))
        flux = w * float(np.sum(np.imag(np.conj(u) * (xj * du))))
        sgn = 1.0 if g.alpha[j] >= 0 else -1.0
        mom.append(pj)
        com.append(comj)
        rate_abs += 4.0 * abs(g.alpha[j]) * flux
        rate_signed += 4.0 * sgn * flux
        virial += sgn * w * float(np.sum(xj ** 2 * a2))

    lsig2 = w * float(np.sum(np.abs(u) ** (sigma + 2.0)))
    e = energy(field, lam, sigma, potential, spectrum=spectrum)
    d = g.d
    rhs = 16.0 * e + 4.0 * lam * ((2.0 * d + 4.0) / (sigma + 2.0) - d) * lsig2
    bf = boundary_mass_fraction(field)
    return ObservableSample(
        t=field.t, mass=mass, energy=e, momentum=tuple(mom), com=tuple(com),
        virial=virial, virial_rate=rate_abs, virial_rate_signed=rate_signed,
        virial_rhs=rhs, lsig2=lsig2, linf=float(np.sqrt(np.max(a2))),
        boundary_fraction=bf, moments_ok=bool(bf <= MOMENT_BOUNDARY_TOL))


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

    Needs at least 5 samples on a uniform time grid for the difference
    stencils; the center-of-mass fit is an ordinary least-squares line.
    """
    if len(series) < 5:
        raise ValueError("verify_conservation needs at least 5 samples")
    t = series.t
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(t[-1]), 1.0):
        raise ValueError("verify_conservation expects uniform sample times")
    h = dt[0]

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
    dV = (V[2:] - V[:-2]) / (2.0 * h)
    d2V = (V[2:] - 2.0 * V[1:-1] + V[:-2]) / h ** 2
    mid = slice(1, -1)
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
