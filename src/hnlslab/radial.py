"""Hyperbolically symmetric fields reduce to 1-D radial problems.

A field that is constant on the hyperbolas x^2 - y^2 = const is described
by two radial profiles: one on the |x| > |y| wedge, where the equation
becomes the ordinary radial NLS  i F_t + F_rr + F_r/r + lam |F|^s F = 0,
and one on the |y| > |x| wedge, where the Laplacian enters with the
opposite sign (conjugating the profile and flipping lam maps the second
problem onto the first).  This module hosts the 1-D solver for both, the
trace-jump diagnostic at the cone |x| = |y|, the ground-state shooting
machinery, and the concentration scan used to localize blow-up at the
cone.

The solver splits a step as N(h/2) C(h) N(h/2), the exact nonlinear
phase around a Crank-Nicolson linear step.  The half phases that meet
between steps are taken as one, so a step makes one phase map and one
tridiagonal solve, and the half phase a step leaves owed is paid before
each sample is taken and before the run returns.

The Crank-Nicolson step factors and solves its tridiagonal matrix with
LAPACK's zgttrf/zgttrs from the library numpy's own linear algebra links,
reached through ctypes, so a radial run loads nothing new; scipy's
binding of the same routines is the fallback where numpy's LAPACK lacks
them.  The ground-state shooting imports scipy inside the functions that
use it, so `import hnlslab` does not load it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .artifacts import save_series_csv
from .fields import cubic_read, lagrange_weights
from .evolution import (STATUS_DONE, MarchState, RunConfig,
                        _check_nonlinearity, _nonlinear_stage, march)

BC_DIRICHLET = "dirichlet"
BC_REGULARITY = "regularity"


@dataclass
class RadialProfile:
    """Complex profile on a uniform radial grid [eps, r_max].

    The inner boundary condition is tied to eps: a profile starting at
    eps > 0 is Dirichlet (hole of radius eps), one starting at 0 carries
    the regularity condition F'(0) = 0.  Dirichlet endpoints must be
    exactly zero; `make_radial_profile` zeroes them for you.
    """

    r: np.ndarray
    values: np.ndarray
    lam: float
    sigma: float
    sign: int = 1
    t: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.r.ndim != 1 or len(self.r) < 8:
            raise ValueError("radial grid must be 1-D with at least 8 nodes")
        if self.values.shape != self.r.shape:
            raise ValueError("values and radial grid shapes differ")
        dr = np.diff(self.r)
        if np.any(dr <= 0):
            raise ValueError("radial grid must be strictly increasing")
        if np.max(np.abs(dr - dr[0])) > 1e-9 * dr[0]:
            raise ValueError("radial grid must be uniform")
        if self.r[0] < 0:
            raise ValueError("radial grid must start at eps >= 0")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _check_nonlinearity(self.lam, self.sigma)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")
        if self.values[-1] != 0:
            raise ValueError("Dirichlet value at r_max must be exactly zero")
        if self.bc_inner == BC_DIRICHLET and self.values[0] != 0:
            raise ValueError("Dirichlet value at eps must be exactly zero")

    @property
    def eps(self) -> float:
        return float(self.r[0])

    @property
    def bc_inner(self) -> str:
        """The inner boundary condition, fixed by eps (see above)."""
        return BC_REGULARITY if self.eps == 0.0 else BC_DIRICHLET

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def h(self) -> float:
        return float(self.r[1] - self.r[0])

    def with_values(self, values: np.ndarray, t: float | None = None) -> "RadialProfile":
        return RadialProfile(r=self.r, values=values, lam=self.lam,
                             sigma=self.sigma, sign=self.sign,
                             t=self.t if t is None else float(t))

    def linf(self) -> float:
        return float(np.max(np.abs(self.values)))


def make_radial_profile(n: int, r_max: float, data, *, eps: float = 0.0,
                        lam: float = 1.0, sigma: float = 2.0, sign: int = 1,
                        t: float = 0.0) -> RadialProfile:
    """Sample `data` (callable of r, or an array) on a uniform grid and
    zero the Dirichlet endpoints."""
    if not 0 <= eps < r_max:
        raise ValueError("need 0 <= eps < r_max")
    r = np.linspace(eps, r_max, n)
    vals = np.asarray(data(r) if callable(data) else data,
                      dtype=np.complex128).copy()
    if vals.shape != r.shape:
        raise ValueError("data shape does not match the radial grid")
    vals[-1] = 0.0
    if eps > 0:
        vals[0] = 0.0
    return RadialProfile(r=r, values=vals, lam=lam, sigma=sigma,
                         sign=sign, t=t)


def _active_slice(n: int, bc_inner: str) -> slice:
    # nodes actually evolved: boundary Dirichlet nodes are pinned at zero
    return slice(0, n - 1) if bc_inner == BC_REGULARITY else slice(1, n - 1)


def _laplacian_triplets(r: np.ndarray, bc_inner: str):
    """(sub, diag, sup) of the discrete F_rr + F_r/r on the active nodes.

    Flux form (r F')'/r, which is symmetric under the weight r_i; the
    regularity row at r=0 uses 4(F_1 - F_0)/h^2 (its weight is h/8, see
    `radial_weights`), keeping the whole matrix weighted-symmetric so the
    Crank-Nicolson map is exactly unitary in the matching discrete norm.
    """
    h = r[1] - r[0]
    ra = r[_active_slice(len(r), bc_inner)].copy()
    if bc_inner == BC_REGULARITY:
        ra[0] = 1.0  # placeholder, row 0 is overwritten below
    sub = (ra - 0.5 * h) / (ra * h * h)
    sup = (ra + 0.5 * h) / (ra * h * h)
    diag = np.full(len(ra), -2.0 / (h * h))
    if bc_inner == BC_REGULARITY:
        sub[0] = 0.0
        diag[0] = -4.0 / (h * h)
        sup[0] = 4.0 / (h * h)
    return sub, diag, sup


def radial_laplacian_dense(profile: RadialProfile) -> np.ndarray:
    """Dense matrix of the discrete radial Laplacian on the active nodes
    (for eigen-oracles and diagnostics; the solver itself stays banded)."""
    sub, diag, sup = _laplacian_triplets(profile.r, profile.bc_inner)
    return (np.diag(diag) + np.diag(sup[:-1], 1) + np.diag(sub[1:], -1))


def radial_weights(profile: RadialProfile) -> np.ndarray:
    """Quadrature weights for integrals against r dr.

    Trapezoidal in r*h, except that the regularity node at r=0 carries
    h^2/8: that is the unique weight making the origin stencil symmetric,
    so the solver conserves this discrete mass to roundoff.
    """
    r, h = profile.r, profile.h
    w = r * h
    w[-1] = 0.5 * r[-1] * h
    if profile.bc_inner == BC_REGULARITY:
        w[0] = h * h / 8.0
    else:
        w[0] = 0.5 * r[0] * h
    return w


def radial_mass(profile: RadialProfile) -> float:
    w = radial_weights(profile)
    v = profile.values
    return float(np.sum(w * (v.real ** 2 + v.imag ** 2)))


def radial_energy(profile: RadialProfile) -> float:
    """Conserved energy of the reduced problem (kinetic via midpoint
    fluxes, which is the quadratic form of the solver's matrix)."""
    r, h, v = profile.r, profile.h, profile.values
    rmid = 0.5 * (r[1:] + r[:-1])
    kin = 0.5 * float(np.sum(rmid * np.abs(np.diff(v)) ** 2) / h)
    w = radial_weights(profile)
    pot = float(np.sum(w * np.abs(v) ** (profile.sigma + 2.0)))
    return kin - profile.sign * profile.lam / (profile.sigma + 2.0) * pot


class RadialTrajectory:
    """Time-ordered radial snapshots, read in t by `cubic_read`."""

    def __init__(self, r: np.ndarray):
        self.r = np.asarray(r, dtype=np.float64)
        self._t: list[float] = []
        self._vals: list[np.ndarray] = []

    def append(self, t: float, values: np.ndarray) -> None:
        if self._t and t <= self._t[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        if values.shape != self.r.shape:
            raise ValueError("snapshot shape does not match the radial grid")
        self._t.append(float(t))
        vals = np.array(values, dtype=np.complex128)
        vals.flags.writeable = False
        self._vals.append(vals)

    @property
    def t(self) -> np.ndarray:
        return np.array(self._t)

    @property
    def values(self) -> tuple:
        """The stored snapshots in time order, as read-only arrays."""
        return tuple(self._vals)

    def __len__(self) -> int:
        return len(self._t)

    def at(self, t: float) -> np.ndarray:
        """Values at time t by the `cubic_read` rule."""
        return cubic_read(self._t, self._vals, t)


@dataclass
class RadialRunResult:
    profile: RadialProfile
    status: str
    t_detect: float | None
    steps: int


def _numpy_lapack():
    """(factor, bind) through numpy's own LAPACK, or None where it lacks
    zgttrf/zgttrs.

    numpy's wheels link scipy-openblas64, an ILP64 LAPACK whose symbols
    carry a `scipy_` prefix and a `64_` suffix; `numpy.linalg` has loaded
    it already.  Every integer goes by pointer to an int64, and zgttrs
    takes the hidden Fortran length of its TRANS argument last.
    `factor(dl, d, du)` returns (dl, d, du, du2, ipiv), the diagonals
    factored in place (copied only if not contiguous complex), and
    zgttrf's info; `bind(lu, b)` returns a call that solves b, a
    contiguous complex array of the matrix's size, in place with those
    factors and returns zgttrs's info.  The call's arguments are built
    once: the pointers keep their arrays alive.
    """
    import ctypes
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        gttrf, gttrs = lib.scipy_zgttrf_64_, lib.scipy_zgttrs_64_
    except (OSError, AttributeError):
        return None
    p = ctypes.c_void_p
    gttrf.argtypes, gttrf.restype = [p] * 7, None
    gttrs.argtypes = [ctypes.c_char_p] + [p] * 10 + [ctypes.c_size_t]
    gttrs.restype = None

    def ptr(a):
        return a.ctypes.data_as(p)

    def factor(dl, d, du):
        dl, d, du = (np.ascontiguousarray(a, np.complex128)
                     for a in (dl, d, du))
        n = len(d)
        if not len(dl) == len(du) == n - 1:
            raise ValueError(f"off-diagonals of {len(dl)} and {len(du)} "
                             f"entries beside a diagonal of {n}")
        lu = (dl, d, du, np.zeros(max(n - 2, 0), np.complex128),
              np.zeros(n, np.int64))
        info = np.zeros(1, np.int64)
        gttrf(ptr(np.array([n], np.int64)), *map(ptr, lu), ptr(info))
        return lu, int(info[0])

    def bind(lu, b):
        if (b.dtype != np.complex128 or not b.flags.c_contiguous
                or b.shape != lu[1].shape):
            raise ValueError("the right-hand side must be a contiguous "
                             "complex array of the matrix's size")
        n, one, info = (np.array([k], np.int64) for k in (len(b), 1, 0))
        args = (b"N", ptr(n), ptr(one), *map(ptr, lu), ptr(b), ptr(n),
                ptr(info), 1)

        def solve() -> int:
            gttrs(*args)
            return int(info[0])
        return solve

    return factor, bind


def _scipy_lapack():
    """(factor, bind) of `_numpy_lapack` through scipy's LAPACK binding."""
    from scipy.linalg.lapack import zgttrf, zgttrs

    def factor(dl, d, du):
        *lu, info = zgttrf(dl, d, du)
        return tuple(lu), info

    def bind(lu, b):
        return lambda: zgttrs(*lu, b, overwrite_b=1)[1]

    return factor, bind


@functools.cache
def _tridiagonal_lapack():
    """The zgttrf/zgttrs pair of this process: numpy's LAPACK where it
    has them, which loads nothing, else scipy's."""
    return _numpy_lapack() or _scipy_lapack()


def _cayley_lhs(triplets, sign: int, dt: float) -> tuple:
    """(sub, diag, sup) of I - tau A, tau = i sign dt / 2, from A's
    `_laplacian_triplets`: the matrix the Crank-Nicolson step of size dt
    factors.  A box whose entries here are not finite cannot be stepped at
    dt; `runner._radial_rules` refuses it by this same expression."""
    sub, diag, sup = triplets
    tau = 0.5j * sign * dt
    return -tau * sub[1:], 1.0 - tau * diag, -tau * sup[:-1]


class _CrankNicolson:
    """Cayley map C(dt) = (I - tau A)^-1 (I + tau A), tau = i sign dt / 2,
    approximating exp(i sign A dt) on the active nodes.

    Since I + tau A = 2 I - (I - tau A), C(dt) v = 2 (I - tau A)^-1 v - v:
    the right-hand side of the solve is v itself.  The matrix
    (`_cayley_lhs`) is LU-factored once per dt (LAPACK zgttrf, partial
    pivoting, from `_tridiagonal_lapack`), and each `apply` copies v into a
    buffer kept with the factors, makes one zgttrs solve there in place,
    and writes 2 x - v back into v.
    """

    def __init__(self, triplets, sign: int, dt: float):
        factor, bind = _tridiagonal_lapack()
        self._lu, info = factor(*_cayley_lhs(triplets, sign, dt))
        if info != 0:
            raise ValueError(f"Crank-Nicolson matrix at dt={dt} is "
                             f"singular (zgttrf info={info})")
        self._x = np.empty_like(self._lu[1])
        self._solve = bind(self._lu, self._x)

    def apply(self, v: np.ndarray) -> None:
        """Map v in place; v must not share memory with the solver's
        buffer."""
        x = self._x
        np.copyto(x, v)
        info = self._solve()
        if info != 0:
            raise ValueError(f"zgttrs refused its arguments (info={info})")
        x += x
        np.subtract(x, v, out=v)


def solve_radial(profile: RadialProfile, config: RunConfig, *,
                 on_sample: Callable[[float, np.ndarray], None] | None = None,
                 ) -> RadialRunResult:
    """March a radial profile to config.t_end with Strang splitting
    N(h/2) C(h) N(h/2): half the exact pointwise nonlinear phase (the
    phase map of the evolution module), a Crank-Nicolson linear step, and
    another half phase.

    The half phases that meet between two steps are one phase map of the
    summed angle, so a step is one phase map and one tridiagonal solve:
    it pays the half phase the step before it left owed, with its own
    first half, and leaves its second half owed.  The owed phase is paid
    before each sample is taken and before the profile is returned, so a
    run that `march` stops without a sample (at the dt floor, or on a
    non-finite step) returns it whole; a change of h owes half of the old step
    plus half of the new one.  The step's sup bound is read after C(h): N keeps |F| pointwise,
    so that is the sup at the sample.  The scheme is second order,
    symmetric, and unitary in the weighted norm of `radial_weights`.

    Both signs run the same step: sign=-1 only flips the sign of the
    Laplacian in the Crank-Nicolson map.  Blow-up is a recorded outcome,
    as in the full-dimensional solver.

    Each sample (see `march`) goes to `on_sample(t, values)` when a hook
    is given, values being the solver's own array, which a hook that
    keeps it must copy (`RadialTrajectory(profile.r).append` does).  The
    run holds the profile, the Crank-Nicolson factors and what the hook
    keeps (a `ConcentrationScan` keeps one sup per radius per sample).
    """
    t_end = config.t_end
    if t_end < profile.t:
        raise ValueError("radial runs only march forward in time")

    trip = _laplacian_triplets(profile.r, profile.bc_inner)
    s, lam, sigma = profile.sign, profile.lam, profile.sigma
    vals = profile.values.copy()
    # the active nodes, a view: each stage maps them in place, and the
    # pinned wall nodes stay zero
    act = vals[_active_slice(len(vals), profile.bc_inner)]
    sup = float(np.max(np.abs(vals)))
    cn, built_dt, owed = None, None, 0.0
    mag = np.empty(len(act))

    def step(h: float) -> float:
        nonlocal sup, cn, built_dt, owed
        if h != built_dt:
            cn, built_dt = _CrankNicolson(trip, s, h), h
        _nonlinear_stage(act, owed + 0.5 * h, lam, sigma)
        cn.apply(act)
        owed = 0.5 * h
        sup = float(np.abs(act, out=mag).max())
        return sup

    def record(m: MarchState) -> float:
        nonlocal owed
        if owed:
            _nonlinear_stage(act, owed, lam, sigma)
            owed = 0.0
        if on_sample is not None:
            on_sample(t_end if m.status == STATUS_DONE else m.t, vals)
        return sup

    m = march(profile.t, config, sigma, step, record)
    if owed:    # a march that stops between samples leaves a half owed
        _nonlinear_stage(act, owed, lam, sigma)
    t = t_end if m.status == STATUS_DONE else m.t
    return RadialRunResult(profile=profile.with_values(vals, t=t),
                           status=m.status, t_detect=m.t_detect,
                           steps=m.steps)


# ---------------------------------------------------------------------------
# cone trace diagnostics

def _origin_limit(r: np.ndarray, mag: np.ndarray) -> float:
    # Lagrange extrapolation of |F| to r=0 from the innermost 4 nodes
    return float(sum(m * w for m, w in zip(mag[:4],
                                             lagrange_weights(r[:4], 0.0))))


def cone_trace_jump(phi_traj: RadialTrajectory, psi_traj: RadialTrajectory,
                    t: float) -> float:
    """|lim_{r->0+} |phi(t,r)| - lim_{s->0+} |psi(t,s)||, each limit taken
    by polynomial extrapolation from the innermost 4 nodes."""
    a = _origin_limit(phi_traj.r, np.abs(phi_traj.at(t)))
    b = _origin_limit(psi_traj.r, np.abs(psi_traj.at(t)))
    return abs(a - b)


# ---------------------------------------------------------------------------
# ground state shooting

@dataclass
class GroundState:
    """Positive decaying solution of Q'' + Q'/r - Q + Q^{sigma+1} = 0."""
    r: np.ndarray
    values: np.ndarray
    sigma: float
    q0: float
    decay_residual: float

    def __post_init__(self):
        if np.any(self.values <= 0):
            raise ValueError("ground state must be strictly positive")
        if np.any(np.diff(self.values) >= 0):
            raise ValueError("ground state must be strictly decreasing")


def _shoot_rhs(r, yv, sigma):
    qv, pv = yv
    return [pv, -pv / r + qv - np.abs(qv) ** sigma * qv]


def _series_start(q0: float, sigma: float, r0: float):
    # even Taylor expansion at the origin: Q = q0 + a2 r^2 + a4 r^4 + a6 r^6,
    # from matching powers in Q'' + Q'/r = g(Q) with g = Q - |Q|^sigma Q
    g0 = q0 - np.abs(q0) ** sigma * q0
    g1 = 1.0 - (sigma + 1.0) * np.abs(q0) ** sigma
    g2 = -sigma * (sigma + 1.0) * np.abs(q0) ** (sigma - 1.0) * np.sign(q0)
    a2 = g0 / 4.0
    a4 = g1 * a2 / 16.0
    a6 = (g1 * a4 + 0.5 * g2 * a2 * a2) / 36.0
    qv = q0 + a2 * r0 ** 2 + a4 * r0 ** 4 + a6 * r0 ** 6
    pv = 2.0 * a2 * r0 + 4.0 * a4 * r0 ** 3 + 6.0 * a6 * r0 ** 5
    return qv, pv


def _classify_shot(q0: float, sigma: float, r_span: float) -> str:
    """'cross' if Q hits zero, 'diverge' if it turns around and grows."""
    from scipy.integrate import solve_ivp
    r0 = 1e-3
    qv, pv = _series_start(q0, sigma, r0)

    def hit_zero(r, yv, s=sigma):
        return yv[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    def runaway(r, yv, s=sigma, top=1.2 * q0):
        return yv[0] - top
    runaway.terminal = True
    runaway.direction = 1

    # the bisection limit inherits this integrator's accuracy directly
    # (classification errors shift the decision boundary, and any offset
    # in Q(0) excites the growing tail mode), so the tolerances are tight
    sol = solve_ivp(_shoot_rhs, (r0, r_span), [qv, pv], args=(sigma,),
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    events=(hit_zero, runaway))
    if sol.t_events[0].size:
        return "cross"
    if sol.t_events[1].size:
        return "diverge"
    # no event within the span: read the tail.  A pure decaying tail has
    # Q' + Q slightly negative; any growing contamination turns it positive.
    return "diverge" if sol.y[0, -1] + sol.y[1, -1] > 0 else "cross"


def shoot_ground_state(sigma: float, r_max: float = 25.0,
                       bracket: tuple[float, float] = (2.0, 2.5), *,
                       n: int = 4096) -> GroundState:
    """Bisection on Q(0) for the positive decaying radial profile.

    The bisected trajectory is integrated with fixed-step RK4 so its
    error is a smooth function of r; past the radius where Q falls below
    5e-4 * Q(0) the profile is blended onto a fitted K0 Bessel tail
    (there the dropped nonlinear term is ~1e-9, and bisection cannot
    shape the tail below the e^{r} sensitivity floor anyway).  The blend
    mismatch is reported as decay_residual.
    """
    from scipy.special import k0 as bessel_k0
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    span = r_max + 15.0
    cls_lo = _classify_shot(lo, sigma, span)
    cls_hi = _classify_shot(hi, sigma, span)
    if cls_lo == cls_hi:
        raise ValueError(f"no sign change in bracket {bracket}: both ends "
                         f"{cls_lo!r}")
    for _ in range(80):
        if hi - lo <= 1e-14 * hi:
            break
        mid = 0.5 * (lo + hi)
        if _classify_shot(mid, sigma, span) == cls_lo:
            lo = mid
        else:
            hi = mid
    q0 = 0.5 * (lo + hi)

    r = np.linspace(0.0, r_max, n)
    h = r[1] - r[0]
    qvals = np.empty(n)
    qvals[0] = q0
    qv, pv = _series_start(q0, sigma, h)
    qvals[1] = qv
    state = np.array([qv, pv])

    def rhs(rr, yv):
        return np.array([yv[1],
                         -yv[1] / rr + yv[0] - np.abs(yv[0]) ** sigma * yv[0]])

    rr = h
    for i in range(2, n):
        # the 1/r coefficient costs RK4 accuracy near the origin, and any
        # error seeded there rides the growing e^{+r} mode all the way to
        # the tail, so the substep count is graded sharply toward r = 0
        if rr < 5.0 * h:
            sub = 64
        elif rr < 0.5:
            sub = 16
        else:
            sub = 2
        hh = h / sub
        for _ in range(sub):
            k1 = rhs(rr, state)
            k2 = rhs(rr + 0.5 * hh, state + 0.5 * hh * k1)
            k3 = rhs(rr + 0.5 * hh, state + 0.5 * hh * k2)
            k4 = rhs(rr + hh, state + hh * k3)
            state = state + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            rr += hh
        qvals[i] = state[0]
        rr = r[i]

    # graft the Bessel tail over a smooth blend window
    cut = np.nonzero(qvals <= 5e-4 * q0)[0]
    if cut.size == 0:
        raise ValueError("r_max too small: profile never reaches the tail "
                         "regime; increase r_max")
    i_g = int(cut[0])
    blend_n = min(int(round(3.0 / h)), n - 1 - i_g)
    if blend_n < 8:
        raise ValueError("r_max too small for the tail blend window")
    i_e = i_g + blend_n
    k0w = bessel_k0(r[i_g:i_e])
    amp = float(np.sum(qvals[i_g:i_e] * k0w) / np.sum(k0w * k0w))
    decay_residual = float(np.max(np.abs(qvals[i_g:i_e] - amp * k0w)
                                  / qvals[i_g:i_e]))
    w = np.sin(0.5 * np.pi * np.arange(blend_n) / (blend_n - 1.0)) ** 2
    tail = amp * bessel_k0(r[i_g:])
    qvals[i_g:i_e] = (1.0 - w) * qvals[i_g:i_e] + w * tail[:blend_n]
    qvals[i_e:] = tail[blend_n:]

    return GroundState(r=r, values=qvals, sigma=sigma, q0=q0,
                       decay_residual=decay_residual)


# ---------------------------------------------------------------------------
# concentration diagnostics and serialization

@dataclass
class ConcentrationReport:
    eps: tuple
    t: np.ndarray
    series: np.ndarray          # sup_{r < eps} |F| per sample time, per eps
    increasing: tuple           # strict increase over the trailing window
    window: int


_SCAN_SAMPLES = 5    # the shortest trailing window of a concentration scan


class ConcentrationScan:
    """The concentration scan taken sample by sample: `add(t, values)`
    keeps t and the sup of |values| over r < eps for each eps, one float
    each, and `report()` reads the series off them.  Passed as
    `solve_radial`'s `on_sample`, it scans a run that stores no profile."""

    def __init__(self, r: np.ndarray, eps_list):
        r = np.asarray(r, dtype=np.float64)
        self.eps = tuple(float(e) for e in eps_list)
        if not self.eps or min(self.eps) <= r[0]:
            raise ValueError("every eps must exceed the inner grid radius")
        self._inside = [r < e for e in self.eps]
        self._t = []
        self._sups = [[] for _ in self.eps]

    def __len__(self) -> int:
        return len(self._t)

    def add(self, t: float, values: np.ndarray) -> None:
        self._t.append(float(t))
        for inside, sups in zip(self._inside, self._sups):
            sups.append(float(np.max(np.abs(values[inside]))))

    def report(self) -> ConcentrationReport:
        """The series so far, and whether each increases strictly over the
        last tenth of the samples (at least 5)."""
        if len(self) < _SCAN_SAMPLES:
            raise ValueError(f"the scan needs at least {_SCAN_SAMPLES} "
                             f"samples, got {len(self)}")
        series = np.array(self._sups)
        window = max(_SCAN_SAMPLES, len(self) // 10)
        increasing = tuple(bool(np.all(np.diff(row[-window:]) > 0))
                           for row in series)
        return ConcentrationReport(eps=self.eps, t=np.array(self._t),
                                   series=series, increasing=increasing,
                                   window=window)


def concentration_scan(trajectory: RadialTrajectory,
                       eps_list) -> ConcentrationReport:
    """Sup of |F| over r < eps at every sampled time, and whether each
    series increases strictly over the last tenth of the samples (at
    least 5) - the signature of blow-up concentrating at the cone.  The
    stored snapshots are fed to a `ConcentrationScan`, so a run scanned
    as it goes reports the same bits."""
    scan = ConcentrationScan(trajectory.r, eps_list)
    for t, values in zip(trajectory.t, trajectory.values):
        scan.add(t, values)
    return scan.report()


def save_radial_csv(profile: RadialProfile, path) -> None:
    """Columns r, re, im under a header line, via `save_series_csv`."""
    save_series_csv(path, {"r": profile.r, "re": profile.values.real,
                           "im": profile.values.imag})

