"""Tests for the 1-D radial reduction, cone trace, and ground state."""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh

from hnlslab.radial import (
    BC_DIRICHLET,
    BC_REGULARITY,
    ConcentrationScan,
    RadialProfile,
    RadialTrajectory,
    concentration_scan,
    cone_trace_jump,
    make_radial_profile,
    radial_energy,
    radial_laplacian_dense,
    radial_mass,
    radial_weights,
    save_radial_csv,
    shoot_ground_state,
    solve_radial,
    _active_slice,
    _CrankNicolsonHalf,
    _laplacian_triplets,
    _series_start,
    _shoot_rhs,
)
from hnlslab import radial
from hnlslab.artifacts import load_series_csv
from hnlslab.evolution import STATUS_BLOWNUP, STATUS_DONE
from conftest import BAD_NONLINEARITY, hnls_grid

# frozen from the shooting oracle (DOP853 classifier, bracket bisection);
# stable to ~1e-10 across r_max in {25, 40} and n in {4096, 8192, 16384},
# and 2*pi*mass reproduces the classical critical-mass constant 11.7008
Q0_CUBIC = 2.2062008646


@pytest.fixture(scope="module")
def focusing_blowup():
    prof = make_radial_profile(1024, 15.0, lambda r: 3.5 * np.exp(-r * r),
                               lam=1.0, sigma=2.0)
    return prof, solve_radial(prof, 2e-3, 1.0, adapt=True,
                              linf_ceiling=60.0, sample_stride=5)


# ---------------------------------------------------------------------------
# profile plumbing

def test_profile_validation():
    r = np.linspace(0.0, 10.0, 64)
    with pytest.raises(ValueError, match="uniform"):
        RadialProfile(r=r ** 1.5, values=np.zeros(64), lam=1.0, sigma=2.0)
    with pytest.raises(ValueError, match="at least 8"):
        RadialProfile(r=r[:4], values=np.zeros(4), lam=1.0, sigma=2.0)
    with pytest.raises(ValueError, match="sign"):
        RadialProfile(r=r, values=np.zeros(64), lam=1.0, sigma=2.0, sign=2)
    with pytest.raises(ValueError, match="exactly zero"):
        RadialProfile(r=r, values=np.ones(64), lam=1.0, sigma=2.0)
    with pytest.raises(ValueError, match="finite"):
        vals = np.zeros(64)
        vals[3] = np.nan
        RadialProfile(r=r, values=vals, lam=1.0, sigma=2.0)
    with pytest.raises(ValueError):
        make_radial_profile(64, 10.0, lambda r: r, eps=11.0)


def test_make_profile_resolves_boundary_conditions():
    p0 = make_radial_profile(64, 10.0, lambda r: np.exp(-r))
    assert p0.bc_inner == BC_REGULARITY
    assert p0.values[-1] == 0
    assert p0.values[0] == 1.0
    p1 = make_radial_profile(64, 10.0, lambda r: np.exp(-r), eps=0.5)
    assert p1.bc_inner == BC_DIRICHLET
    assert p1.values[0] == 0 and p1.values[-1] == 0


def test_stencil_is_symmetric_under_the_weights():
    # self-adjointness in the weighted inner product is what makes the
    # Crank-Nicolson map unitary, hence exact discrete mass conservation
    for eps in (0.0, 0.5):
        prof = make_radial_profile(96, 12.0, lambda r: np.exp(-r), eps=eps)
        A = radial_laplacian_dense(prof)
        w = radial_weights(prof)[_active_slice(96, prof.bc_inner)]
        M = w[:, None] * A
        assert np.max(np.abs(M - M.T)) < 1e-10 * np.max(np.abs(M))


def test_weights_give_second_order_quadrature():
    prof = make_radial_profile(4096, 20.0, lambda r: 1.5 * np.exp(-r * r))
    assert radial_mass(prof) == pytest.approx(1.5 ** 2 / 4.0, rel=1e-4)
    assert radial_energy(prof) == pytest.approx(
        1.5 ** 2 / 4.0 - 1.5 ** 4 / 32.0, rel=1e-3)


# ---------------------------------------------------------------------------
# solver

def test_eigenmode_rotates_at_discrete_rate():
    prof = make_radial_profile(512, 15.0, lambda r: np.zeros_like(r),
                               eps=0.5, lam=0.0, sigma=2.0)
    act = _active_slice(512, prof.bc_inner)
    A = radial_laplacian_dense(prof)
    d = np.sqrt(radial_weights(prof)[act])
    evals, evecs = eigh((A * d[:, None]) / d[None, :])
    a1 = evals[-1]
    v = evecs[:, -1] / d
    vals = np.zeros(512, dtype=complex)
    vals[act] = v
    res = solve_radial(prof.with_values(vals), 1e-3, 1.0, sample_stride=1000)
    assert res.steps == 1000
    out = res.profile.values
    assert np.max(np.abs(np.abs(out) - np.abs(vals))) < 1e-8
    big = np.abs(v) > 1e-3 * np.max(np.abs(v))
    ratio = out[act][big] / vals[act][big]
    assert np.max(np.abs(ratio - ratio.mean())) < 1e-10
    assert np.max(np.abs(ratio - np.exp(1j * a1 * 1.0))) < 1e-9


def test_constant_interior_follows_the_phase_ode():
    # data constant across the core, tapered to honor the outer wall; the
    # taper's influence has not reached r < 6 by t = 0.05
    def taper(r):
        out = np.ones_like(r)
        ramp = (r > 12) & (r < 16)
        out[ramp] = np.cos(0.5 * np.pi * (r[ramp] - 12) / 4) ** 2
        out[r >= 16] = 0.0
        return 1.3 * out

    prof = make_radial_profile(1024, 20.0, taper, lam=1.0, sigma=2.0)
    res = solve_radial(prof, 1e-3, 0.05, sample_stride=50)
    inner = prof.r < 6.0
    exact = 1.3 * np.exp(1j * 1.0 * 1.3 ** 2 * 0.05)
    assert np.max(np.abs(res.profile.values[inner] - exact)) < 1e-10


def test_mass_conserved_to_roundoff():
    for eps in (0.0, 0.4):
        prof = make_radial_profile(1024, 20.0,
                                   lambda r: 1.5 * np.exp(-r * r), eps=eps,
                                   lam=1.0, sigma=2.0)
        m0 = radial_mass(prof)
        res = solve_radial(prof, 1e-3, 1.0, sample_stride=100)
        assert res.steps == 1000
        assert abs(radial_mass(res.profile) - m0) / m0 < 1e-10


@pytest.mark.parametrize("sigma", [1.5, 4.0])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eps", [0.0, 0.4])
def test_mass_conserved_for_other_powers(sigma, sign, eps):
    # the sigma != 2 amplitude |F|^sigma, both wedges, both inner conditions
    prof = make_radial_profile(
        512, 20.0, lambda r: 1.2 * np.exp(-r * r) * np.exp(-0.3j * r * r),
        eps=eps, lam=1.0, sigma=sigma, sign=sign)
    m0 = radial_mass(prof)
    res = solve_radial(prof, 1e-3, 0.3, sample_stride=100)
    assert res.status == STATUS_DONE and res.steps == 300
    assert abs(radial_mass(res.profile) - m0) / m0 < 1e-10


def test_conjugation_identity():
    # the sign=-1 problem is the conjugate of the sign=+1 problem with lam
    # flipped: evolve both and compare after conjugating back
    def data(r):
        return 1.5 * np.exp(-r * r) * np.exp(-0.25j * r * r)

    prof = make_radial_profile(1024, 20.0, data, lam=1.0, sigma=2.0,
                               sign=-1)
    mirror = make_radial_profile(1024, 20.0, lambda r: np.conj(data(r)),
                                 lam=-1.0, sigma=2.0, sign=1)
    res = solve_radial(prof, 1e-3, 0.5)
    res_mirror = solve_radial(mirror, 1e-3, 0.5)
    diff = np.max(np.abs(res.profile.values
                         - np.conj(res_mirror.profile.values)))
    assert diff < 1e-10
    assert res.profile.sign == -1
    assert res.profile.lam == 1.0


def test_focusing_negative_energy_blows_up(focusing_blowup):
    prof, res = focusing_blowup
    assert radial_energy(prof) < 0
    assert res.status == STATUS_BLOWNUP
    # detection must precede the variance-vanishing bound sqrt(V0 / -8E)
    assert res.t_detect is not None
    assert res.t_detect < 0.35
    assert res.profile.linf() >= 60.0


def test_defocusing_twin_is_global():
    prof = make_radial_profile(1024, 15.0, lambda r: 3.5 * np.exp(-r * r),
                               lam=-1.0, sigma=2.0)
    res = solve_radial(prof, 2e-3, 1.0, adapt=True, linf_ceiling=60.0,
                       sample_stride=5)
    assert res.status == STATUS_DONE
    assert res.profile.t == pytest.approx(1.0)
    rep = concentration_scan(res.trajectory, [0.1, 0.2, 0.4])
    assert np.max(rep.series) <= 3.5 * 1.05
    assert not any(rep.increasing)


def test_concentration_scan_increases_toward_blowup(focusing_blowup):
    _, res = focusing_blowup
    rep = concentration_scan(res.trajectory, [0.1, 0.2, 0.4])
    assert rep.increasing == (True, True, True)
    assert rep.series.shape == (3, len(res.trajectory))
    assert np.all(rep.series[:, -1] >= 60.0)


def test_streamed_scan_matches_the_stored_trajectory_scan(focusing_blowup):
    # the same run scanned as it goes: the report's bits, and the run's,
    # equal those of the stored trajectory's scan
    prof, res = focusing_blowup
    eps = [0.1, 0.2, 0.4]
    scan = ConcentrationScan(prof.r, eps)
    streamed = solve_radial(prof, 2e-3, 1.0, adapt=True, linf_ceiling=60.0,
                            sample_stride=5, on_sample=scan.add)
    assert streamed.trajectory is None
    assert (streamed.status, streamed.t_detect, streamed.steps) == (
        res.status, res.t_detect, res.steps)
    assert streamed.profile.values.tobytes() == res.profile.values.tobytes()
    stored = concentration_scan(res.trajectory, eps)
    report = scan.report()
    assert len(scan) == len(res.trajectory)
    assert report.eps == stored.eps
    assert report.t.tobytes() == stored.t.tobytes()
    assert report.series.tobytes() == stored.series.tobytes()
    assert report.window == stored.window
    assert report.increasing == stored.increasing
    # the rule itself: sup |F| over r < eps of each stored snapshot
    rule = np.array([[np.max(np.abs(v[prof.r < e]))
                      for v in res.trajectory.values] for e in eps])
    assert report.series.tobytes() == rule.tobytes()


def test_concentration_scan_zero_data_and_validation():
    r = np.linspace(0.0, 10.0, 128)
    traj = RadialTrajectory(r)
    for k in range(5):
        traj.append(0.1 * k, np.zeros(128, dtype=complex))
    rep = concentration_scan(traj, [0.5, 1.0])
    assert np.all(rep.series == 0.0)
    assert rep.increasing == (False, False)
    with pytest.raises(ValueError):
        concentration_scan(traj, [0.0])
    with pytest.raises(ValueError, match="at least 5 samples, got 4"):
        scan = ConcentrationScan(r, [0.5])
        for t, vals in zip(traj.t[:4], traj.values):
            scan.add(t, vals)
        scan.report()


def test_solver_validation():
    prof = make_radial_profile(64, 10.0, lambda r: np.exp(-r * r))
    with pytest.raises(ValueError):
        solve_radial(prof, -1e-3, 1.0)
    with pytest.raises(ValueError):
        solve_radial(prof, 1e-3, -1.0)
    with pytest.raises(ValueError):
        solve_radial(prof, 1e-3, 1.0, sample_stride=0)


def _lapack_path(name, monkeypatch):
    """Point `_CrankNicolsonHalf` at numpy's LAPACK or scipy's binding."""
    lapack = {"numpy": radial._numpy_lapack,
              "scipy": radial._scipy_lapack}[name]()
    if lapack is None:
        pytest.skip("numpy's LAPACK lacks zgttrf/zgttrs")
    monkeypatch.setattr(radial, "_tridiagonal_lapack", lambda: lapack)


@pytest.mark.parametrize("path", ["numpy", "scipy"])
@pytest.mark.parametrize("n", [64, 2048])
@pytest.mark.parametrize("dt", [1e-4, 4e-4, 1e-2])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eps", [0.0, 0.5])       # regularity, Dirichlet
def test_crank_nicolson_half_matches_scipy_lapack_bit_for_bit(
        path, n, dt, sign, eps, monkeypatch):
    from scipy.linalg.lapack import zgttrf, zgttrs
    _lapack_path(path, monkeypatch)
    sub, diag, sup = trip = _laplacian_triplets(
        np.linspace(eps, 15.0, n), BC_REGULARITY if eps == 0 else BC_DIRICHLET)
    th = 0.25j * sign * dt
    *lu, info = zgttrf(-th * sub[1:], 1.0 - th * diag, -th * sup[:-1])
    assert info == 0
    cn = _CrankNicolsonHalf(trip, sign, dt)
    for mine, ref in zip(cn._lu[:4], lu[:4]):
        assert mine.tobytes() == ref.tobytes()
    assert np.array_equal(cn._lu[4], lu[4])           # pivots
    rng = np.random.default_rng(n)
    v = rng.standard_normal(len(diag)) + 1j * rng.standard_normal(len(diag))
    for _ in range(2):       # the second call reuses the solver's buffers
        rhs = (1.0 + th * diag) * v
        rhs[:-1] += (th * sup)[:-1] * v[1:]
        rhs[1:] += (th * sub)[1:] * v[:-1]
        x, info = zgttrs(*lu, rhs)
        assert info == 0
        got = cn.apply(v)
        assert got.tobytes() == x.tobytes()
        v = got.copy()


@pytest.mark.parametrize("path", ["numpy", "scipy"])
def test_crank_nicolson_half_refuses_a_singular_matrix(path, monkeypatch):
    # a diagonal of 1/th zeroes the left-hand matrix 1 - th * diag
    from scipy.linalg.lapack import zgttrf
    _lapack_path(path, monkeypatch)
    dt = 1e-3
    th = 0.25j * dt
    ok = _CrankNicolsonHalf((np.zeros(4), np.ones(4), np.zeros(4)), 1, dt)
    v = np.arange(4.0) + 1j
    assert np.allclose(ok.apply(v), (1 + th) / (1 - th) * v, rtol=1e-15)
    diag = np.full(4, 1 / th)
    info = zgttrf(np.zeros(3, complex), 1.0 - th * diag,
                  np.zeros(3, complex))[-1]
    assert info > 0
    with pytest.raises(ValueError, match=rf"singular \(zgttrf info={info}\)"):
        _CrankNicolsonHalf((np.zeros(4), diag, np.zeros(4)), 1, dt)


def test_solver_rejects_non_finite_times():
    # each of these used to hang or to report Done after 0 steps
    prof = make_radial_profile(64, 10.0, lambda r: np.exp(-r * r))
    for dt, t_end in ((1e-3, np.nan), (1e-3, np.inf), (np.nan, 1.0),
                      (np.inf, 1.0)):
        with pytest.raises(ValueError):
            solve_radial(prof, dt, t_end)
    mirrored = make_radial_profile(64, 10.0, lambda r: np.exp(-r * r),
                                   sign=-1)
    with pytest.raises(ValueError):
        solve_radial(mirrored, 1e-3, np.nan)


def test_trajectory_interface():
    r = np.linspace(0.0, 10.0, 64)
    traj = RadialTrajectory(r)
    with pytest.raises(ValueError):
        traj.at(0.0)          # fewer than 4 snapshots
    for k in range(5):
        traj.append(0.1 * k, np.full(64, k, dtype=complex))
    assert np.all(traj.at(0.2) == 2.0)  # node access is exact
    assert traj.at(0.35)[0] == pytest.approx(3.5)  # cubic through linear data
    with pytest.raises(ValueError):
        traj.at(0.55)
    with pytest.raises(ValueError):
        traj.append(0.3, np.zeros(64, dtype=complex))
    assert [v[0] for v in traj.values] == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        traj.values[0][0] = 9.0   # the stored snapshots are read-only
    assert traj.at(0.2).flags.writeable   # a read is a copy


# ---------------------------------------------------------------------------
# ground state

def test_ground_state_matches_frozen_oracle(ground_state):
    gs = ground_state
    assert abs(gs.q0 - Q0_CUBIC) < 1e-8
    assert np.all(gs.values > 0)
    assert np.all(np.diff(gs.values) < 0)
    assert gs.values[-1] < 1e-8 * gs.q0
    assert gs.decay_residual < 1e-3


def test_ground_state_interior_residual(ground_state):
    gs = ground_state
    q, r = gs.values, gs.r
    h = r[1] - r[0]
    i = np.arange(2, len(r) - 2)
    d1 = (-q[i + 2] + 8 * q[i + 1] - 8 * q[i - 1] + q[i - 2]) / (12 * h)
    d2 = (-q[i + 2] + 16 * q[i + 1] - 30 * q[i] + 16 * q[i - 1] - q[i - 2]) \
        / (12 * h * h)
    res = d2 + d1 / r[i] - q[i] + q[i] ** 3
    # below r ~ 0.5 the 1/r factor amplifies the stencil's own truncation
    # (the profile there is checked against a tight integrator instead)
    interior = r[i] >= 0.5
    assert np.max(np.abs(res[interior])) < 1e-8

    qv, pv = _series_start(gs.q0, 2.0, h)
    sol = solve_ivp(_shoot_rhs, (h, 1.0), [qv, pv], args=(2.0,),
                    method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True)
    sel = (r >= h) & (r <= 1.0)
    assert np.max(np.abs(q[sel] - sol.sol(r[sel])[0])) < 1e-10


def test_ground_state_mass_stable_across_resolutions(ground_state):
    fine = shoot_ground_state(2.0, r_max=25.0, n=8192)
    m_coarse = np.trapezoid(ground_state.values ** 2 * ground_state.r,
                            ground_state.r)
    m_fine = np.trapezoid(fine.values ** 2 * fine.r, fine.r)
    assert abs(m_fine - m_coarse) / m_fine < 1e-4
    assert abs(fine.q0 - ground_state.q0) < 1e-9


def test_ground_state_wrong_bracket_raises():
    with pytest.raises(ValueError, match="no sign change"):
        shoot_ground_state(2.0, bracket=(0.1, 0.2))


# ---------------------------------------------------------------------------
# cone trace jump

def test_branch_data_is_continuous_at_time_zero(ground_state):
    # branch data Q(r) and e^{-i s^2/4} Q(s): equal moduli at equal radius
    gs = ground_state
    phi = make_radial_profile(2048, 25.0, np.interp(
        np.linspace(0, 25.0, 2048), gs.r, gs.values))
    psi_vals = phi.values * np.exp(-0.25j * phi.r ** 2)
    psi = phi.with_values(psi_vals)
    assert np.max(np.abs(np.abs(psi.values) - np.abs(phi.values))) < 1e-12

    def traj_from(fn):
        tr = RadialTrajectory(phi.r)
        for tk in (0.0, 0.05, 0.1, 0.15):
            tr.append(tk, fn(tk))
        return tr

    tv = traj_from(lambda t: np.exp(1j * t) * phi.values)
    tw = traj_from(lambda t: psi.values * np.exp(1j * t))  # same modulus
    assert cone_trace_jump(tv, tw, 0.0) < 1e-6


def test_trace_jump_explicit_pair(ground_state):
    # V = e^{it} Q and its pseudo-conformal transform W: the origin trace
    # of |W| is (1-t)^{-1} Q(0), so the jump at t = 1/2 is exactly Q(0)
    gs = ground_state
    Q = CubicSpline(gs.r, gs.values)
    rgrid = np.linspace(0.0, 25.0, 2048)

    def v_at(t):
        return np.exp(1j * t) * Q(rgrid)

    def w_at(t):
        arg = rgrid / (1 - t)
        base = np.where(arg <= 25.0, Q(np.clip(arg, 0, 25.0)), 0.0)
        return (1 - t) ** -1 * np.exp(1j * t / (1 - t)) * base \
            * np.exp(-0.25j * rgrid ** 2 / (1 - t))

    tv = RadialTrajectory(rgrid)
    tw = RadialTrajectory(rgrid)
    for tk in (0.3, 0.4, 0.5, 0.6, 0.7):
        tv.append(tk, v_at(tk))
        tw.append(tk, w_at(tk))
    jump = cone_trace_jump(tv, tw, 0.5)
    assert abs(jump - gs.q0) < 0.05 * gs.q0
    # identical trajectories: the jump vanishes identically
    assert cone_trace_jump(tv, tv, 0.5) == 0.0


# ---------------------------------------------------------------------------
# serialization

def test_radial_csv_roundtrip(tmp_path):
    prof = make_radial_profile(256, 12.0,
                               lambda r: np.exp(-r * r) * (1 + 0.5j))
    path = tmp_path / "profile.csv"
    save_radial_csv(prof, path)
    back = load_series_csv(path)
    np.testing.assert_allclose(back["r"], prof.r, atol=0, rtol=1e-15)
    np.testing.assert_allclose(back["re"] + 1j * back["im"], prof.values,
                               atol=1e-16)
    header = path.read_text().splitlines()[0]
    assert header == "r,re,im"


def test_radial_csv_write_is_atomic(tmp_path, monkeypatch):
    # a failed rename raises and leaves the old file and no temporary
    prof = make_radial_profile(64, 12.0, lambda r: np.exp(-r * r))
    path = tmp_path / "profile.csv"
    save_radial_csv(prof, path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_radial_csv(prof.with_values(2.0 * prof.values), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["profile.csv"]


@pytest.mark.parametrize("lam, sigma", BAD_NONLINEARITY)
def test_radial_profile_rejects_non_finite_nonlinearity(lam, sigma):
    with pytest.raises(ValueError):
        make_radial_profile(64, 12.0, lambda r: np.exp(-r * r), lam=lam,
                            sigma=sigma)


def test_package_import_leaves_scipy_unloaded():
    # the ground-state shooting imports scipy when it runs; the radial
    # solver needs it only where numpy's LAPACK lacks zgttrf/zgttrs
    import hnlslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnlslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, hnlslab; "
            "assert hnlslab.solve_radial and hnlslab.shoot_ground_state; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_scipy_is_imported_only_where_the_radial_module_needs_it():
    # every scipy import in the package, as (enclosing function, module):
    # the LAPACK fallback, and the ground-state shooting's integrator and
    # Bessel tail
    import hnlslab
    found = set()

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.update((inner, name) for name in names
                         if name.split(".")[0] == "scipy")
            walk(child, inner)

    for path in sorted(pathlib.Path(hnlslab.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {("radial._scipy_lapack", "scipy.linalg.lapack"),
                     ("radial._classify_shot", "scipy.integrate"),
                     ("radial.shoot_ground_state", "scipy.special")}
