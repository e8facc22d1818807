import numpy as np
import pytest

from hnlslab.evolution import (
    EvolutionProblem, FieldTrajectory, RunConfig,
    harmonic_saddle_potential, residual_hnls, run,
)
from hnlslab.fields import Grid, constant_field, gaussian_field
from hnlslab.transforms import (
    SymmetryParams, TransformError, apply_pct, apply_symmetry, closed_form_b,
    constraint_residuals, integrate_transform_odes, signature_quadratic,
)
from conftest import hnls_grid


def closed_abg(a0, k, t):
    """Reference closed forms, derived independently of the integrator:
    b^2 is the quadratic (1+a0 t)^2 + 4k t^2, a = (b^2)'/(2 b^2), and g is
    the elementary antiderivative of b^-2."""
    t = np.asarray(t, dtype=float)
    b2 = (1 + a0 * t) ** 2 + 4 * k * t ** 2
    a = (a0 + (a0 ** 2 + 4 * k) * t) / b2
    if k > 0:
        rk = 2 * np.sqrt(k)
        g = (np.arctan(((a0 ** 2 + 4 * k) * t + a0) / rk)
             - np.arctan(a0 / rk)) / rk
    elif k == 0:
        g = t / (1 + a0 * t)
    else:
        raise NotImplementedError
    return a, np.sqrt(b2), g


# ------------------------------------------------------------ ODE integration

def test_matches_closed_forms_positive_k():
    k = 0.7
    t = np.linspace(0.0, 2.0, 501)
    st = integrate_transform_odes(0.0, k, d=2, t_grid=t)
    assert not st.truncated
    a_ref = 4 * k * t / (4 * k * t ** 2 + 1)
    b_ref = np.sqrt(4 * k * t ** 2 + 1)
    g_ref = np.arctan(np.sqrt(4 * k) * t) / np.sqrt(4 * k)
    f_ref = (4 * k * t ** 2 + 1) ** -0.5
    assert np.max(np.abs(st.a - a_ref)) < 1e-8
    assert np.max(np.abs(st.b - b_ref)) < 1e-8
    assert np.max(np.abs(st.g - g_ref)) < 1e-8
    assert np.max(np.abs(st.f - f_ref)) < 1e-8


def test_matches_closed_forms_k_zero():
    t = np.linspace(0.0, 1.5, 301)
    for a0 in (0.8, -0.4):
        st = integrate_transform_odes(a0, 0.0, d=2, t_grid=t)
        assert not st.truncated
        assert np.max(np.abs(st.a - a0 / (1 + a0 * t))) < 1e-8
        assert np.max(np.abs(st.b - (1 + a0 * t))) < 1e-8
        assert np.max(np.abs(st.g - t / (1 + a0 * t))) < 1e-8
        assert np.max(np.abs(st.f - (1 + a0 * t) ** -1.0)) < 1e-8


def test_lens_parameters():
    t = np.linspace(0.0, 3.0, 601)
    st = integrate_transform_odes(0.0, 0.25, d=2, t_grid=t)
    assert np.max(np.abs(st.g - np.arctan(t))) < 1e-8
    assert np.max(np.abs(st.b - np.sqrt(1 + t ** 2))) < 1e-8
    assert np.max(np.abs(st.f - (1 + t ** 2) ** -0.5)) < 1e-8


def test_initial_conditions_and_monotone_g():
    st = integrate_transform_odes(1.3, -0.2, d=3, t_grid=np.linspace(0, 0.3, 61))
    assert st.a[0] == 1.3 and st.b[0] == 1.0 and st.f[0] == 1.0 and st.g[0] == 0.0
    assert np.all(np.diff(st.g) > 0)
    assert np.all(st.b > 0)


def test_pseudo_conformal_singularity_detected():
    # k=0, a0=-0.8: b = 1 - 0.8 t hits zero at t = 1.25
    t = np.linspace(0.0, 2.0, 2001)
    st = integrate_transform_odes(-0.8, 0.0, d=2, t_grid=t, max_step=1e-5)
    assert st.truncated
    assert st.t[-1] <= 1.25 + 1e-9
    assert st.singular_time is not None
    assert abs(st.singular_time - 1.25) < 1e-4


def test_negative_k_singularity_detected():
    # a0=0, k=-1: b^2 = 1 - 4 t^2 collapses at t = 1/2
    t = np.linspace(0.0, 1.0, 1001)
    st = integrate_transform_odes(0.0, -1.0, d=2, t_grid=t, max_step=1e-5)
    assert st.truncated
    assert abs(st.singular_time - 0.5) < 1e-4


def test_positive_k_never_singular():
    t = np.linspace(0.0, 5.0, 501)
    st = integrate_transform_odes(-2.0, 0.5, d=2, t_grid=t)
    assert not st.truncated
    assert np.min(st.b) > 0.4  # min of sqrt((1-2t)^2 + 2t^2) = sqrt(1/3)


def test_constraint_residuals_small():
    # the residual of the chirp constraint is dominated by the centered
    # stencil's own h^2 truncation, so the sample grid must be fine
    t = np.arange(0.0, 1.0 + 1e-12, 2e-5)
    for a0, k in ((0.0, 0.25), (0.7, 0.3), (-0.5, 0.0), (1.0, 1.0)):
        st = integrate_transform_odes(a0, k, d=2, t_grid=t)
        res = constraint_residuals(st)
        assert res["b_growth"] < 1e-8, (a0, k, res)
        assert res["g_rate"] < 1e-8, (a0, k, res)
        assert res["a_riccati"] < 1e-8, (a0, k, res)
        assert res["f_consistency"] < 1e-10, (a0, k, res)


def test_input_validation():
    with pytest.raises(TransformError):
        integrate_transform_odes(0.0, 1.0, d=4, t_grid=np.linspace(0, 1, 11))
    with pytest.raises(TransformError):
        integrate_transform_odes(0.0, 1.0, d=2, t_grid=np.linspace(0.5, 1, 11))
    with pytest.raises(TransformError):
        integrate_transform_odes(0.0, 1.0, d=2, t_grid=np.array([0.0, 0.0, 1.0]))
    st = integrate_transform_odes(0.0, 1.0, d=2, t_grid=np.linspace(0, 1, 11))
    with pytest.raises(TransformError):
        st.at(2.0)


# ------------------------------------------------------------ closed_form_b

def test_closed_form_b_examples():
    assert np.isclose(closed_form_b(0.0, 0.25, 1.0), np.sqrt(2.0), rtol=1e-12)
    assert closed_form_b(-1.0, 0.0, 1.0) == 0.0
    assert np.isnan(closed_form_b(0.0, -1.0, 0.9))
    arr = closed_form_b(0.5, 0.1, np.array([0.0, 1.0]))
    assert arr.shape == (2,) and arr[0] == 1.0


def test_closed_form_b_agrees_with_ode():
    t = np.linspace(0.0, 2.0, 401)
    st = integrate_transform_odes(1.0, 1.0, d=2, t_grid=t)
    assert np.max(np.abs(st.b - closed_form_b(1.0, 1.0, t))) < 1e-8
    i = np.searchsorted(t, 2.0) - 1
    assert abs(st.b[-1] - closed_form_b(1.0, 1.0, 2.0)) < 1e-8


# ------------------------------------------------------------------ apply_pct

def test_apply_pct_identity_parameters(rng):
    from hnlslab.fields import random_smooth_field
    g = hnls_grid(n=32)
    st = integrate_transform_odes(0.0, 0.0, d=2, t_grid=np.linspace(0, 1, 101))
    traj = FieldTrajectory()
    fields = []
    for t in np.linspace(0.0, 1.0, 9):
        f = random_smooth_field(g, rng, t=t)
        fields.append(f)
        traj.append(f)
    v = apply_pct(traj, st, 0.5, g)
    ref = traj.at(0.5)
    assert np.max(np.abs(v.values - ref.values)) < 1e-11
    assert v.t == 0.5


def test_apply_pct_constant_field_formula():
    g = hnls_grid(n=32, length=12.0)
    a0, A = 0.6, 1.5 - 0.5j
    st = integrate_transform_odes(a0, 0.0, d=2, t_grid=np.linspace(0, 1, 1001))

    def const_sampler(s, pts):
        return np.full((len(pts[0]), len(pts[1])), A, dtype=complex)

    t = 0.8
    v = apply_pct(const_sampler, st, t, g)
    at = a0 / (1 + a0 * t)
    X, Y = g.meshgrid()
    ref = A * (1 + a0 * t) ** -1.0 * np.exp(0.25j * at * (X ** 2 - Y ** 2))
    assert np.max(np.abs(v.values - ref)) < 1e-9


def test_apply_pct_group_property_k0():
    # composing the a0- and a1-maps (inner time re-based through g1)
    # equals the single (a0 + a1)-map on the constant-field closed form
    g = hnls_grid(n=32, length=12.0)
    A = 0.75
    a0, a1 = 0.4, 0.3
    tg = np.linspace(0.0, 2.0, 2001)
    st0 = integrate_transform_odes(a0, 0.0, d=2, t_grid=tg)
    st1 = integrate_transform_odes(a1, 0.0, d=2, t_grid=tg)
    st_sum = integrate_transform_odes(a0 + a1, 0.0, d=2, t_grid=tg)

    def const_sampler(s, pts):
        return np.full((len(pts[0]), len(pts[1])), A, dtype=complex)

    def first_map_sampler(s, pts):
        # closed form of the a0-map applied to the constant field,
        # evaluated at the requested (already rescaled) points
        a_s, b_s, f_s, g_s = st0.at(s)
        X = pts[0][:, None]
        Y = pts[1][None, :]
        return A * f_s * np.exp(0.25j * a_s * (X ** 2 - Y ** 2))

    for t in (0.3, 0.9, 1.6):
        composed = apply_pct(first_map_sampler, st1, t, g)
        direct = apply_pct(const_sampler, st_sum, t, g)
        assert np.max(np.abs(composed.values - direct.values)) < 1e-6


def test_apply_pct_rejects_out_of_range_inner_time():
    g = hnls_grid(n=16)
    st = integrate_transform_odes(0.0, 0.25, d=2, t_grid=np.linspace(0, 2, 201))
    traj = FieldTrajectory([constant_field(g, 1.0, t=0.01 * i) for i in range(5)])
    # g(2.0) = arctan(2) ~ 1.1 >> trajectory range 0.04
    with pytest.raises(ValueError):
        apply_pct(traj, st, 2.0, g)


def test_signature_quadratic_weights():
    g = hnls_grid(n=16, length=8.0)
    q = signature_quadratic(g)
    X, Y = g.meshgrid()
    assert np.allclose(q, X ** 2 - Y ** 2)


# ----------------------------------------- solution-to-solution verification

@pytest.fixture(scope="module")
def free_solution():
    """Converged solution of the free equation with a stored trajectory.

    128 points per axis so the cubic nonlinearity's spectrum fits below
    the Nyquist frequency: aliasing debris would otherwise put a floor
    under every transformed residual.
    """
    g = hnls_grid(n=128, length=40.0)
    u0 = gaussian_field(g, amplitude=0.8, width=1.3, boost=(0.3, -0.2))
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    traj = FieldTrajectory()
    cfg = RunConfig(t_end=0.8, dt0=5e-4, sample_stride=10)
    run(u0, problem, cfg, observer=lambda st, s: traj.append(st.field))
    return g, problem, traj


def _triple_residual(traj, t, h, problem):
    return residual_hnls(traj.at(t - h), traj.at(t), traj.at(t + h), problem)


def test_base_solution_residual(free_solution):
    g, problem, traj = free_solution
    r0 = _triple_residual(traj, 0.4, 5e-3, problem)
    assert r0 < 1e-4


def test_galilean_boost_preserves_solutions(free_solution):
    g, problem, traj = free_solution
    boosted = apply_symmetry(traj, SymmetryParams(kind="galilean", boost=(1.0, 0.0)))
    r1 = _triple_residual(boosted, 0.4, 5e-3, problem)
    assert r1 < 5e-3


@pytest.mark.parametrize("alpha", [(1.0, -1.0), (1.0, 1.0), (0.5, -2.0)],
                         ids=["hnls", "nls", "mixed"])
def test_galilean_boost_honours_alpha(alpha):
    # the boost phase is v_j x_j / (2 alpha_j) - v_j^2 t / (4 alpha_j); a
    # phase fixed to the hnls signature leaves a residual near 0.1 on the
    # other two grids
    g = Grid((64, 64), (40.0, 40.0), alpha)
    problem = EvolutionProblem(g, lam=1.0, sigma=2.0)
    traj = FieldTrajectory()
    cfg = RunConfig(t_end=0.2, dt0=1e-3, sample_stride=10)
    run(gaussian_field(g, amplitude=0.6, width=2.0), problem, cfg,
        observer=lambda st, s: traj.append(st.field))
    r0 = _triple_residual(traj, 0.1, 1e-2, problem)
    boosted = apply_symmetry(traj, SymmetryParams(kind="galilean",
                                                  boost=(0.3, -0.2)))
    r1 = _triple_residual(boosted, 0.1, 1e-2, problem)
    assert r0 < 1e-4
    assert r1 < 2.0 * r0                # measured 1.0-1.2 x r0


def test_galilean_boost_needs_a_dispersive_axis():
    g = Grid((16, 16), (20.0, 20.0), (1.0, 0.0))
    f = gaussian_field(g, amplitude=0.5, width=2.0, t=0.3)
    with pytest.raises(TransformError):
        apply_symmetry(f, SymmetryParams(kind="galilean", boost=(0.0, 0.5)))
    out = apply_symmetry(f, SymmetryParams(kind="galilean", boost=(0.5, 0.0)))
    assert out.is_finite()


def test_dilation_preserves_solutions(free_solution):
    g, problem, traj = free_solution
    lam_scale = 1.2
    scaled = apply_symmetry(traj, SymmetryParams(kind="dilation",
                                                 scale=lam_scale, sigma=2.0))
    r1 = _triple_residual(scaled, 0.4 / lam_scale ** 2, 3e-3, problem)
    assert r1 < 5e-3


def test_hyperbolic_rotation_preserves_solutions(free_solution):
    g, problem, traj = free_solution
    p = SymmetryParams(kind="hyperbolic-rotation", rapidity=0.25)
    h = 5e-3
    fm, fc, fp = (apply_symmetry(traj.at(s), p) for s in (0.4 - h, 0.4, 0.4 + h))
    r1 = residual_hnls(fm, fc, fp, problem)
    assert r1 < 5e-3


def test_every_kind_within_tenfold_residual_budget(free_solution):
    # moderate group elements keep the transformed residual within 10x of
    # the trajectory's own (both are then h^2-truncation dominated)
    g, problem, traj = free_solution
    h, t = 5e-3, 0.4
    r0 = _triple_residual(traj, t, h, problem)
    elementwise = [
        SymmetryParams(kind="gauge", theta=0.7),
        SymmetryParams(kind="translation", shift=(10.0, -5.0)),
        SymmetryParams(kind="galilean", boost=(0.3, -0.2)),
        SymmetryParams(kind="hyperbolic-rotation", rapidity=0.1),
    ]
    for p in elementwise:
        fm, fc, fp = (apply_symmetry(traj.at(s), p) for s in (t - h, t, t + h))
        r1 = residual_hnls(fm, fc, fp, problem)
        assert r1 < 10 * r0, (p.kind, r1, r0)
    scaled = apply_symmetry(traj, SymmetryParams(kind="dilation",
                                                 scale=0.95, sigma=2.0))
    r1 = _triple_residual(scaled, t / 0.95 ** 2, h, problem)
    assert r1 < 10 * r0, ("dilation", r1, r0)


def test_pct_maps_potential_solutions_to_free_solutions():
    # sigma = 4/d with potential k(x^2-|y|^2): the transformed field solves
    # the free equation
    g = hnls_grid(n=128, length=40.0)
    k = 0.25
    problem_pot = EvolutionProblem(g, lam=1.0, sigma=2.0,
                                   potential=harmonic_saddle_potential(g, k))
    u0 = gaussian_field(g, amplitude=0.8, width=1.3)
    traj = FieldTrajectory()
    cfg = RunConfig(t_end=0.75, dt0=5e-4, sample_stride=10)
    run(u0, problem_pot, cfg, observer=lambda st, s: traj.append(st.field))
    r_own = residual_hnls(traj.at(0.5 - 5e-3), traj.at(0.5),
                          traj.at(0.5 + 5e-3), problem_pot)

    st = integrate_transform_odes(0.0, k, d=2, t_grid=np.linspace(0, 0.8, 801))
    problem_free = EvolutionProblem(g, lam=1.0, sigma=2.0)
    h = 5e-3
    t = 0.55
    vm, vc, vp = (apply_pct(traj, st, s, g) for s in (t - h, t, t + h))
    r = residual_hnls(vm, vc, vp, problem_free)
    assert r < 5e-3
    assert r < 10 * r_own


# ------------------------------------------------------------ point symmetries

def test_gauge_quarter_turn():
    g = hnls_grid(n=16)
    f = gaussian_field(g, width=1.0, boost=(0.3, 0.0))
    out = apply_symmetry(f, SymmetryParams(kind="gauge", theta=np.pi / 2))
    assert np.max(np.abs(out.values - 1j * f.values)) < 1e-14


def test_translation_full_period_identity(rng):
    from hnlslab.fields import random_smooth_field
    g = hnls_grid(n=32)
    f = random_smooth_field(g, rng)
    out = apply_symmetry(f, SymmetryParams(kind="translation",
                                           shift=(g.length[0], g.length[1])))
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_translation_time_offset_stamps():
    g = hnls_grid(n=16)
    f = constant_field(g, 1.0, t=0.3)
    out = apply_symmetry(f, SymmetryParams(kind="translation", t0=0.5))
    assert np.isclose(out.t, 0.8)


def test_dilation_scaling_factors():
    g = hnls_grid(n=64, length=40.0)
    f = gaussian_field(g, width=2.0, t=0.5)
    out = apply_symmetry(f, SymmetryParams(kind="dilation", scale=2.0, sigma=2.0))
    ref = gaussian_field(g, width=1.0)
    # Compare only where 2*x stays inside the box: outside it the periodic
    # interpolant wraps, which is expected behaviour rather than error.
    c = slice(16, 48)
    assert np.max(np.abs(out.values[c, c] - 2.0 * ref.values[c, c])) < 1e-8
    assert np.isclose(out.t, 0.125)


def test_hyperbolic_rotation_requires_d2():
    g3 = hnls_grid(n=16, d=3)
    f = constant_field(g3, 1.0)
    with pytest.raises(TransformError):
        apply_symmetry(f, SymmetryParams(kind="hyperbolic-rotation", rapidity=0.1))


def test_symmetry_params_validation():
    with pytest.raises(TransformError):
        SymmetryParams(kind="rotation")
    with pytest.raises(TransformError):
        SymmetryParams(kind="galilean")
    with pytest.raises(TransformError):
        SymmetryParams(kind="dilation", scale=-1.0)
    with pytest.raises(TransformError):
        SymmetryParams(kind="translation")


def test_apply_symmetry_type_check():
    with pytest.raises(TypeError):
        apply_symmetry(np.zeros((4, 4)), SymmetryParams(kind="gauge", theta=0.1))
