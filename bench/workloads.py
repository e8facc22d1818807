"""The benchmark's workloads: experiment configs, expected outcomes and
the checks that hold each output to a reference made apart from hnlslab.

One operation is one experiment.  It fails if `run_experiment` returns
nonzero, if the manifest status is not the expected one, or if any check
below fails.  Configs are built from the workload seed; `smoke` shortens
every run so that all workloads and checks finish in seconds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oracles import (CheckError, axis_coords, discrete_energy, discrete_mass,
                     expect, gaussian_mass, glassey_time, least_squares_slope,
                     radial_mass, read_csv, read_json, read_snapshot, rel,
                     semiclassical_b)

WORKLOADS = ("march-large", "sample-small", "structured")

EPS_SWEEP = [1e-3, 5e-4, 2.5e-4]


@dataclass
class Experiment:
    name: str
    config: dict
    status: str
    check: Callable[[str, dict], None]


# ---------------------------------------------------------------------------
# checks (each raises CheckError)

def _check_conservation_gaussian(outdir, cfg):
    """Boosted Gaussian: analytic mass, drifts, and com slope 2 alpha_j p_j."""
    init, grid = cfg["initial"], cfg["grid"]
    d = grid["d"]
    s = read_csv(os.path.join(outdir, "observables.csv"))
    mass = s["mass"]
    m_ref = gaussian_mass(init["amplitude"], init["width"], d)
    expect(rel(mass[0], m_ref) <= 1e-10,
           f"initial mass {mass[0]!r} vs analytic {m_ref!r}")
    expect(len(mass) >= 5, f"only {len(mass)} samples")
    drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
    expect(drift <= 1e-10, f"mass drift {drift:.3e} > 1e-10")
    en = s["energy"]
    e_drift = float(np.max(np.abs(en - en[0]))) / abs(en[0])
    expect(e_drift <= 1e-6, f"energy drift {e_drift:.3e} > 1e-6")
    alpha = [1.0] + [-1.0] * (d - 1)
    for j in range(d):
        slope = least_squares_slope(s["t"], s[f"com_{j}"])
        pred = 2.0 * alpha[j] * float(np.mean(s[f"momentum_{j}"]))
        expect(rel(slope, pred) <= 1e-8,
               f"com_{j} slope {slope!r} vs 2 alpha p = {pred!r}")
        # a boost k_j gives momentum k_j * mass
        expect(rel(s[f"momentum_{j}"][0], init["boost"][j] * mass[0]) <= 1e-8,
               f"momentum_{j} {s[f'momentum_{j}'][0]!r} is not k_j M")
    snap = read_snapshot(os.path.join(outdir, "final.snap"))
    _check_header(snap, grid, t_end=cfg["run"]["t_end"])
    m_fin = discrete_mass(snap["values"], snap["length"])
    expect(rel(m_fin, mass[-1]) <= 1e-12,
           f"final.snap mass {m_fin!r} vs CSV {mass[-1]!r}")
    rep = read_json(os.path.join(outdir, "conservation.json"))
    expect(rep["status"] == "Done", f"report status {rep['status']!r}")


def _check_header(snap, grid, t_end=None):
    expect(snap["n"] == (grid["n"],) * grid["d"],
           f"snapshot n {snap['n']} vs grid")
    expect(snap["length"] == (grid["length"],) * grid["d"],
           f"snapshot length {snap['length']} vs grid")
    if t_end is not None:
        expect(abs(snap["t"] - t_end) <= 1e-12 * max(1.0, t_end),
               f"snapshot time {snap['t']!r}, expected {t_end!r}")


def _check_planewave(outdir, cfg):
    """|c| = 1: the profile flow is the phase rotation, so the final field
    is f0(x - y) exp(i lam |f0|^sigma t) exactly."""
    grid, prof = cfg["grid"], cfg["planewave"]["profile"]
    snap = read_snapshot(os.path.join(outdir, "final.snap"))
    _check_header(snap, grid, t_end=cfg["run"]["t_end"])
    n, L = grid["n"], grid["length"]
    x = axis_coords(n, L)
    z = x[:, None] - x[None, :]
    z = (z + 0.5 * L) % L - 0.5 * L
    f0 = prof["amplitude"] * np.exp(-0.5 * (z / prof["width"]) ** 2)
    nl = cfg["nonlinearity"]
    ref = f0 * np.exp(1j * nl["lam"] * np.abs(f0) ** nl["sigma"] * snap["t"])
    err = np.linalg.norm(snap["values"] - ref) / np.linalg.norm(ref)
    expect(err <= 1e-10, f"final field vs phase flow: rel L2 {err:.3e}")


def _check_random_conservation(outdir, cfg):
    """Defocusing random field: mass held, peak = amplitude, snapshots
    agree with the sampled series."""
    grid, run = cfg["grid"], cfg["run"]
    s = read_csv(os.path.join(outdir, "observables.csv"))
    mass = s["mass"]
    drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
    expect(drift <= 1e-10, f"mass drift {drift:.3e} > 1e-10")
    expect(rel(s["linf"][0], cfg["initial"]["amplitude"]) <= 1e-12,
           f"initial peak {s['linf'][0]!r} is not the amplitude")
    steps = round(run["t_end"] / run["dt0"])
    expect(len(mass) == steps + 1, f"{len(mass)} samples for {steps} steps")
    stride = run["snapshot_stride"]
    names = sorted(f for f in os.listdir(outdir) if f.startswith("snap_"))
    expect(len(names) == steps // stride + 1,
           f"{len(names)} stride snapshots, expected {steps // stride + 1}")
    for k, name in enumerate(names):
        snap = read_snapshot(os.path.join(outdir, name))
        _check_header(snap, grid)
        row = k * stride
        expect(snap["t"] == s["t"][row], f"{name}: time {snap['t']!r}")
        m = discrete_mass(snap["values"], snap["length"])
        expect(rel(m, mass[row]) <= 1e-12, f"{name}: mass {m!r}")
    snap = read_snapshot(os.path.join(outdir, "final.snap"))
    _check_header(snap, grid, t_end=run["t_end"])
    nl = cfg["nonlinearity"]
    e = discrete_energy(snap["values"], snap["length"], snap["alpha"],
                        nl["lam"], nl["sigma"])
    expect(rel(e, s["energy"][-1]) <= 1e-10,
           f"final energy {e!r} vs CSV {s['energy'][-1]!r}")


def _check_collapse(outdir, cfg):
    """Focusing Gaussian: blow-up detected before the virial bound, with
    mass conserved up to detection."""
    init, nl = cfg["initial"], cfg["nonlinearity"]
    d = cfg["grid"]["d"]
    s = read_csv(os.path.join(outdir, "observables.csv"))
    m_ref = gaussian_mass(init["amplitude"], init["width"], d)
    mass = s["mass"]
    expect(rel(mass[0], m_ref) <= 1e-10, f"initial mass {mass[0]!r}")
    drift = float(np.max(np.abs(mass - m_ref))) / m_ref
    expect(drift <= 1e-10, f"mass drift {drift:.3e} > 1e-10")
    snap = read_snapshot(os.path.join(outdir, "final.snap"))
    _check_header(snap, cfg["grid"])
    t_detect = snap["t"]
    bound = glassey_time(init["amplitude"], init["width"], d, nl["lam"],
                         nl["sigma"])
    expect(0.0 < t_detect < bound,
           f"detection at t={t_detect!r}, virial bound {bound:.4f}")
    m_fin = discrete_mass(snap["values"], snap["length"])
    expect(rel(m_fin, m_ref) <= 1e-10, f"mass at detection {m_fin!r}")


def _check_stability(outdir, cfg):
    """Linear response: h_sup / eps in (0.5, 10), halving ratios in
    (1.6, 2.5), every sweep Bounded and in-regime."""
    eps = cfg["stability"]["eps"]
    sups = []
    for i, e in enumerate(eps):
        rep = read_json(os.path.join(outdir, f"stability_eps{i}.json"))
        expect(rep["status"] == "Bounded" and rep["in_regime"],
               f"eps {e}: {rep['status']}, in_regime {rep['in_regime']}")
        s = read_csv(os.path.join(outdir, f"stability_eps{i}.csv"))
        expect(s["t"][0] == 0.0 and rel(s["h"][0], e) <= 1e-9,
               f"eps {e}: h(0) = {s['h'][0]!r}")
        h_sup = float(np.max(s["h"]))
        expect(rel(h_sup, rep["h_sup"]) <= 1e-15,
               f"eps {e}: CSV h_sup {h_sup!r} vs report {rep['h_sup']!r}")
        expect(0.5 < h_sup / e < 10.0, f"eps {e}: h_sup/eps {h_sup / e}")
        sups.append(h_sup)
    for a, b in zip(sups, sups[1:]):
        expect(1.6 < a / b < 2.5, f"halving ratio {a / b}")


def _check_two_wave(outdir, cfg):
    s = read_csv(os.path.join(outdir, "two_wave.csv"))
    rep = read_json(os.path.join(outdir, "two_wave.json"))
    rem = s["remainder"]
    # u(0) - lift f1 - lift f2 is (l1 + l2) - l1 - l2 in floating point:
    # zero up to the rounding of one addition, not bit-exactly zero
    floor = 1e-12 * math.sqrt(rep["product_scale"])
    expect(s["t"][0] == 0.0 and rem[0] <= floor,
           f"remainder at t=0 is {rem[0]!r} > {floor:.1e}")
    expect(bool(np.all(np.isfinite(rem))), "non-finite remainder")
    expect(abs(s["t"][-1] - cfg["two-wave"]["t_end"]) <= 1e-9,
           f"series ends at t={s['t'][-1]!r}")
    expect(rep["status"] == "Done", f"report status {rep['status']!r}")


def _check_radial(outdir, cfg):
    b, nl = cfg["radial"], cfg["nonlinearity"]
    rep = read_json(os.path.join(outdir, "radial.json"))
    bound = glassey_time(b["amplitude"], b["width"], 2, nl["lam"],
                         nl["sigma"])
    expect(rep["status"] == "BlownUp", f"radial status {rep['status']!r}")
    expect(0.0 < rep["t_detect"] < bound,
           f"detection at t={rep['t_detect']!r}, virial bound {bound:.4f}")
    s = read_csv(os.path.join(outdir, "radial_final.csv"))
    r = np.linspace(0.0, b["r_max"], b["n"])
    expect(np.array_equal(s["r"], r), "radial grid differs from linspace")
    vals = s["re"] + 1j * s["im"]
    expect(float(np.max(np.abs(vals))) > b["linf_ceiling"],
           "final profile is below the ceiling")
    u0 = b["amplitude"] * np.exp(-0.5 * (r / b["width"]) ** 2)
    u0[-1] = 0.0
    m0, m1 = radial_mass(r, u0), radial_mass(r, vals)
    expect(rel(m1, m0) <= 1e-10, f"radial mass {m1!r} vs initial {m0!r}")


def _check_semiclassical(outdir, cfg):
    b = cfg["semiclassical"]
    d = cfg["grid"]["d"]
    s = read_csv(os.path.join(outdir, "semiclassical.csv"))
    expect(len(s["t"]) == b["samples"], f"{len(s['t'])} samples")
    ref = semiclassical_b(b["a0"], b["k"], s["t"])
    err = float(np.max(np.abs(s["b"] - ref) / ref))
    expect(err <= 1e-8, f"b vs closed form: rel {err:.3e}")
    amp = b["candidate"]["amplitude"]
    scaled = s["sup"] * s["b"] ** (d / 2)
    err = float(np.max(np.abs(scaled - amp))) / amp
    expect(err <= 1e-8, f"sup * b^(d/2) vs max|A0|: rel {err:.3e}")
    snap = read_snapshot(os.path.join(outdir, "final.snap"))
    _check_header(snap, cfg["grid"], t_end=b["t_end"])


# ---------------------------------------------------------------------------
# workload definitions

def _gaussian(amp, width, **extra):
    return {"shape": "gaussian", "amplitude": amp, "width": width, **extra}


def _march_large(seed, smoke):
    return [
        Experiment("conservation-64c", {
            "kind": "conservation-report", "seed": seed,
            "grid": {"preset": "hnls", "d": 3, "n": 32 if smoke else 64,
                     "length": 30.0},
            "nonlinearity": {"lam": 1.0, "sigma": 2.0},
            "initial": _gaussian(0.7, 3.0, boost=[0.5, -0.3, 0.2]),
            "run": {"t_end": 0.04, "dt0": 1e-3, "sample_stride": 10},
        }, "Done", _check_conservation_gaussian),
        Experiment("planewave-512", {
            "kind": "planewave", "seed": seed,
            "grid": {"preset": "hnls", "d": 2, "n": 128 if smoke else 512,
                     "length": 40.0},
            "nonlinearity": {"lam": 1.0, "sigma": 4.0},
            "planewave": {"profile": _gaussian(0.8, 3.0), "c": [1.0]},
            "run": {"t_end": 0.04, "dt0": 1e-3, "sample_stride": 10},
        }, "Done", _check_planewave),
    ]


def _sample_small(seed, smoke):
    n = 64 if smoke else 128
    return [
        Experiment("conservation-random", {
            "kind": "conservation-report", "seed": seed,
            "grid": {"preset": "nls", "d": 2, "n": n, "length": 40.0},
            "nonlinearity": {"lam": -1.0, "sigma": 4.0},
            "initial": {"shape": "random", "amplitude": 0.5, "corr": 1.0},
            "run": {"t_end": 0.02 if smoke else 0.2, "dt0": 1e-3,
                    "sample_stride": 1, "snapshot_stride": 5},
        }, "Done", _check_random_conservation),
        Experiment("collapse-adaptive", {
            "kind": "simulate", "seed": seed,
            "grid": {"preset": "nls", "d": 2, "n": n, "length": 12.0},
            "nonlinearity": {"lam": 1.0, "sigma": 2.0},
            "initial": _gaussian(3.0, 1.0),
            "run": {"t_end": 1.0, "dt0": 1.6e-2 if smoke else 8e-3,
                    "adapt": True, "linf_ceiling": 9.0,
                    "sample_stride": 10},
        }, "BlownUp", _check_collapse),
    ]


def _structured(seed, smoke):
    t_sweep = 0.05 if smoke else 0.5
    shape = _gaussian(1.0, 2.0, center=[3.0, -2.0])
    grid = {"preset": "hnls", "d": 2, "n": 64, "length": 40.0}
    quintic = {"lam": 1.0, "sigma": 4.0}
    return [
        Experiment("stability-plane", {
            "kind": "stability", "seed": seed, "grid": grid,
            "nonlinearity": quintic,
            "stability": {"wave": "plane", "profile": _gaussian(0.4, 4.0),
                          "c": [2.0], "shape": shape, "eps": EPS_SWEEP,
                          "t_end": t_sweep},
        }, "Done", _check_stability),
        Experiment("stability-standing", {
            "kind": "stability", "seed": seed, "grid": grid,
            "nonlinearity": quintic,
            "stability": {"wave": "standing",
                          "profile": _gaussian(0.5, 2.0),
                          "omega": 2.0 * math.pi / 40.0, "shape": shape,
                          "eps": EPS_SWEEP, "t_end": t_sweep},
        }, "Done", _check_stability),
        Experiment("two-wave", {
            "kind": "two-wave", "seed": seed,
            "grid": {"preset": "hnls", "n": [64, 64],
                     "length": [40.0, 80.0]},
            "nonlinearity": quintic,
            "two-wave": {"first": {"profile": _gaussian(0.4, 4.0),
                                   "c": [0.5]},
                         "second": {"profile": _gaussian(0.4, 4.0),
                                    "c": [-0.5]},
                         "t_end": 0.2 if smoke else 2.0},
        }, "Done", _check_two_wave),
        Experiment("radial-collapse", {
            "kind": "radial", "seed": seed,
            "nonlinearity": {"lam": 1.0, "sigma": 2.0},
            "radial": {"n": 512 if smoke else 2048, "r_max": 15.0,
                       "amplitude": 3.5, "width": math.sqrt(0.5),
                       "dt": 4e-4 if smoke else 1e-4, "t_end": 1.0,
                       "linf_ceiling": 60.0,
                       "concentration_eps": [0.1, 0.2, 0.4]},
        }, "BlownUp", _check_radial),
        Experiment("semiclassical", {
            "kind": "semiclassical", "seed": seed,
            "grid": {"preset": "hnls", "d": 2, "n": 64 if smoke else 128,
                     "length": 40.0},
            "nonlinearity": {"lam": 1.0, "sigma": 2.0},
            "semiclassical": {"k": 0.25, "a0": 0.5,
                              "candidate": _gaussian(1.0, math.sqrt(2.0)),
                              "t_end": 2.0, "samples": 65},
        }, "Done", _check_semiclassical),
    ]


_BUILDERS = {"march-large": _march_large, "sample-small": _sample_small,
             "structured": _structured}


def experiments(workload: str, seed: int, smoke: bool = False) -> list:
    return _BUILDERS[workload](seed, smoke)


def check_experiment(exp: Experiment, outdir: str) -> str | None:
    """Run the experiment's checks; the failure message, or None."""
    try:
        exp.check(outdir, exp.config)
    except CheckError as exc:
        return f"{exp.name}: {exc}"
    except (OSError, KeyError, ValueError) as exc:
        return f"{exp.name}: {type(exc).__name__}: {exc}"
    return None
