"""Every kind that reads the signature is right on every signature the Grid
accepts, not only the hnls and nls presets: through `cli.main`, on drawn
signatures of mixed signs with |alpha_j| in [0.5, 2] and d in {2, 3},

- `conservation-report` keeps the second virial identity, V weighing |u|^2
  by q(x) = sum_j x_j^2 / alpha_j;
- a lifted `planewave` (c_j in {-1, 0, 1}) and `standing` wave
  (omega = 2 pi m / len_x) match their profile flow to roundoff.

Each lifted profile is resolved on its grid: with |c_j| <= 1 the lift
aliases no mode, and the standing carrier is a harmonic of the box.
"""

import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hnlslab.cli import main as cli_main  # noqa: E402

PROPERTY = settings(max_examples=10, deadline=None, derandomize=True,
                    database=None)

N = 32      # samples per axis; a width-3 profile on 40 is resolved


@st.composite
def signatures(draw):
    """d in {2, 3} and alpha of d entries, each of magnitude in [0.5, 2]
    and either sign."""
    d = draw(st.sampled_from([2, 3]))
    return tuple(draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1, -1]))
                 for _ in range(d))


def _report(kind, cfg, name=None):
    """The `<name>.json` (by default `<kind>.json`) that `hnlslab <kind>`
    wrote for `cfg`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": kind, **cfg}, handle)
        out = os.path.join(tmp, "out")
        assert cli_main([kind, "--config", path, "--out", out]) == 0
        with open(os.path.join(out, f"{name or kind}.json"),
                  encoding="utf-8") as handle:
            return json.load(handle)


def _grid(alpha, length):
    return {"alpha": list(alpha), "n": N, "length": length}


@PROPERTY
@given(alpha=signatures())
def test_second_virial_identity_holds_on_every_signature(alpha):
    d = len(alpha)
    report = _report("conservation-report", {
        "grid": _grid(alpha, 20.0),
        "nonlinearity": {"lam": 1.0, "sigma": 2.0},
        "initial": {"shape": "gaussian", "amplitude": 0.6, "width": 2.0,
                    "boost": [0.4, -0.3, 0.2][:d]},
        "run": {"t_end": 0.05, "dt0": 1e-3, "sample_stride": 5}},
        name="conservation")
    assert report["status"] == "Done"
    assert report["moments_ok"]
    assert (report["virial_second_residual"]
            <= 1e-5 * report["virial_second_scale"])


@PROPERTY
@given(alpha=signatures(), c=st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                      min_size=2, max_size=2))
def test_plane_wave_matches_its_profile_on_every_signature(alpha, c):
    report = _report("planewave", {
        "grid": _grid(alpha, 40.0),
        "planewave": {"profile": {"shape": "gaussian", "amplitude": 0.5,
                                  "width": 3.0},
                      "c": c[:len(alpha) - 1]},
        "run": {"t_end": 0.05}})
    assert report["status"] == "Done"
    assert report["formula_mismatch"] <= 1e-10


@PROPERTY
@given(alpha=signatures(), m=st.integers(1, 3))
def test_standing_wave_matches_its_profile_on_every_signature(alpha, m):
    report = _report("standing", {
        "grid": _grid(alpha, 40.0),
        "standing": {"profile": {"shape": "gaussian", "amplitude": 0.5,
                                 "width": 3.0},
                     "omega": 2.0 * math.pi * m / 40.0},
        "run": {"t_end": 0.05}})
    assert report["status"] == "Done"
    assert report["formula_mismatch"] <= 1e-10


def _nls_plane_stability(c, eps, t_end):
    return {"grid": {"preset": "nls", "d": 2, "n": 64, "length": 40.0},
            "nonlinearity": {"lam": 1.0, "sigma": 4.0},
            "stability": {
                "wave": "plane", "c": c, "eps": eps, "t_end": t_end,
                "profile": {"shape": "gaussian", "amplitude": 0.5,
                            "width": 3.0},
                "shape": {"shape": "gaussian", "amplitude": 1.0,
                          "width": 2.0, "center": [3.0, -2.0]}}}


def test_a_plane_wave_on_nls_stays_bounded():
    # on nls the profile equation at c = [1] has the coefficient 2; a wave
    # marched with the hnls coefficient 0 does not solve the equation, and
    # h_sup reads 0.87 whatever eps is (Grew, ratio 872 and 1744).  The
    # measured h_sup / eps is 1.0011
    for i, eps in enumerate((1e-3, 5e-4)):
        report = _report("stability", _nls_plane_stability([1.0], [eps], 0.5),
                         name="stability_eps0")
        assert report["status"] == "Bounded", (i, report)
        assert abs(report["h_sup"] / eps - 1.0) < 1e-2


def test_only_the_hnls_signature_is_certified(capsys):
    # sigma = 4, |c| = 2 and lam > 0 is the planar quintic window, but the
    # theorem behind it covers the hnls signature only
    report = _report("stability", _nls_plane_stability([2.0], [1e-3], 0.01),
                     name="stability_eps0")
    assert report["in_regime"] is False
    assert report["regime_note"] == ("outside certified windows: "
                                     "alpha=(1.0, 1.0), sigma=4.0, "
                                     "(|c|-1)lam=1")
    assert "out-of-regime" in capsys.readouterr().err
