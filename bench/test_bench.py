"""Tests of the benchmark's own readers, oracles and tracer.

    python3 -m pytest -q bench/test_bench.py

Kept beside the benchmark, outside the package's test path.
"""

import hashlib
import json
import math
import os
import struct
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from oracles import CheckError  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _snapshot_bytes(n, length, alpha, t, values):
    d = len(n)
    head = b"HNLSNAP1" + struct.pack("<II", 1, d)
    head += struct.pack(f"<{d}I", *n) + struct.pack(f"<{d}d", *length)
    head += struct.pack(f"<{d}d", *alpha) + struct.pack("<d", t)
    body = b"".join(struct.pack("<dd", v.real, v.imag) for v in values)
    return head + body


def test_snapshot_reader_on_hand_built_bytes():
    values = [complex(k, -0.5 * k) for k in range(8)]
    raw = _snapshot_bytes((2, 4), (3.0, 5.0), (1.0, -1.0), 0.25, values)
    assert len(raw) == oracles.snapshot_size((2, 4)) == 24 + 40 + 16 * 8
    snap = oracles.parse_snapshot(raw)
    assert snap["n"] == (2, 4)
    assert snap["length"] == (3.0, 5.0)
    assert snap["alpha"] == (1.0, -1.0)
    assert snap["t"] == 0.25
    assert snap["values"][1, 2] == values[6]          # row-major
    with pytest.raises(CheckError, match="bytes"):
        oracles.parse_snapshot(raw[:-1])
    with pytest.raises(CheckError, match="magic"):
        oracles.parse_snapshot(b"HNLSNAP2" + raw[8:])


def test_csv_reader(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,mass\n0.0,1.5\n0.1,1.25\n")
    cols = oracles.read_csv(path)
    assert list(cols) == ["t", "mass"]
    assert cols["mass"].tolist() == [1.5, 1.25]
    path.write_text("t,mass\n0.0\n")
    with pytest.raises(CheckError, match="ragged"):
        oracles.read_csv(path)


def test_manifest_digests(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"abc")
    digest = hashlib.sha256(b"abc").hexdigest()
    manifest = {"status": "Done",
                "outputs": [{"path": "a.txt", "sha256": digest}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert oracles.manifest_digests(tmp_path) == ("Done", {"a.txt": digest})
    (tmp_path / "a.txt").write_bytes(b"abd")
    with pytest.raises(CheckError, match="sha256"):
        oracles.manifest_digests(tmp_path)


def test_gaussian_mass_matches_quadrature():
    x = np.linspace(-20.0, 20.0, 2001)
    h = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = 0.7 * np.exp(-(X ** 2 + Y ** 2) / (2 * 3.0 ** 2))
    assert math.isclose(h * h * np.sum(u ** 2),
                        oracles.gaussian_mass(0.7, 3.0, 2), rel_tol=1e-10)


def test_glassey_time_matches_quadrature():
    amp, w = 3.0, 1.0
    assert math.isclose(oracles.glassey_time(amp, w, 2, 1.0, 2.0),
                        math.sqrt(0.2), rel_tol=1e-14)
    # the same bound from V0 and E integrated numerically
    x = np.linspace(-10.0, 10.0, 1601)
    h = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    r2 = X ** 2 + Y ** 2
    u = amp * np.exp(-r2 / (2 * w * w))
    grad2 = (r2 / w ** 4) * u ** 2
    energy = h * h * (0.5 * np.sum(grad2) - 0.25 * np.sum(u ** 4))
    v0 = h * h * np.sum(r2 * u ** 2)
    assert math.isclose(math.sqrt(v0 / (-8 * energy)),
                        oracles.glassey_time(amp, w, 2, 1.0, 2.0),
                        rel_tol=1e-8)
    with pytest.raises(ValueError):
        oracles.glassey_time(0.1, 1.0, 2, 1.0, 2.0)     # positive energy


def test_semiclassical_b_special_cases():
    t = np.linspace(0.0, 2.0, 5)
    assert oracles.semiclassical_b(0.5, 0.25, 0.0) == 1.0
    assert np.allclose(oracles.semiclassical_b(0.5, 0.0, t), 1 + 0.5 * t)
    assert np.allclose(oracles.semiclassical_b(0.0, 0.25, t),
                       np.sqrt(1 + t * t))


def test_discrete_mass_and_energy_of_a_harmonic():
    n, length, m = 16, 8.0, 3
    x = oracles.axis_coords(n, length)
    assert x[n // 2] == 0.0 and x[0] == -length / 2
    k = 2 * math.pi * m / length
    u = 0.5 * np.exp(1j * k * x)
    mass = oracles.discrete_mass(u, (length,))
    assert math.isclose(mass, 0.25 * length, rel_tol=1e-14)
    lam, sigma, alpha = 1.5, 4.0, -1.0
    e = oracles.discrete_energy(u, (length,), (alpha,), lam, sigma)
    ref = 0.5 * alpha * k * k * mass - lam / 6.0 * 0.5 ** 6 * length
    assert math.isclose(e, ref, rel_tol=1e-12)


def test_radial_mass_weights():
    r = np.linspace(0.0, 4.0, 9)
    h = 0.5
    ones = np.ones_like(r)
    expected = h * h / 8 + h * np.sum(r[1:-1]) + 0.5 * 4.0 * h
    assert math.isclose(oracles.radial_mass(r, ones), expected)


def test_least_squares_slope_and_rel():
    t = np.linspace(0.0, 1.0, 7)
    assert math.isclose(oracles.least_squares_slope(t, 3.0 * t - 2.0), 3.0)
    assert oracles.rel(1.1, 1.0) == pytest.approx(0.1)


def test_tracer_counts_spans_and_restores_originals():
    from hnlslab import coupled, evolution
    from hnlslab.evolution import EvolutionProblem, RunConfig, StepperState
    from hnlslab.fields import Grid, gaussian_field

    originals = (evolution.step_strang, coupled.step_strang, np.fft.fftn)
    grid = Grid((16, 16), (10.0, 10.0), (1.0, -1.0))
    state = StepperState(field=gaussian_field(grid, 0.5, 2.0), dt=0.01)
    problem = EvolutionProblem(grid, lam=1.0, sigma=2.0)
    tracer = Tracer()
    tracer.install()
    try:
        assert evolution.step_strang is coupled.step_strang
        assert evolution.step_strang is not originals[0]
        evolution.run(state, problem,
                      RunConfig(t_end=0.05, dt0=0.01, sample_stride=5))
    finally:
        tracer.uninstall()
    assert (evolution.step_strang, coupled.step_strang,
            np.fft.fftn) == originals
    metrics = layer_metrics([tracer.layer_totals()])
    assert metrics["evolution.step_strang.calls"] == (5, "count")
    assert metrics["evolution.fft_per_step"] == (4.0, "1/step")
    assert metrics["observables.sample.calls"] == (2, "count")
    assert metrics["observables.fft_per_sample"] == (5.0, "1/sample")
    assert metrics["fields.fft.mpts"][0] == pytest.approx(
        (5 * 4 + 2 * 5) * 256 * 1e-6)
    strang = metrics["evolution.step_strang.s"][0]
    assert 0 < metrics["evolution.step_strang.self_s"][0] < strang
    assert metrics["evolution.run.s"][0] > strang
