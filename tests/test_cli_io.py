"""Snapshots, CSV series, manifests, config parsing, runner, and CLI."""

import hashlib
import importlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import hnls_grid, needs_owned_arguments

from hnlslab import (
    KINDS,
    ConfigError,
    ConservationReport,
    Grid,
    RunManifest,
    SnapshotError,
    file_digest,
    gaussian_field,
    load_series_csv,
    parse_config,
    random_smooth_field,
    read_snapshot,
    run_experiment,
    save_series_csv,
    snapshot_nbytes,
    write_snapshot,
)
from hnlslab import runner
from hnlslab.cli import main as cli_main


def _cfg(**over):
    base = {
        "kind": "simulate",
        "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
        "initial": {"shape": "gaussian", "amplitude": 0.7, "width": 3.0},
        "run": {"t_end": 0.05},
    }
    base.update(over)
    return json.dumps(base)


def _manifest(outdir):
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_round_trip_bitwise(tmp_path, rng):
    grids = [Grid((16,), (10.0,), (1.0,)),
             hnls_grid(n=16),
             Grid((8, 8, 8), (5.0, 7.0, 9.0), (1.0, -1.0, -1.0))]
    for i, grid in enumerate(grids):
        field = random_smooth_field(grid, rng, amplitude=1.3, t=0.0)
        field = field.with_values(field.values, t=0.625)
        path = tmp_path / f"f{i}.snap"
        nbytes = write_snapshot(field, path)
        assert nbytes == snapshot_nbytes(grid) == path.stat().st_size
        back = read_snapshot(path)
        assert back.grid.n == grid.n
        assert back.grid.length == grid.length
        assert back.grid.alpha == grid.alpha
        assert back.t == 0.625
        assert back.values.tobytes() == field.values.tobytes()


def test_snapshot_size_formula():
    # header: 8 magic + 4 version + 4 d + 4d sizes + 8d lengths +
    # 8d signatures + 8 time; payload: 16 bytes per sample
    assert snapshot_nbytes(hnls_grid(n=64)) == 24 + 20 * 2 + 16 * 64 * 64
    assert snapshot_nbytes(hnls_grid(n=64)) == 65_600
    assert snapshot_nbytes(Grid((16,), (10.0,), (1.0,))) == 44 + 16 * 16


def test_snapshot_rejects_corruption(tmp_path, rng):
    grid = hnls_grid(n=16)
    field = random_smooth_field(grid, rng)
    path = tmp_path / "good.snap"
    write_snapshot(field, path)
    raw = path.read_bytes()

    def expect_error(data, fragment):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(data)
        with pytest.raises(SnapshotError, match=fragment):
            read_snapshot(bad)

    expect_error(b"NOTSNAP1" + raw[8:], "magic")
    expect_error(raw[:8] + b"\x02" + raw[9:], "version")
    expect_error(raw[:12], "too short")
    expect_error(raw[:40], "truncated")
    expect_error(raw[:-8], "size mismatch")
    expect_error(raw + b"\x00", "size mismatch")
    # no bound on d of its own: a huge d promises a header the file lacks
    expect_error(raw[:12] + struct.pack("<I", 2 ** 32 - 1) + raw[16:],
                 "truncated")

    def header(n, length):
        d = len(n)
        return raw[:12] + struct.pack(f"<I{d}I{2 * d}dd", d, *n, *length,
                                      *(1.0,) * d, 0.0)

    # 2**93 samples: a count wrapped to 0 would pass a bare header
    expect_error(header((2 ** 31,) * 3, (10.0,) * 3), "size mismatch")
    # files of the promised size whose header `Grid` refuses
    for n, length in (((8,) * 4, (10.0,) * 4), ((12, 16), (10.0, 10.0)),
                      ((16, 16), (math.nan, 10.0))):
        expect_error(header(n, length) + bytes(16 * math.prod(n)),
                     "no valid grid")


def test_snapshot_overwrite_and_no_temp_debris(tmp_path, rng):
    grid = hnls_grid(n=16)
    a = random_smooth_field(grid, rng)
    b = random_smooth_field(grid, rng)
    path = tmp_path / "field.snap"
    write_snapshot(a, path)
    write_snapshot(b, path)          # atomic replace, not append
    assert read_snapshot(path).values.tobytes() == b.values.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.snap"]


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="a big-endian field is converted to the format")
def test_snapshot_writes_the_field_without_a_copy(tmp_path, rng):
    field = random_smooth_field(hnls_grid(n=256), rng)
    path = tmp_path / "big.snap"
    write_snapshot(field, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_snapshot(field, path)
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rise <= field.values.nbytes // 8
    assert read_snapshot(path).values.tobytes() == field.values.tobytes()


# ---------------------------------------------------------------------------
# CSV series

def test_series_csv_round_trip_exact(tmp_path):
    cols = {
        "t": np.array([0.0, 0.1, 1.0 / 3.0]),
        "value": np.array([1e-300, -0.0, 12345.678901234567]),
        "drift": np.array([math.pi, -math.e, 2.0 ** -52]),
    }
    path = tmp_path / "series.csv"
    save_series_csv(path, cols)
    back = load_series_csv(path)
    assert list(back) == ["t", "value", "drift"]
    for name in cols:
        assert back[name].tobytes() == cols[name].tobytes()  # bit-exact


def test_series_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        save_series_csv(tmp_path / "x.csv", {})
    with pytest.raises(ValueError):
        save_series_csv(tmp_path / "x.csv",
                        {"a": np.zeros(3), "b": np.zeros(4)})
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_series_csv(ragged)


# ---------------------------------------------------------------------------
# manifests

def test_manifest_digests_match_files(tmp_path):
    (tmp_path / "a.csv").write_text("t\n0.0\n", encoding="utf-8")
    (tmp_path / "b.bin").write_bytes(b"\x00\x01\x02")
    manifest = RunManifest(config_hash="deadbeef", config={},
                           code_version="0.1.0",
                           started="2026-01-01T00:00:00+00:00",
                           finished="2026-01-01T00:00:01+00:00",
                           status="Done")
    manifest.add_output(tmp_path, tmp_path / "a.csv")
    manifest.add_output(tmp_path, tmp_path / "b.bin")
    manifest.write(tmp_path / "manifest.json")
    back = json.loads((tmp_path / "manifest.json").read_text())
    assert back["status"] == "Done"
    assert back["config_hash"] == "deadbeef"
    for entry in back["outputs"]:
        assert entry["sha256"] == file_digest(tmp_path / entry["path"])


# ---------------------------------------------------------------------------
# config parsing

def test_parse_minimal_simulate_fills_defaults():
    cfg = parse_config(_cfg())
    assert cfg.kind == "simulate"
    assert cfg.grid.n == (32, 32) and cfg.grid.length == (40.0, 40.0)
    assert cfg.grid.alpha == (1.0, -1.0)
    assert cfg.lam == 1.0 and cfg.sigma == 2.0
    assert cfg.run["dt0"] == 1e-3
    assert cfg.run["sample_stride"] == 10
    assert cfg.run["snapshot_stride"] == 0
    assert cfg.run["linf_ceiling"] is None    # solver rule: 1e6 x initial
    assert cfg.seed == 0 and cfg.output == "."
    assert cfg.warnings == [] and cfg.waves == {}


def test_parse_config_hash_ignores_formatting():
    a = parse_config(_cfg())
    b = parse_config(json.dumps(json.loads(_cfg()), indent=4))
    assert a.config_hash == b.config_hash
    c = parse_config(_cfg(seed=1))
    assert c.config_hash != a.config_hash


def test_parse_collects_every_error():
    bad = json.dumps({
        "kind": "simulate",
        "grid": {"preset": "hnls", "d": 2, "n": [63, 64], "length": 40.0},
        "initial": {"shape": "gaussian", "width": -1.0},
        "run": {"t_end": 0.1, "dt0": 0.0, "cadence": 5},
        "mystery": 1,
    })
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    msgs = info.value.errors
    joined = " | ".join(msgs)
    assert len(msgs) >= 4
    assert "power of two" in joined
    assert "dt0" in joined
    assert "cadence" in joined and "mystery" in joined
    # section checks that depend on d still fire once the grid is valid
    with pytest.raises(ConfigError, match="width"):
        parse_config(_cfg(initial={"shape": "gaussian", "width": -1.0}))


def test_parse_collects_every_error_through_tagged_sections():
    # an unknown tag still lets the section's common keys be checked
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({
            "kind": "stability",
            "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
            "stability": {"wave": "sideways",
                          "profile": {"shape": "zero"},
                          "shape": {"shape": "zero"}}}))
    joined = " | ".join(info.value.errors)
    assert "stability.wave" in joined
    assert "'eps'" in joined and "'t_end'" in joined
    # a bad preset does not hide a bad size
    with pytest.raises(ConfigError) as info:
        parse_config(_cfg(grid={"preset": 3, "n": 63, "length": 40.0}))
    joined = " | ".join(info.value.errors)
    assert "grid.preset" in joined and "grid.n" in joined


_GRID32 = {"preset": "hnls", "d": 2, "n": 32, "length": 40.0}
_WIDTH3 = {"shape": "gaussian", "width": 3.0}
_HUGE = {"shape": "gaussian", "amplitude": 1e200, "width": 2.0}
_NOT_FINITE = "gives a field whose |u|^2 or |u|^4 summed over the box is " \
              "not finite"
_NOT_HARMONIC = "omega = 0.3 is not an x-harmonic of the box (needs " \
                "omega = 2 pi m / len_x)"

# (sections, every error in the order reported) per experiment kind: each
# config has several problems, in different sections and rules at once
_MANY_ERRORS = {
    "simulate": (
        {"grid": {**_GRID32, "n": [63, 64]},
         "initial": {"shape": "gaussian", "width": -1.0},
         "run": {"t_end": 0.1, "dt0": 0.0, "cadence": 5}, "mystery": 1},
        ["grid.n[0]: every grid size must be a power of two (>= 8), got 63",
         "config: unknown key 'mystery'",
         "initial.width: must be > 0.0, got -1.0",
         "run: unknown key 'cadence'",
         "run.dt0: must be > 0.0, got 0.0"]),
    "conservation-report": (
        {"grid": {**_GRID32, "n": 16, "length": 20.0}, "initial": _HUGE,
         "run": {"t_end": 0.01}, "output": 7},
        ["output: expected a string, got 7",
         "run: conservation-report needs at least 5 samples; t_end, dt0 "
         "and sample_stride give 2",
         f"initial.amplitude: 1e+200 {_NOT_FINITE}"]),
    "planewave": (
        {"grid": _GRID32, "planewave": {"profile": _WIDTH3, "c": [0.3]},
         "run": {"t_end": 0.05, "dt0": -1.0}, "output": 7},
        ["output: expected a string, got 7",
         "run.dt0: must be > 0.0, got -1.0",
         "planewave: c[0] * len_y / len_x = 0.3 is not an integer; the "
         "lifted wave would not be periodic on this box"]),
    "standing": (
        {"grid": _GRID32, "standing": {"profile": _WIDTH3, "omega": 0.3},
         "initial": _WIDTH3},
        ["config: missing required key 'run'",
         "initial: kind 'standing' takes no initial section",
         f"standing: {_NOT_HARMONIC}"]),
    "semiclassical": (
        {"grid": _GRID32,
         "semiclassical": {"k": 0.25, "candidate": _HUGE, "t_end": 0.1},
         "run": {"t_end": 0.1}, "seed": -1},
        ["seed: must be >= 0, got -1",
         "run: kind 'semiclassical' takes no run section",
         f"semiclassical.candidate.amplitude: 1e+200 {_NOT_FINITE}"]),
    "radial": (
        {"grid": _GRID32, "nonlinearity": {"sigma": -1.0},
         "radial": {"n": 64, "r_max": 10.0, "eps": 10.0, "width": 1.0,
                    "t_end": 0.02, "concentration_eps": [5.0]}},
        ["nonlinearity.sigma: must be >= 0.0, got -1.0",
         "radial.eps: must be < r_max = 10.0, got 10.0",
         "radial.concentration_eps[0]: must be > eps = 10.0, got 5.0",
         "radial.concentration_eps: the concentration scan needs at least "
         "5 samples; t_end, dt and sample_stride give 3",
         "grid: kind 'radial' takes no grid section"]),
    "transform-check": (
        {"transform-check": {"a0": 0.0, "d": 4, "nodes": 2, "tau": 1.0}},
        ["transform-check: unknown key 'tau'",
         "transform-check: missing required key 'k'",
         "transform-check.d: must be <= 3, got 4",
         "transform-check.nodes: must be >= 3, got 2"]),
    "stability": (
        {"grid": _GRID32,
         "stability": {"wave": "standing", "omega": 0.3, "profile": _WIDTH3,
                       "shape": {"shape": "zero"}, "eps": [1e-3],
                       "t_end": 0.01},
         "output": 7, "seed": "x"},
        ["output: expected a string, got 7",
         "seed: expected an integer, got 'x'",
         f"stability: {_NOT_HARMONIC}"]),
    "two-wave": (
        {"grid": _GRID32,
         "two-wave": {"first": {"profile": _HUGE, "c": [1.0]},
                      "second": {"profile": _WIDTH3, "c": [1.0]},
                      "t_end": 0.01},
         "output": 7},
        ["output: expected a string, got 7",
         "two-wave.second.c: must differ from first.c: the two waves need "
         "distinct speeds",
         f"two-wave.first.profile.amplitude: 1e+200 {_NOT_FINITE}"]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_parse_reports_every_error_in_order(kind):
    sections, errors = _MANY_ERRORS[kind]
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({"kind": kind, **sections}))
    assert info.value.errors == errors


_README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_readme_configs_parse_with_their_warnings():
    with open(_README, encoding="utf-8") as f:
        blocks = re.findall(r"```json\n(.*?)```", f.read(), re.S)
    found = [(cfg.kind, cfg.warnings) for cfg in map(parse_config, blocks)]
    assert found == [
        ("simulate", []),
        ("stability", ["out-of-regime: outside certified windows: "
                       "alpha=(1.0, -1.0), sigma=4.0, (|c|-1)lam=-0.5"])]


def test_parse_rejects_wrong_sections_and_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config(json.dumps({"kind": "simulatte"}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{kind:")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2]")
    with pytest.raises(ConfigError, match="no grid section"):
        parse_config(json.dumps({
            "kind": "transform-check",
            "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
            "transform-check": {"a0": 0.0, "k": 0.25},
        }))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_cfg(stability={"wave": "plane"}))


_NAN, _INF = float("nan"), float("inf")
_OMEGA = 2.0 * math.pi / 40.0     # the first carrier on a box of length 40


def _planewave_cfg(length=40.0, **block):
    pw = {"profile": {"shape": "gaussian", "amplitude": 1.0, "width": 3.0},
          "c": [1.0]}
    pw.update(block)
    return json.dumps({
        "kind": "planewave",
        "grid": {"preset": "hnls", "d": 2, "n": 32, "length": length},
        "planewave": pw, "run": {"t_end": 0.05}})


def _radial_cfg(**block):
    rad = {"r_max": 10.0, "width": 1.0, "t_end": 0.01}
    rad.update(block)
    return json.dumps({"kind": "radial", "radial": rad})


def _bump(amplitude):
    return {"shape": "gaussian", "amplitude": amplitude, "width": 2.0}


def _narrow(width, **extra):
    return {"shape": "gaussian", "amplitude": 0.5, "width": width, **extra}


_BOX16 = {"preset": "hnls", "d": 2, "n": 16, "length": 20.0}


def _two_wave_cfg(c1, c2, n=32, first=None, **block):
    def side(c, profile=None):
        return {"profile": profile or {"shape": "gaussian", "width": 3.0},
                "c": [c]}

    return json.dumps({
        "kind": "two-wave",
        "grid": {"preset": "hnls", "d": 2, "n": n, "length": 40.0},
        "two-wave": {"first": side(c1, first), "second": side(c2),
                     "t_end": 0.01, **block}})


def _with_block_keys(cfg, **keys):
    """`cfg` with `keys` added to the block of its kind."""
    text = json.loads(cfg)
    text[text["kind"]].update(keys)
    return json.dumps(text)


def _stability_cfg(**block):
    stab = {"wave": "plane", "c": [1.0],
            "profile": {"shape": "gaussian", "width": 3.0},
            "shape": {"shape": "zero"}, "eps": [1e-3], "t_end": 0.01}
    stab.update(block)
    return json.dumps({
        "kind": "stability",
        "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
        "stability": stab})


def _semiclassical_cfg(d=2, block=None, **nonlinearity):
    return json.dumps({
        "kind": "semiclassical",
        "grid": {"preset": "hnls", "d": d, "n": 16, "length": 20.0},
        "nonlinearity": nonlinearity,
        "semiclassical": {"k": 0.25, "a0": 0.5,
                          "candidate": {"shape": "gaussian", "width": 2.0},
                          "t_end": 0.1, "samples": 3, **(block or {})}})


def _transform_cfg(**block):
    return json.dumps({"kind": "transform-check", "transform-check": {
        "a0": 0.5, "k": 0.25, "t_end": 0.1, **block}})


def _standing_cfg(kind="standing", n=32, block=None):
    block = {"profile": {"shape": "gaussian", "width": 3.0}, "omega": 0.3,
             **(block or {})}
    cfg = {"kind": kind,
           "grid": {"preset": "hnls", "d": 2, "n": n, "length": 40.0}}
    if kind == "stability":
        block.update(wave="standing", shape={"shape": "zero"}, eps=[1e-3],
                     t_end=0.01)
    else:
        cfg["run"] = {"t_end": 0.05}
    cfg[kind] = block
    return json.dumps(cfg)


@pytest.mark.parametrize("kind, text, key", [
    ("simulate", _cfg(run={"t_end": _NAN}), "t_end"),
    ("simulate", _cfg(run={"t_end": 0.05, "dt0": _INF}), "dt0"),
    ("simulate", _cfg(grid={"preset": "hnls", "d": 2, "n": 32,
                            "length": _INF}), "length"),
    ("simulate", _cfg(initial={"shape": "gaussian", "amplitude": _NAN,
                               "width": 3.0}), "amplitude"),
    ("simulate", _cfg(initial={"shape": "gaussian", "width": 3.0,
                               "boost": [_NAN, 0.0]}), "boost"),
    ("simulate", _cfg(grid={"preset": "hnls", "d": 2, "n": 4,
                            "length": 40.0}), "power of two"),
    # alpha_x xi_x^2 overflows on a valid box: the run would write inf
    ("simulate", _cfg(grid={"alpha": [1e308, -1.0], "n": 16,
                            "length": 10.0}), "grid.alpha"),
    # 1 / 5e-324 overflows: the signature has no quadratic form
    ("simulate", _cfg(grid={"alpha": [5e-324, -1.0], "n": 16,
                            "length": 10.0}), "grid.alpha"),
    ("simulate", _cfg(run={"t_end": -0.01, "adapt": True}), "adapt"),
    ("radial", _radial_cfg(eps=10.0), "eps"),
    ("two-wave", _two_wave_cfg(1.0, 1.0), "second.c"),
    ("simulate", _cfg(initial={"shape": "gaussian",
                               "width": [0.0, 2.0]}), "width"),
    ("simulate", _cfg(initial={"shape": "gaussian",
                               "width": [-1.0, 2.0]}), "width"),
    ("radial", _radial_cfg(sign=True), "sign"),
    # a plane profile's period is the box along x: the key is gone
    ("planewave", _planewave_cfg(period=20.0), "unknown key 'period'"),
    ("two-wave", _two_wave_cfg(1.0, -1.0, period=40.0),
     "unknown key 'period'"),
    ("stability", _stability_cfg(period=40.0), "unknown key 'period'"),
    ("planewave", _planewave_cfg(c=[0.3]), "len_y"),
    # c len_y / len_x overflows to inf on a valid box
    ("planewave", _planewave_cfg(c=[1e307]), "len_y"),
    # a box whose cell volume overflows
    ("planewave", _planewave_cfg(length=1e308, c=[2.0]), "length"),
    ("two-wave", _two_wave_cfg(0.5, 0.3), "two-wave.first"),
    ("standing", _standing_cfg(), "omega"),
    ("stability", _standing_cfg(kind="stability"), "omega"),
    ("conservation-report", _cfg(kind="conservation-report",
                                 run={"t_end": 0.01}), "5 samples"),
    # the wave rules wait for a valid grid
    ("standing", _standing_cfg(n=63), "power of two"),
    ("two-wave", _two_wave_cfg(1.0, -1.0, n=63), "power of two"),
    # a standing profile spans the transverse axes of the grid: the key
    # that sized it is gone
    ("standing", _standing_cfg(n=64, block={"omega": _OMEGA, "n": 32}),
     "unknown key 'n'"),
    ("stability", _standing_cfg(kind="stability", n=64,
                                block={"omega": _OMEGA, "n": 32}),
     "unknown key 'n'"),
    # a plane profile takes the grid's n_x samples: that key is gone too
    ("planewave", _planewave_cfg(n=4), "unknown key 'n'"),
    ("two-wave", _with_block_keys(_two_wave_cfg(1.0, -1.0), n=32),
     "unknown key 'n'"),
    ("stability", _stability_cfg(n=32), "unknown key 'n'"),
    # the chirp-dilation map transports sigma = 4/d only
    ("semiclassical", _semiclassical_cfg(sigma=7.0), "nonlinearity.sigma"),
    # the concentration scan needs grid points inside each radius
    ("radial", _radial_cfg(eps=0.5, concentration_eps=[0.2]),
     "concentration_eps"),
    # t_end, dt and sample_stride give 3 samples; the scan needs 5
    ("radial", _radial_cfg(n=64, t_end=0.02, concentration_eps=[1.0]),
     "5 samples"),
    # constraint residuals difference three samples
    ("transform-check", json.dumps({"kind": "transform-check",
                                    "transform-check": {"a0": 0.0, "k": 0.25,
                                                        "nodes": 2}}),
     "nodes"),
    # an amplitude whose |u|^2 or |u|^(sigma+2) summed over the box
    # overflows: the run would write inf mass, energy or sup
    ("simulate", _cfg(grid=_BOX16, initial=_bump(1e200)),
     "initial.amplitude"),
    ("simulate", _cfg(grid=_BOX16, initial=_bump(1e100)),
     "initial.amplitude"),
    ("simulate", _cfg(grid=_BOX16, initial={"shape": "random",
                                            "amplitude": 1e300}),
     "initial.amplitude"),
    ("conservation-report", _cfg(kind="conservation-report",
                                 initial=_bump(1e200)), "initial.amplitude"),
    ("planewave", _planewave_cfg(profile=_bump(1e200)),
     "planewave.profile.amplitude"),
    ("standing", _standing_cfg(block={"omega": _OMEGA,
                                      "profile": _bump(1e200)}),
     "standing.profile.amplitude"),
    ("two-wave", _two_wave_cfg(1.0, -1.0, first=_bump(1e200)),
     "two-wave.first.profile.amplitude"),
    ("semiclassical", json.dumps({
        "kind": "semiclassical",
        "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
        "semiclassical": {"k": 0.25, "candidate": _bump(1e200),
                          "t_end": 0.1}}),
     "semiclassical.candidate.amplitude"),
    ("radial", _radial_cfg(amplitude=1e200), "radial.amplitude"),
    # 16 bytes a point overflow numpy's index range: forming the grid's
    # wavenumbers or the radial nodes raised "array is too big"
    ("simulate", _cfg(grid={"preset": "hnls", "n": [2 ** 62, 8],
                            "length": 10.0}), "grid.n"),
    ("radial", _radial_cfg(n=2 ** 62), "radial.n"),
    # the perturbation is rescaled by its H1 norm, which must be finite
    ("stability", _stability_cfg(shape=_bump(1e200)),
     "stability.shape.amplitude"),
    # a Gaussian whose ((x - center) / width)^2 overflows on the box: numpy
    # warned of the overflow and the run wrote a one-point spike
    ("simulate", _cfg(initial=_narrow(1e-300)), "initial.width"),
    ("simulate", _cfg(initial=_narrow([3.0, 1e-300])), "initial.width"),
    ("simulate", _cfg(initial=_narrow(1.0, center=[1e300, 0.0])),
     "initial.width"),
    ("conservation-report", _cfg(kind="conservation-report",
                                 initial=_narrow(1e-300)), "initial.width"),
    ("planewave", _planewave_cfg(profile=_narrow(1e-300)),
     "planewave.profile.width"),
    ("standing", _standing_cfg(block={"omega": _OMEGA,
                                      "profile": _narrow(1e-300)}),
     "standing.profile.width"),
    ("two-wave", _two_wave_cfg(1.0, -1.0, first=_narrow(1e-300)),
     "two-wave.first.profile.width"),
    ("stability", _stability_cfg(profile=_narrow(1e-300)),
     "stability.profile.width"),
    ("stability", _stability_cfg(shape=_narrow(1e-300)),
     "stability.shape.width"),
    ("semiclassical", json.dumps({
        "kind": "semiclassical",
        "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
        "semiclassical": {"k": 0.25, "candidate": _narrow(1e-300),
                          "t_end": 0.1}}),
     "semiclassical.candidate.width"),
    ("radial", _radial_cfg(width=1e-300), "radial.width"),
    # 1 / (r h^2) in the radial Laplacian overflows on too fine a box: the
    # run failed with "profile values must be finite"
    ("radial", _radial_cfg(n=64, r_max=1e-110, width=1e-111),
     "radial.r_max"),
    ("radial", _radial_cfg(n=64, r_max=1e-160, width=1e-161),
     "radial.r_max"),
    ("radial", _radial_cfg(n=64, r_max=1e-110, eps=1e-112, width=1e-111),
     "radial.r_max"),
    # the step's matrix is I - i dt/2 A: this box's largest entry, 4 / h^2
    # = 4e200, is finite times dt/4 and overflows only times dt/2
    ("radial", _radial_cfg(n=64, r_max=63e-100, dt=1.5e108, t_end=1.5e108),
     "radial.r_max"),
    # the coefficient ODEs start at 4k - a0^2: a0^2 raised OverflowError,
    # and 4k = inf truncated the trajectory at t = 0
    ("transform-check", _transform_cfg(a0=1e200), "transform-check.a0"),
    ("transform-check", _transform_cfg(k=1e308), "transform-check.k"),
    ("transform-check", _transform_cfg(a0=-1e200, k=-1e308),
     "transform-check.a0"),
    ("semiclassical", _semiclassical_cfg(block={"a0": 1e200}),
     "semiclassical.a0"),
    ("semiclassical", _semiclassical_cfg(block={"k": 1e308}),
     "semiclassical.k"),
    # a bound-state defect that is not finite failed the run
    ("semiclassical", _semiclassical_cfg(lam=1e300),
     "semiclassical.candidate.amplitude"),
    ("semiclassical", _semiclassical_cfg(block={"k": 1e300}),
     "semiclassical.candidate.amplitude"),
    ("semiclassical", _semiclassical_cfg(block={"gamma0": 1e308}),
     "semiclassical.candidate.amplitude"),
])
def test_bad_numbers_exit_2_before_any_run(kind, text, key, tmp_path,
                                          capsys):
    # json accepts NaN and Infinity; the schema must not
    with pytest.raises(ConfigError, match=key):
        parse_config(text)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_the_radial_box_rule_checks_the_step_the_run_takes(tmp_path):
    # the box refused above at dt = t_end = 1.5e108 takes one step of
    # t_end = 0.01 here, whose matrix is finite: it parses and runs
    cfg = parse_config(_radial_cfg(n=64, r_max=63e-100, dt=1.5e108,
                                   t_end=0.01))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    assert _manifest(tmp_path)["status"] == "Done"


def test_semiclassical_sigma_is_four_over_d(tmp_path):
    # the run never reads sigma: the chirp-dilation map fixes it at 4/d,
    # so an omitted sigma means 4/d and any other is refused
    assert parse_config(_semiclassical_cfg(d=3)).sigma == 4.0 / 3.0
    assert parse_config(_semiclassical_cfg(sigma=2.0)).sigma == 2.0
    for d, sigma in ((2, 7.0), (3, 2.0), (2, 0.0)):
        with pytest.raises(ConfigError) as info:
            parse_config(_semiclassical_cfg(d=d, sigma=sigma))
        assert info.value.errors == [
            f"nonlinearity.sigma: must be 4/d = {4.0 / d!r} on a {d}-D "
            f"grid, got {sigma!r}"]
    cfg = parse_config(_semiclassical_cfg(d=3))
    assert run_experiment(cfg, out_dir=tmp_path) == 0


def test_three_dimensional_standing_waves_run(tmp_path, capsys):
    # a standing profile spans both transverse axes of a 3-D box; it is
    # not linted, as the certified windows state only 1-D profiles
    grid = {"preset": "hnls", "d": 3, "n": 16, "length": 20.0}
    wave = {"profile": {"shape": "gaussian", "amplitude": 0.5,
                        "width": 2.0, "center": 1.0},
            "omega": 2.0 * math.pi / 20.0}
    configs = {
        "standing": {"kind": "standing", "grid": grid, "standing": wave,
                     "run": {"t_end": 0.05}},
        "stability": {"kind": "stability", "grid": grid, "stability": {
            "wave": "standing", **wave, "eps": [1e-3], "t_end": 0.01,
            "shape": {"shape": "gaussian", "amplitude": 1.0,
                      "width": 2.0}}}}
    for kind, cfg in configs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / kind
        assert cli_main([kind, "--config", str(path), "--out", str(out)]) == 0
        assert _manifest(out)["status"] == "Done"
        err = capsys.readouterr().err
        assert "profile" not in err, err
    with open(tmp_path / "standing" / "standing.json") as handle:
        assert json.load(handle)["formula_mismatch"] <= 1e-12


def test_a_narrow_gaussian_whose_square_is_finite_runs(tmp_path):
    # (10 / 1e-150)^2 = 1e302 is finite: the field is a one-point spike,
    # formed without an overflow (tier-1 makes numpy's warnings errors)
    for text in (_cfg(grid=_BOX16, initial=_narrow(1e-150)),
                 _radial_cfg(width=1e-150)):
        cfg = parse_config(text)
        assert run_experiment(cfg, out_dir=tmp_path / cfg.kind) == 0


def test_amplitude_rule_builds_a_field_only_near_overflow(monkeypatch):
    # on 16^2 a Gaussian's sum of |u|^4 is about 4 A^4: at A = 5e76 the
    # bound 4 N A^4 overflows but the field's own sums do not
    built = []
    recipe = runner._field_from_block
    monkeypatch.setattr(runner, "_field_from_block",
                        lambda *a: built.append(a) or recipe(*a))
    parse_config(_cfg(grid=_BOX16, initial=_bump(1e60)))
    assert built == []
    parse_config(_cfg(grid=_BOX16, initial=_bump(5e76)))
    assert len(built) == 1
    with pytest.raises(ConfigError, match="initial.amplitude: 1e"):
        parse_config(_cfg(grid=_BOX16, initial=_bump(1e78)))
    # a perturbation rescaled by a finite H1 norm runs at any amplitude
    parse_config(_stability_cfg(shape=_bump(1e150)))


def test_parse_reports_a_misfit_wave_with_every_other_problem():
    text = json.loads(_planewave_cfg(c=[0.3]))
    text["output"] = 7
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(text))
    joined = " | ".join(info.value.errors)
    assert "planewave: c[0] * len_y" in joined and "output" in joined
    # two equal speeds do not hold back the waves' fit to the box
    with pytest.raises(ConfigError) as info:
        parse_config(_two_wave_cfg(0.3, 0.3))
    assert sorted(e.split(":")[0] for e in info.value.errors) == [
        "two-wave.first", "two-wave.second", "two-wave.second.c"]


@pytest.mark.parametrize("length", [1e200, 1e-200])
def test_box_out_of_double_range_exits_2_and_writes_nothing(length, tmp_path,
                                                            capsys):
    # the cell volume overflows or underflows: the run would write
    # inf/nan or zero observables
    text = _cfg(grid={"preset": "hnls", "d": 2, "n": 16, "length": length})
    with pytest.raises(ConfigError, match="grid.length"):
        parse_config(text)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert "grid.length" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_parse_stability_out_of_regime_warning():
    cfg = parse_config(json.dumps({
        "kind": "stability",
        "grid": {"preset": "hnls", "n": [32, 32], "length": [40.0, 80.0]},
        "nonlinearity": {"lam": 1.0, "sigma": 4.0},
        "stability": {
            "wave": "plane",
            "profile": {"shape": "gaussian", "amplitude": 0.4, "width": 4.0},
            "c": [0.5],
            "shape": {"shape": "gaussian", "amplitude": 1.0, "width": 2.0},
            "eps": [1e-3], "t_end": 0.2},
    }))
    assert any(w.startswith("out-of-regime:") for w in cfg.warnings)


def test_parse_profile_lint_warning():
    cfg = parse_config(json.dumps({
        "kind": "planewave",
        "grid": {"preset": "hnls", "d": 2, "n": 64, "length": 40.0},
        "planewave": {"profile": {"shape": "gaussian", "amplitude": 1.0,
                                  "width": 12.0},
                      "c": [1.0]},
        "run": {"t_end": 0.1},
    }))
    assert any("localization" in w for w in cfg.warnings)


# ---------------------------------------------------------------------------
# run_experiment

def test_a_gaussian_run_leaves_numpy_random_unloaded(tmp_path):
    # only a random shape needs numpy's generator, so only it imports it
    import hnlslab
    src = os.path.dirname(os.path.dirname(os.path.abspath(hnlslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, hnlslab\n"
            "cfg = hnlslab.parse_config(sys.argv[1])\n"
            "assert hnlslab.run_experiment(cfg, out_dir=sys.argv[2]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, _cfg(),
                          str(tmp_path / "out")], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_simulate_writes_verifiable_artifacts(tmp_path):
    cfg = parse_config(_cfg(run={"t_end": 0.05, "snapshot_stride": 3}))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["status"] == "Done"
    names = {os.path.basename(o["path"]) for o in man["outputs"]}
    assert {"observables.csv", "final.snap", "snap_00000.snap",
            "snap_00003.snap"} <= names
    for entry in man["outputs"]:
        assert file_digest(tmp_path / entry["path"]) == entry["sha256"]
    series = load_series_csv(tmp_path / "observables.csv")
    assert series["t"][0] == 0.0
    assert abs(series["t"][-1] - 0.05) < 1e-12
    snap = read_snapshot(tmp_path / "snap_00003.snap")
    assert abs(snap.t - 0.03) < 1e-9
    final = read_snapshot(tmp_path / "final.snap")
    assert abs(final.t - 0.05) < 1e-12


def test_conservation_report_free_flow_mass(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "conservation-report",
        "grid": {"preset": "hnls", "n": [64, 64], "length": [40.0, 40.0]},
        "nonlinearity": {"lam": 0.0, "sigma": 2.0},
        "initial": {"shape": "gaussian", "amplitude": 0.7, "width": 3.0},
        "run": {"t_end": 0.2},
    }))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    series = load_series_csv(tmp_path / "observables.csv")
    mass = series["mass"]
    assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-10
    report = json.loads((tmp_path / "conservation.json").read_text())
    assert report["mass_drift"] < 1e-10
    assert report["status"] == "Done"


@pytest.mark.parametrize("run", [
    {"t_end": 0.055},                  # the last interval is clipped
    {"t_end": 0.05, "adapt": True},    # dt changes at every sample
])
def test_conservation_report_on_non_uniform_sample_times(run, tmp_path,
                                                         capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_cfg(kind="conservation-report", run=run),
                        encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["conservation-report", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    t = load_series_csv(out / "observables.csv")["t"]
    assert np.ptp(np.diff(t)) > 1e-6 * np.max(np.diff(t))
    report = json.loads((out / "conservation.json").read_text())
    assert report["status"] == "Done"
    assert report["mass_drift"] < 1e-12
    assert report["virial_rate_residual"] < 1e-6
    # the report is the whole ConservationReport: every residual is read
    # beside the scale it is judged by
    assert set(report) == {"status"} | {f.name for f in
                                        fields(ConservationReport)}
    assert (report["virial_rate_residual"]
            <= 1e-6 * report["virial_scale"])
    assert (report["virial_second_residual"]
            <= 1e-6 * report["virial_second_scale"])


@pytest.mark.parametrize("grid, initial, run, status, samples", [
    # sup 3 > 4 after a few steps: BlownUp at the third sample
    ({"preset": "nls", "d": 2, "n": 32, "length": 10.0},
     {"shape": "gaussian", "amplitude": 3.0, "width": 0.7},
     {"t_end": 1.0, "dt0": 1e-3, "sample_stride": 100, "linf_ceiling": 4.0},
     "BlownUp", 3),
    # an adaptive run's samples are not counted before it runs
    ({"preset": "hnls", "d": 2, "n": 16, "length": 10.0},
     {"shape": "gaussian", "amplitude": 0.5, "width": 2.0},
     {"t_end": 0.002, "adapt": True}, "Done", 2),
], ids=["blowup", "adaptive"])
def test_conservation_report_cut_short_records_the_skipped_audit(
        grid, initial, run, status, samples, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_cfg(kind="conservation-report", grid=grid,
                             initial=initial, run=run), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["conservation-report", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert _manifest(out)["status"] == status
    assert len(load_series_csv(out / "observables.csv")["t"]) == samples
    report = json.loads((out / "conservation.json").read_text())
    assert report == {"status": status, "audit_skipped": (
        f"{status} after {samples} samples; the audit needs at least 5")}


def test_transform_check_lens_case(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "transform-check",
        "transform-check": {"a0": 0.0, "k": 0.25, "t_end": 1.0,
                            "nodes": 101},
    }))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "transform_check.json").read_text())
    assert report["b_closed_form_dev"] < 1e-8
    assert report["g_closed_form_dev"] < 1e-8
    assert not report["truncated"]


def test_transform_check_records_a_collapse_before_three_samples(tmp_path):
    # b = 1 - 10 t vanishes at t = 0.1, before the second of 3 nodes
    cfg = parse_config(json.dumps({
        "kind": "transform-check",
        "transform-check": {"a0": -10.0, "k": 0.0, "nodes": 3, "t_end": 1.0},
    }))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    assert _manifest(tmp_path)["status"] == "Done"
    report = json.loads((tmp_path / "transform_check.json").read_text())
    assert report["truncated"]
    assert report["constraints"] is None


def test_transform_check_overflow_is_a_truncation_not_a_warning(tmp_path):
    # k = 1e300 overflows the first RK4 step: the run truncates at t = 0
    # and raises no RuntimeWarning, which this suite makes an error
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(_transform_cfg(k=1e300, t_end=1.0))
    out = tmp_path / "out"
    assert cli_main(["transform-check", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert _manifest(out)["status"] == "Done"
    report = json.loads((out / "transform_check.json").read_text())
    assert report["truncated"]
    assert report["constraints"] is None


def test_radial_blowup_before_the_scan_records_why(tmp_path):
    # the sup starts at 1 above the ceiling: BlownUp after 1 step, with 2
    # of the 5 samples the concentration scan needs
    cfg = parse_config(_radial_cfg(n=64, t_end=1.0, linf_ceiling=0.5,
                                   concentration_eps=[1.0]))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    assert _manifest(tmp_path)["status"] == "BlownUp"
    report = json.loads((tmp_path / "radial.json").read_text())
    assert report["steps"] == 1
    assert report["concentration"] is None
    assert report["concentration_skipped"] == ("BlownUp after 2 samples; "
                                               "the scan needs at least 5")


def test_radial_scan_that_finishes_is_reported(tmp_path):
    # 100 steps sampled every 10: 11 samples; the Gaussian spreads, so its
    # sup inside neither radius grows
    cfg = parse_config(_radial_cfg(n=64, t_end=0.1,
                                   concentration_eps=[1.0, 2.0]))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "radial.json").read_text())
    assert report["status"] == "Done" and report["steps"] == 100
    assert report["concentration"] == {"eps": [1.0, 2.0],
                                       "increasing": [False, False]}
    assert "concentration_skipped" not in report


def test_radial_memory_does_not_grow_with_the_sample_count(tmp_path):
    # 500 steps on 256 nodes sampled every step or every 50th: each sample
    # leaves one sup per radius, not a 4 KiB profile (2 MiB in all)
    def peak(stride):
        cfg = parse_config(_radial_cfg(n=256, dt=1e-3, t_end=0.5,
                                       sample_stride=stride,
                                       concentration_eps=[1.0, 2.0]))
        out = tmp_path / f"stride_{stride}"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run_experiment(cfg, out_dir=out) == 0
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak(50)                        # first imports and lookups, warm-up
    assert peak(1) <= peak(50) + 64 * 1024


def test_stability_sweep_writes_report_per_eps(tmp_path):
    cfg = parse_config(json.dumps({
        "kind": "stability",
        "grid": {"preset": "hnls", "n": [32, 32], "length": [40.0, 80.0]},
        "nonlinearity": {"lam": 1.0, "sigma": 4.0},
        "stability": {
            "wave": "plane",
            "profile": {"shape": "gaussian", "amplitude": 0.4, "width": 4.0},
            "c": [0.5],
            "shape": {"shape": "gaussian", "amplitude": 1.0, "width": 2.0,
                      "center": [3.0, -2.0]},
            "eps": [1e-3, 5e-4, 2.5e-4], "t_end": 0.3},
    }))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    man = _manifest(tmp_path)
    assert man["status"] == "Done"
    for i in range(3):
        report = json.loads(
            (tmp_path / f"stability_eps{i}.json").read_text())
        assert report["in_regime"] is False     # |c| < 1 with lam > 0
        assert report["series"] == f"stability_eps{i}.csv"
        series = load_series_csv(tmp_path / report["series"])
        assert set(series) == {"t", "h", "phi_sup", "grad_phi_sup"}


@needs_owned_arguments
def test_runner_keeps_no_reference_to_the_initial_field(tmp_path,
                                                         monkeypatch):
    made, alive = [], []
    field_from_block, write = runner._field_from_block, runner.write_snapshot

    def traced_field_from_block(*args):
        f = field_from_block(*args)
        made.append(weakref.ref(f.values))     # the field's memory
        return f

    def traced_write(field, path):
        alive.append(made[0]() is not None)
        return write(field, path)

    monkeypatch.setattr(runner, "_field_from_block", traced_field_from_block)
    monkeypatch.setattr(runner, "write_snapshot", traced_write)
    cfg = parse_config(_cfg(run={"t_end": 0.03, "dt0": 1e-2,
                                 "sample_stride": 1, "snapshot_stride": 1}))
    assert run_experiment(cfg, out_dir=tmp_path / "out") == 0
    # snap_00000 is u0 itself; snap_00001..3 and final.snap come after the
    # first step, when nothing holds u0
    assert alive == [True, False, False, False, False]
    assert made[0]() is None


def test_blowup_is_exit_zero(tmp_path):
    cfg = parse_config(_cfg(
        run={"t_end": 0.5, "linf_ceiling": 0.5}))   # sup starts at 0.7
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    assert _manifest(tmp_path)["status"] == "BlownUp"


def test_operational_failure_is_nonzero_with_manifest(tmp_path):
    # the schema rejects a wave that does not fit its box, so the parsed
    # wave is moved to another box to make the run itself fail
    cfg = parse_config(json.dumps({
        "kind": "planewave",
        "grid": {"preset": "hnls", "d": 2, "n": 32, "length": 40.0},
        "planewave": {"profile": {"shape": "gaussian", "amplitude": 0.7,
                                  "width": 3.0},
                      "c": [1.0]},
        "run": {"t_end": 0.1},
    }))
    cfg.waves["planewave"] = replace(cfg.waves["planewave"], grid=Grid(
        (32, 32), (80.0, 80.0), (1.0, -1.0)))
    assert run_experiment(cfg, out_dir=tmp_path) == 1
    man = _manifest(tmp_path)
    assert man["status"].startswith("Failed:")
    assert man["outputs"] == []


def test_runs_lift_the_waves_the_parse_fitted(tmp_path, monkeypatch):
    # the parse fits each wave to its box; a run lifts that very spec and
    # constructs no wave spec of its own
    from hnlslab import families
    made, lifted = [], []
    for cls in (families.PlaneWaveSpec, families.StandingWaveSpec):
        def post_init(self, original=cls.__post_init__):
            made.append(self)
            original(self)

        def lift(self, values, t, original=cls.lift):
            lifted.append(self)
            return original(self, values, t)

        monkeypatch.setattr(cls, "__post_init__", post_init)
        monkeypatch.setattr(cls, "lift", lift)
    profile = {"shape": "gaussian", "amplitude": 0.5, "width": 2.0}
    texts = [json.dumps({"kind": "planewave", "grid": _BOX16,
                         "planewave": {"profile": profile, "c": [1.0]},
                         "run": {"t_end": 0.01}}),
             json.dumps({"kind": "standing", "grid": _BOX16,
                         "standing": {"profile": profile,
                                      "omega": 2.0 * math.pi / 20.0},
                         "run": {"t_end": 0.01}}),
             _stability_cfg(), _two_wave_cfg(1.0, -1.0)]
    for text in texts:
        cfg = parse_config(text)
        made.clear()
        lifted.clear()
        out = tmp_path / cfg.kind
        assert run_experiment(cfg, out_dir=out) == 0, _manifest(out)
        assert made == [], cfg.kind
        assert len(cfg.waves) == (2 if cfg.kind == "two-wave" else 1)
        assert {id(spec) for spec in lifted} == {
            id(spec) for spec in cfg.waves.values()}, cfg.kind


def test_the_parse_fits_each_wave_once(monkeypatch):
    # each wave spec is built once, with its profile, which is the Gaussian
    # sampled on the grid of the spec's problem
    from hnlslab import families
    fits = []
    for name in ("_alignment_ints", "_carrier_index"):
        def counted(*args, original=getattr(families, name)):
            fits.append(args)
            return original(*args)

        monkeypatch.setattr(families, name, counted)
    profile = {"shape": "gaussian", "amplitude": 0.5, "width": 2.0,
               "center": 1.0}
    texts = [json.dumps({"kind": "planewave", "grid": _BOX16,
                         "planewave": {"profile": profile, "c": [1.0]},
                         "run": {"t_end": 0.01}}),
             json.dumps({"kind": "standing", "grid": _BOX16,
                         "standing": {"profile": profile,
                                      "omega": 2.0 * math.pi / 20.0},
                         "run": {"t_end": 0.01}}),
             _stability_cfg(), _two_wave_cfg(1.0, -1.0)]
    for text in texts:
        fits.clear()
        cfg = parse_config(text)
        assert len(fits) == len(cfg.waves) == (
            2 if cfg.kind == "two-wave" else 1), cfg.kind
        for where, spec in cfg.waves.items():
            p = runner._at(cfg, where)["profile"]
            box = spec.problem.grid
            expect = gaussian_field(box, p["amplitude"], p["width"],
                                    (p["center"],) * box.d).values
            assert spec.f0.tobytes() == expect.tobytes(), where


def test_identical_config_and_seed_reproduce_digests(tmp_path):
    text = _cfg(initial={"shape": "random", "amplitude": 0.5, "corr": 2.0},
                seed=11)
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run_experiment(parse_config(text), out_dir=out) == 0
        man = _manifest(out)
        digests.append(sorted((o["path"], o["sha256"])
                              for o in man["outputs"]))
    assert digests[0] == digests[1]
    out = tmp_path / "three"
    other = _cfg(initial={"shape": "random", "amplitude": 0.5, "corr": 2.0},
                 seed=12)
    assert run_experiment(parse_config(other), out_dir=out) == 0
    third = sorted((o["path"], o["sha256"])
                   for o in _manifest(out)["outputs"])
    assert third != digests[0]


_TINY_GRID = {"preset": "hnls", "d": 2, "n": 16, "length": 40.0}
_TINY_BUMP = {"shape": "gaussian", "width": 3.0}
_TINY_RUN = {"t_end": 0.02, "sample_stride": 5}

# (config, artifacts in the order they are written) per experiment kind
_TINY_RUNS = {
    "simulate": (
        {"grid": _TINY_GRID, "initial": _TINY_BUMP,
         "run": {**_TINY_RUN, "snapshot_stride": 2}},
        ["snap_00000.snap", "snap_00002.snap", "snap_00004.snap",
         "observables.csv", "final.snap"]),
    "conservation-report": (
        {"grid": _TINY_GRID, "initial": _TINY_BUMP, "run": _TINY_RUN},
        ["observables.csv", "final.snap", "conservation.json"]),
    "planewave": (
        {"grid": _TINY_GRID, "run": _TINY_RUN,
         "planewave": {"profile": _TINY_BUMP, "c": [1.0]}},
        ["observables.csv", "final.snap", "planewave.json"]),
    "standing": (
        {"grid": _TINY_GRID, "run": _TINY_RUN,
         "standing": {"profile": _TINY_BUMP, "omega": _OMEGA}},
        ["observables.csv", "final.snap", "standing.json"]),
    "semiclassical": (
        {"grid": _TINY_GRID,
         "semiclassical": {"k": 0.25, "candidate": _TINY_BUMP,
                           "t_end": 0.1, "samples": 3}},
        ["semiclassical.csv", "final.snap", "semiclassical.json"]),
    "radial": (
        {"radial": {"n": 64, "r_max": 10.0, "width": 1.0, "t_end": 0.02}},
        ["radial_final.csv", "radial.json"]),
    "transform-check": (
        {"transform-check": {"a0": 0.0, "k": 0.25, "t_end": 0.1,
                             "nodes": 11}},
        ["transform_check.json"]),
    "stability": (
        {"grid": _TINY_GRID,
         "stability": {"wave": "plane", "profile": _TINY_BUMP, "c": [1.0],
                       "shape": _TINY_BUMP, "eps": [1e-3, 5e-4],
                       "t_end": 0.01}},
        ["stability_eps0.csv", "stability_eps0.json",
         "stability_eps1.csv", "stability_eps1.json"]),
    "two-wave": (
        {"grid": {**_TINY_GRID, "length": [40.0, 80.0]},
         "two-wave": {"first": {"profile": _TINY_BUMP, "c": [0.5]},
                      "second": {"profile": _TINY_BUMP, "c": [-0.5]},
                      "t_end": 0.01}},
        ["two_wave.csv", "two_wave.json"]),
}


@pytest.mark.parametrize("kind", [k for k in KINDS if k in _TINY_RUNS[k][0]])
def test_a_missing_block_is_one_config_error(kind):
    # the rules on the block's amplitudes wait for the block itself
    sections = {k: v for k, v in _TINY_RUNS[kind][0].items() if k != kind}
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({"kind": kind, **sections}))
    assert info.value.errors == [f"config: missing required key '{kind}'"]


@pytest.mark.parametrize("kind", KINDS)
def test_manifest_lists_every_artifact_in_write_order(kind, tmp_path):
    sections, written = _TINY_RUNS[kind]
    cfg = parse_config(json.dumps({"kind": kind, **sections}))
    assert run_experiment(cfg, out_dir=tmp_path) == 0
    outputs = _manifest(tmp_path)["outputs"]
    assert [o["path"] for o in outputs] == written
    assert sorted(os.listdir(tmp_path)) == sorted(written + ["manifest.json"])
    for entry in outputs:
        assert file_digest(tmp_path / entry["path"]) == entry["sha256"]


def _src_path() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))


@pytest.fixture(scope="module")
def cli_run_modules(tmp_path_factory):
    """{kind: sorted modules in sys.modules} after `cli.main` ran the
    kind's tiny config, each kind in a fresh process; radial is left out
    where numpy's LAPACK lacks zgttrf/zgttrs."""
    from hnlslab import radial
    tmp = tmp_path_factory.mktemp("cli_runs")
    code = ("import json, sys\n"
            "from hnlslab.cli import main\n"
            "kind, config, out = sys.argv[1:]\n"
            "assert main([kind, '--config', config, '--out', out]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    loaded = {}
    for kind in KINDS:
        if kind == "radial" and radial._numpy_lapack() is None:
            continue
        config = tmp / f"{kind}.json"
        config.write_text(json.dumps({"kind": kind, **_TINY_RUNS[kind][0]}),
                          encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-c", code, kind, str(config), str(tmp / kind)],
            env=dict(os.environ, PYTHONPATH=_src_path()), check=True,
            capture_output=True, text=True, timeout=120)
        loaded[kind] = json.loads(out.stdout.splitlines()[-1])
    return loaded


def test_no_cli_kind_loads_scipy(cli_run_modules):
    # radial solves through numpy's LAPACK where it has zgttrf/zgttrs, and
    # scipy's binding is used only where it lacks them
    assert {kind: [m for m in mods if m.split(".")[0] == "scipy"]
            for kind, mods in cli_run_modules.items()} == {
        kind: [] for kind in cli_run_modules}


# the package modules that a CLI run of every kind loads, and those that
# only some kinds load, by kind
_EVERY_KIND = {"hnlslab", "hnlslab.cli", "hnlslab.runner", "hnlslab.fields",
               "hnlslab.spectral", "hnlslab.observables",
               "hnlslab.evolution", "hnlslab.artifacts"}
_KIND_MODULES = {
    "simulate": set(), "conservation-report": set(),
    "planewave": {"families"}, "standing": {"families"},
    "semiclassical": {"families", "transforms"},
    "radial": {"radial"}, "transform-check": {"transforms"},
    "stability": {"families", "coupled"},
    "two-wave": {"families", "coupled"},
}


def test_each_cli_kind_loads_only_its_modules(cli_run_modules):
    assert set(_KIND_MODULES) == set(KINDS)
    for kind, mods in cli_run_modules.items():
        assert {m for m in mods if m.split(".")[0] == "hnlslab"} == (
            _EVERY_KIND | {f"hnlslab.{m}" for m in _KIND_MODULES[kind]}), kind


# every name the package exported, by the module that defines it
_EXPORTED = {
    "fields": "Grid ComplexField NormBundle GridError FieldDataError "
              "constant_field gaussian_field harmonic_field "
              "random_smooth_field spectral_derivative norms "
              "apply_linear_propagator boundary_mass_fraction",
    "observables": "ObservableSample ObservableSeries ConservationReport "
                   "energy sample verify_conservation",
    "evolution": "EvolutionProblem RunConfig StepperState FieldTrajectory "
                 "step_strang run residual_hnls harmonic_saddle_potential "
                 "STATUS_RUNNING STATUS_DONE STATUS_BLOWNUP",
    "transforms": "TransformState TransformError SymmetryParams "
                  "integrate_transform_odes constraint_residuals "
                  "closed_form_b apply_pct apply_symmetry "
                  "signature_quadratic",
    "radial": "RadialProfile RadialTrajectory RadialRunResult "
              "GroundState ConcentrationReport ConcentrationScan "
              "BC_DIRICHLET BC_REGULARITY make_radial_profile radial_mass "
              "radial_energy radial_weights radial_laplacian_dense "
              "solve_radial cone_trace_jump shoot_ground_state "
              "concentration_scan save_radial_csv",
    "families": "PlaneWaveSpec StandingWaveSpec SemiclassicalSpec "
                "lift_profile standing_wave_lift wave_field "
                "bound_state_defect semiclassical_field "
                "profile_hypothesis_warnings",
    "coupled": "DecomposedState CoupledSeries StabilityReport TwoWaveSeries "
               "lift_structured make_decomposed step_decomposed "
               "step_perturbation run_decomposed stability_run two_wave_run",
    "artifacts": "RunManifest SnapshotError write_snapshot read_snapshot "
                 "snapshot_nbytes save_series_csv load_series_csv "
                 "file_digest write_json",
    "runner": "ExperimentConfig ConfigError KINDS parse_config "
              "run_experiment",
}


def test_package_exports_resolve_on_first_access():
    # `import hnlslab` loads no submodule; each exported name is the
    # object its module defines
    code = ("import json, sys, hnlslab\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=_src_path()),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert [m for m in loaded if m.split(".")[0] == "hnlslab"] == ["hnlslab"]
    import hnlslab
    owner = {name: module for module, names in _EXPORTED.items()
             for name in names.split()}
    assert sorted(hnlslab.__all__) == sorted(owner)
    for name, module in owner.items():
        defined = getattr(importlib.import_module(f"hnlslab.{module}"), name)
        assert getattr(hnlslab, name) is defined, name
    with pytest.raises(AttributeError):
        hnlslab.no_such_name


# ---------------------------------------------------------------------------
# CLI

def test_cli_runs_and_reports(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(_cfg(), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Done" in captured.out
    assert _manifest(out)["status"] == "Done"


def test_cli_rejects_mismatched_kind_and_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(_cfg(), encoding="utf-8")
    assert cli_main(["radial", "--config", str(cfg_path)]) == 2
    assert "does not match" in capsys.readouterr().err

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(_cfg(grid={"preset": "hnls", "d": 2, "n": 63,
                                   "length": 40.0}), encoding="utf-8")
    assert cli_main(["simulate", "--config", str(bad_path)]) == 2
    assert "power of two" in capsys.readouterr().err

    assert cli_main(["simulate", "--config",
                     str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_seed_override_controls_output(tmp_path, capsys):
    # --seed enters the config before it is parsed: the seed that ran is
    # the one the config hash covers, and the schema checks it
    seedless = _cfg(initial={"shape": "random", "amplitude": 0.5,
                             "corr": 2.0})
    cfg_path = tmp_path / "rand.json"
    cfg_path.write_text(seedless, encoding="utf-8")
    seeded_path = tmp_path / "seeded.json"
    seeded_path.write_text(json.dumps({**json.loads(seedless), "seed": 7}),
                           encoding="utf-8")
    digests, hashes = {}, {}
    for name, path, seed in (("a", cfg_path, ["--seed", "7"]),
                             ("b", cfg_path, ["--seed", "7"]),
                             ("c", cfg_path, ["--seed", "8"]),
                             ("written", seeded_path, [])):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(path),
                         "--out", str(out), *seed]) == 0
        digests[name] = file_digest(out / "final.snap")
        hashes[name] = _manifest(out)["config_hash"]
    assert digests["a"] == digests["b"] == digests["written"]
    assert digests["a"] != digests["c"]
    assert hashes["a"] == hashes["b"] == hashes["written"]
    assert hashes["a"] != hashes["c"]
    capsys.readouterr()
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "neg"), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()


def test_manifest_records_the_config_that_ran(tmp_path):
    # the run directory alone says which config ran, --seed written in
    cfg_path = tmp_path / "rand.json"
    cfg_path.write_text(_cfg(initial={"shape": "random", "amplitude": 0.5},
                             seed=3), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out",
                     str(out), "--seed", "8"]) == 0
    manifest = _manifest(out)
    config = manifest["config"]
    assert config["seed"] == 8
    assert config["initial"] == {"shape": "random", "amplitude": 0.5}
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert (hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            == manifest["config_hash"])
    assert parse_config(json.dumps(config)).config_hash == \
        manifest["config_hash"]


def test_cli_surfaces_regime_warnings(tmp_path, capsys):
    cfg_path = tmp_path / "stab.json"
    cfg_path.write_text(json.dumps({
        "kind": "stability",
        "grid": {"preset": "hnls", "n": [32, 32], "length": [40.0, 80.0]},
        "nonlinearity": {"lam": 1.0, "sigma": 4.0},
        "stability": {
            "wave": "plane",
            "profile": {"shape": "gaussian", "amplitude": 0.4, "width": 4.0},
            "c": [0.5],
            "shape": {"shape": "gaussian", "amplitude": 1.0, "width": 2.0},
            "eps": [1e-3], "t_end": 0.1},
    }), encoding="utf-8")
    assert cli_main(["stability", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert "out-of-regime" in capsys.readouterr().err
