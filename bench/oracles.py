"""Readers and reference values made apart from hnlslab.

Nothing here imports the package under test.  Snapshots are parsed from the
documented HNLSNAP1 layout with `struct` and `numpy.frombuffer`, CSV series
with the standard `csv` module, digests with `hashlib`, and every expected
value comes from a closed form evaluated here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct

import numpy as np

SNAP_MAGIC = b"HNLSNAP1"


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# independent readers

def snapshot_size(n) -> int:
    """24 + 20 d + 16 prod(n) bytes: magic, version, d, then per-axis
    u32 size, f64 length and f64 signature, an f64 time stamp and one
    complex128 per sample."""
    return 24 + 20 * len(n) + 16 * math.prod(n)


def parse_snapshot(raw: bytes) -> dict:
    """Decode HNLSNAP1 bytes into n, length, alpha, t and the samples."""
    expect(len(raw) >= 16, f"snapshot of {len(raw)} bytes has no header")
    expect(raw[:8] == SNAP_MAGIC, f"bad snapshot magic {raw[:8]!r}")
    version, d = struct.unpack_from("<II", raw, 8)
    expect(version == 1, f"snapshot version {version}, expected 1")
    expect(1 <= d <= 3, f"snapshot dimension {d}")
    n = struct.unpack_from(f"<{d}I", raw, 16)
    expect(len(raw) == snapshot_size(n),
           f"snapshot has {len(raw)} bytes, layout needs {snapshot_size(n)}")
    off = 16 + 4 * d
    length = struct.unpack_from(f"<{d}d", raw, off)
    alpha = struct.unpack_from(f"<{d}d", raw, off + 8 * d)
    (t,) = struct.unpack_from("<d", raw, off + 16 * d)
    values = np.frombuffer(raw, dtype="<c16", offset=off + 16 * d + 8)
    return {"n": tuple(n), "length": length, "alpha": alpha, "t": t,
            "values": values.reshape(n)}


def read_snapshot(path) -> dict:
    with open(path, "rb") as handle:
        return parse_snapshot(handle.read())


def read_csv(path) -> dict:
    """Header row plus rows of floats, as named numpy columns."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    expect(len(rows) >= 2, f"{path}: no data rows")
    names = rows[0]
    for row in rows[1:]:
        expect(len(row) == len(names), f"{path}: ragged row {row!r}")
    cols = np.array([[float(x) for x in row] for row in rows[1:]])
    return {name: cols[:, j] for j, name in enumerate(names)}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_digests(outdir) -> tuple:
    """(status, {relative path: sha256}) from the manifest, with every
    listed output re-hashed; raises CheckError if a digest differs."""
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    digests = {}
    for entry in manifest["outputs"]:
        actual = sha256(os.path.join(outdir, entry["path"]))
        expect(actual == entry["sha256"],
               f"{entry['path']}: sha256 {actual} differs from manifest")
        digests[entry["path"]] = actual
    return manifest["status"], digests


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# closed forms

def rel(a, b) -> float:
    return abs(a - b) / abs(b)


def gaussian_mass(amp, width, d) -> float:
    """int |A exp(-|x|^2 / (2 w^2))|^2 over R^d = A^2 pi^(d/2) w^d."""
    return amp ** 2 * math.pi ** (d / 2) * width ** d


def glassey_time(amp, width, d, lam, sigma) -> float:
    """Latest possible collapse time of a real Gaussian under the elliptic
    NLS i u_t + Lap u + lam |u|^sigma u = 0 with d sigma >= 4.

    The virial V = int |x|^2 |u|^2 obeys V'' <= 16 E and V'(0) = 0 for real
    data, so V reaches 0 no later than sqrt(V0 / (-8 E)).  For the
    Gaussian: ||u||^2 = A^2 pi^(d/2) w^d, V0 = ||u||^2 d w^2 / 2,
    ||grad u||^2 = ||u||^2 d / (2 w^2), int |u|^(s+2) = A^(s+2)
    (2 pi w^2 / (s+2))^(d/2).
    """
    if d * sigma < 4:
        raise ValueError("the virial bound needs d * sigma >= 4")
    mass = gaussian_mass(amp, width, d)
    v0 = mass * d * width ** 2 / 2.0
    grad2 = mass * d / (2.0 * width ** 2)
    pot = amp ** (sigma + 2) * (2.0 * math.pi * width ** 2
                                / (sigma + 2)) ** (d / 2)
    energy = 0.5 * grad2 - lam / (sigma + 2.0) * pot
    if energy >= 0:
        raise ValueError("the virial bound needs negative energy")
    return math.sqrt(v0 / (-8.0 * energy))


def semiclassical_b(a0, k, t):
    """b(t) = sqrt((1 + a0 t)^2 + 4 k t^2)."""
    t = np.asarray(t, dtype=float)
    return np.sqrt((1.0 + a0 * t) ** 2 + 4.0 * k * t ** 2)


def axis_coords(n, length) -> np.ndarray:
    """Centered periodic samples (m - n/2) L/n, m = 0..n-1."""
    return (np.arange(n) - n // 2) * (length / n)


def discrete_mass(values, length) -> float:
    cell = math.prod(L / m for L, m in zip(length, values.shape))
    return cell * float(np.sum(values.real ** 2 + values.imag ** 2))


def discrete_energy(values, length, alpha, lam, sigma) -> float:
    """1/2 sum_j alpha_j int |d_j u|^2 - lam/(sigma+2) int |u|^(sigma+2),
    the gradient taken per axis from the DFT (Parseval)."""
    n = values.shape
    cell = math.prod(L / m for L, m in zip(length, n))
    spec2 = np.abs(np.fft.fftn(values)) ** 2
    kinetic = 0.0
    for j, (m, L) in enumerate(zip(n, length)):
        xi = 2.0 * math.pi * np.fft.fftfreq(m, d=L / m)
        shape = [1] * len(n)
        shape[j] = m
        kinetic += alpha[j] * float(np.sum(xi.reshape(shape) ** 2 * spec2))
    kinetic *= cell / math.prod(n)
    pot = cell * float(np.sum(np.abs(values) ** (sigma + 2.0)))
    return 0.5 * kinetic - lam / (sigma + 2.0) * pot


def radial_mass(r, values) -> float:
    """Discrete mass sum w_i |F_i|^2 with w_i = r_i h, halved at r_max,
    and h^2/8 at a regularity node r = 0 (the weight under which the
    Crank-Nicolson radial stepper is unitary)."""
    h = r[1] - r[0]
    w = r * h
    w[-1] = 0.5 * r[-1] * h
    w[0] = h * h / 8.0 if r[0] == 0.0 else 0.5 * r[0] * h
    return float(np.sum(w * np.abs(values) ** 2))


def least_squares_slope(t, y) -> float:
    tm = float(np.mean(t))
    return float(np.sum((t - tm) * (y - np.mean(y))) / np.sum((t - tm) ** 2))
