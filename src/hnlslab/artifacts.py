"""Bit-exact run artifacts: field snapshots, CSV series, and manifests.

Formats, chosen for the smallest dependency surface that keeps exactness
where it matters:

* fields    -- custom little-endian binary (see `write_snapshot`); complex
               samples round-trip bit-for-bit,
* series    -- CSV with a header row; floats printed with `repr`, i.e. the
               shortest digits that parse back to the same double,
* manifests -- JSON, one per experiment, listing every output file with
               its SHA-256 digest.

Every writer goes through write-temp-then-rename in the target directory,
so a crash never leaves a half-written artifact behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ComplexField, Grid, GridError

SNAPSHOT_MAGIC = b"HNLSNAP1"
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Raised for malformed, truncated, or foreign snapshot files."""


def _atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, to a temporary file beside
    path and rename it over path."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.",
                               suffix="-" + os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def snapshot_nbytes(grid: Grid) -> int:
    """Exact file size of a snapshot on `grid`: 8-byte magic, u32 version,
    u32 d, then d u32 sizes, d f64 lengths, d f64 signatures, f64 time,
    and one (re, im) f64 pair per sample -- 24 + 20 d + 16 prod(n)."""
    return 24 + 20 * grid.d + 16 * int(np.prod(grid.n))


def write_snapshot(field: ComplexField, path) -> int:
    """Serialize a field; returns the number of bytes written.

    Layout (all little-endian): magic "HNLSNAP1", u32 version = 1, u32 d,
    u32 n[d], f64 len[d], f64 alpha[d], f64 t, then prod(n) complex
    samples as (re, im) f64 pairs in row-major order.  The samples are
    written from the field's own buffer when it is C-ordered little-endian
    complex128, so no copy of the field is made.
    """
    g = field.grid
    head = SNAPSHOT_MAGIC
    head += struct.pack("<II", SNAPSHOT_VERSION, g.d)
    head += struct.pack(f"<{g.d}I", *g.n)
    head += struct.pack(f"<{g.d}d", *g.length)
    head += struct.pack(f"<{g.d}d", *g.alpha)
    head += struct.pack("<d", field.t)
    body = np.ascontiguousarray(field.values, dtype="<c16")
    _atomic_write_bytes(path, head, memoryview(body).cast("B"))
    return len(head) + body.nbytes


def read_snapshot(path) -> ComplexField:
    """Inverse of `write_snapshot`; bit-exact on the complex samples."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 16:
        raise SnapshotError(f"file too short for a snapshot header "
                            f"({len(raw)} bytes)")
    if raw[:8] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad magic {raw[:8]!r}, "
                            f"expected {SNAPSHOT_MAGIC!r}")
    version, d = struct.unpack_from("<II", raw, 8)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    header = 16 + 4 * d + 8 * d + 8 * d + 8
    if len(raw) < header:
        raise SnapshotError("truncated snapshot header")
    n = struct.unpack_from(f"<{d}I", raw, 16)
    off = 16 + 4 * d
    length = struct.unpack_from(f"<{d}d", raw, off)
    off += 8 * d
    alpha = struct.unpack_from(f"<{d}d", raw, off)
    off += 8 * d
    (t,) = struct.unpack_from("<d", raw, off)
    off += 8
    count = math.prod(n)      # exact: np.prod wraps to 0 for n = (2**31,) * 3
    expected = off + 16 * count
    if len(raw) != expected:
        raise SnapshotError(f"payload size mismatch: file has {len(raw)} "
                            f"bytes, header promises {expected}")
    vals = np.frombuffer(raw, dtype="<c16", count=count, offset=off)
    try:
        grid = Grid(tuple(int(m) for m in n), length, alpha)
    except GridError as exc:
        raise SnapshotError(f"header describes no valid grid: {exc}") from exc
    return ComplexField(grid, vals.astype(np.complex128).reshape(grid.n),
                        t=float(t))


# ---------------------------------------------------------------------------
# CSV series

def save_series_csv(path, columns: dict) -> None:
    """Write named columns of equal length as CSV.

    Values are printed with `repr` so every double survives a round trip;
    the column order of the mapping is preserved.
    """
    names = list(columns)
    if not names:
        raise ValueError("need at least one column")
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    rows = len(arrays[0])
    for name, a in zip(names, arrays):
        if a.ndim != 1 or len(a) != rows:
            raise ValueError(f"column {name!r} is not a 1-D array "
                             f"of length {rows}")
    lines = [",".join(names)]
    for i in range(rows):
        lines.append(",".join(repr(float(a[i])) for a in arrays))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_series_csv(path) -> dict:
    """Read a CSV written by `save_series_csv` back into named columns."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln for ln in handle.read().splitlines() if ln]
    if not lines:
        raise ValueError(f"{path} is empty")
    names = lines[0].split(",")
    data = [[] for _ in names]
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"ragged CSV row in {path}: {ln!r}")
        for store, cell in zip(data, cells):
            store.append(float(cell))
    return {name: np.asarray(col) for name, col in zip(names, data)}


# ---------------------------------------------------------------------------
# manifests

def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """What an experiment produced, verifiable after the fact.

    `config` is the config object that ran, seed included, and
    `config_hash` the SHA-256 of its canonical (sorted-key,
    whitespace-free) JSON.  `outputs` maps artifact paths (relative to the
    manifest's directory) to their SHA-256 digests; identical config + seed
    must reproduce the digests exactly.  The manifest is written even when
    the run fails, so `status` is the single place to look for an outcome.
    """

    config_hash: str
    config: dict
    code_version: str
    started: str
    finished: str
    status: str
    outputs: list = dc_field(default_factory=list)

    def add_output(self, root, path) -> None:
        self.outputs.append({
            "path": os.path.relpath(os.fspath(path), os.fspath(root)),
            "sha256": file_digest(path),
        })

    def to_json(self) -> str:
        return json.dumps({
            "config_hash": self.config_hash,
            "config": self.config,
            "code_version": self.code_version,
            "started": self.started,
            "finished": self.finished,
            "status": self.status,
            "outputs": self.outputs,
        }, indent=2)

    def write(self, path) -> None:
        _atomic_write_bytes(path, (self.to_json() + "\n").encode("utf-8"))


def write_json(path, payload) -> None:
    """Atomic JSON dump used for reports."""
    _atomic_write_bytes(path, (json.dumps(payload, indent=2) + "\n")
                        .encode("utf-8"))
