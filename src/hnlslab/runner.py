"""Experiment configs and the execution entry point.

Config surface syntax (stable; the CLI and tests depend on it)
--------------------------------------------------------------
A config is one UTF-8 JSON object.  Top-level keys:

  kind           simulate | planewave | standing | semiclassical | radial |
                 transform-check | stability | two-wave | conservation-report
  grid           {"preset": "hnls"|"nls" or "alpha": [..], "d": int,
                  "n": int or [int..], "length": number or [number..]}
                 "hnls" is signature (+1, -1, ..), "nls" is all +1; `n` and
                 `length` broadcast from scalars; every n must be a power of
                 two >= 8.  `d` may be omitted when some list fixes it.
  nonlinearity   {"lam": 1.0, "sigma": 2.0}
  initial        field recipe (simulate / conservation-report):
                 {"shape": "gaussian", "amplitude", "width", "center"?,
                  "boost"?} | {"shape": "random", "amplitude", "corr"}
                 | {"shape": "harmonic", "modes", "amplitude"}
  run            {"t_end", "dt0": 1e-3, "sample_stride": 10,
                  "snapshot_stride": 0, "adapt": false,
                  "linf_ceiling": null, "dt_floor": null}
                 null ceiling/floor mean the solver rules (1e6 x initial
                 sup norm; dt0 x 1e-8).
  output         artifact directory, default "."
  seed           u64 for randomized shapes, default 0

plus exactly one kind-specific block named after the kind (none for
simulate / conservation-report); see the `_exp_*` docstrings for their
keys.  Unknown keys anywhere are rejected, so are NaN and Infinity
wherever a number is expected, and validation reports every problem at
once rather than stopping at the first.

Profile-hypothesis lint results and regime certification are attached to
the parsed config as `warnings`: advisory, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .fields import (ComplexField, Grid, _is_pow2, gaussian_field,
                     harmonic_field, norms, random_smooth_field)
from .observables import verify_conservation
from .evolution import (STATUS_DONE, EvolutionProblem, RunConfig,
                        StepperState, run)
from .transforms import (closed_form_b, constraint_residuals,
                         integrate_transform_odes)
from .radial import (concentration_scan, make_radial_profile, radial_energy,
                     radial_mass, save_radial_csv, solve_radial)
from .families import (PlaneWaveSpec, StandingWaveSpec,
                       make_semiclassical_spec, plane_wave_field,
                       semiclassical_field, standing_wave_field)
from .coupled import (certify_regime, profile_hypothesis_warnings,
                      stability_run, two_wave_run)
from .artifacts import (RunManifest, save_series_csv, write_json,
                        write_snapshot)

KINDS = ("simulate", "planewave", "standing", "semiclassical", "radial",
         "transform-check", "stability", "two-wave", "conservation-report")


class ConfigError(ValueError):
    """Invalid experiment config; `errors` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    """A validated experiment: normalized sections plus advisory warnings.

    `grid`, `initial`, `run` and `block` hold plain dicts with defaults
    filled in; `config_hash` is the SHA-256 of the canonical (sorted-key,
    whitespace-free) JSON, so formatting does not change identity.
    """

    kind: str
    grid: dict | None
    lam: float
    sigma: float
    initial: dict | None
    run: dict | None
    block: dict | None
    output: str
    seed: int
    config_hash: str
    warnings: list = dc_field(default_factory=list)

    def build_grid(self) -> Grid:
        if self.grid is None:
            raise ValueError(f"experiment kind {self.kind!r} has no grid")
        return Grid(self.grid["n"], self.grid["length"], self.grid["alpha"])


# ---------------------------------------------------------------------------
# schema validation: small explicit checkers, all errors collected

_MISSING = object()


def _is_num(v) -> bool:
    """A finite number; `json` also parses NaN and Infinity, rejected here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _check_unknown(errors, where, block, allowed) -> bool:
    if not isinstance(block, dict):
        errors.append(f"{where}: expected an object")
        return False
    for key in sorted(block):
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")
    return True


def _num(errors, where, block, key, default=_MISSING, minv=None,
         strict=False, allow_none=False):
    if key not in block:
        if default is _MISSING:
            errors.append(f"{where}: missing required key {key!r}")
            return None
        return default
    v = block[key]
    if v is None and allow_none:
        return None
    if not _is_num(v):
        errors.append(f"{where}.{key}: expected a finite number, "
                      f"got {v!r}")
        return None
    v = float(v)
    if minv is not None and (v < minv or (strict and v == minv)):
        op = ">" if strict else ">="
        errors.append(f"{where}.{key}: must be {op} {minv}, got {v}")
        return None
    return v


def _int(errors, where, block, key, default=_MISSING, minv=None):
    if key not in block:
        if default is _MISSING:
            errors.append(f"{where}: missing required key {key!r}")
            return None
        return default
    v = block[key]
    if not isinstance(v, int) or isinstance(v, bool):
        errors.append(f"{where}.{key}: expected an integer, got {v!r}")
        return None
    if minv is not None and v < minv:
        errors.append(f"{where}.{key}: must be >= {minv}, got {v}")
        return None
    return v


def _bool(errors, where, block, key, default):
    v = block.get(key, default)
    if not isinstance(v, bool):
        errors.append(f"{where}.{key}: expected true/false, got {v!r}")
        return default
    return v


def _str(errors, where, block, key, choices=None, default=_MISSING):
    if key not in block:
        if default is _MISSING:
            errors.append(f"{where}: missing required key {key!r}")
            return None
        return default
    v = block[key]
    if not isinstance(v, str):
        errors.append(f"{where}.{key}: expected a string, got {v!r}")
        return None
    if choices is not None and v not in choices:
        errors.append(f"{where}.{key}: expected one of "
                      f"{'|'.join(choices)}, got {v!r}")
        return None
    return v


def _num_list(errors, where, block, key, default=_MISSING, length=None,
              minlen=1):
    if key not in block:
        if default is _MISSING:
            errors.append(f"{where}: missing required key {key!r}")
            return None
        return default
    v = block[key]
    if not isinstance(v, list) or not all(_is_num(x) for x in v):
        errors.append(f"{where}.{key}: expected a list of finite numbers, "
                      f"got {v!r}")
        return None
    if length is not None and len(v) != length:
        errors.append(f"{where}.{key}: expected {length} entries, "
                      f"got {len(v)}")
        return None
    if len(v) < minlen:
        errors.append(f"{where}.{key}: needs at least {minlen} entries")
        return None
    return [float(x) for x in v]


def _pow2(errors, where, n) -> bool:
    if not isinstance(n, int) or isinstance(n, bool) or not _is_pow2(n):
        errors.append(f"{where}: every grid size must be a power of two "
                      f"(>= 8), got {n!r}")
        return False
    return True


def _norm_grid(errors, raw) -> dict | None:
    where = "grid"
    if not _check_unknown(errors, where, raw,
                          {"preset", "d", "n", "length", "alpha"}):
        return None
    preset = _str(errors, where, raw, "preset", choices=("hnls", "nls"),
                  default=None)
    alpha_raw = raw.get("alpha")
    if preset is not None and alpha_raw is not None:
        errors.append(f"{where}: give either preset or alpha, not both")
        return None
    if preset is None and alpha_raw is None:
        errors.append(f"{where}: need a preset (hnls|nls) or an alpha list")
        return None

    def as_list(v):
        return v if isinstance(v, list) else None

    d = _int(errors, where, raw, "d", default=None, minv=1)
    if d is None and "d" not in raw:
        for v in (as_list(raw.get("n")), as_list(raw.get("length")),
                  as_list(alpha_raw)):
            if v is not None:
                d = len(v)
                break
        if d is None:
            errors.append(f"{where}: cannot infer d; give d or a per-axis "
                          f"list")
            return None
    if d is None or not 1 <= d <= 3:
        errors.append(f"{where}: d must be 1, 2 or 3")
        return None

    n_raw = raw.get("n", _MISSING)
    if n_raw is _MISSING:
        errors.append(f"{where}: missing required key 'n'")
        return None
    ns = n_raw if isinstance(n_raw, list) else [n_raw] * d
    if len(ns) != d:
        errors.append(f"{where}.n: expected {d} entries, got {len(ns)}")
        return None
    if not all(_pow2(errors, f"{where}.n", m) for m in ns):
        return None

    len_raw = raw.get("length", _MISSING)
    if len_raw is _MISSING:
        errors.append(f"{where}: missing required key 'length'")
        return None
    lens = len_raw if isinstance(len_raw, list) else [len_raw] * d
    if len(lens) != d or not all(_is_num(v) and v > 0 for v in lens):
        errors.append(f"{where}.length: expected {d} positive finite "
                      f"numbers")
        return None

    if preset == "hnls":
        alpha = (1.0,) + (-1.0,) * (d - 1)
    elif preset == "nls":
        alpha = (1.0,) * d
    else:
        alpha = _num_list(errors, where, raw, "alpha", length=d)
        if alpha is None:
            return None
        alpha = tuple(alpha)
    return {"d": d, "n": tuple(int(m) for m in ns),
            "length": tuple(float(v) for v in lens), "alpha": alpha}


_INITIAL_KEYS = {
    "gaussian": {"shape", "amplitude", "width", "center", "boost"},
    "random": {"shape", "amplitude", "corr"},
    "harmonic": {"shape", "modes", "amplitude"},
}


def _norm_initial(errors, where, raw, d) -> dict | None:
    if not isinstance(raw, dict):
        errors.append(f"{where}: expected an object")
        return None
    shape = _str(errors, where, raw, "shape",
                 choices=tuple(_INITIAL_KEYS) + ("zero",))
    if shape is None:
        return None
    if shape == "zero":
        _check_unknown(errors, where, raw, {"shape"})
        return {"shape": "zero"}
    if not _check_unknown(errors, where, raw, _INITIAL_KEYS[shape]):
        return None
    out = {"shape": shape,
           "amplitude": _num(errors, where, raw, "amplitude", default=1.0)}
    if shape == "gaussian":
        w = raw.get("width", _MISSING)
        if w is _MISSING:
            errors.append(f"{where}: missing required key 'width'")
        elif isinstance(w, list):
            out["width"] = _num_list(errors, where, raw, "width", length=d)
        elif _is_num(w) and w > 0:
            out["width"] = float(w)
        else:
            errors.append(f"{where}.width: expected a positive number or "
                          f"per-axis list, got {w!r}")
        out["center"] = _num_list(errors, where, raw, "center",
                                  default=None, length=d)
        out["boost"] = _num_list(errors, where, raw, "boost",
                                 default=None, length=d)
    elif shape == "random":
        out["corr"] = _num(errors, where, raw, "corr", default=1.0,
                           minv=0.0, strict=True)
    else:
        modes = raw.get("modes")
        if not (isinstance(modes, list) and len(modes) == d
                and all(isinstance(m, int) and not isinstance(m, bool)
                        for m in modes)):
            errors.append(f"{where}.modes: expected {d} integers")
        else:
            out["modes"] = [int(m) for m in modes]
    return out


def _norm_run(errors, raw) -> dict | None:
    where = "run"
    allowed = {"t_end", "dt0", "sample_stride", "snapshot_stride", "adapt",
               "linf_ceiling", "dt_floor"}
    if not _check_unknown(errors, where, raw, allowed):
        return None
    return {
        "t_end": _num(errors, where, raw, "t_end"),
        "dt0": _num(errors, where, raw, "dt0", default=1e-3, minv=0.0,
                    strict=True),
        "sample_stride": _int(errors, where, raw, "sample_stride",
                              default=10, minv=1),
        "snapshot_stride": _int(errors, where, raw, "snapshot_stride",
                                default=0, minv=0),
        "adapt": _bool(errors, where, raw, "adapt", False),
        "linf_ceiling": _num(errors, where, raw, "linf_ceiling",
                             default=None, minv=0.0, strict=True,
                             allow_none=True),
        "dt_floor": _num(errors, where, raw, "dt_floor", default=None,
                         minv=0.0, strict=True, allow_none=True),
    }


def _norm_profile(errors, where, raw) -> dict | None:
    """1-D profile recipe: {"shape": "gaussian"|"zero", amplitude, width,
    center?}."""
    if not isinstance(raw, dict):
        errors.append(f"{where}: expected an object")
        return None
    shape = _str(errors, where, raw, "shape", choices=("gaussian", "zero"))
    if shape == "zero":
        _check_unknown(errors, where, raw, {"shape"})
        return {"shape": "zero"}
    if not _check_unknown(errors, where, raw,
                          {"shape", "amplitude", "width", "center"}):
        return None
    return {"shape": "gaussian",
            "amplitude": _num(errors, where, raw, "amplitude", default=1.0),
            "width": _num(errors, where, raw, "width", minv=0.0,
                          strict=True),
            "center": _num(errors, where, raw, "center", default=0.0)}


def _profile_values(profile: dict, n: int, period: float) -> np.ndarray:
    z = (np.arange(n) - n // 2) * (period / n)
    if profile["shape"] == "zero":
        return np.zeros(n, dtype=np.complex128)
    amp, width = profile["amplitude"], profile["width"]
    return (amp * np.exp(-0.5 * ((z - profile["center"]) / width) ** 2)
            ).astype(np.complex128)


def _norm_kind_block(errors, kind, raw, grid) -> dict | None:
    """Validate the kind-specific block; `grid` is the normalized grid
    dict (may be None when the kind has none or grid validation failed)."""
    where = kind
    gd = grid["d"] if grid else None
    gn0 = grid["n"][0] if grid else 64
    glen0 = grid["length"][0] if grid else 40.0

    if kind == "planewave" or kind == "standing":
        allowed = {"profile", "n", "c", "period"} if kind == "planewave" \
            else {"profile", "n", "omega"}
        if not _check_unknown(errors, where, raw, allowed):
            return None
        out = {"profile": _norm_profile(errors, f"{where}.profile",
                                        raw.get("profile", {}))}
        if kind == "planewave":
            out["n"] = _int(errors, where, raw, "n", default=gn0, minv=2)
            out["period"] = _num(errors, where, raw, "period",
                                 default=glen0, minv=0.0, strict=True)
            want = gd - 1 if gd else None
            out["c"] = _num_list(errors, where, raw, "c", length=want)
        else:
            if gd is not None and gd != 2:
                errors.append(f"{where}: the standing recipe is planar "
                              f"(d = 2), grid has d = {gd}")
            out["n"] = _int(errors, where, raw, "n",
                            default=grid["n"][1] if gd == 2 else gn0, minv=2)
            out["omega"] = _num(errors, where, raw, "omega")
        if out["n"] is not None:
            _pow2(errors, f"{where}.n", out["n"])
        return out

    if kind == "semiclassical":
        if not _check_unknown(errors, where, raw,
                              {"k", "a0", "gamma0", "candidate", "t_end",
                               "samples"}):
            return None
        return {
            "k": _num(errors, where, raw, "k"),
            "a0": _num(errors, where, raw, "a0", default=0.0),
            "gamma0": _num(errors, where, raw, "gamma0", default=1.0),
            "candidate": _norm_initial(errors, f"{where}.candidate",
                                       raw.get("candidate", {}), gd or 2),
            "t_end": _num(errors, where, raw, "t_end", minv=0.0,
                          strict=True),
            "samples": _int(errors, where, raw, "samples", default=33,
                            minv=2),
        }

    if kind == "radial":
        if not _check_unknown(errors, where, raw,
                              {"n", "r_max", "eps", "sign", "amplitude",
                               "width", "dt", "t_end", "sample_stride",
                               "linf_ceiling", "concentration_eps"}):
            return None
        sign = raw.get("sign", 1)
        if sign not in (1, -1):
            errors.append(f"{where}.sign: expected 1 or -1, got {sign!r}")
            sign = 1
        return {
            "n": _int(errors, where, raw, "n", default=256, minv=8),
            "r_max": _num(errors, where, raw, "r_max", minv=0.0,
                          strict=True),
            "eps": _num(errors, where, raw, "eps", default=0.0, minv=0.0),
            "sign": sign,
            "amplitude": _num(errors, where, raw, "amplitude", default=1.0),
            "width": _num(errors, where, raw, "width", minv=0.0,
                          strict=True),
            "dt": _num(errors, where, raw, "dt", default=1e-3, minv=0.0,
                       strict=True),
            "t_end": _num(errors, where, raw, "t_end", minv=0.0),
            "sample_stride": _int(errors, where, raw, "sample_stride",
                                  default=10, minv=1),
            "linf_ceiling": _num(errors, where, raw, "linf_ceiling",
                                 default=None, minv=0.0, strict=True,
                                 allow_none=True),
            "concentration_eps": _num_list(errors, where, raw,
                                           "concentration_eps",
                                           default=None),
        }

    if kind == "transform-check":
        if not _check_unknown(errors, where, raw,
                              {"a0", "k", "d", "t_end", "nodes",
                               "max_step"}):
            return None
        dim = _int(errors, where, raw, "d", default=2, minv=1)
        if dim is not None and dim > 3:
            errors.append(f"{where}.d: must be 1, 2 or 3, got {dim}")
        return {
            "a0": _num(errors, where, raw, "a0"),
            "k": _num(errors, where, raw, "k"),
            "d": dim,
            "t_end": _num(errors, where, raw, "t_end", default=1.0,
                          minv=0.0, strict=True),
            "nodes": _int(errors, where, raw, "nodes", default=201, minv=2),
            "max_step": _num(errors, where, raw, "max_step", default=1e-3,
                             minv=0.0, strict=True),
        }

    if kind == "stability":
        if not _check_unknown(errors, where, raw,
                              {"wave", "profile", "n", "period", "c",
                               "omega", "shape", "eps", "t_end", "dt",
                               "sample_stride", "grow_factor",
                               "linf_ceiling"}):
            return None
        wave = _str(errors, where, raw, "wave",
                    choices=("plane", "standing"))
        out = {
            "wave": wave,
            "profile": _norm_profile(errors, f"{where}.profile",
                                     raw.get("profile", {})),
            "shape": _norm_initial(errors, f"{where}.shape",
                                   raw.get("shape", {}), gd or 2),
            "eps": _num_list(errors, where, raw, "eps"),
            "t_end": _num(errors, where, raw, "t_end", minv=0.0,
                          strict=True),
            "dt": _num(errors, where, raw, "dt", default=1e-3, minv=0.0,
                       strict=True),
            "sample_stride": _int(errors, where, raw, "sample_stride",
                                  default=10, minv=1),
            "grow_factor": _num(errors, where, raw, "grow_factor",
                                default=10.0, minv=0.0, strict=True),
            "linf_ceiling": _num(errors, where, raw, "linf_ceiling",
                                 default=None, minv=0.0, strict=True,
                                 allow_none=True),
        }
        if out["eps"] is not None and any(e < 0 for e in out["eps"]):
            errors.append(f"{where}.eps: entries must be >= 0")
        if wave == "plane":
            if "omega" in raw:
                errors.append(f"{where}: omega is a standing-wave key")
            out["n"] = _int(errors, where, raw, "n", default=gn0, minv=2)
            out["period"] = _num(errors, where, raw, "period",
                                 default=glen0, minv=0.0, strict=True)
            out["c"] = _num_list(errors, where, raw, "c",
                                 length=gd - 1 if gd else None)
        elif wave == "standing":
            for key in ("c", "period"):
                if key in raw:
                    errors.append(f"{where}: {key} is a plane-wave key")
            if gd is not None and gd != 2:
                errors.append(f"{where}: standing stability is planar "
                              f"(d = 2), grid has d = {gd}")
            out["n"] = _int(errors, where, raw, "n",
                            default=grid["n"][1] if gd == 2 else gn0, minv=2)
            out["omega"] = _num(errors, where, raw, "omega")
        if out.get("n") is not None:
            _pow2(errors, f"{where}.n", out["n"])
        return out

    if kind == "two-wave":
        if not _check_unknown(errors, where, raw,
                              {"first", "second", "n", "period", "t_end",
                               "dt", "sample_stride"}):
            return None

        def side(name):
            sub = raw.get(name, {})
            w = f"{where}.{name}"
            if not _check_unknown(errors, w, sub, {"profile", "c"}):
                return None
            return {"profile": _norm_profile(errors, f"{w}.profile",
                                             sub.get("profile", {})),
                    "c": _num_list(errors, w, sub, "c",
                                   length=gd - 1 if gd else None)}

        out = {
            "first": side("first"),
            "second": side("second"),
            "n": _int(errors, where, raw, "n", default=gn0, minv=2),
            "period": _num(errors, where, raw, "period", default=glen0,
                           minv=0.0, strict=True),
            "t_end": _num(errors, where, raw, "t_end", minv=0.0,
                          strict=True),
            "dt": _num(errors, where, raw, "dt", default=1e-3, minv=0.0,
                       strict=True),
            "sample_stride": _int(errors, where, raw, "sample_stride",
                                  default=10, minv=1),
        }
        if out["n"] is not None:
            _pow2(errors, f"{where}.n", out["n"])
        return out

    raise AssertionError(f"unhandled kind {kind!r}")


_NEEDS_GRID = {"simulate", "conservation-report", "planewave", "standing",
               "semiclassical", "stability", "two-wave"}
_NEEDS_INITIAL = {"simulate", "conservation-report"}
_NEEDS_RUN = {"simulate", "conservation-report", "planewave", "standing"}


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config; raises ConfigError carrying the
    full list of problems, or returns the normalized config with advisory
    warnings attached."""
    errors = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"kind: expected one of {'|'.join(KINDS)}, "
                           f"got {kind!r}"])

    allowed = {"kind", "grid", "nonlinearity", "initial", "run", "output",
               "seed"}
    if kind not in ("simulate", "conservation-report"):
        allowed.add(kind)
    _check_unknown(errors, "config", raw, allowed)

    grid = None
    if kind in _NEEDS_GRID:
        if "grid" not in raw:
            errors.append("config: missing required section 'grid'")
        else:
            grid = _norm_grid(errors, raw["grid"])
    elif "grid" in raw:
        errors.append(f"config: kind {kind!r} takes no grid section")

    nl = raw.get("nonlinearity", {})
    lam, sigma = 1.0, 2.0
    if _check_unknown(errors, "nonlinearity", nl, {"lam", "sigma"}):
        lam = _num(errors, "nonlinearity", nl, "lam", default=1.0)
        sigma = _num(errors, "nonlinearity", nl, "sigma", default=2.0,
                     minv=0.0)

    initial = None
    if kind in _NEEDS_INITIAL:
        if "initial" not in raw:
            errors.append("config: missing required section 'initial'")
        elif grid is not None:
            initial = _norm_initial(errors, "initial", raw["initial"],
                                    grid["d"])
    elif "initial" in raw:
        errors.append(f"config: kind {kind!r} takes no initial section")

    run_cfg = None
    if kind in _NEEDS_RUN:
        if "run" not in raw:
            errors.append("config: missing required section 'run'")
        else:
            run_cfg = _norm_run(errors, raw["run"])
    elif "run" in raw:
        errors.append(f"config: kind {kind!r} takes no run section")

    block = None
    if kind not in ("simulate", "conservation-report"):
        if kind not in raw:
            errors.append(f"config: missing required section {kind!r}")
        else:
            block = _norm_kind_block(errors, kind, raw[kind], grid)

    output = _str(errors, "config", raw, "output", default=".")
    seed = _int(errors, "config", raw, "seed", default=0, minv=0)

    if errors:
        raise ConfigError(errors)

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    cfg = ExperimentConfig(
        kind=kind, grid=grid, lam=float(lam), sigma=float(sigma),
        initial=initial, run=run_cfg, block=block, output=output,
        seed=int(seed),
        config_hash=hashlib.sha256(canonical.encode("utf-8")).hexdigest())
    cfg.warnings.extend(_config_warnings(cfg))
    return cfg


def _config_warnings(cfg: ExperimentConfig) -> list:
    """Advisory lint: profile hypotheses and regime certification."""
    warn = []

    def lint(label, profile, n, period):
        f0 = _profile_values(profile, n, period)
        warn.extend(f"{label}: {w}"
                    for w in profile_hypothesis_warnings(f0, period))

    b = cfg.block
    if cfg.kind == "planewave":
        lint("profile", b["profile"], b["n"], b["period"])
    elif cfg.kind == "standing":
        lint("profile", b["profile"], b["n"], cfg.grid["length"][1])
    elif cfg.kind == "two-wave":
        lint("first.profile", b["first"]["profile"], b["n"], b["period"])
        lint("second.profile", b["second"]["profile"], b["n"], b["period"])
    elif cfg.kind == "stability":
        period = b["period"] if b["wave"] == "plane" \
            else cfg.grid["length"][1]
        lint("profile", b["profile"], b["n"], period)
        try:
            spec = _wave_spec(cfg, b["wave"] == "plane")
        except ValueError:
            return warn       # the run will report the construction error
        in_regime, note = certify_regime(spec, cfg.build_grid())
        if not in_regime:
            warn.append(f"out-of-regime: {note}")
    return warn


# ---------------------------------------------------------------------------
# experiment execution

def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _field_from_block(block, grid, rng) -> ComplexField:
    if block["shape"] == "zero":
        return ComplexField(grid, np.zeros(grid.n, dtype=np.complex128))
    if block["shape"] == "gaussian":
        return gaussian_field(grid, amplitude=block["amplitude"],
                              width=block["width"], center=block["center"],
                              boost=block["boost"])
    if block["shape"] == "random":
        return random_smooth_field(grid, rng, amplitude=block["amplitude"],
                                   corr=block["corr"])
    return harmonic_field(grid, modes=block["modes"],
                          amplitude=block["amplitude"])


def _series_columns(series) -> dict:
    cols = {"t": series.t, "mass": series.column("mass"),
            "energy": series.column("energy")}
    d = len(series.alpha)
    for j in range(d):
        cols[f"momentum_{j}"] = series.column("momentum", j)
    for j in range(d):
        cols[f"com_{j}"] = series.column("com", j)
    cols["virial"] = series.column("virial")
    cols["virial_rate"] = series.column("virial_rate")
    cols["linf"] = series.column("linf")
    cols["boundary_fraction"] = series.column("boundary_fraction")
    return cols


def _run_full(cfg, grid, u0, outdir, outputs, basename="observables"):
    """Shared full-grid march: series CSV, optional stride snapshots, and
    a final snapshot."""
    problem = EvolutionProblem(grid, lam=cfg.lam, sigma=cfg.sigma)
    rc = cfg.run
    run_config = RunConfig(t_end=rc["t_end"], dt0=rc["dt0"],
                           adapt=rc["adapt"],
                           linf_ceiling=rc["linf_ceiling"],
                           dt_floor=rc["dt_floor"],
                           sample_stride=rc["sample_stride"])
    stride = rc["snapshot_stride"]
    emitted = [0]

    def observer(st, _sample):
        if stride > 0 and emitted[0] % stride == 0:
            path = os.path.join(outdir, f"snap_{emitted[0]:05d}.snap")
            write_snapshot(st.field, path)
            outputs.append(path)
        emitted[0] += 1

    state, series = run(StepperState(field=u0, dt=rc["dt0"]), problem,
                        run_config, observer)
    csv_path = os.path.join(outdir, basename + ".csv")
    save_series_csv(csv_path, _series_columns(series))
    outputs.append(csv_path)
    snap_path = os.path.join(outdir, "final.snap")
    write_snapshot(state.field, snap_path)
    outputs.append(snap_path)
    return state, series


def _exp_simulate(cfg, outdir, outputs) -> str:
    """Plain initial-value run: observables.csv, snapshots, final.snap."""
    grid = cfg.build_grid()
    u0 = _field_from_block(cfg.initial, grid,
                           np.random.default_rng(cfg.seed))
    state, _ = _run_full(cfg, grid, u0, outdir, outputs)
    return state.status


def _exp_conservation(cfg, outdir, outputs) -> str:
    """Simulate plus a drift report (conservation.json)."""
    grid = cfg.build_grid()
    u0 = _field_from_block(cfg.initial, grid,
                           np.random.default_rng(cfg.seed))
    state, series = _run_full(cfg, grid, u0, outdir, outputs)
    rep = verify_conservation(series)
    path = os.path.join(outdir, "conservation.json")
    write_json(path, {
        "status": state.status,
        "mass_drift": rep.mass_drift,
        "energy_drift": rep.energy_drift,
        "momentum_drift": rep.momentum_drift,
        "com_fit_residual": rep.com_fit_residual,
        "virial_rate_residual": rep.virial_rate_residual,
        "virial_second_residual": rep.virial_second_residual,
        "rate_convention": rep.rate_convention,
        "moments_ok": rep.moments_ok,
    })
    outputs.append(path)
    return state.status


def _wave_spec(cfg, plane: bool):
    """The plane (or standing) wave spec of a planewave, standing or
    stability block."""
    b = cfg.block
    if plane:
        return PlaneWaveSpec(f0=_profile_values(b["profile"], b["n"],
                                                b["period"]),
                             period=b["period"], c=tuple(b["c"]),
                             lam=cfg.lam, sigma=cfg.sigma)
    return StandingWaveSpec(f0=_profile_values(b["profile"], b["n"],
                                               cfg.grid["length"][1]),
                            omega=b["omega"], lam=cfg.lam, sigma=cfg.sigma)


def _exp_structured_wave(cfg, outdir, outputs) -> str:
    """Evolve a lifted plane or standing wave and compare against the
    profile flow; writes <kind>.json.

    planewave block: {"profile": recipe, "c": [speeds], "n": profile
    samples, "period": profile box} -- n/period default to the grid's
    first axis.  standing block: {"profile": recipe, "omega": carrier
    frequency, "n": transverse samples} -- omega must sit on the grid
    (integer carrier index).
    """
    grid = cfg.build_grid()
    plane = cfg.kind == "planewave"
    spec = _wave_spec(cfg, plane)
    wave_field = plane_wave_field if plane else standing_wave_field
    u0 = wave_field(spec, 0.0, grid)
    state, _ = _run_full(cfg, grid, u0, outdir, outputs)
    mismatch = None
    if state.status == STATUS_DONE:
        ref = wave_field(spec, state.t, grid, dt=cfg.run["dt0"])
        num = norms(state.field.with_values(state.field.values - ref.values))
        mismatch = num.l2 / max(norms(ref).l2, 1e-300)
    path = os.path.join(outdir, f"{cfg.kind}.json")
    write_json(path, {"status": state.status, "t_end": state.t,
                      "formula_mismatch": mismatch,
                      "warnings": cfg.warnings})
    outputs.append(path)
    return state.status


def _exp_semiclassical(cfg, outdir, outputs) -> str:
    """Chirp-dilated candidate sampled along its coefficient trajectory.

    Block: {"k", "a0", "gamma0", "candidate": field recipe, "t_end",
    "samples"}.  Writes semiclassical.csv (t, sup, a, b, f, g), the final
    field, and a JSON report with the defect and any collapse truncation.
    """
    grid = cfg.build_grid()
    b = cfg.block
    cand = _field_from_block(b["candidate"], grid,
                             np.random.default_rng(cfg.seed))
    spec = make_semiclassical_spec(cand, b["k"], b["gamma0"], b["a0"],
                                   cfg.lam)
    t_grid = np.linspace(0.0, b["t_end"], b["samples"])
    state = integrate_transform_odes(b["a0"], b["k"], grid.d, t_grid)
    sups = []
    psi = None
    for tt in state.t:
        psi = semiclassical_field(spec, float(tt), grid, state=state)
        sups.append(psi.linf())
    csv_path = os.path.join(outdir, "semiclassical.csv")
    save_series_csv(csv_path, {"t": state.t, "sup": np.asarray(sups),
                               "a": state.a, "b": state.b, "f": state.f,
                               "g": state.g})
    outputs.append(csv_path)
    snap_path = os.path.join(outdir, "final.snap")
    write_snapshot(psi, snap_path)
    outputs.append(snap_path)
    path = os.path.join(outdir, "semiclassical.json")
    write_json(path, {"status": "Done", "defect": spec.defect,
                      "truncated": state.truncated,
                      "singular_time": state.singular_time,
                      "reached_t": float(state.t[-1])})
    outputs.append(path)
    return "Done"


def _exp_radial(cfg, outdir, outputs) -> str:
    """Radial Crank-Nicolson run from a Gaussian.

    Block: {"n", "r_max", "eps", "sign", "amplitude", "width", "dt",
    "t_end", "sample_stride", "linf_ceiling", "concentration_eps"}.
    eps > 0 means a Dirichlet hole (cone-region profile).
    """
    b = cfg.block
    amp, width = b["amplitude"], b["width"]
    prof = make_radial_profile(
        b["n"], b["r_max"], lambda r: amp * np.exp(-0.5 * (r / width) ** 2),
        eps=b["eps"], lam=cfg.lam, sigma=cfg.sigma, sign=b["sign"])
    result = solve_radial(prof, b["dt"], b["t_end"],
                          sample_stride=b["sample_stride"],
                          linf_ceiling=b["linf_ceiling"])
    csv_path = os.path.join(outdir, "radial_final.csv")
    save_radial_csv(result.profile, csv_path)
    outputs.append(csv_path)
    payload = {"status": result.status, "t_detect": result.t_detect,
               "steps": result.steps,
               "mass_initial": radial_mass(prof),
               "mass_final": radial_mass(result.profile),
               "energy_initial": radial_energy(prof)}
    if b["concentration_eps"] and len(result.trajectory) >= 5:
        scan = concentration_scan(result.trajectory, b["concentration_eps"])
        payload["concentration"] = {"eps": list(scan.eps),
                                    "increasing": list(scan.increasing)}
    path = os.path.join(outdir, "radial.json")
    write_json(path, payload)
    outputs.append(path)
    return result.status


def _exp_transform_check(cfg, outdir, outputs) -> str:
    """Coefficient ODEs vs closed forms.

    Block: {"a0", "k", "d", "t_end", "nodes", "max_step"}.  The report
    carries the max deviation of b (and of g where an elementary
    antiderivative exists, i.e. k >= 0) plus the constraint residuals.
    """
    b = cfg.block
    t_grid = np.linspace(0.0, b["t_end"], b["nodes"])
    state = integrate_transform_odes(b["a0"], b["k"], b["d"], t_grid,
                                     max_step=b["max_step"])
    b_dev = float(np.max(np.abs(state.b
                                - closed_form_b(b["a0"], b["k"], state.t))))
    g_dev = None
    a0, k, t = b["a0"], b["k"], state.t
    if k > 0:
        rk = 2.0 * np.sqrt(k)
        g_ref = (np.arctan(((a0 ** 2 + 4 * k) * t + a0) / rk)
                 - np.arctan(a0 / rk)) / rk
        g_dev = float(np.max(np.abs(state.g - g_ref)))
    elif k == 0:
        g_dev = float(np.max(np.abs(state.g - t / (1.0 + a0 * t))))
    path = os.path.join(outdir, "transform_check.json")
    write_json(path, {"status": "Done", "a0": a0, "k": k, "d": b["d"],
                      "truncated": state.truncated,
                      "singular_time": state.singular_time,
                      "b_closed_form_dev": b_dev,
                      "g_closed_form_dev": g_dev,
                      "constraints": constraint_residuals(state)})
    outputs.append(path)
    return "Done"


def _exp_stability(cfg, outdir, outputs) -> str:
    """Perturbation-size sweep around a structured wave.

    Block: {"wave": "plane"|"standing", "profile": recipe, "n", "period"
    or "omega", "c" (plane), "shape": field recipe for v0, "eps": [..],
    "t_end", "dt", "sample_stride", "grow_factor", "linf_ceiling"}.
    One CSV + JSON pair per eps; blow-up inside the sweep is a recorded
    outcome, not a failure.
    """
    grid = cfg.build_grid()
    b = cfg.block
    spec = _wave_spec(cfg, b["wave"] == "plane")
    shape = _field_from_block(b["shape"], grid,
                              np.random.default_rng(cfg.seed))
    reports = stability_run(spec, shape, b["eps"], b["t_end"], grid,
                            dt=b["dt"], sample_stride=b["sample_stride"],
                            grow_factor=b["grow_factor"],
                            linf_ceiling=b["linf_ceiling"])
    for i, rep in enumerate(reports):
        csv_name = f"stability_eps{i}.csv"
        save_series_csv(os.path.join(outdir, csv_name),
                        {"t": rep.t, "h": rep.h_series,
                         "phi_sup": rep.phi_sup,
                         "grad_phi_sup": rep.grad_phi_sup})
        outputs.append(os.path.join(outdir, csv_name))
        rep.series_path = csv_name
        json_name = os.path.join(outdir, f"stability_eps{i}.json")
        write_json(json_name, json.loads(rep.to_json()))
        outputs.append(json_name)
    return "Done"


def _exp_two_wave(cfg, outdir, outputs) -> str:
    """Interaction remainder of two plane waves at distinct speeds.

    Block: {"first": {"profile", "c"}, "second": {"profile", "c"}, "n",
    "period", "t_end", "dt", "sample_stride"}.
    """
    grid = cfg.build_grid()
    b = cfg.block

    def spec(side):
        return PlaneWaveSpec(f0=_profile_values(side["profile"], b["n"],
                                                b["period"]),
                             period=b["period"], c=tuple(side["c"]),
                             lam=cfg.lam, sigma=cfg.sigma)

    series = two_wave_run(spec(b["first"]), spec(b["second"]), None,
                          b["t_end"], grid, dt=b["dt"],
                          sample_stride=b["sample_stride"])
    csv_path = os.path.join(outdir, "two_wave.csv")
    save_series_csv(csv_path, {"t": series.t, "remainder": series.remainder})
    outputs.append(csv_path)
    path = os.path.join(outdir, "two_wave.json")
    write_json(path, {"status": series.status,
                      "boundary_fraction": series.boundary_fraction,
                      "product_scale": series.product_scale,
                      "remainder_sup": float(np.max(series.remainder))})
    outputs.append(path)
    return series.status


_EXPERIMENTS = {
    "simulate": _exp_simulate,
    "conservation-report": _exp_conservation,
    "planewave": _exp_structured_wave,
    "standing": _exp_structured_wave,
    "semiclassical": _exp_semiclassical,
    "radial": _exp_radial,
    "transform-check": _exp_transform_check,
    "stability": _exp_stability,
    "two-wave": _exp_two_wave,
}


def _limit_threads(n: int) -> None:
    """Best-effort cap on library thread pools; the FFT core is serial, so
    this only matters for BLAS-backed dense work."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def run_experiment(config: ExperimentConfig, out_dir=None,
                   threads: int | None = None) -> int:
    """Execute one experiment and write its manifest.

    Returns the process exit status: 0 when the run completed (including
    BlownUp -- a scientific outcome, recorded in the manifest), nonzero
    for operational failures, which land in the manifest as
    "Failed: ...".  The manifest is written in every case; only an
    unusable output directory can prevent that, and then the OSError
    propagates.
    """
    outdir = os.fspath(out_dir) if out_dir is not None else config.output
    os.makedirs(outdir, exist_ok=True)
    if threads is not None:
        _limit_threads(threads)
    started = _now()
    outputs = []
    try:
        status = _EXPERIMENTS[config.kind](config, outdir, outputs)
    except Exception as exc:
        status = f"Failed: {type(exc).__name__}: {exc}"
    manifest = RunManifest(config_hash=config.config_hash,
                           code_version=__version__, started=started,
                           finished=_now(), status=status)
    for path in outputs:
        if os.path.exists(path):
            manifest.add_output(outdir, path)
    manifest.write(os.path.join(outdir, "manifest.json"))
    return 0 if status in ("Done", "BlownUp") else 1
