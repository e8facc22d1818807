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
simulate / conservation-report); see the kind declarations,
`_DECLARATIONS`, for their keys.  Unknown keys anywhere are rejected, so
are NaN and Infinity wherever a number is expected, and so are key
combinations the run would refuse (an adaptive backward run, a radial
hole `eps >= r_max` or around a concentration radius, two waves at one
speed, a plane or standing wave that does not fit the box, a fixed-dt
conservation-report with fewer than 5 samples), and so is an amplitude
whose field's |u|^2 or |u|^(sigma+2) summed over the box (for
`stability.shape`, whose H1 norm) is not finite.
Validation reports every problem at once rather than stopping at the
first; a wave's fit to its box is checked once the grid, the nonlinearity
and the keys of the wave's block are valid, so two equal speeds are
reported together with a misfit of either wave.

Profile-hypothesis lint results and regime certification are attached to
the parsed config as `warnings`: advisory, never fatal.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, replace
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .fields import (ComplexField, Grid, GridError, _field_sums, _is_pow2,
                     gaussian_field, harmonic_field, l2_norm, norms,
                     random_smooth_field)
from .observables import _AUDIT_SAMPLES, verify_conservation
from .evolution import (STATUS_DONE, EvolutionProblem, RunConfig,
                        _fixed_dt_samples, run)
from .transforms import (_RESIDUAL_SAMPLES, closed_form_b,
                         constraint_residuals, integrate_transform_odes)
from .radial import (_SCAN_SAMPLES, ConcentrationScan, make_radial_profile,
                     radial_energy, radial_mass, save_radial_csv, solve_radial)
from .families import (PlaneWaveSpec, SemiclassicalSpec, StandingWaveSpec,
                       semiclassical_field, wave_field)
from .coupled import profile_hypothesis_warnings, stability_run, two_wave_run
from .artifacts import (RunManifest, save_series_csv, write_json,
                        write_snapshot)

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
# schema validation: one table per section, every error collected
#
# A check is `check(errors, where, value)`: it returns the normalized value,
# or appends a message naming `where` (a dotted key path; the empty path is
# the whole config) to `errors` and returns None.  A table maps each key of
# a section to `(check, default)`; the default _REQUIRED marks a key the
# section must have.

_REQUIRED = object()


def _fail(errors, where, problem):
    errors.append(f"{where or 'config'}: {problem}")


def _is_num(v) -> bool:
    """A finite number; `json` also parses NaN and Infinity, rejected here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _number(minv=None, strict=False):
    """A finite number, as a float, >= minv (> minv when strict)."""
    def check(errors, where, v):
        if not _is_num(v):
            return _fail(errors, where, f"expected a finite number, got {v!r}")
        if minv is not None and (v < minv or (strict and v == minv)):
            return _fail(errors, where, f"must be {'>' if strict else '>='} "
                                        f"{minv}, got {float(v)}")
        return float(v)
    return check


def _integer(minv=None, maxv=None):
    def check(errors, where, v):
        if not isinstance(v, int) or isinstance(v, bool):
            return _fail(errors, where, f"expected an integer, got {v!r}")
        if minv is not None and v < minv:
            return _fail(errors, where, f"must be >= {minv}, got {v}")
        if maxv is not None and v > maxv:
            return _fail(errors, where, f"must be <= {maxv}, got {v}")
        return v
    return check


def _one_of(*choices):
    """One of `choices`; true/false never stand in for 1/0."""
    def check(errors, where, v):
        if isinstance(v, bool) or v not in choices:
            return _fail(errors, where, f"expected one of "
                                        f"{'|'.join(map(str, choices))}, "
                                        f"got {v!r}")
        return v
    return check


def _flag(errors, where, v):
    if not isinstance(v, bool):
        return _fail(errors, where, f"expected true/false, got {v!r}")
    return v


def _text(errors, where, v):
    if not isinstance(v, str):
        return _fail(errors, where, f"expected a string, got {v!r}")
    return v


def _grid_size(errors, where, v):
    if isinstance(v, int) and not isinstance(v, bool) and _is_pow2(v):
        return v
    return _fail(errors, where, f"every grid size must be a power of two "
                                f"(>= 8), got {v!r}")


def _list(item, length=None):
    """A non-empty list of `item` values, of `length` entries when given."""
    def check(errors, where, v):
        if not isinstance(v, list) or not v:
            return _fail(errors, where, f"expected a non-empty list, "
                                        f"got {v!r}")
        if length is not None and len(v) != length:
            return _fail(errors, where, f"expected {length} entries, "
                                        f"got {len(v)}")
        before = len(errors)
        out = [item(errors, f"{where}[{i}]", x) for i, x in enumerate(v)]
        return out if len(errors) == before else None
    return check


def _scalar_or_list(item, length=None):
    """One `item` value, or a per-axis list of them."""
    per_axis = _list(item, length)
    return lambda errors, where, v: (
        per_axis if isinstance(v, list) else item)(errors, where, v)


def _or_null(check):
    """null, or a value `check` accepts."""
    return lambda errors, where, v: None if v is None else check(errors,
                                                                 where, v)


def _given(value):
    """A key checked before the walk; its normalized value is `value`."""
    return lambda errors, where, v: value


def _refuse(problem):
    """A key that must be absent."""
    return lambda errors, where, v: _fail(errors, where, problem)


def _section(errors, where, raw, keys, rule=None):
    """Walk the object `raw` against the table `keys`: report unknown keys,
    missing required keys and each bad value; then, when the section has
    no problem of its own, the cross-key `rule(errors, where, out)`.
    Returns the normalized section with defaults filled in, or None when
    `raw` is not an object."""
    if not isinstance(raw, dict):
        return _fail(errors, where, "expected an object")
    before = len(errors)
    for key in sorted(raw):
        if key not in keys:
            _fail(errors, where, f"unknown key {key!r}")
    out = {}
    for key, (check, default) in keys.items():
        if key in raw:
            out[key] = check(errors, f"{where}.{key}" if where else key,
                             raw[key])
        elif default is _REQUIRED:
            out[key] = _fail(errors, where, f"missing required key {key!r}")
        else:
            out[key] = default
    if rule is not None and len(errors) == before:
        rule(errors, where, out)
    return out


def _sub(keys, rule=None):
    """The check of a nested section with table `keys`."""
    return lambda errors, where, raw: _section(errors, where, raw, keys, rule)


def _tagged(tag, variants, common=None):
    """The check of a section whose `tag` value picks the table of its own
    keys from `variants`, on top of the `common` keys.  A missing or
    unknown tag is reported, and the common keys are still checked."""
    common = {tag: (_one_of(*variants), _REQUIRED), **(common or {})}
    variant_keys = {key for table in variants.values() for key in table}

    def check(errors, where, raw):
        name = raw.get(tag) if isinstance(raw, dict) else None
        if isinstance(name, str) and name in variants:
            return _section(errors, where, raw, {**common, **variants[name]})
        if isinstance(raw, dict):
            raw = {k: v for k, v in raw.items() if k not in variant_keys}
        return _section(errors, where, raw, common)
    return check


# shared rules and table fragments
_FINITE = _number()
_POSITIVE = _number(0.0, strict=True)
_AMPLITUDE = {"amplitude": (_FINITE, 1.0)}
_MARCH = {"t_end": (_POSITIVE, _REQUIRED), "dt": (_POSITIVE, 1e-3),
          "sample_stride": (_integer(1), 10)}
_CEILING = {"linf_ceiling": (_or_null(_POSITIVE), None)}
_PROFILE_SHAPES = {"gaussian": {**_AMPLITUDE,
                                 "width": (_POSITIVE, _REQUIRED),
                                 "center": (_FINITE, 0.0)},
                   "zero": {}}
_PROFILE = {"profile": (_tagged("shape", _PROFILE_SHAPES), _REQUIRED)}
_NONLINEARITY = {"lam": (_FINITE, 1.0), "sigma": (_number(0.0), 2.0)}
_RUN = {"t_end": (_FINITE, _REQUIRED), "dt0": (_POSITIVE, 1e-3),
        "sample_stride": _MARCH["sample_stride"],
        "snapshot_stride": (_integer(0), 0), "adapt": (_flag, False),
        **_CEILING, "dt_floor": (_or_null(_POSITIVE), None)}


def _initial(d):
    """The check of a field recipe on a d-dimensional grid (per-axis lists
    are unchecked in length when d is None)."""
    axes = _list(_FINITE, d)
    return _tagged("shape", {
        "gaussian": {**_AMPLITUDE,
                     "width": (_scalar_or_list(_POSITIVE, d), _REQUIRED),
                     "center": (axes, None), "boost": (axes, None)},
        "random": {**_AMPLITUDE, "corr": (_POSITIVE, 1.0)},
        "harmonic": {"modes": (_list(_integer(), d), _REQUIRED),
                     **_AMPLITUDE},
        "zero": {}})


def _run_config(run: dict) -> RunConfig:
    return RunConfig(t_end=run["t_end"], dt0=run["dt0"], adapt=run["adapt"],
                     linf_ceiling=run["linf_ceiling"],
                     dt_floor=run["dt_floor"],
                     sample_stride=run["sample_stride"])


def _runnable(errors, where, run):
    """The run section's `RunConfig`, or None with its problem reported."""
    try:
        return _run_config(run)
    except ValueError as exc:
        return _fail(errors, where, str(exc))


def _auditable(errors, where, run):
    """The run rule of conservation-report: `verify_conservation` needs
    `_AUDIT_SAMPLES` samples.  An adaptive run's count is not known
    before it runs."""
    config = _runnable(errors, where, run)
    if config is not None and not config.adapt:
        samples = _fixed_dt_samples(config)
        if samples < _AUDIT_SAMPLES:
            _fail(errors, where, f"conservation-report needs at least "
                                 f"{_AUDIT_SAMPLES} samples; t_end, dt0 and "
                                 f"sample_stride give {samples}")


def _radial_rules(errors, where, block):
    """The hole lies inside the box, and a concentration scan has grid
    points inside each radius and the samples it needs."""
    if block["eps"] >= block["r_max"]:
        _fail(errors, f"{where}.eps", f"must be < r_max = {block['r_max']}, "
                                      f"got {block['eps']}")
    for i, e in enumerate(block["concentration_eps"] or ()):
        if e <= block["eps"]:
            _fail(errors, f"{where}.concentration_eps[{i}]",
                  f"must be > eps = {block['eps']}, got {e}")
    samples = _fixed_dt_samples(RunConfig(
        t_end=block["t_end"], dt0=block["dt"],
        sample_stride=block["sample_stride"]))
    if block["concentration_eps"] and samples < _SCAN_SAMPLES:
        _fail(errors, f"{where}.concentration_eps",
              f"the concentration scan needs at least {_SCAN_SAMPLES} "
              f"samples; t_end, dt and sample_stride give {samples}")


def _wave_keys(grid):
    """The keys of a plane and of a standing wave; defaults and the length
    of `c` follow the grid when it is valid."""
    n0, len0 = (grid["n"][0], grid["length"][0]) if grid else (64, 40.0)
    plane = {"n": (_grid_size, n0), "period": (_POSITIVE, len0),
             "c": (_list(_FINITE, grid and grid["d"] - 1), _REQUIRED)}
    standing = {"n": (_grid_size, grid["n"][1] if grid and grid["d"] == 2
                      else n0), "omega": (_FINITE, _REQUIRED)}
    return {"plane": plane, "standing": standing}


def _two_wave_block(grid):
    plane = _wave_keys(grid)["plane"]
    side = _sub({**_PROFILE, "c": plane["c"]})
    return _sub({"first": (side, _REQUIRED), "second": (side, _REQUIRED),
                 "n": plane["n"], "period": plane["period"], **_MARCH})


def _distinct_speeds(errors, block):
    """The two waves of a two-wave block need distinct speeds."""
    if block["first"]["c"] == block["second"]["c"]:
        _fail(errors, "two-wave.second.c", "must differ from first.c: the "
                                           "two waves need distinct speeds")


# an amplitude passes at once when its bound on every sum is this far
# inside double range; nearer overflow the field's own sums decide
_AMPLITUDE_MARGIN = 4.0


def _power_sums(cfg, points, values, copies=1.0):
    """The bound, sums and their name in `_amplitude_rules` for |u|^2 and |u|^p
    over `points` points that hold the field `values()` `copies` times."""
    p = cfg.sigma + 2.0

    def sums():
        found = _field_sums(values(), powers=(p,))
        return copies * found.total, copies * found.powers[0]

    return (lambda a: points * max(a * a, a ** p), sums,
            f"|u|^2 or |u|^{p:g} summed over the box")


def _recipe_sums(cfg, grid, recipe):
    """`_power_sums` of a field recipe on the grid."""
    return _power_sums(cfg, math.prod(grid.n), lambda: _field_from_block(
        recipe, grid, cfg.seed).values)


def _h1_norm(cfg, grid, recipe):
    """A perturbation rescaled to each eps by its H1 norm, which must be
    finite: ||u||_H1^2 <= cell N |A|^2 (1 + max |xi|^2), by Parseval."""
    reach = 1.0 + sum(float(np.max(xi ** 2)) for xi in grid.xi)
    return (lambda a: grid.cell * math.prod(grid.n) * reach * a * a,
            lambda: [norms(_field_from_block(recipe, grid, cfg.seed)).h1],
            "H1 norm")


def _radial_sums(cfg, grid, block):
    """`_power_sums` of the radial block's Gaussian on its nodes."""
    return _power_sums(cfg, block["n"], lambda: _radial_profile(cfg).values)


def _at(cfg, where):
    """The section of `cfg` at the block path `where`: `initial`, the
    kind's block or one key of it; None when the section is absent."""
    head, _, key = where.partition(".")
    section = cfg.initial if head == "initial" else cfg.block
    return section[key] if key and section is not None else section


def _amplitude_rules(errors, cfg, grid, specs) -> None:
    """The one rule on an amplitude: the sums that a run takes of the
    field it gives (|u|^2 and |u|^(sigma+2) over the box, or the H1 norm)
    must be finite, or the run would write inf or nan.  It holds for each
    amplitude the kind declares, once the section it sits in is valid,
    and for the profile of each wave in `specs`; the grid and the
    nonlinearity are valid.  No recipe's modulus exceeds its amplitude,
    so `bound(|amplitude|)` bounds those sums, and `sums()` builds the
    field only when the bound is within _AMPLITUDE_MARGIN of overflow.  A
    refusal is reported at the amplitude key of the block."""
    found = []
    for where, bound_and_sums in _DECLARATIONS[cfg.kind].amplitudes:
        block = _at(cfg, where)
        section = where.partition(".")[0]
        if (block is not None and block.get("shape") != "zero"
                and not any(e.startswith(section) for e in errors)):
            found.append((where, block["amplitude"],
                          bound_and_sums(cfg, grid, block)))
    for where, spec in specs.items():
        profile = _at(cfg, where)["profile"]
        if profile["shape"] != "zero":
            points = math.prod(grid.n)
            found.append((f"{where}.profile", profile["amplitude"],
                          _power_sums(cfg, points, lambda f0=spec.f0: f0,
                                      points / spec.f0.size)))
    for where, amplitude, (bound, sums, what) in found:
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.float64(abs(amplitude))
            if math.isfinite(_AMPLITUDE_MARGIN * bound(a)) or all(
                    math.isfinite(x) for x in sums()):
                continue
        _fail(errors, f"{where}.amplitude", f"{amplitude!r} gives a field "
                                            f"whose {what} is not finite")


def _norm_grid(errors, raw) -> dict | None:
    """The grid section, or None when it has any problem.  `n` and
    `length` are scalars broadcast to every axis or per-axis lists; `d`
    may be omitted when one of `n`, `length` and `alpha` is a list."""
    where, before = "grid", len(errors)
    g = _section(errors, where, raw, {
        "preset": (_one_of("hnls", "nls"), None),
        "d": (_integer(1, 3), None),
        "n": (_scalar_or_list(_grid_size), _REQUIRED),
        "length": (_scalar_or_list(_POSITIVE), _REQUIRED),
        "alpha": (_or_null(_list(_FINITE)), None)})
    if g is None:
        return None
    if "preset" in raw and g["alpha"] is not None:
        _fail(errors, where, "give either preset or alpha, not both")
    elif "preset" not in raw and raw.get("alpha") is None:
        _fail(errors, where, "need a preset (hnls|nls) or an alpha list")
    lists = {key: g[key] for key in ("n", "length", "alpha")
             if isinstance(g[key], list)}
    d = g["d"]
    if "d" not in raw:
        d = len(next(iter(lists.values()))) if lists else None
        if d is None:
            _fail(errors, where, "cannot infer d; give d or a per-axis list")
        elif d > 3:
            _fail(errors, where, "d must be 1, 2 or 3")
    for key, v in lists.items():
        if d is not None and len(v) != d:
            _fail(errors, f"{where}.{key}", f"expected {d} entries, "
                                            f"got {len(v)}")
    if len(errors) > before:
        return None

    def axes(v):
        return tuple(v) if isinstance(v, list) else (v,) * d

    alpha = {"hnls": [1.0] + [-1.0] * (d - 1), "nls": [1.0] * d}.get(
        g["preset"], g["alpha"])
    out = {"d": d, "n": axes(g["n"]), "length": axes(g["length"]),
           "alpha": tuple(alpha)}
    # what is left for `Grid` to refuse is a box, or a symbol over the
    # box, out of double range; the box alone is tried with alpha = 0
    for key, alpha in (("length", (0.0,) * d), ("alpha", out["alpha"])):
        try:
            Grid(out["n"], out["length"], alpha)
        except GridError as exc:
            return _fail(errors, f"{where}.{key}", str(exc))
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config; raises ConfigError carrying the
    full list of problems, or returns the normalized config with advisory
    warnings attached."""
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
    decl = _DECLARATIONS[kind]

    errors = []
    grid = None
    if "grid" in decl.sections and "grid" in raw:
        grid = _norm_grid(errors, raw["grid"])   # the sections below read it
    keys = {"kind": (_given(kind), _REQUIRED),
            "nonlinearity": (_sub(_NONLINEARITY), {"lam": 1.0, "sigma": 2.0}),
            "output": (_text, "."), "seed": (_integer(0), 0)}
    sections = {"grid": _given(grid), "initial": _initial(grid and grid["d"]),
                "run": _sub(_RUN, decl.run_rule)}
    for name in decl.sections:
        keys[name] = (sections[name], _REQUIRED)
    if decl.block is not None:
        keys[kind] = (decl.block(grid), _REQUIRED)
    for name in sections:
        keys.setdefault(name, (_refuse(f"kind {kind!r} takes no {name} "
                                       f"section"), None))
    top = _section(errors, "", raw, keys)
    nonlinearity = top["nonlinearity"] or {}
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    cfg = ExperimentConfig(
        kind=kind, grid=grid, lam=nonlinearity.get("lam"),
        sigma=nonlinearity.get("sigma"), initial=top["initial"],
        run=top["run"], block=top.get(kind), output=top["output"],
        seed=top["seed"],
        config_hash=hashlib.sha256(canonical.encode("utf-8")).hexdigest())
    # once the block's keys are valid (no other key starts like the kind),
    # its cross-key rule runs, and the specs decide whether a wave fits its
    # box if the grid and the nonlinearity are valid as well
    block_ok = cfg.block and not any(e.startswith(kind) for e in errors)
    if block_ok and decl.rule is not None:
        decl.rule(errors, cfg.block)
    specs, box = {}, cfg.build_grid() if grid else None
    nonlinearity_ok = not any(e.startswith("nonlinearity") for e in errors)
    if block_ok and grid and nonlinearity_ok:
        specs = _wave_specs(cfg, box, errors)
    if nonlinearity_ok and (grid or "grid" not in decl.sections):
        _amplitude_rules(errors, cfg, box, specs)
    if errors:
        raise ConfigError(errors)
    for where, spec in specs.items():     # advisory lint: profile hypotheses
        _, profile = spec.profile(box)
        label = f"{where}.profile".removeprefix(f"{kind}.")
        cfg.warnings += [f"{label}: {w}" for w in profile_hypothesis_warnings(
            spec.f0, profile.grid.length[0])]
    if decl.regime:                       # and regime certification
        in_regime, note = specs[kind].regime(box)
        if not in_regime:
            cfg.warnings.append(f"out-of-regime: {note}")
    return cfg


# ---------------------------------------------------------------------------
# experiment execution

def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _field_from_block(block, grid, seed) -> ComplexField:
    """The field recipe `block` on `grid`; numpy's generator is made from
    `seed` only for a random shape, so a run of any other shape does not
    import `numpy.random`."""
    if block["shape"] == "zero":
        return ComplexField(grid, np.zeros(grid.n, dtype=np.complex128))
    if block["shape"] == "gaussian":
        return gaussian_field(grid, amplitude=block["amplitude"],
                              width=block["width"], center=block["center"],
                              boost=block["boost"])
    if block["shape"] == "random":
        return random_smooth_field(grid, np.random.default_rng(seed),
                                   amplitude=block["amplitude"],
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


class _RunDir:
    """The output directory of one run.  Every artifact is written through
    it by file name and recorded, in write order, once its writer returns;
    the manifest lists exactly what was recorded.  The writers are looked
    up by name at each call, so a wrapper set on this module sees them."""

    def __init__(self, root: str):
        self.root = root
        self.paths = []

    def _put(self, name, write):
        path = os.path.join(self.root, name)
        write(path)
        self.paths.append(path)

    def series(self, name, columns):
        self._put(name, lambda path: save_series_csv(path, columns))

    def json(self, name, payload):
        self._put(name, lambda path: write_json(path, payload))

    def snapshot(self, name, field):
        self._put(name, lambda path: write_snapshot(field, path))

    def radial(self, name, profile):
        self._put(name, lambda path: save_radial_csv(profile, path))


def _run_full(cfg, out, make_u0=None):
    """Shared full-grid march: series CSV, optional stride snapshots, and
    a final snapshot.  `make_u0(grid)` (by default the recipe `initial`)
    forms the initial field inside the call to `run`, so no frame here
    keeps it and `run` frees it at the first step."""
    grid = cfg.build_grid()
    make_u0 = make_u0 or (lambda grid: _field_from_block(cfg.initial, grid,
                                                         cfg.seed))
    problem = EvolutionProblem(grid, lam=cfg.lam, sigma=cfg.sigma)
    rc = cfg.run
    stride = rc["snapshot_stride"]
    emitted = [0]

    def observer(st, _sample):
        if stride > 0 and emitted[0] % stride == 0:
            out.snapshot(f"snap_{emitted[0]:05d}.snap", st.field)
        emitted[0] += 1

    state, series = run(make_u0(grid), problem, _run_config(rc), observer)
    out.series("observables.csv", _series_columns(series))
    out.snapshot("final.snap", state.field)
    return state, series


def _exp_conservation_report(cfg, out) -> str:
    """A simulate run plus its drift report (conservation.json)."""
    state, series = _run_full(cfg, out)
    rep = verify_conservation(series)
    out.json("conservation.json", {"status": state.status, **{
        key: getattr(rep, key) for key in (
            "mass_drift", "energy_drift", "momentum_drift",
            "com_fit_residual", "virial_rate_residual",
            "virial_second_residual", "rate_convention", "moments_ok")}})
    return state.status


def _wave_specs(cfg, grid, errors=None) -> dict:
    """{block path: plane or standing wave spec} of every wave the kind
    declares.  Its profile is sampled on the grid that `profile(grid)`
    gives the spec with a zero profile, which raises GridError when the
    wave does not fit `grid`; when `errors` is given, the misfit is
    reported there at the block path instead and the wave left out."""
    b, specs = cfg.block, {}
    for where in _DECLARATIONS[cfg.kind].waves:
        side, f0 = _at(cfg, where), np.zeros(b["n"])
        try:
            if "omega" in b:
                spec = StandingWaveSpec(f0=f0, omega=b["omega"], lam=cfg.lam,
                                        sigma=cfg.sigma)
            else:
                spec = PlaneWaveSpec(f0=f0, period=b["period"],
                                     c=tuple(side["c"]), lam=cfg.lam,
                                     sigma=cfg.sigma)
            _, profile = spec.profile(grid)
        except GridError as exc:
            if errors is None:
                raise
            _fail(errors, where, str(exc))
            continue
        p = side["profile"]
        specs[where] = spec if p["shape"] == "zero" else replace(
            spec, f0=gaussian_field(profile.grid, p["amplitude"], p["width"],
                                    (p["center"],)).values)
    return specs


def _exp_structured_wave(cfg, out) -> str:
    """Evolve a lifted plane or standing wave and compare against the
    profile flow; writes <kind>.json."""
    spec = _wave_specs(cfg, cfg.build_grid())[cfg.kind]
    state, _ = _run_full(cfg, out, lambda grid: wave_field(spec, 0.0, grid))
    mismatch = None
    if state.status == STATUS_DONE:
        ref = wave_field(spec, state.t, state.field.grid, dt=cfg.run["dt0"])
        scale = max(l2_norm(ref), 1e-300)
        # the difference is formed in the reference's own buffer, which
        # nothing else reads, so only the run's field stands beside it
        np.subtract(state.field.values, ref.values, out=ref.values)
        mismatch = l2_norm(ref) / scale
    out.json(f"{cfg.kind}.json", {"status": state.status, "t_end": state.t,
                                  "formula_mismatch": mismatch,
                                  "warnings": cfg.warnings})
    return state.status


def _exp_semiclassical(cfg, out) -> str:
    """Chirp-dilated candidate sampled along its coefficient trajectory.

    Writes semiclassical.csv (t, sup, a, b, f, g), the final field, and a
    JSON report with the defect and any collapse truncation.  One field is
    held at a time: each sample's is dropped once its sup is read, and
    only the last is kept, for the snapshot.
    """
    grid = cfg.build_grid()
    b = cfg.block
    cand = _field_from_block(b["candidate"], grid, cfg.seed)
    spec = SemiclassicalSpec(cand, b["k"], b["gamma0"], b["a0"], cfg.lam)
    t_grid = np.linspace(0.0, b["t_end"], b["samples"])
    state = integrate_transform_odes(b["a0"], b["k"], grid.d, t_grid)
    sups = [semiclassical_field(spec, float(tt), state=state).linf()
            for tt in state.t[:-1]]
    psi = semiclassical_field(spec, float(state.t[-1]), state=state)
    sups.append(psi.linf())
    out.series("semiclassical.csv", {"t": state.t, "sup": np.asarray(sups),
                                     "a": state.a, "b": state.b,
                                     "f": state.f, "g": state.g})
    out.snapshot("final.snap", psi)
    out.json("semiclassical.json", {"status": "Done", "defect": spec.defect,
                                    "truncated": state.truncated,
                                    "singular_time": state.singular_time,
                                    "reached_t": float(state.t[-1])})
    return "Done"


def _radial_profile(cfg):
    """The radial block's initial Gaussian profile."""
    b = cfg.block
    amp, width = b["amplitude"], b["width"]
    return make_radial_profile(
        b["n"], b["r_max"], lambda r: amp * np.exp(-0.5 * (r / width) ** 2),
        eps=b["eps"], lam=cfg.lam, sigma=cfg.sigma, sign=b["sign"])


def _exp_radial(cfg, out) -> str:
    """Radial Crank-Nicolson run from a Gaussian.

    eps > 0 means a Dirichlet hole (cone-region profile).  Each sample goes
    straight into the concentration scan (one sup per radius) or nowhere,
    so the run holds the profile and its Crank-Nicolson factors whatever
    the sample count.
    """
    b = cfg.block
    prof = _radial_profile(cfg)
    eps = b["concentration_eps"]
    scan = ConcentrationScan(prof.r, eps) if eps else None
    result = solve_radial(prof, b["dt"], b["t_end"],
                          sample_stride=b["sample_stride"],
                          linf_ceiling=b["linf_ceiling"],
                          on_sample=_ignore_sample if scan is None
                          else scan.add)
    out.radial("radial_final.csv", result.profile)
    payload = {"status": result.status, "t_detect": result.t_detect,
               "steps": result.steps,
               "mass_initial": radial_mass(prof),
               "mass_final": radial_mass(result.profile),
               "energy_initial": radial_energy(prof)}
    if scan is not None and len(scan) < _SCAN_SAMPLES:   # cut short
        payload.update(concentration=None, concentration_skipped=(
            f"{result.status} after {len(scan)} samples; the scan needs at "
            f"least {_SCAN_SAMPLES}"))
    elif scan is not None:
        report = scan.report()
        payload["concentration"] = {"eps": list(report.eps),
                                    "increasing": list(report.increasing)}
    out.json("radial.json", payload)
    return result.status


def _ignore_sample(t, values) -> None:
    """`solve_radial`'s sample hook of a run that scans nothing."""


def _exp_transform_check(cfg, out) -> str:
    """Coefficient ODEs vs closed forms.

    The report carries the max deviation of b (and of g where an
    elementary antiderivative exists, i.e. k >= 0) plus the constraint
    residuals.
    """
    b = cfg.block
    t_grid = np.linspace(0.0, b["t_end"], b["nodes"])
    state = integrate_transform_odes(b["a0"], b["k"], b["d"], t_grid,
                                     max_step=b["max_step"])
    a0, k, t = b["a0"], b["k"], state.t
    b_dev = float(np.max(np.abs(state.b - closed_form_b(a0, k, t))))
    g_dev = None
    if k > 0:
        rk = 2.0 * np.sqrt(k)
        g_ref = (np.arctan(((a0 ** 2 + 4 * k) * t + a0) / rk)
                 - np.arctan(a0 / rk)) / rk
        g_dev = float(np.max(np.abs(state.g - g_ref)))
    elif k == 0:
        g_dev = float(np.max(np.abs(state.g - t / (1.0 + a0 * t))))
    out.json("transform_check.json", {
        "status": "Done", "a0": a0, "k": k, "d": b["d"],
        "truncated": state.truncated, "singular_time": state.singular_time,
        "b_closed_form_dev": b_dev, "g_closed_form_dev": g_dev,
        # a collapse can leave too few samples to difference
        "constraints": (constraint_residuals(state)
                        if len(t) >= _RESIDUAL_SAMPLES else None)})
    return "Done"


def _exp_stability(cfg, out) -> str:
    """Perturbation-size sweep around a structured wave.

    `shape` is the field recipe of the perturbation v0.  One CSV + JSON
    pair per eps; blow-up inside the sweep is a recorded outcome, not a
    failure.
    """
    grid = cfg.build_grid()
    b = cfg.block
    spec = _wave_specs(cfg, grid)["stability"]
    shape = _field_from_block(b["shape"], grid, cfg.seed)
    reports = stability_run(spec, shape, b["eps"], b["t_end"], dt=b["dt"],
                            sample_stride=b["sample_stride"],
                            grow_factor=b["grow_factor"],
                            linf_ceiling=b["linf_ceiling"])
    for i, rep in enumerate(reports):
        series = f"stability_eps{i}.csv"
        out.series(series, {"t": rep.t, "h": rep.h_series,
                            "phi_sup": rep.phi_sup,
                            "grad_phi_sup": rep.grad_phi_sup})
        out.json(f"stability_eps{i}.json",
                 {**rep.payload(), "series": series})
    return "Done"


def _exp_two_wave(cfg, out) -> str:
    """Interaction remainder of two plane waves at distinct speeds."""
    grid = cfg.build_grid()
    b = cfg.block
    first, second = _wave_specs(cfg, grid).values()
    series = two_wave_run(first, second, None, b["t_end"], grid, dt=b["dt"],
                          sample_stride=b["sample_stride"])
    out.series("two_wave.csv", {"t": series.t,
                                "remainder": series.remainder})
    out.json("two_wave.json", {
        "status": series.status,
        "boundary_fraction": series.boundary_fraction,
        "product_scale": series.product_scale,
        "remainder_sup": float(np.max(series.remainder))})
    return series.status


# ---------------------------------------------------------------------------
# experiment kinds

@dataclass(frozen=True)
class _Kind:
    """What one experiment kind is; `_DECLARATIONS` holds one per kind."""

    run: Callable                   # run(cfg, out) -> status
    sections: tuple = ()            # those it takes of grid, initial, run
    run_rule: Callable = _runnable  # the run section's cross-key rule
    block: Callable | None = None   # block(grid): the check of its block
    rule: Callable | None = None    # rule(errors, block), once keys are valid
    waves: tuple = ()               # the block paths of its waves
    regime: bool = False            # warn when its wave is uncertified
    amplitudes: tuple = ()          # (block path, rule) of other amplitudes


_DECLARATIONS = {
    # observables.csv, snapshots and final.snap
    "simulate": _Kind(lambda cfg, out: _run_full(cfg, out)[0].status,
                      ("grid", "initial", "run"),
                      amplitudes=(("initial", _recipe_sums),)),
    "planewave": _Kind(
        _exp_structured_wave, ("grid", "run"),
        block=lambda grid: _sub({**_PROFILE, **_wave_keys(grid)["plane"]}),
        waves=("planewave",)),
    "standing": _Kind(
        _exp_structured_wave, ("grid", "run"),
        block=lambda grid: _sub({**_PROFILE, **_wave_keys(grid)["standing"]}),
        waves=("standing",)),
    "semiclassical": _Kind(
        _exp_semiclassical, ("grid",),
        block=lambda grid: _sub({
            "k": (_FINITE, _REQUIRED), "a0": (_FINITE, 0.0),
            "gamma0": (_FINITE, 1.0),
            "candidate": (_initial(grid and grid["d"]), _REQUIRED),
            "t_end": (_POSITIVE, _REQUIRED), "samples": (_integer(2), 33)}),
        amplitudes=(("semiclassical.candidate", _recipe_sums),)),
    # a radial run may end where it starts (t_end = 0)
    "radial": _Kind(
        _exp_radial,
        block=lambda grid: _sub({
            "n": (_integer(8), 256), "r_max": (_POSITIVE, _REQUIRED),
            "eps": (_number(0.0), 0.0), "sign": (_one_of(1, -1), 1),
            **_AMPLITUDE, "width": (_POSITIVE, _REQUIRED), **_MARCH,
            "t_end": (_number(0.0), _REQUIRED), **_CEILING,
            "concentration_eps": (_list(_FINITE), None)}, _radial_rules),
        amplitudes=(("radial", _radial_sums),)),
    "transform-check": _Kind(
        _exp_transform_check,
        block=lambda grid: _sub({
            "a0": (_FINITE, _REQUIRED), "k": (_FINITE, _REQUIRED),
            "d": (_integer(1, 3), 2), "t_end": (_POSITIVE, 1.0),
            "nodes": (_integer(_RESIDUAL_SAMPLES), 201),
            "max_step": (_POSITIVE, 1e-3)})),
    "stability": _Kind(
        _exp_stability, ("grid",),
        block=lambda grid: _tagged("wave", _wave_keys(grid), {
            **_PROFILE, "shape": (_initial(grid and grid["d"]), _REQUIRED),
            "eps": (_list(_number(0.0)), _REQUIRED), **_MARCH,
            "grow_factor": (_POSITIVE, 10.0), **_CEILING}),
        waves=("stability",), regime=True,
        amplitudes=(("stability.shape", _h1_norm),)),
    "two-wave": _Kind(_exp_two_wave, ("grid",), block=_two_wave_block,
                      rule=_distinct_speeds,
                      waves=("two-wave.first", "two-wave.second")),
    "conservation-report": _Kind(
        _exp_conservation_report, ("grid", "initial", "run"),
        run_rule=_auditable, amplitudes=(("initial", _recipe_sums),)),
}
KINDS = tuple(_DECLARATIONS)


def run_experiment(config: ExperimentConfig, out_dir=None) -> int:
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
    started = _now()
    out = _RunDir(outdir)
    try:
        status = _DECLARATIONS[config.kind].run(config, out)
    except Exception as exc:
        status = f"Failed: {type(exc).__name__}: {exc}"
    manifest = RunManifest(config_hash=config.config_hash,
                           code_version=__version__, started=started,
                           finished=_now(), status=status)
    for path in out.paths:
        manifest.add_output(outdir, path)
    manifest.write(os.path.join(outdir, "manifest.json"))
    return 0 if status in ("Done", "BlownUp") else 1
