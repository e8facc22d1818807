"""Spans around hnlslab's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
hnlslab module that binds it (so `runner.write_snapshot`,
`coupled.step_strang` and `evolution.step_strang` are all covered), plus
numpy's FFT entry points.  Each call becomes one span: name, start, end,
the index of the enclosing span, and an optional work measure (points
transformed, bytes written, rows, steps).  Spans stay in memory until
`layer_totals()` folds them into per-name totals; `uninstall()` restores
the originals.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter


def _fft_points(args, kwargs, out):
    return float(out.size)


def _bytes(args, kwargs, out):
    return float(out)


def _rows(args, kwargs, out):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    return float(len(next(iter(columns.values()))))


def _file_bytes(args, kwargs, out):
    return float(os.path.getsize(args[0]))


def _steps(args, kwargs, out):
    return float(out.steps)


def _experiment_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return f"runner.run_experiment.{config.kind}"


# (module, attribute path, span name, work measure)
TARGETS = [
    ("numpy.fft", "fftn", "fields.fft", _fft_points),
    ("numpy.fft", "ifftn", "fields.fft", _fft_points),
    ("numpy.fft", "fft", "fields.fft", _fft_points),
    ("numpy.fft", "ifft", "fields.fft", _fft_points),
    ("hnlslab.fields", "norms", "fields.norms", None),
    ("hnlslab.fields", "ComplexField.linf", "fields.linf", None),
    ("hnlslab.evolution", "step_strang", "evolution.step_strang", None),
    ("hnlslab.evolution", "EvolutionProblem.linear_phase",
     "evolution.linear_phase", None),
    ("hnlslab.evolution", "run", "evolution.run", None),
    ("hnlslab.observables", "sample", "observables.sample", None),
    ("hnlslab.observables", "verify_conservation",
     "observables.verify_conservation", None),
    ("hnlslab.families", "lift_profile", "families.lift_profile", None),
    ("hnlslab.families", "standing_wave_lift", "families.standing_wave_lift",
     None),
    ("hnlslab.families", "semiclassical_field",
     "families.semiclassical_field", None),
    ("hnlslab.coupled", "step_decomposed", "coupled.step_decomposed", None),
    ("hnlslab.coupled", "lift_structured", "coupled.lift_structured", None),
    ("hnlslab.coupled", "two_wave_run", "coupled.two_wave_run", None),
    ("hnlslab.radial", "solve_radial", "radial.solve_radial", _steps),
    ("hnlslab.radial", "concentration_scan", "radial.concentration_scan",
     None),
    ("hnlslab.transforms", "integrate_transform_odes",
     "transforms.integrate_transform_odes", None),
    ("hnlslab.artifacts", "write_snapshot", "artifacts.write_snapshot",
     _bytes),
    ("hnlslab.artifacts", "save_series_csv", "artifacts.save_series_csv",
     _rows),
    ("hnlslab.artifacts", "file_digest", "artifacts.file_digest",
     _file_bytes),
    ("hnlslab.artifacts", "write_json", "artifacts.write_json", None),
    ("hnlslab.runner", "parse_config", "runner.parse_config", None),
    ("hnlslab.runner", "run_experiment", _experiment_name, None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.work = []
        self._stack = []
        self._patches = []

    def clear(self):
        for spans in (self.names, self.parents, self.starts, self.ends,
                      self.work):
            spans.clear()

    def _wrap(self, fn, name, measure):
        names, parents, starts, ends, work = (
            self.names, self.parents, self.starts, self.ends, self.work)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name if isinstance(name, str) else name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            work.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            starts[i] = t0
            if measure is not None:
                work[i] = measure(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        bound = [m for key, m in sorted(sys.modules.items())
                 if key == "hnlslab" or key.startswith("hnlslab.")]
        for modname, attr, name, measure in TARGETS:
            owner = importlib.import_module(modname)
            cls_name, _, fname = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[fname]
                targets = [owner]
            else:
                original = getattr(owner, fname)
                targets = [owner] + [m for m in bound if m is not owner
                                     and getattr(m, fname, None) is original]
            wrapper = self._wrap(original, name, measure)
            for target in targets:
                self._patches.append((target, fname, original))
                setattr(target, fname, wrapper)

    def uninstall(self):
        for target, fname, original in reversed(self._patches):
            setattr(target, fname, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """Fold the recorded spans into {name: {calls, s, self_s, work}}
        plus the parent-child counts the per-layer ratios need."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "work": 0.0})
        nested = defaultdict(int)
        for i, name in enumerate(names):
            t = totals[name]
            t["calls"] += 1
            t["s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
            t["work"] += self.work[i]
            p = parents[i]
            if p >= 0:
                nested[f"{name}<{names[p]}"] += 1
        return {"totals": dict(totals), "nested": dict(nested)}


KINDS = ("conservation-report", "planewave", "simulate", "stability",
         "two-wave", "radial", "semiclassical")

# (metric, span name, field of its totals, unit)
_TOTALS = [
    ("fields.fft.calls", "fields.fft", "calls", "count"),
    ("fields.fft.s", "fields.fft", "s", "s"),
    ("fields.fft.mpts", "fields.fft", "work", "Mpts"),
    ("fields.norms.calls", "fields.norms", "calls", "count"),
    ("fields.norms.s", "fields.norms", "s", "s"),
    ("fields.linf.calls", "fields.linf", "calls", "count"),
    ("fields.linf.s", "fields.linf", "s", "s"),
    ("evolution.step_strang.calls", "evolution.step_strang", "calls",
     "count"),
    ("evolution.step_strang.s", "evolution.step_strang", "s", "s"),
    ("evolution.step_strang.self_s", "evolution.step_strang", "self_s", "s"),
    ("evolution.linear_phase.calls", "evolution.linear_phase", "calls",
     "count"),
    ("evolution.linear_phase.s", "evolution.linear_phase", "s", "s"),
    ("evolution.run.s", "evolution.run", "s", "s"),
    ("observables.sample.calls", "observables.sample", "calls", "count"),
    ("observables.sample.s", "observables.sample", "s", "s"),
    ("observables.sample.self_s", "observables.sample", "self_s", "s"),
    ("observables.verify_conservation.s", "observables.verify_conservation",
     "s", "s"),
    ("families.lift_profile.calls", "families.lift_profile", "calls",
     "count"),
    ("families.lift_profile.s", "families.lift_profile", "s", "s"),
    ("families.standing_wave_lift.calls", "families.standing_wave_lift",
     "calls", "count"),
    ("families.standing_wave_lift.s", "families.standing_wave_lift", "s",
     "s"),
    ("families.semiclassical_field.calls", "families.semiclassical_field",
     "calls", "count"),
    ("families.semiclassical_field.s", "families.semiclassical_field", "s",
     "s"),
    ("coupled.step_decomposed.calls", "coupled.step_decomposed", "calls",
     "count"),
    ("coupled.step_decomposed.s", "coupled.step_decomposed", "s", "s"),
    ("coupled.step_decomposed.self_s", "coupled.step_decomposed", "self_s",
     "s"),
    ("coupled.lift_structured.calls", "coupled.lift_structured", "calls",
     "count"),
    ("coupled.lift_structured.s", "coupled.lift_structured", "s", "s"),
    ("coupled.two_wave_run.s", "coupled.two_wave_run", "s", "s"),
    ("radial.solve_radial.s", "radial.solve_radial", "s", "s"),
    ("radial.steps", "radial.solve_radial", "work", "count"),
    ("radial.concentration_scan.s", "radial.concentration_scan", "s", "s"),
    ("transforms.integrate_transform_odes.calls",
     "transforms.integrate_transform_odes", "calls", "count"),
    ("transforms.integrate_transform_odes.s",
     "transforms.integrate_transform_odes", "s", "s"),
    ("artifacts.write_snapshot.calls", "artifacts.write_snapshot", "calls",
     "count"),
    ("artifacts.write_snapshot.s", "artifacts.write_snapshot", "s", "s"),
    ("artifacts.write_snapshot.mb", "artifacts.write_snapshot", "work",
     "MiB"),
    ("artifacts.save_series_csv.calls", "artifacts.save_series_csv", "calls",
     "count"),
    ("artifacts.save_series_csv.s", "artifacts.save_series_csv", "s", "s"),
    ("artifacts.save_series_csv.rows", "artifacts.save_series_csv", "work",
     "count"),
    ("artifacts.file_digest.s", "artifacts.file_digest", "s", "s"),
    ("artifacts.file_digest.mb", "artifacts.file_digest", "work", "MiB"),
    ("artifacts.write_json.s", "artifacts.write_json", "s", "s"),
] + [(f"runner.run_experiment.{kind}.s", f"runner.run_experiment.{kind}",
      "s", "s") for kind in KINDS]

# (metric, child span, parent span, unit): direct children per parent call
_RATIOS = [
    ("evolution.fft_per_step", "fields.fft", "evolution.step_strang",
     "1/step"),
    ("observables.fft_per_sample", "fields.fft", "observables.sample",
     "1/sample"),
    ("coupled.lifts_per_step", "coupled.lift_structured",
     "coupled.step_decomposed", "1/step"),
]

_SCALE = {"Mpts": 1e-6, "MiB": 1.0 / (1 << 20)}


def layer_metrics(layer_rounds) -> dict:
    """Per-round means of every per-layer metric: {name: (value, unit)}."""
    n = len(layer_rounds)
    out = {}
    for metric, span, key, unit in _TOTALS:
        total = sum(r["totals"].get(span, {}).get(key, 0.0)
                    for r in layer_rounds)
        out[metric] = (total * _SCALE.get(unit, 1.0) / n, unit)
    for metric, child, parent, unit in _RATIOS:
        nested = sum(r["nested"].get(f"{child}<{parent}", 0)
                     for r in layer_rounds)
        calls = sum(r["totals"].get(parent, {}).get("calls", 0)
                    for r in layer_rounds)
        out[metric] = (nested / calls if calls else 0.0, unit)
    self_s = sum(t["self_s"] for r in layer_rounds
                 for name, t in r["totals"].items()
                 if name.startswith("runner.run_experiment."))
    out["runner.self_s"] = (self_s / n, "s")
    return out
