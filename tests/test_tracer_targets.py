"""The benchmark's tracer (bench/tracer.py) wraps hnlslab functions by
name; a renamed or deleted target breaks every traced benchmark run."""

import importlib
import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patchable(targets) -> dict:
    """{(owner, name): object} for every binding `install` replaces: the
    target itself and each hnlslab module that imported the same object.
    Every target's module is imported first: `import hnlslab` loads no
    submodule, and a traced benchmark round finds them loaded by the
    untraced round before it."""
    for modname, _, _, _ in targets:
        importlib.import_module(modname)
    mods = [m for key, m in sorted(sys.modules.items())
            if key == "hnlslab" or key.startswith("hnlslab.")]
    out = {}
    for modname, attr, _, _ in targets:
        owner = importlib.import_module(modname)
        cls_name, _, fname = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = vars(owner)[fname]
        for target in [owner] + ([] if cls_name else mods):
            if vars(target).get(fname) is original:
                out[(target, fname)] = original
    return out


def test_tracer_targets_exist_and_uninstall_restores_them():
    tracer = _load_tracer()
    before = _patchable(tracer.TARGETS)
    spans = tracer.Tracer()
    spans.install()
    try:
        wrapped = [key for key, original in before.items()
                   if vars(key[0])[key[1]] is not original]
    finally:
        spans.uninstall()
    assert len(wrapped) == len(before)
    assert all(vars(owner)[fname] is original
               for (owner, fname), original in before.items())
