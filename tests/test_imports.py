"""Every name a module under src/ or tests/ imports is read somewhere in
that module; `from __future__` imports are exempt.  No linter runs on
this code, so an import left behind by a change is caught here."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _modules():
    for top in ("src", "tests"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` binds by an import and never
    reads: not as a name, nor as a string in its `__all__`."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps as d, loads\n"
              "import numpy.linalg\n"
              "__all__ = ['loads']\n"
              "print(sys.argv, numpy.linalg)\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for path in _modules():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        found += [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                  for line, name in unused_imports(source)]
    assert found == [], "\n".join(found)
