"""Checks on the package source itself."""

import ast
import importlib
import sys
import types
from pathlib import Path

import smallball

SOURCES = sorted(Path(smallball.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariant checks must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert not found, f"assert statements in src: {found}"


def test_benchmark_trace_sites_resolve(monkeypatch):
    # The benchmark traces calls by patching names where their callers look
    # them up; a refactor that moves one of those names breaks `--trace 1`.
    # Importing spans and workloads runs nothing.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bench_modules = ("reference", "spans", "workloads")
    saved = {name: sys.modules.pop(name) for name in bench_modules if name in sys.modules}
    try:
        sites = importlib.import_module("spans").bindings(importlib.import_module("workloads"))
    finally:
        for name in bench_modules:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    assert len(sites) == 33
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in sites if not hasattr(owner, attr)]
    assert not missing, f"trace sites that no longer resolve: {missing}"


def test_all_lists_importable_names_only():
    names = smallball.__all__
    assert isinstance(names, list) and len(names) == len(set(names))
    assert all(hasattr(smallball, name) for name in names)
    assert not [name for name in names if isinstance(getattr(smallball, name), types.ModuleType)]
