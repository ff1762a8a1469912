"""Checks on the package source itself."""

import ast
import importlib
import subprocess
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


def test_cli_starts_without_scipy_or_a_thread_pool():
    # Every CLI command runs in a fresh process, so each module imported at
    # start-up is paid on every call. scipy is only a test dependency, and the
    # thread pool serves only studies run with more than one thread.
    src = str(Path(smallball.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import smallball, smallball.cli\n"
        "smallball.cli.build_parser()\n"
        "print(*sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    loaded = done.stdout.split()
    assert "smallball.cli" in loaded
    unwanted = [m for m in loaded if m == "scipy" or m.startswith("scipy.") or m.startswith("concurrent.futures")]
    assert not unwanted, f"modules loaded at CLI start-up: {unwanted}"
