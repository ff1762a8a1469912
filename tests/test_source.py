"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import smallball
from smallball import cli, experiments
from smallball.experiments import ExperimentConfig, run_experiment, run_replication
from smallball.processes import ProcessSpec

SOURCES = sorted(Path(smallball.__file__).parent.glob("*.py"))

# Imports a module never reads, kept because the benchmark traces calls by
# patching them at that module's lookup site; each must be such a site.
TRACE_ONLY = {("cli", "kde_evaluate_many"), ("cli", "resolve_bandwidth")}


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


def _trace_sites(monkeypatch):
    """The benchmark's (owner, attribute, span) lookup sites; importing spans and workloads runs nothing."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bench_modules = ("reference", "spans", "workloads")
    saved = {name: sys.modules.pop(name) for name in bench_modules if name in sys.modules}
    try:
        return importlib.import_module("spans").bindings(importlib.import_module("workloads"))
    finally:
        for name in bench_modules:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_benchmark_trace_sites_resolve(monkeypatch):
    # The benchmark traces calls by patching names where their callers look
    # them up; a refactor that moves one of those names breaks `--trace 1`.
    sites = _trace_sites(monkeypatch)
    assert len(sites) == 33
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in sites if not hasattr(owner, attr)]
    assert not missing, f"trace sites that no longer resolve: {missing}"


def test_every_top_level_import_is_read(monkeypatch):
    # No linter runs on the package, so this stands in for an unused-import check.
    unused = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    assert not unused - TRACE_ONLY, f"top-level imports never read: {sorted(unused - TRACE_ONLY)}"
    sites = {(owner.__name__.rpartition(".")[2], attr) for owner, attr, _ in _trace_sites(monkeypatch)}
    assert TRACE_ONLY <= sites, f"exempt imports that the benchmark does not patch: {sorted(TRACE_ONLY - sites)}"


def test_every_density_estimate_goes_through_traced_sites(tmp_path, monkeypatch):
    # The benchmark counts projections, bandwidths and KDEs where
    # smallball.experiments looks them up, so the CLI and studies must reach
    # them through there for its per-layer numbers to hold.
    calls = dict.fromkeys(("kde_evaluate_many", "resolve_bandwidth", "scores"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)

    def counts(run) -> tuple:
        calls.update(dict.fromkeys(calls, 0))
        run()
        return tuple(calls.values())

    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--seed", "3", "--n", "40", "--out", str(sim)]) == 0
    sample = str(sim / "sample.csv")
    target = tmp_path / "target.csv"
    target.write_text("\n".join((sim / "sample.csv").read_text().splitlines()[:2]) + "\n")
    density = ["density", "--input", sample, "--targets", sample, "--d", "1", "--out", str(tmp_path / "d")]
    smbp = ["smbp", "--input", sample, "--target", str(target), "--eps", "0.5", "--d", "1", "--J", "4",
            "--out", str(tmp_path / "s")]
    assert counts(lambda: cli.main(density)) == (1, 1, 2)
    assert counts(lambda: cli.main(smbp)) == (1, 1, 2)
    config = ExperimentConfig(ProcessSpec("wiener", J=5), n=30, d_values=(1, 2), replications=1)
    # One projection of the sample and one of the targets, at the largest d.
    assert counts(lambda: run_replication(config, 0)) == (2, 2, 2)

    # A study reaches the same sites once per replication and per d, and
    # builds its targets once per (kind, dist), not once per replication or
    # per seed.
    per_study = dict.fromkeys(("sample_process", "fit_fpca", "target_curves"), 0)
    for name in per_study:
        def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            per_study[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    experiments._study_inputs.cache_clear()
    study = ExperimentConfig(ProcessSpec("wiener", J=5), n=30, d_values=(1, 2), replications=3, base_seed=4)
    assert counts(lambda: run_experiment(study)) == (6, 6, 6)
    assert per_study == {"sample_process": 3, "fit_fpca": 3, "target_curves": 1}
    entries = experiments._study_inputs.cache_info().currsize
    assert counts(lambda: run_experiment(dataclasses.replace(study, base_seed=5))) == (6, 6, 6)
    assert per_study == {"sample_process": 6, "fit_fpca": 6, "target_curves": 1}
    assert experiments._study_inputs.cache_info().currsize == entries == 1


def test_all_lists_importable_names_only():
    names = smallball.__all__
    assert isinstance(names, list) and len(names) == len(set(names))
    assert all(hasattr(smallball, name) for name in names)
    assert not [name for name in names if isinstance(getattr(smallball, name), types.ModuleType)]


def test_every_public_name_is_imported_by_a_demo_the_readme_or_a_test():
    # The README says __all__ is exactly what these import; a name none of them needs is not public.
    root = Path(__file__).resolve().parents[1]
    texts = [path.read_text(encoding="utf-8") for path in [*root.glob("demos/*.py"), *root.glob("tests/*.py")]]
    texts += re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    imported = {
        alias.name
        for text in texts
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.module == "smallball"
        for alias in node.names
    }
    assert not set(smallball.__all__) - imported, sorted(set(smallball.__all__) - imported)


# What a CLI cold start may load beyond what `import numpy` loads, by top-level
# name (taken on CPython 3.11 with numpy 2.4).  Every command pays each of
# these on every call, so a module added here must be worth its import time.
CLI_START_MODULES = {
    "__future__", "_blake2", "_hashlib", "_json", "_locale", "argparse", "copy", "dataclasses", "gettext",
    "hashlib", "json", "locale", "smallball",
}


def _modules_loaded_by(code: str) -> set[str]:
    """The modules in sys.modules after a fresh interpreter runs ``code`` with the package importable."""
    src = str(Path(smallball.__file__).resolve().parents[1])
    script = f"import sys\nsys.path.insert(0, {src!r})\n{code}\nprint(*sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True)
    return set(done.stdout.split())


def test_cli_starts_without_scipy_or_a_thread_pool():
    # Every CLI command runs in a fresh process, so each module imported at
    # start-up is paid on every call. scipy is only a test dependency, and the
    # thread pool serves only studies run with more than one thread. The CSV
    # reader and writer fork with os.fork alone, never through multiprocessing.
    loaded = _modules_loaded_by("from smallball.cli import build_parser\nbuild_parser()")
    assert "smallball.cli" in loaded
    unwanted = [
        m for m in loaded if m.split(".")[0] in ("scipy", "multiprocessing") or m.startswith("concurrent.futures")
    ]
    assert not unwanted, f"modules loaded at CLI start-up: {unwanted}"
    beyond = sorted(m for m in loaded - _modules_loaded_by("import numpy") if m.split(".")[0] not in CLI_START_MODULES)
    assert not beyond, f"modules a CLI start-up loads beyond numpy's and CLI_START_MODULES: {beyond}"
