"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("_calls", "density.kde_pairs", "_mb", "experiments.replications")


def traced_run(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, second = traced_run(name, 5), traced_run(name, 5)
    assert first["correct"] and second["correct"]
    counts = {k for k in first["metrics"] if any(k.endswith(c) for c in COUNTS)}
    assert len(counts) == 8
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["trace.coverage"]["value"] > 0.95


@pytest.fixture
def work(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def test_study_check_takes_reordered_sums_and_rejects_wrong_numbers(work):
    w = workloads.make("study-wiener", workloads.DEFAULT_SEED, work, workloads.load_goldens("study-wiener", 1))
    result = w.op(0)
    assert w.check(0, result)
    result.rmsep_mean[2] *= 1.0 + 7e-14
    assert w.check(0, result)
    result.rmsep_mean[2] *= 1.0 + 1e-6
    assert not w.check(0, result)


def test_factorization_check_rejects_wrong_phi_and_hits(work):
    w = workloads.make("factorize-large", 3, work, {})
    rows = w.op(1)
    assert w.check(1, rows)
    d, phi, p = rows[2]
    assert not w.check(1, rows[:2] + [(d, phi * (1.0 + 1e-6), p)])
    assert not w.check(1, rows[:2] + [(d, phi, p + 1.0 / ref.FACTORIZE_N)])


def _rewrite(path: Path, old: str, new: str, manifest: Path | None = None) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    if manifest is not None:
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["outputs"][path.name] = workloads._sha256(path)
        manifest.write_text(json.dumps(data), encoding="utf-8")


def test_cli_check_rejects_corrupted_files(work):
    w = workloads.make("cli-csv", workloads.DEFAULT_SEED, work, workloads.load_goldens("cli-csv", 1))
    density = w.commands.index("density")
    out = w.out["density"]
    assert w.op(density) == 0
    # A wrong number with a manifest that matches it: only the numeric check can tell.
    value = out.joinpath("density.csv").read_text(encoding="utf-8").splitlines()[5].rsplit(",", 1)[1]
    _rewrite(out / "density.csv", value, repr(float(value) * (1.0 + 1e-6)), out / "manifest.json")
    assert not w.check(density, 0)
    # Once a command is verified, its later runs must reproduce its bytes.
    assert w.op(density) == 0 and w.check(density, 0)
    _rewrite(out / "density.csv", "target", "Target")
    assert not w.check(density, 0)
    assert not w.check(density, 1)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
