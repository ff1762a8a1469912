"""The one-BLAS-thread pin: output bytes that do not depend on the host's BLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smallball
from smallball import _blas, cli, experiments
from smallball.experiments import ExperimentConfig, ReplicationError, run_experiment
from smallball.processes import ProcessSpec

SRC = str(Path(smallball.__file__).resolve().parents[1])

# A small Wiener study and a simulate/fpca/density/smbp run of the CLI; prints
# the sha256 of every study array and every hashed CLI output as JSON.
CHILD = f"""
import hashlib, json, sys
sys.path.insert(0, {SRC!r})
from smallball import cli
from smallball.experiments import ExperimentConfig, run_experiment
from smallball.processes import ProcessSpec

out = sys.argv[1]
res = run_experiment(ExperimentConfig(ProcessSpec("wiener", J=30), n=200, d_values=(1, 2, 3), replications=3))
study = [res.rmsep_mean[d] for d in res.config.d_values] + [res.rmsep_std[d] for d in res.config.d_values]
hashes = {{"study": hashlib.sha256(repr((study, res.ape_mean.tolist())).encode()).hexdigest()}}
with open(out + "/w.cfg", "w") as fh:
    fh.write("process = wiener\\nJ = 50\\n")
sample, targets, target = out + "/sim/sample.csv", out + "/targets.csv", out + "/target.csv"
commands = [
    ["simulate", "--config", out + "/w.cfg", "--seed", "7", "--n", "120", "--out", out + "/sim"],
    ["fpca", "--input", sample, "--d", "3", "--out", out + "/fpca"],
    ["density", "--input", sample, "--targets", targets, "--d", "2", "--out", out + "/density"],
    ["smbp", "--input", sample, "--target", target, "--eps", "0.9", "0.4", "--d", "2", "--J", "10",
     "--out", out + "/smbp"],
]
for argv in commands:
    if cli.main(argv) != 0:
        sys.exit(f"{{argv[0]}} failed")
    if argv[0] == "simulate":
        lines = open(sample).read().splitlines()
        open(targets, "w").write("\\n".join(lines[:7]) + "\\n")
        open(target, "w").write(lines[0] + "\\n" + lines[1] + "\\n")
    manifest = json.load(open(argv[-1] + "/manifest.json"))
    hashes.update({{f"{{argv[0]}}/{{name}}": digest for name, digest in manifest["outputs"].items()}})
print(json.dumps(hashes, sort_keys=True))
"""


def _child_hashes(tmp_path, blas_threads: str) -> dict:
    out = tmp_path / f"blas{blas_threads}"
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(out)], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(done.stdout)


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    one, two = _child_hashes(tmp_path, "1"), _child_hashes(tmp_path, "2")
    assert len(one) == 7  # the study, sample.csv, three fpca files, density.csv, factorization.json
    assert one == two


@pytest.fixture
def blas_at_two():
    """Numpy's OpenBLAS set to two threads for the test; the original count comes back after it."""
    api = _blas._locate()
    if not api:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread control")
    get, set_ = api
    original = get()
    set_(2)
    try:
        yield get
    finally:
        set_(original)


def small_config(**kw):
    return ExperimentConfig(ProcessSpec("wiener", J=5), n=30, d_values=(1, 2), replications=3, **kw)


@pytest.mark.parametrize("threads", [1, 2])
def test_study_pins_one_thread_and_restores(blas_at_two, monkeypatch, threads):
    seen = []

    def replication(config, index, _run=experiments.run_replication):
        seen.append(blas_at_two())
        return _run(config, index)

    monkeypatch.setattr(experiments, "run_replication", replication)
    run_experiment(small_config(), threads=threads)
    assert seen == [1, 1, 1]
    assert blas_at_two() == 2


def test_failed_replication_restores(blas_at_two, monkeypatch):
    def replication(config, index):
        raise ValueError("boom")

    monkeypatch.setattr(experiments, "run_replication", replication)
    with pytest.raises(ReplicationError, match="replication 0 failed: boom"):
        run_experiment(small_config())
    assert blas_at_two() == 2


def test_cli_pins_one_thread_and_restores(blas_at_two, tmp_path, capsys):
    assert cli.main(["simulate", "--seed", "1", "--n", "10", "--out", str(tmp_path / "sim")]) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    assert manifest["blas_threads"] == 1
    assert blas_at_two() == 2
    assert cli.main(["fpca", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert blas_at_two() == 2


def test_every_manifest_records_blas_threads(tmp_path):
    sim = tmp_path / "sim"
    sample = str(sim / "sample.csv")
    target = tmp_path / "target.csv"
    cfg = tmp_path / "e.cfg"
    cfg.write_text("process = sine\nn = 20\nreps = 2\n")
    runs = {
        "sim": ["simulate", "--seed", "3", "--n", "30"],
        "fpca": ["fpca", "--input", sample],
        "density": ["density", "--input", sample, "--targets", sample, "--d", "1"],
        "smbp": ["smbp", "--input", sample, "--target", str(target), "--eps", "0.5", "--d", "1", "--J", "4"],
        "exp": ["experiment", "--config", str(cfg), "--seed", "1"],
    }
    expected = 1 if _blas._locate() else "unpinned"
    for name, argv in runs.items():
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
        if name == "sim":
            target.write_text("\n".join(Path(sample).read_text().splitlines()[:2]) + "\n")
        assert json.loads((tmp_path / name / "manifest.json").read_text())["blas_threads"] == expected


def test_without_thread_control_a_study_runs_unpinned(monkeypatch, tmp_path):
    monkeypatch.setattr(_blas, "_locate", lambda: ())
    monkeypatch.setattr(_blas, "_api", None)
    with _blas.one_blas_thread():
        assert _blas.blas_threads() == "unpinned"
    assert run_experiment(small_config()).rmsep_mean.keys() == {1, 2}
    cfg = tmp_path / "e.cfg"
    cfg.write_text("process = wiener\nJ = 5\nn = 30\nd = 1, 2\nreps = 2\n")
    assert cli.main(["experiment", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "exp")]) == 0
    assert json.loads((tmp_path / "exp" / "manifest.json").read_text())["blas_threads"] == "unpinned"


def test_cli_import_does_not_locate_blas():
    # The locator runs on the first pin, so a cold start pays nothing for it.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import smallball.cli\n"
        "smallball.cli.build_parser()\n"
        "print(smallball._blas._api)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["None"]
