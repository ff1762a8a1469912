import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import smallball

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("0*.py")), ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


README = DEMO_DIR.parent / "README.md"


def _run_in(tmp_path, argv):
    """Run argv in tmp_path with this package importable there."""
    src = str(pathlib.Path(smallball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env)


def _readme_block(language: str, containing: str) -> str:
    """The README's one fenced code block in this language that holds this text."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (block,) = [block for block in blocks if containing in block]
    return block


def test_readme_library_tour_runs(tmp_path):
    proc = _run_in(tmp_path, [sys.executable, "-c", _readme_block("python", "fit_fpca")])
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()  # "<phi_d> vs Monte Carlo <oracle>"
    assert 0.0 < float(words[0]) < 1.0 and 0.0 < float(words[-1]) < 1.0


def test_readme_walkthrough_runs(tmp_path):
    # Every command as written, with the study's 200 replications lowered to 2.
    script = _readme_block("sh", "smallball simulate").replace("reps = 200\n", "reps = 2\n")
    assert "reps = 2\n" in script
    shell = f'smallball() {{ "{sys.executable}" -m smallball.cli "$@"; }}\nset -e\n{script}'
    proc = _run_in(tmp_path, ["bash", "-c", shell])
    assert proc.returncode == 0, proc.stderr
    for out in ("sim", "fpca", "dens", "smbp", "study"):
        assert (tmp_path / "run" / out / "manifest.json").is_file()
    reports = json.loads((tmp_path / "run" / "smbp" / "factorization.json").read_text())
    assert [r["eps"] for r in reports] == [0.5, 0.3]
