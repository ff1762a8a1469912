"""The 22-run CLI fixture: every subcommand's outputs and manifests checked against a recorded run.

The fixture is rebuilt in a temporary directory from the parameters below and
compared with ``tests/data/fixture22.json``:

- each manifest exactly, timestamps and the host's ``blas_threads`` dropped,
  so the ``config`` and ``config_sha`` entries are pinned byte for byte;
- each output by sha256.  Where a hash differs, the file is parsed and a
  compact digest is compared at ``RTOL`` instead: its shape, its text cells
  exactly, and per-column sums and sums of squares of its numeric cells.
  ``eigensystem.csv`` rows past the numerical rank are rounding noise that
  differs between BLAS kernels, so they count only in the shape.  A host
  with another kernel thus passes on values; this record's host passes on
  bytes.

A change that moves output bytes on purpose rewrites the record in the same
commit with ``PYTHONPATH=src python tests/test_fixture.py`` and states in its
change notes which outputs moved and by how much.
"""

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from smallball import grids
from smallball.cli import main

RECORD = Path(__file__).parent / "data" / "fixture22.json"

# Per-column sums may move by RTOL times the column's scale sqrt(rows * sum of
# squares), and sums of squares by RTOL relative.  Between two BLAS kernels,
# values within the rank have moved by up to 2.7e-11 of their row's largest
# value; a 1e-9 relative change of one output column is caught.
RTOL = 1e-10

WIENER_50 = "process = wiener\nJ = 50\n"
SINE_T5 = "process = sine\ndist = std-t5\nn = 40, 80\nreps = 10\n"
WIENER_20 = "process = wiener\nJ = 20\nn = 30, 50\nd = 1, 2\nreps = 4\n"
SINE_CHISQ8 = "process = sine\ndist = std-chisq8\nn = 60\nreps = 20\nseed = 6\n"


def _runs(root: Path):
    """The 22 (out directory, argv) runs in order; each reads only outputs of earlier runs."""
    sim_w, sim_s, sim_t = (str(root / name / "sample.csv") for name in ("sim_w", "sim_s", "sim_t"))
    zero, one = str(root / "target_zero.csv"), str(root / "target_one.csv")
    eps4 = ["--eps", "0.9", "0.6", "0.4", "0.25"]
    runs = [
        ("sim_w", ["simulate", "--config", str(root / "wiener50.cfg"), "--seed", "7", "--n", "120"]),
        ("sim_s", ["simulate", "--seed", "4", "--n", "80"]),
        ("sim_t", ["simulate", "--config", str(root / "wiener50.cfg"), "--seed", "9", "--n", "6"]),
        ("fpca_d", ["fpca", "--input", sim_w, "--d", "3"]),
        ("fpca_fev", ["fpca", "--input", sim_w, "--fev", "0.9"]),
        ("fpca_default", ["fpca", "--input", sim_w]),
        ("fpca_sine", ["fpca", "--input", sim_s]),
        ("dens_epa", ["density", "--input", sim_w, "--targets", sim_t, "--d", "2",
                      "--kernel", "epanechnikov-radial", "--bandwidth", "normal-scale"]),
        ("dens_gau", ["density", "--input", sim_w, "--targets", sim_t, "--d", "1",
                      "--kernel", "gaussian-radial", "--bandwidth", "rate"]),
        ("dens_h03", ["density", "--input", sim_w, "--targets", sim_t, "--d", "3", "--bandwidth", "0.3"]),
        ("dens_trunc_rate", ["density", "--input", sim_w, "--targets", sim_t, "--d", "2",
                             "--kernel", "truncated-gaussian-radial", "--bandwidth", "rate"]),
        ("dens_sine", ["density", "--input", sim_s, "--targets", sim_s, "--d", "1"]),
    ]
    for kernel in ("epanechnikov", "gaussian"):
        for target_name, target in (("zero", zero), ("one", one)):
            runs.append((f"smbp_{kernel}_{target_name}", [
                "smbp", "--input", sim_w, "--target", target, *eps4, "--d", "2", "--J", "10",
                "--kernel", f"{kernel}-radial",
            ]))
    runs += [
        ("smbp_h03", ["smbp", "--input", sim_w, "--target", one, "--eps", "0.9", "0.4", "--d", "1", "--J", "8",
                      "--bandwidth", "0.3"]),
        ("smbp_rate", ["smbp", "--input", sim_w, "--target", one, "--eps", "0.9", "0.4", "--d", "2", "--J", "8",
                       "--kernel", "truncated-gaussian-radial", "--bandwidth", "rate"]),
        ("exp_sine", ["experiment", "--config", str(root / "sine_t5.cfg"), "--seed", "3"]),
        ("exp_wiener", ["experiment", "--config", str(root / "wiener20.cfg"), "--seed", "5", "--threads", "2"]),
        ("exp_sine_over", ["experiment", "--config", str(root / "sine_chisq8.cfg"),
                           "--kernel", "epanechnikov-radial", "--bandwidth", "0.25", "--replications", "5"]),
        ("exp_sine_rate", ["experiment", "--config", str(root / "sine_chisq8.cfg"), "--bandwidth", "rate"]),
    ]
    return runs


def build_fixture(root: Path) -> None:
    """Run the 22 commands under root; the two smbp targets are cut from sim_w's sample."""
    for name, text in (("wiener50.cfg", WIENER_50), ("sine_t5.cfg", SINE_T5),
                       ("wiener20.cfg", WIENER_20), ("sine_chisq8.cfg", SINE_CHISQ8)):
        (root / name).write_text(text, encoding="utf-8")
    for out, argv in _runs(root):
        if out == "fpca_d":
            grid, first = (root / "sim_w" / "sample.csv").read_text(encoding="utf-8").splitlines()[:2]
            (root / "target_zero.csv").write_text(f"{grid}\n{','.join(['0.0'] * (grid.count(',') + 1))}\n")
            (root / "target_one.csv").write_text(f"{grid}\n{first}\n")
        if main([*argv, "--out", str(root / out)]) != 0:
            raise RuntimeError(f"fixture run {out} failed")


def _manifest(root: Path, out: str) -> dict:
    """A run's manifest without its timestamps and host BLAS threads; paths are relative to root."""
    text = (root / out / "manifest.json").read_text(encoding="utf-8")
    manifest = json.loads(text.replace(json.dumps(str(root) + "/")[1:-1], ""))
    return {k: v for k, v in manifest.items() if k not in ("started_unix", "finished_unix", "blas_threads")}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cells(path: Path) -> list[list[str]]:
    """An output as rows of cell strings: CSV lines, or a JSON list of records under a key row."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        records = json.loads(text)
        keys = list(records[0])
        return [keys] + [[repr(r[k]) for k in keys] for r in records]
    return [line.split(",") for line in text.splitlines()]


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def digest(path: Path) -> dict:
    """Shape, text cells (and non-finite ones) as a hash, per-column sums and sums of squares of the numbers."""
    rows = _cells(path)
    width = max(map(len, rows))
    if path.name == "eigensystem.csv":
        lam = [_number(row[0]) for row in rows[1:]]
        kept = sum(v > len(lam) * np.finfo(float).eps * max(lam) for v in lam)
        counted = rows[: 1 + kept]
    else:
        counted = rows
    sums, sumsq = [0.0] * width, [0.0] * width
    text = hashlib.sha256()
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            value = _number(cell)
            if value is None:
                text.update(f"{i},{j},{cell}\n".encode())
            elif i < len(counted):
                sums[j] += value
                sumsq[j] += value * value
    return {"shape": [len(rows), width], "text": text.hexdigest(), "sum": sums, "sumsq": sumsq}


def record_text(root: Path) -> str:
    """The record of a fixture built under root: manifests in run order, then one digest line per distinct output.

    Digest sums keep 12 significant digits, well inside RTOL.
    """
    manifests = {out: _manifest(root, out) for out, _ in _runs(root)}
    digests = {}
    for out, manifest in manifests.items():
        for name, sha in manifest["outputs"].items():
            if sha not in digests:
                got = digest(root / out / name)
                for key in ("sum", "sumsq"):
                    got[key] = [float(f"{v:.12g}") for v in got[key]]
                digests[sha] = got
    lines = ",\n".join(f"  {json.dumps(sha)}: {json.dumps(d, separators=(',', ':'))}" for sha, d in digests.items())
    return f'{{"manifests": {json.dumps(manifests, indent=1)},\n "digests": {{\n{lines}\n }}\n}}\n'


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture22")
    build_fixture(root)
    return root


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_manifests_match_record(built, recorded):
    got = {out: _manifest(built, out) for out, _ in _runs(built)}
    assert list(got) == list(recorded["manifests"])
    for out, want in recorded["manifests"].items():
        outputs = got[out]["outputs"]
        assert outputs == {name: _sha256(built / out / name) for name in want["outputs"]}, out
        # The output hashes are checked against the record by test_outputs_match_record.
        assert {**got[out], "outputs": sorted(outputs)} == {**want, "outputs": sorted(want["outputs"])}, out


@pytest.mark.parametrize("out", [out for out, _ in _runs(Path())])
def test_outputs_match_record(built, recorded, out):
    for name, want_sha in recorded["manifests"][out]["outputs"].items():
        path = built / out / name
        if _sha256(path) == want_sha:
            continue
        got, want = digest(path), recorded["digests"][want_sha]
        assert got["shape"] == want["shape"] and got["text"] == want["text"], f"{out}/{name}: layout or text moved"
        for j, (s, q, ws, wq) in enumerate(zip(got["sum"], got["sumsq"], want["sum"], want["sumsq"])):
            scale = math.sqrt(want["shape"][0] * wq)
            assert abs(s - ws) <= RTOL * scale and abs(q - wq) <= RTOL * wq, (
                f"{out}/{name} column {j + 1}: sum {s!r} vs {ws!r}, sum of squares {q!r} vs {wq!r}"
            )


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="reads never split here")
@pytest.mark.parametrize("k", [2, 3, 4])
def test_reads_split_into_k_parts_keep_every_manifest(built, tmp_path, monkeypatch, forks, k):
    # Every sample CSV of the fixture read in k parts gives the same manifests, output hashes included.
    monkeypatch.setattr(grids, "_usable_cores", lambda: k)
    monkeypatch.setattr(grids, "_MIN_BYTES_PER_READ_PART", 1)
    build_fixture(tmp_path)
    assert len(forks) >= 15 * (k - 1)  # each of the 15 fpca, density and smbp runs reads its sample in k parts
    assert {out: _manifest(tmp_path, out) for out, _ in _runs(tmp_path)} == {
        out: _manifest(built, out) for out, _ in _runs(built)
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        build_fixture(Path(tmp))
        RECORD.parent.mkdir(exist_ok=True)
        RECORD.write_text(record_text(Path(tmp)), encoding="utf-8")
