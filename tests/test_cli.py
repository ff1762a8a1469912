import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallball
from smallball._blas import one_blas_thread
from smallball.cli import build_parser, main, parse_config_text
from smallball.density import EPANECHNIKOV
from smallball.experiments import ExperimentConfig, estimate_surrogate_density
from smallball.fpca import fit_fpca
from smallball.grids import FunctionalSample, Grid, read_sample_csv, write_sample_csv
from smallball.processes import ProcessSpec, SeededRng, sample_process


def run_cli(*argv) -> int:
    return main(list(argv))


def write_wiener_sample(tmp_path, n: int, seed: int):
    """Simulate n Wiener paths through the CLI; return the sample CSV path and its lines."""
    cfg = tmp_path / "wiener.cfg"
    cfg.write_text("process = wiener\nJ = 20\n")
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(sim), "--n", str(n)) == 0
    path = sim / "sample.csv"
    return path, path.read_text().splitlines()


class TestConfigParsing:
    def test_parses_pairs_and_comments(self):
        cfg = parse_config_text("# comment\nprocess = sine\nn=50 # trailing\n\nseed = 7\n")
        assert cfg == {"process": "sine", "n": "50", "seed": "7"}

    def test_rejects_bare_line(self):
        from smallball.cli import CliError

        with pytest.raises(CliError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    @pytest.mark.parametrize(
        "command, text, key, value",
        [
            ("simulate", "process = wiener\nJ = abc\n", "J", "abc"),
            ("simulate", "q = nan\n", "q", "nan"),
            ("simulate", "lambdas = 1.0, 0.5, x\n", "lambdas", "x"),
            ("simulate", "n = 10.5\n", "n", "10.5"),
            ("simulate", "seed = 7.5\n", "seed", "7.5"),
            ("experiment", "n = 50\nreps = x\n", "reps", "x"),
            ("experiment", "n = 50, 1e2\n", "n", "1e2"),
            ("experiment", "n = 50\nd = 1, two\n", "d", "two"),
        ],
        ids=["J", "q", "lambdas", "n", "seed", "reps", "n-list", "d-list"],
    )
    def test_bad_number_names_key_and_value(self, tmp_path, capsys, command, text, key, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        seed = [] if key == "seed" else ["--seed", "1"]
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), *seed, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: config value {key} = {value!r} is not " + (
            "a finite number\n" if key in ("q", "lambdas") else "an integer\n"
        )
        assert not out.exists()

    def test_empty_list_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = ,\n")
        assert run_cli("experiment", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: config value n is empty\n"

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("experiment", "process = sine\nn = 20\nrep = 2\n", "rep"),
            ("experiment", "process = sine\nn = 20\nbandwith = 0.3\n", "bandwith"),
            ("experiment", "process = sine\nn = 20\nkernal = epanechnikov-radial\n", "kernal"),
            ("simulate", "process = wiener\nj = 20\n", "j"),
        ],
        ids=["rep", "bandwith", "kernal", "j"],
    )
    def test_unknown_key_refused(self, tmp_path, capsys, command, text, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key {key!r}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, flags, key, value",
        [
            ("simulate", "seed = x\n", ["--seed", "1"], "seed", "x"),
            ("simulate", "n = 1.5\n", ["--seed", "1", "--n", "3"], "n", "1.5"),
            ("experiment", "seed = x\nn = 20\n", ["--seed", "1"], "seed", "x"),
            ("experiment", "n = 20\nreps = two\n", ["--seed", "1", "--replications", "2"], "reps", "two"),
        ],
        ids=["simulate-seed", "simulate-n", "experiment-seed", "experiment-reps"],
    )
    def test_bad_value_refused_where_a_flag_replaces_it(self, tmp_path, capsys, command, text, flags, key, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: config value {key} = {value!r} is not an integer\n"
        assert not out.exists()

    # Every setting given, so each flag below replaces a value the config holds.
    STUDY = "process = sine\nn = 20\nreps = 3\nseed = 1\nkernel = gaussian-radial\nbandwidth = 0.5\n"

    @pytest.mark.parametrize(
        "flag, value, field, expected",
        [
            ("--seed", "2", "base_seed", 2),
            ("--replications", "2", "replications", 2),
            ("--kernel", "epanechnikov-radial", "kernel_family", "epanechnikov-radial"),
            ("--bandwidth", "rate", "bandwidth_rule", "rate"),
            ("--bandwidth", "0.25", "bandwidth_rule", 0.25),
        ],
        ids=["seed", "replications", "kernel", "bandwidth-rule", "bandwidth-number"],
    )
    def test_flag_replaces_its_key(self, tmp_path, flag, value, field, expected):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.STUDY)
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), flag, value, "--out", str(out)) == 0
        from_config = ExperimentConfig(
            ProcessSpec("sine"), n=20, d_values=(1,), replications=3, base_seed=1,
            kernel_family="gaussian-radial", bandwidth_rule=0.5,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha"] == [dataclasses.replace(from_config, **{field: expected}).config_hash()]
        assert manifest["config_sha"] != [from_config.config_hash()]

    def test_n_flag_replaces_its_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 12\nseed = 3\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(cfg), "--n", "5", "--out", str(out)) == 0
        assert read_sample_csv(out / "sample.csv").n == 5

    def test_simulate_refuses_a_list_of_n(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 10, 20\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "n = '10, 20'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_process_field_its_kind_does_not_read_refused(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\ndist = std-chisq8\nq = 7\nlambdas = 9, 8\nn = 30\n")
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--seed", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: a wiener process does not read dist; leave it unset\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_one_seed_message(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 30\n")
        assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {command} needs a seed: pass --seed or put seed = in the config\n"


class TestSimulate:
    def test_writes_sample_and_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 20\nn = 15\n")
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)) == 0
        sample = read_sample_csv(out / "sample.csv")
        assert sample.n == 15 and sample.grid.size == 100
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "sample.csv" in manifest["outputs"]

    def test_manifest_hash_of_an_output_read_in_chunks(self, tmp_path):
        # The hash reads an output 1 MiB at a time; this sample spans two reads.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 20\nn = 700\n")
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)) == 0
        data = (out / "sample.csv").read_bytes()
        assert len(data) > 1 << 20
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]["sample.csv"] == hashlib.sha256(data).hexdigest()

    def test_failed_outputs_leave_no_temp_file(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("disk full")

        writer = smallball.cli.OutputWriter(str(tmp_path), "simulate", 1, None)
        with pytest.raises(RuntimeError):
            writer.write("sample.csv", fail)
        monkeypatch.setattr(smallball.cli.json, "dump", fail)
        with pytest.raises(RuntimeError):
            writer.finish()
        assert os.listdir(tmp_path) == []

    def test_requires_seed(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("simulate", "--out", str(out)) == 1
        assert "seed" in capsys.readouterr().err

    def test_same_seed_same_bytes(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("simulate", "--seed", "11", "--out", str(out), "--n", "8")
            blobs.append((out / "sample.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestFpcaCommand:
    def test_rank_one_sample(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--seed", "4", "--out", str(out), "--n", "40")  # sine by default
        fp = tmp_path / "fpca"
        assert run_cli("fpca", "--input", str(out / "sample.csv"), "--d", "1", "--out", str(fp)) == 0
        rows = (fp / "eigensystem.csv").read_text().strip().split("\n")
        lambdas = [float(r.split(",")[0]) for r in rows[1:]]
        assert lambdas[1] < 1e-10 * lambdas[0]
        scores = np.loadtxt(fp / "scores.csv", delimiter=",", skiprows=1, ndmin=2)
        assert scores.shape == (40, 1)

    def test_d_beyond_numerical_rank(self, tmp_path, capsys):
        out = tmp_path / "sim"
        run_cli("simulate", "--seed", "4", "--out", str(out), "--n", "40")  # sine: rank one
        fp = tmp_path / "fpca"
        assert run_cli("fpca", "--input", str(out / "sample.csv"), "--d", "3", "--out", str(fp)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "d=3" in err and "rank 1" in err and "n=40" in err
        assert not (fp / "scores.csv").exists()

    def test_default_d_is_numerical_rank(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--seed", "4", "--out", str(out), "--n", "80")  # sine: rank one
        fp = tmp_path / "fpca"
        assert run_cli("fpca", "--input", str(out / "sample.csv"), "--out", str(fp)) == 0
        header = (fp / "scores.csv").read_text().split("\n")[0]
        assert header == "score_1"
        assert json.loads((fp / "manifest.json").read_text())["config"]["d"] == 1

    def test_identical_curves_have_no_default_d(self, tmp_path, capsys):
        sample = tmp_path / "flat.csv"
        sample.write_text("0,0.5,1\n1,1,1\n1,1,1\n")
        out = tmp_path / "fpca"
        assert run_cli("fpca", "--input", str(sample), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "all-zero spectrum" in err
        assert not (out / "scores.csv").exists()

    def test_missing_input_is_reported(self, tmp_path, capsys):
        assert run_cli("fpca", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")) == 1
        assert "error:" in capsys.readouterr().err


class TestDensityCommand:
    def test_pipeline(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--seed", "9", "--out", str(sim), "--n", "200")
        dens = tmp_path / "dens"
        code = run_cli(
            "density",
            "--input", str(sim / "sample.csv"),
            "--targets", str(sim / "sample.csv"),
            "--d", "1",
            "--kernel", "gaussian-radial",
            "--out", str(dens),
        )
        assert code == 0
        rows = (dens / "density.csv").read_text().strip().split("\n")
        assert rows[0] == "target,score_1,f_hat"
        values = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert values.shape == (200,)
        assert np.all(values >= 0)


class TestSmbpCommand:
    def test_factorization_json(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 30\n")
        sim = tmp_path / "sim"
        run_cli("simulate", "--config", str(cfg), "--seed", "21", "--out", str(sim), "--n", "300")
        target = tmp_path / "target.csv"
        sample = read_sample_csv(sim / "sample.csv")
        grid_row = ",".join(repr(v) for v in sample.grid.points.tolist())
        target.write_text(grid_row + "\n" + ",".join(["0.0"] * 100) + "\n")
        out = tmp_path / "smbp"
        code = run_cli(
            "smbp",
            "--input", str(sim / "sample.csv"),
            "--target", str(target),
            "--eps", "0.5", "0.3",
            "--d", "1",
            "--J", "6",
            "--out", str(out),
        )
        assert code == 0
        reports = json.loads((out / "factorization.json").read_text())
        assert [r["eps"] for r in reports] == [0.5, 0.3]
        for r in reports:
            assert r["phi_d"] == pytest.approx(r["f_d"] * r["volume"] * r["correction"])

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_refused(self, tmp_path, capsys, eps):
        path, lines = write_wiener_sample(tmp_path, 40, 21)
        target = tmp_path / "target.csv"
        target.write_text(lines[0] + "\n" + lines[1] + "\n")
        out = tmp_path / "smbp"
        code = run_cli(
            "smbp", "--input", str(path), "--target", str(target), "--eps", "0.5", eps,
            "--d", "1", "--J", "6", "--out", str(out),
        )
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        assert "eps must be finite" in err
        assert not (out / "factorization.json").exists()


class TestExperimentCommand:
    def write_config(self, path, extra=""):
        path.write_text("process = sine\ndist = std-normal\nn = 40\nd = 1\nreps = 3\n" + extra)

    def test_requires_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        self.write_config(cfg)
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert "seed" in capsys.readouterr().err

    def test_outputs_and_thread_invariance(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        self.write_config(cfg)
        blobs = {}
        for threads in ("1", "3"):
            out = tmp_path / f"run{threads}"
            code = run_cli(
                "experiment", "--config", str(cfg), "--seed", "77",
                "--out", str(out), "--threads", threads,
            )
            assert code == 0
            blobs[threads] = (
                (out / "table1.csv").read_bytes(),
                (out / "ape.csv").read_bytes(),
            )
            manifest = json.loads((out / "manifest.json").read_text())
            assert set(manifest["outputs"]) == {"table1.csv", "ape.csv"}
        assert blobs["1"] == blobs["3"]

    def test_wiener_thread_invariance(self, tmp_path):
        # Wiener at d = 2, 3 evaluates the KDE through its GEMM path, which the sine study never reaches.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nn = 60\nd = 1,2,3\nreps = 4\n")
        blobs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            code = run_cli(
                "experiment", "--config", str(cfg), "--seed", "13", "--out", str(out), "--threads", threads
            )
            assert code == 0
            blobs[threads] = ((out / "table2.csv").read_bytes(), (out / "ape.csv").read_bytes())
        assert blobs["1"] == blobs["2"]

    def test_wiener_writes_table2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 20\nn = 30,50\nd = 1,2\nreps = 2\n")
        out = tmp_path / "w"
        assert run_cli("experiment", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
        rows = (out / "table2.csv").read_text().strip().split("\n")
        assert rows[0] == "n,d,mean,std"
        assert len(rows) == 5  # two n values x two d values

    def test_inputs_not_mutated(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        self.write_config(cfg)
        before = cfg.read_bytes()
        run_cli("experiment", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o"))
        assert cfg.read_bytes() == before


class TestFevSelection:
    def test_fev_threshold_picks_d(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 50\n")
        sim = tmp_path / "sim"
        run_cli("simulate", "--config", str(cfg), "--seed", "2", "--out", str(sim), "--n", "400")
        out = tmp_path / "fpca"
        assert run_cli("fpca", "--input", str(sim / "sample.csv"), "--fev", "0.9", "--out", str(out)) == 0
        header = (out / "scores.csv").read_text().split("\n", 1)[0]
        assert header.count("score_") >= 2  # FEV 0.9 needs at least two components

    def test_fev_beyond_numerical_rank(self, tmp_path, capsys):
        # Rank one: the FEV of d=1 is 1 - 2.2e-15, so this threshold picks a d above 1
        # whose extra score columns would be rounding noise.  Which d it picks is set by
        # those noise eigenvalues and so by the BLAS kernel, so the test does not pin it.
        sim = tmp_path / "sim"
        run_cli("simulate", "--seed", "4", "--out", str(sim), "--n", "80")  # sine: rank one
        out = tmp_path / "fpca"
        code = run_cli("fpca", "--input", str(sim / "sample.csv"), "--fev", "0.999999999999999", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        picked = re.search(r"\bd=(\d+) exceeds", err)
        assert picked and int(picked.group(1)) > 1
        assert "rank 1" in err and "n=80" in err
        assert not (out / "scores.csv").exists()

    def test_d_and_fev_are_exclusive(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--seed", "2", "--out", str(sim), "--n", "30")
        out = tmp_path / "fpca"
        with pytest.raises(SystemExit) as exc:
            run_cli("fpca", "--input", str(sim / "sample.csv"), "--d", "3", "--fev", "0.99", "--out", str(out))
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_threshold_reported(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--seed", "2", "--out", str(sim), "--n", "30")
        code = run_cli(
            "fpca", "--input", str(sim / "sample.csv"), "--fev", "1.0",
            "--out", str(tmp_path / "o"),
        )
        err = capsys.readouterr().err
        assert code == 1 and "threshold" in err


# Every option each subcommand accepts: --seed and --config only where a seed
# or config is read, --threads only on the replicated study.
OPTIONS = {
    "simulate": {"--out", "--seed", "--config", "--n"},
    "fpca": {"--out", "--input", "--d", "--fev"},
    "density": {"--out", "--input", "--targets", "--d", "--kernel", "--bandwidth"},
    "smbp": {"--out", "--input", "--target", "--eps", "--d", "--J", "--kernel", "--bandwidth"},
    "experiment": {"--out", "--seed", "--config", "--threads", "--replications", "--kernel", "--bandwidth"},
}


def test_each_subcommand_takes_only_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {flag for action in p._actions for flag in action.option_strings if flag not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS
    assert sum(map(len, got.values())) == 29


@pytest.mark.parametrize("bandwidth", ["normal-scale", "0.3"])
def test_density_and_smbp_match_library_pipeline(tmp_path, bandwidth):
    """density.csv's f_hat and smbp's f_d equal estimate_surrogate_density on one BLAS thread exactly."""
    sample_csv, lines = write_wiener_sample(tmp_path, n=150, seed=8)
    targets_csv = tmp_path / "targets.csv"
    targets_csv.write_text("\n".join(lines[:9]) + "\n")
    target_csv = tmp_path / "target.csv"
    target_csv.write_text(lines[0] + "\n" + lines[4] + "\n")
    sample = read_sample_csv(sample_csv)
    rule = bandwidth if bandwidth == "normal-scale" else float(bandwidth)
    with one_blas_thread():
        system = fit_fpca(sample)
        _, want_density = estimate_surrogate_density(
            sample, system, read_sample_csv(targets_csv), [2], EPANECHNIKOV, rule
        )[2]
        _, want_smbp = estimate_surrogate_density(
            sample, system, read_sample_csv(target_csv), [2], EPANECHNIKOV, rule
        )[2]
    shared = ("--input", str(sample_csv), "--d", "2", "--bandwidth", bandwidth)

    dens = tmp_path / "dens"
    assert run_cli("density", *shared, "--targets", str(targets_csv), "--out", str(dens)) == 0
    rows = (dens / "density.csv").read_text().splitlines()[1:]
    assert [float(r.rsplit(",", 1)[1]) for r in rows] == want_density.tolist()

    smbp = tmp_path / "smbp"
    code = run_cli("smbp", *shared, "--target", str(target_csv), "--eps", "0.5", "--J", "6", "--out", str(smbp))
    assert code == 0
    report = json.loads((smbp / "factorization.json").read_text())[0]
    assert report["f_d"] == want_smbp[0] > 0


class TestRefusedInput:
    """Input that cannot work ends in one 'error:' line and exit status 1."""

    @pytest.mark.parametrize("bandwidth", ["0", "nan", "bogus"])
    def test_bad_bandwidth(self, tmp_path, capsys, bandwidth):
        sample_csv, _ = write_wiener_sample(tmp_path, n=30, seed=9)
        out = tmp_path / "dens"
        code = run_cli(
            "density", "--input", str(sample_csv), "--targets", str(sample_csv), "--d", "1",
            "--bandwidth", bandwidth, "--out", str(out),
        )
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "bandwidth" in err
        assert not (out / "density.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = sine\nn = 40\nreps = 2\n")
        code = run_cli("experiment", "--config", str(cfg), "--seed", "1", "--threads", threads,
                       "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "threads" in err

    def test_failed_replication(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = sine\nn = 40\nreps = 2\nbandwidth = bogus\n")
        # A child interpreter, so that an uncaught exception would show as a traceback on stderr.
        src = str(Path(smallball.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "smallball.cli", "experiment", "--config", str(cfg), "--seed", "1",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: replication 0 failed: unknown bandwidth rule 'bogus'")
        assert "Traceback" not in done.stderr

    def test_d_beyond_sample_rank(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 20\nn = 50,5\nd = 7\nreps = 1\n")
        out = tmp_path / "w"
        code = run_cli("experiment", "--config", str(cfg), "--seed", "5", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "d=7" in err and "n=5" in err
        assert not (out / "table2.csv").exists()

    def test_d_beyond_process_rank(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 2\nn = 50\nd = 1,2,3\nreps = 1\n")

        def no_study(*args, **kwargs):
            raise AssertionError("a study ran")

        monkeypatch.setattr(smallball.cli, "run_experiment", no_study)
        out = tmp_path / "w"
        code = run_cli("experiment", "--config", str(cfg), "--seed", "5", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:")
        assert "d=3" in err and "rank 2" in err and "n=50" in err
        assert not out.exists()

    def test_repeated_d(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("process = wiener\nJ = 20\nn = 30\nd = 2, 1, 2\nreps = 1\n")

        def no_study(*args, **kwargs):
            raise AssertionError("a study ran")

        monkeypatch.setattr(smallball.cli, "run_experiment", no_study)
        out = tmp_path / "w"
        code = run_cli("experiment", "--config", str(cfg), "--seed", "5", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "d=2" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "units, command, d, flags",
        [
            (1e-38, "smbp", 9, ["--eps", "1e-38"]),
            (1e-38, "density", 9, []),
            (1.0, "smbp", 1, ["--eps", "1e308"]),
            (1.0, "smbp", 9, ["--eps", "1e40"]),
        ],
    )
    def test_estimate_outside_the_float_range(self, tmp_path, capsys, units, command, d, flags):
        # A Wiener sample in units of 1e-38 still has rank >= 9: only the float range stops these runs.
        grid = Grid.uniform(0.0, 1.0, 100)
        sample = sample_process(ProcessSpec("wiener"), 200, grid, SeededRng(3, 0))
        path, target = tmp_path / "sample.csv", tmp_path / "target.csv"
        write_sample_csv(FunctionalSample(grid, units * sample.values), path)
        write_sample_csv(FunctionalSample(grid, units * sample.values[:1]), target)
        out = tmp_path / "out"
        io = ["--input", str(path), "--targets", str(target)] if command == "density" else [
            "--input", str(path), "--target", str(target), "--J", "12"]
        code = run_cli(command, *io, "--d", str(d), *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        assert re.search(f"at d = {d}, (eps|h) = ", err), err
        assert not out.exists()

    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        sample = tmp_path / "bad.csv"
        sample.write_bytes(b"0.0,1.0,2.0\n" + b"1.0,2.0,3.0\n" * 4000 + b"1,\xff,3\n")
        out = tmp_path / "fpca"
        assert run_cli("fpca", "--input", str(sample), "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: line 4002: byte 0xff in column 2 is not UTF-8\n"
        assert not out.exists()

    def test_density_d_beyond_numerical_rank(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--seed", "4", "--out", str(sim), "--n", "5")  # sine: rank one
        out = tmp_path / "dens"
        code = run_cli(
            "density", "--input", str(sim / "sample.csv"), "--targets", str(sim / "sample.csv"),
            "--d", "7", "--out", str(out),
        )
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:")
        assert "d=7" in err and "rank 1" in err and "n=5" in err
        assert not (out / "density.csv").exists()
