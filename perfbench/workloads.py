"""The three workloads: what one op calls, and how its output is checked.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  Inputs come from the workload seed only.

* ``study-wiener`` -- one op is ``run_experiment`` of the Table 2 Wiener
  cell users wait on (n=1000, d=1,2,3, 20 replications, Gaussian kernel,
  normal-scale bandwidth, 160 targets) with a fresh ``base_seed``.  Stresses
  density (KDE, about half of an op), fpca and processes; smbp and grids are idle.
* ``factorize-large`` -- one op is criterion 6's chain on an in-memory
  200 000-curve Gaussian-KL sample (160 MB, larger than the L3 cache):
  ``fit_fpca``, then per eps in (0.8, 0.6, 0.4) dimension selection,
  projection, bandwidth, KDE at one centre, ``factorize`` (J=8) and the
  empirical oracle.  Stresses smbp and fpca at large n; the KDE is under 1%.
* ``cli-csv`` -- one op is one in-process ``smallball.cli.main`` call,
  rotating through simulate (writes a 2000-curve CSV), fpca, density and
  smbp (which read CSVs written in set-up).  Stresses grids CSV I/O and the
  CLI layer, with writes beside reads.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from smallball import cli
from smallball.density import GAUSSIAN, DensityEstimator, KernelSpec, bandwidth_normal_scale, kde_evaluate_many
from smallball.experiments import ExperimentConfig, run_experiment
from smallball.fpca import fit_fpca, scores
from smallball.grids import Curve, FunctionalSample, Grid
from smallball.processes import WIENER, ProcessSpec
from smallball.smbp import empirical_smbp, factorize, select_dimension_hyper

DEFAULT_SEED = 1
GOLDENS = Path(__file__).with_name("goldens.json")
GOLDEN_OPS = 4  # ops of the default seed whose outputs goldens.json pins
# Studies run at the CLI default threads=1.  At threads=2 the Wiener study
# ran at 29-33 replications/s against 35-44 at 1 on a 2-vCPU guest: the
# Python threads oversubscribe OpenBLAS's own threads.
STUDY_THREADS = 1


def load_goldens(name: str, seed: int) -> dict:
    """Pinned outputs of the default seed (none for other seeds), keyed by op or command."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(GOLDENS.read_text(encoding="utf-8"))[name]


class StudyWiener:
    name = "study-wiener"
    ops_per_unit = 1
    work_per_op = 20  # replications, the unit of throughput
    n = 1000
    d_values = (1, 2, 3)
    cold_start = (
        "from smallball.experiments import ExperimentConfig, run_experiment\n"
        "from smallball.processes import ProcessSpec\n"
        "ExperimentConfig(process=ProcessSpec('wiener'), n=1000, d_values=(1, 2, 3), replications=20)\n"
    )
    needs_inputs = False

    def __init__(self, seed: int, work: Path, goldens: dict):
        self.seed = seed
        self.goldens = goldens

    def op(self, i: int):
        config = ExperimentConfig(
            process=ProcessSpec(WIENER),
            n=self.n,
            d_values=self.d_values,
            replications=self.work_per_op,
            base_seed=ref.derived_seed(self.seed, i),
        )
        return run_experiment(config, threads=STUDY_THREADS)

    @staticmethod
    def summary(result) -> dict:
        return {
            "rmsep_mean": [result.rmsep_mean[d] for d in result.config.d_values],
            "rmsep_std": [result.rmsep_std[d] for d in result.config.d_values],
            "ape_mean": result.ape_mean.tolist(),
        }

    def check(self, i: int, result) -> bool:
        got = self.summary(result)
        want = ref.wiener_study(result.config.base_seed, self.n, self.d_values, self.work_per_op)
        ok = result.config.base_seed == ref.derived_seed(self.seed, i)
        ok &= all(ref.close(got[k], want[k]) for k in want)
        golden = self.goldens.get(str(i))
        return ok and (golden is None or all(ref.close(got[k], golden[k]) for k in golden))


class FactorizeLarge:
    name = "factorize-large"
    ops_per_unit = 1
    work_per_op = 1
    cold_start = (
        "import numpy as np\n"
        "from smallball.density import DensityEstimator, KernelSpec, bandwidth_normal_scale, kde_evaluate_many\n"
        "from smallball.fpca import fit_fpca, scores\n"
        "from smallball.grids import Grid\n"
        "from smallball.smbp import empirical_smbp, factorize, select_dimension_hyper\n"
        "Grid.uniform(0.0, 1.0, 100)\n"
        "KernelSpec('gaussian-radial', 1)\n"
    )
    needs_inputs = True

    def __init__(self, seed: int, work: Path, goldens: dict):
        grid = Grid.uniform(0.0, 1.0, ref.GRID.size)
        self.sample = FunctionalSample(grid, ref.gaussian_kl_sample(seed, ref.FACTORIZE_N))
        self.centres = [Curve(grid, c) for c in ref.gaussian_kl_centres(seed, ref.FACTORIZE_CENTRES)]
        with np.load(work / "expected.npz", allow_pickle=False) as npz:
            self.expected = {k: npz[k] for k in npz.files}
        self.goldens = goldens

    def op(self, i: int):
        x = self.centres[i % len(self.centres)]
        system = fit_fpca(self.sample)
        rows = []
        for eps in ref.FACTORIZE_EPS:
            d, _ = select_dimension_hyper(ref.KL_LAMBDAS, eps, 0.5)
            sm = scores(self.sample, system, d)
            estimator = DensityEstimator(sm, bandwidth_normal_scale(sm), KernelSpec(GAUSSIAN, d))
            f_d = float(kde_evaluate_many(estimator, scores(x, system, d)[None, :])[0])
            report = factorize(self.sample, x, eps, d, system, f_d, ref.FACTORIZE_J)
            rows.append((d, report.phi_d, empirical_smbp(self.sample, x, eps)))
        return rows

    def summary(self, rows) -> dict:
        return {
            "d": [d for d, _, _ in rows],
            "phi_d": [phi for _, phi, _ in rows],
            "hits": [round(p * self.sample.n) for _, _, p in rows],
        }

    def check(self, i: int, rows) -> bool:
        got = self.summary(rows)
        k = i % len(self.centres)
        ok = got["d"] == [ref.FACTORIZE_D[eps] for eps in ref.FACTORIZE_EPS]
        ok &= ref.close(got["phi_d"], self.expected["phi_d"][k])
        ok &= got["hits"] == self.expected["hits"][k].tolist()
        golden = self.goldens.get(str(k))
        return ok and (golden is None or all(ref.close(got[key], golden[key]) for key in golden))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _table(path: Path, skip_header: bool) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0, ndmin=2)


class CliCsv:
    name = "cli-csv"
    commands = ("simulate", "fpca", "density", "smbp")
    ops_per_unit = len(commands)  # the unit is one rotation through the commands
    work_per_op = 1
    cold_start = "from smallball.cli import build_parser, main\nbuild_parser()\n"
    needs_inputs = True

    def __init__(self, seed: int, work: Path, goldens: dict):
        with np.load(work / "expected.npz", allow_pickle=False) as npz:
            self.expected = {k: npz[k] for k in npz.files}
        self.goldens = goldens
        smbp = ref.CLI_SMBP
        self.out = {c: work / f"out-{c}" for c in self.commands}
        self.argv = {
            "simulate": ["simulate", "--config", str(work / "wiener.cfg"), "--n", str(ref.CLI_N),
                         "--seed", str(int(self.expected["simulate_seed"]))],
            "fpca": ["fpca", "--input", str(work / "sample.csv"), "--d", str(ref.CLI_FPCA_D)],
            "density": ["density", "--input", str(work / "sample.csv"), "--targets", str(work / "targets.csv"),
                        "--d", str(ref.CLI_DENSITY_D)],
            "smbp": ["smbp", "--input", str(work / "sample.csv"), "--target", str(work / "target.csv"),
                     "--eps", *map(str, smbp["eps"]), "--d", str(smbp["d"]), "--J", str(smbp["J"])],
        }
        self.outputs = {
            "simulate": ("sample.csv",),
            "fpca": ("eigensystem.csv", "mean.csv", "scores.csv"),
            "density": ("density.csv",),
            "smbp": ("factorization.json",),
        }
        self.verified = {}  # command -> output digests of its first checked run

    def op(self, i: int):
        command = self.commands[i % len(self.commands)]
        return cli.main([*self.argv[command], "--out", str(self.out[command])])

    def summary(self, command: str) -> dict:
        """The numbers in one command's output files."""
        out = self.out[command]
        if command == "simulate":
            table = _table(out / "sample.csv", False)
            return {"grid": table[0], "sample": table[1:]}
        if command == "fpca":
            eig = _table(out / "eigensystem.csv", True)
            mean = _table(out / "mean.csv", False)
            return {"grid": mean[0], "lambda": eig[:, 0], "functions": eig[: ref.CLI_FPCA_D, 1:],
                    "mean": mean[1], "scores": _table(out / "scores.csv", True)}
        if command == "density":
            table = _table(out / "density.csv", True)
            return {"target": table[:, 0], "scores": table[:, 1:-1], "f_hat": table[:, -1]}
        records = json.loads((out / "factorization.json").read_text(encoding="utf-8"))
        fields = ("f_d", "volume", "correction", "phi_d", "tail_mass_omitted")
        return {"d": [r["d"] for r in records], "eps": [r["eps"] for r in records],
                "values": [[r[f] for f in fields] for r in records]}

    def _matches_reference(self, command: str) -> bool:
        got, want = self.summary(command), self.expected
        if command == "simulate":
            return ref.close(got["grid"], ref.GRID) and ref.close(got["sample"], want["simulate_sample"])
        if command == "fpca":
            return (ref.close(got["grid"], ref.GRID) and ref.close(got["lambda"], want["fpca_lambda"])
                    and ref.close(got["functions"], want["fpca_functions"])
                    and ref.close(got["mean"], want["fpca_mean"])
                    and ref.close(got["scores"], want["fpca_scores"]))
        if command == "density":
            return (ref.close(got["target"], np.arange(ref.CLI_TARGETS))
                    and ref.close(got["scores"], want["density_scores"])
                    and ref.close(got["f_hat"], want["density_f_hat"]))
        smbp = ref.CLI_SMBP
        return (got["d"] == [smbp["d"]] * len(smbp["eps"]) and got["eps"] == list(smbp["eps"])
                and ref.close(got["values"], want["smbp"]))

    def _matches_goldens(self, command: str) -> bool:
        golden = self.goldens.get(command)
        if golden is None:
            return True
        got = self.golden_summary(command)
        return all(ref.close(got[k], golden[k]) for k in golden)

    def golden_summary(self, command: str) -> dict:
        got = self.summary(command)
        if command == "simulate":
            return {"sum": float(got["sample"].sum()), "sum_sq": float((got["sample"] ** 2).sum())}
        if command == "fpca":
            return {"lambda_head": got["lambda"][: ref.CLI_FPCA_D].tolist(),
                    "scores_sum_sq": float((got["scores"] ** 2).sum())}
        if command == "density":
            return {"f_hat_sum": float(got["f_hat"].sum()), "f_hat_max": float(got["f_hat"].max())}
        return {"phi_d": [row[3] for row in got["values"]], "correction": [row[2] for row in got["values"]]}

    def check(self, i: int, status) -> bool:
        """Exit status 0, a manifest that hashes the outputs, and the right numbers.

        The first run of each command is parsed and compared with the
        reference; later runs of the same command on the same inputs must
        reproduce its bytes exactly.
        """
        command = self.commands[i % len(self.commands)]
        if status != 0:
            return False
        out = self.out[command]
        digests = {name: _sha256(out / name) for name in self.outputs[command]}
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        if manifest["outputs"] != digests:
            return False
        if command in self.verified:
            return digests == self.verified[command]
        if not (self._matches_reference(command) and self._matches_goldens(command)):
            return False
        self.verified[command] = digests
        return True


WORKLOADS = {w.name: w for w in (StudyWiener, FactorizeLarge, CliCsv)}


def make(name: str, seed: int, work: Path, goldens: dict):
    """Write the workload's inputs and expected results in a child process, then load them."""
    cls = WORKLOADS[name]
    if cls.needs_inputs:
        subprocess.run(
            [sys.executable, str(Path(ref.__file__).resolve()), name, str(seed), str(work)],
            check=True, timeout=170,
        )
    return cls(seed, work, goldens)
