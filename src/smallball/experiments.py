"""The surrogate-density path and the Monte Carlo harness built on it.

``estimate_surrogate_density`` (fitted FPCA -> scores -> bandwidth -> KDE at
the targets) serves studies, the CLI and the library alike; the harness adds
replication loops, RMSEP/APE metrics and table assembly.

Each replication is a pure function of (config, replication index): it draws
its own random stream, so replications can run on any number of worker
threads and still aggregate to byte-identical results, because collection
happens in index order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .density import (
    EPANECHNIKOV, GAUSSIAN, RATE_SMOOTHNESS, DensityEstimator, KernelSpec, kde_evaluate_many, resolve_bandwidth
)
from .fpca import EigenSystem, ScoreMatrix, fit_fpca, scores
from .grids import FunctionalSample, write_csv
from .processes import (
    SINE,
    WIENER,
    ProcessSpec,
    SeededRng,
    default_b_grid,
    default_grid,
    sample_process,
    target_curves,
    true_intensity,
)

# Intensity values at or below this are excluded from APE: the relative error
# blows up where the truth vanishes (the chi-square support boundary).
APE_TRUTH_FLOOR = 1e-6


class ReplicationError(RuntimeError):
    """A replication raised; the message names its index and the cause."""


def rmsep(estimates, truths) -> float:
    """Relative mean squared prediction error: sum (est - truth)^2 / sum truth^2."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape:
        raise ValueError("estimates and truths must have equal length")
    denom = float(np.sum(tru**2))
    if denom == 0:
        raise ValueError("all-zero truths leave RMSEP undefined")
    return float(np.sum((est - tru) ** 2) / denom)


def ape(estimate, truth):
    """Absolute percentage error |estimate - truth| / |truth|, elementwise on arrays."""
    tru = np.asarray(truth, dtype=float)
    if np.any(tru == 0):
        raise ValueError("APE is undefined at a zero truth value")
    err = np.abs(np.asarray(estimate, dtype=float) - tru) / np.abs(tru)
    return float(err) if err.ndim == 0 else err


def estimate_surrogate_density(
    sample: FunctionalSample,
    system: EigenSystem,
    targets: FunctionalSample,
    d_values,
    kernel_family: str = EPANECHNIKOV,
    bandwidth_rule="normal-scale",
) -> dict:
    """KDE of the d-dim scores of ``sample``, fitted as ``system``, at the targets, for each d.

    Returns {d: (target_scores, estimates)}.  The sample and the targets are
    projected once, at the largest d, and each d reads the leading columns.
    """
    d_max = max(d_values)
    system.require_rank(d_max, sample.n)
    sample_scores = scores(sample, system, d_max).entries
    target_scores = scores(targets, system, d_max).entries
    out = {}
    for d in d_values:
        sample_d, targets_d = ScoreMatrix(sample_scores[:, :d]), target_scores[:, :d]
        h = resolve_bandwidth(sample_d, bandwidth_rule)
        estimator = DensityEstimator(sample_d, h, KernelSpec(kernel_family, d))
        out[d] = targets_d, kde_evaluate_many(estimator, targets_d)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one Monte Carlo study needs, hashable for the run manifest."""

    process: ProcessSpec
    n: int
    d_values: tuple[int, ...]
    replications: int = 200
    base_seed: int = 0
    kernel_family: str = GAUSSIAN
    bandwidth_rule: str | float = "normal-scale"

    def __post_init__(self):
        if self.process.kind not in (SINE, WIENER):
            raise ValueError(
                "replicated studies need a process with a closed-form intensity "
                f"(sine or wiener), not {self.process.kind!r}"
            )
        if self.n < 2:
            raise ValueError("sample size n must be at least 2")
        if self.replications < 1:
            raise ValueError("need at least 1 replication")
        d_values = tuple(int(d) for d in self.d_values)
        if not d_values or any(d < 1 for d in d_values):
            raise ValueError("d_values must be positive integers")
        repeated = sorted({d for d in d_values if d_values.count(d) > 1})
        if repeated:
            raise ValueError(f"d_values repeats d={', '.join(map(str, repeated))}; list each d once")
        # A centred sample of n curves has rank at most n - 1, and the sine
        # process has rank 1, the truncated Wiener process rank J.
        rank = min(1 if self.process.kind == SINE else self.process.J, self.n - 1)
        if max(d_values) > rank:
            raise ValueError(
                f"d={max(d_values)} exceeds the rank {rank} of a centred {self.process.kind} "
                f"sample of n={self.n} curves; use d <= {rank}"
            )
        object.__setattr__(self, "d_values", d_values)

    @property
    def b_grid(self) -> tuple[float, ...]:
        """The target b values: the standard grid of the process and score law."""
        return tuple(default_b_grid(self.process.kind, self.process.dist).tolist())

    def config_hash(self) -> str:
        payload = {
            "process": asdict(self.process),
            "n": self.n,
            "d_values": list(self.d_values),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "kernel_family": self.kernel_family,
            "bandwidth_rule": self.bandwidth_rule,
            "bandwidth_p": RATE_SMOOTHNESS,
            "b_grid": list(self.b_grid),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class ReplicationResult:
    """Per-d RMSEP plus per-b APE (NaN where the truth is below the floor)."""

    rmsep_by_d: dict
    ape_by_b: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated study output: RMSEP mean/std per d and mean APE per b."""

    config: ExperimentConfig
    config_sha: str
    rmsep_mean: dict
    rmsep_std: dict
    ape_mean: np.ndarray
    rmsep_draws: dict = field(repr=False)


@functools.cache
def _study_inputs(kind: str, dist: str):
    """The grid, target curves, truths and APE mask of a study, built once per (kind, dist).

    They are the same in every replication and every study of the pair, so
    they are cached on the pair alone, never on a config (whose seed is new
    for each study); there are at most six entries, all read-only.
    """
    grid = default_grid(kind)
    b = default_b_grid(kind, dist)
    truths = true_intensity(kind, dist, b)
    keep = np.abs(truths) > APE_TRUTH_FLOOR
    truths.setflags(write=False)
    keep.setflags(write=False)
    return grid, target_curves(kind, b, grid), truths, keep


def run_replication(config: ExperimentConfig, rep_index: int) -> ReplicationResult:
    """One seeded replication: simulate, FPCA, project targets, KDE, metrics.

    The estimates are put on the intensity scale of the process truth: the
    sine intensity is the score density itself, while the Wiener intensity
    multiplies the d-dimensional score density by prod_j sqrt(2 pi lambda_j)
    with the estimated eigenvalues.
    """
    spec = config.process
    grid, targets, truths, keep = _study_inputs(spec.kind, spec.dist)
    sample = sample_process(spec, config.n, grid, SeededRng(config.base_seed, rep_index))
    system = fit_fpca(sample)

    rmsep_by_d = {}
    ape_by_b = None
    by_d = estimate_surrogate_density(
        sample, system, targets, config.d_values, config.kernel_family, config.bandwidth_rule
    )
    for d, (_, estimates) in by_d.items():
        if spec.kind == WIENER:
            estimates = estimates * math.prod(
                math.sqrt(2.0 * math.pi * lam) for lam in system.eigenvalues[:d]
            )
        rmsep_by_d[d] = rmsep(estimates, truths)
        if ape_by_b is None:
            ape_by_b = np.full(truths.shape, np.nan)
            ape_by_b[keep] = ape(estimates[keep], truths[keep])
    return ReplicationResult(rmsep_by_d=rmsep_by_d, ape_by_b=ape_by_b)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run all replications and aggregate in index order.

    ``threads`` > 1 distributes replications over a thread pool; results are
    merged by replication index, so the output is identical to a serial run.
    Every worker runs BLAS on one thread (the pin is process-wide while the
    study runs), so neither ``threads`` nor the host's core count changes
    the output bytes.
    """
    def one(index: int) -> ReplicationResult:
        try:
            return run_replication(config, index)
        except Exception as exc:
            raise ReplicationError(f"replication {index} failed: {exc}") from exc

    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    indices = range(config.replications)
    with one_blas_thread():
        if threads > 1:
            # Imported here: concurrent.futures loads logging, which a serial run never needs.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(one, indices))
        else:
            results = [one(i) for i in indices]

    rmsep_draws = {
        d: np.array([r.rmsep_by_d[d] for r in results]) for d in config.d_values
    }
    rmsep_mean = {d: float(v.mean()) for d, v in rmsep_draws.items()}
    rmsep_std = {
        d: float(v.std(ddof=1)) if v.size > 1 else 0.0 for d, v in rmsep_draws.items()
    }
    ape_stack = np.stack([r.ape_by_b for r in results])
    with np.errstate(invalid="ignore"):
        ape_mean = ape_stack.mean(axis=0)  # NaN columns stay NaN (excluded b points)
    return ExperimentResult(
        config=config,
        config_sha=config.config_hash(),
        rmsep_mean=rmsep_mean,
        rmsep_std=rmsep_std,
        ape_mean=ape_mean,
        rmsep_draws=rmsep_draws,
    )


def _dist_label(spec: ProcessSpec) -> str:
    return spec.dist if spec.kind == SINE else spec.kind


def write_table1_csv(results: list[ExperimentResult], path) -> None:
    """Sine-process study rows: dist, n, mean, std (one row per result and d)."""
    rows = (
        (_dist_label(res.config.process), res.config.n, res.rmsep_mean[d], res.rmsep_std[d])
        for res in results for d in res.config.d_values
    )
    write_csv(path, rows, header=("dist", "n", "mean", "std"))


def write_table2_csv(results: list[ExperimentResult], path) -> None:
    """Wiener-style study rows: n, d, mean, std."""
    rows = (
        (res.config.n, d, res.rmsep_mean[d], res.rmsep_std[d])
        for res in results for d in res.config.d_values
    )
    write_csv(path, rows, header=("n", "d", "mean", "std"))


def write_ape_csv(results: list[ExperimentResult], path) -> None:
    """Per-b mean APE rows: dist, n, b, mean_ape (excluded points are skipped)."""
    rows = (
        (_dist_label(res.config.process), res.config.n, b, value)
        for res in results
        for b, value in zip(res.config.b_grid, res.ape_mean.tolist())
        if not math.isnan(value)
    )
    write_csv(path, rows, header=("dist", "n", "b", "mean_ape"))
