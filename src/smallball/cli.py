"""Command-line surface for batch use of the pipeline.

Subcommands: simulate, fpca, density, smbp, experiment.  Configs are flat
``key = value`` text files; every run writes its outputs atomically under
--out together with a manifest.json listing each output file with a content
hash, so reruns can be verified byte for byte.  Every command runs BLAS on
one thread, so the bytes do not depend on the host's core count; the
manifest records that as ``"blas_threads": 1`` (``"unpinned"`` where numpy's
BLAS offers no thread control).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time

from . import __version__
from ._blas import blas_threads, one_blas_thread
# kde_evaluate_many and resolve_bandwidth are unused here; perfbench/spans.py patches them at this site.
from .density import EPANECHNIKOV, kde_evaluate_many, resolve_bandwidth
from .experiments import (
    ExperimentConfig,
    ReplicationError,
    estimate_surrogate_density,
    run_experiment,
    write_ape_csv,
    write_table1_csv,
    write_table2_csv,
)
from .fpca import fit_fpca, scores, select_dimension_fev, write_eigensystem_csv
from .grids import FunctionalSample, read_sample_csv, write_csv, write_sample_csv
from .processes import SINE, ProcessSpec, SeededRng, default_grid, sample_process
from .smbp import factorize


# Bytes read at a time to hash an output (hashlib.file_digest needs Python 3.11).
_HASH_CHUNK = 1 << 20


class CliError(ValueError):
    """User-facing CLI failure with a one-line diagnostic."""


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines; '#' starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None


def _number(key: str, text: str, kind):
    """A config value as an int or a finite float; the error names the key and the value."""
    try:
        value = kind(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    noun = "an integer" if kind is int else "a finite number"
    raise CliError(f"config value {key} = {text!r} is not {noun}")


def _bandwidth(text: str):
    """A number is an explicit bandwidth; other text names a rule (resolve_bandwidth checks both)."""
    try:
        return float(text)
    except ValueError:
        return text


# How each config key is read: one int or float, a comma list of them ([kind]), or text.
_CONFIG_KEYS = {
    "process": str, "dist": str, "J": int, "lambdas": [float], "q": float,
    "seed": int, "n": [int], "d": [int], "reps": int, "kernel": str, "bandwidth": _bandwidth,
}


def _config_values(args, **flags) -> tuple[dict, dict]:
    """The --config file as written, and every key in it parsed, with each flag given in place of its key."""
    cfg = load_config(args.config) if args.config else {}
    values = {}
    for key, text in cfg.items():
        kind = _CONFIG_KEYS.get(key)
        if kind is None:
            raise CliError(f"unknown config key {key!r}; the keys are {', '.join(_CONFIG_KEYS)}")
        if isinstance(kind, list):
            values[key] = [_number(key, v.strip(), kind[0]) for v in text.split(",") if v.strip()]
            if not values[key]:
                raise CliError(f"config value {key} is empty")
        else:
            values[key] = _number(key, text, kind) if kind in (int, float) else kind(text)
    values.update((k, [v] if isinstance(_CONFIG_KEYS[k], list) else v) for k, v in flags.items() if v is not None)
    if "seed" not in values:
        raise CliError(f"{args.command} needs a seed: pass --seed or put seed = in the config")
    return cfg, values


def _process_spec(values: dict) -> ProcessSpec:
    """The named process (sine if none), given only the fields that were set."""
    fields = {k: values[k] for k in ("dist", "J", "lambdas", "q") if k in values}
    return ProcessSpec(values.get("process", SINE), **fields)


def _score_header(d: int) -> list[str]:
    return [f"score_{j + 1}" for j in range(d)]


class OutputWriter:
    """Atomic writes under one output directory, hashed into a manifest."""

    def __init__(self, out_dir: str, subcommand: str, seed, config: dict | None):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.manifest = {
            "subcommand": subcommand,
            "seed": seed,
            "config": config or {},
            "version": __version__,
            "blas_threads": blas_threads(),
            "started_unix": time.time(),
            "outputs": {},
        }

    def _place(self, name: str, producer) -> str:
        """Run ``producer(tmp)`` on a temp file in the output directory, then rename it to ``name``.

        The temp file is removed if the producer or the rename fails.
        """
        final = os.path.join(self.out_dir, name)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=name + ".", suffix=".tmp")
        os.close(fd)
        try:
            producer(tmp)
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return final

    def write(self, name: str, producer) -> str:
        """Produce ``name`` via a temp file + rename; record its SHA-256."""
        final = self._place(name, producer)
        digest = hashlib.sha256()
        with open(final, "rb") as fh:
            for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
                digest.update(chunk)
        self.manifest["outputs"][name] = digest.hexdigest()
        return final

    def finish(self) -> str:
        self.manifest["finished_unix"] = time.time()

        def dump(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")

        return self._place("manifest.json", dump)


def cmd_simulate(args) -> int:
    cfg, values = _config_values(args, seed=args.seed, n=args.n)
    spec = _process_spec(values)
    n_values = values.get("n", [100])
    if len(n_values) > 1:
        raise CliError(f"simulate draws one sample: config value n = {cfg['n']!r} must be one size")
    sample = sample_process(spec, n_values[0], default_grid(spec.kind), SeededRng(values["seed"], 0))
    writer = OutputWriter(args.out, "simulate", values["seed"], cfg)
    writer.write("sample.csv", lambda p: write_sample_csv(sample, p))
    writer.finish()
    return 0


def cmd_fpca(args) -> int:
    sample = read_sample_csv(args.input)
    system = fit_fpca(sample)
    if args.fev is not None:
        d = select_dimension_fev(system.eigenvalues, args.fev)
    elif args.d is not None:
        d = args.d
    else:
        d = system.rank
        if d == 0:
            raise CliError(f"the {sample.n} curves are identical (all-zero spectrum); no scores to export")
    system.require_rank(d, sample.n)
    score_matrix = scores(sample, system, d)
    writer = OutputWriter(args.out, "fpca", None, {"input": args.input, "d": d})

    writer.write("eigensystem.csv", lambda p: write_eigensystem_csv(system, p))
    writer.write(
        "mean.csv",
        lambda p: write_sample_csv(FunctionalSample(system.grid, system.mean[None, :]), p),
    )
    writer.write("scores.csv", lambda p: write_csv(p, score_matrix.entries, header=_score_header(d)))
    writer.finish()
    return 0


def cmd_density(args) -> int:
    sample = read_sample_csv(args.input)
    targets = read_sample_csv(args.targets)
    target_scores, values = estimate_surrogate_density(
        sample, fit_fpca(sample), targets, [args.d], args.kernel, args.bandwidth
    )[args.d]
    writer = OutputWriter(
        args.out,
        "density",
        None,
        {"input": args.input, "targets": args.targets, "d": args.d, "kernel": args.kernel},
    )
    rows = ([i, *row.tolist(), val] for i, (row, val) in enumerate(zip(target_scores, values.tolist())))
    writer.write("density.csv", lambda p: write_csv(p, rows, header=["target", *_score_header(args.d), "f_hat"]))
    writer.finish()
    return 0


def cmd_smbp(args) -> int:
    sample = read_sample_csv(args.input)
    target = read_sample_csv(args.target)
    if target.n != 1:
        raise CliError("the smbp target CSV must contain exactly one curve")
    system = fit_fpca(sample)
    _, values = estimate_surrogate_density(sample, system, target, [args.d], args.kernel, args.bandwidth)[args.d]
    x, f_d = target.curve(0), float(values[0])
    reports = [
        factorize(sample, x, eps, args.d, system, f_d, args.J) for eps in args.eps
    ]
    writer = OutputWriter(
        args.out,
        "smbp",
        None,
        {"input": args.input, "target": args.target, "d": args.d, "J": args.J, "eps": args.eps},
    )

    def write_reports(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[" + ",\n".join(r.to_json() for r in reports) + "]\n")

    writer.write("factorization.json", write_reports)
    writer.finish()
    return 0


def cmd_experiment(args) -> int:
    if args.config is None:
        raise CliError("experiment needs --config")
    cfg, values = _config_values(
        args, seed=args.seed, reps=args.replications, kernel=args.kernel, bandwidth=args.bandwidth
    )
    spec = _process_spec(values)
    if "n" not in values:
        raise CliError("experiment config needs n= (one value or a comma list)")
    fields = {"reps": "replications", "kernel": "kernel_family", "bandwidth": "bandwidth_rule"}
    given = {field: values[key] for key, field in fields.items() if key in values}
    # Every n is validated before the first study runs.
    configs = [
        ExperimentConfig(process=spec, n=n, d_values=values.get("d", [1]), base_seed=values["seed"], **given)
        for n in values["n"]
    ]
    results = [run_experiment(config, threads=args.threads) for config in configs]
    writer = OutputWriter(args.out, "experiment", values["seed"], cfg)
    table_name = "table1.csv" if spec.kind == SINE else "table2.csv"
    table_writer = write_table1_csv if spec.kind == SINE else write_table2_csv
    writer.write(table_name, lambda p: table_writer(results, p))
    writer.write("ape.csv", lambda p: write_ape_csv(results, p))
    writer.manifest["config_sha"] = [r.config_sha for r in results]
    writer.finish()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallball",
        description="Small-ball surrogate intensity pipeline: simulate, FPCA, KDE, factorize, reproduce tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, seeded=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="base seed for all randomness")
            p.add_argument("--config", default=None, help="flat key=value config file")
        return p

    bandwidth_help = "bandwidth: a rule (normal-scale or rate) or a positive number"

    p = command("simulate", cmd_simulate, "draw a seeded sample and write it as CSV", seeded=True)
    p.add_argument("--n", type=int, default=None, help="number of curves (overrides config)")

    p = command("fpca", cmd_fpca, "eigendecompose a sample CSV")
    p.add_argument("--input", required=True, help="sample CSV")
    level = p.add_mutually_exclusive_group()
    level.add_argument("--d", type=int, default=None, help="score columns to export (default: the numerical rank)")
    level.add_argument("--fev", type=float, default=None,
                       help="pick d as the smallest level whose explained-variance fraction reaches this threshold")

    p = command("density", cmd_density, "estimate the surrogate density at target curves")
    p.add_argument("--input", required=True, help="sample CSV")
    p.add_argument("--targets", required=True, help="target curves CSV (same grid)")
    p.add_argument("--d", type=int, required=True, help="truncation level")
    p.add_argument("--kernel", default=EPANECHNIKOV, help="kernel family")
    p.add_argument("--bandwidth", type=_bandwidth, default="normal-scale", help=bandwidth_help)

    p = command("smbp", cmd_smbp, "small-ball factorization report at a target curve")
    p.add_argument("--input", required=True, help="sample CSV")
    p.add_argument("--target", required=True, help="CSV with the single center curve")
    p.add_argument("--eps", type=float, nargs="+", required=True, help="radii to evaluate")
    p.add_argument("--d", type=int, required=True, help="truncation level")
    p.add_argument("--J", type=int, required=True, help="tail cutoff for the correction factor")
    p.add_argument("--kernel", default=EPANECHNIKOV, help="kernel family for f_d")
    p.add_argument("--bandwidth", type=_bandwidth, default="normal-scale", help=bandwidth_help)

    p = command("experiment", cmd_experiment, "run a replicated Monte Carlo study from a config", seeded=True)
    p.add_argument("--threads", type=int, default=1, help="worker threads, at least 1 (never changes output bytes)")
    p.add_argument("--replications", type=int, default=None, help="override the config replication count")
    p.add_argument("--kernel", default=None, help="override the config kernel family")
    p.add_argument("--bandwidth", type=_bandwidth, default=None, help="override the config " + bandwidth_help)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except (ReplicationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
