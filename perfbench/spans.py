"""In-memory spans around the package's public calls, and per-layer metrics from them.

A span has a name (``layer.step``), a start, an end, the index of the span
that was open when it began, and the op it belongs to.  Spans are kept in
a list until the run ends.  A span's self time is its duration minus the
durations of its children; the run is single-threaded, so children nest.

The package binds names with ``from .x import f``, so a call is traced by
replacing the name where its caller looks it up (``smallball.experiments.
fit_fpca``, ``smallball.smbp.scores``, ...), never in the defining module
alone.  ``bindings`` lists every such site; a missed one shows as a drop
in ``trace.coverage``, the share of op wall time inside layer spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import time


def _mb(nbytes: int) -> float:
    return nbytes / 1e6


# Span name -> how to count the work one call does (computed, not measured).
COUNTS = {
    "density.kde": lambda args, result: args[0].scores.n * len(result),
    "fpca.scores": lambda args, result: _mb(args[0].values.nbytes),
    "smbp.oracle": lambda args, result: _mb(args[0].values.nbytes),
    "grids.read_csv": lambda args, result: _mb(os.path.getsize(args[0])),
    "grids.write_csv": lambda args, result: _mb(os.path.getsize(args[1])),
}


def bindings(workloads_module):
    """(owner, attribute, span name) for every lookup site of a traced call."""
    from smallball import cli, density, experiments, fpca, smbp

    bench = workloads_module
    return [
        (experiments, "run_replication", "experiments.replication"),
        (experiments, "sample_process", "processes.sample"),
        (cli, "sample_process", "processes.sample"),
        (experiments, "fit_fpca", "fpca.fit"),
        (cli, "fit_fpca", "fpca.fit"),
        (bench, "fit_fpca", "fpca.fit"),
        (fpca, "empirical_covariance", "fpca.covariance"),
        (fpca, "eigendecompose", "fpca.eigh"),
        (experiments, "scores", "fpca.scores"),
        (cli, "scores", "fpca.scores"),
        (smbp, "scores", "fpca.scores"),
        (bench, "scores", "fpca.scores"),
        (experiments, "resolve_bandwidth", "density.bandwidth"),
        (cli, "resolve_bandwidth", "density.bandwidth"),
        (density, "bandwidth_normal_scale", "density.bandwidth"),
        (bench, "bandwidth_normal_scale", "density.bandwidth"),
        (experiments, "kde_evaluate_many", "density.kde"),
        (cli, "kde_evaluate_many", "density.kde"),
        (bench, "kde_evaluate_many", "density.kde"),
        (bench, "select_dimension_hyper", "smbp.select"),
        (cli, "factorize", "smbp.factorize"),
        (bench, "factorize", "smbp.factorize"),
        (smbp, "correction_factor", "smbp.correction"),
        (bench, "empirical_smbp", "smbp.oracle"),
        (cli, "read_sample_csv", "grids.read_csv"),
        (cli, "write_sample_csv", "grids.write_csv"),
        (cli, "build_parser", "cli.command"),
        (cli, "cmd_simulate", "cli.command"),
        (cli, "cmd_fpca", "cli.command"),
        (cli, "cmd_density", "cli.command"),
        (cli, "cmd_smbp", "cli.command"),
        (cli.OutputWriter, "write", "cli.output"),
        (cli.OutputWriter, "finish", "cli.output"),
    ]


class Tracer:
    """Records spans while installed; ``op`` opens the root span of one op."""

    def __init__(self, sites):
        self.sites = sites
        self.spans = []  # [name, start, end, parent, op_id, count]
        self._stack = []
        self._saved = []
        self._op_id = None

    def _open(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[5] = count(args, result)
            return result

        if name == "cli.output" and fn.__name__ == "write":
            # Row formatting happens in the producer the command hands to
            # OutputWriter.write; it is command work, not output plumbing.
            def write(writer, out_name, producer):
                return traced(writer, out_name, self.wrap(producer, "cli.command"))

            return write
        return traced

    def install(self) -> None:
        for owner, attr, name in self.sites:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, op_id: int, call):
        """Run ``call()`` as op ``op_id`` under a root span named ``op``."""
        self._op_id = op_id
        rec = self._open("op")
        try:
            return call()
        finally:
            self._close(rec)
            self._op_id = None


SELF_TIME = {
    "density.kde_s": "density.kde",
    "density.bandwidth_s": "density.bandwidth",
    "fpca.covariance_s": "fpca.covariance",
    "fpca.eigh_s": "fpca.eigh",
    "fpca.scores_s": "fpca.scores",
    "smbp.factorize_s": "smbp.factorize",
    "smbp.correction_s": "smbp.correction",
    "smbp.oracle_s": "smbp.oracle",
    "grids.read_csv_s": "grids.read_csv",
    "grids.write_csv_s": "grids.write_csv",
    "processes.sample_s": "processes.sample",
    "experiments.replication_s": "experiments.replication",
    "cli.command_s": "cli.command",
    "cli.output_s": "cli.output",
}
CALLS = {
    "density.kde_calls": "density.kde",
    "fpca.scores_calls": "fpca.scores",
    "experiments.replications": "experiments.replication",
}
AMOUNTS = {
    "density.kde_pairs": "density.kde",
    "fpca.projected_mb": "fpca.scores",
    "smbp.oracle_mb": "smbp.oracle",
    "grids.csv_read_mb": "grids.read_csv",
    "grids.csv_written_mb": "grids.write_csv",
}


def per_op_metrics(spans, unit_of, ops_per_unit: int) -> dict:
    """Median over units of each layer metric, as a per-op average within the unit.

    ``unit_of`` maps an op id to its unit (an op, or one rotation of the CLI
    commands); averaging inside whole units keeps counts exactly repeatable.
    Also returns ``trace.coverage``: 1 - (root self time / op wall time).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    units: dict = {}
    for idx, (name, start, end, parent, op_id, count) in enumerate(spans):
        acc = units.setdefault(unit_of(op_id), {"self": {}, "calls": {}, "amount": {}, "wall": 0.0})
        own = end - start - child_time[idx]
        acc["self"][name] = acc["self"].get(name, 0.0) + own
        acc["calls"][name] = acc["calls"].get(name, 0) + 1
        acc["amount"][name] = acc["amount"].get(name, 0) + (count or 0)
        if name == "op":
            acc["wall"] += end - start
    rows = []
    for acc in units.values():
        row = {m: acc["self"].get(s, 0.0) / ops_per_unit for m, s in SELF_TIME.items()}
        row.update({m: acc["calls"].get(s, 0) / ops_per_unit for m, s in CALLS.items()})
        row.update({m: acc["amount"].get(s, 0) / ops_per_unit for m, s in AMOUNTS.items()})
        row["trace.coverage"] = 1.0 - acc["self"]["op"] / acc["wall"]
        rows.append(row)
    return {m: statistics.median(r[m] for r in rows) for m in rows[0]}


def import_seconds(importtime_stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    for line in importtime_stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    raise ValueError(f"{module} is not in the -X importtime output")
