"""Benchmark of the smallball chain: one workload per run, or all three in turn.

    python3 perfbench/run.py --workload study-wiener --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

It imports the package from ``src/`` of the checkout this file sits in,
and exits non-zero without a result when that package is missing.

A run has a separate process write the inputs and the reference results,
times cold starts of the package in fresh interpreters, warms up for at
least ``WARMUP_SECONDS``, then runs ops in a closed loop until they have
been busy for ``--seconds``, checking every op's output outside the timed
span.  A unit is one op, or for ``cli-csv`` one rotation through its commands.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced units and reports the per-layer metrics
of the traced ones, plus the tracing overhead.  The last line of standard
output is the JSON result; the line before it records the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("study-wiener", "factorize-large", "cli-csv")
# Fresh interpreters timed per run for setup_s.  One more runs first and
# writes the bytecode cache, so it is left out.  They all run before the
# warm-up: an op right after a cold start ran a median 4% slower (the
# child's freed memory is faulted back in), so none may precede a timed op.
COLD_STARTS = 7
# Untimed ops after set-up, at least one unit.  The first ops after the
# input-writing process and the cold starts exit are the slowest.
WARMUP_SECONDS = 3.0


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cold_start(code: str, importtime: bool) -> tuple[float, str]:
    """Seconds a fresh interpreter spends importing and building ``code``'s objects."""
    script = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"{code}"
        "print(time.perf_counter() - t0)\n"
    )
    flags = ["-X", "importtime"] if importtime else []
    done = subprocess.run(
        [sys.executable, "-E", "-s", *flags, "-c", script],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1]), done.stderr


def openblas() -> dict:
    """The BLAS numpy was built with, and the loaded OpenBLAS's configuration and threads."""
    import numpy as np

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas64_*")):
        lib = ctypes.CDLL(path)
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        info["openblas"] = lib.scipy_openblas_get_config64_().decode()
        info["openblas_threads"] = lib.scipy_openblas_get_num_threads64_()
    return info


def machine(study_threads: int, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **openblas(),
        "study_threads": study_threads,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import smallball
    import spans
    import workloads

    if Path(smallball.__file__).resolve().parent != SRC / "smallball":
        raise RuntimeError(f"imported smallball from {smallball.__file__}, not from {SRC}")
    cls = workloads.WORKLOADS[name]
    workload = workloads.make(name, seed, work, workloads.load_goldens(name, seed))
    cold_start(cls.cold_start, trace)
    starts = [cold_start(cls.cold_start, trace) for _ in range(COLD_STARTS)]
    tracer = spans.Tracer(spans.bindings(workloads)) if trace else None

    attempted = failed = op_index = 0
    latencies = []  # per-op seconds of the timed, untraced units
    traced_cpu = traced_wall = 0.0

    def run_unit(traced: bool, timed: bool) -> float:
        """Run and check one unit's ops; return the seconds they took."""
        nonlocal attempted, failed, op_index, traced_cpu, traced_wall
        if traced:
            tracer.install()
        unit_wall = 0.0
        for i in range(op_index, op_index + cls.ops_per_unit):
            call = (lambda: tracer.op(i, lambda: workload.op(i))) if traced else (lambda: workload.op(i))
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output, error = call(), None
            except Exception:  # an op that raises is a failed op
                output, error = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            if traced:
                traced_cpu += time.process_time() - c0
                traced_wall += dt
            elif timed:
                latencies.append(dt)
            unit_wall += dt
            ok = False
            if error is None:
                try:
                    ok = workload.check(i, output)
                except Exception:  # output too broken to check, e.g. a missing file
                    error = traceback.format_exc()
            attempted += 1
            failed += not ok
            if not ok:
                print(f"{name} op {i} failed:\n{error}" if error else f"{name} op {i}: wrong output",
                      file=sys.stderr)
        op_index += cls.ops_per_unit
        if traced:
            tracer.uninstall()
        return unit_wall

    warm_end = time.perf_counter() + WARMUP_SECONDS
    run_unit(False, False)
    while time.perf_counter() < warm_end:
        run_unit(False, False)

    # Under --trace 1 odd units are traced, so drift of the machine hits
    # traced and untraced units alike.
    unit_walls = {False: [], True: []}  # per-unit busy seconds, by traced or not
    busy = 0.0
    unit = 0
    deadline = time.perf_counter() + 2.5 * seconds + 30.0
    while unit < 2 or (busy < seconds and time.perf_counter() < deadline):
        traced = trace and unit % 2 == 1
        unit_walls[traced].append(run_unit(traced, True))
        busy += unit_walls[traced][-1]
        unit += 1

    units = declared_units(trace)
    if trace:
        per_unit = cls.ops_per_unit
        metrics = spans.per_op_metrics(tracer.spans, lambda op_id: op_id // per_unit, per_unit)
        metrics["density.import_s"] = statistics.median(
            spans.import_seconds(err, "smallball.density") for _, err in starts
        )
        metrics["trace.overhead"] = statistics.median(unit_walls[True]) / statistics.median(unit_walls[False])
        metrics["trace.cpu_per_wall"] = traced_cpu / traced_wall
        samples = len(unit_walls[True])
    else:
        metrics = {
            "throughput_per_s": len(latencies) * cls.work_per_op / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(s for s, _ in starts),
        }
        samples = len(latencies)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        "info": {"workload": name, "samples": samples, **machine(workloads.STUDY_THREADS, seed)},
    }


def print_table(name: str, result: dict, out) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:16s} {metric:28s} {m['value']:14.6g} {m['unit']}", file=out)
    print(f"{name:16s} {'failed/attempted':28s} {result['failed']:>8d}/{result['attempted']}", file=out)


def run_all(args) -> int:
    """Each workload in a fresh process of its own, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(lines[-2])
        print_table(name, result, sys.stdout)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed; 1 is also checked against goldens.json")
    parser.add_argument("--seconds", type=float, default=40.0, help="busy time of the timed ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "smallball" / "__init__.py").is_file():
        print(f"error: no smallball package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    print_table(args.workload, result, sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
