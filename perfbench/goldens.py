"""Rewrite goldens.json from the package's outputs at the default seed.

    python3 perfbench/goldens.py

Each output is first checked against the reference implementation, so
only numbers that agree with it are pinned.  Runs at the default seed then
compare their outputs with these as well.  Regenerate only after a change
that is meant to move the numbers beyond the reference tolerance.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main() -> int:
    goldens = {}
    work = HERE.parent / ".perfbench_work" / "goldens"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            w = workloads.make(name, workloads.DEFAULT_SEED, work, {})
            entry = goldens[name] = {}
            for i in range(workloads.GOLDEN_OPS):
                output = w.op(i)
                if not w.check(i, output):
                    raise SystemExit(f"{name} op {i} disagrees with the reference; goldens not written")
                if name == "cli-csv":
                    entry[w.commands[i]] = w.golden_summary(w.commands[i])
                else:
                    entry[str(i)] = w.summary(output)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
