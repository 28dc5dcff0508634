#!/usr/bin/env python3
"""Benchmark smoke: short runs of ``perfbench/run.py``, checked for a
verdict, because run.py exits 0 even when answers are wrong.

Three runs on seed 1, each ``--seconds`` long (default 1):

* mini and ambiguous, untraced: every answer is correct and no query
  failed;
* ambiguous, traced: the same, and lazy costing survives the tracer's
  pass-through wrappers: the direct-form kernel scores under a quarter
  of the crossing edges (``kernels.pair_costs_rows`` <
  0.25 x ``assembler.crossing_edges``).

Run from anywhere:

    python3 tests/bench_smoke.py
    python3 tests/bench_smoke.py --seconds 5

Each run's report goes to stderr.  The script prints one line per run
and exits 1 after the first run that fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("mini", False), ("ambiguous", False), ("ambiguous", True))  # (workload, traced)
LAZY_ROWS_PER_EDGE = 0.25


def run(workload: str, traced: bool, seconds: float) -> dict:
    """One benchmark run; its report is the JSON object on the last line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(int(traced))]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    sys.stderr.write(out)
    return json.loads(out.splitlines()[-1])


def problem(report: dict, traced: bool) -> str | None:
    """Why a run fails the smoke check, or None when it passes."""
    if report["correct"] is not True or report["failed"] != 0:
        return f"correct={report['correct']!r} failed={report['failed']!r}"
    if traced:
        rows = report["metrics"]["kernels.pair_costs_rows"]["value"]
        edges = report["metrics"]["assembler.crossing_edges"]["value"]
        if not rows < LAZY_ROWS_PER_EDGE * edges:
            return f"lazy costing lost: pair_costs_rows={rows!r} crossing_edges={edges!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0, help="length of each run")
    args = parser.parse_args(argv)
    for workload, traced in RUNS:
        name = f"{workload} {'traced' if traced else 'untraced'}"
        why = problem(run(workload, traced, args.seconds), traced)
        if why:
            print(f"{name}: FAILED, {why}")
            return 1
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
