#!/usr/bin/env python3
"""qga benchmark: closed-loop keyword queries on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mini --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A single workload runs in this process and prints its metrics by name and
unit, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload in its own child process, one after another, and
prints a table.  Generated inputs live under ``.perfbench/work`` while a
run lasts; results and spans are kept in ``.perfbench/results``.
``BENCHMARK.json`` gates mini and ambiguous.  inflated and fuzzy run only
when asked for: on a host shared with other tenants, inflated's
memory-bound catalog scan flips between two speeds with their load, which
moves its median by a quarter from run to run, and fuzzy's slow queries
leave the fewest samples per run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mini", "inflated", "fuzzy", "ambiguous")
CHILD_TIMEOUT_S = 900
# Python salts str hashes per process, and that salt orders the sets and
# dicts the program iterates: on the fuzzy workload it alone moves p50 by
# about 20% from one process to the next.  Every run uses this one salt.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def missing_program() -> str | None:
    """The benchmark measures the checkout it sits in, never an installed copy."""
    for rel in ("src/qga/__init__.py", "fixtures/mini/kg.tsv", "fixtures/mini/queries.tsv"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}: run from a full checkout of the repository"
    return None


def run_all(args) -> int:
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])

    units = {m: v["unit"] for m, v in next(iter(rows.values()))["metrics"].items()}
    table = {m: [f"{r['metrics'][m]['value']:.6g}" for r in rows.values()] for m in units}
    table["failed_frac"] = [f"{r['failed'] / r['attempted']:.6g}" for r in rows.values()]
    table["attempted"] = [str(r["attempted"]) for r in rows.values()]
    units.update(failed_frac="ratio", attempted="count")
    print()
    print(f"{'metric':40s}{'unit':>12s}" + "".join(f"{w:>14s}" for w in rows))
    for metric, cells in table.items():
        print(f"{metric:40s}{units[metric]:>12s}" + "".join(f"{c:>14s}" for c in cells))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in rows.values()),
                "attempted": sum(r["attempted"] for r in rows.values()),
                "failed": sum(r["failed"] for r in rows.values()),
                "metrics": {f"{w}.{m}": v for w, r in rows.items() for m, v in r["metrics"].items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    problem = missing_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_workload

    return run_workload(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
