#!/usr/bin/env python3
"""Answer check: what the pipeline answers on a fixed run set, against a
committed digest.

The run set is every query of the mini, ambiguous and fuzzy benchmark
workloads (``perfbench/workloads.py``), for seeds 1 and 2, under each
lower bound: 300 runs.  The digest ``tests/answers.jsonl`` holds one JSON
line per run with the query text, the bindings as IRIs, the winner index
and each candidate's infeasible reason (or the error a run raised).  Each
candidate's assembled, predicted and normalized cost reprs are listed too,
but they are only reported: how many moved, and by how many ulps at most.

Run from the root of a checkout:

    python3 tests/answers.py --check           # every run against the digest
    python3 tests/answers.py --check --quick   # one seed and bound per workload
    python3 tests/answers.py --write           # regenerate the digest

``--check`` prints the first run that differs and exits 1.  A change that
moves answers on purpose regenerates the digest and says why.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "answers.jsonl"
WORKLOADS = ("mini", "ambiguous", "fuzzy")
SEEDS = (1, 2)
BOUNDS = ("naive", "km", "greedy")
QUICK = {("mini", 1, "greedy"), ("ambiguous", 1, "km"), ("fuzzy", 2, "naive")}
# str hashes order the sets and dicts the program iterates; pin the salt,
# as the benchmark does
HASH_SEED = "0"
KEY = ("workload", "seed", "bound", "qid")
GATED = ("error", "text", "bindings", "winner", "reasons")  # "costs" is only reported


def run_set(quick: bool):
    """Yield one record per run, in digest order."""
    from perfbench.workloads import MINI_TRAIN, make_workload
    from qga.embedding import load_table, train_transe
    from qga.errors import QgaError
    from qga.lexicon import build_lexicon
    from qga.pipeline import answer_keywords
    from qga.store import load_triples

    for name in WORKLOADS:
        for seed in SEEDS:
            bounds = [b for b in BOUNDS if not quick or (name, seed, b) in QUICK]
            if not bounds:
                continue
            with tempfile.TemporaryDirectory() as work:
                w = make_workload(name, seed, ROOT / "fixtures" / "mini", Path(work))
                kg = load_triples(w.kg_path)
                lexicon = build_lexicon(kg, w.labels_path, w.paraphrase_path)
                if w.vectors_path is None:
                    table = train_transe(kg, MINI_TRAIN)
                else:
                    table = load_table(w.vectors_path, kg)
            for bound in bounds:
                config = replace(w.config, bound=bound)
                for query in w.queries:
                    row = {"workload": name, "seed": seed, "bound": bound, "qid": query.qid}
                    try:
                        result = answer_keywords(list(query.tokens), kg, lexicon, table, config)
                    except QgaError as exc:
                        row["error"] = f"{type(exc).__name__}: {exc}"
                        yield row
                        continue
                    row["text"] = result.structured_query.text
                    row["bindings"] = [{v: kg.iri_of(i) for v, i in b.items()} for b in result.bindings]
                    row["winner"] = result.winner_index
                    row["reasons"] = [c.infeasible_reason for c in result.candidates]
                    row["costs"] = [
                        [repr(c.assembled_cost), repr(c.predicted_cost), repr(c.normalized_cost)]
                        for c in result.candidates
                    ]
                    yield row


def ulps(a: float, b: float) -> int:
    """Distance between two floats in units in the last place."""

    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def check(expected: list[dict], quick: bool) -> int:
    if quick:
        expected = [r for r in expected if (r["workload"], r["seed"], r["bound"]) in QUICK]
    runs = list(run_set(quick))
    moved = max_ulps = 0
    for want, got in zip(expected, runs):
        for field in KEY + GATED:
            if want.get(field) != got.get(field):
                print("first run that differs: " + " ".join(f"{k}={want[k]}" for k in KEY))
                print(f"  {field} in the digest: {json.dumps(want.get(field))}")
                print(f"  {field} in this run:   {json.dumps(got.get(field))}")
                return 1
        for old, new in zip(sum(want.get("costs", []), []), sum(got.get("costs", []), [])):
            if old != new:
                moved += 1
                max_ulps = max(max_ulps, ulps(float(old), float(new)))
    if len(runs) != len(expected):
        print(f"the digest has {len(expected)} runs, this run made {len(runs)}")
        return 1
    print(f"{len(runs)} runs identical to the digest; cost reprs: {moved} moved, largest distance {max_ulps} ulp")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the digest")
    mode.add_argument("--check", action="store_true", help="compare a run with the digest")
    parser.add_argument("--quick", action="store_true", help="check one seed and bound per workload")
    args = parser.parse_args(argv)
    if args.write and args.quick:
        parser.error("--quick only checks; the digest always holds every run")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.write:
        rows = list(run_set(quick=False))
        DIGEST.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        print(f"wrote {len(rows)} runs to {DIGEST.relative_to(ROOT)}")
        return 0
    expected = [json.loads(line) for line in DIGEST.read_text(encoding="utf-8").splitlines()]
    return check(expected, args.quick)


if __name__ == "__main__":
    sys.exit(main())
