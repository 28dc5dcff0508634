"""The traced run: restoring wrapped functions, the guards, exact repeats.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import MINI, ROOT

from perfbench import bench
from perfbench.checks import Checker
from perfbench.tracing import Tracer
from perfbench.workloads import make_workload
from qga import assembler, kernels, pipeline, store

RUN = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def mini_ready(tmp_path_factory):
    w = make_workload("mini", 2, MINI, tmp_path_factory.mktemp("mini"))
    ready, setup = bench.set_up(w)
    checker = Checker(ready.kg, ready.table, w.config.bound)
    bench.reference_pass(w, ready, checker)
    return w, ready, setup, checker


def _traced(w, ready, checker, tracer):
    untraced = bench.closed_loop(w, ready, checker, 0.0)
    tracer.install()
    try:
        traced = bench.closed_loop(w, ready, checker, 0.0, tracer, min_rounds=bench.TRACED_MIN_ROUNDS)
    finally:
        tracer.uninstall()
    return untraced, traced


def test_uninstall_restores_every_original():
    before = (
        pipeline.answer_keywords,
        pipeline.build_condensed_graph,
        kernels.pair_costs,
        store.KnowledgeGraph.__dict__["catalog"],
        dict(assembler.LOWER_BOUNDS),
    )
    tracer = Tracer()
    tracer.install()
    assert pipeline.build_condensed_graph is not before[1]
    tracer.uninstall()
    after = (
        pipeline.answer_keywords,
        pipeline.build_condensed_graph,
        kernels.pair_costs,
        store.KnowledgeGraph.__dict__["catalog"],
        dict(assembler.LOWER_BOUNDS),
    )
    assert after == before


def test_traced_mini_passes_the_guards(mini_ready):
    w, ready, setup, checker = mini_ready
    tracer = Tracer()
    untraced, traced = _traced(w, ready, checker, tracer)
    assert untraced.failed == traced.failed == 0
    metrics = bench.traced_metrics(w, ready, setup, untraced, traced, tracer)
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert metrics["lexicon.fuzzy_surfaces_scanned"] == 0
    assert metrics["store.catalog_calls"] == 1


def test_guard_fails_when_a_wrapped_function_stops_firing(mini_ready, monkeypatch):
    """A later change that inlines a wrapped function must not leave its
    layer silently reading zero."""
    w, ready, setup, checker = mini_ready
    original = pipeline.build_condensed_graph
    tracer = Tracer()
    untraced = bench.closed_loop(w, ready, checker, 0.0)
    tracer.install()
    try:
        monkeypatch.setattr(pipeline, "build_condensed_graph", original)
        traced = bench.closed_loop(w, ready, checker, 0.0, tracer, min_rounds=bench.TRACED_MIN_ROUNDS)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    with pytest.raises(bench.GuardError, match="assembler.condense_ms"):
        bench.traced_metrics(w, ready, setup, untraced, traced, tracer)


def _traced_run(seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "mini", "--seed", str(seed), "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_traced_runs_with_one_seed_repeat_every_count():
    a, b = _traced_run(4), _traced_run(4)
    counts = [m for m, v in a["metrics"].items() if v["unit"] in ("count", "count/query", "bytes")]
    assert counts
    assert {m: a["metrics"][m] for m in counts} == {m: b["metrics"][m] for m in counts}


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it must refuse to run."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mini", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    # BENCHMARK.json gates a subset of the workloads run.py can run
    assert {w["name"] for w in spec["workloads"]} <= set(bench.MUST_FIRE)
