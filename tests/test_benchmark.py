"""Smoke test of the benchmark workloads against the package's public names.

``benchmark/workloads.py`` drives the CLI and calls package functions by
name; this runs the set-up and one unit of the retrieval and scoring
workloads at toy size, so a name they use that moves or changes fails here
rather than only under ``benchmark/run.py``.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARK))  # workloads.py imports oracle and tracing
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCHMARK / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCHMARK))
        for name in (spec.name, "oracle", "tracing"):
            sys.modules.pop(name, None)


def _context(workloads):
    names = ("cli", "pipeline", "model", "nn", "vecstore", "encoder", "radf", "corpus", "metrics")
    pkg = types.SimpleNamespace(**{n: importlib.import_module(f"radspoof.{n}") for n in names})
    return workloads.Context(pkg=pkg, seed=1, seconds=0.0)


def test_retrieval_setup_and_unit_pass_every_check(workloads, tmp_path):
    class ToyRetrieval(workloads.Retrieval):
        n_entries = 240
        n_dup_groups = 8
        unit_queries = 12
        n_oracle = 6

    ctx = _context(workloads)
    workload = ToyRetrieval()
    inputs = workload.setup(ctx, tmp_path / "setup")
    workload.unit(ctx, inputs, tmp_path / "job")
    assert ctx.checks.attempted > workload.unit_queries
    assert ctx.checks.failed == 0


def test_scoring_setup_and_unit_pass_every_check(workloads, tmp_path):
    class ToyScoring(workloads.Scoring):
        n_store = 120
        n_eval = 16

    ctx = _context(workloads)
    workload = ToyScoring()
    inputs = workload.setup(ctx, tmp_path / "setup")
    workload.unit(ctx, inputs, tmp_path / "job")
    assert len(workload.last_scores) == workload.n_eval
    assert ctx.checks.failed == 0
