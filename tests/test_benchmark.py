"""Smoke test of the benchmark workloads against the package's public names.

``benchmark/workloads.py`` drives the CLI and calls package functions by
name; this runs the set-up and one unit of each workload at toy size, so a
name they use that moves or changes fails here rather than only under
``benchmark/run.py``. The experiment unit runs traced, because the tracer
names its grid spans from positional arguments of the pipeline's functions.
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


def test_traced_experiment_unit_passes_every_check(workloads, tmp_path):
    class ToyExperiment(workloads.Experiment):
        def setup(self, ctx, root, tracer=None):
            corpus = root / "corpus"
            assert workloads.run_cli(ctx.pkg, tracer, [
                "synth", "--out", str(corpus), "--seed", str(ctx.seed),
                "--n-speakers", "4", "--clips-per-speaker", "20",
                "--splits", "train=40,dev=12,eval=16,retrieval_extra=12",
            ]) == 0
            return corpus

    ctx = _context(workloads)
    workload = ToyExperiment()
    corpus = workload.setup(ctx, tmp_path / "setup")
    tracer = workloads.Tracer(ctx.pkg, "smoke", targets=None)
    tracer.install()
    try:
        workload.unit(ctx, corpus, tmp_path / "job", tracer)
    finally:
        tracer.uninstall()
    assert ctx.checks.failed == 0
    pipeline = ctx.pkg.pipeline
    for variant in pipeline.ABLATION_VARIANTS:
        assert tracer.calls(f"pipeline.run_variant.{variant}") == 1
    for tau in pipeline.TAU_SWEEP:
        assert tracer.calls(f"pipeline.score_at_tau.{tau}") == 1
