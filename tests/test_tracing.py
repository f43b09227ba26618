"""Smoke test of the benchmark tracer against the package's public names.

The tracer in ``benchmark/tracing.py`` patches functions and methods by
name; this installs it with every target, so a traced name that moves or
is renamed fails here rather than only under ``benchmark/run.py --trace 1``.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from radspoof import model, radf, vecstore
from radspoof.corpus import CorpusConfig, write_corpus
from radspoof.encoder import EncoderConfig, extract_and_cache

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package(tracing):
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"radspoof.{name}") for name in tracing.MODULES}
    )


def _bindings(pkg):
    """Every module and class attribute of the package, by identity."""
    owners = list(vars(pkg).values())
    owners += [v for owner in owners for v in vars(owner).values() if isinstance(v, type)]
    return {(id(owner), attr): id(v) for owner in owners for attr, v in vars(owner).items()}


def test_tracer_installs_every_target_and_uninstalls_cleanly(tmp_path):
    tracing = _load_tracing()
    pkg = _package(tracing)
    before = _bindings(pkg)
    tracer = tracing.Tracer(pkg, "smoke", targets=None)
    try:
        tracer.install()
        assert len(tracer._patches) >= len(tracer._target_table())
        for owner, attr, *_ in tracer._target_table():
            assert id(getattr(owner, attr)) != before[(id(owner), attr)], attr
        values = np.ones((2, 3), dtype=np.float32)
        radf.write_feature(tmp_path / "e.radf", values, radf.KIND_EMBEDDING)
        radf.read_feature(tmp_path / "e.radf")
    finally:
        tracer.uninstall()
    assert tracer.calls("radf.write") == 1 and tracer.calls("radf.read") == 1
    assert tracer.counts["radf.read.bytes"] == (tmp_path / "e.radf").stat().st_size
    assert _bindings(pkg) == before


def test_tracer_hooks_see_reference_rows_of_training_and_scoring(tmp_path):
    cfg = CorpusConfig(
        n_speakers=2, clips_per_speaker=8, spoof_fraction=0.5, seed=3,
        split_counts={"train": 8, "dev": 4, "eval": 4},
    )
    records, _ = write_corpus(cfg, tmp_path / "corpus")
    encoder_cfg = EncoderConfig(kind="pseudo", n_layers=2, feat_dim=8, seed=1)
    cache = extract_and_cache(records, tmp_path / "corpus", encoder_cfg, 1, tmp_path / "cache")
    store, _ = vecstore.build_stores(records, cache, splits={"train", "dev"})
    hyper = model.TrainHyper(lr=1e-3, batch_size=4, epochs=1, k_refs=2, tau=10)
    tracing = _load_tracing()
    tracer = tracing.Tracer(_package(tracing), "hooks", targets=None)
    try:
        tracer.install()
        result = model.train_model(
            "radmfa", records, tmp_path / "corpus", encoder_cfg, hyper, tmp_path / "ck",
            store=store, cache=cache,
        )
        eval_records = [r for r in records if r.split == "eval"]
        model.score_dataset(
            "radmfa", result.checkpoint_path, eval_records, tmp_path / "corpus",
            store=store, cache=cache,
        )
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    assert 0.0 < layer["model.ref_rows_unique_ratio"] <= 1.0
    assert tracer.calls("model.assemble_references") > 0
    assert tracer.counts["model.scored_clips"] == len(eval_records)
