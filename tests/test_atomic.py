"""Whole-file writes: a write that fails before its rename changes nothing."""

import os

import numpy as np
import pytest

from radspoof import atomic, corpus, encoder, metrics, pipeline, radf, vecstore
from radspoof.metrics import ScoreRecord

SCORES = [ScoreRecord("u1", 1.0, "bonafide"), ScoreRecord("u2", -1.0, "spoof")]

FILE_WRITERS = {
    "write_text": lambda path: atomic.write_text(path, "new\n"),
    "write_scores": lambda path: metrics.write_scores(path, SCORES),
    "write_det_csv": lambda path: metrics.write_det_csv(path, SCORES),
    "write_manifest": lambda path: corpus.write_manifest(
        path, [corpus.ManifestRecord("u1", "spk", "bonafide", None, "wav/u1.wav", "train")]
    ),
    "write_tensors": lambda path: radf.write_tensors(path, {"w": np.ones(3)}, {"kind": "x"}),
}

DIR_WRITERS = {
    "cache_index": lambda d: encoder.CacheIndex(
        d, "fp", 1, 2, 3, {"u1": ("short/u1.radf", "embed/u1.radf")}
    ).save(),
    "run_manifest": lambda d: pipeline.write_run_manifest(d, {"command": "x"}),
    "store": lambda d: vecstore.persist_stores(
        vecstore.StoreSet("fp", ["u1"], ["spk"], np.ones((1, 1, 2), np.float32)), d
    ),
}


@pytest.fixture
def failing_replace(monkeypatch):
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)


@pytest.mark.parametrize("existing", [None, b"old bytes\n"], ids=["absent", "present"])
@pytest.mark.parametrize("writer", FILE_WRITERS)
def test_failed_rename_keeps_the_old_file_and_no_temp(tmp_path, failing_replace, writer, existing):
    path = tmp_path / "out"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(OSError, match="rename refused"):
        FILE_WRITERS[writer](path)
    assert list(tmp_path.iterdir()) == ([] if existing is None else [path])
    if existing is not None:
        assert path.read_bytes() == existing


@pytest.mark.parametrize("writer", DIR_WRITERS)
def test_failed_rename_leaves_no_artifact_file(tmp_path, failing_replace, writer):
    directory = tmp_path / "d"
    directory.mkdir()
    with pytest.raises(OSError, match="rename refused"):
        DIR_WRITERS[writer](directory)
    assert list(directory.iterdir()) == []


@pytest.mark.parametrize("writer", FILE_WRITERS)
def test_write_replaces_the_old_file(tmp_path, writer):
    path = tmp_path / "out"
    path.write_bytes(b"old bytes\n")
    FILE_WRITERS[writer](path)
    assert path.read_bytes() != b"old bytes\n"
    assert list(tmp_path.iterdir()) == [path]
