"""Seeded corruption fuzzing of every persisted file.

Each file is cut at every length short of its full size and has bytes
replaced by a different random byte, one at a time. A tensor file has every
byte of its payload and checksum region replaced, and every such file must
be refused with FormatError. A text file (manifest, cache meta.txt and
index.tsv, store records.tsv, score file) has every byte replaced; a cut or
change can leave it valid, so it must either load or be refused with the
package's parse errors, never another exception.
"""

import numpy as np
import pytest

from radspoof import nn, radf
from radspoof.corpus import ManifestRecord, read_manifest, write_manifest
from radspoof.encoder import CacheIndex
from radspoof.errors import FormatError, ManifestParseError, ValidationError
from radspoof.metrics import ScoreRecord, read_scores, write_scores
from radspoof.vecstore import StoreSet, load_stores, persist_stores


def _feature(tmp_path):
    rng = np.random.default_rng(101)
    path = tmp_path / "f.radf"
    radf.write_feature(path, rng.standard_normal((2, 3, 4)).astype(np.float32), radf.KIND_SHORT)
    return path, lambda: radf.read_feature(path)


def _store(tmp_path):
    rng = np.random.default_rng(102)
    store = StoreSet(
        n_layers=2,
        feat_dim=3,
        fingerprint="fuzz",
        utt_ids=["a", "b", "c", "d"],
        speaker_ids=["s0", "s1", "s0", "s1"],
        vectors=[rng.standard_normal((4, 3)).astype(np.float32) for _ in range(2)],
    )
    persist_stores(store, tmp_path / "store")
    return tmp_path / "store" / "vectors.radp", lambda: load_stores(tmp_path / "store")


def _checkpoint(tmp_path):
    rng = np.random.default_rng(103)
    tensors = {
        "w": rng.standard_normal((3, 2)).astype(np.float32),
        "b": rng.standard_normal(2).astype(np.float32),
        "s": np.float32(rng.standard_normal()),
    }
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, tensors, {"kind": "fuzz", "tau": "10"})
    return path, lambda: nn.load_checkpoint(path)


def _payload_start(blob: bytes) -> int:
    if blob.startswith(radf.MAGIC):
        return 19  # the fixed RADF header
    return blob.index(b"\nend\n") + 5  # the RADP text header


@pytest.mark.parametrize(
    "make", [_feature, _store, _checkpoint], ids=["radf", "store", "checkpoint"]
)
def test_every_truncation_and_payload_byte_change_is_format_error(tmp_path, make):
    path, load = make(tmp_path)
    blob = path.read_bytes()
    load()  # the intact file loads
    for length in range(len(blob)):
        path.write_bytes(blob[:length])
        with pytest.raises(FormatError):
            load()
    rng = np.random.default_rng(104)
    start = _payload_start(blob)
    assert len(blob) - start >= 8  # at least one float and its checksum
    for offset in range(start, len(blob)):
        corrupt = bytearray(blob)
        corrupt[offset] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError):
            load()


def _manifest(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, [
        ManifestRecord("u0", "spk0", "bonafide", None, "wav/u0.wav", "train"),
        ManifestRecord("u1", "spk1", "spoof", "quantize8", "wav/u1.wav", "eval"),
    ])
    return path, lambda: read_manifest(path)


def _cache_file(name):
    def make(tmp_path):
        entries = {utt: (f"short/{utt}.radf", f"embed/{utt}.radf") for utt in ("u0", "u1")}
        CacheIndex(tmp_path, "fuzz", tau=1, n_layers=2, feat_dim=8, entries=entries).save()
        return tmp_path / name, lambda: CacheIndex.load(tmp_path)
    return make


def _records(tmp_path):
    path, load = _store(tmp_path)
    return path.parent / "records.tsv", load


def _scores(tmp_path):
    path = tmp_path / "scores.tsv"
    write_scores(path, [ScoreRecord("u0", 1.25, "bonafide"), ScoreRecord("u1", -0.5, "spoof")])
    return path, lambda: read_scores(path)


@pytest.mark.parametrize(
    "make",
    [_manifest, _cache_file("meta.txt"), _cache_file("index.tsv"), _records, _scores],
    ids=["manifest", "cache_meta", "cache_index", "store_records", "scores"],
)
def test_every_truncation_and_byte_change_of_a_text_file_loads_or_is_refused(tmp_path, make):
    path, load = make(tmp_path)
    blob = path.read_bytes()
    load()  # the intact file loads
    rng = np.random.default_rng(105)
    variants = [blob[:length] for length in range(len(blob))]
    for offset in range(len(blob)):
        corrupt = bytearray(blob)
        corrupt[offset] ^= int(rng.integers(1, 256))
        variants.append(bytes(corrupt))
    for variant in variants:
        path.write_bytes(variant)
        try:
            load()
        except (FormatError, ManifestParseError, ValidationError):
            pass  # refused loudly (a changed utt id can duplicate another: ValidationError)
