"""Seeded corruption fuzzing of every persisted tensor file.

Each file is cut at every length short of its full size and has every
byte of its payload and checksum region replaced by a different random
byte, one at a time; every such file must be refused with FormatError.
"""

import numpy as np
import pytest

from radspoof import nn, radf
from radspoof.errors import FormatError
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
        tau=10,
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
