import tracemalloc

import numpy as np
import pytest

from radspoof import radf
from radspoof.errors import FormatError, InvalidInputError


def test_roundtrip_short_feature_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((3, 7, 5)).astype(np.float32)
    path = tmp_path / "x.radf"
    radf.write_feature(path, values, radf.KIND_SHORT)
    kind, loaded = radf.read_feature(path)
    assert kind == radf.KIND_SHORT
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, values)


def test_roundtrip_embedding(tmp_path):
    values = np.arange(12, dtype=np.float32).reshape(4, 3)
    path = tmp_path / "e.radf"
    radf.write_feature(path, values, radf.KIND_EMBEDDING)
    kind, loaded = radf.read_feature(path)
    assert kind == radf.KIND_EMBEDDING
    assert loaded.shape == (4, 3)
    assert np.array_equal(loaded, values)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.radf"
    radf.write_feature(path, np.zeros((2, 2, 2), dtype=np.float32), radf.KIND_SHORT)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        radf.read_feature(path)


def test_only_short_and_embedding_kinds_are_written_or_read(tmp_path):
    for kind in (1, 4):  # 1 is the retired long-feature kind
        with pytest.raises(InvalidInputError):
            radf.write_feature(tmp_path / "x.radf", np.zeros((2, 2, 2), np.float32), kind)
    path = tmp_path / "old.radf"
    radf.write_feature(path, np.zeros((2, 2, 2), dtype=np.float32), radf.KIND_SHORT)
    blob = bytearray(path.read_bytes())
    blob[6] = 1  # the kind byte, after the magic and the version
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="kind 1"):
        radf.read_feature(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.radf"
    radf.write_feature(path, np.ones((2, 3, 4), dtype=np.float32), radf.KIND_SHORT)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        radf.read_feature(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    path = tmp_path / "crc.radf"
    radf.write_feature(path, np.ones((2, 3, 4), dtype=np.float32), radf.KIND_SHORT)
    blob = bytearray(path.read_bytes())
    blob[30] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        radf.read_feature(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "v.radf"
    radf.write_feature(path, np.ones((2, 3, 4), dtype=np.float32), radf.KIND_SHORT)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        radf.read_feature(path)


def test_bundle_roundtrip_scalar_empty_and_3d(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "s": np.float32(2.5),
        "empty": np.zeros((0, 4), dtype=np.float32),
        "x": rng.standard_normal((2, 3, 4)).astype(np.float32),
    }
    path = tmp_path / "b.radp"
    radf.write_tensors(path, tensors, {"note": "n"})
    loaded, meta = radf.read_tensors(path)
    assert meta == {"note": "n"}
    assert sorted(loaded) == sorted(tensors)
    for name, values in tensors.items():
        assert loaded[name].shape == np.shape(values)
        assert loaded[name].dtype == np.float32
        assert loaded[name].tobytes() == np.asarray(values).tobytes()
        assert loaded[name].flags.writeable and loaded[name].flags.aligned


def test_bundle_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "b.radp"
    radf.write_tensors(path, {"w": np.ones(3, dtype=np.float32)}, {})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError):
        radf.read_tensors(path)


def test_bundle_read_holds_little_more_than_its_tensors(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {
        f"layer{l:02d}": rng.standard_normal((20_000, 32)).astype(np.float32) for l in range(5)
    }
    path = tmp_path / "b.radp"
    radf.write_tensors(path, tensors, {"fingerprint": "f"})
    del tensors
    size = path.stat().st_size
    assert size > 10 * 2**20
    tracemalloc.start()
    try:
        loaded, _ = radf.read_tensors(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.nbytes for t in loaded.values()) == 5 * 20_000 * 32 * 4
    assert peak <= 1.25 * size, f"peak {peak / 2**20:.1f} MiB for a {size / 2**20:.1f} MiB file"
