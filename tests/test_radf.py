import numpy as np
import pytest

from radspoof import radf
from radspoof.errors import FormatError


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
    radf.write_feature(path, np.zeros((2, 2, 2), dtype=np.float32), radf.KIND_LONG)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
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
