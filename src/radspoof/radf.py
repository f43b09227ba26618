"""Binary tensor files: per-clip RADF features and RADP named-tensor bundles.

A tensor is stored as its little-endian float32 values in C order followed
by the u32 CRC32 of those bytes. RADF holds one clip's feature under a fixed
binary header, which keeps the per-clip read of retrieval ingest cheap:

    magic   4 bytes  b"RADF"
    version u16      1
    kind    u8       2=short feature, 3=layer embedding (1, a long feature,
                     is retired and refused)
    L       u32      number of layers
    T       u32      number of frames (1 for embeddings)
    F       u32      feature dimension
    payload L*T*F float32, layer-major (l, t, f) order, then its CRC32

RADP holds named tensors plus string metadata (checkpoints, vector stores):
a UTF-8 header of "RADP 1", one "meta <key> <value>" line per key (sorted),
one "tensor <name> <d0,d1,...>" line per tensor (sorted; "scalar" for 0-d)
and "end", then the payloads in header order.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .atomic import replacing
from .errors import FormatError, InvalidInputError

MAGIC = b"RADF"
VERSION = 1

KIND_SHORT = 2
KIND_EMBEDDING = 3
_KINDS = (KIND_SHORT, KIND_EMBEDDING)

BUNDLE_MAGIC = "RADP 1"

_HEADER = struct.Struct("<4sHBIII")
_CRC = struct.Struct("<I")


def _write_payload(file, values) -> None:
    raw = np.ascontiguousarray(values, dtype="<f4")
    file.write(raw)
    file.write(_CRC.pack(zlib.crc32(raw)))


def _read_payload(buf, offset: int, shape, context) -> tuple[np.ndarray, int]:
    """The checksummed payload of `shape` at `offset`, and the offset after it."""
    end = offset + 4 * math.prod(shape)
    if end + _CRC.size > len(buf):
        raise FormatError(f"{context}: truncated payload")
    raw = buf[offset:end]
    if zlib.crc32(raw) != _CRC.unpack_from(buf, end)[0]:
        raise FormatError(f"{context}: checksum mismatch")
    return np.frombuffer(raw, dtype="<f4").copy().reshape(shape), end + _CRC.size


def write_feature(path, values: np.ndarray, kind: int) -> None:
    """Write a feature tensor to ``path``.

    ``values`` must be (L, T, F) for short features or (L, F) for
    embeddings (stored with T=1).
    """
    if kind not in _KINDS:
        raise InvalidInputError(f"cannot write feature kind {kind}")
    values = np.asarray(values)
    if kind == KIND_EMBEDDING:
        if values.ndim != 2:
            raise FormatError(f"embedding must be 2-D, got shape {values.shape}")
        values = values[:, None, :]
    elif values.ndim != 3:
        raise FormatError(f"feature must be 3-D, got shape {values.shape}")
    with open(path, "wb") as file:
        file.write(_HEADER.pack(MAGIC, VERSION, kind, *values.shape))
        _write_payload(file, values)


def read_feature(path) -> tuple[int, np.ndarray]:
    """Read a RADF file; returns (kind, values).

    Values are float32, shaped (L, T, F) for short features and (L, F)
    for embeddings. Raises FormatError on bad magic, version, kind, shape,
    length or checksum.
    """
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, kind, n_layers, n_frames, dim = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if kind not in _KINDS:
        raise FormatError(f"{path}: unknown or retired kind {kind}")
    values, end = _read_payload(buf, _HEADER.size, (n_layers, n_frames, dim), path)
    if end != len(buf):
        raise FormatError(f"{path}: trailing bytes after the payload")
    if kind == KIND_EMBEDDING:
        if n_frames != 1:
            raise FormatError(f"{path}: embedding with T={n_frames}")
        values = values[:, 0, :]
    return kind, values


def write_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    """Write named tensors as float32 payloads under a RADP text header; the
    file is renamed into place whole, so ``path`` never holds part of it."""
    texts = [*meta, *meta.values(), *tensors]
    if any("\n" in text for text in texts) or any(" " in key for key in meta):
        raise InvalidInputError("tensor names and meta must be single-line, meta keys unspaced")
    names = sorted(tensors)
    lines = [BUNDLE_MAGIC, *(f"meta {key} {meta[key]}" for key in sorted(meta))]
    for name in names:
        dims = ",".join(str(d) for d in np.shape(tensors[name]))
        lines.append(f"tensor {name} {dims or 'scalar'}")
    lines.append("end")
    with replacing(path) as file:
        file.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name in names:
            _write_payload(file, tensors[name])


def read_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a RADP file; returns (tensors, meta).

    Raises FormatError on a bad magic, a malformed header line, a truncated
    or corrupt payload, or trailing bytes.
    """
    blob = Path(path).read_bytes()
    # every header line starts with "meta " or "tensor ", so the first whole
    # "end" line is the terminator wherever "end" appears inside a value
    try:
        header_end = blob.index(b"\nend\n") + 5
        lines = blob[:header_end].decode("utf-8").split("\n")[:-1]
    except ValueError:
        raise FormatError(f"{path}: missing header terminator or non-UTF-8 header") from None
    if lines[0] != BUNDLE_MAGIC:
        raise FormatError(f"{path}: bad RADP magic")
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    buf, offset = memoryview(blob), header_end  # slices of it copy nothing
    for line in lines[1:-1]:
        try:
            kind, rest = line.split(" ", 1)
            if kind == "meta":
                key, value = rest.split(" ", 1)
                meta[key] = value
                continue
            if kind != "tensor":
                raise FormatError(f"{path}: unknown header line {line!r}")
            name, dims = rest.rsplit(" ", 1)
            shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
            if any(d < 0 for d in shape):
                raise ValueError(dims)
        except ValueError:
            raise FormatError(f"{path}: malformed header line {line!r}") from None
        tensors[name], offset = _read_payload(buf, offset, shape, f"{path}:{name}")
    if offset != len(buf):
        raise FormatError(f"{path}: trailing bytes after payloads")
    return tensors, meta
