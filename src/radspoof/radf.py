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
import os
import struct
import zlib

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


def _read_payload(file, shape, context) -> np.ndarray:
    """The checksummed payload of `shape` at the file's position, read straight
    into its own array; FormatError when the file is too short to hold it."""
    nbytes = 4 * math.prod(shape)
    if file.tell() + nbytes + _CRC.size > os.fstat(file.fileno()).st_size:
        raise FormatError(f"{context}: truncated payload")
    values = np.empty(shape, dtype="<f4")
    file.readinto(values.reshape(-1).view(np.uint8))
    if zlib.crc32(values) != _CRC.unpack(file.read(_CRC.size))[0]:
        raise FormatError(f"{context}: checksum mismatch")
    return values


def _expect_end(file, context) -> None:
    if file.tell() != os.fstat(file.fileno()).st_size:
        raise FormatError(f"{context}: trailing bytes after the payload")


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
    with open(path, "rb") as file:
        head = file.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, kind, n_layers, n_frames, dim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if kind not in _KINDS:
            raise FormatError(f"{path}: unknown or retired kind {kind}")
        values = _read_payload(file, (n_layers, n_frames, dim), path)
        _expect_end(file, path)
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

    Each payload is read straight into its own array, so reading holds no
    more than the tensors themselves. Raises FormatError on a bad magic, a
    malformed header line, a truncated or corrupt payload, or trailing bytes.
    """
    meta: dict[str, str] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    with open(path, "rb") as file:
        if file.readline() != f"{BUNDLE_MAGIC}\n".encode():
            raise FormatError(f"{path}: bad RADP magic")
        # every header line starts with "meta " or "tensor ", so the first
        # whole "end" line is the terminator wherever "end" appears inside a value
        while (raw := file.readline()) != b"end\n":
            if not raw.endswith(b"\n"):
                raise FormatError(f"{path}: missing header terminator")
            try:  # a UnicodeDecodeError is a ValueError
                kind, rest = raw[:-1].decode("utf-8").split(" ", 1)
                if kind == "meta":
                    key, value = rest.split(" ", 1)
                    meta[key] = value
                    continue
                if kind != "tensor":
                    raise FormatError(f"{path}: unknown header line {raw!r}")
                name, dims = rest.rsplit(" ", 1)
                shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
                if any(d < 0 for d in shape):
                    raise ValueError(dims)
            except ValueError:
                raise FormatError(f"{path}: malformed header line {raw!r}") from None
            shapes[name] = shape
        tensors = {
            name: _read_payload(file, shape, f"{path}:{name}") for name, shape in shapes.items()
        }
        _expect_end(file, path)
    return tensors, meta
