"""Whole-file writes: a reader finds a file's old bytes or its new ones, never a part.

Each write goes to a uniquely named temp file in the destination's directory,
which ``os.replace`` then renames onto the final name. On any failure the
temp file is removed and the destination keeps whatever it held before.
``replacing_path`` hands out the temp path, for writers that open the file
themselves (the per-clip RADF features of a cache); ``replacing`` opens it.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def replacing_path(path):
    """A fresh temp path beside ``path``, renamed onto ``path`` when the block exits cleanly."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        yield temp
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def replacing(path):
    """A new binary file whose bytes replace ``path`` when the block exits cleanly."""
    with replacing_path(path) as temp, open(temp, "xb") as file:
        yield file


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` encoded as UTF-8."""
    with replacing(path) as file:
        file.write(text.encode("utf-8"))
