"""Atomic artifact writes, shared by every module that persists a file.

The text lands in a temporary file beside the target, which ``os.replace``
then swaps in. A write that fails or is interrupted leaves the previous
artifact whole and no partial file behind. Replacing also gives every write
a new inode, which is part of the key ``pipeline.scan_contract`` reuses
parsed artifacts under.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_text(text: str, path: str | Path) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(payload, path: str | Path) -> None:
    """Compact JSON with sorted keys: without ``indent`` CPython encodes in C."""
    write_text(json.dumps(payload, sort_keys=True), path)
