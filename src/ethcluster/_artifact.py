"""The artifact format: atomic writes, one JSON reader and one float decoder.

A write lands in a temporary file that ``os.replace`` swaps in: a failed
write leaves the previous artifact whole, and every write gets a new inode,
part of the key ``pipeline.scan_contract`` reuses parsed artifacts under.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInput, VersionError


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


def read_json(path: str | Path, decode):
    """``decode`` of the file's UTF-8 JSON; a missing file is an ``OSError``.

    The lookups ``decode`` makes validate the payload: any error they raise,
    and any ``FormatError`` or ``VersionError``, comes out naming the file.
    """
    try:
        return decode(json.loads(Path(path).read_text("utf-8")))
    except (FormatError, VersionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (AttributeError, IndexError, InvalidInput, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def floats(value, ndim: int) -> np.ndarray:
    """The finite float64 array of rank ``ndim`` in nested JSON lists; unlike
    ``np.array(value, dtype=float)`` it refuses null, booleans and strings."""
    try:
        arr = np.array(value)
    except ValueError as exc:
        raise FormatError(f"rows of unequal width: {exc}") from exc
    if arr.dtype.kind not in "fiu" or arr.ndim != ndim or 0 in arr.shape:
        raise FormatError(f"expected a non-empty rank-{ndim} array of numbers, "
                          f"found {arr.dtype} values of shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise FormatError("non-finite value")
    return arr
