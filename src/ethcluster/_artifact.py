"""The artifact format: atomic writes, one JSON reader and writer, which own the
header ``{"format": "ethcluster-<name>", "version": VERSION}`` at the top level
of each stage artifact (files users build or edit, and reports, carry none), one
float encoder and the decoders every loader reads its values through.

Every float array is stored as the payload ``pack`` writes, ``{"shape":
[...], "f8": "<base64 of little-endian float64 bytes>"}``; ``floats`` is its
one decoder, so a load gives back the same bits and no artifact holds float
text. A table of named rows is one ``[n, dim]`` payload beside a list of its
n names, never a list of payloads. Lists of strings and of integers go
through ``strings`` and ``ints``. Each decoder refuses any other JSON value
with a ``FormatError``.

A write lands in a temporary file that ``os.replace`` swaps in: a failed
write leaves the previous artifact whole, and every write gets a new inode,
part of the key ``pipeline.scan_contract`` reuses parsed artifacts under.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInput, VersionError

VERSION = 5  # of every artifact header; a change to any artifact's layout bumps it


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


def write_json(payload, path: str | Path, name: str | None = None) -> None:
    """Compact JSON with sorted keys (CPython encodes it in C), with artifact ``name``'s header."""
    if name:
        payload = {**payload, "format": f"ethcluster-{name}", "version": VERSION}
    write_text(json.dumps(payload, sort_keys=True), path)


def read_json(path: str | Path, decode, name: str | None = None):
    """``decode`` of the file's UTF-8 JSON; a missing file is an ``OSError``.

    Artifact ``name``'s header comes first: none or another version is a
    ``VersionError``, another name a ``FormatError``. Then the lookups ``decode``
    makes validate the payload: any error, typed or not, comes out naming the file.
    """
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        if name and (type(payload) is not dict or payload.get("version") != VERSION):
            raise VersionError(f"no version-{VERSION} header; rerun `ethcluster run` to rebuild it")
        if name and payload["format"] != f"ethcluster-{name}":
            raise FormatError(f"holds {payload['format']!r}, not ethcluster-{name}")
        return decode(payload)
    except (FormatError, VersionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (AttributeError, IndexError, InvalidInput, KeyError, OverflowError, RecursionError,
            TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def pack(arr) -> dict:
    """The payload ``floats`` decodes: ``arr``'s shape and its float64 bytes. An
    array ``floats`` would refuse (empty, ragged, non-finite) is an ``InvalidInput``."""
    try:
        arr = np.asarray(arr, dtype="<f8")
    except ValueError as exc:
        raise InvalidInput(f"not a rectangular float array: {exc}") from exc
    if not arr.size or not np.isfinite(arr).all():
        raise InvalidInput(f"expected a non-empty finite float array, got shape {arr.shape}")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def floats(value, ndim: int) -> np.ndarray:
    """The finite, non-empty, read-only float64 array of rank ``ndim`` in a
    ``pack`` payload; a JSON list, other keys, a shape of another rank or with an
    item that is not a positive integer, non-base64 text or a wrong byte count
    is refused."""
    if not isinstance(value, dict) or value.keys() != {"shape", "f8"}:
        raise FormatError('expected a float payload {"shape": [...], "f8": "<base64>"}')
    shape = ints(value["shape"], 1, math.inf)
    try:
        raw = base64.b64decode(value["f8"], validate=True)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"f8 is not base64 text: {exc}") from exc
    if len(shape) != ndim or len(raw) != 8 * math.prod(shape):
        raise FormatError(f"expected a rank-{ndim} shape and 8 bytes per float, "
                          f"found shape {shape} and {len(raw)} bytes")
    arr = np.frombuffer(raw, "<f8").reshape(shape)
    if not np.isfinite(arr).all():
        raise FormatError("non-finite value")
    return arr


def nonempty(value) -> list:
    """``value`` when it is a non-empty JSON list: a document list is never empty."""
    if not isinstance(value, list) or not value:
        raise FormatError("expected a non-empty list")
    return value


def strings(value, n: int | None = None) -> list[str]:
    """``value`` when it is a JSON list of strings, of length ``n`` unless None."""
    if (not isinstance(value, list) or n not in (None, len(value))
            or not all(type(s) is str for s in value)):
        raise FormatError(f"expected a list of {'' if n is None else f'{n} '}strings")
    return value


def ints(value, lo: int, hi: float) -> list[int]:
    """``value`` when it is a JSON list of integers in ``[lo, hi)``, where ``hi``
    may be infinite; a boolean or a float is never an integer here."""
    if not isinstance(value, list) or not all(type(i) is int and lo <= i < hi for i in value):
        raise FormatError(f"expected a list of integers in [{lo}, {hi})")
    return value
