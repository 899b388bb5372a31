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

``write_json`` writes the bytes ``json.dumps(payload, sort_keys=True)`` would,
but copies each payload's base64 text as it is: the base64 alphabet (RFC 4648:
letters, digits, ``+``, ``/`` and ``=``) holds no quote, backslash or control
character, the only characters a JSON string must escape (RFC 8259 §7), and
that text is most of every learned artifact's bytes.

A write lands in a temporary file that ``os.replace`` swaps in: a failed
write leaves the previous artifact whole, and every write gets a new inode,
part of the key ``pipeline.scan_contract`` reuses parsed artifacts under.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidInput, VersionError

VERSION = 5  # of every artifact header; a change to any artifact's layout bumps it


def write_text(text: str, path: str | Path) -> None:
    """Write ``text`` as UTF-8 bytes, untranslated, through a temporary file beside
    ``path`` that ``os.replace`` swaps in; on any failure the temporary file goes."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(payload, path: str | Path, name: str | None = None) -> None:
    """Write exactly the text of ``json.dumps(payload, sort_keys=True)``, with
    artifact ``name``'s header, but copy each ``pack`` payload's base64 text.

    Only the dicts that hold a payload are walked here; every other value goes
    through ``json.dumps``, whose C encoder would check each character of the
    base64 text for escapes although none is needed. The parts are joined once.
    """
    if name:
        payload = {**payload, "format": f"ethcluster-{name}", "version": VERSION}
    parts: list[str] = []
    _json_parts(payload, parts)
    write_text("".join(parts), path)


def _json_parts(value, parts: list[str]) -> None:
    if type(value) is _Packed:
        parts += ('{"f8": "', value["f8"], '", "shape": ', json.dumps(value["shape"]), "}")
    elif _holds_packed(value):
        for i, key in enumerate(sorted(value)):
            parts += (", " if i else "{", json.dumps(key), ": ")
            _json_parts(value[key], parts)
        parts.append("}")
    else:
        parts.append(json.dumps(value, sort_keys=True))


def _holds_packed(value) -> bool:
    return isinstance(value, dict) and any(
        type(item) is _Packed or _holds_packed(item) for item in value.values())


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


class _Packed(dict):
    """A ``pack`` payload: a plain dict to every reader, which ``write_json`` writes
    without escaping its base64 text."""

    __slots__ = ()


def pack(arr) -> dict:
    """The payload ``floats`` decodes: ``arr``'s shape and its float64 bytes, as a
    dict whose type ``write_json`` knows. An array ``floats`` would refuse (empty,
    ragged, non-finite) is an ``InvalidInput``."""
    try:
        arr = np.asarray(arr, dtype="<f8")
    except ValueError as exc:
        raise InvalidInput(f"not a rectangular float array: {exc}") from exc
    if not arr.size or not np.isfinite(arr).all():
        raise InvalidInput(f"expected a non-empty finite float array, got shape {arr.shape}")
    return _Packed(shape=list(arr.shape), f8=base64.b64encode(arr.tobytes()).decode("ascii"))


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
