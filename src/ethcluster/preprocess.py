"""Solidity source normalization.

Turns raw contract source into two synchronized views:

* ``tokens`` -- punctuation-free, keyword-stripped word sequence feeding the
  embedding and TF-IDF stages;
* ``lines`` -- comment-stripped source lines with original line boundaries,
  feeding the regex detectors (their patterns need dots, parens and line
  starts that full normalization destroys).
"""

from __future__ import annotations

import logging
import re
import string
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path

from ._artifact import nonempty, read_json, strings, write_json

logger = logging.getLogger(__name__)

# Reserved Solidity words dropped from the token stream (52 entries,
# matched case-sensitively; Solidity keywords are lowercase).
SOLIDITY_KEYWORDS = frozenset([
    "pragma", "import", "contract", "interface", "library", "struct",
    "enum", "function", "event", "error", "using", "for", "constructor",
    "mapping", "address", "bool", "string", "var", "bytes", "uint", "int",
    "if", "else", "while", "do", "break", "continue", "return", "throw",
    "emit", "public", "private", "internal", "external", "constant",
    "immutable", "view", "pure", "virtual", "override", "storage",
    "memory", "calldata", "try", "catch", "revert", "assert", "require",
    "new", "delete", "this", "solidity",
])

# The 32 ASCII punctuation characters, each replaced by a space.
_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


@dataclass(frozen=True)
class TokenDoc:
    """Preprocessed view of one contract."""

    contract_hash: str
    tokens: tuple[str, ...]
    lines: tuple[str, ...]


# Matches are found left to right and alternatives tried in order, so an
# opener inside an earlier comment starts nothing, ``/*/`` is unterminated
# and a trailing ``/`` is kept. Group 1 is an unterminated block comment.
# The shared leading ``/`` is factored out so the engine jumps from slash to
# slash instead of trying every alternative at every character. The block
# alternative is ``\*.*?\*/`` with the loop unrolled (non-stars, then stars not
# before ``/``): it ends at the same first ``*/``, without a step per character.
_COMMENT_RE = re.compile(r"/(?:/[^\n]*|\*[^*]*\*+(?:[^/*][^*]*\*+)*/|(\*.*))", re.DOTALL)


def strip_comments(source: str) -> str:
    """Remove ``//`` line comments and ``/* */`` block comments.

    Line boundaries outside comments are preserved: a line comment keeps its
    trailing newline, a block comment vanishes together with its interior
    newlines. An unterminated block comment is stripped to end of input and
    logged as a warning rather than rejected, so malformed real-world
    contracts still flow through.
    """
    # split() interleaves the kept text with group 1 of each match.
    parts = _COMMENT_RE.split(source)
    if len(parts) > 1 and parts[-2] is not None:
        logger.warning("unterminated block comment; stripping to end of input")
    return "".join(parts[::2])


def _words(stripped: str) -> list[str]:
    """Words of comment-stripped text: punctuation becomes whitespace, then split."""
    return stripped.translate(_PUNCT_TABLE).split()


def remove_keywords(words: list[str]) -> list[str]:
    """Drop reserved Solidity keywords, preserving the order of survivors."""
    return list(filterfalse(SOLIDITY_KEYWORDS.__contains__, words))


def preprocess_contract(source: str, contract_hash: str = "") -> TokenDoc:
    """The token sequence and comment-stripped line view of a contract named ``contract_hash``."""
    stripped = strip_comments(source)
    tokens = remove_keywords(_words(stripped))
    return TokenDoc(
        contract_hash=contract_hash,
        tokens=tuple(tokens),
        lines=tuple(stripped.split("\n")),
    )


# --- persistence -----------------------------------------------------------

def save_tokendocs(docs: list[TokenDoc], path: str | Path) -> None:
    """Write token documents as ``preprocess.json``, in corpus order."""
    rows = [{"contract_hash": d.contract_hash, "tokens": list(d.tokens), "lines": list(d.lines)}
            for d in docs]
    write_json({"docs": rows}, path, "preprocess")


def _tokendocs(payload: dict) -> list[TokenDoc]:
    payload = nonempty(payload["docs"])
    hashes = strings([d["contract_hash"] for d in payload])
    return [TokenDoc(h, tuple(strings(d["tokens"])), tuple(strings(d["lines"])))
            for h, d in zip(hashes, payload)]


def load_tokendocs(path: str | Path) -> list[TokenDoc]:
    """Read token documents written by :func:`save_tokendocs`."""
    return read_json(path, _tokendocs, "preprocess")
