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
from pathlib import Path

from ._artifact import read_json, write_json
from .errors import FormatError
from .ingest import source_hash

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
# slash instead of trying every alternative at every character.
_COMMENT_RE = re.compile(r"/(?:/[^\n]*|\*.*?\*/|(\*.*))", re.DOTALL)


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


def normalize(source: str) -> str:
    """Collapse source to a single line of space-separated words.

    Applies, in order: comment stripping, replacement of every ASCII
    punctuation character by a space, and whitespace (newlines included)
    collapsing with trimming.
    """
    return " ".join(_words(strip_comments(source)))


def remove_keywords(words: list[str]) -> list[str]:
    """Drop reserved Solidity keywords, preserving the order of survivors."""
    return [w for w in words if w not in SOLIDITY_KEYWORDS]


def preprocess_contract(source: str) -> TokenDoc:
    """Produce the token sequence and comment-stripped line view of a contract."""
    stripped = strip_comments(source)
    tokens = remove_keywords(_words(stripped))
    digest = source_hash(source) if source.strip() else _EMPTY_HASH
    return TokenDoc(
        contract_hash=digest,
        tokens=tuple(tokens),
        lines=tuple(stripped.split("\n")),
    )


# Hash slot used when the contract is empty/whitespace-only; source_hash
# rejects empty input but preprocessing stays total.
_EMPTY_HASH = "0" * 64


# --- persistence -----------------------------------------------------------

def save_tokendocs(docs: list[TokenDoc], path: str | Path) -> None:
    """Write token documents as ``preprocess.json``, in corpus order."""
    payload = [
        {"contract_hash": d.contract_hash, "tokens": list(d.tokens), "lines": list(d.lines)}
        for d in docs
    ]
    write_json(payload, path)


def _tokendoc(d: dict) -> TokenDoc:
    tokens, lines = d["tokens"], d["lines"]
    if not (isinstance(tokens, list) and isinstance(lines, list)
            and all(isinstance(s, str) for s in tokens + lines)):
        raise FormatError("tokens and lines must be lists of strings")
    return TokenDoc(d["contract_hash"], tuple(tokens), tuple(lines))


def load_tokendocs(path: str | Path) -> list[TokenDoc]:
    """Read token documents written by :func:`save_tokendocs`."""
    return read_json(path, lambda payload: [_tokendoc(d) for d in payload])
