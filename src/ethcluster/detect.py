"""Regex vulnerability signatures.

Four of the five vulnerability classes carry a pattern; access control is
detected purely by clustering and has no entry here. Detectors run on the
comment-stripped line view (never the normalized token stream: the patterns
need dots, parentheses and line starts).
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import InvalidKind
from .preprocess import TokenDoc

REENTRANCY = "reentrancy"
TIMESTAMP = "timestamp"
TX_ORIGIN = "tx_origin"
UNCHECKED_CALL = "unchecked_call"

#: Kinds with a regex signature, in canonical order.
REGEX_KINDS = (REENTRANCY, TIMESTAMP, TX_ORIGIN, UNCHECKED_CALL)

_CALL_TRIGGER = re.compile(r"\b(call)\b", re.IGNORECASE)
_BALANCE = re.compile(r"\b(balance|balances)\b", re.IGNORECASE)
_TIMESTAMP = re.compile(r"(\bnow\b)|(\bblock\.timestamp\b)")
# Canonicalized guard pattern: line-anchored require/if comparing tx.origin
# against a plain identifier with == or !=.
_TX_ORIGIN = re.compile(r"^\s*(require|if)\s*\(\s*tx\.origin\s*(==|!=)\s*\w+\s*\)")
_UNCHECKED_PREFIX = re.compile(r"\b(require|if|bool|success)\b")
_UNCHECKED_POSTFIX = re.compile(r"\.(call|value|callcode|delegatecall|staticcall|send)\(")


def detect_reentrancy(lines: Sequence[str]) -> int:
    """Windowed scan: a ``call`` line opens a 5-line buffer; any buffered
    line matching ``balance(s)`` flags the contract.

    The buffer is appended to on each later line, checked, then trimmed to 5
    entries, and a fresh ``call`` line resets it; the scan order matches that
    discipline exactly.
    """
    buffer: list[str] = []
    for line in lines:
        if buffer:
            buffer.append(line)
            if any(_BALANCE.search(l) for l in buffer):
                return 1
            if len(buffer) > 5:
                buffer.pop(0)
        if _CALL_TRIGGER.search(line):
            buffer = [line]
    return 0


def detect_timestamp(lines: Sequence[str]) -> int:
    """1 iff any line uses ``now`` (word-bounded) or ``block.timestamp``."""
    return int(any(_TIMESTAMP.search(line) for line in lines))


def detect_tx_origin(lines: Sequence[str]) -> int:
    """1 iff any line is a require/if guard comparing tx.origin to an identifier."""
    return int(any(_TX_ORIGIN.search(line) for line in lines))


def detect_unchecked_call(lines: Sequence[str]) -> int:
    """1 iff some line has a low-level call site with no same-line result check."""
    for line in lines:
        if _UNCHECKED_POSTFIX.search(line) and not _UNCHECKED_PREFIX.search(line):
            return 1
    return 0


_DETECTORS = {
    REENTRANCY: detect_reentrancy,
    TIMESTAMP: detect_timestamp,
    TX_ORIGIN: detect_tx_origin,
    UNCHECKED_CALL: detect_unchecked_call,
}


def detector_for(kind: str):
    try:
        return _DETECTORS[kind]
    except KeyError:
        raise InvalidKind(
            f"no regex pattern for kind {kind!r}; known kinds: {', '.join(REGEX_KINDS)}"
        ) from None


def scan_corpus(docs: Iterable[TokenDoc], kind: str) -> list[int]:
    """Apply one kind's detector to every document, in corpus order."""
    detector = detector_for(kind)
    return [detector(doc.lines) for doc in docs]
