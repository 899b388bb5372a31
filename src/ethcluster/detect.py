"""Regex vulnerability signatures and the table of vulnerability kinds.

Four of the five vulnerability kinds carry a pattern; access control is
detected purely by clustering and has no detector. Detectors run on the
comment-stripped line view (never the normalized token stream: the patterns
need dots, parentheses and line starts).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InvalidKind
from .preprocess import TokenDoc

_CALL_TRIGGER = re.compile(r"\b(call)\b", re.IGNORECASE)
_BALANCE = re.compile(r"\b(balance|balances)\b", re.IGNORECASE)
_TIMESTAMP = re.compile(r"(\bnow\b)|(\bblock\.timestamp\b)")
# Canonicalized guard pattern: line-anchored require/if comparing tx.origin
# against a plain identifier with == or !=.
_TX_ORIGIN = re.compile(r"^\s*(require|if)\s*\(\s*tx\.origin\s*(==|!=)\s*\w+\s*\)")
_UNCHECKED_PREFIX = re.compile(r"\b(require|if|bool|success)\b")
_UNCHECKED_POSTFIX = re.compile(r"\.(call|value|callcode|delegatecall|staticcall|send)\(")


def detect_reentrancy(lines: Sequence[str]) -> int:
    """1 iff the first ``call`` line is not the last line and some line from
    it onward, itself included, holds a ``balance(s)`` word.

    The distance from the call to the balance has no bound. A call on the
    last line counts for nothing, and a balance on the call line itself
    counts when a line follows it. Later call lines change nothing.
    """
    for i, line in enumerate(lines[:-1]):
        if _CALL_TRIGGER.search(line):
            return int(any(_BALANCE.search(later) for later in lines[i:]))
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
        # the call-site pattern ends in "(", so a line without one cannot match
        if "(" in line and _UNCHECKED_POSTFIX.search(line) and not _UNCHECKED_PREFIX.search(line):
            return 1
    return 0


@dataclass(frozen=True)
class Kind:
    """One vulnerability kind: its regex detector (None when clustering
    alone detects it), the pattern words a flag forces into the keyword map,
    and its (vector size, TF-IDF threshold, k) clustering defaults."""

    detector: Callable[[Sequence[str]], int] | None
    keywords: tuple[str, ...]
    vector_size: int
    tfidf_threshold: float
    num_clusters: int


# Every kind, in canonical order. The keywords are the words of each pattern
# as they survive preprocessing (dotted names split at the dot).
KINDS: dict[str, Kind] = {
    "reentrancy": Kind(detect_reentrancy, ("call", "balance", "balances"), 10, 0.7, 5),
    "access_control": Kind(None, (), 50, 0.3, 3),
    "timestamp": Kind(detect_timestamp, ("now", "timestamp", "block"), 300, 0.7, 6),
    "tx_origin": Kind(detect_tx_origin, ("tx", "origin"), 300, 0.7, 6),
    "unchecked_call": Kind(detect_unchecked_call, (
        "call", "send", "delegatecall", "callcode", "staticcall", "value"), 100, 0.7, 8),
}

#: Kinds with a regex signature, in canonical order.
REGEX_KINDS = tuple(name for name, kind in KINDS.items() if kind.detector is not None)


def detector_for(kind: str):
    detector = KINDS[kind].detector if kind in KINDS else None
    if detector is None:
        raise InvalidKind(
            f"no regex pattern for kind {kind!r}; known kinds: {', '.join(REGEX_KINDS)}"
        )
    return detector


def scan_corpus(docs: Iterable[TokenDoc], kind: str) -> list[int]:
    """Apply one kind's detector to every document, in corpus order."""
    detector = detector_for(kind)
    return [detector(doc.lines) for doc in docs]
