"""Harvesting and storage of verified contract source.

Fetches verified Solidity source from block-explorer HTTP APIs, deduplicates
by a source-only hash, persists records append-only, and mixes vulnerable and
clean records into ordered training datasets.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import requests

from ._artifact import nonempty, read_json, strings, write_json
from .errors import (
    FormatError,
    InsufficientData,
    InvalidInput,
    NotVerified,
    RateLimited,
    StoreError,
    TransportError,
)

logger = logging.getLogger(__name__)

VULNERABLE = "vulnerable"
CLEAN = "clean"

# The seven explorer families with working getsourcecode endpoints.
# Endpoints are overridable per chain via ExplorerClient(endpoints=...).
DEFAULT_ENDPOINTS = {
    "etherscan": "https://api.etherscan.io/api",
    "bscscan": "https://api.bscscan.com/api",
    "polygonscan": "https://api.polygonscan.com/api",
    "celoscan": "https://api.celoscan.io/api",
    "ftmscan": "https://api.ftmscan.com/api",
    "optimism": "https://api-optimistic.etherscan.io/api",
    "arbiscan": "https://api.arbiscan.io/api",
}

APIKEY_ENV_PREFIX = "ETHCLUSTER_APIKEY_"

#: Default request rate per chain, and the timeout of one request.
RATE_PER_SECOND = 4.0
TIMEOUT_S = 30.0

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")


def source_hash(source: str) -> str:
    """SHA-256 hex digest of the whitespace-trimmed source bytes.

    A pure function of the source text only: metadata such as compiler
    version, chain, or address never enters the digest, so the same code
    uploaded to different explorers hashes identically.
    """
    trimmed = source.strip()
    if not trimmed:
        raise InvalidInput("source is empty")
    return hashlib.sha256(trimmed.encode("utf-8")).hexdigest()


def _check_address(address: str) -> str:
    if not _ADDRESS_RE.match(address):
        raise InvalidInput(f"address {address!r} is not 0x + 40 hex chars")
    return address.lower()


@dataclass(frozen=True)
class ContractRecord:
    """One verified contract as stored on disk."""

    chain: str
    address: str
    source: str
    source_hash: str
    compiler_version: str = ""
    fetched_at: str = ""

    @classmethod
    def build(cls, chain: str, address: str, source: str,
              compiler_version: str = "", fetched_at: str | None = None) -> "ContractRecord":
        if fetched_at is None:
            fetched_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        # the store reads back only string fields (see decode)
        strings([chain, address, source, compiler_version, fetched_at])
        return cls(
            chain=chain,
            address=_check_address(address),
            source=source,
            source_hash=source_hash(source),
            compiler_version=compiler_version,
            fetched_at=fetched_at,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "ContractRecord":
        return cls.decode([json.loads(line)])[0]

    @classmethod
    def decode(cls, objs: list) -> list["ContractRecord"]:
        """The records of decoded JSON objects; every field a string, every hash its source's."""
        records = [cls(**obj) for obj in objs]
        strings([value for record in records for value in vars(record).values()])
        for i, rec in enumerate(records):
            if rec.source_hash != source_hash(rec.source):
                raise FormatError(f"entry {i}: source_hash is not the hash of its source")
        return records


class TokenBucket:
    """Token-bucket rate limiter holding one second's worth of requests."""

    def __init__(self, rate: float):
        self.rate = rate
        self._tokens = rate
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.rate, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class ExplorerClient:
    """HTTP client for the per-chain get-source-code endpoints.

    API keys are read from ``ETHCLUSTER_APIKEY_<CHAIN>`` (chain upper-cased).
    Fetches for distinct addresses may run concurrently; the per-chain token
    bucket bounds the request rate. ``close()``, or leaving a ``with`` block,
    closes the pooled connections.
    """

    def __init__(self, endpoints: dict[str, str] | None = None,
                 rate_per_second: float = RATE_PER_SECOND):
        self.endpoints = dict(DEFAULT_ENDPOINTS if endpoints is None else endpoints)
        self._session = requests.Session()
        self._buckets = {chain: TokenBucket(rate_per_second) for chain in self.endpoints}

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> "ExplorerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def api_key(self, chain: str) -> str:
        return os.environ.get(APIKEY_ENV_PREFIX + chain.upper(), "")

    def fetch_verified_source(self, chain: str, address: str) -> ContractRecord:
        """Fetch one verified contract's source and wrap it as a record."""
        if chain not in self.endpoints:
            raise InvalidInput(f"unknown chain {chain!r}; configured: {sorted(self.endpoints)}")
        address = _check_address(address)
        self._buckets[chain].acquire()
        params = {
            "module": "contract",
            "action": "getsourcecode",
            "address": address,
            "apikey": self.api_key(chain),
        }
        try:
            resp = self._session.get(self.endpoints[chain], params=params, timeout=TIMEOUT_S)
        except requests.RequestException as exc:
            raise TransportError(f"{chain} request failed: {exc}") from exc
        if resp.status_code == 429:
            raise RateLimited(f"{chain} returned HTTP 429 for {address}")
        if resp.status_code != 200:
            raise TransportError(f"{chain} returned HTTP {resp.status_code} for {address}")
        try:
            payload = resp.json()
        except ValueError as exc:
            raise TransportError(f"{chain} returned non-JSON payload for {address}") from exc
        if not isinstance(payload, dict):
            raise TransportError(f"{chain} returned a non-object payload for {address}")
        result = payload.get("result")
        if isinstance(result, str):
            # explorers report throttling as status "0" with a message string
            if "rate limit" in result.lower():
                raise RateLimited(f"{chain}: {result}")
            raise TransportError(f"{chain}: unexpected result {result!r}")
        if not result:
            raise NotVerified(f"{chain} has no source entry for {address}")
        entry = result[0] if isinstance(result, list) else None
        if not isinstance(entry, dict):
            raise TransportError(f"{chain}: result for {address} is not a list of source entries")
        source = entry.get("SourceCode", "")
        compiler_version = entry.get("CompilerVersion", "")
        if not isinstance(source, str) or not isinstance(compiler_version, str):
            raise TransportError(f"{chain}: SourceCode or CompilerVersion of {address} "
                                 "is not a string")
        if not source.strip():
            raise NotVerified(f"contract {address} on {chain} is not verified")
        return ContractRecord.build(
            chain=chain,
            address=address,
            source=source,
            compiler_version=compiler_version,
        )


STORED = "stored"
DUPLICATE = "duplicate"


class ContractStore:
    """Append-only newline-delimited JSON store, one record per line.

    Opening it reads every record into the in-memory hash set. A last line
    without its newline, left by a crash mid-append, is skipped with a warning
    and cut off by the next append; any other malformed line is a
    ``StoreError``. Writes are serialized through one lock.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._hashes: set[str] = set()
        end = 0
        for record, end in self._scan():
            self._hashes.add(record.source_hash)
        self._torn_at = end if self.path.exists() and self.path.stat().st_size > end else None

    def put(self, record: ContractRecord) -> str:
        """Append ``record`` unless its source hash is already present."""
        with self._lock:
            if record.source_hash in self._hashes:
                return DUPLICATE
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("ab") as fh:
                    if self._torn_at is not None:
                        fh.truncate(self._torn_at)
                        self._torn_at = None
                    fh.write((record.to_json() + "\n").encode("utf-8"))
            except OSError as exc:
                raise StoreError(f"cannot append to store at {self.path}: {exc}") from exc
            self._hashes.add(record.source_hash)
            return STORED

    def _scan(self) -> Iterator[tuple[ContractRecord, int]]:
        """Each record with the byte offset just past its line."""
        end = 0
        try:
            with self.path.open("rb") as fh:
                for number, line in enumerate(fh, 1):
                    if not line.endswith(b"\n"):
                        logger.warning("%s: skipping unfinished last line %d", self.path, number)
                        return
                    end += len(line)
                    if line.strip():
                        yield ContractRecord.from_json(line), end
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StoreError(f"cannot read store at {self.path}: {exc}") from exc
        except (FormatError, InvalidInput, TypeError, ValueError) as exc:
            raise StoreError(f"{self.path}: line {number} is not a record: {exc}") from exc

    def records(self) -> list[ContractRecord]:
        return [record for record, _ in self._scan()]


@dataclass(frozen=True)
class Dataset:
    """Ordered training mix of labeled records.

    ``build_mixed_dataset`` puts every vulnerable entry first, but a dataset
    in any order loads. The order fixes the SGD order and the k-means seed
    rows, not the labels.
    """

    entries: tuple[tuple[ContractRecord, str], ...]

    @property
    def records(self) -> list[ContractRecord]:
        return [rec for rec, _ in self.entries]

    @property
    def truth_labels(self) -> list[str]:
        return [label for _, label in self.entries]

    def save(self, path: str | Path) -> None:
        write_json({"entries": [{"truth_label": label, "record": asdict(rec)}
                                for rec, label in self.entries]}, path)

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        return read_json(path, cls._decode)

    @classmethod
    def _decode(cls, obj: dict) -> "Dataset":
        records = ContractRecord.decode([e["record"] for e in nonempty(obj["entries"])])
        labels = [e["truth_label"] for e in obj["entries"]]
        if not all(label in (VULNERABLE, CLEAN) for label in labels):
            raise FormatError(f"truth labels must be {VULNERABLE!r} or {CLEAN!r}")
        return cls(tuple(zip(records, labels)))


def build_mixed_dataset(vulnerable: list[ContractRecord],
                        clean: list[ContractRecord],
                        fraction: float) -> Dataset:
    """Mix all vulnerable records with just enough clean ones.

    The total is sized so vulnerable/total lands on ``fraction`` (nearest
    integer, half up); clean records are taken in stored order. Vulnerable
    entries come first; the order sets the SGD order and the k-means seed rows.
    """
    if not vulnerable or not clean:
        raise InvalidInput("both record lists must be non-empty")
    if not 0.0 < fraction < 1.0:
        raise InvalidInput(f"fraction must be in (0,1), got {fraction}")
    total = int(len(vulnerable) / fraction + 0.5)
    clean_needed = total - len(vulnerable)
    if clean_needed > len(clean):
        raise InsufficientData(
            f"{len(vulnerable)} vulnerable at fraction {fraction} needs "
            f"{clean_needed} clean records, only {len(clean)} available"
        )
    entries = [(rec, VULNERABLE) for rec in vulnerable]
    entries += [(rec, CLEAN) for rec in clean[:clean_needed]]
    return Dataset(entries=tuple(entries))


def records_from_dir(directory: str | Path) -> list[ContractRecord]:
    """Wrap every ``*.sol`` file under ``directory`` as a record.

    Local corpora (chain ``"local"``) have no on-chain address; a pseudo-address
    is derived from the source hash so record invariants still hold. Files are
    taken in sorted-name order, which fixes the dataset truncation order.
    """
    directory = Path(directory)
    records = []
    for path in sorted(directory.rglob("*.sol")):
        source = path.read_text("utf-8", errors="replace")
        if not source.strip():
            continue
        digest = source_hash(source)
        records.append(ContractRecord.build(
            chain="local",
            address="0x" + digest[:40],
            source=source,
            fetched_at="",
        ))
    return records
