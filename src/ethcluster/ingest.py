"""Harvesting and storage of verified contract source.

Fetches verified Solidity source from block-explorer HTTP APIs, deduplicates
by a source-only hash, persists records append-only, and mixes vulnerable and
clean records into ordered training datasets.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import requests

from ._artifact import write_json
from .errors import (
    FormatError,
    InsufficientData,
    InvalidInput,
    NotVerified,
    RateLimited,
    StoreError,
    TransportError,
)

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
    def from_json(cls, line: str) -> "ContractRecord":
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, obj: dict) -> "ContractRecord":
        return cls(
            chain=obj["chain"],
            address=obj["address"],
            source=obj["source"],
            source_hash=obj["source_hash"],
            compiler_version=obj.get("compiler_version", ""),
            fetched_at=obj.get("fetched_at", ""),
        )


class TokenBucket:
    """Simple token-bucket rate limiter; default 4 requests/second."""

    def __init__(self, rate: float = 4.0, capacity: float | None = None):
        self.rate = rate
        self.capacity = capacity if capacity is not None else rate
        self._tokens = self.capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
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
    bucket bounds the request rate.
    """

    def __init__(self, endpoints: dict[str, str] | None = None,
                 rate_per_second: float = 4.0,
                 session: requests.Session | None = None,
                 timeout: float = 30.0):
        self.endpoints = dict(DEFAULT_ENDPOINTS if endpoints is None else endpoints)
        self.timeout = timeout
        self._session = session or requests.Session()
        self._buckets = {chain: TokenBucket(rate_per_second) for chain in self.endpoints}

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
            resp = self._session.get(self.endpoints[chain], params=params, timeout=self.timeout)
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
        result = payload.get("result")
        if isinstance(result, str):
            # explorers report throttling as status "0" with a message string
            if "rate limit" in result.lower():
                raise RateLimited(f"{chain}: {result}")
            raise TransportError(f"{chain}: unexpected result {result!r}")
        if not result:
            raise NotVerified(f"{chain} has no source entry for {address}")
        entry = result[0]
        source = entry.get("SourceCode", "")
        if not source.strip():
            raise NotVerified(f"contract {address} on {chain} is not verified")
        return ContractRecord.build(
            chain=chain,
            address=address,
            source=source,
            compiler_version=entry.get("CompilerVersion", ""),
        )


STORED = "stored"
DUPLICATE = "duplicate"


class ContractStore:
    """Append-only newline-delimited JSON store with a sidecar hash index.

    ``<path>`` holds one record per line; ``<path>.idx`` holds one source
    hash per line in insertion order. Writes are serialized through a single
    lock; the in-memory hash index supports concurrent reads.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.index_path = Path(str(path) + ".idx")
        self._lock = threading.Lock()
        self._hashes: set[str] = set()
        try:
            if self.index_path.exists():
                self._hashes = {
                    line.strip() for line in self.index_path.read_text("utf-8").splitlines()
                    if line.strip()
                }
            elif self.path.exists():
                self._hashes = {rec.source_hash for rec in self.iter_records()}
        except OSError as exc:
            raise StoreError(f"cannot read store at {self.path}: {exc}") from exc

    def __contains__(self, digest: str) -> bool:
        return digest in self._hashes

    def __len__(self) -> int:
        return len(self._hashes)

    def put(self, record: ContractRecord) -> str:
        """Append ``record`` unless its source hash is already present."""
        with self._lock:
            if record.source_hash in self._hashes:
                return DUPLICATE
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(record.to_json() + "\n")
                with self.index_path.open("a", encoding="utf-8") as fh:
                    fh.write(record.source_hash + "\n")
            except OSError as exc:
                raise StoreError(f"cannot append to store at {self.path}: {exc}") from exc
            self._hashes.add(record.source_hash)
            return STORED

    def iter_records(self) -> Iterator[ContractRecord]:
        if not self.path.exists():
            return
        try:
            with self.path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        yield ContractRecord.from_json(line)
        except OSError as exc:
            raise StoreError(f"cannot read store at {self.path}: {exc}") from exc

    def records(self) -> list[ContractRecord]:
        return list(self.iter_records())


@dataclass(frozen=True)
class Dataset:
    """Ordered training mix: every vulnerable entry precedes every clean one."""

    entries: tuple[tuple[ContractRecord, str], ...]
    vulnerable_fraction: float

    @property
    def records(self) -> list[ContractRecord]:
        return [rec for rec, _ in self.entries]

    @property
    def truth_labels(self) -> list[str]:
        return [label for _, label in self.entries]

    def save(self, path: str | Path) -> None:
        payload = {
            "vulnerable_fraction": self.vulnerable_fraction,
            "entries": [
                {"truth_label": label, "record": asdict(rec)}
                for rec, label in self.entries
            ],
        }
        write_json(payload, path)

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        try:
            obj = json.loads(Path(path).read_text("utf-8"))
            entries = tuple(
                (ContractRecord.from_dict(e["record"]), e["truth_label"])
                for e in obj["entries"]
            )
            return cls(entries=entries, vulnerable_fraction=obj["vulnerable_fraction"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad dataset file: {exc}") from exc


def build_mixed_dataset(vulnerable: list[ContractRecord],
                        clean: list[ContractRecord],
                        fraction: float) -> Dataset:
    """Mix all vulnerable records with just enough clean ones.

    The total is sized so vulnerable/total lands on ``fraction`` (nearest
    integer, half up); clean records are taken in stored order. Vulnerable
    entries come first, which downstream cluster labeling relies on.
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
    return Dataset(entries=tuple(entries), vulnerable_fraction=fraction)


def records_from_dir(directory: str | Path, chain: str = "local") -> list[ContractRecord]:
    """Wrap every ``*.sol`` file under ``directory`` as a record.

    Local corpora have no on-chain address; a deterministic pseudo-address is
    derived from the source hash so record invariants still hold. Files are
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
            chain=chain,
            address="0x" + digest[:40],
            source=source,
            fetched_at="",
        ))
    return records
