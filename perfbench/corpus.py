"""Seeded synthetic Solidity corpora for the benchmark.

Every generator takes a ``random.Random`` built from the benchmark seed, so
one seed always yields the same bytes. Contracts of one kind share their
working vocabulary (the way injected-bug corpora repeat the injected
pattern); the seed picks names, literals, comments, helper functions and
addresses. Counts, document lengths and which contracts carry string
literals with comment markers are fixed, so the work a workload does is the
same at every seed.

Three variants exist per kind: ``vuln`` carries the bug, ``near`` is a clean
near miss (a ``call`` guarded by ``require(success)``, or a balance update
before the call) and ``clean`` has none of the pattern's vocabulary.

Datasets are built through the public ingest API (``ContractRecord.build``,
``ContractStore.put`` with cross-chain duplicates that dedup must drop, and
``build_mixed_dataset``), so set-up time includes ingest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ethcluster import ingest, vectorize

VULN, NEAR, CLEAN = "vuln", "near", "clean"
# A vulnerable unchecked call in a style the training mix never shows.
VULN_SEND = "vuln_send"
FETCHED_AT = "2024-01-01T00:00:00+00:00"

_NAMES = {
    "reentrancy": ("Vault", "Bank", "Escrow", "Treasury", "Wallet", "Fund"),
    "timestamp": ("Lottery", "Raffle", "Auction", "Sale", "Lock", "Drop"),
    "unchecked_call": ("Payer", "Splitter", "Router", "Relay", "Faucet", "Payroll"),
}
_HELPER_WORDS = ("fee", "rate", "cap", "limit", "bonus", "share", "quota", "level",
                 "weight", "score", "price", "stake", "reward", "credit", "debt", "round")
_COMMENT_WORDS = ("note", "see", "audit", "todo", "owner", "only", "safe", "check",
                  "value", "user", "state", "update", "review", "legacy", "gas", "event")


def _core(kind: str, variant: str, r: random.Random) -> list[str]:
    """The function that carries (or nearly carries) the vulnerability."""
    n = r.randint(2, 9)
    if kind == "reentrancy":
        if variant == VULN:
            return ["    function withdraw() public {",
                    "        uint amount = balances[msg.sender];",
                    '        (bool ok, ) = msg.sender.call{value: amount}("");',
                    "        balances[msg.sender] = 0;",
                    "    }"]
        if variant == NEAR:
            return ["    function withdraw() public {",
                    "        uint amount = balances[msg.sender];",
                    "        balances[msg.sender] = 0;",
                    '        (bool ok, ) = msg.sender.call{value: amount}("");',
                    "        require(ok);",
                    "    }"]
        return ["    function deposit(uint amount) public {",
                f"        total = total + amount * {n};",
                "    }"]
    if kind == "timestamp":
        if variant == VULN:
            return ["    function spin() public {",
                    f"        require(now > {r.randint(1600000000, 1800000000)});",
                    "    }"]
        if variant == NEAR:
            return ["    function spin() public {",
                    f"        require(block.number > {r.randint(15000000, 20000000)});",
                    "    }"]
        return ["    function bump() public {",
                f"        total = total + {n};",
                "    }"]
    if kind == "unchecked_call":
        if variant == VULN:
            return ["    function pay(address to) public {",
                    '        to.call("");',
                    "    }"]
        if variant == VULN_SEND:
            return ["    function pay(address payable to, uint amount) public {",
                    "        to.send(amount);",
                    "    }"]
        if variant == NEAR:
            return ["    function pay(address to) public {",
                    '        (bool success, ) = to.call("");',
                    "        require(success);",
                    "    }"]
        return ["    function pay(uint amount) public {",
                f"        total = total + amount * {n};",
                "    }"]
    raise ValueError(f"no template for kind {kind!r}")


def _comment(r: random.Random, words: int) -> str:
    return " ".join(r.choice(_COMMENT_WORDS) for _ in range(words))


def _helper(r: random.Random, idx: int) -> list[str]:
    """A clean helper function with a line comment or a NatSpec block."""
    a, b = r.sample(_HELPER_WORDS, 2)
    name = f"{a}{b.capitalize()}{idx}"
    body_lines = r.randint(3, 9)
    lines = []
    if r.random() < 0.5:
        lines.append(f"    // {_comment(r, r.randint(3, 8))}")
    else:
        lines += ["    /**", f"     * @notice {_comment(r, r.randint(3, 8))}",
                  f"     * @param {a} {_comment(r, 3)}", "     */"]
    lines.append(f"    function {name}(uint {a}) public pure returns (uint) {{")
    lines.append(f"        uint {b} = {a} * {r.randint(2, 99)};")
    for _ in range(body_lines):
        op = r.choice(("+", "-", "*"))
        lines.append(f"        {b} = {b} {op} {r.randint(1, 999)}; // {_comment(r, 2)}")
    lines += [f"        return {b};", "    }"]
    return lines


def contract(kind: str, variant: str, r: random.Random, lines_at_least: int = 0,
             url: bool = False, block_marker: bool = False) -> str:
    """One contract: header comments, state, the core function, helpers.

    Clean helper functions are added until the source has at least
    ``lines_at_least`` lines.

    ``url`` adds a string literal holding ``//``; ``block_marker`` adds one
    holding ``/*`` ahead of the functions and a real block comment after
    the contract. Both put comment markers inside literals: a literal-blind
    comment stripper drops the rest of the URL line, and everything from
    the ``/*`` literal to the closing comment, functions included.
    """
    name = f"{r.choice(_NAMES[kind])}{r.randint(10, 9999)}"
    lines = [f"// {_comment(r, r.randint(2, 6))}",
             "/* " + _comment(r, r.randint(3, 10)) + " */",
             f"contract {name} {{"]
    if kind == "reentrancy" and variant != CLEAN:
        lines.append("    mapping(address => uint) balances;")
    elif kind != "timestamp" or variant == CLEAN:
        lines.append("    uint total;")
    if url:
        lines.append(f'    string site = "https://{name.lower()}.example/terms";')
    if block_marker:
        cid = "Qm" + "".join(r.choice("abcdefghijkmnopqrstuvwxyz123456789") for _ in range(10))
        lines.append(f'    string files = "ipfs/{cid}/*.json";')
    blocks = [_core(kind, variant, r)]
    size = len(lines) + len(blocks[0]) + 2
    while size < lines_at_least:
        helper = _helper(r, len(blocks))
        blocks.insert(r.randint(0, len(blocks)), helper)
        size += len(helper)
    for block in blocks:
        lines += block
    lines.append("}")
    if block_marker:
        lines.append(f"/* {_comment(r, 3)} */")
    return "\n".join(lines) + "\n"


def _address(r: random.Random) -> str:
    return "0x" + "".join(r.choice("0123456789abcdef") for _ in range(40))


@dataclass(frozen=True)
class Mix:
    """A generated dataset on disk plus what the checks need."""

    dataset_path: Path
    digest: str
    size: int
    duplicates: int


def build_mix(kind: str, r: random.Random, n_vuln: int, n_near: int, n_clean: int,
              workdir: Path) -> Mix:
    """Generate, store (with cross-chain duplicates) and mix one dataset.

    Every third contract of each variant, from the second on, carries a URL
    literal, and every sixth, from the first on, a ``/*`` literal. Near
    misses are spread evenly through the clean part. Each variant has a fixed
    token count, so the documents' lengths, and with them the embedding's
    work, are the same at every seed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    store = ingest.ContractStore(workdir / "contracts.ndjson")
    labelled = {ingest.VULNERABLE: [], ingest.CLEAN: []}
    n_other = n_near + n_clean
    near_at = {round(k * n_other / n_near) for k in range(n_near)} if n_near else set()
    variants = [VULN] * n_vuln + [NEAR if i in near_at else CLEAN for i in range(n_other)]
    per_variant: dict[str, int] = {}
    duplicates = 0
    for variant in variants:
        j = per_variant[variant] = per_variant.get(variant, -1) + 1
        source = contract(kind, variant, r, url=j % 3 == 1, block_marker=j % 6 == 0)
        record = ingest.ContractRecord.build("etherscan", _address(r), source,
                                             fetched_at=FETCHED_AT)
        if store.put(record) != ingest.STORED:
            raise RuntimeError("generated contracts must be distinct")
        if j % 4 == 0:
            # the same source verified on a second chain must dedup
            mirror = ingest.ContractRecord.build("bscscan", _address(r), source,
                                                 fetched_at=FETCHED_AT)
            if store.put(mirror) != ingest.DUPLICATE:
                raise RuntimeError("cross-chain duplicate was stored twice")
            duplicates += 1
        labelled[ingest.VULNERABLE if variant == VULN else ingest.CLEAN].append(record)
    stored = ingest.ContractStore(store.path)
    by_hash = {rec.source_hash: rec for rec in stored.records()}
    vuln = [by_hash[rec.source_hash] for rec in labelled[ingest.VULNERABLE]]
    clean = [by_hash[rec.source_hash] for rec in labelled[ingest.CLEAN]]
    fraction = len(vuln) / (len(vuln) + len(clean))
    dataset = ingest.build_mixed_dataset(vuln, clean, fraction)
    path = workdir / "dataset.json"
    dataset.save(path)
    return Mix(path, _digest(path), len(dataset.entries), duplicates)


def heldout(kind: str, r: random.Random, count: int) -> list[tuple[str, str]]:
    """(source, truth label) pairs of contract-sized sources, 200-800 lines.

    Out of every ten: two vulnerable in the training style, one vulnerable
    in a style training never saw, two near misses and five clean.
    """
    variants = (VULN, VULN, VULN_SEND, NEAR, NEAR) + (CLEAN,) * 5
    # evenly spread sizes, so the size distribution is the same at every seed
    sizes = [200 + 580 * i // max(1, count - 1) for i in range(count)]
    r.shuffle(sizes)
    out = []
    for i in range(count):
        variant = variants[i % len(variants)]
        source = contract(kind, variant, r, lines_at_least=sizes[i],
                          url=i % 3 == 1, block_marker=i % 6 == 2)
        label = ingest.VULNERABLE if variant in (VULN, VULN_SEND) else ingest.CLEAN
        out.append((source, label))
    return out


def gaussian_mix(r: random.Random, n: int, dim: int, vuln_share: float, workdir: Path) -> Mix:
    """A labelled Gaussian mixture written as ``vectors.json`` + ``dataset.json``.

    Vulnerable rows come from one component and clean rows from two more.
    Every tenth clean row is a near miss drawn from the vulnerable component,
    so no clustering can score a perfect F-measure. The components sit far
    enough apart that k-means never merges two of them at k >= 4, but each
    holds enough rows that splitting it takes more than a few iterations.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(r.getrandbits(63))
    n_vuln = int(round(n * vuln_share))
    means = rng.normal(0.0, 0.7, size=(3, dim))
    rows, records = [], []
    for i in range(n):
        near = i >= n_vuln and (i - n_vuln) % 10 == 0
        component = 0 if i < n_vuln or near else int(rng.integers(1, 3))
        rows.append(means[component] + rng.normal(0.0, 0.9, size=dim))
        source = f"contract Row{i} {{ uint c = {component}; uint s = {r.getrandbits(32)}; }}\n"
        records.append(ingest.ContractRecord.build("etherscan", _address(r), source,
                                                   fetched_at=FETCHED_AT))
    dataset = ingest.build_mixed_dataset(records[:n_vuln], records[n_vuln:], vuln_share)
    if len(dataset.entries) != n:
        raise RuntimeError(f"mixture has {len(dataset.entries)} entries, expected {n}")
    vectors = [vectorize.DocumentVector(rec.source_hash, row)
               for rec, row in zip(records, rows)]
    vectorize.save_vectors(vectors, workdir / "vectors.json")
    path = workdir / "dataset.json"
    dataset.save(path)
    return Mix(path, _digest(path, workdir / "vectors.json"), n, 0)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
