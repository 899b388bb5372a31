import hashlib
import json
import math
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from ethcluster.errors import (
    FormatError,
    InsufficientData,
    InvalidInput,
    NotVerified,
    PathError,
    RateLimited,
    StoreError,
    TransportError,
)
from ethcluster.ingest import (
    CLEAN,
    DUPLICATE,
    STORED,
    VULNERABLE,
    ContractRecord,
    ContractStore,
    Dataset,
    ExplorerClient,
    TokenBucket,
    build_mixed_dataset,
    records_from_dir,
    source_hash,
)

from conftest import explorer_url

ADDR_A = "0x" + "a" * 40
ADDR_B = "0x" + "b" * 40
ADDR_C = "0x" + "c" * 40


def _record(source: str, chain: str = "etherscan", address: str = ADDR_A,
            compiler: str = "v0.8.0") -> ContractRecord:
    return ContractRecord.build(chain=chain, address=address, source=source,
                                compiler_version=compiler, fetched_at="2024-01-01T00:00:00+00:00")


class TestSourceHash:
    def test_pure_function(self):
        assert source_hash("contract A{}") == source_hash("contract A{}")

    def test_metadata_blind(self):
        r1 = _record("contract A{}", compiler="0.8.0")
        r2 = _record("contract A{}", chain="bscscan", address=ADDR_B, compiler="0.8.19")
        assert r1.source_hash == r2.source_hash

    def test_distinct_sources_differ(self):
        # reference digest computed directly with hashlib
        ref_a = hashlib.sha256(b"contract A{}").hexdigest()
        ref_b = hashlib.sha256(b"contract B{}").hexdigest()
        assert ref_a != ref_b
        assert source_hash("contract A{}") == ref_a
        assert source_hash("contract B{}") == ref_b

    def test_surrounding_whitespace_trimmed(self):
        assert source_hash("  contract A{}\n\n") == source_hash("contract A{}")

    def test_empty_source_rejected(self):
        with pytest.raises(InvalidInput):
            source_hash("")
        with pytest.raises(InvalidInput):
            source_hash("   \n ")

    def test_digest_shape(self):
        digest = source_hash("contract A{}")
        assert len(digest) == 64
        assert int(digest, 16) >= 0

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_hash_never_sees_metadata(self, source):
        base = source_hash(source)
        variant = ContractRecord.build(chain="arbiscan", address=ADDR_C, source=source,
                                       compiler_version="vX", fetched_at="whenever")
        assert variant.source_hash == base


class TestAddressValidation:
    def test_well_formed(self):
        assert _record("contract A{}").address == ADDR_A

    @pytest.mark.parametrize("bad", ["", "0x123", "a" * 42, "0x" + "g" * 40, "0x" + "a" * 39])
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidInput):
            ContractRecord.build(chain="etherscan", address=bad, source="contract A{}")


class TestFetch:
    @pytest.fixture()
    def client(self, mock_explorer):
        return ExplorerClient(endpoints={"etherscan": explorer_url(mock_explorer)},
                              rate_per_second=1000.0)

    def test_fixed_payload(self, mock_explorer, client):
        mock_explorer.behaviors[ADDR_A] = ("ok", "contract Fixed { uint x; }")
        record = client.fetch_verified_source("etherscan", ADDR_A)
        assert record.source == "contract Fixed { uint x; }"
        assert record.source_hash == source_hash("contract Fixed { uint x; }")
        assert record.compiler_version == "v0.8.19"
        assert record.chain == "etherscan"

    def test_unverified_contract(self, mock_explorer, client):
        mock_explorer.behaviors[ADDR_A] = ("empty",)
        with pytest.raises(NotVerified):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_rate_limited(self, mock_explorer, client):
        mock_explorer.behaviors[ADDR_A] = ("http", 429)
        with pytest.raises(RateLimited):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_rate_limit_message_payload(self, mock_explorer, client):
        # some explorers throttle with HTTP 200 and a result message string
        mock_explorer.behaviors[ADDR_A] = ("ratemsg",)
        with pytest.raises(RateLimited):
            client.fetch_verified_source("etherscan", ADDR_A)

    @pytest.mark.parametrize("body", [
        [],
        {"result": {"SourceCode": "contract A {}"}},
        {"result": ["contract A {}"]},
        {"result": [{"SourceCode": None, "CompilerVersion": "v0.8.19"}]},
        {"result": [{"SourceCode": "contract A {}", "CompilerVersion": None}]},
        *({"result": [{"SourceCode": source, "CompilerVersion": "v0.8.19"}]} for source in (
            "{ contract A {} }", '{"a.sol": "contract A {}"}',
            '{"sources": [{"content": "contract A {}"}]}', '{"a.sol": {"content": 7}}')),
    ], ids=["list-payload", "dict-result", "string-entry", "null-source", "null-compiler",
            "files-not-json", "file-not-an-object", "sources-list", "number-content"])
    def test_malformed_payload_is_a_transport_error(self, mock_explorer, client, body):
        mock_explorer.behaviors[ADDR_A] = ("raw", body)
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    @pytest.mark.parametrize("source", ["{{}}", "{}", '{"sources": {"a.sol": {"content": " "}}}'],
                             ids=["standard-json", "multi-part", "blank-file"])
    def test_multi_file_source_without_text_is_not_verified(self, mock_explorer, client,
                                                            source):
        mock_explorer.behaviors[ADDR_A] = ("ok", source)
        with pytest.raises(NotVerified):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_http_failure(self, mock_explorer, client):
        mock_explorer.behaviors[ADDR_A] = ("http", 500)
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_connection_refused(self):
        client = ExplorerClient(endpoints={"etherscan": "http://127.0.0.1:1/api"},
                                rate_per_second=1000.0)
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    @pytest.mark.parametrize("behavior", [("short",), ("garbage",), ("bytes", b"[" * 100_000)],
                             ids=["truncated-body", "non-http-status-line", "deeply-nested"])
    def test_broken_reply_is_a_transport_error(self, mock_explorer, client, behavior):
        mock_explorer.behaviors[ADDR_A] = behavior
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_file_endpoint_is_refused(self, tmp_path):
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"result": [{"SourceCode": "contract Local {}",
                                                   "CompilerVersion": "v0.8.19"}]}), "utf-8")
        # the fragment swallows the query, so a client that opened file URLs
        # would read the payload and return a record
        endpoint = payload.resolve().as_uri() + "#"
        client = ExplorerClient(endpoints={"etherscan": endpoint}, rate_per_second=1000.0)
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_endpoint_query_is_kept(self, mock_explorer):
        endpoint = explorer_url(mock_explorer) + "?chainid=1"
        client = ExplorerClient(endpoints={"etherscan": endpoint}, rate_per_second=1000.0)
        client.fetch_verified_source("etherscan", ADDR_A)
        [query] = mock_explorer.queries
        assert query["chainid"] == ["1"]
        assert query["module"] == ["contract"]
        assert query["action"] == ["getsourcecode"]
        assert query["address"] == [ADDR_A]

    def test_unknown_chain(self, client):
        with pytest.raises(InvalidInput):
            client.fetch_verified_source("nochain", ADDR_A)

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("ETHCLUSTER_APIKEY_ETHERSCAN", "sekrit")
        client = ExplorerClient()
        assert client.api_key("etherscan") == "sekrit"
        assert client.api_key("bscscan") == ""

    def test_concurrent_fetches_into_one_store(self, mock_explorer, client, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        store = ContractStore(tmp_path / "store.ndjson")
        addresses = [f"0x{i:040x}" for i in range(1, 9)]

        def fetch_and_put(address):
            return store.put(client.fetch_verified_source("etherscan", address))

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(fetch_and_put, addresses))
        assert results == [STORED] * 8  # mock gives each address distinct source
        assert len(store.records()) == 8


class TestTokenBucket:
    @pytest.fixture()
    def clock(self, monkeypatch):
        """A fake clock at ``now`` seconds; each sleep is recorded in ``slept`` and moves it on."""
        clock = SimpleNamespace(now=0.0, slept=[])

        def sleep(seconds):
            clock.slept.append(seconds)
            clock.now += seconds

        monkeypatch.setattr(time, "monotonic", lambda: clock.now)
        monkeypatch.setattr(time, "sleep", sleep)
        return clock

    @pytest.fixture()
    def sleeps(self, clock):
        """The seconds slept on the fake clock."""
        return clock.slept

    @pytest.mark.parametrize("rate, acquires, waited", [
        (0.5, 3, 4.0),   # one at once, then one every 2 s
        (1.0, 3, 2.0),
        (4.0, 6, 0.5),   # a second's worth at once, then one every 0.25 s
    ])
    def test_bucket_waits_for_each_token(self, sleeps, rate, acquires, waited):
        bucket = TokenBucket(rate)
        for _ in range(acquires):
            bucket.acquire()
        assert sum(sleeps) == pytest.approx(waited)
        assert all(seconds > 0 for seconds in sleeps)

    @pytest.mark.parametrize("rate, bursts, waited", [
        (2.5, [(0.0, 3)], 0.2),              # a capacity of 2.5 lends half a token
        (4.0, [(0.0, 4), (0.5, 3)], 0.25),   # half a second idle refills two tokens
        (0.5, [(0.0, 1), (10.0, 2)], 2.0),   # idling never fills past the capacity of 1
    ])
    def test_bucket_refills_while_idle(self, clock, rate, bursts, waited):
        """``bursts`` holds (seconds idle, then acquires) pairs."""
        bucket = TokenBucket(rate)
        for idle, acquires in bursts:
            clock.now += idle
            for _ in range(acquires):
                bucket.acquire()
        assert sum(clock.slept) == pytest.approx(waited)
        assert all(seconds > 0 for seconds in clock.slept)

    def test_client_refuses_a_wait_past_half_the_longest_sleep(self, sleeps):
        """``time.sleep`` refuses a deadline past ``TIMEOUT_MAX`` on the monotonic
        clock, so the client refuses each rate whose one wait is longer than half
        of it, and the slowest rate it takes waits exactly that half."""
        bound = 2 / threading.TIMEOUT_MAX
        for rate in (1 / threading.TIMEOUT_MAX, math.nextafter(bound, 0.0)):
            with pytest.raises(InvalidInput):
                ExplorerClient(rate_per_second=rate)
        ExplorerClient(rate_per_second=bound)
        bucket = TokenBucket(bound)
        for _ in range(2):
            bucket.acquire()
        assert sleeps == [pytest.approx(threading.TIMEOUT_MAX / 2)]

    def test_concurrent_waits_are_slept_in_steps_time_sleep_takes(self, monkeypatch):
        """On a stopped clock, three acquires at the slowest rate the client takes
        book what three concurrent callers book: the third waits two intervals, a
        whole ``TIMEOUT_MAX``, which ``time.sleep`` refuses in one call."""
        slept = []
        monkeypatch.setattr(time, "monotonic", lambda: 0.0)
        monkeypatch.setattr(time, "sleep", slept.append)
        bucket = TokenBucket(2 / threading.TIMEOUT_MAX)
        for _ in range(3):
            bucket.acquire()
        assert sum(slept) == pytest.approx(1.5 * threading.TIMEOUT_MAX)
        assert max(slept) <= threading.TIMEOUT_MAX / 2

    def test_concurrent_acquires_book_distinct_starts(self, monkeypatch):
        """On a stopped clock, 400 acquires from 8 threads at rate 100 take the
        100 tokens at once and book one start every 0.01 s after them; a lost
        update of the booking would repeat a start."""
        slept = []
        monkeypatch.setattr(time, "monotonic", lambda: 0.0)
        monkeypatch.setattr(time, "sleep", slept.append)
        bucket = TokenBucket(100.0)

        def acquire_50():
            for _ in range(50):
                bucket.acquire()

        threads = [threading.Thread(target=acquire_50) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(slept) == pytest.approx([(i + 1) / 100 for i in range(300)])


class TestStore:
    def test_put_then_duplicate(self, tmp_path):
        store = ContractStore(tmp_path / "store.ndjson")
        record = _record("contract A{}")
        assert store.put(record) == STORED
        assert store.put(record) == DUPLICATE
        assert len(store.records()) == 1

    def test_distinct_sources_both_stored(self, tmp_path):
        store = ContractStore(tmp_path / "store.ndjson")
        assert store.put(_record("contract A{}")) == STORED
        assert store.put(_record("contract B{}", address=ADDR_B)) == STORED
        assert len(store.records()) == 2

    def test_same_source_two_chains_deduped(self, tmp_path):
        store = ContractStore(tmp_path / "store.ndjson")
        assert store.put(_record("contract A{}", chain="etherscan")) == STORED
        assert store.put(_record("contract A{}", chain="bscscan", address=ADDR_B)) == DUPLICATE
        assert len(store.records()) == 1

    def test_replay_is_idempotent(self, tmp_path):
        records = [_record(f"contract C{i} {{}}", address=f"0x{i:040x}") for i in range(7)]
        store = ContractStore(tmp_path / "store.ndjson")
        for r in records + records + list(reversed(records)):
            store.put(r)
        assert {r.source_hash for r in store.records()} == {r.source_hash for r in records}
        assert len(store.records()) == len(records)

    def test_index_survives_reopen(self, tmp_path):
        path = tmp_path / "store.ndjson"
        ContractStore(path).put(_record("contract A{}"))
        reopened = ContractStore(path)
        assert reopened.put(_record("contract A{}", chain="polygonscan", address=ADDR_B)) == DUPLICATE

    def test_store_file_is_ndjson_with_required_fields(self, tmp_path):
        path = tmp_path / "store.ndjson"
        ContractStore(path).put(_record("contract A{}"))
        lines = path.read_text("utf-8").strip().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert set(obj) == {"chain", "address", "source", "source_hash",
                            "compiler_version", "fetched_at"}

    def test_rebuild_index_from_records(self, tmp_path):
        path = tmp_path / "store.ndjson"
        ContractStore(path).put(_record("contract A{}"))
        reopened = ContractStore(path)
        assert reopened.put(_record("contract A{}", address=ADDR_B)) == DUPLICATE

    def test_leftover_idx_sidecar_is_ignored(self, tmp_path):
        # an index listing a hash with no record once made put skip the record
        path = tmp_path / "store.ndjson"
        record = _record("contract A{}")
        (tmp_path / "store.ndjson.idx").write_text(record.source_hash + "\n", "utf-8")
        store = ContractStore(path)
        assert store.put(record) == STORED
        assert ContractStore(path).records() == [record]

    def test_torn_last_line_is_dropped_and_overwritten(self, tmp_path, caplog):
        path = tmp_path / "store.ndjson"
        a, b = _record("contract A{}"), _record("contract B{}", address=ADDR_B)
        ContractStore(path).put(a)
        with path.open("ab") as fh:  # a crash mid-append leaves half a line
            fh.write(b.to_json().encode("utf-8")[:40])
        with caplog.at_level("WARNING", logger="ethcluster.ingest"):
            store = ContractStore(path)
        assert "unfinished last line 2" in caplog.text
        assert store.records() == [a]
        assert store.put(b) == STORED
        lines = path.read_text("utf-8").splitlines()
        assert [ContractRecord.from_json(line) for line in lines] == [a, b]
        assert ContractStore(path).records() == [a, b]

    def test_malformed_inner_line_is_a_store_error(self, tmp_path):
        fields = json.loads(_record("contract C{}").to_json())
        int_source = json.dumps({**fields, "source": 3})
        forged_hash = json.dumps({**fields, "source_hash": "f" * 64})
        blank_source = json.dumps({**fields, "source": " \n"})
        for i, bad in enumerate(['{"chain": "etherscan"', int_source, forged_hash, blank_source,
                                 "[" * 100_000]):
            path = tmp_path / f"store{i}.ndjson"
            ContractStore(path).put(_record("contract A{}"))
            with path.open("a", encoding="utf-8") as fh:
                fh.write(bad + "\n" + _record("contract B{}", address=ADDR_B).to_json() + "\n")
            with pytest.raises(StoreError, match="line 2"):
                ContractStore(path)

    @pytest.mark.parametrize("field", ["chain", "compiler_version", "fetched_at"])
    def test_build_refuses_what_the_store_cannot_read(self, field):
        # the same check as decode, so no record is stored that poisons later reopens
        fields = {"chain": "etherscan", "address": ADDR_A, "source": "contract A{}",
                  "compiler_version": "v0.8.0", "fetched_at": "2024-01-01T00:00:00+00:00"}
        with pytest.raises(FormatError):
            ContractRecord.build(**{**fields, field: 3})


class TestBuildMixedDataset:
    def _records(self, n, tag):
        return [_record(f"contract {tag}{i} {{ uint x{i}; }}", address=f"0x{i + (1000 if tag == 'V' else 2000):040x}")
                for i in range(n)]

    def test_30_70_split(self):
        dataset = build_mixed_dataset(self._records(30, "V"), self._records(100, "C"), 0.3)
        labels = dataset.truth_labels
        assert labels[:30] == [VULNERABLE] * 30
        assert labels[30:] == [CLEAN] * 70
        assert len(labels) == 100

    def test_forced_arithmetic(self):
        dataset = build_mixed_dataset(self._records(1, "V"), self._records(1000, "C"), 0.5)
        assert dataset.truth_labels == [VULNERABLE, CLEAN]

    def test_insufficient_clean(self):
        with pytest.raises(InsufficientData):
            build_mixed_dataset(self._records(10, "V"), self._records(5, "C"), 0.3)

    @pytest.mark.parametrize("fraction", [1e-320, 5e-324])
    def test_tiny_fraction_is_insufficient_data(self, fraction):
        # 1 / 1e-320 is inf, which int() cannot take
        with pytest.raises(InsufficientData):
            build_mixed_dataset(self._records(1, "V"), self._records(5, "C"), fraction)

    @pytest.mark.parametrize("n_vuln, fraction", [(3, 0.9), (1, 0.7), (1, 0.99)])
    def test_mix_without_a_clean_entry_is_insufficient_data(self, n_vuln, fraction):
        # 3 / 0.9 + 0.5 rounds down to 3 entries: every one of them vulnerable
        with pytest.raises(InsufficientData):
            build_mixed_dataset(self._records(n_vuln, "V"), self._records(3, "C"), fraction)

    def test_one_clean_entry_is_enough(self):
        # just below 3 / 3.5 and 1 / 1.5, the largest fractions that leave one clean entry
        labels = build_mixed_dataset(self._records(3, "V"), self._records(3, "C"), 0.85).truth_labels
        assert labels == [VULNERABLE] * 3 + [CLEAN]
        labels = build_mixed_dataset(self._records(1, "V"), self._records(3, "C"), 0.66).truth_labels
        assert labels == [VULNERABLE, CLEAN]

    def test_fraction_needing_every_clean_record(self):
        # 3 / 0.3 + 0.5 = 10.5: 7 clean are needed, so 7 suffice and 6 do not
        assert len(build_mixed_dataset(self._records(3, "V"), self._records(7, "C"),
                                       0.3).entries) == 10
        with pytest.raises(InsufficientData):
            build_mixed_dataset(self._records(3, "V"), self._records(6, "C"), 0.3)

    def test_clean_truncated_in_given_order(self):
        clean = self._records(10, "C")
        dataset = build_mixed_dataset(self._records(3, "V"), clean, 0.3)
        kept = [rec.source_hash for rec, label in dataset.entries if label == CLEAN]
        assert kept == [r.source_hash for r in clean[:7]]

    def test_bad_fraction(self):
        with pytest.raises(InvalidInput):
            build_mixed_dataset(self._records(1, "V"), self._records(1, "C"), 1.5)

    @given(st.integers(1, 40), st.floats(0.05, 0.95))
    def test_ratio_within_one_entry(self, n_vuln, fraction):
        vulnerable = [_record(f"contract V{i} {{}}", address=f"0x{i + 5000:040x}")
                      for i in range(n_vuln)]
        clean = [_record(f"contract C{i} {{}}", address=f"0x{i + 9000:040x}")
                 for i in range(800)]
        if int(n_vuln / fraction + 0.5) == n_vuln:
            # the nearest total leaves no room for a clean entry
            with pytest.raises(InsufficientData):
                build_mixed_dataset(vulnerable, clean, fraction)
            return
        dataset = build_mixed_dataset(vulnerable, clean, fraction)
        total = len(dataset.entries)
        got = sum(1 for label in dataset.truth_labels if label == VULNERABLE) / total
        assert abs(got - fraction) <= 1.0 / total + 1e-12

    @given(st.integers(2, 25))
    def test_vulnerable_always_first(self, n_vuln):
        vulnerable = [_record(f"contract V{i} {{}}", address=f"0x{i + 5000:040x}")
                      for i in range(n_vuln)]
        clean = [_record(f"contract C{i} {{}}", address=f"0x{i + 9000:040x}")
                 for i in range(200)]
        labels = build_mixed_dataset(vulnerable, clean, 0.3).truth_labels
        first_clean = labels.index(CLEAN)
        assert all(label == CLEAN for label in labels[first_clean:])

    def test_save_load_round_trip(self, tmp_path):
        dataset = build_mixed_dataset(self._records(3, "V"), self._records(10, "C"), 0.3)
        path = tmp_path / "dataset.json"
        dataset.save(path)
        loaded = Dataset.load(path)
        assert loaded == dataset

    @pytest.mark.parametrize("fraction", [None, 0.3], ids=["absent", "legacy"])
    def test_only_the_entries_are_read(self, tmp_path, fraction):
        """A dataset file without ``vulnerable_fraction`` loads, and so does an
        older file that still has it."""
        dataset = build_mixed_dataset(self._records(3, "V"), self._records(10, "C"), 0.3)
        path = tmp_path / "dataset.json"
        dataset.save(path)
        payload = json.loads(path.read_text("utf-8"))
        assert set(payload) == {"entries"}
        if fraction is not None:
            payload["vulnerable_fraction"] = fraction
        path.write_text(json.dumps(payload), "utf-8")
        assert Dataset.load(path) == dataset

    def test_load_entry_without_record_is_format_error(self, tmp_path):
        dataset = build_mixed_dataset(self._records(3, "V"), self._records(10, "C"), 0.3)
        path = tmp_path / "dataset.json"
        dataset.save(path)
        payload = json.loads(path.read_text("utf-8"))
        del payload["entries"][1]["record"]
        path.write_text(json.dumps(payload), "utf-8")
        with pytest.raises(FormatError):
            Dataset.load(path)

    def test_load_bad_json_is_format_error(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_text('{"entries": [', "utf-8")
        with pytest.raises(FormatError):
            Dataset.load(path)


class TestRecordsFromDir:
    def test_sorted_and_hashed(self, tmp_path):
        (tmp_path / "b.sol").write_text("contract B {}", "utf-8")
        (tmp_path / "a.sol").write_text("contract A {}", "utf-8")
        records = records_from_dir(tmp_path)
        assert [r.source for r in records] == ["contract A {}", "contract B {}"]
        for r in records:
            assert r.source_hash == source_hash(r.source)
            assert r.address == "0x" + r.source_hash[:40]

    @pytest.mark.parametrize("name", ["missing", "a.sol"])
    def test_not_a_directory_is_a_path_error(self, tmp_path, name):
        (tmp_path / "a.sol").write_text("contract A {}", "utf-8")
        with pytest.raises(PathError, match=name):
            records_from_dir(tmp_path / name)

    def test_directories_named_sol_are_skipped(self, tmp_path):
        # Hardhat's build layout: artifacts/contracts/B.sol/B.json
        (tmp_path / "a.sol").write_text("contract A {}", "utf-8")
        (tmp_path / "artifacts" / "contracts" / "B.sol").mkdir(parents=True)
        (tmp_path / "artifacts" / "contracts" / "B.sol" / "B.json").write_text("{}", "utf-8")
        assert [r.source for r in records_from_dir(tmp_path)] == ["contract A {}"]

    def test_empty_directory_has_no_records(self, tmp_path):
        assert records_from_dir(tmp_path) == []
