import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from ethcluster.errors import (
    FormatError,
    InsufficientData,
    InvalidInput,
    NotVerified,
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
        with ExplorerClient(endpoints={"etherscan": explorer_url(mock_explorer)},
                            rate_per_second=1000.0) as client:
            yield client

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
    ], ids=["list-payload", "dict-result", "string-entry", "null-source", "null-compiler"])
    def test_malformed_payload_is_a_transport_error(self, mock_explorer, client, body):
        mock_explorer.behaviors[ADDR_A] = ("raw", body)
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_http_failure(self, mock_explorer, client):
        mock_explorer.behaviors[ADDR_A] = ("http", 500)
        with pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_connection_refused(self):
        with ExplorerClient(endpoints={"etherscan": "http://127.0.0.1:1/api"},
                            rate_per_second=1000.0) as client, pytest.raises(TransportError):
            client.fetch_verified_source("etherscan", ADDR_A)

    def test_unknown_chain(self, client):
        with pytest.raises(InvalidInput):
            client.fetch_verified_source("nochain", ADDR_A)

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("ETHCLUSTER_APIKEY_ETHERSCAN", "sekrit")
        with ExplorerClient() as client:
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
        for i, bad in enumerate(['{"chain": "etherscan"', int_source, forged_hash, blank_source]):
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
