"""Acceptance suite: one test per release criterion.

Each test prints one ``[acceptance] criterion N: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces the
stated tolerance and runtime budget. Criterion 8 needs the external labeled
corpora and is skipped unless ``ETHCLUSTER_BENCH_DIR`` points at a directory
laid out as ``<vulnerability>/vulnerable/*.sol`` + ``<vulnerability>/clean/*.sol``.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import clean_source, explorer_url, reentrant_source, write_corpus
from ethcluster.cluster import kmeans_fit, pca_fit, pca_transform
from ethcluster.detect import REGEX_KINDS, detector_for
from ethcluster.embed import (
    EmbeddingConfig,
    negative_sampling_gradients,
    negative_sampling_loss,
    train_embedding,
)
from ethcluster.evaluate import ConfusionMatrix, metrics
from ethcluster.ingest import (
    ContractRecord,
    ContractStore,
    ExplorerClient,
    build_mixed_dataset,
    records_from_dir,
)
from ethcluster.pipeline import PipelineConfig, run_pipeline
from ethcluster.vectorize import TfidfModel, build_dictionary, doc2bow, tfidf_scores
from test_cluster import brute_force_lloyd
from test_detect import REGEX_FIXTURES

TABLE_METRICS = {
    "reentrancy": ((81, 7, 0, 182), (97.41, 92.05, 100.0, 95.86)),
    "access_control": ((18, 0, 8, 34), (86.67, 100.0, 69.23, 81.82)),
    "timestamp": ((49, 2, 6, 127), (95.65, 96.08, 89.09, 92.45)),
    "tx_origin": ((50, 0, 0, 117), (100.0, 100.0, 100.0, 100.0)),
    "unchecked_call": ((52, 8, 0, 114), (95.4, 86.67, 100.0, 92.86)),
}


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )


def test_criterion_1_metric_reproduction():
    with criterion(1, "metric reproduction", budget_seconds=1.0):
        for kind, ((tp, fp, fn, tn), (acc, p, r, f)) in TABLE_METRICS.items():
            rounded = metrics(ConfusionMatrix(tp, fp, fn, tn)).rounded()
            assert rounded["accuracy"] == acc, kind
            assert rounded["precision"] == p, kind
            assert rounded["recall"] == r, kind
            assert rounded["f_measure"] == f, kind


def test_criterion_2_tfidf_oracle():
    with criterion(2, "tf-idf oracle", budget_seconds=1.0):
        docs = [["call", "send", "call"], ["send", "now"], ["call", "owner", "owner", "now"]]

        # independent oracle: raw per-word arithmetic over plain dicts
        doc_freq = {}
        for doc in docs:
            for word in set(doc):
                doc_freq[word] = doc_freq.get(word, 0) + 1
        expected = []
        for doc in docs:
            counts = {}
            for word in doc:
                counts[word] = counts.get(word, 0) + 1
            raw = {
                word: (count / len(doc)) * math.log(len(docs) / doc_freq[word])
                for word, count in counts.items()
            }
            norm = math.sqrt(sum(v * v for v in raw.values()))
            expected.append({w: (v / norm if norm else 0.0) for w, v in raw.items()})

        dictionary = build_dictionary(docs)
        model = TfidfModel(dictionary)
        for doc, want in zip(docs, expected):
            got = {
                dictionary.id_to_word[idx]: score
                for idx, score in tfidf_scores(model, doc2bow(dictionary, doc), len(doc))
            }
            assert set(got) == set(want)
            for word in want:
                assert abs(got[word] - want[word]) < 1e-9, (doc, word)


def test_criterion_3_kmeans_oracle():
    with criterion(3, "k-means oracle", budget_seconds=1.0):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 2))
        for k in (2, 3):
            model = kmeans_fit(X, k=k, max_iterations=100, seed=99)
            init_rng = np.random.default_rng(99)
            init = X[init_rng.choice(20, size=k, replace=False)]
            assert list(model.assignments) == brute_force_lloyd(X, init), f"k={k}"
            history = model.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:])), f"k={k}"


def test_criterion_4_pca_oracle():
    with criterion(4, "pca oracle", budget_seconds=1.0):
        for n, dim, seed in ((10, 4, 1), (50, 10, 2)):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, dim)) @ np.diag(rng.uniform(0.5, 3.0, dim))
            k = min(n, dim)
            basis = pca_fit(X, k)

            gram = basis.components.T @ basis.components
            assert np.max(np.abs(gram - np.eye(k))) < 1e-8

            Xc = X - X.mean(axis=0)
            cov = (Xc.T @ Xc) / (n - 1)
            eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]
            proj_var = pca_transform(basis, X).var(axis=0, ddof=1)
            for got, want in zip(proj_var, eigvals[:k]):
                assert abs(got - want) <= 1e-6 * abs(want), (n, dim)


def test_criterion_5_embedding_gradients_and_reproducibility():
    with criterion(5, "embedding gradient check", budget_seconds=10.0):
        rng = np.random.default_rng(42)
        w_in = rng.normal(0.0, 0.5, size=(5, 4))
        w_out = rng.normal(0.0, 0.5, size=(5, 4))
        pairs = [(0, 1, (2, 3)), (1, 4, (0, 2)), (3, 0, (4, 4)), (2, 3, (1, 0))]
        g_in, g_out = negative_sampling_gradients(w_in, w_out, pairs)

        h = 1e-6
        fd = []
        for matrix in (w_in, w_out):
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    orig = matrix[i, j]
                    matrix[i, j] = orig + h
                    up = negative_sampling_loss(w_in, w_out, pairs)
                    matrix[i, j] = orig - h
                    down = negative_sampling_loss(w_in, w_out, pairs)
                    matrix[i, j] = orig
                    fd.append((up - down) / (2 * h))
        analytic = np.concatenate([g_in.ravel(), g_out.ravel()])
        numeric = np.array(fd)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-4

        docs = [["a", "b", "c", "a"], ["b", "d", "a"]] * 10
        config = EmbeddingConfig(vector_size=4, seed=1194, epochs=3)
        m1 = train_embedding(docs, config)
        m2 = train_embedding(docs, config)
        assert m1.vocab == m2.vocab
        assert np.array_equal(m1.vectors, m2.vectors)


def test_criterion_6_regex_fixture_suite():
    with criterion(6, "regex fixture suite", budget_seconds=1.0):
        per_kind = {kind: 0 for kind in REGEX_KINDS}
        case_ids = set()
        for case_id, kind, lines, expected in REGEX_FIXTURES:
            assert detector_for(kind)(lines) == expected, case_id
            per_kind[kind] += 1
            case_ids.add(case_id)
        for kind, count in per_kind.items():
            assert count >= 20, f"{kind}: only {count} fixtures"
        # the window-boundary traces at exactly 5 and 6 lines after the call
        assert "re_gap5" in case_ids and "re_gap6" in case_ids


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, "end-to-end determinism"):
        write_corpus(tmp_path / "vuln", [reentrant_source(i) for i in range(15)])
        write_corpus(tmp_path / "clean", [clean_source(i) for i in range(40)])
        dataset = build_mixed_dataset(
            records_from_dir(tmp_path / "vuln"),
            records_from_dir(tmp_path / "clean"),
            0.3,
        )
        dataset.save(tmp_path / "dataset.json")
        config = PipelineConfig.resolve({
            "vulnerability": "reentrancy",
            "dataset": str(tmp_path / "dataset.json"),
            "workdir": str(tmp_path / "work"),
            "seed": 1194,
        })
        run_pipeline(config)
        stage_dir = config.stage_dir()
        artifacts = sorted(p.name for p in stage_dir.iterdir())
        first = {name: (stage_dir / name).read_bytes() for name in artifacts}
        run_pipeline(config)
        for name in artifacts:
            assert (stage_dir / name).read_bytes() == first[name], name


@pytest.mark.skipif(
    "ETHCLUSTER_BENCH_DIR" not in os.environ,
    reason="desk-scale replication needs ETHCLUSTER_BENCH_DIR pointing at the "
           "labeled corpora (<vulnerability>/vulnerable/*.sol, <vulnerability>/clean/*.sol)",
)
def test_criterion_8_desk_scale_replication(tmp_path):
    with criterion(8, "desk-scale replication"):
        bench = Path(os.environ["ETHCLUSTER_BENCH_DIR"])
        for vulnerability, (_, (_, _, _, expected_f)) in TABLE_METRICS.items():
            vuln_dir = bench / vulnerability
            if not vuln_dir.is_dir():
                pytest.fail(f"missing corpus directory {vuln_dir}")
            dataset = build_mixed_dataset(
                records_from_dir(vuln_dir / "vulnerable"),
                records_from_dir(vuln_dir / "clean"),
                0.3,
            )
            dataset_path = tmp_path / f"{vulnerability}.json"
            dataset.save(dataset_path)
            config = PipelineConfig.resolve({
                "vulnerability": vulnerability,
                "dataset": str(dataset_path),
                "workdir": str(tmp_path / "work"),
            })
            report = run_pipeline(config)
            f_measure = report.rounded()["f_measure"]
            assert f_measure is not None, vulnerability
            assert abs(f_measure - expected_f) <= 10.0, (
                f"{vulnerability}: F {f_measure} vs reference {expected_f}"
            )
            if vulnerability == "tx_origin":
                assert report.recall == 100.0, "tx.origin recall is regex-forced"


def test_criterion_9_cross_chain_dedup(mock_explorer, tmp_path):
    with criterion(9, "cross-chain dedup", budget_seconds=1.0):
        url = explorer_url(mock_explorer)
        source = "contract Token { uint supply; }"
        addr_a = "0x" + "a" * 40
        addr_b = "0x" + "b" * 40
        mock_explorer.behaviors[addr_a] = ("ok", source)
        mock_explorer.behaviors[addr_b] = ("ok", source)

        store = ContractStore(tmp_path / "store.ndjson")
        with ExplorerClient(
            endpoints={"etherscan": url, "bscscan": url},
            rate_per_second=1000.0,
        ) as client:
            first = client.fetch_verified_source("etherscan", addr_a)
            second = client.fetch_verified_source("bscscan", addr_b)
        # simulate differing explorer metadata for the same code
        second = ContractRecord(
            chain=second.chain, address=second.address, source=second.source,
            source_hash=second.source_hash, compiler_version="v0.4.24",
            fetched_at=second.fetched_at,
        )
        assert store.put(first) == "stored"
        assert store.put(second) == "duplicate"
        assert len(store.records()) == 1
