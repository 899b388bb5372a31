"""Every artifact loader turns malformed content into a typed error.

Each case saves a valid artifact with the module's own writer, breaks one
field of the decoded payload and writes it back. The loader must raise the
given ``EthClusterError`` subclass, naming the file.
"""

import json

import numpy as np
import pytest

from conftest import clean_source, reentrant_source, write_corpus
from ethcluster import cluster as cl
from ethcluster import embed, pipeline, vectorize
from ethcluster.errors import FormatError, VersionError
from ethcluster.ingest import Dataset, build_mixed_dataset, records_from_dir
from ethcluster.preprocess import load_tokendocs, preprocess_contract, save_tokendocs

SOURCES = [reentrant_source(i) for i in range(2)] + [clean_source(i) for i in range(4)]


def _docs():
    return [preprocess_contract(s) for s in SOURCES]


def _model():
    config = embed.EmbeddingConfig(vector_size=3, epochs=1, seed=4)
    return embed.train_embedding([d.tokens for d in _docs()], config)


def _cluster_model():
    X = np.random.default_rng(5).standard_normal((6, 3))
    basis = cl.pca_fit(X, 2)
    model = cl.kmeans_fit(cl.pca_transform(basis, X), k=2, seed=1)
    model.labels, model.pca = {0: "vulnerable", 1: "clean"}, basis
    model.hashes = [f"h{i}" for i in range(6)]
    return model


def _dataset(tmp_path):
    write_corpus(tmp_path / "vuln", SOURCES[:2])
    write_corpus(tmp_path / "clean", SOURCES[2:])
    return build_mixed_dataset(records_from_dir(tmp_path / "vuln"),
                               records_from_dir(tmp_path / "clean"), 0.5)


# loader -> writer of a valid artifact at a path
WRITERS = {
    load_tokendocs: lambda path: save_tokendocs(_docs(), path),
    pipeline.load_detection: lambda path: pipeline.save_detection(
        pipeline.detect_corpus(_docs(), "reentrancy"), path),
    embed.load_model: lambda path: embed.save_model(_model(), path),
    vectorize.load_vectors: lambda path: vectorize.save_vectors(
        [vectorize.DocumentVector(f"h{i}", np.full(3, i / 7)) for i in range(3)], path),
    vectorize.load_keyword_map: lambda path: vectorize.save_keyword_map(
        {"call": np.array([0.5, -1.0]), "now": np.array([2.0, 1 / 3])}, path),
    cl.load_cluster_model: lambda path: cl.save_cluster_model(_cluster_model(), path),
    Dataset.load: lambda path: _dataset(path.parent).save(path),
}


def _set(*keys_and_value):
    """A mutation that replaces ``payload[k1][k2]...`` with the last argument."""
    *keys, value = keys_and_value

    def mutate(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return payload
    return mutate


V1_TEXT = 'ethcluster-embedding 1 1 1 {"vector_size": 1}\ncall 0.5\n'

# (case id, loader, mutation of the decoded payload or replacement text, error)
CASES = [
    ("null-token", load_tokendocs, _set(0, "tokens", [None]), FormatError),
    ("scalar-tokens", load_tokendocs, _set(0, "tokens", "call"), FormatError),
    ("int-hash", load_tokendocs, _set(0, "contract_hash", 7), FormatError),
    ("null-flag", pipeline.load_detection, _set("flags", 0, None), FormatError),
    ("bool-flag", pipeline.load_detection, _set("flags", 0, True), FormatError),
    ("float-flag", pipeline.load_detection, _set("flags", 0, 1.0), FormatError),
    ("scalar-flags", pipeline.load_detection, _set("flags", 1), FormatError),
    ("unknown-kind", pipeline.load_detection, _set("kind", "overflow"), FormatError),
    ("null-hashes", pipeline.load_detection, _set("hashes", None), FormatError),
    ("int-hash", pipeline.load_detection, _set("hashes", 0, 7), FormatError),
    ("hash-per-flag", pipeline.load_detection, lambda p: _set("hashes", p["hashes"][1:])(p),
     FormatError),
    ("v1-text", embed.load_model, V1_TEXT, VersionError),
    ("null-float", embed.load_model, _set("vectors", 0, 0, None), FormatError),
    ("nan-float", embed.load_model, _set("vectors", 0, 0, float("nan")), FormatError),
    ("scalar-vectors", embed.load_model, _set("vectors", 1.0), FormatError),
    ("ragged", embed.load_model, _set("vectors", 0, [0.5]), FormatError),
    ("non-dict-top", embed.load_model, lambda payload: [payload], FormatError),
    ("zero-dim-config", embed.load_model, _set("config", "vector_size", 0), FormatError),
    ("duplicate-word", embed.load_model, lambda p: _set("words", 1, p["words"][0])(p),
     FormatError),
    ("null-float", vectorize.load_vectors, _set(0, "values", 0, None), FormatError),
    ("scalar-values", vectorize.load_vectors, _set(0, "values", 1.0), FormatError),
    ("ragged", vectorize.load_vectors, _set(1, "values", [0.5]), FormatError),
    ("dict-top", vectorize.load_vectors, lambda payload: {}, FormatError),
    ("int-hash", vectorize.load_vectors, _set(0, "contract_hash", 7), FormatError),
    ("infinite-float", vectorize.load_vectors, _set(0, "values", 0, float("inf")), FormatError),
    ("null-float", vectorize.load_keyword_map, _set("call", None), FormatError),
    ("scalar-vector", vectorize.load_keyword_map, _set("call", 1.0), FormatError),
    ("ragged", vectorize.load_keyword_map, _set("now", [0.5]), FormatError),
    ("labels-list", cl.load_cluster_model, _set("labels", ["vulnerable", "clean"]), FormatError),
    ("null-float", cl.load_cluster_model, _set("centers", 0, 0, None), FormatError),
    ("scalar-centers", cl.load_cluster_model, _set("centers", 1.0), FormatError),
    ("label-out-of-range", cl.load_cluster_model, _set("labels", "5", "clean"), FormatError),
    ("k-not-centers", cl.load_cluster_model, _set("k", 99), FormatError),
    ("num-components-not-components", cl.load_cluster_model,
     _set("pca", "num_components", "x"), FormatError),
    ("float-assignment", cl.load_cluster_model, _set("assignments", 0, 0.5), FormatError),
    ("bool-assignment", cl.load_cluster_model, _set("assignments", 0, True), FormatError),
    ("string-assignment", cl.load_cluster_model, _set("assignments", 0, "1"), FormatError),
    ("huge-assignment", cl.load_cluster_model, _set("assignments", 0, 10**30), FormatError),
    ("string-seed", cl.load_cluster_model, _set("seed", "x"), FormatError),
    ("null-iterations", cl.load_cluster_model, _set("iterations_run", None), FormatError),
    ("unknown-label", cl.load_cluster_model, _set("labels", "0", "banana"), FormatError),
    ("int-hash", cl.load_cluster_model, _set("hashes", 0, 7), FormatError),
    ("hash-per-assignment", cl.load_cluster_model, lambda p: _set("hashes", p["hashes"][1:])(p),
     FormatError),
    ("null-label", Dataset.load, _set("entries", 0, "truth_label", None), FormatError),
    ("int-source", Dataset.load, _set("entries", 0, "record", "source", 5), FormatError),
]


@pytest.mark.parametrize("case_id, loader, mutation, error", CASES,
                         ids=[f"{c[1].__qualname__}-{c[0]}" for c in CASES])
def test_malformed_artifact_raises_typed_error(tmp_path, case_id, loader, mutation, error):
    path = tmp_path / "artifact"
    WRITERS[loader](path)
    loader(path)  # the writer's artifact is valid; the mutation alone breaks it
    if isinstance(mutation, str):
        text = mutation
    else:
        text = json.dumps(mutation(json.loads(path.read_text("utf-8"))))
    path.write_text(text, "utf-8")
    with pytest.raises(error) as info:
        loader(path)
    assert str(path) in str(info.value)


def test_empty_keyword_map_loads(tmp_path):
    path = tmp_path / "keywords.json"
    vectorize.save_keyword_map({}, path)
    assert vectorize.load_keyword_map(path) == {}
