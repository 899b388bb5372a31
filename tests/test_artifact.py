"""Every artifact loader turns malformed content into a typed error, checks
the artifact header before the payload, and the float payload round-trips bit
for bit.

Each loader case saves a valid artifact with the module's own writer, breaks
one field of the decoded payload and writes it back. The loader must raise
the given ``EthClusterError`` subclass, naming the file.

``write_json`` copies payloads' base64 text rather than escaping it, and must
still write the bytes ``json.dumps(payload, sort_keys=True)`` writes.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import clean_source, reentrant_source, write_corpus
from ethcluster import cluster as cl
from ethcluster import _artifact, embed, evaluate, ingest, pipeline, preprocess, vectorize
from ethcluster._artifact import VERSION, floats, pack, write_json
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


def _raw(arr) -> dict:
    """A float payload of ``arr``'s bytes, built without ``pack``, which refuses
    the non-finite values these cases write."""
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def _poke(*keys_and_value):
    """A mutation that writes the last argument over the first float of the
    payload at ``payload[k1][k2]...``, encoded as float64 bytes."""
    *keys, value = keys_and_value

    def mutate(payload):
        target = payload
        for key in keys:
            target = target[key]
        arr = floats(target, len(target["shape"])).copy()
        arr.flat[0] = value
        target.update(_raw(arr))
        return payload
    return mutate


def _header(payload) -> dict:
    """The header of an artifact's decoded ``payload``, without its payload keys."""
    return {"format": payload["format"], "version": payload["version"]}


def _headerless(payload):
    """``payload`` as the layouts before the header wrote it: without the header
    keys, and with ``preprocess.json``'s documents as the top-level list."""
    payload = {k: v for k, v in payload.items() if k not in ("format", "version")}
    return payload.get("docs", payload)


def _as_version_3(payload):
    """The model as version 3 wrote it: the vectors as a JSON list of lists."""
    return {**payload, "version": 3, "vectors": floats(payload["vectors"], 2).tolist()}


V1_TEXT = 'ethcluster-embedding 1 1 1 {"vector_size": 1}\ncall 0.5\n'

# (case id, loader, mutation of the decoded payload or replacement text, error)
CASES = [
    ("null-token", load_tokendocs, _set("docs", 0, "tokens", [None]), FormatError),
    ("scalar-tokens", load_tokendocs, _set("docs", 0, "tokens", "call"), FormatError),
    ("int-hash", load_tokendocs, _set("docs", 0, "contract_hash", 7), FormatError),
    ("dict-top", load_tokendocs, _header, FormatError),
    ("empty-list", load_tokendocs, lambda p: {**_header(p), "docs": []}, FormatError),
    ("null-flag", pipeline.load_detection, _set("flags", 0, None), FormatError),
    ("bool-flag", pipeline.load_detection, _set("flags", 0, True), FormatError),
    ("float-flag", pipeline.load_detection, _set("flags", 0, 1.0), FormatError),
    ("scalar-flags", pipeline.load_detection, _set("flags", 1), FormatError),
    ("unknown-kind", pipeline.load_detection, _set("kind", "overflow"), FormatError),
    ("null-hashes", pipeline.load_detection, _set("hashes", None), FormatError),
    ("int-hash", pipeline.load_detection, _set("hashes", 0, 7), FormatError),
    ("hash-per-flag", pipeline.load_detection, lambda p: _set("hashes", p["hashes"][1:])(p),
     FormatError),
    ("v1-text", embed.load_model, V1_TEXT, FormatError),
    ("v3-float-lists", embed.load_model, _as_version_3, VersionError),
    ("null-float", embed.load_model, _set("vectors", "f8", None), FormatError),
    ("nan-float", embed.load_model, _poke("vectors", float("nan")), FormatError),
    ("scalar-vectors", embed.load_model, _set("vectors", 1.0), FormatError),
    ("ragged", embed.load_model, _set("vectors", "shape", 1, 4), FormatError),
    ("float-list", embed.load_model, lambda p: _set("vectors", floats(p["vectors"], 2).tolist())(p),
     FormatError),
    ("non-dict-top", embed.load_model, lambda payload: [payload], VersionError),
    ("zero-dim-config", embed.load_model, _set("config", "vector_size", 0), FormatError),
    ("duplicate-word", embed.load_model, lambda p: _set("words", 1, p["words"][0])(p),
     FormatError),
    ("float-seed", embed.load_model, _set("config", "seed", 1.5), FormatError),
    ("bool-seed", embed.load_model, _set("config", "seed", True), FormatError),
    ("float-epochs", embed.load_model, _set("config", "epochs", 2.5), FormatError),
    ("bool-epochs", embed.load_model, _set("config", "epochs", True), FormatError),
    ("null-float", vectorize.load_vectors, _set("values", "f8", None), FormatError),
    ("scalar-values", vectorize.load_vectors, _set("values", 1.0), FormatError),
    ("ragged", vectorize.load_vectors, lambda p: _set("hashes", p["hashes"][1:])(p), FormatError),
    ("hash-per-row", vectorize.load_vectors, lambda p: _set("hashes", [*p["hashes"], "h9"])(p),
     FormatError),
    ("dict-top", vectorize.load_vectors, _header, FormatError),
    ("empty-list", vectorize.load_vectors,
     lambda p: {**_header(p), "hashes": [], "values": {"shape": [0, 3], "f8": ""}}, FormatError),
    ("row-list", vectorize.load_vectors, lambda p: [
        {"contract_hash": h, "values": pack(row)}
        for h, row in zip(p["hashes"], floats(p["values"], 2))], VersionError),
    ("int-hash", vectorize.load_vectors, _set("hashes", 0, 7), FormatError),
    ("infinite-float", vectorize.load_vectors, _poke("values", float("inf")), FormatError),
    ("float-list", vectorize.load_vectors,
     lambda p: _set("values", floats(p["values"], 2).tolist())(p), FormatError),
    ("null-float", vectorize.load_keyword_map, _set("vectors", "f8", None), FormatError),
    ("scalar-vector", vectorize.load_keyword_map, _set("vectors", 1.0), FormatError),
    ("ragged", vectorize.load_keyword_map, lambda p: _set("words", p["words"][1:])(p), FormatError),
    ("duplicate-word", vectorize.load_keyword_map, _set("words", 1, "call"), FormatError),
    ("null-vectors", vectorize.load_keyword_map, _set("vectors", None), FormatError),
    ("vectors-without-words", vectorize.load_keyword_map, _set("words", []), FormatError),
    ("int-word", vectorize.load_keyword_map, _set("words", 0, 7), FormatError),
    ("word-keys", vectorize.load_keyword_map, lambda p: dict(
        zip(p["words"], map(pack, floats(p["vectors"], 2)))), VersionError),
    ("labels-list", cl.load_cluster_model, _set("labels", ["vulnerable", "clean"]), FormatError),
    ("null-float", cl.load_cluster_model, _set("centers", "f8", None), FormatError),
    ("nan-mean", cl.load_cluster_model, _poke("pca", "mean", float("nan")), FormatError),
    ("scalar-centers", cl.load_cluster_model, _set("centers", 1.0), FormatError),
    ("label-out-of-range", cl.load_cluster_model, _set("labels", "5", "clean"), FormatError),
    # keys that int() reads as cluster 1, beside the written "1"
    ("label-key-leading-zero", cl.load_cluster_model, _set("labels", "01", "vulnerable"),
     FormatError),
    ("label-key-space", cl.load_cluster_model, _set("labels", " 1", "vulnerable"), FormatError),
    ("label-key-plus", cl.load_cluster_model, _set("labels", "+1", "vulnerable"), FormatError),
    ("label-key-arabic-indic-digit", cl.load_cluster_model,
     _set("labels", "\u0661", "vulnerable"), FormatError),
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
    ("forged-hash", Dataset.load, _set("entries", 0, "record", "source_hash", "f" * 64),
     FormatError),
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
    assert json.loads(path.read_text("utf-8")) == {
        "format": "ethcluster-keywords", "version": VERSION, "words": [], "vectors": None}
    assert vectorize.load_keyword_map(path) == {}


# --- the header -------------------------------------------------------------

# The loaders of the six headed artifacts. OTHER maps each to the next one in
# the list, whose valid file is the other artifact the loader is handed.
HEADED = [load_tokendocs, pipeline.load_detection, embed.load_model, vectorize.load_keyword_map,
          vectorize.load_vectors, cl.load_cluster_model]
OTHER = dict(zip(HEADED, HEADED[1:] + HEADED[:1]))

# (case id, the artifact the file is written as, mutation, error, words of the message)
HEADER_CASES = [
    ("no-header", lambda loader: loader, _headerless, VersionError, "rerun `ethcluster run`"),
    ("version-4", lambda loader: loader, _set("version", 4), VersionError,
     "rerun `ethcluster run`"),
    ("other-artifact", OTHER.get, lambda payload: payload, FormatError, "not ethcluster-"),
]


@pytest.mark.parametrize("loader", HEADED, ids=lambda loader: loader.__qualname__)
@pytest.mark.parametrize("case_id, written_as, mutation, error, words", HEADER_CASES,
                         ids=[c[0] for c in HEADER_CASES])
def test_header_is_checked_before_the_payload(tmp_path, loader, case_id, written_as, mutation,
                                              error, words):
    path = tmp_path / "artifact"
    WRITERS[written_as(loader)](path)
    path.write_text(json.dumps(mutation(json.loads(path.read_text("utf-8")))), "utf-8")
    with pytest.raises(error) as info:
        loader(path)
    assert str(path) in str(info.value) and words in str(info.value)


# --- the float payload ------------------------------------------------------

SPECIALS = [-0.0, 5e-324, 2.2250738585072009e-308, np.finfo(np.float64).max,
            -np.finfo(np.float64).max]


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array(SPECIALS))
@example(np.array([SPECIALS, SPECIALS[::-1]]))
def test_pack_round_trip_is_bit_exact(arr):
    back = floats(json.loads(json.dumps(pack(arr))), arr.ndim)
    assert back.dtype == np.float64 and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


GOOD = pack(np.arange(6.0).reshape(2, 3))

# (case id, payload decoded as rank 2); each breaks exactly one rule
REFUSED = [
    ("json-list", [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
    ("null", None),
    ("extra-key", {**GOOD, "dtype": "<f8"}),
    ("missing-f8", {"shape": [2, 3]}),
    ("shape-not-list", {**GOOD, "shape": 6}),
    ("wrong-rank", {**GOOD, "shape": [6]}),
    ("zero-in-shape", {"shape": [0, 3], "f8": ""}),
    ("bool-in-shape", {**GOOD, "shape": [6, True]}),
    ("float-in-shape", {**GOOD, "shape": [2.0, 3]}),
    ("string-in-shape", {**GOOD, "shape": ["2", 3]}),
    ("newline-in-base64", {**GOOD, "f8": GOOD["f8"][:4] + "\n" + GOOD["f8"][4:]}),
    ("non-ascii-text", {**GOOD, "f8": "é" * 64}),
    ("f8-not-text", {**GOOD, "f8": 6}),
    ("too-few-bytes", {**GOOD, "shape": [2, 2]}),
    ("too-many-bytes", {**GOOD, "shape": [3, 3]}),
    ("nan", _raw([[0.0, np.nan, 1.0]])),
    ("inf", _raw([[0.0, np.inf, 1.0]])),
    ("minus-inf", _raw([[0.0, -np.inf, 1.0]])),
]


@pytest.mark.parametrize("payload", [p for _, p in REFUSED], ids=[c for c, _ in REFUSED])
def test_refused_float_payload(payload):
    with pytest.raises(FormatError):
        floats(payload, 2)


def test_valid_payload_decodes():
    assert floats(GOOD, 2).tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


# --- the writer ---------------------------------------------------------------

def _plain(value):
    """``value`` with every dict, ``pack`` payloads too, rebuilt as a plain dict."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _dumped(payload, name) -> bytes:
    """``json.dumps`` of ``payload`` with plain dicts, under artifact ``name``'s header."""
    if name:
        payload = {**payload, "format": f"ethcluster-{name}", "version": VERSION}
    return json.dumps(_plain(payload), sort_keys=True).encode("utf-8")


PACKED = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=3),
                elements=st.floats(allow_nan=False, allow_infinity=False)).map(pack)
# keys JSON must escape, non-ASCII ones and a payload's own keys, beside any text
KEYS = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é",
                                               "\u2028", "\U0001f600", "f8", "shape"])
TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | PACKED,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "artifact.json"


@given(st.tuples(TREES, st.none()) | st.tuples(st.dictionaries(KEYS, TREES, max_size=4),
                                                st.just("model")))
@example((pack([1.0]), None))
@example(({"é\n": {'"': pack([[1.0, -0.0]]), "a": [pack([2.0]), {"b": pack([3.0])}]},
           "format": 1}, "model"))
def test_write_json_writes_what_json_dumps_writes(out, tree_and_name):
    tree, name = tree_and_name
    write_json(tree, out, name)
    assert out.read_bytes() == _dumped(tree, name)


def _write_report(path):
    report = evaluate.metrics(evaluate.confusion(["vulnerable", "clean"], ["vulnerable"] * 2))
    evaluate.write_report("reentrancy", report, {"vector_size": 10, "seed": 1}, path)


@pytest.mark.parametrize("write", [*WRITERS.values(), _write_report],
                         ids=[*(loader.__qualname__ for loader in WRITERS), "write_report"])
def test_stage_writer_writes_what_json_dumps_writes(tmp_path, monkeypatch, write):
    calls = []

    def record(payload, path, name=None):
        calls.append((payload, name))
        _artifact.write_json(payload, path, name)

    for module in (preprocess, pipeline, embed, vectorize, cl, evaluate, ingest):
        monkeypatch.setattr(module, "write_json", record)
    path = tmp_path / "artifact"
    write(path)
    [(payload, name)] = calls
    assert path.read_bytes() == _dumped(payload, name)
