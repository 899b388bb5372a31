import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ethcluster._artifact import write_json
from ethcluster.embed import EmbeddingConfig, EmbeddingModel, load_model
from ethcluster.errors import AlignmentError, EmptyCorpus, FormatError, InvalidInput
from ethcluster.pipeline import vectorize_corpus
from ethcluster.preprocess import TokenDoc
from ethcluster.vectorize import (
    DocumentVector,
    TfidfModel,
    build_dictionary,
    doc2bow,
    doc_vector_values,
    document_vectors,
    load_keyword_map,
    load_vectors,
    save_keyword_map,
    save_vectors,
    select_keywords,
    tfidf_scores,
)


def reference_build_dictionary(docs):
    """``build_dictionary``'s former per-word loop, kept as the reference its
    ``dict.fromkeys`` and ``Counter`` form must equal: (word_to_id, doc_freq)."""
    word_to_id: dict[str, int] = {}
    doc_freq: list[int] = []
    for doc in docs:
        seen: set[int] = set()
        for word in doc:
            idx = word_to_id.get(word)
            if idx is None:
                idx = len(word_to_id)
                word_to_id[word] = idx
                doc_freq.append(0)
            seen.add(idx)
        for idx in seen:
            doc_freq[idx] += 1
    return word_to_id, doc_freq


def _embedding(words: list[str], dim: int = 4, scale: float = 1.0) -> EmbeddingModel:
    """Deterministic fake embedding: one-hot-ish rows, no training involved."""
    vocab = {w: i for i, w in enumerate(words)}
    vectors = np.zeros((len(words), dim))
    for i in range(len(words)):
        vectors[i, i % dim] = scale * (i + 1)
    return EmbeddingModel(vocab=vocab, vectors=vectors, config=EmbeddingConfig(vector_size=dim))


class TestDictionary:
    def test_document_frequencies(self):
        d = build_dictionary([["a", "b"], ["b", "c"]])
        assert d.num_docs == 2
        assert d.doc_freq[d.word_to_id["a"]] == 1
        assert d.doc_freq[d.word_to_id["b"]] == 2
        assert d.doc_freq[d.word_to_id["c"]] == 1

    def test_single_doc(self):
        d = build_dictionary([["x"]])
        assert d.num_docs == 1
        assert d.doc_freq == [1]

    def test_repeated_word_one_entry(self):
        d = build_dictionary([["a"], ["a"]])
        assert len(d.word_to_id) == 1
        assert d.doc_freq[0] == 2

    def test_first_seen_order(self):
        d = build_dictionary([["z", "a"], ["a", "m"]])
        assert [d.id_to_word[i] for i in range(3)] == ["z", "a", "m"]

    def test_ids_are_dense_bijection(self):
        d = build_dictionary([["a", "b", "c"], ["c", "d"]])
        assert sorted(d.word_to_id.values()) == list(range(len(d.word_to_id)))
        for word, idx in d.word_to_id.items():
            assert d.id_to_word[idx] == word

    def test_all_empty_docs(self):
        with pytest.raises(EmptyCorpus):
            build_dictionary([[], []])

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "call", "x"]), max_size=8),
                    min_size=1, max_size=6))
    @example([["z", "a", "z"], [], ["a", "m", "m"]])
    @example([[], []])
    def test_dictionary_equals_the_counting_loop(self, docs):
        word_to_id, doc_freq = reference_build_dictionary(docs)
        if not word_to_id:
            with pytest.raises(EmptyCorpus):
                build_dictionary(docs)
            return
        d = build_dictionary(docs)
        assert list(d.word_to_id.items()) == list(word_to_id.items())
        assert d.id_to_word == list(word_to_id) and d.doc_freq == doc_freq
        assert d.num_docs == len(docs)

    def test_df_bounds(self):
        d = build_dictionary([["a", "b"], ["b"], ["b", "c"]])
        for df in d.doc_freq:
            assert 1 <= df <= d.num_docs


class TestDoc2Bow:
    def test_counts(self):
        d = build_dictionary([["a", "b"]])
        assert doc2bow(d, ["a", "a", "b"]) == [(0, 2), (1, 1)]

    def test_unknown_dropped(self):
        d = build_dictionary([["a"]])
        assert doc2bow(d, ["unknown"]) == []

    def test_empty_doc(self):
        d = build_dictionary([["a"]])
        assert doc2bow(d, []) == []


class TestTfidfScores:
    def test_two_doc_example(self):
        # d1 = [a, b], d2 = [a, c]: a appears everywhere so scores 0;
        # b carries all of doc 1's weight after normalization
        d = build_dictionary([["a", "b"], ["a", "c"]])
        model = TfidfModel(d)
        scores = dict(tfidf_scores(model, doc2bow(d, ["a", "b"]), 2))
        assert scores[d.word_to_id["a"]] == 0.0
        assert scores[d.word_to_id["b"]] == pytest.approx(1.0, abs=1e-12)

    def test_three_doc_hand_table(self):
        # corpus: d1 = call send call; d2 = send now; d3 = call owner owner now
        # D = 3, df(call) = 2, df(send) = 2, df(now) = 2, df(owner) = 1.
        # Expected values below computed by direct per-word arithmetic
        # (tf = count/len, idf = ln(D/df), then per-document L2 norm).
        docs = [["call", "send", "call"], ["send", "now"], ["call", "owner", "owner", "now"]]
        d = build_dictionary(docs)
        model = TfidfModel(d)

        ln15, ln3 = math.log(3 / 2), math.log(3)

        got1 = dict(tfidf_scores(model, doc2bow(d, docs[0]), 3))
        assert got1[d.word_to_id["call"]] == pytest.approx(2 / math.sqrt(5), abs=1e-9)
        assert got1[d.word_to_id["send"]] == pytest.approx(1 / math.sqrt(5), abs=1e-9)

        got2 = dict(tfidf_scores(model, doc2bow(d, docs[1]), 2))
        assert got2[d.word_to_id["send"]] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert got2[d.word_to_id["now"]] == pytest.approx(1 / math.sqrt(2), abs=1e-9)

        raw_call = (1 / 4) * ln15
        raw_owner = (2 / 4) * ln3
        raw_now = (1 / 4) * ln15
        norm = math.sqrt(raw_call ** 2 + raw_owner ** 2 + raw_now ** 2)
        got3 = dict(tfidf_scores(model, doc2bow(d, docs[2]), 4))
        assert got3[d.word_to_id["call"]] == pytest.approx(raw_call / norm, abs=1e-9)
        assert got3[d.word_to_id["owner"]] == pytest.approx(raw_owner / norm, abs=1e-9)
        assert got3[d.word_to_id["now"]] == pytest.approx(raw_now / norm, abs=1e-9)

    def test_everywhere_word_scores_zero(self):
        docs = [["x", "a"], ["x", "b"], ["x", "c"]]
        d = build_dictionary(docs)
        model = TfidfModel(d)
        for doc in docs:
            scores = dict(tfidf_scores(model, doc2bow(d, doc), 2))
            assert scores[d.word_to_id["x"]] == 0.0

    def test_single_document_corpus_all_zero(self):
        d = build_dictionary([["a", "b", "a"]])
        model = TfidfModel(d)
        scores = tfidf_scores(model, doc2bow(d, ["a", "b", "a"]), 3)
        assert scores and all(s == 0.0 for _, s in scores)

    def test_zero_length_doc(self):
        d = build_dictionary([["a"]])
        assert tfidf_scores(TfidfModel(d), [], 0) == []

    def test_idf_bounds(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(30)]
        docs = [[vocab[j] for j in rng.integers(0, 30, size=12)] for _ in range(9)]
        model = TfidfModel(build_dictionary(docs))
        assert np.all(model.idf >= 0.0)
        assert np.all(model.idf <= math.log(9) + 1e-12)

    def test_unit_norm_property(self):
        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(20)]
        docs = [[vocab[j] for j in rng.integers(0, 20, size=15)] for _ in range(6)]
        d = build_dictionary(docs)
        model = TfidfModel(d)
        for doc in docs:
            scores = [s for _, s in tfidf_scores(model, doc2bow(d, doc), len(doc))]
            norm = math.sqrt(sum(s * s for s in scores))
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_tf_simplex(self):
        # raw term frequencies over one document sum to 1
        docs = [["a", "b", "b", "c"], ["c", "d"]]
        d = build_dictionary(docs)
        for doc in docs:
            bag = doc2bow(d, doc)
            assert sum(count for _, count in bag) / len(doc) == pytest.approx(1.0)


class TestSelectKeywords:
    def _setup(self):
        docs = [["alpha", "beta"], ["alpha", "gamma"], ["alpha", "delta"]]
        d = build_dictionary(docs)
        model = TfidfModel(d)
        bags = [doc2bow(d, doc) for doc in docs]
        embedding = _embedding(["alpha", "beta", "gamma", "delta", "call", "balances"])
        return bags, model, embedding

    def test_threshold_one_selects_nothing(self):
        bags, model, embedding = self._setup()
        assert select_keywords(bags, model, embedding, 1.0) == {}

    def test_threshold_zero_selects_positive_scores(self):
        bags, model, embedding = self._setup()
        selected = select_keywords(bags, model, embedding, 0.0)
        # alpha has idf 0; the three distinct words carry all the weight
        assert set(selected) == {"beta", "gamma", "delta"}

    def test_flag_forces_kind_keywords(self):
        bags, model, embedding = self._setup()
        selected = select_keywords(bags, model, embedding, 1.0,
                                   forced=("call", "balance", "balances"))
        # only the forced words present in the embedding vocabulary land
        assert set(selected) == {"call", "balances"}

    def test_no_flag_no_forcing(self):
        bags, model, embedding = self._setup()
        assert select_keywords(bags, model, embedding, 1.0, forced=()) == {}

    def test_out_of_vocab_selected_words_skipped(self):
        docs = [["onlyhere", "shared"], ["shared", "other"]]
        d = build_dictionary(docs)
        bags = [doc2bow(d, doc) for doc in docs]
        embedding = _embedding(["shared"])  # onlyhere/other unknown to embedding
        selected = select_keywords(bags, TfidfModel(d), embedding, 0.0)
        assert selected == {}  # shared scores 0 everywhere; others not in vocab

    def test_misaligned_flags_rejected(self, tmp_path):
        docs = [TokenDoc(h, ("alpha", "beta"), ()) for h in ("h1", "h2", "h3")]
        # too few flags, the same documents reordered, another corpus
        for hashes in (["h1"], ["h1", "h3", "h2"], ["x1", "x2", "x3"]):
            detection = {"kind": "reentrancy", "flags": [1] * len(hashes), "hashes": hashes}
            with pytest.raises(AlignmentError):
                vectorize_corpus(docs, _embedding(["alpha", "beta", "call"]), 0.5, detection,
                                 tmp_path / "vectors.json")
        assert not any(tmp_path.iterdir())



class TestDocumentVectors:
    def test_mean_of_two(self):
        keyword_map = {"u": np.array([1.0, 0.0]), "v": np.array([0.0, 1.0])}
        doc = TokenDoc("h1", ("u", "v"), ())
        [vec] = document_vectors([doc], keyword_map, 2)
        assert vec.contract_hash == "h1"
        assert np.allclose(vec.values, [0.5, 0.5])

    def test_dedup_before_mean(self):
        keyword_map = {"w": np.array([2.0, 4.0])}
        doc = TokenDoc("h1", ("w", "w", "w"), ())
        [vec] = document_vectors([doc], keyword_map, 2)
        assert np.array_equal(vec.values, [2.0, 4.0])

    def test_zero_padding(self):
        doc = TokenDoc("h1", ("nothing", "mapped"), ())
        [vec] = document_vectors([doc], {}, 3)
        assert np.array_equal(vec.values, np.zeros(3))

    def test_order_preserved(self):
        keyword_map = {"a": np.array([1.0]), "b": np.array([3.0])}
        docs = [TokenDoc("h1", ("a",), ()), TokenDoc("h2", ("b",), ()), TokenDoc("h3", ("a", "b"), ())]
        vecs = document_vectors(docs, keyword_map, 1)
        assert [v.contract_hash for v in vecs] == ["h1", "h2", "h3"]
        assert [float(v.values[0]) for v in vecs] == [1.0, 3.0, 2.0]

    def test_mean_containment(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(8)]
        keyword_map = {w: rng.standard_normal(5) for w in words}
        tokens = tuple(rng.choice(words, size=12))
        values = doc_vector_values(tokens, keyword_map, 5)
        picked = np.array([keyword_map[w] for w in set(tokens)])
        assert np.all(values >= picked.min(axis=0) - 1e-12)
        assert np.all(values <= picked.max(axis=0) + 1e-12)

    @given(tokens=st.lists(st.sampled_from(["a", "b", "c", "call", "send", "zz", "q"]),
                           max_size=30),
           mapped=st.sets(st.sampled_from(["a", "b", "c", "call", "send", "w"])),
           wrap=st.sampled_from([dict, MappingProxyType]),
           seed=st.integers(0, 2**16))
    @example(tokens=[], mapped={"a"}, wrap=dict, seed=0)
    def test_values_equal_the_sorted_distinct_token_form(self, tokens, mapped, wrap, seed):
        rng = np.random.default_rng(seed)
        keyword_map = wrap({w: rng.standard_normal(3) for w in sorted(mapped)})
        picked = [keyword_map[w] for w in sorted(set(tokens)) if w in keyword_map]
        expected = np.mean(np.array(picked), axis=0) if picked else np.zeros(3)
        got = doc_vector_values(tokens, keyword_map, 3)
        assert got.tobytes() == expected.tobytes()


class TestPersistence:
    def test_vectors_round_trip(self, tmp_path):
        vectors = [DocumentVector("h1", np.array([0.1, -2.5e-17, 3.0]))]
        path = tmp_path / "vectors.json"
        save_vectors(vectors, path)
        [loaded] = load_vectors(path)
        assert loaded.contract_hash == "h1"
        assert np.array_equal(loaded.values, vectors[0].values)

    @pytest.mark.parametrize("rows", [[], [[], []], [[1.0, 2.0], [3.0]], [[1.0, np.nan]],
                                      [[np.inf, 0.0]]],
                             ids=["no-vectors", "zero-width", "ragged", "nan", "inf"])
    def test_vectors_its_loader_refuses_are_not_written(self, tmp_path, rows):
        path = tmp_path / "vectors.json"
        with pytest.raises(InvalidInput):
            save_vectors([DocumentVector(f"h{i}", np.array(row)) for i, row in enumerate(rows)],
                         path)
        assert not path.exists()

    def test_keyword_map_round_trip(self, tmp_path):
        keyword_map = {"call": np.array([1.0 / 3.0, 2.0]), "now": np.array([-0.125, 7e-9])}
        path = tmp_path / "keywords.json"
        save_keyword_map(keyword_map, path)
        loaded = load_keyword_map(path)
        assert set(loaded) == {"call", "now"}
        for word in loaded:
            assert np.array_equal(loaded[word], keyword_map[word])

    # One artifact per loader with non-base64 text where float bytes belong;
    # the model is otherwise a valid one-word, dim-1 model.
    _NON_NUMERIC = {
        load_vectors: ("vectors", {"hashes": ["h"], "values": {"shape": [1, 1], "f8": "x!"}}),
        load_keyword_map: ("keywords",
                           {"words": ["call"], "vectors": {"shape": [1, 1], "f8": "x!"}}),
        load_model: ("embedding", {"config": {"vector_size": 1}, "words": ["call"],
                                   "vectors": {"shape": [1, 1], "f8": "x!"}}),
    }

    @pytest.mark.parametrize("loader", list(_NON_NUMERIC), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", ["non_numeric", "non_utf8"])
    def test_malformed_artifact_is_a_format_error(self, tmp_path, loader, bad):
        path = tmp_path / "artifact"
        if bad == "non_numeric":
            name, payload = self._NON_NUMERIC[loader]
            write_json(payload, path, name)
        else:
            path.write_bytes(b"\xff\xfe{\x80}")
        with pytest.raises(FormatError):
            loader(path)
