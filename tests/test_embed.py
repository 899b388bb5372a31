import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ethcluster._artifact import pack
from ethcluster.embed import (
    _build_vocab,
    _noise_table,
    _noise_words,
    NOISE_POWER,
    EmbeddingConfig,
    load_model,
    negative_sampling_gradients,
    negative_sampling_loss,
    save_model,
    train_embedding,
)
from ethcluster.errors import EmptyCorpus, FormatError, InvalidInput, VersionError


def _cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def reference_build_vocab(docs):
    """``_build_vocab`` as a per-word counting loop, its former body, kept as
    the reference the ``Counter`` form must equal."""
    counts: dict[str, int] = {}
    for doc in docs:
        for word in doc:
            counts[word] = counts.get(word, 0) + 1
    words = sorted(counts, key=lambda w: -counts[w])
    vocab = {w: i for i, w in enumerate(words)}
    freqs = np.array([counts[w] for w in words], dtype=np.float64)
    return vocab, freqs


def reference_softmax_skipgram(docs, vocab, dim, window, steps, lr, seed):
    """Independent full-softmax skip-gram trained by batch gradient descent.

    Deliberately different machinery from the package (softmax instead of
    negative sampling, batch instead of SGD): used only to confirm which
    cosine orderings the objective itself implies on a toy corpus.
    """
    rng = np.random.default_rng(seed)
    V = len(vocab)
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(V, dim))
    w_out = np.zeros((V, dim))
    pairs = []
    for doc in docs:
        idx = [vocab[w] for w in doc]
        for i, center in enumerate(idx):
            for j in range(max(0, i - window), min(len(idx), i + window + 1)):
                if j != i:
                    pairs.append((center, idx[j]))
    pairs = np.array(pairs)
    for _ in range(steps):
        g_in = np.zeros_like(w_in)
        g_out = np.zeros_like(w_out)
        for center, context in pairs:
            scores = w_out @ w_in[center]
            p = np.exp(scores - scores.max())
            p /= p.sum()
            p[context] -= 1.0
            g_in[center] += w_out.T @ p
            g_out += np.outer(p, w_in[center])
        w_in -= lr * g_in / len(pairs)
        w_out -= lr * g_out / len(pairs)
    return w_in


class TestGradients:
    def _fixture(self):
        rng = np.random.default_rng(42)
        w_in = rng.normal(0.0, 0.5, size=(5, 4))
        w_out = rng.normal(0.0, 0.5, size=(5, 4))
        pairs = [
            (0, 1, (2, 3)),
            (1, 4, (0, 2)),
            (3, 0, (0, 2)),  # first negative collides with the target: skipped
            (2, 3, (4, 4)),
            (4, 2, (1, 3)),
        ]
        return w_in, w_out, pairs

    def test_analytic_matches_central_differences(self):
        w_in, w_out, pairs = self._fixture()
        g_in, g_out = negative_sampling_gradients(w_in, w_out, pairs)

        h = 1e-6
        fd_in = np.zeros_like(w_in)
        fd_out = np.zeros_like(w_out)
        for matrix, fd in ((w_in, fd_in), (w_out, fd_out)):
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    orig = matrix[i, j]
                    matrix[i, j] = orig + h
                    up = negative_sampling_loss(w_in, w_out, pairs)
                    matrix[i, j] = orig - h
                    down = negative_sampling_loss(w_in, w_out, pairs)
                    matrix[i, j] = orig
                    fd[i, j] = (up - down) / (2 * h)

        analytic = np.concatenate([g_in.ravel(), g_out.ravel()])
        numeric = np.concatenate([fd_in.ravel(), fd_out.ravel()])
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-4

    def test_collided_negative_contributes_nothing(self):
        w_in, w_out, _ = self._fixture()
        with_collision = negative_sampling_loss(w_in, w_out, [(0, 1, (1, 2))])
        without = negative_sampling_loss(w_in, w_out, [(0, 1, (2,))])
        assert with_collision == pytest.approx(without, abs=1e-12)


class TestTraining:
    def test_bit_reproducible(self):
        docs = [["a", "b", "a", "b", "a", "b"]] * 50
        config = EmbeddingConfig(vector_size=4, seed=77, epochs=3)
        m1 = train_embedding(docs, config)
        m2 = train_embedding(docs, config)
        assert m1.vocab == m2.vocab
        assert np.array_equal(m1.vectors, m2.vectors)

    def test_empty_vocab(self):
        with pytest.raises(EmptyCorpus):
            train_embedding([[], []], EmbeddingConfig(vector_size=4))

    def test_empty_docs_rejected(self):
        with pytest.raises(InvalidInput):
            train_embedding([], EmbeddingConfig(vector_size=4))

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "call", "x"]), max_size=8),
                    max_size=6))
    @example([["b", "a", "a", "b", "c"], ["c"]])  # a three-way tie at 2, then first-seen order
    @example([])
    def test_vocab_equals_the_counting_loop(self, docs):
        vocab, freqs = _build_vocab(docs)
        ref_vocab, ref_freqs = reference_build_vocab(docs)
        assert list(vocab.items()) == list(ref_vocab.items())
        assert freqs.dtype == ref_freqs.dtype and freqs.tobytes() == ref_freqs.tobytes()

    @given(st.one_of(st.integers(1, 400).map(lambda n: [1] * n),
                     st.lists(st.integers(1, 1000), min_size=1, max_size=400),
                     # a heavy head: up to five words with counts up to 1e5
                     st.builds(list.__add__,
                               st.lists(st.integers(1000, 100_000), min_size=1, max_size=5),
                               st.lists(st.integers(1, 3), max_size=395))),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    @example([1, 1, 1], [])
    @example([100_000, 1, 1], [0.5])
    def test_noise_words_equal_searchsorted(self, counts, uniforms):
        freqs = np.array(counts, dtype=np.float64)
        weights = freqs ** NOISE_POWER
        cdf = np.cumsum(weights / weights.sum())
        table = _noise_table(freqs)
        size = len(table[1])
        edges = np.arange(size) / size
        # every CDF entry, every bucket edge and their neighbours below 1
        u = np.concatenate([uniforms, [0.0, np.nextafter(1.0, 0.0)], edges,
                            np.nextafter(edges, 0.0), cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 2.0)])
        u = u[u < 1.0].reshape(-1, 1)
        expected = np.minimum(np.searchsorted(cdf, u, side="right"), len(counts) - 1)
        got = _noise_words(table, u)
        assert table[2] <= 2
        assert got.dtype == np.int64 and np.array_equal(got, expected)

    def test_vectors_finite_and_shaped(self):
        docs = [["a", "b", "c", "a"], ["b", "c", "d"]] * 5
        model = train_embedding(docs, EmbeddingConfig(vector_size=6, seed=3))
        assert model.vectors.shape == (len(model.vocab), 6)
        assert np.all(np.isfinite(model.vectors))

    def test_cooccurrence_ordering_matches_reference(self):
        # x and y always co-occur inside the same documents (so each sees the
        # other as context); z never appears near them. The independent
        # softmax reference confirms the objective pulls x and y together on
        # exactly this corpus, then the trained model must agree.
        docs = [["x", "y", "x", "y", "x", "y"]] * 20 + [["z", "w", "z", "w", "z", "w"]] * 20
        vocab = {"x": 0, "y": 1, "z": 2, "w": 3}
        ref = reference_softmax_skipgram(docs, vocab, dim=8, window=5,
                                         steps=300, lr=2.0, seed=9)
        assert _cosine(ref[0], ref[1]) > _cosine(ref[0], ref[2])

        model = train_embedding(docs, EmbeddingConfig(vector_size=8, seed=9, epochs=40))
        x, y, z = model.vector("x"), model.vector("y"), model.vector("z")
        assert _cosine(x, y) > _cosine(x, z)

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInput):
            EmbeddingConfig(vector_size=0)
        with pytest.raises(InvalidInput):
            EmbeddingConfig(epochs=0)
        with pytest.raises(InvalidInput, match="seed"):
            EmbeddingConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [("vector_size", 2.0), ("epochs", 2.5),
                                              ("seed", True)])
    def test_config_fields_are_ints(self, field, value):
        # a bool is an int to Python, but never a count or a seed here
        with pytest.raises(InvalidInput, match=field):
            EmbeddingConfig(**{"vector_size": 2, field: value})


class TestLookup:
    def _model(self):
        docs = [["alpha", "beta", "gamma"]] * 4
        return train_embedding(docs, EmbeddingConfig(vector_size=4, seed=8))

    def test_known_word(self):
        model = self._model()
        vec = model.vector("alpha")
        assert vec is not None and vec.shape == (4,)

    def test_unknown_word_absent(self):
        assert self._model().vector("missing") is None

    def test_lookup_stable(self):
        model = self._model()
        assert np.array_equal(model.vector("beta"), model.vector("beta"))

    def test_vectors_read_only(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.vectors[0, 0] = 9.9


class TestPersistence:
    def _model(self):
        docs = [["one", "two", "three", "one"], ["two", "four"]] * 3
        return train_embedding(docs, EmbeddingConfig(vector_size=3, seed=21, epochs=2))

    def test_round_trip_bit_equal(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.vec"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab
        assert loaded.config == model.config
        assert np.array_equal(loaded.vectors, model.vectors)

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.vec"
        save_model(model, path)
        text = path.read_text("utf-8")
        path.write_text(text[: len(text) // 2], "utf-8")
        with pytest.raises(FormatError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.vec"
        save_model(model, path)
        payload = json.loads(path.read_text("utf-8"))
        for version in (9, 4, 3, 2):
            payload["version"] = version
            path.write_text(json.dumps(payload), "utf-8")
            with pytest.raises(VersionError, match=f"^{re.escape(str(path))}: .*rerun"):
                load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "bogus.vec"
        path.write_text("hello world\n", "utf-8")
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_component_count(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.vec"
        save_model(model, path)
        payload = json.loads(path.read_text("utf-8"))
        payload["vectors"] = pack(np.hstack([model.vectors, np.full((len(model.vocab), 1), 0.5)]))
        path.write_text(json.dumps(payload), "utf-8")
        with pytest.raises(FormatError):
            load_model(path)
