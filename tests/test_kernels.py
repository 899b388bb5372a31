"""The numpy kernels against scalar reference loops.

The oracles below are plain per-dimension loops with the word2vec update
order: one (center, target) pair at a time, the target first, then each
noise word in row order, each updating its output row before the next is
scored. The kernels must reproduce them to rounding, including when a noise
row repeats a word, when a noise word equals the target, and when a word is
its own context.
"""

import math

import numpy as np
import pytest

from ethcluster import _kernels
from ethcluster.cluster import kmeans_fit
from ethcluster.embed import EmbeddingConfig, train_embedding

_MAX_SCORE = 30.0


def _sigmoid_loss(f, label):
    f = min(max(f, -_MAX_SCORE), _MAX_SCORE)
    sig = 1.0 / (1.0 + math.exp(-f))
    return sig, (-math.log(sig) if label == 1.0 else -math.log(1.0 - sig))


def oracle_skipgram(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    dim = w_in.shape[1]
    loss = 0.0
    pair = 0
    for i in range(doc.shape[0]):
        center = doc[i]
        for j in range(win_lo[i], win_hi[i] + 1):
            if j == i:
                continue
            target = doc[j]
            grad_in = [0.0] * dim
            for s in range(negatives.shape[1] + 1):
                if s == 0:
                    word, label = target, 1.0
                else:
                    word, label = negatives[pair, s - 1], 0.0
                    if word == target:
                        continue
                f = 0.0
                for d in range(dim):
                    f += w_in[center, d] * w_out[word, d]
                sig, term = _sigmoid_loss(f, label)
                loss += term
                g = (label - sig) * alphas[i]
                for d in range(dim):
                    grad_in[d] += g * w_out[word, d]
                for d in range(dim):
                    w_out[word, d] += g * w_in[center, d]
            for d in range(dim):
                w_in[center, d] += grad_in[d]
            pair += 1
    return loss


def oracle_cbow(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    dim = w_in.shape[1]
    loss = 0.0
    for i in range(doc.shape[0]):
        center = doc[i]
        n_ctx = win_hi[i] - win_lo[i]
        if n_ctx <= 0:
            continue
        context = [doc[j] for j in range(win_lo[i], win_hi[i] + 1) if j != i]
        hidden = [0.0] * dim
        for word in context:
            for d in range(dim):
                hidden[d] += w_in[word, d]
        hidden = [h / n_ctx for h in hidden]
        grad_h = [0.0] * dim
        for s in range(negatives.shape[1] + 1):
            if s == 0:
                word, label = center, 1.0
            else:
                word, label = negatives[i, s - 1], 0.0
                if word == center:
                    continue
            f = 0.0
            for d in range(dim):
                f += hidden[d] * w_out[word, d]
            sig, term = _sigmoid_loss(f, label)
            loss += term
            g = (label - sig) * alphas[i]
            for d in range(dim):
                grad_h[d] += g * w_out[word, d]
            for d in range(dim):
                w_out[word, d] += g * hidden[d]
        for word in context:
            for d in range(dim):
                w_in[word, d] += grad_h[d] / n_ctx
    return loss


def oracle_kmeans_assign(X, centers, out):
    total = 0.0
    for i in range(X.shape[0]):
        best, best_d = 0, np.inf
        for c in range(centers.shape[0]):
            s = 0.0
            for d in range(X.shape[1]):
                diff = X[i, d] - centers[c, d]
                s += diff * diff
            if s < best_d:
                best, best_d = c, s
        out[i] = best
        total += best_d
    return total


def reference_kmeans_assign(X, centers):
    """The per-center numpy loop that the one-pass kernel replaced: a row moves
    to center c only on a strictly smaller distance, so ties keep the lowest id."""
    best_d = np.full(X.shape[0], np.inf)
    ids = np.zeros(X.shape[0], dtype=np.int64)
    for c in range(centers.shape[0]):
        diff = X - centers[c]
        d = np.einsum("ij,ij->i", diff, diff)
        closer = d < best_d
        ids[closer] = c
        best_d[closer] = d[closer]
    return ids, float(best_d.sum())


def _assign_case(case, seed):
    """(X, centers) for one shape of assignment that training or scan meets."""
    rng = np.random.default_rng(500 + seed)
    n, k, dim = int(rng.integers(2, 60)), int(rng.integers(2, 9)), int(rng.integers(1, 60))
    if case == "exact-ties":
        # small integer coordinates: distances are exact, so ties are frequent
        X = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        return X, rng.integers(-2, 3, size=(k, dim)).astype(np.float64)
    if case == "duplicate-centers":
        # fewer distinct rows than clusters, centers seeded from the rows
        X = rng.normal(size=(3, dim))[rng.integers(0, 3, size=n)]
        return X, X[rng.choice(n, size=min(n, k + 3), replace=False)].copy()
    if case == "one-row":
        return rng.normal(size=(1, dim)), rng.normal(size=(8, dim))
    if case == "k=1":
        return rng.normal(size=(n, dim)), rng.normal(size=(1, dim))
    return rng.normal(size=(n, dim)) * 10.0 ** int(rng.integers(-8, 9)), rng.normal(size=(k, dim))


def oracle_kmeans_update(X, assign, sums, counts):
    for i in range(X.shape[0]):
        c = assign[i]
        counts[c] += 1
        for d in range(X.shape[1]):
            sums[c, d] += X[i, d]


def _spans(rng, n, window):
    b = rng.integers(1, window + 1, size=n)
    pos = np.arange(n)
    return np.maximum(0, pos - b), np.minimum(n - 1, pos + b)


def _weights(seed, vocab, dim):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.5, size=(vocab, dim)), rng.normal(0.0, 0.5, size=(vocab, dim))


def _skewed(rng, vocab, size):
    """Word ids drawn like training noise: a Zipf vocabulary raised to 0.75,
    so the frequent words recur within a step as often as they do there."""
    p = np.arange(1, vocab + 1) ** -0.75
    return rng.choice(vocab, size=size, p=p / p.sum()).astype(np.int64)


def _training_case(seed, dim, rows_per_pair):
    """A vocabulary of 40 at a training dimension, with five skewed noise
    words per step; weights scaled so scores stay O(1) at any dim."""
    rng = np.random.default_rng(300 + seed)
    vocab = 40
    w_in = rng.normal(0.0, dim ** -0.5, size=(vocab, dim))
    w_out = rng.normal(0.0, dim ** -0.5, size=(vocab, dim))
    doc = _skewed(rng, vocab, 24)
    lo, hi = _spans(rng, len(doc), 5)
    n_rows = int((hi - lo).sum()) if rows_per_pair else len(doc)
    negatives = _skewed(rng, vocab, (n_rows, 5))
    alphas = np.linspace(0.5, 0.05, len(doc))
    return w_in, w_out, (doc, lo, hi, negatives, alphas)


def _run_both(kernel, oracle, w_in, w_out, args):
    a_in, a_out = w_in.copy(), w_out.copy()
    b_in, b_out = w_in.copy(), w_out.copy()
    loss = kernel(a_in, a_out, *args)
    expected = oracle(b_in, b_out, *args)
    assert loss == pytest.approx(expected, rel=0, abs=1e-12)
    np.testing.assert_allclose(a_in, b_in, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a_out, b_out, rtol=0, atol=1e-12)
    # the case must move both matrices, or the comparison shows nothing
    assert not np.array_equal(a_in, w_in) and not np.array_equal(a_out, w_out)


class TestSkipgram:
    def test_repeated_noise_word_target_in_noise_and_self_context(self):
        w_in, w_out = _weights(1, 5, 8)
        # positions 0 and 1 hold the same word: center == target for pair 0
        doc = np.array([2, 2, 3, 1], dtype=np.int64)
        lo = np.array([0, 0, 1, 2], dtype=np.int64)
        hi = np.array([1, 2, 3, 3], dtype=np.int64)
        negatives = np.array([
            [4, 4, 4],  # one noise word three times
            [0, 2, 0],  # the target (2) among the noise words
            [2, 1, 1],
            [3, 3, 0],
            [1, 4, 1],
            [0, 0, 0],
        ], dtype=np.int64)
        alphas = np.array([0.5, 0.4, 0.3, 0.2])
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out,
                  (doc, lo, hi, negatives, alphas))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_documents(self, seed):
        rng = np.random.default_rng(100 + seed)
        vocab, dim = 4, int(rng.integers(1, 9))
        w_in, w_out = _weights(seed, vocab, dim)
        doc = rng.integers(0, vocab, size=12).astype(np.int64)
        lo, hi = _spans(rng, len(doc), 3)
        negatives = rng.integers(0, vocab, size=(int((hi - lo).sum()), 4)).astype(np.int64)
        alphas = np.linspace(0.5, 0.05, len(doc))
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out,
                  (doc, lo, hi, negatives, alphas))

    @pytest.mark.parametrize("dim", [10, 300])
    @pytest.mark.parametrize("seed", range(2))
    def test_training_shapes(self, seed, dim):
        w_in, w_out, args = _training_case(seed, dim, rows_per_pair=True)
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out, args)

    def test_one_noise_word_in_every_slot_and_target_alone(self):
        w_in, w_out = _weights(5, 6, 10)
        doc = np.array([1, 2, 3], dtype=np.int64)
        lo = np.array([0, 0, 1], dtype=np.int64)
        hi = np.array([1, 2, 2], dtype=np.int64)
        negatives = np.array([
            [4] * 5,  # pair (1, 2): one noise word five times
            [1] * 5,  # pair (2, 1): every noise word is the target
            [5] * 5,
            [2] * 5,  # pair (3, 2): the target alone again
        ], dtype=np.int64)
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out,
                  (doc, lo, hi, negatives, np.array([0.5, 0.4, 0.3])))

    def test_no_negatives(self):
        w_in, w_out = _weights(3, 3, 4)
        doc = np.array([0, 1, 2, 1], dtype=np.int64)
        lo = np.array([0, 0, 1, 2], dtype=np.int64)
        hi = np.array([1, 2, 3, 3], dtype=np.int64)
        negatives = np.zeros((6, 0), dtype=np.int64)
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out,
                  (doc, lo, hi, negatives, np.full(4, 0.3)))


class TestCbow:
    def test_repeated_context_and_noise_words(self):
        w_in, w_out = _weights(2, 5, 8)
        doc = np.array([1, 1, 3, 1, 0], dtype=np.int64)
        lo = np.array([0, 0, 0, 1, 3], dtype=np.int64)
        hi = np.array([1, 3, 4, 4, 4], dtype=np.int64)
        negatives = np.array([
            [4, 4, 4],
            [1, 2, 2],  # the center (1) among the noise words
            [3, 0, 3],
            [2, 2, 1],
            [0, 4, 0],
        ], dtype=np.int64)
        alphas = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        _run_both(_kernels.cbow_doc, oracle_cbow, w_in, w_out,
                  (doc, lo, hi, negatives, alphas))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_documents(self, seed):
        rng = np.random.default_rng(200 + seed)
        vocab, dim = 4, int(rng.integers(1, 9))
        w_in, w_out = _weights(seed, vocab, dim)
        doc = rng.integers(0, vocab, size=12).astype(np.int64)
        lo, hi = _spans(rng, len(doc), 3)
        negatives = rng.integers(0, vocab, size=(len(doc), 4)).astype(np.int64)
        alphas = np.linspace(0.5, 0.05, len(doc))
        _run_both(_kernels.cbow_doc, oracle_cbow, w_in, w_out,
                  (doc, lo, hi, negatives, alphas))

    @pytest.mark.parametrize("dim", [10, 300])
    @pytest.mark.parametrize("seed", range(2))
    def test_training_shapes(self, seed, dim):
        w_in, w_out, args = _training_case(seed, dim, rows_per_pair=False)
        _run_both(_kernels.cbow_doc, oracle_cbow, w_in, w_out, args)

    def test_one_noise_word_in_every_slot_and_center_alone(self):
        w_in, w_out = _weights(6, 6, 10)
        doc = np.array([1, 2, 3, 1], dtype=np.int64)
        lo = np.array([0, 0, 1, 2], dtype=np.int64)
        hi = np.array([1, 2, 3, 3], dtype=np.int64)
        negatives = np.array([
            [4] * 5,  # one noise word five times
            [2] * 5,  # every noise word is the center
            [5] * 5,
            [1] * 5,
        ], dtype=np.int64)
        _run_both(_kernels.cbow_doc, oracle_cbow, w_in, w_out,
                  (doc, lo, hi, negatives, np.array([0.5, 0.4, 0.3, 0.2])))

    def test_single_word_document_is_a_no_op(self):
        w_in, w_out = _weights(4, 2, 3)
        doc = np.array([1], dtype=np.int64)
        zero = np.zeros(1, dtype=np.int64)
        a_in, a_out = w_in.copy(), w_out.copy()
        loss = _kernels.cbow_doc(a_in, a_out, doc, zero, zero,
                                 np.zeros((1, 2), dtype=np.int64), np.ones(1))
        assert loss == 0.0
        assert np.array_equal(a_in, w_in) and np.array_equal(a_out, w_out)


class TestTrainingWithOracleKernels:
    """``train_embedding`` run on the oracles gives the same vectors.

    This pins the argument layout the two sides agree on (one noise row per
    skip-gram pair or CBOW position, inclusive spans), which the per-kernel
    cases above take as given.
    """

    @pytest.mark.parametrize("sg, name, oracle", [
        (1, "skipgram_doc", oracle_skipgram),
        (0, "cbow_doc", oracle_cbow),
    ])
    def test_same_vectors(self, monkeypatch, sg, name, oracle):
        rng = np.random.default_rng(11)
        words = ["call", "value", "balance", "msg", "sender", "send", "require",
                 "now", "owner", "transfer", "amount", "mapping"]
        docs = [[words[i] for i in _skewed(rng, len(words), n)] for n in (14, 9, 20, 12)]
        config = EmbeddingConfig(vector_size=6, epochs=3, sg=sg, seed=3)
        expected = train_embedding(docs, config)
        monkeypatch.setattr(_kernels, name, oracle)
        got = train_embedding(docs, config)
        assert got.vocab == expected.vocab
        np.testing.assert_allclose(got.vectors, expected.vectors, rtol=0, atol=1e-12)


class TestKmeans:
    @pytest.mark.parametrize("seed", range(5))
    def test_update_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        n, k, dim = 40, 5, int(rng.integers(1, 9))
        X = rng.normal(size=(n, dim))
        assign = rng.integers(0, k, size=n).astype(np.int64)
        sums, counts = np.zeros((k, dim)), np.zeros(k, dtype=np.int64)
        got_sums, got_counts = _kernels.kmeans_update(X, assign, k)
        oracle_kmeans_update(X, assign, sums, counts)
        assert np.array_equal(got_sums, sums)
        assert np.array_equal(got_counts, counts)

    @pytest.mark.parametrize("seed", range(5))
    def test_assign_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k, dim = 50, 6, int(rng.integers(1, 9))
        X = rng.normal(size=(n, dim))
        centers = rng.normal(size=(k, dim))
        expected = np.empty(n, dtype=np.int64)
        got, total = _kernels.kmeans_assign(X, centers)
        oracle_total = oracle_kmeans_assign(X, centers, expected)
        assert np.array_equal(got, expected)
        assert total == pytest.approx(oracle_total, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("case",
                             ["random", "exact-ties", "duplicate-centers", "one-row", "k=1"])
    def test_assign_bit_equal_to_per_center_loop(self, case, seed):
        X, centers = _assign_case(case, seed)
        ids, total = _kernels.kmeans_assign(X, centers)
        expected_ids, expected_total = reference_kmeans_assign(X, centers)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, expected_ids)
        assert total.hex() == expected_total.hex()

    @pytest.mark.parametrize("seed", range(4))
    def test_fit_with_duplicate_centers_matches_per_center_loop(self, monkeypatch, seed):
        # 3 distinct rows and k=5: two seeded centers coincide, the later one
        # gets no members, and kmeans_fit re-seeds it
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3, 4))[rng.integers(0, 3, size=30)]
        expected = kmeans_fit(X, k=5, seed=seed)
        monkeypatch.setattr(_kernels, "kmeans_assign", reference_kmeans_assign)
        got = kmeans_fit(X, k=5, seed=seed)
        assert np.array_equal(got.centers, expected.centers)
        assert np.array_equal(got.assignments, expected.assignments)
        assert got.objective_history == expected.objective_history
        assert got.iterations_run == expected.iterations_run

    def test_exact_ties_go_to_lowest_id(self):
        # integer coordinates: every distance is exact, so ties are real ties
        X = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        centers = np.array([[2.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        expected = np.empty(5, dtype=np.int64)
        got, total = _kernels.kmeans_assign(X, centers)
        oracle_total = oracle_kmeans_assign(X, centers, expected)
        assert got.tolist() == expected.tolist() == [0, 1, 0, 4, 4]
        assert total == oracle_total == 33.0
