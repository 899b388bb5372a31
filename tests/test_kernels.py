"""The numpy kernels against scalar reference loops.

The oracles below are plain per-dimension loops with the word2vec update
order: one (center, target) pair at a time, the target first, then each
noise word in row order, each updating its output row before the next is
scored. The kernels must reproduce them to rounding, including when a noise
row repeats a word, when a noise word equals the target, and when a word is
its own context.

The ``reference_*`` functions are earlier numpy forms of the kernels. The
kernels must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from conftest import clean_source, reentrant_source, timestamp_source
from ethcluster import _kernels
from ethcluster.cluster import kmeans_fit
from ethcluster.embed import (
    EmbeddingConfig,
    negative_sampling_gradients,
    negative_sampling_loss,
    train_embedding,
)
from ethcluster.preprocess import preprocess_contract

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


def reference_negative_step(w_out, h, words, alpha):
    """The step before its numpy calls were trimmed: it indexes ``w_out`` by a
    Python list twice, clamps with builtin ``min``/``max`` and forms the row
    update with ``np.multiply.outer``."""
    target = words[0]
    slots = {}
    for word in words:
        slots.setdefault(word, len(slots))
    idx = list(slots)
    rows = w_out.take(idx, axis=0)
    scores = rows.dot(h).tolist()
    coef = [0.0] * len(idx)
    exp, log = math.exp, math.log
    loss = repeat = 0.0
    hh = None
    label = 1.0
    for word in words:
        if label == 0.0 and word == target:
            continue
        s = slots[word]
        prior = coef[s]
        f = scores[s]
        if prior:
            if hh is None:
                hh = float(h.dot(h))
            f += prior * hh
        f = min(max(f, -_MAX_SCORE), _MAX_SCORE)
        sig = 1.0 / (1.0 + exp(-f))
        loss -= log(sig) if label == 1.0 else log(1.0 - sig)
        g = (label - sig) * alpha
        repeat += g * prior
        coef[s] = prior + g
        label = 0.0
    c = np.array(coef)
    grad = c.dot(rows)
    if repeat:
        grad += repeat * h
    rows += np.multiply.outer(c, h)
    w_out[idx] = rows
    return grad, loss


def reference_skipgram_doc(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    words = doc.tolist()
    noise = negatives.tolist()
    loss = 0.0
    pair = 0
    for i, center in enumerate(words):
        v = w_in[center]
        alpha = float(alphas[i])
        for j in range(int(win_lo[i]), int(win_hi[i]) + 1):
            if j == i:
                continue
            grad, step_loss = reference_negative_step(w_out, v, [words[j]] + noise[pair], alpha)
            v += grad
            loss += step_loss
            pair += 1
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


def _training_case(seed, dim):
    """A vocabulary of 40 at a training dimension, with five skewed noise
    words per step; weights scaled so scores stay O(1) at any dim."""
    rng = np.random.default_rng(300 + seed)
    vocab = 40
    w_in = rng.normal(0.0, dim ** -0.5, size=(vocab, dim))
    w_out = rng.normal(0.0, dim ** -0.5, size=(vocab, dim))
    doc = _skewed(rng, vocab, 24)
    lo, hi = _spans(rng, len(doc), 5)
    negatives = _skewed(rng, vocab, (int((hi - lo).sum()), 5))
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
        w_in, w_out, args = _training_case(seed, dim)
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


class TestTrainingWithOracleKernels:
    """``train_embedding`` run on the oracles gives the same vectors.

    This pins the argument layout the two sides agree on (one noise row per
    skip-gram pair, inclusive spans), which the per-kernel cases above take
    as given.
    """

    def test_same_vectors(self, monkeypatch):
        rng = np.random.default_rng(11)
        words = ["call", "value", "balance", "msg", "sender", "send", "require",
                 "now", "owner", "transfer", "amount", "mapping"]
        docs = [[words[i] for i in _skewed(rng, len(words), n)] for n in (14, 9, 20, 12)]
        config = EmbeddingConfig(vector_size=6, epochs=3, seed=3)
        expected = train_embedding(docs, config)
        monkeypatch.setattr(_kernels, "skipgram_doc", oracle_skipgram)
        got = train_embedding(docs, config)
        assert got.vocab == expected.vocab
        np.testing.assert_allclose(got.vectors, expected.vectors, rtol=0, atol=1e-12)


def _step_case(case, dim):
    """(w_out, h, words) for one step, words being the target and then the noise."""
    rng = np.random.default_rng(700 + dim)
    w_out = rng.normal(0.0, dim ** -0.5, size=(8, dim))
    h = rng.normal(0.0, dim ** -0.5, size=dim)
    repeated = [1, 4, 2, 4, 4, 3]
    if case == "target-in-noise":
        return w_out, h, [2, 5, 2, 6, 2, 5]
    if case == "all-noise-is-target":
        return w_out, h, [3] * 6
    if case == "no-negatives":
        return w_out, h, [5]
    if case in ("above+30", "below-30"):
        # each row scores h at a drawn value beyond the clamp
        sign = 1.0 if case == "above+30" else -1.0
        w_out = sign * rng.uniform(31.0, 60.0, size=(8, 1)) * h / h.dot(h)
    elif case == "exactly+-30":
        # h picks the first coordinate, so each score is that entry, exactly
        h = np.zeros(dim)
        h[0] = 1.0
        w_out[:, 0] = [30.0, -30.0] * 4
    return w_out, h, repeated


class TestBitEqualToReferenceStep:
    """The kernels against the ``reference_*`` step: equal ``w_in`` and
    ``w_out`` arrays and a loss with the same ``float.hex()``."""

    @pytest.mark.parametrize("dim", [1, 10, 300])
    @pytest.mark.parametrize("case", ["repeated-noise", "target-in-noise", "all-noise-is-target",
                                      "no-negatives", "above+30", "below-30", "exactly+-30"])
    def test_step(self, case, dim):
        w_out, h, words = _step_case(case, dim)
        scores = w_out[sorted(set(words))].dot(h)
        # the case must make the scores it names
        assert {"above+30": (scores > _MAX_SCORE).all(),
                "below-30": (scores < -_MAX_SCORE).all(),
                "exactly+-30": set(np.abs(scores)) == {_MAX_SCORE}}.get(case, True)
        a_out, b_out = w_out.copy(), w_out.copy()
        grad, loss = _kernels._negative_step(a_out, h.copy(), words, 0.3)
        expected_grad, expected_loss = reference_negative_step(b_out, h.copy(), words, 0.3)
        assert np.array_equal(grad, expected_grad)
        assert np.array_equal(a_out, b_out)
        assert loss.hex() == expected_loss.hex()
        assert not np.array_equal(a_out, w_out)

    @pytest.mark.parametrize("dim", [1, 10, 300])
    def test_step_on_negative_zero_rows(self, dim):
        # The one known deviation: where a row holds -0.0 and its update is a
        # -0.0 product, the reference adds -0.0 and keeps -0.0, but the
        # kernel's k=1 np.dot returns the product as +0.0. train_embedding
        # never meets it, as its w_out starts at +0.0.
        w_out, h, words = _step_case("repeated-noise", dim)
        w_out[:, ::2] = -0.0
        h[::3] = 0.0
        a_out, b_out = w_out.copy(), w_out.copy()
        grad, loss = _kernels._negative_step(a_out, h.copy(), words, 0.3)
        expected_grad, expected_loss = reference_negative_step(b_out, h.copy(), words, 0.3)
        assert np.array_equal(grad, expected_grad)
        assert loss.hex() == expected_loss.hex()
        assert np.array_equal(a_out, b_out)
        differ = a_out.view(np.int64) != b_out.view(np.int64)
        assert differ.any()
        assert (b_out[differ] == 0).all() and np.signbit(b_out[differ]).all()
        assert (a_out[differ] == 0).all() and not np.signbit(a_out[differ]).any()

    @pytest.mark.parametrize("dim", [1, 10, 300])
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_document(self, scale, dim):
        # scale 50 puts most scores beyond the clamp at every dim
        w_in, w_out, args = _training_case(0, dim)
        w_in *= scale
        w_out *= scale
        a_in, a_out = w_in.copy(), w_out.copy()
        b_in, b_out = w_in.copy(), w_out.copy()
        loss = _kernels.skipgram_doc(a_in, a_out, *args)
        expected = reference_skipgram_doc(b_in, b_out, *args)
        assert np.array_equal(a_in, b_in) and np.array_equal(a_out, b_out)
        assert loss.hex() == expected.hex()
        assert not np.array_equal(a_in, w_in) and not np.array_equal(a_out, w_out)


class TestStepDescendsTheObjective:
    """A step whose target and noise words are distinct is one SGD step on
    ``negative_sampling_loss``, the objective the gradient check differentiates:
    ``w_out`` moves by ``-alpha * g_out``, the returned gradient is
    ``-alpha * g_in[center]``, and the returned loss is the objective's."""

    @pytest.mark.parametrize("seed", range(20))
    def test_step_is_sgd_on_the_loss(self, seed):
        rng = np.random.default_rng(900 + seed)
        for _ in range(10):
            vocab, dim = int(rng.integers(8, 30)), int(rng.integers(1, 20))
            w_in = rng.uniform(-1.0, 1.0, size=(vocab, dim))
            w_out = rng.uniform(-1.0, 1.0, size=(vocab, dim))
            center = int(rng.integers(vocab))
            target, *noise = rng.choice(vocab, size=int(rng.integers(1, 8)), replace=False).tolist()
            alpha = float(rng.uniform(0.001, 0.5))
            pairs = [(center, target, noise)]
            g_in, g_out = negative_sampling_gradients(w_in, w_out, pairs)
            moved = w_out.copy()
            grad, loss = _kernels._negative_step(moved, w_in[center].copy(), [target, *noise],
                                                 alpha)
            np.testing.assert_allclose(grad, -alpha * g_in[center], rtol=0, atol=1e-12)
            np.testing.assert_allclose(moved - w_out, -alpha * g_out, rtol=0, atol=1e-12)
            assert loss == pytest.approx(negative_sampling_loss(w_in, w_out, pairs),
                                         rel=0, abs=1e-12)


class TestTrainingWithReferenceKernels:
    """``train_embedding`` on the reference kernels gives byte-equal vectors
    in both benchmark regimes: dim 10 over 5 epochs and dim 300 over 1."""

    @pytest.mark.parametrize("dim, epochs", [(10, 5), (300, 1)])
    def test_byte_equal_vectors(self, monkeypatch, dim, epochs):
        docs = [preprocess_contract(source(i)).tokens
                for source in (reentrant_source, clean_source, timestamp_source) for i in range(3)]
        config = EmbeddingConfig(vector_size=dim, epochs=epochs, seed=5)
        expected = train_embedding(docs, config)
        monkeypatch.setattr(_kernels, "skipgram_doc", reference_skipgram_doc)
        got = train_embedding(docs, config)
        assert got.vocab == expected.vocab
        assert got.vectors.tobytes() == expected.vectors.tobytes()


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
