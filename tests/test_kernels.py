"""The numpy kernels against scalar reference loops.

The skip-gram oracle is a plain per-dimension loop of the minibatch rule: the
(center, target) pairs in word2vec's order, cut every ``BATCH`` pairs, and
every pair of a batch scored against the weights as they stood before it,
each row then moved by the sum of its pairs' steps. The kernel must
reproduce it to rounding, including when a noise row repeats a word, when a
noise word equals the target, and when a word is its own context.

The ``reference_*`` functions are plain numpy forms of the kernels. The
kernels must reproduce them bit for bit.

The SGD kernel returns no loss, so these tests compare weights only. The
objective itself is pinned elsewhere: ``TestStepDescendsTheObjective`` holds
each step to ``-alpha`` times ``negative_sampling_gradients``, and
``tests/test_embed.py::TestGradients`` and acceptance criterion 5 hold those
gradients to central differences of ``negative_sampling_loss``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import clean_source, reentrant_source, timestamp_source
from ethcluster import _kernels, embed
from ethcluster._kernels import BATCH
from ethcluster.cluster import kmeans_fit
from ethcluster.embed import (
    EmbeddingConfig,
    negative_sampling_gradients,
    train_embedding,
)
from ethcluster.preprocess import preprocess_contract

_MAX_SCORE = 30.0


def _sigmoid(f):
    return 1.0 / (1.0 + math.exp(-min(max(f, -_MAX_SCORE), _MAX_SCORE)))


def _pairs_and_batches(win_lo, win_hi):
    """The (center, context) positions in enumeration order, and the pair
    indices of each batch: every BATCH consecutive pairs, the last batch
    holding what is left."""
    pairs = [(i, j) for i in range(len(win_lo))
             for j in range(win_lo[i], win_hi[i] + 1) if j != i]
    return pairs, [list(range(start, min(start + BATCH, len(pairs))))
                   for start in range(0, len(pairs), BATCH)]


def _words(doc, negatives, pair, j):
    """(word, label) of one pair: the target, then the noise words that differ from it."""
    target = doc[j]
    return [(target, 1.0)] + [(w, 0.0) for w in negatives[pair] if w != target]


def oracle_skipgram(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    dim = w_in.shape[1]
    pairs, batches = _pairs_and_batches(win_lo, win_hi)
    for batch in batches:
        before_in, before_out = w_in.copy(), w_out.copy()
        for pair in batch:
            i, j = pairs[pair]
            center = doc[i]
            for word, label in _words(doc, negatives, pair, j):
                f = 0.0
                for d in range(dim):
                    f += before_in[center, d] * before_out[word, d]
                g = (label - _sigmoid(f)) * alphas[i]
                for d in range(dim):
                    w_in[center, d] += g * before_out[word, d]
                    w_out[word, d] += g * before_in[center, d]


def reference_skipgram_doc(w_in, w_out, doc, win_lo, win_hi, negatives, alphas):
    """The minibatch step with the kernel's three products but none of its
    index arithmetic: pairs and batches enumerated in Python, distinct rows
    from sorted sets and the coefficients added one at a time."""
    doc, negatives = doc.tolist(), negatives.tolist()
    pairs, batches = _pairs_and_batches(win_lo.tolist(), win_hi.tolist())
    for batch in batches:
        steps = [(doc[pairs[p][0]], _words(doc, negatives, p, pairs[p][1]), float(alphas[pairs[p][0]]))
                 for p in batch]
        rows_in = sorted({center for center, _, _ in steps})
        rows_out = sorted({word for _, words, _ in steps for word, _ in words})
        h, u = w_in[rows_in], w_out[rows_out]
        scores = h.dot(u.T)
        f = np.array([scores[rows_in.index(center), rows_out.index(word)]
                      for center, words, _ in steps for word, _ in words])
        sig = (1.0 / (1.0 + np.exp(-np.clip(f, -_MAX_SCORE, _MAX_SCORE)))).tolist()
        c = np.zeros((len(rows_in), len(rows_out)))
        k = 0
        for center, words, alpha in steps:
            for word, label in words:
                c[rows_in.index(center), rows_out.index(word)] += (label - sig[k]) * alpha
                k += 1
        w_in[rows_in] = h + c.dot(u)
        w_out[rows_out] = u + c.T.dot(h)


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
    to center c only on a strictly smaller distance, so ties keep the lowest id.
    Returns the ids, the summed distances and each center's row of distances."""
    best_d = np.full(X.shape[0], np.inf)
    ids = np.zeros(X.shape[0], dtype=np.int64)
    rows = []
    for c in range(centers.shape[0]):
        diff = X - centers[c]
        d = np.einsum("ij,ij->i", diff, diff)
        rows.append(d)
        closer = d < best_d
        ids[closer] = c
        best_d[closer] = d[closer]
    return ids, float(best_d.sum()), np.array(rows)


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
    kernel(a_in, a_out, *args)
    oracle(b_in, b_out, *args)
    # the kernel sums each batch's products in its own order, the oracle
    # term by term, so they agree to rounding relative to the values
    np.testing.assert_allclose(a_in, b_in, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a_out, b_out, rtol=1e-12, atol=1e-12)
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

    def test_one_token_document(self):
        w_in, w_out = _weights(4, 3, 4)
        before_in, before_out = w_in.copy(), w_out.copy()
        _kernels.skipgram_doc(w_in, w_out, np.array([2]), np.array([0]), np.array([0]),
                              np.zeros((0, 5), dtype=np.int64), np.array([0.3]))
        assert np.array_equal(w_in, before_in) and np.array_equal(w_out, before_out)

    @pytest.mark.parametrize("dim", [3, 10])
    def test_run_longer_than_batch(self, dim):
        rng = np.random.default_rng(40 + dim)
        w_in, w_out = _weights(dim, 12, dim)
        doc = _skewed(rng, 12, 60)
        lo, hi = _spans(rng, len(doc), 5)
        negatives = _skewed(rng, 12, (int((hi - lo).sum()), 5))
        assert len(_pairs_and_batches(lo, hi)[1]) >= 3
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out,
                  (doc, lo, hi, negatives, np.linspace(0.3, 0.01, len(doc))))

    def test_batch_boundary_inside_a_document(self):
        # three documents in one call, as train_embedding concatenates them:
        # a one-token document, then two whose windows are shifted by offset
        rng = np.random.default_rng(41)
        w_in, w_out = _weights(6, 10, 5)
        lengths = [1, 9, 14]
        doc = _skewed(rng, 10, sum(lengths))
        spans = [_spans(rng, n, 5) for n in lengths]
        offsets = np.cumsum([0] + lengths[:-1])
        lo = np.concatenate([off + s[0] for off, s in zip(offsets, spans)])
        hi = np.concatenate([off + s[1] for off, s in zip(offsets, spans)])
        pairs, batches = _pairs_and_batches(lo, hi)
        cuts = [pairs[batch[0]][0] for batch in batches[1:]]
        assert any(offsets[2] < cut < sum(lengths) for cut in cuts)
        negatives = _skewed(rng, 10, (len(pairs), 5))
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out,
                  (doc, lo, hi, negatives, np.linspace(0.3, 0.01, len(doc))))

    def test_batch_boundary_inside_a_position(self):
        # full windows of 5 over 20 tokens: position 7 holds pair indices
        # 55-64, so the cut after the first BATCH pairs splits them
        rng = np.random.default_rng(42)
        w_in, w_out = _weights(7, 10, 5)
        doc = _skewed(rng, 10, 20)
        pos = np.arange(len(doc))
        lo, hi = np.maximum(0, pos - 5), np.minimum(len(doc) - 1, pos + 5)
        pairs = _pairs_and_batches(lo, hi)[0]
        assert pairs[BATCH - 1][0] == pairs[BATCH][0] == 7
        negatives = _skewed(rng, 10, (len(pairs), 5))
        args = (doc, lo, hi, negatives, np.linspace(0.3, 0.01, len(doc)))
        _run_both(_kernels.skipgram_doc, oracle_skipgram, w_in, w_out, args)
        TestBitEqualToReferenceStep._both(w_in, w_out, args)


@given(arrays(np.int64, array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=70),
              elements=st.integers(0, 600)))
@example(np.array([7], dtype=np.int64))
@example(np.full(64, 3, dtype=np.int64))
@example(np.full((64, 6), 0, dtype=np.int64))
@example(np.zeros(1, dtype=np.int64))
def test_distinct_rows_equal_np_unique(x):
    # The slot is as short as x allows (one word when x is all zeros) and
    # starts as junk. The second input shares values with the first, as a
    # rule at other ranks, so a slot entry left from the first call shows.
    slot = np.full(x.max() + 1, -7, dtype=np.int64)
    second = np.concatenate((x.ravel()[::2], x.max() - x.ravel()))
    for y in (x, second):
        rows, inverse = _kernels._distinct(y, slot)
        expected_rows, expected_inverse = np.unique(y, return_inverse=True)
        assert rows.dtype == y.dtype and np.array_equal(rows, expected_rows)
        assert inverse.shape == y.shape
        assert np.array_equal(inverse, expected_inverse.reshape(y.shape))


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
        docs = [[words[i] for i in _skewed(rng, len(words), n)] for n in (14, 9, 1, 20, 12)]
        config = EmbeddingConfig(vector_size=6, epochs=3, seed=3)
        expected = train_embedding(docs, config)
        monkeypatch.setattr(_kernels, "skipgram_doc", oracle_skipgram)
        got = train_embedding(docs, config)
        assert got.vocab == expected.vocab
        np.testing.assert_allclose(got.vectors, expected.vectors, rtol=0, atol=1e-12)


def _replay_draws(docs, config):
    """The draws of ``train_embedding``, replayed one chunk at a time with a
    loop over each chunk's documents: (tokens, window start, window end,
    noise words, learning rates) per chunk and epoch, in order. A chunk
    takes documents until it holds ``embed.CHUNK`` tokens or the corpus
    ends."""
    vocab, freqs = embed._build_vocab(docs)
    weights = freqs ** embed.NOISE_POWER
    cdf = np.cumsum(weights / weights.sum())
    chunks, chunk = [], []
    for doc in docs:
        chunk.append([vocab[w] for w in doc])
        if sum(map(len, chunk)) >= embed.CHUNK:
            chunks.append(chunk)
            chunk = []
    if sum(map(len, chunk)):
        chunks.append(chunk)
    rng = np.random.default_rng(config.seed)
    rng.uniform(size=(len(vocab), config.vector_size))  # the initial w_in
    total = config.epochs * sum(len(doc) for doc in docs)
    draws, position = [], 0
    for _ in range(config.epochs):
        for chunk in chunks:
            n = sum(map(len, chunk))
            b = rng.integers(1, embed.WINDOW + 1, size=n)
            lo, hi, start = [], [], 0
            for doc in chunk:
                for i in range(start, start + len(doc)):
                    lo.append(max(start, i - b[i]))
                    hi.append(min(start + len(doc) - 1, i + b[i]))
                start += len(doc)
            lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
            u = rng.random((int((hi - lo).sum()), embed.NEGATIVE))
            negs = np.minimum(np.searchsorted(cdf, u, side="right"), len(vocab) - 1)
            decay = (position + np.arange(n)) / total
            alphas = np.maximum(embed.MIN_LEARNING_RATE, embed.LEARNING_RATE
                                - (embed.LEARNING_RATE - embed.MIN_LEARNING_RATE) * decay)
            draws.append((np.array(sum(chunk, []), dtype=np.int64), lo, hi, negs, alphas))
            position += n
    return draws


class TestKernelCalls:
    """What ``train_embedding`` hands the kernel: per epoch, the corpus in
    chunks of whole documents, each closed at the first document end that
    reaches ``CHUNK`` tokens, with the draws of one chunk at a time and no
    window crossing a document."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 23])
    def test_calls_replay_the_per_document_draws(self, monkeypatch, seed):
        rng = np.random.default_rng(60 + seed)
        words = [f"w{i}" for i in range(15)]
        lengths = [0, 1, 40] + rng.integers(1, 16, size=8).tolist()
        rng.shuffle(lengths)
        docs = [[words[i] for i in _skewed(rng, len(words), n)] for n in lengths]
        config = EmbeddingConfig(vector_size=4, epochs=2, seed=seed)
        calls = []
        kernel = _kernels.skipgram_doc

        def record(w_in, w_out, *args):
            calls.append([a.copy() for a in args])
            kernel(w_in, w_out, *args)

        monkeypatch.setattr(embed, "CHUNK", 12)
        monkeypatch.setattr(_kernels, "skipgram_doc", record)
        train_embedding(docs, config)

        draws = _replay_draws(docs, config)
        assert len(calls) == len(draws) >= 3 * config.epochs
        corpus = np.array([embed._build_vocab(docs)[0][w] for doc in docs for w in doc])
        ends = np.cumsum(lengths)
        doc_of = np.repeat(np.arange(len(docs)), lengths)  # the document of each position
        start = 0
        for (doc, lo, hi, negs, alphas), want in zip(calls, draws):
            end = start + len(doc)
            assert np.array_equal(doc, corpus[start:end])
            # a chunk starts and ends at a document end, and no end before its
            # own reaches CHUNK tokens from its start
            assert start in ends or start == 0
            assert end in ends
            inner = ends[(ends > start) & (ends < end)]
            assert (inner - start < embed.CHUNK).all()
            assert end - start >= embed.CHUNK or end == len(corpus)
            # every window stays inside its position's document
            pos = np.arange(start, end)
            assert (doc_of[start + lo] == doc_of[pos]).all()
            assert (doc_of[start + hi] == doc_of[pos]).all()
            assert len(negs) == int((hi - lo).sum())
            for got, expected in zip((doc, lo, hi, negs, alphas), want):
                assert np.array_equal(got, expected)
            start = end % len(corpus)
        assert start == 0  # every epoch ends at the end of the corpus


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


def _one_pair(w_out, h, words):
    """Kernel arguments for one pair: center word 0, whose input row is ``h``,
    against ``words`` (the target, then the noise)."""
    w_in = np.zeros_like(w_out)
    w_in[0] = h
    doc = np.array([0, words[0]], dtype=np.int64)
    negatives = np.array([words[1:]], dtype=np.int64).reshape(1, -1)
    return w_in, (doc, np.array([0, 1]), np.array([1, 1]), negatives, np.array([0.3, 0.3]))


class TestBitEqualToReferenceStep:
    """The kernel against ``reference_skipgram_doc``: equal ``w_in`` and
    ``w_out`` arrays."""

    @staticmethod
    def _both(w_in, w_out, args):
        a_in, a_out = w_in.copy(), w_out.copy()
        b_in, b_out = w_in.copy(), w_out.copy()
        _kernels.skipgram_doc(a_in, a_out, *args)
        reference_skipgram_doc(b_in, b_out, *args)
        assert a_in.tobytes() == b_in.tobytes() and a_out.tobytes() == b_out.tobytes()
        return a_in, a_out

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
        w_in, args = _one_pair(w_out, h, words)
        a_in, a_out = self._both(w_in, w_out, args)
        assert not np.array_equal(a_in, w_in) and not np.array_equal(a_out, w_out)

    @pytest.mark.parametrize("dim", [1, 10, 300])
    def test_step_on_negative_zero_rows(self, dim):
        # train_embedding never meets -0.0 (its w_out starts at +0.0), but a
        # row the step touches is rewritten as row + update everywhere, so a
        # -0.0 entry with a zero update turns +0.0, as in the reference
        w_out, h, words = _step_case("repeated-noise", dim)
        w_out[:, ::2] = -0.0
        h[::3] = 0.0
        w_in, args = _one_pair(w_out, h, words)
        _, a_out = self._both(w_in, w_out, args)
        turned = (a_out.view(np.int64) != w_out.view(np.int64)) & (a_out == 0)
        assert turned.any()
        assert not np.signbit(a_out[turned]).any()

    @pytest.mark.parametrize("dim", [1, 10, 300])
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_document(self, scale, dim):
        # scale 50 puts most scores beyond the clamp at every dim
        w_in, w_out, args = _training_case(0, dim)
        w_in *= scale
        w_out *= scale
        a_in, a_out = self._both(w_in, w_out, args)
        assert not np.array_equal(a_in, w_in) and not np.array_equal(a_out, w_out)


class TestStepDescendsTheObjective:
    """Each batch is one SGD step on ``negative_sampling_loss``: at one
    learning rate, ``w_in`` and ``w_out`` move by ``-alpha`` times
    ``negative_sampling_gradients`` over the batch's pairs at the weights
    before the batch. Those gradients are the objective's because
    ``tests/test_embed.py::TestGradients`` and acceptance criterion 5 check
    them against central differences of the loss. Repeated words, self
    contexts and noise words equal to the target are all allowed."""

    @pytest.mark.parametrize("seed", range(20))
    def test_step_is_sgd_on_the_loss(self, seed):
        rng = np.random.default_rng(900 + seed)
        for _ in range(10):
            vocab, dim = int(rng.integers(2, 30)), int(rng.integers(1, 20))
            w_in = rng.uniform(-1.0, 1.0, size=(vocab, dim))
            w_out = rng.uniform(-1.0, 1.0, size=(vocab, dim))
            doc = rng.integers(vocab, size=int(rng.integers(2, 11))).astype(np.int64)
            lo, hi = _spans(rng, len(doc), 3)
            pairs, batches = _pairs_and_batches(lo, hi)
            assert len(batches) == 1
            negatives = rng.integers(vocab, size=(len(pairs), int(rng.integers(0, 7))))
            alpha = float(rng.uniform(0.001, 0.5))
            objective = [(doc[i], doc[j], negatives[p].tolist()) for p, (i, j) in enumerate(pairs)]
            g_in, g_out = negative_sampling_gradients(w_in, w_out, objective)
            moved_in, moved_out = w_in.copy(), w_out.copy()
            _kernels.skipgram_doc(moved_in, moved_out, doc, lo, hi,
                                  negatives.astype(np.int64), np.full(len(doc), alpha))
            np.testing.assert_allclose(moved_in - w_in, -alpha * g_in, rtol=0, atol=1e-12)
            np.testing.assert_allclose(moved_out - w_out, -alpha * g_out, rtol=0, atol=1e-12)


class TestTrainingWithReferenceKernels:
    """``train_embedding`` on the reference kernel gives byte-equal vectors
    in both benchmark regimes: dim 10 over 5 epochs and dim 300 over 1."""

    @pytest.mark.parametrize("dim, epochs", [(10, 5), (300, 1)])
    def test_byte_equal_vectors(self, monkeypatch, dim, epochs):
        docs = [preprocess_contract(source(i)).tokens
                for source in (reentrant_source, clean_source, timestamp_source) for i in range(3)]
        config = EmbeddingConfig(vector_size=dim, epochs=epochs, seed=5)
        expected = train_embedding(docs, config)
        self._same_bytes(monkeypatch, docs, config, expected)

    @staticmethod
    def _same_bytes(monkeypatch, docs, config, expected):
        monkeypatch.setattr(_kernels, "skipgram_doc", reference_skipgram_doc)
        got = train_embedding(docs, config)
        assert got.vocab == expected.vocab
        assert got.vectors.tobytes() == expected.vectors.tobytes()

    def test_byte_equal_vectors_over_a_large_vocabulary(self, monkeypatch):
        # 600 words, each at least once: a batch touches at most 64 input and
        # 384 output rows, so most rows are absent from every batch
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(600)]
        stream = rng.permutation(np.concatenate([np.arange(600), _skewed(rng, 600, 300)]))
        cuts = np.sort(rng.choice(np.arange(1, len(stream)), size=24, replace=False))
        docs = [[words[i] for i in part] for part in np.split(stream, cuts)]
        config = EmbeddingConfig(vector_size=10, epochs=2, seed=5)
        expected = train_embedding(docs, config)
        assert len(expected.vocab) == 600
        self._same_bytes(monkeypatch, docs, config, expected)

    def test_epoch_ending_in_a_zero_pair_call(self, monkeypatch):
        # the 40-token document closes a chunk of CHUNK tokens, and the three
        # one-token documents after it make a chunk of no pairs
        rng = np.random.default_rng(19)
        words = [f"w{i}" for i in range(12)]
        docs = [[words[i] for i in _skewed(rng, len(words), 40)], ["w0"], ["w5"], ["lone"]]
        config = EmbeddingConfig(vector_size=10, epochs=3, seed=5)
        kernel, calls = _kernels.skipgram_doc, []

        def record(w_in, w_out, doc, win_lo, win_hi, *rest):
            before = w_in.tobytes(), w_out.tobytes()
            kernel(w_in, w_out, doc, win_lo, win_hi, *rest)
            calls.append((len(doc), int((win_hi - win_lo).sum()),
                          (w_in.tobytes(), w_out.tobytes()) == before))

        monkeypatch.setattr(embed, "CHUNK", 40)
        monkeypatch.setattr(_kernels, "skipgram_doc", record)
        expected = train_embedding(docs, config)
        assert [n for n, *_ in calls] == [40, 3] * config.epochs
        assert all(pairs > 0 and not same for _, pairs, same in calls[::2])
        assert calls[1::2] == [(3, 0, True)] * config.epochs
        self._same_bytes(monkeypatch, docs, config, expected)


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

    @given(st.data())
    def test_update_bytes_equal_oracle(self, data):
        # -0.0 entries, empty clusters and magnitudes from 1e-8 to 1e8
        n, dim, k = (data.draw(st.integers(1, hi)) for hi in (30, 6, 9))
        scaled = st.tuples(st.floats(1.0, 9.99), st.integers(-8, 7), st.sampled_from([1.0, -1.0]))
        element = st.one_of(st.sampled_from([0.0, -0.0]),
                            scaled.map(lambda t: t[2] * t[0] * 10.0 ** t[1]))
        X = data.draw(arrays(np.float64, (n, dim), elements=element))
        distinct = data.draw(st.integers(1, k))  # k may exceed the distinct ids
        assign = data.draw(arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
        sums, counts = np.zeros((k, dim)), np.zeros(k, dtype=np.int64)
        got_sums, got_counts = _kernels.kmeans_update(X, assign, k)
        oracle_kmeans_update(X, assign, sums, counts)
        assert got_sums.shape == sums.shape and got_sums.tobytes() == sums.tobytes()
        assert got_counts.tobytes() == counts.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_assign_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k, dim = 50, 6, int(rng.integers(1, 9))
        X = rng.normal(size=(n, dim))
        centers = rng.normal(size=(k, dim))
        expected = np.empty(n, dtype=np.int64)
        got, total, _ = _kernels.kmeans_assign(X, centers)
        oracle_total = oracle_kmeans_assign(X, centers, expected)
        assert np.array_equal(got, expected)
        assert total == pytest.approx(oracle_total, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("case",
                             ["random", "exact-ties", "duplicate-centers", "one-row", "k=1"])
    def test_assign_bit_equal_to_per_center_loop(self, case, seed):
        X, centers = _assign_case(case, seed)
        ids, total, dist = _kernels.kmeans_assign(X, centers)
        expected_ids, expected_total, expected_dist = reference_kmeans_assign(X, centers)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, expected_ids)
        assert total.hex() == expected_total.hex()
        assert dist.shape == expected_dist.shape and dist.tobytes() == expected_dist.tobytes()

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
        got, total, _ = _kernels.kmeans_assign(X, centers)
        oracle_total = oracle_kmeans_assign(X, centers, expected)
        assert got.tolist() == expected.tolist() == [0, 1, 0, 4, 4]
        assert total == oracle_total == 33.0
