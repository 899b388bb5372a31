"""Word embeddings over the token corpus.

Skip-gram with negative sampling, trained by minibatch SGD with a linear
learning-rate decay: each step sums the steps of up to ``_kernels.BATCH``
consecutive skip-gram pairs, all scored at the weights before it. An epoch
hands the kernel the corpus in chunks of whole documents, one call each. All
randomness (window shrinking, noise words) comes from one seeded numpy
generator, drawn per chunk outside the hot loops, so training is
bit-reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from ._artifact import floats, pack, read_json, strings, write_json
from .errors import EmptyCorpus, FormatError, InvalidInput

#: word2vec's defaults (Mikolov et al. 2013, arXiv:1310.4546): the largest
#: context window, noise words per pair and the initial learning rate.
WINDOW = 5
NEGATIVE = 5
LEARNING_RATE = 0.025

#: A chunk of documents closes at the first document end reaching this many
#: tokens, so a kernel call's arrays do not grow with the corpus.
CHUNK = 2048

#: The rate the linear learning-rate decay approaches; the last position of
#: the last epoch trains at ``MIN + (LEARNING_RATE - MIN) / total positions``.
MIN_LEARNING_RATE = 1e-4

#: The seed of every seeded stage unless the caller gives one.
DEFAULT_SEED = 1194

#: Exponent flattening the unigram noise distribution.
NOISE_POWER = 0.75


@dataclass(frozen=True)
class EmbeddingConfig:
    vector_size: int = 100
    epochs: int = 5
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInput(f"embedding field {name!r} must be an int; got {value!r}")
        if self.vector_size < 1 or self.epochs < 1 or self.seed < 0:
            raise InvalidInput("vector_size and epochs must be >= 1, and seed >= 0")


class EmbeddingModel:
    """Immutable word -> vector lookup produced by training."""

    def __init__(self, vocab: dict[str, int], vectors: np.ndarray, config: EmbeddingConfig):
        self.vocab = vocab
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.config = config

    def vector(self, word: str) -> np.ndarray | None:
        """The trained vector for ``word``, or None when out of vocabulary."""
        idx = self.vocab.get(word)
        if idx is None:
            return None
        return self.vectors[idx]


def _clamped_sigmoid(x: float) -> float:
    x = min(max(x, -_kernels._MAX_SCORE), _kernels._MAX_SCORE)
    return 1.0 / (1.0 + np.exp(-x))


def negative_sampling_loss(w_in: np.ndarray, w_out: np.ndarray,
                           pairs: Iterable[tuple[int, int, Sequence[int]]]) -> float:
    """Loss of the negative-sampling objective over (center, target, noise) pairs.

    Noise words colliding with the target are skipped, matching the training
    kernels. This is the function the SGD steps descend; the gradient check
    differentiates it numerically.
    """
    loss = 0.0
    for center, target, negatives in pairs:
        loss -= np.log(_clamped_sigmoid(float(np.dot(w_in[center], w_out[target]))))
        for neg in negatives:
            if neg == target:
                continue
            loss -= np.log(1.0 - _clamped_sigmoid(float(np.dot(w_in[center], w_out[neg]))))
    return float(loss)


def negative_sampling_gradients(w_in: np.ndarray, w_out: np.ndarray,
                                pairs: Iterable[tuple[int, int, Sequence[int]]]
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`negative_sampling_loss` w.r.t. both matrices."""
    g_in = np.zeros_like(w_in)
    g_out = np.zeros_like(w_out)
    for center, target, negatives in pairs:
        sig = _clamped_sigmoid(float(np.dot(w_in[center], w_out[target])))
        g_in[center] += (sig - 1.0) * w_out[target]
        g_out[target] += (sig - 1.0) * w_in[center]
        for neg in negatives:
            if neg == target:
                continue
            sig = _clamped_sigmoid(float(np.dot(w_in[center], w_out[neg])))
            g_in[center] += sig * w_out[neg]
            g_out[neg] += sig * w_in[center]
    return g_in, g_out


def _build_vocab(docs: Sequence[Sequence[str]]) -> tuple[dict[str, int], np.ndarray]:
    """Every word of the corpus, with its count."""
    counts = Counter(chain.from_iterable(docs))
    # stable order: frequency descending, first-seen breaking ties
    words = sorted(counts, key=lambda w: -counts[w])
    vocab = {w: i for i, w in enumerate(words)}
    freqs = np.array([counts[w] for w in words], dtype=np.float64)
    return vocab, freqs


def _noise_table(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The noise CDF, ending in exactly 1.0, a bucket table ``start`` over it
    and the steps a lookup takes (Chen & Asau 1974).

    The table's size is a power of two, so bucket ``t`` holds exactly the
    uniforms in ``[t / size, (t + 1) / size)``; ``start[t]`` counts the CDF
    entries <= ``t / size`` and ``steps`` is the most entries inside a bucket.
    As ``size`` >= the summed noise weights and every count is >= 1, every
    noise probability is >= ``1 / size`` and ``steps`` <= 2.
    """
    weights = freqs ** NOISE_POWER
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    size = 1 << (math.ceil(weights.sum()) - 1).bit_length()
    edges = np.arange(size + 1) / size
    start = np.searchsorted(cdf, edges[:-1], side="right")
    steps = int((np.searchsorted(cdf, edges[1:]) - start).max())
    return cdf, start, steps


def _noise_words(table: tuple[np.ndarray, np.ndarray, int], u: np.ndarray) -> np.ndarray:
    """The noise word of each uniform in ``u``, ``np.searchsorted(cdf, u,
    side="right")``, found through ``_noise_table``."""
    cdf, start, steps = table
    negs = start[(u * len(start)).astype(np.int64)]
    for _ in range(steps):
        negs += cdf[negs] <= u
    return negs


def train_embedding(docs: Sequence[Sequence[str]], config: EmbeddingConfig) -> EmbeddingModel:
    """Train word vectors over tokenized documents.

    The result is a pure function of (docs, config). A chunk closes at the
    first document end that gives it ``CHUNK`` tokens. Per epoch and chunk
    the generator draws the window sizes, then one uniform per noise word,
    and each window is clipped to its position's document, so no skip-gram
    pair spans two documents. Noise words come from a bucket table of the
    smallest power of two >= the summed noise weights, which is at most twice
    the corpus's token count.
    """
    if not docs:
        raise InvalidInput("document list is empty")
    vocab, freqs = _build_vocab(docs)
    if not vocab:
        raise EmptyCorpus("every document is empty")

    tokens = np.array([vocab[w] for doc in docs for w in doc], dtype=np.int64)
    lengths = [len(doc) for doc in docs]
    ends = np.cumsum(lengths)
    # the first and last position of each position's document
    first = np.repeat(ends - lengths, lengths)
    last = np.repeat(ends - 1, lengths)
    cuts = [0]
    for end in ends.tolist():
        if end - cuts[-1] >= CHUNK:
            cuts.append(end)
    if cuts[-1] < len(tokens):
        cuts.append(len(tokens))

    noise = _noise_table(freqs)
    vocab_size = len(vocab)
    dim = config.vector_size

    rng = np.random.default_rng(config.seed)
    bound = 0.5 / dim
    w_in = rng.uniform(-bound, bound, size=(vocab_size, dim))
    w_out = np.zeros((vocab_size, dim))

    total_positions = config.epochs * len(tokens)
    for epoch in range(config.epochs):
        for s, e in zip(cuts, cuts[1:]):
            pos = np.arange(s, e)
            b = rng.integers(1, WINDOW + 1, size=e - s)
            lo = np.maximum(first[s:e], pos - b) - s
            hi = np.minimum(last[s:e], pos + b) - s
            u = rng.random((int((hi - lo).sum()), NEGATIVE))
            decay = (epoch * len(tokens) + pos) / total_positions
            alphas = LEARNING_RATE - (LEARNING_RATE - MIN_LEARNING_RATE) * decay
            _kernels.skipgram_doc(w_in, w_out, tokens[s:e], lo, hi, _noise_words(noise, u), alphas)

    return EmbeddingModel(vocab=vocab, vectors=w_in, config=config)


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model as a JSON artifact whose ``vectors`` are a ``pack``
    payload of float64 bytes, one row per word, so they round-trip exactly."""
    words = sorted(model.vocab, key=model.vocab.__getitem__)
    write_json({"config": asdict(model.config), "words": words, "vectors": pack(model.vectors)},
               path, "embedding")


def _decode_model(payload: dict) -> EmbeddingModel:
    config = EmbeddingConfig(**payload["config"])
    words = strings(payload["words"])
    vocab = {word: i for i, word in enumerate(words)}
    vectors = floats(payload["vectors"], 2)
    if len(vocab) != len(words) or vectors.shape != (len(words), config.vector_size):
        raise FormatError(f"{len(words)} words, {len(vocab)} distinct; vectors {vectors.shape}")
    return EmbeddingModel(vocab=vocab, vectors=vectors, config=config)


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model written by :func:`save_model`; bit-exact round trip."""
    return read_json(path, _decode_model, "embedding")
