"""Word embeddings over the token corpus.

Skip-gram with negative sampling, trained by minibatch SGD with a linear
learning-rate decay: each step sums the steps of up to ``BATCH`` consecutive
skip-gram pairs, all scored at the weights before it (``_kernels``). All
randomness (window shrinking, noise words) comes from one seeded numpy
generator drawn per document outside the hot loops, so training is
bit-reproducible. Consecutive documents share a kernel call until it holds
``BATCH`` pairs, and the kernel cuts a call every ``BATCH`` pairs, so short
documents still fill whole batches. What needs no random draw, the noise
words' lookup in the unigram table and the learning rates, is computed once
per kernel call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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

#: Most skip-gram pairs per minibatch SGD step; a kernel call holds at least
#: this many unless the epoch ends first.
BATCH = _kernels.BATCH

#: Floor of the linear learning-rate decay.
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
    counts: dict[str, int] = {}
    for doc in docs:
        for word in doc:
            counts[word] = counts.get(word, 0) + 1
    # stable order: frequency descending, first-seen breaking ties
    words = sorted(counts, key=lambda w: -counts[w])
    vocab = {w: i for i, w in enumerate(words)}
    freqs = np.array([counts[w] for w in words], dtype=np.float64)
    return vocab, freqs


def _noise_cdf(freqs: np.ndarray) -> np.ndarray:
    weights = freqs ** NOISE_POWER
    return np.cumsum(weights / weights.sum())


def train_embedding(docs: Sequence[Sequence[str]], config: EmbeddingConfig) -> EmbeddingModel:
    """Train word vectors over tokenized documents.

    The result is a pure function of (docs, config). Per document and epoch
    the generator draws the window sizes, then one uniform per noise word;
    the two draws interleave, so they stay per document. Per kernel call,
    over the call's documents at once, the uniforms become noise words and
    the positions become learning rates; both are elementwise, so each value
    is the one a per-document computation gives.
    """
    if not docs:
        raise InvalidInput("document list is empty")
    vocab, freqs = _build_vocab(docs)
    if not vocab:
        raise EmptyCorpus("every document is empty")

    encoded = [np.array([vocab[w] for w in doc], dtype=np.int64) for doc in docs if doc]
    cdf = _noise_cdf(freqs)
    vocab_size = len(vocab)
    dim = config.vector_size

    rng = np.random.default_rng(config.seed)
    bound = 0.5 / dim
    w_in = rng.uniform(-bound, bound, size=(vocab_size, dim))
    w_out = np.zeros((vocab_size, dim))

    total_positions = config.epochs * sum(len(d) for d in encoded)

    position = 0
    for _ in range(config.epochs):
        call, offset, pairs = [], 0, 0
        for i, doc in enumerate(encoded):
            n = len(doc)
            b = rng.integers(1, WINDOW + 1, size=n)
            pos = np.arange(n)
            lo = np.maximum(0, pos - b)
            hi = np.minimum(n - 1, pos + b)
            u = rng.random((int((hi - lo).sum()), NEGATIVE))
            # windows shift with the document, so none crosses into another
            call.append((doc, offset + lo, offset + hi, u))
            offset += n
            pairs += len(u)
            if pairs >= BATCH or i == len(encoded) - 1:
                tokens, lo, hi, u = map(np.concatenate, zip(*call))
                negs = np.minimum(np.searchsorted(cdf, u, side="right"), vocab_size - 1)
                decay = (position + np.arange(offset)) / max(1, total_positions)
                alphas = LEARNING_RATE - (LEARNING_RATE - MIN_LEARNING_RATE) * decay
                alphas = np.maximum(MIN_LEARNING_RATE, alphas)
                _kernels.skipgram_doc(w_in, w_out, tokens, lo, hi, negs.astype(np.int64), alphas)
                position += offset
                call, offset, pairs = [], 0, 0

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
