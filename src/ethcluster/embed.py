"""Word embeddings over the token corpus.

Skip-gram with negative sampling, trained by plain SGD with a linear
learning-rate decay. All randomness (window shrinking, noise words) comes
from one seeded numpy generator drawn outside the hot loops, so training is
bit-reproducible. The per-document SGD loop lives in ``_kernels``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from ._artifact import floats, pack, read_json, strings, write_json
from .errors import EmptyCorpus, FormatError, InvalidInput, VersionError

_FORMAT_NAME = "ethcluster-embedding"
_FORMAT_VERSION = 5
_V1_TEXT_HEADER = b"ethcluster-embedding 1 "

#: word2vec's defaults (Mikolov et al. 2013, arXiv:1310.4546): the largest
#: context window, noise words per pair and the initial learning rate.
WINDOW = 5
NEGATIVE = 5
LEARNING_RATE = 0.025

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

    The result is a pure function of (docs, config).
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
        for doc in encoded:
            n = len(doc)
            b = rng.integers(1, WINDOW + 1, size=n)
            pos = np.arange(n)
            lo = np.maximum(0, pos - b)
            hi = np.minimum(n - 1, pos + b)
            u = rng.random((int((hi - lo).sum()), NEGATIVE))
            negs = np.minimum(np.searchsorted(cdf, u, side="right"), vocab_size - 1)
            negs = negs.astype(np.int64)
            decay = (position + pos) / max(1, total_positions)
            alphas = LEARNING_RATE - (LEARNING_RATE - MIN_LEARNING_RATE) * decay
            alphas = np.maximum(MIN_LEARNING_RATE, alphas)
            position += n
            _kernels.skipgram_doc(w_in, w_out, doc, lo, hi, negs, alphas)

    return EmbeddingModel(vocab=vocab, vectors=w_in, config=config)


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model as a JSON artifact whose ``vectors`` are a ``pack``
    payload of float64 bytes, one row per word, so they round-trip exactly."""
    words = sorted(model.vocab, key=model.vocab.__getitem__)
    write_json({"format": _FORMAT_NAME, "version": _FORMAT_VERSION, "config": asdict(model.config),
                "words": words, "vectors": pack(model.vectors)}, path)


def _decode_model(payload: dict) -> EmbeddingModel:
    if payload["format"] != _FORMAT_NAME:
        raise FormatError("not an embedding model file")
    if payload["version"] != _FORMAT_VERSION:
        raise VersionError(f"unsupported format version {payload['version']!r}; "
                           "rerun `ethcluster run` to rebuild it")
    config = EmbeddingConfig(**payload["config"])
    words = strings(payload["words"])
    vocab = {word: i for i, word in enumerate(words)}
    vectors = floats(payload["vectors"], 2)
    if len(vocab) != len(words) or vectors.shape != (len(words), config.vector_size):
        raise FormatError(f"{len(words)} words, {len(vocab)} distinct; vectors {vectors.shape}")
    return EmbeddingModel(vocab=vocab, vectors=vectors, config=config)


def load_model(path: str | Path) -> EmbeddingModel:
    """Read a model written by :func:`save_model`; bit-exact round trip."""
    with open(path, "rb") as fh:
        if fh.read(len(_V1_TEXT_HEADER)) == _V1_TEXT_HEADER:
            raise VersionError(f"{path}: format version 1 is no longer read; "
                               "rerun `ethcluster run` to rebuild it")
    return read_json(path, _decode_model)
