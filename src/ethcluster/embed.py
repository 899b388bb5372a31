"""Word embeddings over the token corpus.

Skip-gram or CBOW with negative sampling, trained by plain SGD with a linear
learning-rate decay. All randomness (window shrinking, noise words) comes
from one seeded numpy generator drawn outside the hot loops, so training is
bit-reproducible. The per-document SGD loops live in ``_kernels``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from ._artifact import floats, read_json, write_json
from .errors import EmptyVocab, FormatError, InvalidInput, VersionError

SKIP_GRAM = 1
CBOW = 0

_FORMAT_NAME = "ethcluster-embedding"
_FORMAT_VERSION = 2
_V1_TEXT_HEADER = b"ethcluster-embedding 1 "

#: Floor of the linear learning-rate decay.
MIN_LEARNING_RATE = 1e-4

#: Exponent flattening the unigram noise distribution.
NOISE_POWER = 0.75


@dataclass(frozen=True)
class EmbeddingConfig:
    vector_size: int = 100
    window: int = 5
    min_count: int = 1
    sg: int = SKIP_GRAM
    epochs: int = 5
    seed: int = 1
    negative: int = 5
    initial_learning_rate: float = 0.025

    def __post_init__(self):
        if self.vector_size < 1 or self.window < 1 or self.epochs < 1:
            raise InvalidInput("vector_size, window and epochs must all be >= 1")
        if self.min_count < 0 or self.negative < 0:
            raise InvalidInput("min_count and negative must be >= 0")
        if self.sg not in (SKIP_GRAM, CBOW):
            raise InvalidInput("sg must be 0 (CBOW) or 1 (skip-gram)")
        if self.initial_learning_rate <= 0:
            raise InvalidInput("initial_learning_rate must be positive")


class EmbeddingModel:
    """Immutable word -> vector lookup produced by training."""

    def __init__(self, vocab: dict[str, int], vectors: np.ndarray, config: EmbeddingConfig):
        self.vocab = vocab
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.config = config
        self._words = [None] * len(vocab)
        for word, idx in vocab.items():
            self._words[idx] = word

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def vector(self, word: str) -> np.ndarray | None:
        """The trained vector for ``word``, or None when out of vocabulary."""
        idx = self.vocab.get(word)
        if idx is None:
            return None
        return self.vectors[idx]

    def words(self) -> list[str]:
        return list(self._words)


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


def _build_vocab(docs: Sequence[Sequence[str]], min_count: int) -> tuple[dict[str, int], np.ndarray]:
    counts: dict[str, int] = {}
    for doc in docs:
        for word in doc:
            counts[word] = counts.get(word, 0) + 1
    # stable order: frequency descending, first-seen breaking ties
    kept = [w for w in counts if counts[w] >= max(min_count, 1)]
    kept.sort(key=lambda w: -counts[w])
    vocab = {w: i for i, w in enumerate(kept)}
    freqs = np.array([counts[w] for w in kept], dtype=np.float64)
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
    vocab, freqs = _build_vocab(docs, config.min_count)
    if not vocab:
        raise EmptyVocab(f"no word reaches min_count={config.min_count}")

    encoded = []
    for doc in docs:
        idx = [vocab[w] for w in doc if w in vocab]
        if idx:
            encoded.append(np.array(idx, dtype=np.int64))
    cdf = _noise_cdf(freqs)
    vocab_size = len(vocab)
    dim = config.vector_size

    rng = np.random.default_rng(config.seed)
    bound = 0.5 / dim
    w_in = rng.uniform(-bound, bound, size=(vocab_size, dim))
    w_out = np.zeros((vocab_size, dim))

    total_positions = config.epochs * sum(len(d) for d in encoded)
    kernel = _kernels.skipgram_doc if config.sg == SKIP_GRAM else _kernels.cbow_doc
    a0 = config.initial_learning_rate
    amin = min(MIN_LEARNING_RATE, a0)

    position = 0
    for _ in range(config.epochs):
        for doc in encoded:
            n = len(doc)
            b = rng.integers(1, config.window + 1, size=n)
            pos = np.arange(n)
            lo = np.maximum(0, pos - b)
            hi = np.minimum(n - 1, pos + b)
            if config.sg == SKIP_GRAM:
                n_rows = int((hi - lo).sum())
            else:
                n_rows = n
            if config.negative > 0 and n_rows > 0:
                u = rng.random((n_rows, config.negative))
                negs = np.minimum(np.searchsorted(cdf, u, side="right"), vocab_size - 1)
                negs = negs.astype(np.int64)
            else:
                negs = np.zeros((n_rows, config.negative), dtype=np.int64)
            alphas = a0 - (a0 - amin) * ((position + pos) / max(1, total_positions))
            alphas = np.maximum(amin, alphas)
            position += n
            kernel(w_in, w_out, doc, lo, hi, negs, alphas)

    return EmbeddingModel(vocab=vocab, vectors=w_in, config=config)


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model as a JSON artifact; floats round-trip exactly."""
    write_json({"format": _FORMAT_NAME, "version": _FORMAT_VERSION, "config": asdict(model.config),
                "words": model.words(), "vectors": model.vectors.tolist()}, path)


def _decode_model(payload: dict) -> EmbeddingModel:
    if payload["format"] != _FORMAT_NAME:
        raise FormatError("not an embedding model file")
    if payload["version"] != _FORMAT_VERSION:
        raise VersionError(f"unsupported format version {payload['version']!r}")
    config = EmbeddingConfig(**payload["config"])
    words = payload["words"]
    vocab = {word: i for i, word in enumerate(words) if isinstance(word, str)}
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
