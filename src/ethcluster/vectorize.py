"""TF-IDF keyword selection and document-vector assembly.

Scores every word per document (term frequency times log inverse document
frequency, L2-normalized per document), keeps high scorers plus the keywords
a regex flag forces in, and averages each document's unique selected
keyword vectors into one fixed-length row. Documents with nothing selected
become zero vectors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._artifact import floats, pack, read_json, strings, write_json
from .embed import EmbeddingModel
from .errors import EmptyCorpus, FormatError, InvalidInput
from .preprocess import TokenDoc


class Dictionary:
    """Dense word ids in first-seen corpus order, plus document frequencies.

    ``word_to_id`` holds its words in id order, so that word ``i`` was
    inserted ``i``-th: listing its keys gives ``id_to_word``.
    """

    def __init__(self, word_to_id: dict[str, int], doc_freq: list[int], num_docs: int):
        self.word_to_id = word_to_id
        self.id_to_word = list(word_to_id)
        self.doc_freq = doc_freq
        self.num_docs = num_docs


def build_dictionary(docs: Sequence[Sequence[str]]) -> Dictionary:
    """Assign ids in first-occurrence order and count document frequencies."""
    if not docs:
        raise InvalidInput("document list is empty")
    words = dict.fromkeys(chain.from_iterable(docs))
    if not words:
        raise EmptyCorpus("every document is empty")
    doc_freq = Counter(chain.from_iterable(map(set, docs)))
    return Dictionary({w: i for i, w in enumerate(words)}, [doc_freq[w] for w in words], len(docs))


def doc2bow(dictionary: Dictionary, doc: Sequence[str]) -> list[tuple[int, int]]:
    """Count in-dictionary words; unknown words are dropped; sorted by id."""
    counts: dict[int, int] = {}
    for word in doc:
        idx = dictionary.word_to_id.get(word)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return sorted(counts.items())


class TfidfModel:
    """Per-word idf = ln(D / d_t) over a fitted dictionary."""

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary
        d = dictionary.num_docs
        self.idf = np.array(
            [math.log(d / df) for df in dictionary.doc_freq], dtype=np.float64
        )


def tfidf_scores(model: TfidfModel, bag: Sequence[tuple[int, int]],
                 doc_length: int) -> list[tuple[int, float]]:
    """Per-document scores: tf * idf, then L2-normalized across the document.

    ``doc_length`` is the source document's total token count. A document
    whose raw scores are all zero (every word appears in every document)
    comes back as all zeros.
    """
    if doc_length == 0:
        return []
    raw = [(idx, (count / doc_length) * model.idf[idx]) for idx, count in bag]
    norm = math.sqrt(sum(score * score for _, score in raw))
    if norm == 0.0:
        return [(idx, 0.0) for idx, _ in raw]
    return [(idx, score / norm) for idx, score in raw]


@dataclass(frozen=True)
class DocumentVector:
    contract_hash: str
    values: np.ndarray


def select_keywords(bags: Sequence[Sequence[tuple[int, int]]],
                    tfidf: TfidfModel,
                    embedding: EmbeddingModel,
                    threshold: float,
                    forced: Sequence[str] = ()) -> dict[str, np.ndarray]:
    """Build the keyword -> vector map driving document-vector assembly.

    A word enters when its normalized score strictly exceeds ``threshold`` in
    some document and the embedding knows it. Every word of ``forced`` enters
    too (when in the embedding vocabulary), regardless of score. Duplicates
    are stored once.
    """
    scored = [tfidf.dictionary.id_to_word[idx]
              for bag in bags
              for idx, score in tfidf_scores(tfidf, bag, sum(count for _, count in bag))
              if score > threshold]
    selected: dict[str, np.ndarray] = {}
    for word in [*scored, *forced]:
        vec = embedding.vector(word)
        if vec is not None:
            selected[word] = vec
    return selected


def doc_vector_values(tokens: Sequence[str], keyword_map: Mapping[str, np.ndarray],
                      dim: int) -> np.ndarray:
    """Average the unique mapped tokens' vectors; zero vector when none map."""
    picked = [keyword_map[w] for w in sorted(keyword_map.keys() & tokens)]
    if not picked:
        return np.zeros(dim)
    return np.mean(np.array(picked, dtype=np.float64), axis=0)


def document_vectors(docs: Sequence[TokenDoc], keyword_map: Mapping[str, np.ndarray],
                     dim: int) -> list[DocumentVector]:
    """One fixed-length vector per document, in corpus order."""
    return [
        DocumentVector(doc.contract_hash, doc_vector_values(doc.tokens, keyword_map, dim))
        for doc in docs
    ]


# --- persistence -----------------------------------------------------------

def save_vectors(vectors: Sequence[DocumentVector], path: str | Path) -> None:
    """``{"hashes": [...], "values": <[n, dim] payload>}``: row i is document i's vector."""
    write_json({"hashes": [v.contract_hash for v in vectors],
                "values": pack([v.values for v in vectors])}, path, "vectors")


def _vectors(payload: dict) -> list[DocumentVector]:
    values = floats(payload["values"], 2)
    return list(map(DocumentVector, strings(payload["hashes"], len(values)), values))


def load_vectors(path: str | Path) -> list[DocumentVector]:
    """The saved document vectors; each row is a read-only view of one matrix."""
    return read_json(path, _vectors, "vectors")


def save_keyword_map(keyword_map: Mapping[str, np.ndarray], path: str | Path) -> None:
    """``{"words": [...], "vectors": <[n, dim] payload>}``: the words sorted, and
    row i is word i's vector; an empty map is ``{"words": [], "vectors": null}``."""
    words = sorted(keyword_map)
    vectors = pack([keyword_map[w] for w in words]) if words else None
    write_json({"words": words, "vectors": vectors}, path, "keywords")


def _keyword_map(payload: dict) -> dict[str, np.ndarray]:
    words, vectors = payload["words"], payload["vectors"]
    vectors = [] if vectors is None else floats(vectors, 2)
    keyword_map = dict(zip(strings(words, len(vectors)), vectors))
    if len(keyword_map) != len(words):
        raise FormatError("duplicate word")
    return keyword_map


def load_keyword_map(path: str | Path) -> dict[str, np.ndarray]:
    """The keyword -> vector map; an empty map is valid (nothing was selected)."""
    return read_json(path, _keyword_map, "keywords")
