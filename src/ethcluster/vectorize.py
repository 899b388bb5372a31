"""TF-IDF keyword selection and document-vector assembly.

Scores every word per document (term frequency times log inverse document
frequency, L2-normalized per document), keeps high scorers plus the keywords
a regex flag forces in, and averages each document's unique selected
keyword vectors into one fixed-length row. Documents with nothing selected
become zero vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._artifact import floats, read_json, write_json
from .embed import EmbeddingModel
from .errors import EmptyCorpus, InvalidInput
from .preprocess import TokenDoc


class Dictionary:
    """Dense word ids in first-seen corpus order, plus document frequencies."""

    def __init__(self, word_to_id: dict[str, int], doc_freq: list[int], num_docs: int):
        self.word_to_id = word_to_id
        self.id_to_word = [None] * len(word_to_id)
        for word, idx in word_to_id.items():
            self.id_to_word[idx] = word
        self.doc_freq = doc_freq
        self.num_docs = num_docs

    def __len__(self) -> int:
        return len(self.word_to_id)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id


def build_dictionary(docs: Sequence[Sequence[str]]) -> Dictionary:
    """Assign ids in first-occurrence order and count document frequencies."""
    if not docs:
        raise InvalidInput("document list is empty")
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
    if not word_to_id:
        raise EmptyCorpus("every document is empty")
    return Dictionary(word_to_id, doc_freq, len(docs))


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
    picked = [keyword_map[w] for w in sorted(set(tokens)) if w in keyword_map]
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
    payload = [{"contract_hash": v.contract_hash, "values": v.values.tolist()} for v in vectors]
    write_json(payload, path)


def _vectors(payload: list) -> list[DocumentVector]:
    values = floats([item["values"] for item in payload], 2)
    return [DocumentVector(item["contract_hash"], row) for item, row in zip(payload, values)]


def load_vectors(path: str | Path) -> list[DocumentVector]:
    return read_json(path, _vectors)


def save_keyword_map(keyword_map: Mapping[str, np.ndarray], path: str | Path) -> None:
    write_json({word: vec.tolist() for word, vec in keyword_map.items()}, path)


def _keyword_map(payload: dict) -> dict[str, np.ndarray]:
    rows = list(payload.values())
    return dict(zip(payload, floats(rows, 2))) if rows else {}


def load_keyword_map(path: str | Path) -> dict[str, np.ndarray]:
    """The keyword -> vector map; an empty map is valid (nothing was selected)."""
    return read_json(path, _keyword_map)
