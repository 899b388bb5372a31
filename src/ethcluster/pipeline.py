"""End-to-end orchestration: one trained detector per vulnerability.

Each vulnerability runs as its own one-class pipeline over an ordered
vulnerable-first dataset: preprocess, regex flags, embedding training,
TF-IDF keyword selection, optional PCA, seeded k-means, sequence-based
cluster labeling, metrics. Every stage persists its artifact under
``<workdir>/<vulnerability>/`` so runs are inspectable, and every artifact
is a deterministic function of (dataset, config). Each stage is one function
shared with the CLI stage subcommands.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cluster as cl
from . import detect, embed, vectorize
from ._artifact import read_json, write_json, write_text
from .errors import (
    AlignmentError, FormatError, InvalidInput, ModelNotFound, PathError, PipelineStageError,
)
from .evaluate import ConfusionMatrix, MetricsReport, confusion, metrics, render_table, write_report
from .ingest import Dataset
from .preprocess import TokenDoc, preprocess_contract, save_tokendocs

DEFAULT_SEED = 1194
WORKDIR_ENV = "ETHCLUSTER_WORKDIR"

# The values a config field of each annotated type accepts (never a bool).
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}


@dataclass(frozen=True)
class PipelineConfig:
    vulnerability: str
    dataset: str = ""
    workdir: str = ""
    vector_size: int = 0
    tfidf_threshold: float = -1.0
    num_clusters: int = 0
    seed: int = DEFAULT_SEED
    max_iterations: int = 100
    pca_components: int = 50
    pca_activation_dim: int = 50
    window: int = 5
    epochs: int = 5
    sg: int = 1
    min_count: int = 1
    negative: int = 5
    initial_learning_rate: float = 0.025

    @classmethod
    def resolve(cls, values: dict) -> "PipelineConfig":
        """Fill omitted fields from the vulnerability kind's defaults.

        ``values`` comes from a config file merged with CLI overrides; the
        vulnerability name keys ``detect.KINDS``. A value of the wrong type
        is refused before any stage runs.
        """
        values = dict(values)
        vulnerability = values.get("vulnerability", "")
        if not isinstance(vulnerability, str) or vulnerability not in detect.KINDS:
            raise InvalidInput(
                f"vulnerability must be one of {', '.join(detect.KINDS)}; got {vulnerability!r}"
            )
        kind = detect.KINDS[vulnerability]
        for name in ("vector_size", "tfidf_threshold", "num_clusters"):
            values.setdefault(name, getattr(kind, name))
        if not values.get("workdir"):
            values["workdir"] = os.environ.get(WORKDIR_ENV, "ethcluster-work")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(values) - set(types)
        if unknown:
            raise InvalidInput(f"unknown config fields: {sorted(unknown)}")
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[types[name]]):
                raise InvalidInput(
                    f"config field {name!r} must be of type {types[name]}; got {value!r}")
        return cls(**values)

    @property
    def regex_kind(self) -> str | None:
        """The regex kind backing this vulnerability, if any."""
        return self.vulnerability if self.vulnerability in detect.REGEX_KINDS else None

    def stage_dir(self) -> Path:
        return Path(self.workdir) / self.vulnerability

    def embedding_config(self) -> embed.EmbeddingConfig:
        """The embedding fields, which this config shares by name."""
        names = [f.name for f in fields(embed.EmbeddingConfig)]
        return embed.EmbeddingConfig(**{name: getattr(self, name) for name in names})


@contextmanager
def stage(name: str):
    """Tag any failure inside the block with the stage that raised it."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


# --- stages ----------------------------------------------------------------
# One function per stage, from in-memory inputs to the stage's artifact.
# ``run_pipeline`` chains them with ``preprocess_contract`` and
# ``embed.train_embedding``; the CLI stage subcommands load their input
# files, call the same function and save its result.

def detect_corpus(docs: Sequence[TokenDoc], kind: str | None) -> dict:
    """The ``detect.json`` payload: one regex flag per document, or None
    when the vulnerability has no pattern."""
    return {
        "kind": kind,
        "flags": None if kind is None else detect.scan_corpus(docs, kind),
        "hashes": [d.contract_hash for d in docs],
    }


def save_detection(payload: dict, path: str | Path) -> None:
    write_json(payload, path)


def _detection(payload: dict) -> dict:
    kind, flags, hashes = payload["kind"], payload["flags"], payload["hashes"]
    if (kind, flags) != (None, None) and (kind not in detect.REGEX_KINDS
                                          or not isinstance(flags, list) or not set(flags) <= {0, 1}):
        raise FormatError("kind must be null or a regex kind, with flags a list of 0s and 1s")
    if (not isinstance(hashes, list) or not all(isinstance(h, str) for h in hashes)
            or (flags is not None and len(flags) != len(hashes))):
        raise FormatError("hashes must be a list of strings, one per flag")
    return {"kind": kind, "flags": flags, "hashes": hashes}


def load_detection(path: str | Path) -> dict:
    return read_json(path, _detection)


def vectorize_corpus(docs: Sequence[TokenDoc], model: embed.EmbeddingModel, threshold: float,
                     detection: dict | None = None
                     ) -> tuple[dict[str, np.ndarray], list[vectorize.DocumentVector]]:
    """Keyword map and one document vector per document.

    Keywords score above ``threshold`` by TF-IDF; when ``detection``, which
    must cover exactly ``docs``, flags any document, its kind's pattern words
    are forced in.
    """
    forced: Sequence[str] = ()
    if detection is not None:
        if detection["hashes"] != [d.contract_hash for d in docs]:
            raise AlignmentError("the detection flags were computed over a different corpus")
        if detection["kind"] is not None and 1 in detection["flags"]:
            forced = detect.KINDS[detection["kind"]].keywords
    token_lists = [list(d.tokens) for d in docs]
    dictionary = vectorize.build_dictionary(token_lists)
    tfidf = vectorize.TfidfModel(dictionary)
    bags = [vectorize.doc2bow(dictionary, toks) for toks in token_lists]
    keyword_map = vectorize.select_keywords(bags, tfidf, model, threshold, forced)
    vectors = vectorize.document_vectors(docs, keyword_map, model.config.vector_size)
    return keyword_map, vectors


def cluster_vectors(vectors: Sequence[vectorize.DocumentVector], k: int, max_iterations: int,
                    seed: int, pca_activation_dim: int, pca_components: int,
                    dataset: Dataset | None = None) -> tuple[cl.ClusterModel, cl.PcaBasis | None]:
    """PCA when the vectors are wider than ``pca_activation_dim``, then
    seeded k-means; clusters are labeled when a dataset is given."""
    X = np.array([v.values for v in vectors])
    basis = None
    if X.shape[1] > pca_activation_dim:
        basis = cl.pca_fit(X, min(pca_components, X.shape[0], X.shape[1]))
        X = cl.pca_transform(basis, X)
    cmodel = cl.kmeans_fit(X, k=k, max_iterations=max_iterations, seed=seed)
    if dataset is not None:
        cmodel = cl.label_clusters(cmodel, dataset)
    return cmodel, basis


def evaluate_model(cmodel: cl.ClusterModel,
                   dataset: Dataset) -> tuple[ConfusionMatrix, MetricsReport]:
    """Confusion matrix and metrics of the training predictions; an
    unlabeled model is labeled from the dataset first."""
    if not cmodel.labels:
        cmodel = cl.label_clusters(cmodel, dataset)
    predicted = [cmodel.labels[int(a)] for a in cmodel.assignments]
    cm = confusion(predicted, dataset.truth_labels)
    return cm, metrics(cm)


def run_pipeline(config: PipelineConfig) -> MetricsReport:
    """Train, label and evaluate one vulnerability detector end to end."""
    out = config.stage_dir()
    out.mkdir(parents=True, exist_ok=True)
    params = asdict(config)

    with stage("dataset"):
        if not config.dataset or not Path(config.dataset).exists():
            raise PathError(f"dataset file not found: {config.dataset!r}")
        dataset = Dataset.load(config.dataset)

    with stage("preprocess"):
        docs = [preprocess_contract(rec.source) for rec in dataset.records]
        save_tokendocs(docs, out / "preprocess.json")

    with stage("detect"):
        detection = detect_corpus(docs, config.regex_kind)
        save_detection(detection, out / "detect.json")

    with stage("embed"):
        model = embed.train_embedding([d.tokens for d in docs], config.embedding_config())
        embed.save_model(model, out / "embedding.vec")

    with stage("vectorize"):
        keyword_map, vectors = vectorize_corpus(docs, model, config.tfidf_threshold, detection)
        vectorize.save_keyword_map(keyword_map, out / "keywords.json")
        vectorize.save_vectors(vectors, out / "vectors.json")

    with stage("cluster"):
        cmodel, basis = cluster_vectors(
            vectors, config.num_clusters, config.max_iterations, config.seed,
            config.pca_activation_dim, config.pca_components, dataset,
        )
        cl.save_cluster_model(cmodel, basis, out / "model.json", extra=params)

    with stage("evaluate"):
        cm, report = evaluate_model(cmodel, dataset)
        write_report(config.vulnerability, cm, report, params, out / "report.json")
        write_text(render_table(config.vulnerability, cm, report) + "\n", out / "report.txt")

    return report


@functools.lru_cache(maxsize=len(detect.KINDS))
def _scan_artifacts(out: Path, model_stamp: tuple, keywords_stamp: tuple):
    """The parsed keyword map and cluster model of one stage dir.

    Cached under the (inode, mtime, size) stamps of both files: a retrain
    replaces them, so its stamps differ and the next scan reloads.
    """
    keyword_map = vectorize.load_keyword_map(out / "keywords.json")
    cmodel, basis, _ = cl.load_cluster_model(out / "model.json")
    return keyword_map, cmodel, basis


def scan_contract(config: PipelineConfig, source: str) -> dict:
    """Classify one contract against the persisted pipeline artifacts.

    Returns the predicted label plus, for vulnerabilities backed by a regex
    pattern, that pattern's flag on this contract. The parsed artifacts are
    reused by later calls until their files change.
    """
    out = config.stage_dir()
    try:
        stamps = [os.stat(out / name) for name in ("model.json", "keywords.json")]
    except (FileNotFoundError, NotADirectoryError):
        raise ModelNotFound(
            f"no trained artifacts for {config.vulnerability!r} under {out}"
        ) from None
    keyword_map, cmodel, basis = _scan_artifacts(
        out, *((st.st_ino, st.st_mtime_ns, st.st_size) for st in stamps))

    # Size the vector from the trained model, not from the caller's config.
    dim = basis.mean.shape[0] if basis is not None else cmodel.centers.shape[1]
    doc = preprocess_contract(source)
    values = vectorize.doc_vector_values(doc.tokens, keyword_map, dim)
    label = cl.predict(cmodel, basis, values)

    result: dict = {"vulnerability": config.vulnerability, "label": label}
    kind = config.regex_kind
    if kind is not None:
        result["flags"] = {kind: detect.detector_for(kind)(doc.lines)}
    return result
