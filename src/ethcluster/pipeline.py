"""End-to-end orchestration: one trained detector per vulnerability.

Each vulnerability runs as its own one-class pipeline over a labeled
dataset: preprocess, regex flags, embedding training, TF-IDF keyword
selection, optional PCA, seeded k-means, majority-vote cluster labeling,
metrics. Every stage persists its artifact under
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
from ._artifact import ints, read_json, strings, write_json, write_text
from .errors import FormatError, InvalidInput, ModelNotFound, PathError, PipelineStageError
from .evaluate import MetricsReport, confusion, metrics, render_table, write_report
from .ingest import Dataset
from .preprocess import TokenDoc, preprocess_contract, save_tokendocs

WORKDIR_ENV = "ETHCLUSTER_WORKDIR"

# The values a config field of each annotated type accepts (never a bool).
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}
_LEAST = {"num_clusters": 1, "tfidf_threshold": 0}  # the bounds EmbeddingConfig does not check


def _kind(vulnerability) -> detect.Kind:
    if isinstance(vulnerability, str) and vulnerability in detect.KINDS:
        return detect.KINDS[vulnerability]
    raise InvalidInput(f"vulnerability {vulnerability!r} is not one of {', '.join(detect.KINDS)}")


@dataclass(frozen=True)
class PipelineConfig:
    """One detector's settings; a wrong-typed or out-of-range value is refused when built."""

    vulnerability: str
    vector_size: int
    tfidf_threshold: float
    num_clusters: int
    dataset: str = ""
    workdir: str = ""
    seed: int = embed.DEFAULT_SEED
    epochs: int = embed.EmbeddingConfig.epochs

    def __post_init__(self):
        _kind(self.vulnerability)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise InvalidInput(f"config field {f.name!r} must be {f.type}; got {value!r}")
            if (least := _LEAST.get(f.name)) is not None and not least <= value < float("inf"):
                raise InvalidInput(f"config field {f.name!r} must be finite, >= {least}: {value!r}")
        self.embedding_config()  # refuses a negative seed, or epochs or vector_size below 1

    @classmethod
    def resolve(cls, values: dict) -> "PipelineConfig":
        """The config of ``values``, a config file merged with CLI overrides,
        with omitted fields filled from the vulnerability's ``detect.KINDS`` defaults."""
        kind = _kind(values.get("vulnerability", ""))
        values = {"vector_size": kind.vector_size, "tfidf_threshold": kind.tfidf_threshold,
                  "num_clusters": kind.num_clusters, **values}
        if values.get("workdir") in (None, ""):
            values["workdir"] = os.environ.get(WORKDIR_ENV, "ethcluster-work")
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInput(f"unknown config fields: {sorted(unknown)}")
        return cls(**values)

    @property
    def regex_kind(self) -> str | None:
        """The regex kind backing this vulnerability, if any."""
        return self.vulnerability if self.vulnerability in detect.REGEX_KINDS else None

    def stage_dir(self) -> Path:
        return Path(self.workdir) / self.vulnerability

    def embedding_config(self) -> embed.EmbeddingConfig:
        """The embedding settings; the rest keep ``EmbeddingConfig``'s defaults."""
        return embed.EmbeddingConfig(self.vector_size, epochs=self.epochs, seed=self.seed)


@contextmanager
def stage(name: str):
    """Tag any failure inside the block with the stage that raised it."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


# --- stages ----------------------------------------------------------------
# One function per stage, from in-memory inputs to the stage's artifact.
# ``run_pipeline`` chains them with ``embed.train_embedding``; the CLI stage
# subcommands load their input files, call the same function and save its
# result, which ``vectorize_corpus`` saves itself.

def preprocess_corpus(dataset: Dataset) -> list[TokenDoc]:
    """One token document per record, in dataset order, named by its checked ``source_hash``."""
    return [preprocess_contract(rec.source, rec.source_hash) for rec in dataset.records]


def detect_corpus(docs: Sequence[TokenDoc], kind: str | None) -> dict:
    """The ``detect.json`` payload: one regex flag per document, or None
    when the vulnerability has no pattern."""
    return {
        "kind": kind,
        "flags": None if kind is None else detect.scan_corpus(docs, kind),
        "hashes": [d.contract_hash for d in docs],
    }


def save_detection(payload: dict, path: str | Path) -> None:
    write_json(payload, path, "detect")


def _detection(payload: dict) -> dict:
    kind, flags = payload["kind"], payload["flags"]
    if (kind, flags) != (None, None) and kind not in detect.REGEX_KINDS:
        raise FormatError("kind must be null, or a regex kind with flags")
    flags = None if kind is None else ints(flags, 0, 2)
    return {"kind": kind, "flags": flags,
            "hashes": strings(payload["hashes"], None if flags is None else len(flags))}


def load_detection(path: str | Path) -> dict:
    return read_json(path, _detection, "detect")


def vectorize_corpus(docs: Sequence[TokenDoc], model: embed.EmbeddingModel, threshold: float,
                     detection: dict | None, path: str | Path
                     ) -> tuple[dict[str, np.ndarray], list[vectorize.DocumentVector]]:
    """Keyword map and one document vector per document, saved as
    ``keywords.json`` beside the vectors at ``path``.

    Keywords score above ``threshold``, which must be finite and >= 0, by
    TF-IDF; when ``detection``, which must cover exactly ``docs``, flags any
    document, its kind's pattern words are forced in. ``scan`` reads the
    ``model.json`` beside a keyword map, so once the inputs pass these checks
    that model is removed: it was fit on other keywords.
    """
    if not 0 <= threshold < float("inf"):
        raise InvalidInput(f"threshold must be finite and >= 0; got {threshold!r}")
    forced: Sequence[str] = ()
    if detection is not None:
        cl.check_aligned(detection["hashes"], [d.contract_hash for d in docs], "the flags")
        if detection["kind"] is not None and 1 in detection["flags"]:
            forced = detect.KINDS[detection["kind"]].keywords
    out = Path(path).parent
    (out / "model.json").unlink(missing_ok=True)
    dictionary = vectorize.build_dictionary([d.tokens for d in docs])
    tfidf = vectorize.TfidfModel(dictionary)
    bags = [vectorize.doc2bow(dictionary, d.tokens) for d in docs]
    keyword_map = vectorize.select_keywords(bags, tfidf, model, threshold, forced)
    vectors = vectorize.document_vectors(docs, keyword_map, model.config.vector_size)
    vectorize.save_keyword_map(keyword_map, out / "keywords.json")
    vectorize.save_vectors(vectors, path)
    return keyword_map, vectors


def cluster_vectors(vectors: Sequence[vectorize.DocumentVector], k: int, max_iterations: int,
                    seed: int, dataset: Dataset | None = None) -> cl.ClusterModel:
    """PCA to ``cl.PCA_DIM`` components when the vectors are wider, then
    seeded k-means; clusters are labeled when a dataset is given, whose
    records must be the vectors' documents in the same order."""
    X = np.array([v.values for v in vectors])
    basis = None
    if X.shape[1] > cl.PCA_DIM:
        basis = cl.pca_fit(X, min(cl.PCA_DIM, X.shape[0]))
        X = cl.pca_transform(basis, X)
    cmodel = cl.kmeans_fit(X, k=k, max_iterations=max_iterations, seed=seed)
    cmodel.pca, cmodel.hashes = basis, [v.contract_hash for v in vectors]
    return cmodel if dataset is None else cl.label_clusters(cmodel, dataset)


def evaluate_model(cmodel: cl.ClusterModel, dataset: Dataset) -> MetricsReport:
    """Confusion matrix and metrics of the training predictions over their
    dataset; an unlabeled model is labeled from it first."""
    cl.check_aligned(cmodel.hashes, [r.source_hash for r in dataset.records], "the cluster model")
    cmodel = cmodel if cmodel.labels else cl.label_clusters(cmodel, dataset)
    predicted = [cmodel.labels[int(a)] for a in cmodel.assignments]
    return metrics(confusion(predicted, dataset.truth_labels))


def run_pipeline(config: PipelineConfig) -> MetricsReport:
    """Train, label and evaluate one vulnerability detector end to end."""
    with stage("dataset"):
        if not config.dataset or not Path(config.dataset).exists():
            raise PathError(f"dataset file not found: {config.dataset!r}")
        dataset = Dataset.load(config.dataset)
    out = config.stage_dir()
    out.mkdir(parents=True, exist_ok=True)

    with stage("preprocess"):
        docs = preprocess_corpus(dataset)
        save_tokendocs(docs, out / "preprocess.json")

    with stage("detect"):
        detection = detect_corpus(docs, config.regex_kind)
        save_detection(detection, out / "detect.json")

    with stage("embed"):
        model = embed.train_embedding([d.tokens for d in docs], config.embedding_config())
        embed.save_model(model, out / "embedding.vec")

    with stage("vectorize"):
        _, vectors = vectorize_corpus(docs, model, config.tfidf_threshold, detection,
                                      out / "vectors.json")

    with stage("cluster"):
        cmodel = cluster_vectors(vectors, config.num_clusters, cl.MAX_ITERATIONS, config.seed,
                                 dataset)
        cl.save_cluster_model(cmodel, out / "model.json")

    with stage("evaluate"):
        report = evaluate_model(cmodel, dataset)
        write_report(config.vulnerability, report, asdict(config), out / "report.json")
        write_text(render_table(config.vulnerability, report) + "\n", out / "report.txt")

    return report


@functools.lru_cache(maxsize=len(detect.KINDS))
def _scan_artifacts(out: str, model_stamp: tuple, keywords_stamp: tuple):
    """The parsed keyword map of one stage dir, and a memo of its cluster
    model's label per keyword-hit set (a label depends on nothing else).

    Cached under the (inode, mtime, size) stamps of both files: a retrain
    replaces them, so its stamps differ and the next scan reloads.
    """
    keyword_map = vectorize.load_keyword_map(os.path.join(out, "keywords.json"))
    cmodel = cl.load_cluster_model(os.path.join(out, "model.json"))

    @functools.lru_cache(maxsize=4096)  # a call that raises is not memoized
    def label(hits: frozenset) -> str:
        # Size the vector from the trained model, not from the caller's config.
        return cl.predict(cmodel, vectorize.doc_vector_values(hits, keyword_map, cmodel.input_dim))

    return keyword_map, label


def scan_contract(config: PipelineConfig, source: str) -> dict:
    """Classify one contract against the persisted pipeline artifacts.

    Returns the predicted label plus, for vulnerabilities backed by a regex
    pattern, that pattern's flag on this contract. The parsed artifacts and
    labels are reused by later calls until the artifact files change.
    """
    out = os.path.join(config.workdir, config.vulnerability)  # stage_dir(), without pathlib
    try:
        stamps = [os.stat(os.path.join(out, name)) for name in ("model.json", "keywords.json")]
    except (FileNotFoundError, NotADirectoryError):
        raise ModelNotFound(
            f"no trained artifacts for {config.vulnerability!r} under {out}"
        ) from None
    keyword_map, label = _scan_artifacts(
        out, *((st.st_ino, st.st_mtime_ns, st.st_size) for st in stamps))

    doc = preprocess_contract(source)
    result: dict = {"vulnerability": config.vulnerability,
                    "label": label(frozenset(keyword_map.keys() & doc.tokens))}
    kind = config.regex_kind
    if kind is not None:
        result["flags"] = {kind: detect.detector_for(kind)(doc.lines)}
    return result
