"""Unsupervised Solidity vulnerability detection.

Pipeline: explorer ingestion with source-only dedup, source normalization,
regex pattern flags, word embeddings, TF-IDF keyword selection, PCA, seeded
k-means, majority-vote cluster labeling, and metrics reports.
"""

from .cluster import (
    ClusterModel,
    PcaBasis,
    kmeans_fit,
    label_clusters,
    pca_fit,
    pca_transform,
    predict,
)
from .detect import (
    detect_reentrancy,
    detect_timestamp,
    detect_tx_origin,
    detect_unchecked_call,
    scan_corpus,
)
from .embed import EmbeddingConfig, EmbeddingModel, load_model, save_model, train_embedding
from .evaluate import ConfusionMatrix, MetricsReport, confusion, metrics, project2d
from .ingest import (
    ContractRecord,
    ContractStore,
    Dataset,
    ExplorerClient,
    build_mixed_dataset,
    source_hash,
)
from .pipeline import PipelineConfig, run_pipeline, scan_contract
from .preprocess import (
    SOLIDITY_KEYWORDS,
    TokenDoc,
    normalize,
    preprocess_contract,
    remove_keywords,
    strip_comments,
)
from .vectorize import (
    Dictionary,
    DocumentVector,
    TfidfModel,
    build_dictionary,
    doc2bow,
    document_vectors,
    select_keywords,
    tfidf_scores,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterModel", "PcaBasis", "kmeans_fit", "label_clusters",
    "pca_fit", "pca_transform", "predict",
    "detect_reentrancy", "detect_timestamp", "detect_tx_origin",
    "detect_unchecked_call", "scan_corpus",
    "EmbeddingConfig", "EmbeddingModel", "load_model", "save_model", "train_embedding",
    "ConfusionMatrix", "MetricsReport", "confusion", "metrics", "project2d",
    "ContractRecord", "ContractStore", "Dataset", "ExplorerClient",
    "build_mixed_dataset", "source_hash",
    "PipelineConfig", "run_pipeline", "scan_contract",
    "SOLIDITY_KEYWORDS", "TokenDoc", "normalize", "preprocess_contract",
    "remove_keywords", "strip_comments",
    "Dictionary", "DocumentVector", "TfidfModel", "build_dictionary",
    "doc2bow", "document_vectors", "select_keywords", "tfidf_scores",
    "__version__",
]
