"""PCA reduction and seeded k-means over document vectors.

PCA centers by column means and keeps the leading right-singular vectors of
the centered matrix. k-means is plain Lloyd's iteration from seeded random
data rows, Euclidean distance, lowest-id tie-breaks, with an explicit repair
step when a cluster empties. Each cluster is labeled by a majority vote of its
members' truth labels, so the labels do not depend on the dataset's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from ._artifact import floats, ints, pack, read_json, strings, write_json
from .errors import (
    AlignmentError,
    DimError,
    FormatError,
    InvalidComponents,
    InvalidInput,
    TooManyClusters,
)
from .ingest import CLEAN, VULNERABLE, Dataset

#: PCA reduces to PCA_DIM components only when the training rows and the vector
#: width both exceed it; on fewer rows it could only rotate them
#: (``pipeline.cluster_vectors``).
PCA_DIM = 50
#: Lloyd's iteration cap of every trained model.
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class PcaBasis:
    """Column means plus the top right-singular vectors of the centered data."""

    mean: np.ndarray
    components: np.ndarray  # dim x num_components, orthonormal columns

    @property
    def num_components(self) -> int:
        return self.components.shape[1]


def pca_fit(X: np.ndarray, num_components: int) -> PcaBasis:
    """Fit the projection basis: center by column means, SVD, keep the lead."""
    X = np.asarray(X, dtype=np.float64)
    n, dim = X.shape
    if n < 2:
        raise InvalidInput(f"need at least 2 rows to fit PCA, got {n}")
    if not 1 <= num_components <= min(n, dim):
        raise InvalidComponents(
            f"num_components={num_components} outside [1, min(n={n}, dim={dim})]"
        )
    mean = X.mean(axis=0)
    _, _, vt = np.linalg.svd(X - mean, full_matrices=False)
    return PcaBasis(mean=mean, components=vt[:num_components].T.copy())


def pca_transform(basis: PcaBasis, X: np.ndarray) -> np.ndarray:
    """Project rows (training or unseen) onto the fitted basis."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != basis.mean.shape[0]:
        raise DimError(f"expected rows of {basis.mean.shape[0]} columns, got shape {X.shape}")
    return (X - basis.mean) @ basis.components


@dataclass
class ClusterModel:
    """k-means centers in model space, which is PCA space when ``pca`` is set."""

    centers: np.ndarray  # k x d
    assignments: np.ndarray  # training row -> cluster id
    seed: int
    iterations_run: int
    labels: dict[int, str] = field(default_factory=dict)
    objective_history: list[float] = field(default_factory=list)
    pca: PcaBasis | None = None
    hashes: list[str] = field(default_factory=list)  # training row -> contract_hash

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        """The width of the document vectors the model assigns."""
        return self.centers.shape[1] if self.pca is None else self.pca.mean.shape[0]


def kmeans_fit(X: np.ndarray, k: int, max_iterations: int = MAX_ITERATIONS, *,
               seed: int) -> ClusterModel:
    """Lloyd's algorithm from k seeded random rows.

    The k row indices are distinct, but their values may repeat, so two
    starting centers can coincide when ``X`` has fewer than k distinct rows.

    Iterates nearest-center assignment and mean update until assignments
    stop changing or ``max_iterations`` is hit; the stored assignments are
    always consistent with the final centers. A cluster that loses all members
    is re-seeded with the row farthest from its former center, by the distances
    of the assignment that emptied it.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, _ = X.shape
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if max_iterations < 1:
        raise InvalidInput(f"max_iterations must be >= 1, got {max_iterations}")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    if k > n:
        raise TooManyClusters(f"k={k} exceeds {n} data rows")

    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)]

    assignments, objective, dist = _kernels.kmeans_assign(X, centers)
    history = [objective]

    for iterations_run in range(1, max_iterations + 1):
        sums, counts = _kernels.kmeans_update(X, assignments, k)
        empty = counts == 0
        centers = sums / np.maximum(counts, 1)[:, None]
        # re-seed each empty cluster on the row farthest from its old center
        centers[empty] = X[dist[empty].argmax(axis=1)]
        previous = assignments
        assignments, objective, dist = _kernels.kmeans_assign(X, centers)
        history.append(objective)
        if np.array_equal(assignments, previous):
            break

    return ClusterModel(
        centers=centers,
        assignments=assignments,
        seed=seed,
        iterations_run=iterations_run,
        objective_history=history,
    )


def check_aligned(hashes: list[str], expected: list[str], what: str) -> None:
    """Refuse ``what`` unless its contract hashes are ``expected``, in order."""
    if hashes != expected:
        raise AlignmentError(f"{what} does not cover the same {len(expected)} contracts in order")


def label_clusters(model: ClusterModel, dataset: Dataset) -> ClusterModel:
    """Label each cluster by a majority vote of its members' truth labels.

    An exact tie goes to vulnerable (biasing toward recall); an empty cluster
    is clean. Permuting the records and assignments together keeps the labels.
    """
    check_aligned(model.hashes, [rec.source_hash for rec in dataset.records], "the cluster model")
    truth = dataset.truth_labels
    members = np.bincount(model.assignments, minlength=model.k)
    vulnerable = np.bincount(model.assignments[[t == VULNERABLE for t in truth]], minlength=model.k)
    model.labels = {c: VULNERABLE if members[c] and 2 * vulnerable[c] >= members[c] else CLEAN
                    for c in range(model.k)}
    return model


def assign(model: ClusterModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``X`` in model space and the id of each one's nearest center,
    by the distance and tie rule of training (ties go to the lowest id)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimError(f"expected rows of dimension {model.input_dim}, got shape {X.shape}")
    if model.pca is not None:
        X = pca_transform(model.pca, X)
    return X, _kernels.kmeans_assign(X, model.centers)[0]


def predict(model: ClusterModel, values: np.ndarray) -> str:
    """Label one document vector with its nearest cluster's label."""
    if not model.labels:
        raise InvalidInput("cluster model has no labels; run label_clusters first")
    _, ids = assign(model, np.asarray(values, dtype=np.float64)[None])
    return model.labels[int(ids[0])]


# --- persistence -----------------------------------------------------------

def save_cluster_model(model: ClusterModel, path: str | Path) -> None:
    """Persist centers, labels, assignments, hashes and the optional PCA basis.

    Each float matrix is a ``pack`` payload of its float64 bytes, so loading
    reproduces it bit-exactly; ``k`` and ``num_components`` restate the shapes.
    """
    pca = model.pca
    write_json({
        "k": model.k,
        "seed": model.seed,
        "iterations_run": model.iterations_run,
        "centers": pack(model.centers),
        "assignments": model.assignments.tolist(),
        "hashes": model.hashes,
        "labels": {str(c): label for c, label in model.labels.items()},
        "pca": None if pca is None else {
            "mean": pack(pca.mean),
            "components": pack(pca.components),
            "num_components": pca.num_components,
        },
    }, path, "model")


def _cluster_model(payload: dict) -> ClusterModel:
    pca, centers = payload["pca"], floats(payload["centers"], 2)
    basis = None if pca is None else PcaBasis(floats(pca["mean"], 1), floats(pca["components"], 2))
    ids = ints(payload["assignments"], 0, len(centers))
    seed, iterations_run = ints([payload["seed"], payload["iterations_run"]], 0, float("inf"))
    model = ClusterModel(centers, np.array(ids, dtype=np.int64), seed, iterations_run,
                         labels={int(c): label for c, label in payload["labels"].items()},
                         pca=basis, hashes=strings(payload["hashes"], len(ids)))
    if (payload["k"] != model.k or basis and pca["num_components"] != basis.num_components
            or model.labels and set(payload["labels"]) != {str(c) for c in range(model.k)}
            or not set(model.labels.values()) <= {VULNERABLE, CLEAN}
            or basis and basis.components.shape != (len(basis.mean), model.centers.shape[1])):
        raise FormatError(f"k, labels or PCA basis disagree with {model.centers.shape} centers")
    return model


def load_cluster_model(path: str | Path) -> ClusterModel:
    return read_json(path, _cluster_model, "model")
