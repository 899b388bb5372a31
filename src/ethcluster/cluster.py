"""PCA reduction and seeded k-means over document vectors.

PCA centers by column means and keeps the leading right-singular vectors of
the centered matrix. k-means is plain Lloyd's iteration from seeded random
data rows, Euclidean distance, lowest-id tie-breaks, with an explicit repair
step when a cluster empties. Cluster labels come from the vulnerable-first
ordering of the training dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from ._artifact import floats, read_json, write_json
from .errors import (
    AlignmentError,
    DimError,
    FormatError,
    InvalidComponents,
    InvalidInput,
    TooManyClusters,
)
from .ingest import CLEAN, VULNERABLE, Dataset


@dataclass(frozen=True)
class PcaBasis:
    """Column means plus the top right-singular vectors of the centered data."""

    mean: np.ndarray
    components: np.ndarray  # dim x num_components, orthonormal columns
    num_components: int


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
    return PcaBasis(mean=mean, components=vt[:num_components].T.copy(),
                    num_components=num_components)


def pca_transform(basis: PcaBasis, X: np.ndarray) -> np.ndarray:
    """Project rows (training or unseen) onto the fitted basis."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != basis.mean.shape[0]:
        raise DimError(f"expected {basis.mean.shape[0]} columns, got {X.shape[1]}")
    return (X - basis.mean) @ basis.components


@dataclass
class ClusterModel:
    centers: np.ndarray  # k x d
    k: int
    assignments: np.ndarray  # training row -> cluster id
    seed: int
    iterations_run: int
    labels: dict[int, str] = field(default_factory=dict)
    objective_history: list[float] = field(default_factory=list)


def kmeans_fit(X: np.ndarray, k: int, max_iterations: int = 100, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm from k distinct seeded random rows.

    Iterates nearest-center assignment and mean update until assignments
    stop changing or ``max_iterations`` is hit; the stored assignments are
    always consistent with the final centers. A cluster that loses all
    members is re-seeded with the row farthest from its former center.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, dim = X.shape
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if max_iterations < 1:
        raise InvalidInput(f"max_iterations must be >= 1, got {max_iterations}")
    if k > n:
        raise TooManyClusters(f"k={k} exceeds {n} data rows")

    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)].copy()

    assignments = np.empty(n, dtype=np.int64)
    objective = _kernels.kmeans_assign(X, centers, assignments)
    history = [float(objective)]
    iterations_run = 0

    for _ in range(max_iterations):
        iterations_run += 1
        sums = np.zeros((k, dim))
        counts = np.zeros(k, dtype=np.int64)
        _kernels.kmeans_update(X, assignments, sums, counts)
        for c in range(k):
            if counts[c] == 0:
                # re-seed the empty cluster on the row farthest from its old center
                dist = np.einsum("ij,ij->i", X - centers[c], X - centers[c])
                centers[c] = X[int(np.argmax(dist))]
            else:
                centers[c] = sums[c] / counts[c]
        new_assignments = np.empty(n, dtype=np.int64)
        objective = _kernels.kmeans_assign(X, centers, new_assignments)
        history.append(float(objective))
        converged = bool(np.array_equal(new_assignments, assignments))
        assignments = new_assignments
        if converged:
            break

    return ClusterModel(
        centers=centers,
        k=k,
        assignments=assignments,
        seed=seed,
        iterations_run=iterations_run,
        objective_history=history,
    )


def label_clusters(model: ClusterModel, dataset: Dataset) -> ClusterModel:
    """Label each cluster from the dataset's vulnerable-first ordering.

    Majority vote over member truth labels; an exact tie goes to vulnerable
    (biasing toward recall); an empty cluster is clean.
    """
    truth = dataset.truth_labels
    if len(truth) != len(model.assignments):
        raise AlignmentError(
            f"{len(model.assignments)} assignments vs {len(truth)} dataset entries"
        )
    labels: dict[int, str] = {}
    for c in range(model.k):
        members = [truth[i] for i in range(len(truth)) if model.assignments[i] == c]
        if not members:
            labels[c] = CLEAN
            continue
        vuln = sum(1 for label in members if label == VULNERABLE)
        labels[c] = VULNERABLE if 2 * vuln >= len(members) else CLEAN
    model.labels = labels
    return model


def nearest_center(model: ClusterModel, v: np.ndarray) -> int:
    """Index of the nearest center, by the distance and tie rule of training."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.centers.shape[1],):
        raise DimError(f"expected dimension {model.centers.shape[1]}, got {v.shape}")
    out = np.empty(1, dtype=np.int64)
    _kernels.kmeans_assign(v[None, :], model.centers, out)
    return int(out[0])


def predict(model: ClusterModel, basis: PcaBasis | None, values: np.ndarray) -> str:
    """Label one document vector with its nearest cluster's label."""
    if not model.labels:
        raise InvalidInput("cluster model has no labels; run label_clusters first")
    v = np.asarray(values, dtype=np.float64)
    if basis is not None:
        v = pca_transform(basis, v)[0]
    return model.labels[nearest_center(model, v)]


# --- persistence -----------------------------------------------------------

def save_cluster_model(model: ClusterModel, basis: PcaBasis | None,
                       path: str | Path, extra: dict | None = None) -> None:
    """Persist centers, labels, assignments and the optional PCA basis.

    Floats go through repr-style JSON serialization, so loading reproduces
    them bit-exactly.
    """
    payload = {
        "k": model.k,
        "seed": model.seed,
        "iterations_run": model.iterations_run,
        "centers": model.centers.tolist(),
        "assignments": model.assignments.tolist(),
        "labels": {str(c): label for c, label in model.labels.items()},
        "pca": None if basis is None else {
            "mean": basis.mean.tolist(),
            "components": basis.components.tolist(),
            "num_components": basis.num_components,
        },
    }
    if extra:
        payload["config"] = extra
    write_json(payload, path)


def _cluster_model(payload: dict) -> tuple[ClusterModel, PcaBasis | None, dict]:
    centers, pca = floats(payload["centers"], 2), payload["pca"]
    model = ClusterModel(
        centers=centers,
        k=len(centers),
        assignments=np.array(payload["assignments"], dtype=np.int64),
        seed=payload["seed"],
        iterations_run=payload["iterations_run"],
        labels={int(c): label for c, label in payload["labels"].items()},
    )
    basis = None if pca is None else PcaBasis(
        floats(pca["mean"], 1), floats(pca["components"], 2), pca["num_components"])
    ids = model.assignments
    if (ids.ndim != 1 or np.any((ids < 0) | (ids >= model.k))
            or model.labels and sorted(model.labels) != list(range(model.k))
            or basis is not None and basis.components.shape != (len(basis.mean), centers.shape[1])):
        raise FormatError(f"assignments, labels or PCA basis disagree with {centers.shape} centers")
    return model, basis, payload.get("config", {})


def load_cluster_model(path: str | Path) -> tuple[ClusterModel, PcaBasis | None, dict]:
    return read_json(path, _cluster_model)
