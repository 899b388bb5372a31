import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ethcluster._artifact import write_json
from ethcluster.cluster import (
    ClusterModel,
    assign,
    kmeans_fit,
    label_clusters,
    load_cluster_model,
    pca_fit,
    pca_transform,
    predict,
    save_cluster_model,
)
from ethcluster.errors import (
    AlignmentError,
    DimError,
    FormatError,
    InvalidComponents,
    InvalidInput,
    TooManyClusters,
)
from ethcluster.ingest import CLEAN, VULNERABLE, ContractRecord, Dataset


def brute_force_lloyd(X, initial_centers, max_iterations=100):
    """Independent Lloyd's oracle: plain Python loops from given centers.

    Same contract as the production code (lowest-id tie-break, farthest-row
    repair for empty clusters, stop when assignments stabilize) but written
    without numpy vector tricks or the kernel module.
    """
    points = [list(map(float, row)) for row in X]
    centers = [list(map(float, row)) for row in initial_centers]
    n, k, dim = len(points), len(centers), len(points[0])

    def dist2(a, b):
        return sum((a[d] - b[d]) ** 2 for d in range(dim))

    def assign():
        out = []
        for p in points:
            best, best_d = 0, dist2(p, centers[0])
            for c in range(1, k):
                dd = dist2(p, centers[c])
                if dd < best_d:
                    best, best_d = c, dd
            out.append(best)
        return out

    assignments = assign()
    for _ in range(max_iterations):
        for c in range(k):
            members = [p for p, a in zip(points, assignments) if a == c]
            if not members:
                far = max(range(n), key=lambda i: dist2(points[i], centers[c]))
                centers[c] = list(points[far])
            else:
                centers[c] = [sum(m[d] for m in members) / len(members) for d in range(dim)]
        new_assignments = assign()
        if new_assignments == assignments:
            break
        assignments = new_assignments
    return assignments


def _dataset_with_labels(labels):
    entries = []
    for i, label in enumerate(labels):
        rec = ContractRecord.build(chain="local", address=f"0x{i:040x}",
                                   source=f"contract D{i} {{}}", fetched_at="")
        entries.append((rec, label))
    return Dataset(entries=tuple(entries))


def _hashes(n):
    """The contracts, in order, of ``_dataset_with_labels`` over ``n`` labels."""
    return [rec.source_hash for rec in _dataset_with_labels([CLEAN] * n).records]


def _fitted_model(X, pca):
    """k=4 k-means on ``X``, or on its 3-component PCA projection."""
    basis = pca_fit(X, 3) if pca else None
    model = kmeans_fit(X if basis is None else pca_transform(basis, X), k=4, seed=3)
    model.pca = basis
    return model


class TestPca:
    def test_collinear_line(self):
        t = np.linspace(-3, 3, 12)
        X = np.stack([t, t], axis=1)
        basis = pca_fit(X, 1)
        direction = basis.components[:, 0]
        assert np.allclose(np.abs(direction), [1 / math.sqrt(2)] * 2, atol=1e-10)
        proj = pca_transform(basis, X)
        total_var = X.var(axis=0, ddof=1).sum()
        assert proj.var(axis=0, ddof=1).sum() == pytest.approx(total_var, rel=1e-10)

    def test_full_basis_is_isometry(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((9, 4))
        proj = pca_transform(pca_fit(X, 4), X)
        for i in range(len(X)):
            for j in range(i + 1, len(X)):
                orig = np.linalg.norm(X[i] - X[j])
                new = np.linalg.norm(proj[i] - proj[j])
                assert new == pytest.approx(orig, abs=1e-8)

    @pytest.mark.parametrize("n,dim,seed", [(10, 4, 1), (50, 10, 2)])
    def test_projected_variance_matches_eigenvalues(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, dim)) @ np.diag(rng.uniform(0.5, 3.0, dim))
        k = min(n, dim)
        basis = pca_fit(X, k)
        proj = pca_transform(basis, X)

        # brute-force oracle: explicit covariance matrix, eigendecomposition
        Xc = X - X.mean(axis=0)
        cov = (Xc.T @ Xc) / (n - 1)
        eigvals = np.sort(np.linalg.eigvalsh(cov))[::-1]

        proj_var = proj.var(axis=0, ddof=1)
        for got, want in zip(proj_var, eigvals[:k]):
            assert got == pytest.approx(want, rel=1e-6)

    def test_component_orthonormality(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 8))
        basis = pca_fit(X, 5)
        gram = basis.components.T @ basis.components
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_projected_columns_uncorrelated(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 6))
        proj = pca_transform(pca_fit(X, 4), X)
        cov = np.cov(proj, rowvar=False)
        off_diag = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diag)) <= 1e-6

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 5))
        basis = pca_fit(X, 3)
        assert np.allclose(pca_transform(basis, X.mean(axis=0, keepdims=True)), 0.0, atol=1e-12)

    def test_transform_is_affine(self):
        # centered projection: transform(a + b - mean) = transform(a) + transform(b)
        rng = np.random.default_rng(15)
        X = rng.standard_normal((10, 5))
        basis = pca_fit(X, 3)
        a, b = rng.standard_normal(5)[None], rng.standard_normal(5)[None]
        lhs = pca_transform(basis, a + b - basis.mean)
        rhs = pca_transform(basis, a) + pca_transform(basis, b)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_transform_pure(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 3))
        basis = pca_fit(X, 2)
        assert np.array_equal(pca_transform(basis, X), pca_transform(basis, X))

    def test_invalid_components(self):
        X = np.zeros((5, 3))
        with pytest.raises(InvalidComponents):
            pca_fit(X, 4)
        with pytest.raises(InvalidComponents):
            pca_fit(X, 0)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(7)
        basis = pca_fit(rng.standard_normal((6, 4)), 2)
        with pytest.raises(DimError):
            pca_transform(basis, rng.standard_normal((3, 5)))

    def test_one_dimensional_row_is_a_dim_error(self):
        # every caller passes rows as a matrix; a bare row is not reshaped
        rng = np.random.default_rng(7)
        basis = pca_fit(rng.standard_normal((6, 4)), 2)
        with pytest.raises(DimError):
            pca_transform(basis, rng.standard_normal(4))


class TestKmeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(10)
        low = rng.uniform(-0.1, 0.1, (12, 2))
        high = rng.uniform(9.9, 10.1, (9, 2))
        X = np.vstack([low, high])
        model = kmeans_fit(X, k=2, seed=42)
        first = set(model.assignments[:12])
        second = set(model.assignments[12:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_k_equals_n(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 3))
        model = kmeans_fit(X, k=6, seed=1)
        assert sorted(model.assignments) == list(range(6))
        assert model.objective_history[-1] == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_brute_force_oracle(self, k):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 2))
        model = kmeans_fit(X, k=k, max_iterations=100, seed=99)
        # reconstruct the same seeded initial centers for the oracle
        init_rng = np.random.default_rng(99)
        init = X[init_rng.choice(20, size=k, replace=False)]
        oracle = brute_force_lloyd(X, init)
        assert list(model.assignments) == oracle

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_emptied_clusters_match_brute_force_oracle(self, data):
        """Few distinct rows under many clusters leave clusters empty, so this
        pins which row re-seeds each one: the farthest from its old center."""
        dim = data.draw(st.integers(1, 3))
        points = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim),
                                    min_size=1, max_size=4, unique=True))
        rows = data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=30))
        k = data.draw(st.integers(1, min(8, len(rows))))
        seed = data.draw(st.integers(0, 2**32 - 1))
        X = np.array(rows, dtype=np.float64)
        model = kmeans_fit(X, k=k, seed=seed)
        init = X[np.random.default_rng(seed).choice(len(X), size=k, replace=False)]
        assert model.assignments.tolist() == brute_force_lloyd(X, init)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((40, 3))
        model = kmeans_fit(X, k=4, seed=7)
        history = model.objective_history
        assert len(history) >= 2
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-9

    def test_assignments_are_nearest_centers(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((25, 4))
        model = kmeans_fit(X, k=3, seed=5)
        for i, row in enumerate(X):
            assert model.assignments[i] == assign(model, row[None])[1][0]

    def test_seed_determinism(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((30, 3))
        m1 = kmeans_fit(X, k=4, seed=1194)
        m2 = kmeans_fit(X, k=4, seed=1194)
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(m1.assignments, m2.assignments)
        assert m1.iterations_run == m2.iterations_run

    def test_too_many_clusters(self):
        with pytest.raises(TooManyClusters):
            kmeans_fit(np.zeros((3, 2)), k=4, seed=0)

    def test_invalid_parameters(self):
        X = np.zeros((5, 2))
        with pytest.raises(InvalidInput):
            kmeans_fit(X, k=0, seed=0)
        with pytest.raises(InvalidInput):
            kmeans_fit(X, k=2, max_iterations=0, seed=0)
        with pytest.raises(InvalidInput, match="seed"):
            kmeans_fit(X, k=2, seed=-1)

    def test_duplicate_rows_handled(self):
        X = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5)
        model = kmeans_fit(X, k=2, seed=3)
        assert len(set(model.assignments[:5])) == 1
        assert len(set(model.assignments[5:])) == 1


class TestLabeling:
    def _model_with_assignments(self, assignments, k):
        return ClusterModel(
            centers=np.zeros((k, 2)),
            assignments=np.array(assignments, dtype=np.int64),
            seed=0, iterations_run=1, hashes=_hashes(len(assignments)),
        )

    def test_unanimous_vulnerable(self):
        model = self._model_with_assignments([0, 0, 1, 1], k=2)
        dataset = _dataset_with_labels([VULNERABLE, VULNERABLE, CLEAN, CLEAN])
        labeled = label_clusters(model, dataset)
        assert labeled.labels == {0: VULNERABLE, 1: CLEAN}

    def test_tie_goes_vulnerable(self):
        model = self._model_with_assignments([0, 0, 0, 0], k=1)
        dataset = _dataset_with_labels([VULNERABLE, VULNERABLE, CLEAN, CLEAN])
        assert label_clusters(model, dataset).labels == {0: VULNERABLE}

    def test_majority_clean(self):
        model = self._model_with_assignments([0, 0, 0], k=1)
        dataset = _dataset_with_labels([VULNERABLE, CLEAN, CLEAN])
        assert label_clusters(model, dataset).labels == {0: CLEAN}

    def test_empty_cluster_clean(self):
        model = self._model_with_assignments([0, 0], k=2)
        dataset = _dataset_with_labels([VULNERABLE, VULNERABLE])
        assert label_clusters(model, dataset).labels[1] == CLEAN

    def test_misaligned_lengths(self):
        model = self._model_with_assignments([0, 0], k=1)
        dataset = _dataset_with_labels([VULNERABLE])
        with pytest.raises(AlignmentError):
            label_clusters(model, dataset)

    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([VULNERABLE, CLEAN])),
                    min_size=1, max_size=12), st.data())
    def test_labels_do_not_depend_on_dataset_order(self, members, data):
        """Permuting the records and the assignments together gives the same labels."""
        order = data.draw(st.permutations(range(len(members))))
        dataset = _dataset_with_labels([label for _, label in members])
        model = self._model_with_assignments([c for c, _ in members], k=4)
        permuted = Dataset(tuple(dataset.entries[i] for i in order))
        moved = self._model_with_assignments([members[i][0] for i in order], k=4)
        moved.hashes = [rec.source_hash for rec in permuted.records]
        assert label_clusters(moved, permuted).labels == label_clusters(model, dataset).labels

    def test_same_length_in_another_order_is_refused(self):
        model = self._model_with_assignments([0, 0, 1, 1], k=2)
        model.hashes.reverse()
        with pytest.raises(AlignmentError, match="does not cover the same 4 contracts"):
            label_clusters(model, _dataset_with_labels([VULNERABLE, VULNERABLE, CLEAN, CLEAN]))


class TestPredict:
    def _fitted(self):
        X = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
        model = kmeans_fit(X, k=2, seed=2)
        dataset = _dataset_with_labels(
            [VULNERABLE if model.assignments[i] == model.assignments[0] else CLEAN
             for i in range(4)]
        )
        model.hashes = _hashes(4)
        return label_clusters(model, dataset)

    def test_vector_at_center(self):
        model = self._fitted()
        for c in range(model.k):
            assert predict(model, model.centers[c]) == model.labels[c]

    def test_zero_vector_goes_to_nearest_origin_center(self):
        model = self._fitted()
        # hand-computed: distances from the origin to each center
        dists = [float(np.linalg.norm(model.centers[c])) for c in range(model.k)]
        expected = model.labels[int(np.argmin(dists))]
        assert predict(model, np.zeros(2)) == expected

    @pytest.mark.parametrize("pca", [False, True], ids=["plain", "pca"])
    def test_nearest_center_is_the_training_assignment(self, pca):
        X = np.random.default_rng(31).normal(size=(40, 5))
        model = _fitted_model(X, pca)
        assert [assign(model, x[None])[1][0] for x in X] == model.assignments.tolist()
        assert assign(model, X)[1].tolist() == model.assignments.tolist()

    def test_nearest_center_tie_goes_to_lowest_id(self):
        model = ClusterModel(centers=np.array([[2.0, 0.0], [0.0, 0.0], [2.0, 0.0]]),
                             assignments=np.zeros(1, dtype=np.int64), seed=0,
                             iterations_run=0)
        _, ids = assign(model, np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]))
        assert ids.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("pca", [False, True], ids=["plain", "pca"])
    @pytest.mark.parametrize("shape", [(3, 4), (3, 6), (5,), (1, 1, 5)])
    def test_assign_refuses_rows_of_another_width(self, pca, shape):
        model = _fitted_model(np.random.default_rng(33).normal(size=(12, 5)), pca)
        with pytest.raises(DimError):
            assign(model, np.zeros(shape))

    def test_unlabeled_model_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = kmeans_fit(X, k=2, seed=0)
        with pytest.raises(InvalidInput):
            predict(model, np.zeros(2))

    def test_dimension_mismatch(self):
        model = self._fitted()
        with pytest.raises(DimError):
            predict(model, np.zeros(3))

    def test_predict_through_pca(self):
        rng = np.random.default_rng(30)
        X = np.vstack([rng.normal(0, 0.1, (10, 6)), rng.normal(5, 0.1, (10, 6))])
        basis = pca_fit(X, 2)
        Xp = pca_transform(basis, X)
        model = kmeans_fit(Xp, k=2, seed=4)
        dataset = _dataset_with_labels([VULNERABLE] * 10 + [CLEAN] * 10)
        model.hashes = _hashes(20)
        model = label_clusters(model, dataset)
        model.pca = basis
        assert predict(model, X[0]) == model.labels[int(model.assignments[0])]


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((15, 7))
        basis = pca_fit(X, 3)
        model = kmeans_fit(pca_transform(basis, X), k=3, seed=8)
        dataset = _dataset_with_labels([VULNERABLE] * 5 + [CLEAN] * 10)
        model.hashes = _hashes(15)
        model = label_clusters(model, dataset)
        model.pca = basis

        path = tmp_path / "model.json"
        save_cluster_model(model, path)
        loaded = load_cluster_model(path)
        loaded_basis = loaded.pca

        assert np.array_equal(loaded.centers, model.centers)
        assert np.array_equal(loaded.assignments, model.assignments)
        assert loaded.labels == model.labels
        assert loaded.hashes == model.hashes
        assert np.array_equal(loaded_basis.mean, basis.mean)
        assert np.array_equal(loaded_basis.components, basis.components)

    def test_no_pca_round_trip(self, tmp_path):
        model = kmeans_fit(np.random.default_rng(32).standard_normal((6, 2)), k=2, seed=1)
        model.hashes = [f"h{i}" for i in range(6)]
        path = tmp_path / "model.json"
        save_cluster_model(model, path)
        assert load_cluster_model(path).pca is None

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "model.json"
        write_json({"k": 2}, path, "model")
        with pytest.raises(FormatError):
            load_cluster_model(path)
