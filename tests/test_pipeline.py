import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    access_control_source,
    clean_source,
    reentrant_source,
    timestamp_source,
    tx_origin_source,
    unchecked_source,
    write_corpus,
)
from ethcluster import _artifact, _kernels, embed, pipeline, vectorize
from ethcluster import cluster as cl
from ethcluster.cluster import load_cluster_model, save_cluster_model
from ethcluster.detect import KINDS, REGEX_KINDS, detector_for
from ethcluster.errors import (
    DimError,
    EthClusterError,
    InvalidInput,
    ModelNotFound,
    PathError,
    PipelineStageError,
)
from ethcluster.ingest import Dataset, build_mixed_dataset, records_from_dir
from ethcluster.pipeline import PipelineConfig, run_pipeline, scan_contract
from ethcluster.preprocess import preprocess_contract

ARTIFACTS = ["preprocess.json", "detect.json", "embedding.vec",
             "keywords.json", "vectors.json", "model.json",
             "report.json", "report.txt"]


def make_dataset(tmp_path, vulnerable_sources, clean_sources, fraction=0.3):
    write_corpus(tmp_path / "vuln", vulnerable_sources)
    write_corpus(tmp_path / "clean", clean_sources)
    dataset = build_mixed_dataset(
        records_from_dir(tmp_path / "vuln"),
        records_from_dir(tmp_path / "clean"),
        fraction,
    )
    path = tmp_path / "dataset.json"
    dataset.save(path)
    return path


def train_reentrancy(tmp_path, vulnerable_sources, clean_sources, **values):
    """A two-epoch reentrancy run into ``tmp_path / "work"``; its config."""
    config = PipelineConfig.resolve({
        "vulnerability": "reentrancy",
        "dataset": str(make_dataset(tmp_path, vulnerable_sources, clean_sources)),
        "workdir": str(tmp_path / "work"),
        "epochs": 2,
        **values,
    })
    run_pipeline(config)
    return config


def _resolved(values):
    return PipelineConfig.resolve({"vulnerability": "reentrancy", **values})


def _built(values):
    """A directly built config: the reentrancy defaults, with ``values`` over them."""
    kind = KINDS["reentrancy"]
    return PipelineConfig(**{"vulnerability": "reentrancy", "vector_size": kind.vector_size,
                             "tfidf_threshold": kind.tfidf_threshold,
                             "num_clusters": kind.num_clusters, **values})


def _both_ways(cases):
    """Each ``(id, field, value)`` case once through ``resolve``, under its id,
    and once through direct construction, under ``direct-<id>``."""
    return [pytest.param(build, field, value, id=prefix + case_id)
            for prefix, build in (("", _resolved), ("direct-", _built))
            for case_id, field, value in cases]


def _default_run(tmp_path_factory, vulnerability, generator):
    """A pipeline of ``vulnerability`` at its defaults, trained on 15 of its
    contracts and 40 clean ones; its config and report."""
    tmp_path = tmp_path_factory.mktemp(vulnerability)
    dataset_path = make_dataset(
        tmp_path,
        [generator(i) for i in range(15)],
        [clean_source(i) for i in range(40)],
    )
    config = PipelineConfig.resolve({
        "vulnerability": vulnerability,
        "dataset": str(dataset_path),
        "workdir": str(tmp_path / "work"),
    })
    report = run_pipeline(config)
    return config, report


@pytest.fixture(scope="module")
def reentrancy_run(tmp_path_factory):
    """One trained reentrancy pipeline shared by the read-only assertions."""
    return _default_run(tmp_path_factory, "reentrancy", reentrant_source)


@pytest.fixture(scope="module")
def unchecked_call_run(tmp_path_factory):
    """One trained unchecked_call pipeline: dim 100, so PCA, and k = 8."""
    return _default_run(tmp_path_factory, "unchecked_call", unchecked_source)


class TestConfigResolution:
    def test_reentrancy_defaults(self):
        config = PipelineConfig.resolve({"vulnerability": "reentrancy"})
        assert (config.vector_size, config.tfidf_threshold, config.num_clusters) == (10, 0.7, 5)
        assert config.seed == 1194
        assert cl.MAX_ITERATIONS == 100

    @pytest.mark.parametrize("vulnerability", KINDS)
    def test_every_vulnerability_has_defaults(self, vulnerability):
        config = PipelineConfig.resolve({"vulnerability": vulnerability})
        kind = KINDS[vulnerability]
        assert config.vector_size == kind.vector_size
        assert config.tfidf_threshold == kind.tfidf_threshold
        assert config.num_clusters == kind.num_clusters

    def test_readme_defaults_table_matches_kinds(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        table = readme[readme.index("| vulnerability "):].split("\n\n")[0].splitlines()[2:]
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
        assert [(name, int(dim), float(threshold), int(k)) for name, dim, threshold, k in rows] == [
            (name, kind.vector_size, kind.tfidf_threshold, kind.num_clusters)
            for name, kind in KINDS.items()]

    def test_readme_fixed_values_match_constants(self):
        readme = " ".join((Path(__file__).parent.parent / "README.md").read_text("utf-8").split())
        stated = [
            f"Seed defaults to {embed.DEFAULT_SEED} everywhere (`ethcluster.embed.DEFAULT_SEED`)",
            f"`epochs` to {embed.EmbeddingConfig.epochs}.",
            f"window {embed.WINDOW} (`embed.WINDOW`)",
            f"{embed.NEGATIVE} negative samples (`embed.NEGATIVE`)",
            f"learning rate {embed.LEARNING_RATE} (`embed.LEARNING_RATE`)",
            f"minibatches of at most {_kernels.BATCH} pairs (`_kernels.BATCH`)",
            f"chunks of at least {embed.CHUNK} tokens (`embed.CHUNK`)",
            f"PCA to {cl.PCA_DIM} components when vectors are wider than {cl.PCA_DIM}",
            f"at most {cl.MAX_ITERATIONS} k-means iterations",
        ]
        assert [phrase for phrase in stated if phrase not in readme] == []

    @pytest.mark.parametrize("build, field, value", _both_ways([
        ("num_clusters-5", "num_clusters", "5"), ("seed-x", "seed", "x"),
        ("vector_size-None", "vector_size", None), ("epochs-1.5", "epochs", 1.5),
        ("tfidf_threshold-0.7", "tfidf_threshold", "0.7"), ("epochs-True", "epochs", True),
        ("dataset-3", "dataset", 3), ("vulnerability-value7", "vulnerability", ["reentrancy"]),
        ("workdir-False", "workdir", False), ("workdir-0", "workdir", 0),
        ("workdir-list", "workdir", []),
    ]))
    def test_wrong_typed_value_is_refused(self, build, field, value):
        with pytest.raises(InvalidInput, match=field):
            build({field: value})

    def test_explicit_values_win(self):
        config = PipelineConfig.resolve({
            "vulnerability": "reentrancy", "vector_size": 20, "seed": 7,
        })
        assert config.vector_size == 20
        assert config.seed == 7
        assert config.tfidf_threshold == 0.7

    def test_unknown_vulnerability(self):
        with pytest.raises(InvalidInput):
            PipelineConfig.resolve({"vulnerability": "gas_griefing"})

    def test_unknown_field(self):
        for name in ("bogus", "window"):
            with pytest.raises(InvalidInput, match="unknown config fields"):
                PipelineConfig.resolve({"vulnerability": "reentrancy", name: 1})

    @pytest.mark.parametrize("build, field, value", _both_ways([
        ("seed--1", "seed", -1), ("epochs-0", "epochs", 0), ("vector_size-0", "vector_size", 0),
        ("num_clusters-0", "num_clusters", 0), ("tfidf_threshold--5.0", "tfidf_threshold", -5.0),
        ("tfidf_threshold-nan", "tfidf_threshold", float("nan")),
        ("tfidf_threshold-inf", "tfidf_threshold", float("inf")),
    ]))
    def test_out_of_range_embedding_setting_is_refused(self, build, field, value):
        with pytest.raises(InvalidInput, match=field):
            build({field: value})

    def test_workdir_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ETHCLUSTER_WORKDIR", "/tmp/elsewhere")
        for unset in ({}, {"workdir": None}, {"workdir": ""}):
            config = PipelineConfig.resolve({"vulnerability": "timestamp", **unset})
            assert config.workdir == "/tmp/elsewhere"

    def test_regex_kind_mapping(self):
        assert PipelineConfig.resolve({"vulnerability": "reentrancy"}).regex_kind == "reentrancy"
        assert PipelineConfig.resolve({"vulnerability": "access_control"}).regex_kind is None


class TestRunPipeline:
    def test_artifacts_written(self, reentrancy_run):
        config, _ = reentrancy_run
        for name in ARTIFACTS:
            assert (config.stage_dir() / name).exists(), name

    def test_artifacts_hold_no_float_lists(self, tmp_path):
        """Every float array goes through ``_artifact.pack``: a JSON list that
        holds a float anywhere in a stage dir is float text that came back,
        and one that holds float payloads is a table stored row by row."""
        config = train_reentrancy(tmp_path, [reentrant_source(i) for i in range(6)],
                                  [clean_source(i) for i in range(14)], vector_size=60)

        def float_lists(value, where):
            """The paths of the JSON lists under ``value`` that hold a float or
            a float payload."""
            children = (value.items() if isinstance(value, dict)
                        else enumerate(value) if isinstance(value, list) else ())
            if isinstance(value, list) and any(
                    type(item) is float or isinstance(item, dict) and "f8" in item
                    for item in value):
                yield where
            for key, item in children:
                yield from float_lists(item, f"{where}/{key}")

        names = sorted(p.name for p in config.stage_dir().iterdir() if p.name != "report.txt")
        assert names == sorted(set(ARTIFACTS) - {"report.txt"})
        assert json.loads((config.stage_dir() / "model.json").read_text("utf-8"))["pca"]
        found = [where for name in names for where in float_lists(
            json.loads((config.stage_dir() / name).read_text("utf-8")), name)]
        assert found == []

    def test_clean_separation_on_synthetic_corpus(self, reentrancy_run):
        _, report = reentrancy_run
        assert report.cm.tp == 15
        assert report.cm.fn == 0

    def test_detect_stage_flags_vulnerable_rows(self, reentrancy_run):
        config, _ = reentrancy_run
        payload = json.loads((config.stage_dir() / "detect.json").read_text("utf-8"))
        assert payload["kind"] == "reentrancy"
        assert payload["flags"][:15] == [1] * 15
        assert sum(payload["flags"][15:]) == 0

    def test_report_embeds_resolved_config(self, reentrancy_run):
        config, _ = reentrancy_run
        payload = json.loads((config.stage_dir() / "report.json").read_text("utf-8"))
        assert payload["params"]["vector_size"] == 10
        assert payload["params"]["seed"] == 1194
        assert payload["params"]["vulnerability"] == "reentrancy"

    def test_missing_dataset_is_stage_tagged(self, tmp_path):
        config = PipelineConfig.resolve({
            "vulnerability": "reentrancy",
            "dataset": str(tmp_path / "nope.json"),
            "workdir": str(tmp_path / "work"),
        })
        with pytest.raises(PipelineStageError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "dataset"
        assert isinstance(excinfo.value.cause, PathError)

    def test_rerun_is_byte_identical(self, tmp_path):
        dataset_path = make_dataset(
            tmp_path,
            [reentrant_source(i) for i in range(9)],
            [clean_source(i) for i in range(30)],
        )
        config = PipelineConfig.resolve({
            "vulnerability": "reentrancy",
            "dataset": str(dataset_path),
            "workdir": str(tmp_path / "work"),
            "epochs": 2,
        })
        run_pipeline(config)
        first = {
            name: (config.stage_dir() / name).read_bytes() for name in ARTIFACTS
        }
        run_pipeline(config)
        for name in ARTIFACTS:
            assert (config.stage_dir() / name).read_bytes() == first[name], name

    def test_pca_engages_above_activation_dim(self, tmp_path):
        dataset_path = make_dataset(
            tmp_path,
            [timestamp_source(i) for i in range(9)],
            [clean_source(i) for i in range(30)],
        )
        config = PipelineConfig.resolve({
            "vulnerability": "timestamp",
            "dataset": str(dataset_path),
            "workdir": str(tmp_path / "work"),
            "epochs": 2,
        })
        run_pipeline(config)
        model = json.loads((config.stage_dir() / "model.json").read_text("utf-8"))
        assert model["pca"] is not None
        # 30 rows cap the component count below the configured 50
        assert model["pca"]["num_components"] == 30
        assert model["centers"]["shape"][1] == 30

    @pytest.mark.parametrize("vulnerability,generator", [
        ("reentrancy", reentrant_source),
        ("access_control", access_control_source),
        ("timestamp", timestamp_source),
        ("tx_origin", tx_origin_source),
        ("unchecked_call", unchecked_source),
    ])
    def test_all_five_vulnerabilities_at_default_parameters(
            self, tmp_path, vulnerability, generator):
        dataset_path = make_dataset(
            tmp_path,
            [generator(i) for i in range(9)],
            [clean_source(i) for i in range(30)],
        )
        config = PipelineConfig.resolve({
            "vulnerability": vulnerability,
            "dataset": str(dataset_path),
            "workdir": str(tmp_path / "work"),
        })
        report = run_pipeline(config)
        assert report.cm.total == 30
        # the synthetic corpora are cleanly separable: nothing vulnerable missed
        assert report.cm.fn == 0, report.cm

    def test_access_control_runs_without_regex(self, tmp_path):
        dataset_path = make_dataset(
            tmp_path,
            [access_control_source(i) for i in range(9)],
            [clean_source(i) for i in range(30)],
        )
        config = PipelineConfig.resolve({
            "vulnerability": "access_control",
            "dataset": str(dataset_path),
            "workdir": str(tmp_path / "work"),
            "epochs": 2,
        })
        report = run_pipeline(config)
        payload = json.loads((config.stage_dir() / "detect.json").read_text("utf-8"))
        assert payload["kind"] is None
        assert payload["flags"] is None
        assert report.cm.total == 30


class TestScan:
    def test_training_exemplar_keeps_its_cluster_label(self, reentrancy_run):
        config, _ = reentrancy_run
        # the exemplar's vector equals training row 0's vector, so its
        # nearest center (and label) must match that row's prediction
        result = scan_contract(config, reentrant_source(0))
        assert result["label"] == "vulnerable"
        assert result["flags"] == {"reentrancy": 1}

    def test_clean_exemplar(self, reentrancy_run):
        config, _ = reentrancy_run
        result = scan_contract(config, clean_source(0))
        assert result["label"] == "clean"
        assert result["flags"] == {"reentrancy": 0}

    def test_empty_contract_gets_origin_cluster_label(self, reentrancy_run):
        config, _ = reentrancy_run
        from ethcluster.cluster import load_cluster_model

        model = load_cluster_model(config.stage_dir() / "model.json")
        dists = [float(np.sum(center ** 2)) for center in model.centers]
        expected = model.labels[int(np.argmin(dists))]
        assert scan_contract(config, "")["label"] == expected

    @pytest.mark.parametrize("vulnerability", ["reentrancy", "unchecked_call"])
    def test_every_training_contract_scans_to_its_training_prediction(self, request,
                                                                       vulnerability):
        config, _ = request.getfixturevalue(f"{vulnerability}_run")
        model = json.loads((config.stage_dir() / "model.json").read_text("utf-8"))
        records = Dataset.load(config.dataset).records
        assert len(records) == len(model["assignments"])
        for record, cluster in zip(records, model["assignments"]):
            expected = model["labels"][str(cluster)]
            assert scan_contract(config, record.source)["label"] == expected

    def test_vector_size_comes_from_the_trained_model(self, tmp_path):
        dataset_path = make_dataset(
            tmp_path,
            [reentrant_source(i) for i in range(9)],
            [clean_source(i) for i in range(30)],
        )
        trained = PipelineConfig.resolve({
            "vulnerability": "reentrancy",
            "dataset": str(dataset_path),
            "workdir": str(tmp_path / "work"),
            "vector_size": 12,
            "epochs": 2,
        })
        run_pipeline(trained)
        # resolved like ``scan`` without --config: vector_size falls back to 10
        scanning = PipelineConfig.resolve({
            "vulnerability": "reentrancy", "workdir": str(tmp_path / "work"),
        })
        assert scanning.vector_size == 10
        # no token of this contract is a keyword, so it maps to the zero vector
        result = scan_contract(scanning, "contract Zzyzx { }")
        assert result["label"] in ("vulnerable", "clean")

    def test_missing_artifacts(self, tmp_path):
        config = PipelineConfig.resolve({
            "vulnerability": "reentrancy",
            "workdir": str(tmp_path / "empty"),
        })
        with pytest.raises(ModelNotFound):
            scan_contract(config, "contract A {}")

    def test_retrain_into_the_same_workdir_is_not_served_stale(self, tmp_path):
        vulnerable = [reentrant_source(i) for i in range(30)]
        clean = [clean_source(i) for i in range(30)]
        probes = vulnerable[:9] + clean[:9]
        config = train_reentrancy(tmp_path, vulnerable[:9], clean)
        first = [scan_contract(config, s) for s in probes]
        # the same workdir, retrained with the roles of the two sets swapped
        swapped = train_reentrancy(tmp_path, clean[:9], vulnerable, num_clusters=4)
        assert swapped.stage_dir() == config.stage_dir()
        second = [scan_contract(swapped, s) for s in probes]
        assert second != first
        pipeline._scan_artifacts.cache_clear()
        assert second == [scan_contract(swapped, s) for s in probes]

    def test_deleted_model_after_a_cached_scan_is_model_not_found(self, tmp_path):
        config = train_reentrancy(tmp_path, [reentrant_source(i) for i in range(9)],
                                  [clean_source(i) for i in range(30)])
        scan_contract(config, reentrant_source(0))
        (config.stage_dir() / "model.json").unlink()
        with pytest.raises(ModelNotFound):
            scan_contract(config, reentrant_source(0))

    def test_access_control_scan_has_no_flags_section(self, tmp_path):
        dataset_path = make_dataset(
            tmp_path,
            [access_control_source(i) for i in range(9)],
            [clean_source(i) for i in range(30)],
        )
        config = PipelineConfig.resolve({
            "vulnerability": "access_control",
            "dataset": str(dataset_path),
            "workdir": str(tmp_path / "work"),
            "epochs": 2,
        })
        run_pipeline(config)
        result = scan_contract(config, access_control_source(0))
        assert "flags" not in result
        assert result["label"] in ("vulnerable", "clean")


def _uncached_label(config, source):
    """The label of ``source`` from freshly loaded artifacts, with no cache or memo."""
    out = config.stage_dir()
    keyword_map = vectorize.load_keyword_map(out / "keywords.json")
    model = load_cluster_model(out / "model.json")
    tokens = preprocess_contract(source).tokens
    return cl.predict(model, vectorize.doc_vector_values(tokens, keyword_map, model.input_dim))


def _scan_keeping_memo(monkeypatch, config, source):
    """Scan ``source``; the label memo the scan used, and the scan's error or None."""
    seen = []
    real = pipeline._scan_artifacts

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(pipeline, "_scan_artifacts", spy)
    try:
        scan_contract(config, source)
        error = None
    except EthClusterError as exc:
        error = exc
    return seen[-1][1], error


class TestLabelMemo:
    def test_first_and_memoized_labels_equal_the_uncached_prediction(self, reentrancy_run,
                                                                     monkeypatch):
        config, _ = reentrancy_run
        training = [record.source for record in Dataset.load(config.dataset).records]
        heldout = ([reentrant_source(i) for i in range(15, 30)]
                   + [clean_source(i) for i in range(40, 60)]
                   + [make(i) for make in (timestamp_source, tx_origin_source,
                                           unchecked_source, access_control_source)
                      for i in range(5)] + ["", "contract Zzyzx { }"])
        sources = training + heldout
        expected = [_uncached_label(config, s) for s in sources]
        pipeline._scan_artifacts.cache_clear()
        first = [scan_contract(config, s)["label"] for s in sources]
        second = [scan_contract(config, s)["label"] for s in sources]
        assert first == expected
        assert second == expected
        memo, error = _scan_keeping_memo(monkeypatch, config, sources[0])
        assert error is None
        info = memo.cache_info()
        # one miss per distinct hit set; every other scan was served by the memo
        assert info.misses == info.currsize < len(sources)
        assert info.hits == 2 * len(sources) + 1 - info.misses

    def test_a_failure_is_never_memoized(self, tmp_path, monkeypatch):
        config = train_reentrancy(tmp_path, [reentrant_source(i) for i in range(9)],
                                  [clean_source(i) for i in range(30)])
        path = config.stage_dir() / "keywords.json"
        keyword_map = vectorize.load_keyword_map(path)
        assert keyword_map
        # one column narrower than the model's input: any hit raises DimError
        vectorize.save_keyword_map({w: v[:-1] for w, v in keyword_map.items()}, path)
        source = " ".join(keyword_map)
        with pytest.raises(DimError):
            scan_contract(config, source)
        memo, error = _scan_keeping_memo(monkeypatch, config, source)
        assert isinstance(error, DimError)
        info = memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_the_bound_is_fixed(self, reentrancy_run, monkeypatch):
        config, _ = reentrancy_run
        memo, _ = _scan_keeping_memo(monkeypatch, config, clean_source(0))
        assert memo.cache_info().maxsize == 4096


# Pieces of Solidity-like text for the stages that read raw source: comment
# markers, quotes and literal prefixes, call syntax, what the detectors match,
# NUL bytes and carriage returns.
_FRAGMENTS = ["//", "/*", "*/", "/", "*", '"', "'", "\\", 'unicode"', "hex'",
              'call{value: msg.value}("")', ".call(", ".send(", ".value(", "now",
              "tx.origin", "block.timestamp", "balance", "balances[msg.sender]",
              "require(", "if (", "==", "!=", "success", "function f() public {",
              "}", ";", "\x00", "\r", "\n", " "]
_solidity_like = st.lists(st.sampled_from(_FRAGMENTS) | st.text(max_size=4),
                          max_size=60).map("".join)


@pytest.fixture(scope="module")
def warm_reentrancy(reentrancy_run):
    """The shared detector, its artifacts already parsed by one scan."""
    config, _ = reentrancy_run
    scan_contract(config, reentrant_source(0))
    return config


class TestFuzz:
    @settings(deadline=None)
    @given(source=_solidity_like)
    def test_preprocess_detect_scan_raise_only_package_errors(self, warm_reentrancy, source):
        try:
            doc = preprocess_contract(source)
            for kind in REGEX_KINDS:
                assert detector_for(kind)(doc.lines) in (0, 1)
            result = scan_contract(warm_reentrancy, source)
        except EthClusterError:
            return
        assert result["label"] in ("vulnerable", "clean")


class TestAtomicWrites:
    @pytest.fixture()
    def trained(self, tmp_path):
        stage_dir = train_reentrancy(tmp_path, [reentrant_source(i) for i in range(9)],
                                     [clean_source(i) for i in range(30)]).stage_dir()
        return stage_dir, {p.name: p.read_bytes() for p in stage_dir.iterdir()}

    def test_unencodable_payload_leaves_the_previous_model(self, trained):
        stage_dir, before = trained
        cmodel = load_cluster_model(stage_dir / "model.json")
        cmodel.labels[0] = object()
        with pytest.raises(TypeError):
            save_cluster_model(cmodel, stage_dir / "model.json")
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before

    def test_failed_replace_leaves_the_previous_model_and_no_temp_file(self, trained,
                                                                        monkeypatch):
        stage_dir, before = trained
        cmodel = load_cluster_model(stage_dir / "model.json")

        def fail(src, dst):
            # the temp file holds the whole new model
            assert json.loads(Path(src).read_text("utf-8"))["k"] == cmodel.k
            raise OSError("disk full")

        monkeypatch.setattr(_artifact.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_cluster_model(cmodel, stage_dir / "model.json")
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before
