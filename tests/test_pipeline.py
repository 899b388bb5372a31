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
from ethcluster import _artifact, pipeline
from ethcluster.cluster import load_cluster_model, save_cluster_model
from ethcluster.detect import KINDS, REGEX_KINDS, detector_for
from ethcluster.errors import (
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


@pytest.fixture(scope="module")
def reentrancy_run(tmp_path_factory):
    """One trained reentrancy pipeline shared by the read-only assertions."""
    tmp_path = tmp_path_factory.mktemp("reentrancy")
    dataset_path = make_dataset(
        tmp_path,
        [reentrant_source(i) for i in range(15)],
        [clean_source(i) for i in range(40)],
    )
    config = PipelineConfig.resolve({
        "vulnerability": "reentrancy",
        "dataset": str(dataset_path),
        "workdir": str(tmp_path / "work"),
    })
    report = run_pipeline(config)
    return config, report


class TestConfigResolution:
    def test_reentrancy_defaults(self):
        config = PipelineConfig.resolve({"vulnerability": "reentrancy"})
        assert (config.vector_size, config.tfidf_threshold, config.num_clusters) == (10, 0.7, 5)
        assert config.seed == 1194
        assert config.max_iterations == 100

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

    @pytest.mark.parametrize("field, value", [
        ("num_clusters", "5"), ("seed", "x"), ("vector_size", None), ("epochs", 1.5),
        ("tfidf_threshold", "0.7"), ("sg", True), ("dataset", 3),
        ("vulnerability", ["reentrancy"]),
    ])
    def test_wrong_typed_value_is_refused(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            PipelineConfig.resolve({"vulnerability": "reentrancy", field: value})

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
        with pytest.raises(InvalidInput):
            PipelineConfig.resolve({"vulnerability": "reentrancy", "bogus": 1})

    def test_workdir_env_fallback(self, monkeypatch):
        monkeypatch.setenv("ETHCLUSTER_WORKDIR", "/tmp/elsewhere")
        config = PipelineConfig.resolve({"vulnerability": "timestamp"})
        assert config.workdir == "/tmp/elsewhere"

    def test_regex_kind_mapping(self):
        assert PipelineConfig.resolve({"vulnerability": "reentrancy"}).regex_kind == "reentrancy"
        assert PipelineConfig.resolve({"vulnerability": "access_control"}).regex_kind is None


class TestRunPipeline:
    def test_artifacts_written(self, reentrancy_run):
        config, _ = reentrancy_run
        for name in ARTIFACTS:
            assert (config.stage_dir() / name).exists(), name

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
        assert len(model["centers"][0]) == 30

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

        model, _, _ = load_cluster_model(config.stage_dir() / "model.json")
        dists = [float(np.sum(center ** 2)) for center in model.centers]
        expected = model.labels[int(np.argmin(dists))]
        assert scan_contract(config, "")["label"] == expected

    def test_every_training_contract_scans_to_its_training_prediction(self, reentrancy_run):
        config, _ = reentrancy_run
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
        cmodel, basis, params = load_cluster_model(stage_dir / "model.json")
        with pytest.raises(TypeError):
            save_cluster_model(cmodel, basis, stage_dir / "model.json",
                               extra={**params, "seed": object()})
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before

    def test_failed_replace_leaves_the_previous_model_and_no_temp_file(self, trained,
                                                                        monkeypatch):
        stage_dir, before = trained
        cmodel, basis, params = load_cluster_model(stage_dir / "model.json")

        def fail(src, dst):
            # the temp file holds the whole new model
            assert json.loads(Path(src).read_text("utf-8"))["k"] == cmodel.k
            raise OSError("disk full")

        monkeypatch.setattr(_artifact.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_cluster_model(cmodel, basis, stage_dir / "model.json", extra=params)
        assert {p.name: p.read_bytes() for p in stage_dir.iterdir()} == before
