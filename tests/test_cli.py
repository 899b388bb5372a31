import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    access_control_source,
    clean_source,
    explorer_url,
    reentrant_source,
    timestamp_source,
    tx_origin_source,
    unchecked_source,
    write_corpus,
)
from ethcluster.cli import build_parser, main
from ethcluster.cluster import PCA_DIM
from ethcluster.detect import KINDS
from ethcluster.ingest import ContractStore
from ethcluster.vectorize import DocumentVector, save_vectors

ADDR_1 = "0x" + "1" * 40
ADDR_2 = "0x" + "2" * 40


def write_vectors(path, rows, hashes=None):
    """A ``vectors.json`` of ``rows``, hashed ``h0, h1, ...`` unless given."""
    hashes = hashes or [f"h{i}" for i in range(len(rows))]
    save_vectors([DocumentVector(h, np.asarray(row, dtype=np.float64))
                  for h, row in zip(hashes, rows)], path)


def build_dataset(root, out="dataset.json", vuln="vuln", clean="clean", fraction="0.3") -> str:
    """The path of ``root/out``, written by ``build-dataset`` from ``root/vuln``
    and ``root/clean``."""
    path = str(root / out)
    assert main(["build-dataset", "--vuln", str(root / vuln), "--clean", str(root / clean),
                 "--fraction", fraction, "--out", path]) == 0
    return path


@pytest.fixture
def staged_corpus(tmp_path):
    """9 vulnerable + 21 clean contracts: together the full 30/70 mix."""
    write_corpus(tmp_path / "vuln", [reentrant_source(i) for i in range(9)], prefix="v")
    write_corpus(tmp_path / "clean", [clean_source(i) for i in range(21)], prefix="w")
    return tmp_path


class TestStagewiseCli:
    def test_full_stage_chain(self, staged_corpus, capsys):
        root = staged_corpus

        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        dataset = json.loads((root / "dataset.json").read_text("utf-8"))
        assert len(dataset["entries"]) == 30

        assert main(["preprocess", "--in", str(root / "dataset.json"),
                     "--out", str(root / "tokens.json")]) == 0
        docs = json.loads((root / "tokens.json").read_text("utf-8"))
        assert len(docs) == 30
        first = docs[0]["tokens"]
        assert first
        assert "contract" not in first

        assert main(["detect", "--kind", "reentrancy", "--in", str(root / "tokens.json"),
                     "--out", str(root / "flags.json")]) == 0
        flags = json.loads((root / "flags.json").read_text("utf-8"))
        assert flags["kind"] == "reentrancy"
        assert flags["flags"][:9] == [1] * 9
        assert sum(flags["flags"][9:]) == 0

        assert main(["train-embedding", "--in", str(root / "tokens.json"),
                     "--dim", "10", "--seed", "1194", "--epochs", "2",
                     "--out", str(root / "model.vec")]) == 0
        assert (root / "model.vec").exists()

        assert main(["vectorize", "--in", str(root / "tokens.json"),
                     "--embedding", str(root / "model.vec"),
                     "--flags", str(root / "flags.json"),
                     "--threshold", "0.7",
                     "--out", str(root / "vectors.json")]) == 0
        vectors = json.loads((root / "vectors.json").read_text("utf-8"))
        assert len(vectors["hashes"]) == 30
        assert vectors["values"]["shape"] == [30, 10]
        assert (root / "keywords.json").exists()

        assert main(["cluster", "--vectors", str(root / "vectors.json"),
                     "--k", "5", "--seed", "1194", "--max-iter", "100",
                     "--dataset", str(root / "dataset.json"),
                     "--out", str(root / "model.json")]) == 0
        model = json.loads((root / "model.json").read_text("utf-8"))
        assert model["centers"]["shape"] == [5, 10]
        assert model["pca"] is None  # dim 10 is below the activation threshold

        assert main(["evaluate", "--model", str(root / "model.json"),
                     "--dataset", str(root / "dataset.json"),
                     "--kind", "reentrancy",
                     "--out", str(root / "report.json")]) == 0
        report = json.loads((root / "report.json").read_text("utf-8"))
        assert report["confusion"]["tp"] + report["confusion"]["fn"] == 9
        out = capsys.readouterr().out
        assert "ACC" in out

        assert main(["project", "--vectors", str(root / "vectors.json"),
                     "--model", str(root / "model.json"),
                     "--out", str(root / "points.csv")]) == 0
        lines = (root / "points.csv").read_text("utf-8").splitlines()
        assert lines[0] == "x,y,cluster,label"
        assert len(lines) == 31

    def test_stage_isolation_rerun_identical(self, staged_corpus):
        root = staged_corpus
        assert main(["preprocess", "--in", build_dataset(root),
                     "--out", str(root / "tokens.json")]) == 0
        args = ["detect", "--kind", "timestamp", "--in", str(root / "tokens.json"),
                "--out", str(root / "flags.json")]
        assert main(args) == 0
        first = (root / "flags.json").read_bytes()
        assert main(args) == 0
        assert (root / "flags.json").read_bytes() == first

    def test_empty_source_skipped_like_build_dataset(self, tmp_path):
        vuln_sources = [reentrant_source(i) for i in range(3)]
        clean_sources = [clean_source(i) for i in range(7)]
        write_corpus(tmp_path / "vuln", vuln_sources, prefix="v")
        write_corpus(tmp_path / "clean", clean_sources + [" \n\t\n"], prefix="w")
        assert main(["build-dataset", "--vuln", str(tmp_path / "vuln"),
                     "--clean", str(tmp_path / "clean"), "--fraction", "0.3",
                     "--out", str(tmp_path / "dataset.json")]) == 0
        dataset = json.loads((tmp_path / "dataset.json").read_text("utf-8"))
        assert main(["preprocess", "--in", str(tmp_path / "dataset.json"),
                     "--out", str(tmp_path / "tokens.json")]) == 0
        docs = json.loads((tmp_path / "tokens.json").read_text("utf-8"))
        assert len(docs) == len(dataset["entries"]) == 10

    def test_flags_of_another_corpus_are_an_alignment_error(self, tmp_path, capsys):
        write_corpus(tmp_path / "a_vuln", [reentrant_source(i) for i in range(3)])
        write_corpus(tmp_path / "a_clean", [clean_source(i) for i in range(3)])
        write_corpus(tmp_path / "b_vuln", [clean_source(i) for i in range(3, 6)])
        write_corpus(tmp_path / "b_clean", [clean_source(i) for i in range(6, 9)])
        for name in ("a", "b"):
            dataset = build_dataset(tmp_path, f"{name}.json", f"{name}_vuln", f"{name}_clean",
                                    "0.5")
            assert main(["preprocess", "--in", dataset,
                         "--out", str(tmp_path / f"{name}.tokens")]) == 0
        assert main(["detect", "--kind", "reentrancy", "--in", str(tmp_path / "a.tokens"),
                     "--out", str(tmp_path / "a.flags")]) == 0
        assert main(["train-embedding", "--in", str(tmp_path / "b.tokens"), "--dim", "4",
                     "--epochs", "1", "--out", str(tmp_path / "b.vec")]) == 0
        capsys.readouterr()
        assert main(["vectorize", "--in", str(tmp_path / "b.tokens"),
                     "--embedding", str(tmp_path / "b.vec"), "--flags", str(tmp_path / "a.flags"),
                     "--threshold", "0.7", "--out", str(tmp_path / "vectors.json")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "AlignmentError"
        assert not (tmp_path / "vectors.json").exists()

    def test_vectorize_without_threshold_is_a_usage_error(self, staged_corpus, capsys):
        # the threshold is the kind's own (detect.KINDS), so the stage has no default
        root = staged_corpus
        tokens, vec, vectors = root / "tokens.json", root / "model.vec", root / "vectors.json"
        assert main(["preprocess", "--in", build_dataset(root), "--out", str(tokens)]) == 0
        assert main(["train-embedding", "--in", str(tokens), "--dim", "4", "--epochs", "1",
                     "--out", str(vec)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["vectorize", "--in", str(tokens), "--embedding", str(vec), "--out", str(vectors)])
        assert info.value.code == 2 and "--threshold" in capsys.readouterr().err
        assert not vectors.exists() and not (root / "keywords.json").exists()

    def test_token_directory_is_a_path_error(self, staged_corpus, capsys):
        # token documents are one file; a directory is not a tokens file
        root = staged_corpus
        assert main(["detect", "--kind", "reentrancy", "--in", str(root / "vuln"),
                     "--out", str(root / "flags.json")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "PathError"

    def test_non_numeric_vectors_are_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "vectors.json"
        path.write_text('{"hashes": ["h"], "values": {"shape": [1, 1], "f8": "x!"}}', "utf-8")
        assert main(["cluster", "--vectors", str(path), "--k", "2",
                     "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "FormatError"

    @pytest.mark.parametrize("key, bad", [("hashes", [f"h{i}" for i in range(5)]),
                                          ("values", {"shape": [6, 2], "f8": None})],
                             ids=["ragged", "null"])
    def test_malformed_vector_rows_write_no_model(self, tmp_path, capsys, key, bad):
        path = tmp_path / "vectors.json"
        write_vectors(path, [[float(i), float(i % 3)] for i in range(6)])
        payload = json.loads(path.read_text("utf-8"))
        payload[key] = bad
        path.write_text(json.dumps(payload), "utf-8")
        assert main(["cluster", "--vectors", str(path), "--k", "2",
                     "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "FormatError"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("text", ["{}", "[]"], ids=["object", "empty"])
    def test_detect_on_no_documents_writes_no_flags(self, tmp_path, capsys, text):
        tokens, flags = tmp_path / "tokens.json", tmp_path / "flags.json"
        tokens.write_text(text, "utf-8")
        assert main(["detect", "--kind", "reentrancy", "--in", str(tokens),
                     "--out", str(flags)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "FormatError"
        assert not flags.exists()

    def test_integer_hash_writes_no_model(self, tmp_path, capsys):
        path, model = tmp_path / "vectors.json", tmp_path / "model.json"
        write_vectors(path, [[float(i), 0.0] for i in range(4)], ["h0", 1, "h2", "h3"])
        assert main(["cluster", "--vectors", str(path), "--k", "2", "--out", str(model)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "FormatError"
        assert not model.exists()

    @pytest.mark.parametrize("name, error", [("missing.json", "PathError"),
                                             ("vuln", "PathError"),
                                             ("truncated.json", "FormatError"),
                                             ("forged.json", "FormatError"),
                                             ("no-entries.json", "FormatError")],
                             ids=["missing", "directory", "malformed", "forged-hash", "no-entries"])
    def test_preprocess_input_that_is_not_a_dataset_writes_no_tokens(self, staged_corpus,
                                                                     capsys, name, error):
        root = staged_corpus
        text = Path(build_dataset(root)).read_text("utf-8")
        (root / "truncated.json").write_text(text[:-10], "utf-8")
        dataset = json.loads(text)
        dataset["entries"][3]["record"]["source_hash"] = "f" * 64
        (root / "forged.json").write_text(json.dumps(dataset), "utf-8")
        (root / "no-entries.json").write_text('{"entries": []}', "utf-8")
        out = root / "tokens.json"
        capsys.readouterr()
        assert main(["preprocess", "--in", str(root / name), "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == error
        assert not out.exists()

    def test_negative_seed_is_one_invalid_input_line(self, tmp_path, capsys):
        write_corpus(tmp_path / "vuln", [reentrant_source(0)])
        write_corpus(tmp_path / "clean", [clean_source(0)])
        tokens, vectors = tmp_path / "tokens.json", tmp_path / "vectors.json"
        assert main(["preprocess", "--in", build_dataset(tmp_path, fraction="0.5"),
                     "--out", str(tokens)]) == 0
        write_vectors(vectors, [[float(i), 0.0] for i in range(4)])
        capsys.readouterr()
        for argv in (["train-embedding", "--in", str(tokens), "--dim", "4"],
                     ["cluster", "--vectors", str(vectors), "--k", "2"]):
            out = tmp_path / "out.json"
            assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
            [line] = capsys.readouterr().err.splitlines()
            assert json.loads(line)["error"] == "InvalidInput"
            assert not out.exists()
        run = ["run", "--vulnerability", "reentrancy", "--workdir", str(tmp_path / "work")]
        for argv, error in ((["--dataset", str(vectors), "--seed", "-1"], "InvalidInput"),
                            (["--dataset", str(tmp_path / "missing.json")], "PathError")):
            assert main([*run, *argv]) == 1
            [line] = capsys.readouterr().err.splitlines()
            assert json.loads(line)["error"] == error
            assert not (tmp_path / "work").exists()

    @staticmethod
    def _clean_first_vectors(root):
        """The dataset, and the vectors of a second dataset holding the same
        entries clean first, so the vectors are in another order than the dataset."""
        dataset, tokens = build_dataset(root), str(root / "tokens.json")
        vec, vectors = str(root / "model.vec"), str(root / "vectors.json")
        payload = json.loads((root / "dataset.json").read_text("utf-8"))
        payload["entries"].sort(key=lambda entry: entry["truth_label"] == "vulnerable")
        (root / "clean_first.json").write_text(json.dumps(payload), "utf-8")
        assert main(["preprocess", "--in", str(root / "clean_first.json"), "--out", tokens]) == 0
        assert main(["train-embedding", "--in", tokens, "--dim", "10", "--epochs", "1",
                     "--out", vec]) == 0
        assert main(["vectorize", "--in", tokens, "--embedding", vec, "--threshold", "0.7",
                     "--out", vectors]) == 0
        return dataset, vectors

    def test_vectors_out_of_dataset_order_are_an_alignment_error(self, staged_corpus, capsys):
        dataset, vectors = self._clean_first_vectors(staged_corpus)
        capsys.readouterr()
        model = staged_corpus / "model.json"
        assert main(["cluster", "--vectors", vectors, "--k", "5", "--dataset", dataset,
                     "--out", str(model)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "AlignmentError"
        assert not model.exists()

    def test_unlabeled_model_out_of_dataset_order_is_an_alignment_error(self, staged_corpus,
                                                                         capsys):
        dataset, vectors = self._clean_first_vectors(staged_corpus)
        model, report = str(staged_corpus / "model.json"), staged_corpus / "report.json"
        assert main(["cluster", "--vectors", vectors, "--k", "5", "--out", model]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", model, "--dataset", dataset,
                     "--out", str(report)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "AlignmentError"
        assert not report.exists()

    def test_labeled_model_against_another_dataset_is_an_alignment_error(self, staged_corpus,
                                                                          capsys):
        root = staged_corpus
        write_corpus(root / "vuln2", [reentrant_source(i) for i in range(9, 18)])
        for name, vuln in (("dataset.json", "vuln"), ("other.json", "vuln2")):
            assert main(["build-dataset", "--vuln", str(root / vuln), "--clean",
                         str(root / "clean"), "--fraction", "0.3", "--out", str(root / name)]) == 0
        assert main(["run", "--vulnerability", "reentrancy", "--workdir", str(root / "work"),
                     "--dataset", str(root / "dataset.json")]) == 0
        model_path, report = root / "work" / "reentrancy" / "model.json", root / "report.json"
        model = json.loads(model_path.read_text("utf-8"))
        other = json.loads((root / "other.json").read_text("utf-8"))
        assert model["labels"] and len(other["entries"]) == len(model["assignments"])
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_path), "--dataset", str(root / "other.json"),
                     "--out", str(report)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "AlignmentError"
        assert not report.exists()

    def test_project_assigns_training_rows_to_their_clusters(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "vectors.json"
        write_vectors(path, rng.standard_normal((12, 60)))
        model = tmp_path / "model.json"
        assert main(["cluster", "--vectors", str(path), "--k", "3", "--out", str(model)]) == 0
        saved = json.loads(model.read_text("utf-8"))
        assert saved["pca"] is not None
        assert main(["project", "--vectors", str(path), "--model", str(model),
                     "--out", str(tmp_path / "points.csv")]) == 0
        rows = (tmp_path / "points.csv").read_text("utf-8").splitlines()[1:]
        assert [int(row.split(",")[2]) for row in rows] == saved["assignments"]

    @pytest.mark.parametrize("width", [60, 6], ids=["pca", "plain"])
    def test_project_vectors_of_another_width_write_no_points(self, tmp_path, capsys, width):
        rng = np.random.default_rng(9)
        for name, cols in (("train.json", width), ("other.json", width - 1)):
            write_vectors(tmp_path / name, rng.standard_normal((12, cols)))
        model = tmp_path / "model.json"
        assert main(["cluster", "--vectors", str(tmp_path / "train.json"), "--k", "3",
                     "--out", str(model)]) == 0
        assert (json.loads(model.read_text("utf-8"))["pca"] is None) == (width <= PCA_DIM)
        capsys.readouterr()
        assert main(["project", "--vectors", str(tmp_path / "other.json"), "--model", str(model),
                     "--out", str(tmp_path / "points.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "DimError"
        assert not (tmp_path / "points.csv").exists()


SOURCES = {"reentrancy": reentrant_source, "access_control": access_control_source,
           "timestamp": timestamp_source, "tx_origin": tx_origin_source,
           "unchecked_call": unchecked_source}


class TestStagesMatchRun:
    """The stage subcommands chained by hand from ``dataset.json`` reproduce
    ``run``'s artifacts, for every kind at its ``detect.KINDS`` values."""

    def test_stage_chain_reproduces_run(self, tmp_path):
        # one test over the five kinds: a kind's failure names it
        for name, kind in KINDS.items():
            self._check_chain(tmp_path / name, name, kind)

    @staticmethod
    def _check_chain(root, name, kind):
        write_corpus(root / "vuln", [SOURCES[name](i) for i in range(9)])
        write_corpus(root / "clean", [clean_source(i) for i in range(21)])
        dataset = build_dataset(root)
        config = root / "config.json"
        config.write_text(json.dumps({
            "vulnerability": name, "dataset": dataset, "workdir": str(root / "work"), "epochs": 2,
        }), "utf-8")
        assert main(["run", "--config", str(config)]) == 0, name
        ran = root / "work" / name

        staged = root / "staged"
        staged.mkdir()
        tokens, flags = str(staged / "preprocess.json"), str(staged / "detect.json")
        vec, vectors = str(staged / "embedding.vec"), str(staged / "vectors.json")
        assert main(["preprocess", "--in", dataset, "--out", tokens]) == 0
        compared, flag_args = ["preprocess.json", "embedding.vec", "keywords.json",
                               "vectors.json", "model.json"], []
        if kind.detector is not None:
            assert main(["detect", "--kind", name, "--in", tokens, "--out", flags]) == 0
            compared, flag_args = [*compared, "detect.json"], ["--flags", flags]
        assert main(["train-embedding", "--in", tokens, "--dim", str(kind.vector_size),
                     "--epochs", "2", "--out", vec]) == 0
        assert main(["vectorize", "--in", tokens, "--embedding", vec, *flag_args,
                     "--threshold", str(kind.tfidf_threshold), "--out", vectors]) == 0
        assert main(["cluster", "--vectors", vectors, "--k", str(kind.num_clusters),
                     "--dataset", dataset, "--out", str(staged / "model.json")]) == 0
        assert main(["evaluate", "--model", str(staged / "model.json"), "--dataset", dataset,
                     "--kind", name, "--out", str(staged / "report.json")]) == 0

        for artifact in compared:
            assert (staged / artifact).read_bytes() == (ran / artifact).read_bytes(), \
                (name, artifact)
        run_report = json.loads((ran / "report.json").read_text("utf-8"))
        staged_report = json.loads((staged / "report.json").read_text("utf-8"))
        run_report.pop("params")
        staged_report.pop("params")
        assert staged_report == run_report, name


def test_one_parser_parses_each_call_afresh():
    """The process keeps one parser; an option of one call does not carry over."""
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["run", "--seed", "5"]).seed == 5
    assert build_parser().parse_args(["run"]).seed is None


class TestRunAndScanCli:
    def _config_file(self, root, **overrides) -> str:
        config = {
            "vulnerability": "reentrancy",
            "dataset": str(root / "dataset.json"),
            "workdir": str(root / "work"),
            "epochs": 2,
            **overrides,
        }
        path = root / "config.json"
        path.write_text(json.dumps(config), "utf-8")
        return str(path)

    def test_run_then_scan(self, staged_corpus, capsys):
        root = staged_corpus
        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        config_path = self._config_file(root)

        assert main(["run", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "reentrancy" in out and "ACC" in out
        assert (root / "work" / "reentrancy" / "report.json").exists()

        contract = root / "candidate.sol"
        contract.write_text(reentrant_source(2), "utf-8")
        assert main(["scan", str(contract), "--config", config_path]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["label"] == "vulnerable"
        assert result["flags"] == {"reentrancy": 1}

    def test_failed_rerun_leaves_no_model_for_scan(self, staged_corpus, capsys):
        root = staged_corpus
        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        assert main(["run", "--config", self._config_file(root)]) == 0
        # 31 clusters over 30 documents fails at the cluster stage, after
        # vectorize has replaced keywords.json
        config_path = self._config_file(root, num_clusters=31, tfidf_threshold=0.2)
        capsys.readouterr()
        assert main(["run", "--config", config_path]) == 1
        assert json.loads(capsys.readouterr().err)["stage"] == "cluster"
        assert (root / "work" / "reentrancy" / "keywords.json").exists()
        assert not (root / "work" / "reentrancy" / "model.json").exists()

        contract = root / "candidate.sol"
        contract.write_text(reentrant_source(2), "utf-8")
        assert main(["scan", str(contract), "--config", config_path]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ModelNotFound"

    def test_out_of_range_config_value_writes_nothing(self, staged_corpus, capsys):
        root = staged_corpus
        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        capsys.readouterr()
        assert main(["run", "--config", self._config_file(root, num_clusters=0)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "InvalidInput" and "num_clusters" in error["message"]
        assert not (root / "work" / "reentrancy" / "preprocess.json").exists()

    def test_run_missing_dataset_reports_stage(self, tmp_path, capsys):
        config = {"vulnerability": "reentrancy", "dataset": str(tmp_path / "nope.json"),
                  "workdir": str(tmp_path / "work")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), "utf-8")
        assert main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "dataset"
        assert err["error"] == "PathError"

    def _run_on_edited_record(self, root, capsys, field, value):
        """The one error line of ``run`` on a dataset whose entry 3 has
        ``record[field]`` set to ``value``; ``run`` must make no stage dir."""
        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        dataset = json.loads((root / "dataset.json").read_text("utf-8"))
        dataset["entries"][3]["record"][field] = value
        (root / "dataset.json").write_text(json.dumps(dataset), "utf-8")
        capsys.readouterr()
        assert main(["run", "--config", self._config_file(root)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert not (root / "work" / "reentrancy").exists()
        return json.loads(line)

    def test_run_on_integer_source_fails_at_dataset(self, staged_corpus, capsys):
        err = self._run_on_edited_record(staged_corpus, capsys, "source", 5)
        assert (err["error"], err["stage"]) == ("FormatError", "dataset")

    def test_run_on_forged_source_hash_fails_at_dataset(self, staged_corpus, capsys):
        err = self._run_on_edited_record(staged_corpus, capsys, "source_hash", "f" * 64)
        assert (err["error"], err["stage"]) == ("FormatError", "dataset")
        assert "entry 3" in err["message"]

    def test_cli_overrides_beat_config_file(self, staged_corpus, capsys):
        root = staged_corpus
        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        config_path = self._config_file(root)
        other = root / "work2"
        assert main(["run", "--config", config_path, "--workdir", str(other)]) == 0
        assert (other / "reentrancy" / "report.json").exists()

    def test_unknown_kind_error_json(self, staged_corpus, capsys):
        root = staged_corpus
        assert main(["preprocess", "--in", build_dataset(root),
                     "--out", str(root / "tokens.json")]) == 0
        assert main(["detect", "--kind", "access_control", "--in", str(root / "tokens.json"),
                     "--out", str(root / "flags.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidKind"


class TestIngestCli:
    def test_ingest_and_cross_chain_dedup(self, mock_explorer, tmp_path, capsys):
        url = explorer_url(mock_explorer)
        same_source = "contract Shared { uint x; }"
        mock_explorer.behaviors[ADDR_1] = ("ok", same_source)
        mock_explorer.behaviors[ADDR_2] = ("ok", same_source)

        addresses_a = tmp_path / "a.txt"
        addresses_a.write_text(ADDR_1 + "\n", "utf-8")
        addresses_b = tmp_path / "b.txt"
        addresses_b.write_text(ADDR_2 + "\n", "utf-8")
        store_path = tmp_path / "store.ndjson"

        assert main(["ingest", "--chain", "etherscan", "--addresses", str(addresses_a),
                     "--store", str(store_path), "--endpoint", url,
                     "--rate", "1000"]) == 0
        assert main(["ingest", "--chain", "bscscan", "--addresses", str(addresses_b),
                     "--store", str(store_path), "--endpoint", url,
                     "--rate", "1000"]) == 0

        out = capsys.readouterr().out
        assert "stored=1" in out and "duplicate=1" in out
        records = ContractStore(store_path).records()
        assert len(records) == 1
        assert records[0].source == same_source

    def test_ingest_backs_off_and_retries_on_429(self, mock_explorer, tmp_path,
                                                 capsys, monkeypatch):
        import ethcluster.cli as cli_mod

        sleeps = []
        monkeypatch.setattr(cli_mod.time, "sleep", sleeps.append)
        url = explorer_url(mock_explorer)
        mock_explorer.behaviors[ADDR_1] = ("http_once", 429, "contract Retry {}")
        addresses = tmp_path / "a.txt"
        addresses.write_text(ADDR_1 + "\n", "utf-8")
        assert main(["ingest", "--chain", "etherscan", "--addresses", str(addresses),
                     "--store", str(tmp_path / "store.ndjson"), "--endpoint", url,
                     "--rate", "1000"]) == 0
        out = capsys.readouterr().out
        assert "stored=1" in out
        assert sleeps, "a 429 should trigger a backoff sleep before the retry"

    def test_malformed_payloads_fail_and_the_loop_goes_on(self, mock_explorer, tmp_path,
                                                           capsys):
        url = explorer_url(mock_explorer)
        malformed = [[], {"result": [{"SourceCode": "contract A {}", "CompilerVersion": None}]}]
        addresses = ["0x" + f"{i:040x}" for i in range(1, len(malformed) + 2)]
        for address, body in zip(addresses, malformed):
            mock_explorer.behaviors[address] = ("raw", body)
        mock_explorer.behaviors[addresses[-1]] = ("ok", "contract Last {}")
        listing = tmp_path / "a.txt"
        listing.write_text("\n".join(addresses) + "\n", "utf-8")
        store_path = tmp_path / "store.ndjson"
        argv = ["ingest", "--chain", "etherscan", "--addresses", str(listing),
                "--store", str(store_path), "--endpoint", url, "--rate", "1000"]
        assert main(argv) == 0
        assert f"stored=1 duplicate=0 failed={len(malformed)}" in capsys.readouterr().out
        # a null CompilerVersion once left a line that made every later open fail
        assert [r.source for r in ContractStore(store_path).records()] == ["contract Last {}"]
        assert main(argv) == 0
        assert f"stored=0 duplicate=1 failed={len(malformed)}" in capsys.readouterr().out

    def test_ingest_skips_unverified(self, mock_explorer, tmp_path, capsys):
        url = explorer_url(mock_explorer)
        mock_explorer.behaviors[ADDR_1] = ("empty",)
        addresses = tmp_path / "a.txt"
        addresses.write_text(ADDR_1 + "\n", "utf-8")
        assert main(["ingest", "--chain", "etherscan", "--addresses", str(addresses),
                     "--store", str(tmp_path / "store.ndjson"), "--endpoint", url,
                     "--rate", "1000"]) == 0
        out = capsys.readouterr().out
        assert "failed=1" in out
