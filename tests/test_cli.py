import json

import numpy as np
import pytest

from conftest import clean_source, explorer_url, reentrant_source, write_corpus
from ethcluster.cli import main
from ethcluster.ingest import ContractStore

ADDR_1 = "0x" + "1" * 40
ADDR_2 = "0x" + "2" * 40


@pytest.fixture
def staged_corpus(tmp_path):
    """9 vulnerable + 21 clean contracts; together they form the full 30/70
    mix, so one combined directory in sorted order matches dataset order."""
    vuln_sources = [reentrant_source(i) for i in range(9)]
    clean_sources = [clean_source(i) for i in range(21)]
    write_corpus(tmp_path / "vuln", vuln_sources, prefix="v")
    write_corpus(tmp_path / "clean", clean_sources, prefix="w")
    combined = tmp_path / "all"
    write_corpus(combined, vuln_sources, prefix="av")
    write_corpus(combined, clean_sources, prefix="cw")
    return tmp_path


class TestStagewiseCli:
    def test_full_stage_chain(self, staged_corpus, capsys):
        root = staged_corpus

        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", str(root / "dataset.json")]) == 0
        dataset = json.loads((root / "dataset.json").read_text("utf-8"))
        assert len(dataset["entries"]) == 30

        assert main(["preprocess", "--in", str(root / "all"),
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
        assert len(vectors) == 30
        assert all(len(v["values"]) == 10 for v in vectors)
        assert (root / "keywords.json").exists()

        assert main(["cluster", "--vectors", str(root / "vectors.json"),
                     "--k", "5", "--seed", "1194", "--max-iter", "100",
                     "--pca-threshold", "50",
                     "--dataset", str(root / "dataset.json"),
                     "--out", str(root / "model.json")]) == 0
        model = json.loads((root / "model.json").read_text("utf-8"))
        assert len(model["centers"]) == 5
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
        assert main(["preprocess", "--in", str(root / "all"),
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
        write_corpus(tmp_path / "all", vuln_sources, prefix="av")
        write_corpus(tmp_path / "all", clean_sources + [" \n\t\n"], prefix="cw")
        assert main(["build-dataset", "--vuln", str(tmp_path / "vuln"),
                     "--clean", str(tmp_path / "clean"), "--fraction", "0.3",
                     "--out", str(tmp_path / "dataset.json")]) == 0
        dataset = json.loads((tmp_path / "dataset.json").read_text("utf-8"))
        assert main(["preprocess", "--in", str(tmp_path / "all"),
                     "--out", str(tmp_path / "tokens.json")]) == 0
        docs = json.loads((tmp_path / "tokens.json").read_text("utf-8"))
        assert len(docs) == len(dataset["entries"]) == 10

    def test_flags_of_another_corpus_are_an_alignment_error(self, tmp_path, capsys):
        write_corpus(tmp_path / "a", [reentrant_source(i) for i in range(3)]
                     + [clean_source(i) for i in range(3)])
        write_corpus(tmp_path / "b", [clean_source(i) for i in range(3, 9)])
        for name in ("a", "b"):
            assert main(["preprocess", "--in", str(tmp_path / name),
                         "--out", str(tmp_path / f"{name}.tokens")]) == 0
        assert main(["detect", "--kind", "reentrancy", "--in", str(tmp_path / "a.tokens"),
                     "--out", str(tmp_path / "a.flags")]) == 0
        assert main(["train-embedding", "--in", str(tmp_path / "b.tokens"), "--dim", "4",
                     "--epochs", "1", "--out", str(tmp_path / "b.vec")]) == 0
        capsys.readouterr()
        assert main(["vectorize", "--in", str(tmp_path / "b.tokens"),
                     "--embedding", str(tmp_path / "b.vec"), "--flags", str(tmp_path / "a.flags"),
                     "--out", str(tmp_path / "vectors.json")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "AlignmentError"
        assert not (tmp_path / "vectors.json").exists()

    def test_token_directory_is_a_path_error(self, staged_corpus, capsys):
        # token documents are one file; a directory is not a tokens file
        root = staged_corpus
        assert main(["detect", "--kind", "reentrancy", "--in", str(root / "all"),
                     "--out", str(root / "flags.json")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "PathError"

    def test_non_numeric_vectors_are_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "vectors.json"
        path.write_text('[{"contract_hash": "h", "values": ["x"]}]', "utf-8")
        assert main(["cluster", "--vectors", str(path), "--k", "2",
                     "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "FormatError"

    @pytest.mark.parametrize("bad_row", [[1.0], [None, 1.0]], ids=["ragged", "null"])
    def test_malformed_vector_rows_write_no_model(self, tmp_path, capsys, bad_row):
        rows = [[float(i), float(i % 3)] for i in range(5)] + [bad_row]
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps([{"contract_hash": f"h{i}", "values": row}
                                    for i, row in enumerate(rows)]), "utf-8")
        assert main(["cluster", "--vectors", str(path), "--k", "2",
                     "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "FormatError"
        assert not (tmp_path / "model.json").exists()

    def test_project_assigns_training_rows_to_their_clusters(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "vectors.json"
        path.write_text(json.dumps([{"contract_hash": f"h{i}", "values": row}
                                    for i, row in enumerate(rng.standard_normal((12, 6)).tolist())]),
                        "utf-8")
        model = tmp_path / "model.json"
        assert main(["cluster", "--vectors", str(path), "--k", "3", "--pca-threshold", "4",
                     "--pca-components", "3", "--out", str(model)]) == 0
        saved = json.loads(model.read_text("utf-8"))
        assert saved["pca"] is not None
        assert main(["project", "--vectors", str(path), "--model", str(model),
                     "--out", str(tmp_path / "points.csv")]) == 0
        rows = (tmp_path / "points.csv").read_text("utf-8").splitlines()[1:]
        assert [int(row.split(",")[2]) for row in rows] == saved["assignments"]


class TestStagesMatchRun:
    """The stage subcommands chained by hand reproduce ``run``'s artifacts."""

    def test_stage_chain_reproduces_run(self, staged_corpus):
        root = staged_corpus
        dataset = str(root / "dataset.json")
        assert main(["build-dataset", "--vuln", str(root / "vuln"),
                     "--clean", str(root / "clean"), "--fraction", "0.3",
                     "--out", dataset]) == 0
        config = root / "config.json"
        config.write_text(json.dumps({
            "vulnerability": "reentrancy", "dataset": dataset,
            "workdir": str(root / "work"), "epochs": 2,
        }), "utf-8")
        assert main(["run", "--config", str(config)]) == 0
        ran = root / "work" / "reentrancy"

        staged = root / "staged"
        staged.mkdir()
        tokens, flags = str(staged / "preprocess.json"), str(staged / "detect.json")
        vec, vectors = str(staged / "embedding.vec"), str(staged / "vectors.json")
        assert main(["preprocess", "--in", str(root / "all"), "--out", tokens]) == 0
        assert main(["detect", "--kind", "reentrancy", "--in", tokens, "--out", flags]) == 0
        assert main(["train-embedding", "--in", tokens, "--dim", "10", "--epochs", "2",
                     "--out", vec]) == 0
        assert main(["vectorize", "--in", tokens, "--embedding", vec, "--flags", flags,
                     "--threshold", "0.7", "--out", vectors]) == 0
        assert main(["cluster", "--vectors", vectors, "--k", "5", "--dataset", dataset,
                     "--out", str(staged / "model.json")]) == 0
        assert main(["evaluate", "--model", str(staged / "model.json"), "--dataset", dataset,
                     "--kind", "reentrancy", "--out", str(staged / "report.json")]) == 0

        for name in ["preprocess.json", "detect.json", "embedding.vec",
                     "keywords.json", "vectors.json"]:
            assert (staged / name).read_bytes() == (ran / name).read_bytes(), name
        for name, extra in [("model.json", "config"), ("report.json", "params")]:
            run_payload = json.loads((ran / name).read_text("utf-8"))
            staged_payload = json.loads((staged / name).read_text("utf-8"))
            run_payload.pop(extra)
            staged_payload.pop(extra, None)
            assert staged_payload == run_payload, name


class TestRunAndScanCli:
    def _config_file(self, root) -> str:
        config = {
            "vulnerability": "reentrancy",
            "dataset": str(root / "dataset.json"),
            "workdir": str(root / "work"),
            "epochs": 2,
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

    def test_run_missing_dataset_reports_stage(self, tmp_path, capsys):
        config = {"vulnerability": "reentrancy", "dataset": str(tmp_path / "nope.json"),
                  "workdir": str(tmp_path / "work")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), "utf-8")
        assert main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["stage"] == "dataset"
        assert err["error"] == "PathError"

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
        assert main(["preprocess", "--in", str(root / "all"),
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
