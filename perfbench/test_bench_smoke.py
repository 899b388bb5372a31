"""Smoke test for the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_bench_smoke.py -q
"""

from __future__ import annotations

import json
import math
import random

import pytest

import run

run._import_package()
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    # A tiny run holds too few operations to measure the self-time residual;
    # its gate has a test of its own below.
    monkeypatch.setattr(run, "RESIDUAL_BOUND", math.inf)
    monkeypatch.setattr(workloads.Train, "SIZES", {"reentrancy": (3, 1, 6), "timestamp": (2, 1, 5)})
    monkeypatch.setattr(workloads.Recluster, "ROWS", 60)
    monkeypatch.setattr(workloads.Scan, "SIZES", (2, 1, 5))
    monkeypatch.setattr(workloads.Scan, "POOL", 6)
    monkeypatch.setattr(workloads.Scan, "min_ops", 12)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(tiny, tmp_path, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--workdir", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace:
        assert (tmp_path / workload / "spans.json").is_file()
        assert (tmp_path / workload / "selftime.txt").is_file()
        calls = result["metrics"]["embed.kernel_calls"]["value"]
        assert (calls > 0) == workload.startswith("train.")


def test_corrupted_model_counts_every_scan_as_failed(tiny, tmp_path):
    bench = workloads.Scan(tmp_path / "scan")
    bench.setup(random.Random("3:scan"))
    (bench.config.stage_dir() / "model.json").write_text('{"k": 8', "utf-8")
    outcome = run.measure(bench, 0)
    assert outcome["attempted"] == bench.min_ops
    assert len(outcome["errors"]) == bench.min_ops and not outcome["latencies"]
    assert bench.finish() == (bench.mix.size, bench.mix.size)


def test_changed_rerun_artifact_counts_as_failed(tiny, tmp_path):
    bench = workloads.Recluster(tmp_path / "recluster")
    bench.setup(random.Random("3:recluster"))
    first = run.measure(bench, 0)
    assert first["attempted"] == bench.min_ops and not first["errors"]
    sweep = bench.op

    def sweep_then_corrupt(i):
        result = sweep(i)
        with open(bench.out / "model-8.json", "ab") as fh:
            fh.write(b" ")
        return result

    bench.op = sweep_then_corrupt
    second = run.measure(bench, 0)
    assert len(second["errors"]) == second["attempted"]
    assert "k=8: rerun artifacts differ" in second["errors"][0]


def test_residual_beyond_its_bound_is_not_correct(tiny, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "RESIDUAL_BOUND", -1.0)
    assert run.main(["--workload", "scan", "--seed", "3", "--seconds", "0", "--trace", "1",
                     "--workdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert not json.loads(out[-1])["correct"]
    assert any("FAIL layer self times miss" in line for line in out)
