"""What a change of OpenBLAS kernel leaves alone: labels and scan results.

The SGD step's dot products and PCA's SVD go through OpenBLAS, whose
``DYNAMIC_ARCH`` builds pick a kernel for the CPU at load time. Another
kernel may round differently, so the bytes of ``embedding.vec``,
``keywords.json`` and ``model.json`` hold only for one numpy, one OpenBLAS
build and one kernel. This test trains the five default detectors twice,
each in its own subprocess: once under the native kernel and once under
``OPENBLAS_CORETYPE=Prescott``, which needs only SSE3, so every x86-64 CPU
runs it (forcing a kernel whose instructions the CPU lacks can fault). The
per-row training labels, the confusion counts and the scan results must be
the same. Cluster ids are not compared: another kernel may permute them.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    access_control_source,
    clean_source,
    reentrant_source,
    timestamp_source,
    tx_origin_source,
    unchecked_source,
    write_corpus,
)
from ethcluster.cluster import load_cluster_model
from ethcluster.ingest import build_mixed_dataset, records_from_dir

SRC = Path(__file__).resolve().parents[1] / "src"
GENERATORS = {
    "reentrancy": reentrant_source,
    "access_control": access_control_source,
    "timestamp": timestamp_source,
    "tx_origin": tx_origin_source,
    "unchecked_call": unchecked_source,
}
# argv: datasets dir, workdir, kinds; prints each kind's scan of every training contract
TRAIN_AND_SCAN = """
import json, sys
from ethcluster.ingest import Dataset
from ethcluster.pipeline import PipelineConfig, run_pipeline, scan_contract

scans = {}
for kind in sys.argv[3:]:
    dataset = f"{sys.argv[1]}/{kind}.json"
    config = PipelineConfig.resolve({"vulnerability": kind, "dataset": dataset,
                                     "workdir": sys.argv[2]})
    run_pipeline(config)
    scans[kind] = [scan_contract(config, rec.source) for rec in Dataset.load(dataset).records]
print(json.dumps(scans))
"""


def _unswitchable() -> str | None:
    """Why ``OPENBLAS_CORETYPE`` cannot switch numpy's kernel here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy.show_config(mode='dicts') is unavailable"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the Prescott kernel is x86-64 only; this machine is {platform.machine()}"
    return None


def _train(datasets: Path, workdir: Path, coretype: str | None) -> subprocess.Popen:
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(SRC)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    argv = [sys.executable, "-c", TRAIN_AND_SCAN, str(datasets), str(workdir), *GENERATORS]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _outcome(workdir: Path, kind: str) -> dict:
    stage = workdir / kind
    model = load_cluster_model(stage / "model.json")
    return {"labels": [model.labels[int(i)] for i in model.assignments],
            "confusion": json.loads((stage / "report.json").read_text("utf-8"))["confusion"]}


def test_labels_and_scans_survive_a_change_of_blas_kernel(tmp_path):
    reason = _unswitchable()
    if reason:
        pytest.skip(reason)
    datasets = tmp_path / "datasets"
    datasets.mkdir()
    for kind, source in GENERATORS.items():
        write_corpus(tmp_path / kind / "vuln", [source(i) for i in range(9)])
        write_corpus(tmp_path / kind / "clean", [clean_source(i) for i in range(30)])
        build_mixed_dataset(records_from_dir(tmp_path / kind / "vuln"),
                            records_from_dir(tmp_path / kind / "clean"),
                            0.3).save(datasets / f"{kind}.json")
    workdirs = {"native": tmp_path / "native", "Prescott": tmp_path / "prescott"}
    procs = {name: _train(datasets, workdir, None if name == "native" else name)
             for name, workdir in workdirs.items()}
    scans = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name} kernel run failed:\n{err}"
        scans[name] = json.loads(out)

    native, prescott = workdirs.values()
    if all((native / kind / "embedding.vec").read_bytes()
           == (prescott / kind / "embedding.vec").read_bytes() for kind in GENERATORS):
        pytest.skip("OPENBLAS_CORETYPE=Prescott wrote the native kernel's embedding.vec "
                    "bytes for all five kinds, so the kernel switch did nothing")
    for kind in GENERATORS:
        assert _outcome(native, kind) == _outcome(prescott, kind), kind
        assert scans["native"][kind] == scans["Prescott"][kind], kind
