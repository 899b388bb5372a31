"""``tools/equivalence.py``'s comparison on two tiny synthetic output trees.

The tool is loaded by path and only its ``compare`` runs: no pipeline is
trained, so the trees hold hand-written artifacts in the layout
``run_pipeline`` writes.
"""

import base64
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from ethcluster._artifact import pack, write_json

SPEC = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "tools" / "equivalence.py")
equivalence = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(equivalence)

RUNS = [{"name": "mix-reentrancy-1", "config": {"vulnerability": "reentrancy"}}]


def _tree(out: Path) -> Path:
    """One run's outputs under ``out``; returns its stage dir."""
    stage = out / "mix-reentrancy-1" / "reentrancy"
    stage.mkdir(parents=True)
    rows = np.arange(6, dtype=np.float64).reshape(3, 2) / 7
    write_json({"hashes": ["h0", "h1", "h2"], "values": pack(rows)},
               stage / "vectors.json", "vectors")
    write_json({"labels": {"0": "vulnerable", "1": "clean"}, "assignments": [0, 1, 1],
                "centers": pack(rows[:2]), "hashes": ["h0", "h1", "h2"], "iterations_run": 2},
               stage / "model.json", "model")
    (stage / "report.txt").write_text("ACC 100.00\n", "utf-8")
    scans = [{"vulnerability": "reentrancy", "label": "clean"}] * 2
    (out / "mix-reentrancy-1.scans.json").write_text(json.dumps(scans), "utf-8")
    (out / "max_iterations.json").write_text("100", "utf-8")
    return stage


def _edit(stage: Path, name: str, edit) -> None:
    path = stage / name
    payload = json.loads(path.read_text("utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True), "utf-8")


def _flip_a_byte(payload: dict) -> None:
    raw = bytearray(base64.b64decode(payload["values"]["f8"]))
    raw[8] ^= 1  # the lowest mantissa byte of the second float
    payload["values"]["f8"] = base64.b64encode(bytes(raw)).decode("ascii")


@pytest.fixture
def trees(tmp_path):
    _tree(tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    return tmp_path / "a", tmp_path / "b"


def _count(lines: list[str], key: str) -> str:
    [line] = [line for line in lines if line.startswith(f"{key}: ")]
    return line.removeprefix(f"{key}: ")


def test_identical_trees_are_ok(trees):
    lines, ok = equivalence.compare(*trees, RUNS)
    assert ok
    assert _count(lines, "byte-identical files") == "3/3 identical"
    assert _count(lines, "files identical by value") == "3/3 identical"
    assert _count(lines, "scan results") == "2/2 identical"
    assert _count(lines, "k-means partitions up to relabeling") == "1/1 identical"
    assert _count(lines, "runs whose k-means reached MAX_ITERATIONS") == "parent 0/1, change 0/1"
    assert not any(line.startswith("differences") for line in lines)


def test_one_changed_payload_byte_is_a_float_difference(trees):
    _edit(trees[1] / "mix-reentrancy-1" / "reentrancy", "vectors.json", _flip_a_byte)
    lines, ok = equivalence.compare(*trees, RUNS)
    assert not ok
    assert _count(lines, "files identical by value") == "2/3 identical"
    [worst] = [line for line in lines if "vectors.json " in line]
    assert worst.startswith("  mix-reentrancy: ")
    assert float(worst.split("vectors.json ")[1].split(",")[0]) > 0
    assert not any(line.startswith("differences") for line in lines)


def test_changed_header_version_is_a_value_difference(trees):
    _edit(trees[1] / "mix-reentrancy-1" / "reentrancy", "vectors.json",
          lambda payload: payload.update(version=payload["version"] + 1))
    lines, ok = equivalence.compare(*trees, RUNS)
    assert not ok
    assert _count(lines, "files identical by value") == "2/3 identical"
    assert "  1 x vectors.json.version: value" in lines
    [note] = [line for line in lines if line.startswith("  mix-reentrancy-1/")]
    assert note.startswith("  mix-reentrancy-1/vectors.json.version: ")


def _swap_ids(model: dict) -> None:
    """The same partition and predictions under cluster ids 0 and 1 swapped."""
    model["labels"] = {"0": "clean", "1": "vulnerable"}
    model["assignments"] = [1, 0, 0]
    model["iterations_run"] = 100


def test_relabeled_model_is_the_same_partition_up_to_relabeling(trees):
    _edit(trees[1] / "mix-reentrancy-1" / "reentrancy", "model.json", _swap_ids)
    lines, ok = equivalence.compare(*trees, RUNS)
    assert not ok
    assert _count(lines, "training predictions") == "1/1 identical"
    assert _count(lines, "cluster labels") == "0/1 identical"
    assert _count(lines, "k-means partitions") == "0/1 identical"
    assert _count(lines, "k-means partitions up to relabeling") == "1/1 identical"
    assert _count(lines, "runs whose k-means reached MAX_ITERATIONS") == "parent 0/1, change 1/1"


def test_new_partition_differs_up_to_relabeling(trees):
    _edit(trees[1] / "mix-reentrancy-1" / "reentrancy", "model.json",
          lambda model: model.update(assignments=[0, 0, 1]))
    lines, ok = equivalence.compare(*trees, RUNS)
    assert not ok
    assert _count(lines, "k-means partitions up to relabeling") == "0/1 identical"


def test_environment_names_numpy_and_its_blas():
    env = equivalence.environment()
    assert set(env) == {"numpy", "openblas configuration", "kernel"}
    assert env["numpy"] == np.__version__
    assert all(isinstance(value, str) and value for value in env.values())


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree, body in ((parent, "a = 1\nb = 2\n"), (change, "a = 1\n")):
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "mod.py").write_text(body, "utf-8")
        (tree / "src" / "top.py").write_text("x = 1\ny = 2\nz = 3", "utf-8")  # no last newline
        (tree / "src" / "notes.txt").write_text("not\ncounted\n", "utf-8")
        (tree / "tests").mkdir()
        (tree / "tests" / "test_mod.py").write_text("def test():\n    pass\n", "utf-8")
    (change / "tests" / "test_more.py").write_text("x = 1\n", "utf-8")
    assert equivalence.py_lines(parent / "src") == 4
    assert equivalence.py_lines(change / "src") == 3
    assert equivalence.py_lines(parent / "tests") == 2
    assert equivalence.py_lines(change / "tests") == 3
