"""Parent-vs-change equivalence check: one workload, two source trees.

Usage::

    git worktree add ../parent HEAD~1
    python tools/equivalence.py ../parent .

The first tree generates the inputs once, so both trees see the same bytes:

* the five vulnerability kinds at their defaults, each on 9 vulnerable
  contracts from the kind's ``tests/conftest.py`` generator and 30 clean ones
  (a 30/70 mix, as ``tests/test_pipeline.py`` builds it);
* ``perfbench/corpus.build_mix`` runs at seeds 1..N: reentrancy (20
  documents), timestamp at one epoch and unchecked_call (10 documents each);
* at the same seeds, 60-document mixes (``mix60-``) of timestamp at one epoch
  and of unchecked_call, 18 vulnerable, 12 near misses and 30 clean: more
  rows than ``cluster.PCA_DIM``, so they are the only runs that fit PCA;
* contracts to scan per run: every training contract, plus for the conftest
  runs 31 more of the kind and 60 more clean ones, plus 60 (conftest runs) or
  64 (mixes) held-out contracts from ``perfbench/corpus.heldout`` for the
  kinds it generates.

Each tree then runs ``run_pipeline`` and ``scan_contract`` in its own
subprocess with ``PYTHONPATH=<tree>/src``; only those two functions and
``PipelineConfig.resolve`` are called, so any two trees with that API
compare. Artifacts are compared by decoded value, not by bytes: JSON is
parsed, every ``{"shape": [...], "f8": "<base64 of little-endian float64>"}``
payload becomes a float64 array, and the ``dataset`` and ``workdir`` paths
are dropped. Other files are compared as text. The report counts, each
separately: byte-identical files, files identical by value, the largest
absolute float difference per artifact, identical training predictions,
cluster labels, k-means partitions (cluster ids per training row) and
k-means partitions up to relabeling (one bijection of cluster ids maps one
tree's ids onto the other's), and identical scan results. It also counts,
per tree, the runs whose k-means stopped at the tree's
``cluster.MAX_ITERATIONS`` rather than converging. It then lists
every difference other than in float values: first one count per kind (the
path with list indices dropped, and what differs: its keys, its shape or its
value), then each entry.

Each tree's ``run`` phase also writes ``environment.json``: the numpy
version, numpy's ``openblas configuration`` string and the kernel the loaded
OpenBLAS picked. The report prints both, and says when they differ, because
the learned artifacts' bytes change with the OpenBLAS kernel. It also prints
each tree's ``src/`` and ``tests/`` line counts (``.py`` files, as ``wc -l``
counts them) and their differences.

Exit status: 0 when every count but the byte count is complete, 1
otherwise. Needs only the standard library and numpy (the input phase
imports ``tests/conftest.py``, which imports pytest); it is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import base64
import ctypes
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

CONFTEST_GENERATORS = {
    "reentrancy": "reentrant_source",
    "access_control": "access_control_source",
    "timestamp": "timestamp_source",
    "tx_origin": "tx_origin_source",
    "unchecked_call": "unchecked_source",
}
# run family -> (kind, (vulnerable, near miss, clean) counts, config overrides),
# the first three as in the benchmark's training and scan set-ups; a run is
# named <family>-<seed>
MIXES = {
    "mix-reentrancy": ("reentrancy", (6, 3, 11), {}),
    "mix-timestamp": ("timestamp", (3, 2, 5), {"epochs": 1}),
    "mix-unchecked_call": ("unchecked_call", (3, 2, 5), {}),
    "mix60-timestamp": ("timestamp", (18, 12, 30), {"epochs": 1}),
    "mix60-unchecked_call": ("unchecked_call", (18, 12, 30), {}),
}
PATH_KEYS = ("dataset", "workdir")
# the kernel-name getter of a plain OpenBLAS and of numpy's wheel build, 32- and 64-bit int
CORENAME_SYMBOLS = tuple(f"{prefix}openblas_get_corename{suffix}"
                         for prefix in ("", "scipy_") for suffix in ("", "64_"))
LIST_INDEX = re.compile(r"\[\d+\]")


# --- phase 1: inputs, generated with the first tree -------------------------

def prepare(tree: Path, inputs: Path, seeds: int) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "tests"), str(tree / "perfbench")]
    import conftest
    import corpus
    from ethcluster.ingest import Dataset, build_mixed_dataset, records_from_dir

    runs = []

    def add(name: str, kind: str, dataset: Path, overrides: dict, extra: list[str]) -> None:
        training = [rec.source for rec in Dataset.load(dataset).records]
        (inputs / name / "scans.json").write_text(json.dumps(training + extra), "utf-8")
        runs.append({"name": name, "config": {"vulnerability": kind,
                                              "dataset": str(dataset), **overrides}})

    for kind, generator in CONFTEST_GENERATORS.items():
        source = getattr(conftest, generator)
        root = inputs / f"conftest-{kind}"
        conftest.write_corpus(root / "vuln", [source(i) for i in range(9)])
        conftest.write_corpus(root / "clean", [conftest.clean_source(i) for i in range(30)])
        dataset = build_mixed_dataset(records_from_dir(root / "vuln"),
                                      records_from_dir(root / "clean"), 0.3)
        dataset.save(root / "dataset.json")
        extra = [source(i) for i in range(9, 40)]
        extra += [conftest.clean_source(i) for i in range(30, 90)]
        if kind in {mix[0] for mix in MIXES.values()}:
            extra += [s for s, _ in corpus.heldout(kind, random.Random(f"heldout:{kind}"), 60)]
        add(root.name, kind, root / "dataset.json", {}, extra)

    for seed in range(1, seeds + 1):
        for family, (kind, sizes, overrides) in MIXES.items():
            name = f"{family}-{seed}"
            # "mix-<kind>" runs are seeded by the kind alone, as they always were
            tag = family.removeprefix("mix-")
            mix = corpus.build_mix(kind, random.Random(f"{seed}:{tag}"), *sizes, inputs / name)
            held = corpus.heldout(kind, random.Random(f"{seed}:heldout:{tag}"), 64)
            add(name, kind, mix.dataset_path, overrides, [s for s, _ in held])
    (inputs / "runs.json").write_text(json.dumps(runs), "utf-8")


# --- phase 2: one tree's outputs ------------------------------------------

def environment() -> dict[str, str]:
    """numpy's version, its OpenBLAS build and the kernel that build picked at
    load time: the learned artifacts' bytes hold only for all three."""
    try:
        configuration = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "openblas configuration", "unknown")
    except (TypeError, KeyError):
        configuration = "unknown"
    return {"numpy": np.__version__, "openblas configuration": configuration,
            "kernel": _openblas_kernel()}


def _openblas_kernel() -> str:
    """The ``*get_corename*`` answer of the OpenBLAS this process loaded, found
    through ``/proc/self/maps``; ``"unknown"`` where there is none."""
    try:
        maps = Path("/proc/self/maps").read_text("utf-8")
    except OSError:
        return "unknown"
    paths = {parts[5] for parts in map(str.split, maps.splitlines())
             if len(parts) == 6 and "openblas" in Path(parts[5]).name.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode("ascii")
    return "unknown"


def run(tree: Path, inputs: Path, out: Path) -> None:
    """Train and scan every run; the relative workdir keeps paths equal."""
    sys.path.insert(0, str(tree / "src"))
    from ethcluster.cluster import MAX_ITERATIONS
    from ethcluster.pipeline import PipelineConfig, run_pipeline, scan_contract

    out.mkdir(parents=True)
    (out / "environment.json").write_text(json.dumps(environment()), "utf-8")
    (out / "max_iterations.json").write_text(json.dumps(MAX_ITERATIONS), "utf-8")
    os.chdir(out)
    for spec in json.loads((inputs / "runs.json").read_text("utf-8")):
        config = PipelineConfig.resolve({**spec["config"], "workdir": spec["name"]})
        run_pipeline(config)
        sources = json.loads((inputs / spec["name"] / "scans.json").read_text("utf-8"))
        scans = [scan_contract(config, source) for source in sources]
        (out / f"{spec['name']}.scans.json").write_text(json.dumps(scans), "utf-8")


# --- phase 3: comparison --------------------------------------------------

def decode(value):
    """JSON value with each float payload as a numpy array and path keys dropped."""
    if isinstance(value, dict):
        if value.keys() == {"shape", "f8"}:
            return np.frombuffer(base64.b64decode(value["f8"]), "<f8").reshape(value["shape"])
        return {k: decode(v) for k, v in value.items() if k not in PATH_KEYS}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def read(path: Path):
    text = path.read_text("utf-8")
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError:
        return text


def differences(a, b, where: str, floats: dict[str, float]) -> list[tuple[str, str, str]]:
    """(path, kind, detail) where ``a`` and ``b`` differ other than in float
    values; dicts with different keys are still compared on the keys they
    share. The largest absolute difference of each float array goes into
    ``floats``."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape:
            return [(where, "shape", f"shape {a.shape} vs {b.shape}")]
        floats[where] = float(np.max(np.abs(a - b))) if a.size else 0.0
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(a.keys() ^ b.keys())
        found = [(where, f"keys {keys}", f"keys {keys}")] if keys else []
        return found + [d for k in a if k in b
                        for d in differences(a[k], b[k], f"{where}.{k}", floats)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{where}[{i}]", floats)]
    if type(a) is type(b) and a == b:
        return []
    return [(where, "value", f"{a!r:.60} vs {b!r:.60}")]


def _model_facts(model: dict) -> tuple[dict, list[int], list[str], int]:
    labels = {str(c): v for c, v in model["labels"].items()}
    ids = [int(i) for i in np.asarray(model["assignments"]).ravel()]
    return labels, ids, [labels.get(str(i)) for i in ids], model["iterations_run"]


def _relabeled(a: list[int], b: list[int]) -> bool:
    """Whether one bijection of cluster ids maps assignment list ``a`` onto ``b``."""
    pairs = set(zip(a, b))
    return len(a) == len(b) and len(pairs) == len(set(a)) == len(set(b))


def compare(out_a: Path, out_b: Path, runs: list[dict]) -> tuple[list[str], bool]:
    counts = {key: [0, 0] for key in ("byte-identical files", "files identical by value",
                                      "training predictions", "cluster labels",
                                      "k-means partitions",
                                      "k-means partitions up to relabeling", "scan results")}
    worst: dict[str, float] = {}
    notes = []
    kinds: Counter[str] = Counter()
    caps = [json.loads((out / "max_iterations.json").read_text("utf-8")) for out in (out_a, out_b)]
    capped = [0, 0]

    def tally(key: str, same: int, total: int = 1) -> None:
        counts[key][0] += same
        counts[key][1] += total

    def note(name: str, where: str, kind: str, detail: str) -> None:
        notes.append(f"{name}/{where}: {detail}")
        kinds[f"{LIST_INDEX.sub('[]', where)}: {kind}"] += 1

    for spec in runs:
        name, kind = spec["name"], spec["config"]["vulnerability"]
        family = name if name.startswith("conftest") else name.rsplit("-", 1)[0]
        stage_a, stage_b = out_a / name / kind, out_b / name / kind
        files = {p.name for p in stage_a.iterdir()} | {p.name for p in stage_b.iterdir()}
        for file in sorted(files):
            pa, pb = stage_a / file, stage_b / file
            if not (pa.exists() and pb.exists()):
                note(name, file, "only in one tree", "only in one tree")
                tally("byte-identical files", 0)
                tally("files identical by value", 0)
                continue
            tally("byte-identical files", pa.read_bytes() == pb.read_bytes())
            floats: dict[str, float] = {}
            diffs = differences(read(pa), read(pb), file, floats)
            tally("files identical by value", not diffs and not any(floats.values()))
            for diff in diffs:
                note(name, *diff)
            if floats:
                key = f"{family} {file}"
                worst[key] = max(worst.get(key, 0.0), *floats.values())
        facts_a = _model_facts(json.loads((stage_a / "model.json").read_text("utf-8")))
        facts_b = _model_facts(json.loads((stage_b / "model.json").read_text("utf-8")))
        tally("cluster labels", facts_a[0] == facts_b[0])
        tally("k-means partitions", facts_a[1] == facts_b[1])
        tally("k-means partitions up to relabeling", _relabeled(facts_a[1], facts_b[1]))
        for side, (facts, cap) in enumerate(zip((facts_a, facts_b), caps)):
            capped[side] += facts[3] >= cap
        tally("training predictions", facts_a[2] == facts_b[2])
        scans_a = json.loads((out_a / f"{name}.scans.json").read_text("utf-8"))
        scans_b = json.loads((out_b / f"{name}.scans.json").read_text("utf-8"))
        tally("scan results", sum(x == y for x, y in zip(scans_a, scans_b)),
              max(len(scans_a), len(scans_b)))

    lines = [f"{key}: {same}/{total} identical" for key, (same, total) in counts.items()]
    lines.append(f"runs whose k-means reached MAX_ITERATIONS: parent {capped[0]}/{len(runs)}, "
                 f"change {capped[1]}/{len(runs)}")
    lines.append("largest absolute float difference per artifact, over the runs of each family:")
    families = sorted({key.split(" ")[0] for key in worst})
    lines += [f"  {family}: " + ", ".join(f"{key.split(' ')[1]} {diff:.3g}" for key, diff
                                          in sorted(worst.items()) if key.startswith(family + " "))
              for family in families]
    if notes:
        lines.append(f"differences: {len(notes)}, by kind:")
        lines += [f"  {count} x {kind}" for kind, count in sorted(kinds.items())]
        lines += ["every difference:"] + [f"  {n}" for n in notes]
    ok = all(same == total for key, (same, total) in counts.items()
             if key != "byte-identical files")
    return lines, ok


def py_lines(directory: Path) -> int:
    """The newline count of the ``.py`` files under ``directory``, as ``wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n") for path in directory.rglob("*.py"))


def _subprocess(tree: Path, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], env=env, check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=int, default=8, help="build_mix seeds 1..N")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        work = (args.work or Path(tmp)).resolve()
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        _subprocess(trees[0], "--phase", "prepare", str(trees[0]), str(inputs), str(args.seeds))
        for side, tree in zip(("parent", "change"), trees):
            _subprocess(tree, "--phase", "run", str(tree), str(inputs), str(work / side))
        runs = json.loads((inputs / "runs.json").read_text("utf-8"))
        lines, ok = compare(work / "parent", work / "change", runs)
        envs = [json.loads((work / side / "environment.json").read_text("utf-8"))
                for side in ("parent", "change")]
    print(f"{len(runs)} runs: parent {trees[0]} vs change {trees[1]}")
    for side, env in zip(("parent", "change"), envs):
        print(f"{side} BLAS: numpy {env['numpy']}, {env['openblas configuration']}, "
              f"kernel {env['kernel']}")
    for part in ("src", "tests"):
        lines_a, lines_b = (py_lines(tree / part) for tree in trees)
        print(f"{part}/ lines: parent {lines_a}, change {lines_b} ({lines_b - lines_a:+d})")
    if envs[0] != envs[1]:
        print("the trees ran under different BLAS environments, so the byte counts "
              "are not comparable")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--phase"]:
        phase, tree, *rest = sys.argv[2:]
        if phase == "prepare":
            prepare(Path(tree), Path(rest[0]), int(rest[1]))
        else:
            run(Path(tree), Path(rest[0]), Path(rest[1]))
    else:
        raise SystemExit(main())
