"""The benchmark's workloads: set-up, one operation, and its output checks.

Each workload drives the package only through its public entry points:
``pipeline.run_pipeline``, ``pipeline.scan_contract`` and ``cli.main``.
Calls go through the module attribute so that a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

from ethcluster import cli, pipeline
from ethcluster.ingest import CLEAN, VULNERABLE, Dataset

import corpus


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _f_measure(predicted: list[str], truth: list[str]) -> float:
    tp = sum(p == VULNERABLE and t == VULNERABLE for p, t in zip(predicted, truth))
    wrong = sum(p != t for p, t in zip(predicted, truth))
    return 100.0 * 2 * tp / (2 * tp + wrong) if tp else 0.0


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def _confusion_total(report_path: Path) -> int:
    return sum(json.loads(report_path.read_text("utf-8"))["confusion"].values())


class Train:
    """One cold ``run_pipeline`` per operation, into the same emptied workdir.

    Every repeat of the config must write byte-identical artifacts.
    """

    # (vulnerable, near miss, clean) counts per vulnerability, 30/70 mixes,
    # and config overrides, sized so an operation takes under a second on the
    # pure-Python kernels and a run holds tens of them: at dim 300 one epoch
    # over ten short contracts already costs about 0.7 s.
    SIZES = {"reentrancy": (6, 3, 11), "timestamp": (3, 2, 5)}
    OVERRIDES = {"reentrancy": {}, "timestamp": {"epochs": 1}}
    min_ops = 2

    def __init__(self, kind: str, workdir: Path):
        self.kind = kind
        self.workdir = workdir
        self.reference: dict[str, str] | None = None
        self.reports: list = []

    def setup(self, r: random.Random) -> dict:
        self.mix = corpus.build_mix(self.kind, r, *self.SIZES[self.kind], self.workdir / "data")
        self.config = pipeline.PipelineConfig.resolve({
            "vulnerability": self.kind,
            "dataset": str(self.mix.dataset_path),
            "workdir": str(self.workdir / "run"),
            **self.OVERRIDES[self.kind],
        })
        return {"corpus": self.mix.digest, "documents": self.mix.size,
                "duplicates_dropped": self.mix.duplicates}

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.workdir / "run", ignore_errors=True)

    def op(self, i: int):
        return pipeline.run_pipeline(self.config)

    def check(self, i: int, report) -> None:
        out = self.config.stage_dir()
        if report.cm.total != self.mix.size or _confusion_total(out / "report.json") != self.mix.size:
            raise CheckFailed(f"confusion total {report.cm.total} != dataset size {self.mix.size}")
        digests = _digests(out)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            raise CheckFailed(f"rerun artifacts differ: {changed}")
        self.reports.append(report)

    def f_measure(self) -> float:
        return self.reports[-1].f_measure or 0.0

    def finish(self) -> tuple[int, int]:
        return 0, 0


class Recluster:
    """One sweep over k per operation: ``cluster`` then ``evaluate`` via the CLI.

    ``--max-iter`` is capped below the iteration count these mixtures nearly
    always need to converge, so each k does about the same number of Lloyd
    iterations at every seed and the sweep time follows the cost of one.
    """

    KS = (4, 6, 8)
    F_AT_K = 8
    MAX_ITER = 3
    ROWS, DIM = 300, 100
    min_ops = 2

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.reference: dict[int, tuple[bytes, bytes]] = {}

    def setup(self, r: random.Random) -> dict:
        self.mix = corpus.gaussian_mix(r, self.ROWS, self.DIM, 0.3, self.workdir / "data")
        self.vectors = self.workdir / "data" / "vectors.json"
        self.out = self.workdir / "sweep"
        self.out.mkdir()
        return {"corpus": self.mix.digest, "documents": self.mix.size}

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()):
            for k in self.KS:
                model, report = self.out / f"model-{k}.json", self.out / f"report-{k}.json"
                if cli.main(["cluster", "--vectors", str(self.vectors), "--k", str(k),
                             "--max-iter", str(self.MAX_ITER),
                             "--dataset", str(self.mix.dataset_path), "--out", str(model)]):
                    raise CheckFailed(f"cluster --k {k} exited nonzero")
                if cli.main(["evaluate", "--model", str(model), "--kind", "recluster",
                             "--dataset", str(self.mix.dataset_path), "--out", str(report)]):
                    raise CheckFailed(f"evaluate --k {k} exited nonzero")

    def check(self, i: int, _result) -> None:
        for k in self.KS:
            model, report = self.out / f"model-{k}.json", self.out / f"report-{k}.json"
            if _confusion_total(report) != self.mix.size:
                raise CheckFailed(f"k={k}: confusion total != dataset size {self.mix.size}")
            artifacts = (model.read_bytes(), report.read_bytes())
            if self.reference.setdefault(k, artifacts) != artifacts:
                raise CheckFailed(f"k={k}: rerun artifacts differ")

    def f_measure(self) -> float:
        report = json.loads(self.reference[self.F_AT_K][1])
        return report["metrics"]["f_measure"] or 0.0

    def finish(self) -> tuple[int, int]:
        return 0, 0


class Scan:
    """One ``scan_contract`` per operation on a held-out contract-sized source.

    Set-up trains one ``unchecked_call`` detector. After the timed loop every
    training contract is scanned and must get its training prediction.
    """

    KIND = "unchecked_call"
    SIZES = (3, 2, 5)
    POOL = 256
    min_ops = 1000

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.predicted: dict[int, str] = {}

    def setup(self, r: random.Random) -> dict:
        self.mix = corpus.build_mix(self.KIND, r, *self.SIZES, self.workdir / "data")
        self.config = pipeline.PipelineConfig.resolve({
            "vulnerability": self.KIND,
            "dataset": str(self.mix.dataset_path),
            "workdir": str(self.workdir / "run"),
        })
        pipeline.run_pipeline(self.config)
        model = json.loads((self.config.stage_dir() / "model.json").read_text("utf-8"))
        self.training = [(rec.source, model["labels"][str(cluster)]) for rec, cluster
                         in zip(Dataset.load(self.mix.dataset_path).records, model["assignments"])]
        self.pool = corpus.heldout(self.KIND, r, self.POOL)
        lines = [s.count("\n") for s, _ in self.pool]
        return {"corpus": self.mix.digest, "documents": self.mix.size,
                "duplicates_dropped": self.mix.duplicates,
                "heldout": hashlib.sha256("".join(s for s, _ in self.pool).encode()).hexdigest()[:16],
                "heldout_lines": [min(lines), max(lines)]}

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        return pipeline.scan_contract(self.config, self.pool[i % len(self.pool)][0])

    def check(self, i: int, result: dict) -> None:
        label = result.get("label")
        flags = result.get("flags", {}).get(self.KIND)
        if label not in (VULNERABLE, CLEAN) or flags not in (0, 1):
            raise CheckFailed(f"bad scan result {result!r}")
        j = i % len(self.pool)
        if self.predicted.setdefault(j, label) != label:
            raise CheckFailed(f"contract {j} changed label between scans")

    def f_measure(self) -> float:
        idx = sorted(self.predicted)
        return _f_measure([self.predicted[j] for j in idx], [self.pool[j][1] for j in idx])

    def finish(self) -> tuple[int, int]:
        """Scan every training contract; each must reproduce its training prediction."""
        failed = 0
        for source, label in self.training:
            try:
                failed += pipeline.scan_contract(self.config, source)["label"] != label
            except Exception:
                failed += 1
        return len(self.training), failed


def make(name: str, workdir: Path):
    if name.startswith("train."):
        return Train(name.split(".", 1)[1], workdir)
    if name == "recluster":
        return Recluster(workdir)
    if name == "scan":
        return Scan(workdir)
    raise KeyError(name)


WORKLOADS = ("train.reentrancy", "train.timestamp", "recluster", "scan")
