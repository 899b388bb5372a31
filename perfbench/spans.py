"""In-memory span tracing around the package's public functions.

Tracing happens only inside ``Tracer.installed()``: on entry it replaces
each listed function at the module attribute its caller looks up, and on
exit it puts the originals back, so untraced runs execute no wrapper.

A span is (name, layer, start, end, parent index, operation id). A layer's
self time is the duration of its spans minus the time their child spans
cover; the harness's own ``bench`` root span takes the rest, so the self
times of one operation add up to its traced duration exactly.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from ethcluster import _kernels, cli, detect, embed, ingest, pipeline, vectorize
from ethcluster import cluster as cl

LAYERS = ("ingest", "preprocess", "detect", "embed", "vectorize", "cluster",
          "evaluate", "pipeline", "cli")
BENCH = "bench"


def _pairs(args, _result):
    lo, hi = args[3], args[4]
    return {"embed.kernel_calls": 1, "embed.pairs": int((hi - lo).sum())}


def _assign(args, _result):
    X, centers = args[0], args[1]
    return {"cluster.assign_rows": X.shape[0],
            "cluster.distance_evals": X.shape[0] * centers.shape[0]}


# (module, attribute, layer, span name, counter). Names that ``pipeline`` and
# ``cli`` import directly are wrapped on those modules, where they are called.
TARGETS = (
    (pipeline, "run_pipeline", "pipeline", "pipeline.run_pipeline", None),
    (pipeline, "scan_contract", "pipeline", "pipeline.scan_contract", None),
    (cli, "main", "cli", "cli.main", None),
    (pipeline, "preprocess_contract", "preprocess", "preprocess.contract",
     lambda args, _r: {"preprocess.bytes": len(args[0].encode("utf-8"))}),
    (detect, "scan_corpus", "detect", "detect.scan_corpus", None),
    (embed, "train_embedding", "embed", "embed.train",
     lambda args, r: {"embed.vocab": len(r.vocab),
                      "embed.tokens": sum(len(d) for d in args[0]) * args[1].epochs}),
    (embed, "save_model", "embed", "embed.save", None),
    (_kernels, "skipgram_doc", "embed", "embed.kernel", _pairs),
    (_kernels, "cbow_doc", "embed", "embed.kernel", _pairs),
    (vectorize, "build_dictionary", "vectorize", "vectorize.dictionary", None),
    (vectorize, "TfidfModel", "vectorize", "vectorize.tfidf", None),
    (vectorize, "doc2bow", "vectorize", "vectorize.doc2bow", None),
    (vectorize, "select_keywords", "vectorize", "vectorize.select",
     lambda _a, r: {"vectorize.keywords": len(r)}),
    (vectorize, "doc_vector_values", "vectorize", "vectorize.doc_vector",
     lambda _a, r: {"vectorize.zero_docs": int(not r.any())}),
    (vectorize, "save_vectors", "vectorize", "vectorize.save", None),
    (vectorize, "save_keyword_map", "vectorize", "vectorize.save", None),
    (vectorize, "load_vectors", "vectorize", "vectorize.load", None),
    (vectorize, "load_keyword_map", "vectorize", "vectorize.load", None),
    (cl, "pca_fit", "cluster", "cluster.pca", None),
    (cl, "pca_transform", "cluster", "cluster.pca", None),
    (cl, "kmeans_fit", "cluster", "cluster.kmeans",
     lambda _a, r: {"cluster.kmeans_iters": r.iterations_run}),
    (_kernels, "kmeans_assign", "cluster", "cluster.assign", _assign),
    (_kernels, "kmeans_update", "cluster", "cluster.update", None),
    (cl, "label_clusters", "cluster", "cluster.label", None),
    (cl, "save_cluster_model", "cluster", "cluster.save", None),
    (cl, "load_cluster_model", "cluster", "cluster.load", None),
    (cl, "predict", "cluster", "cluster.predict", None),
    (pipeline, "confusion", "evaluate", "evaluate.confusion", None),
    (pipeline, "metrics", "evaluate", "evaluate.metrics", None),
    (pipeline, "write_report", "evaluate", "evaluate.write", None),
    (pipeline, "render_table", "evaluate", "evaluate.render", None),
    (cli, "confusion", "evaluate", "evaluate.confusion", None),
    (cli, "metrics", "evaluate", "evaluate.metrics", None),
    (cli, "write_report", "evaluate", "evaluate.write", None),
    (cli, "render_table", "evaluate", "evaluate.render", None),
    (ingest.Dataset, "load", "ingest", "ingest.dataset_load", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self.op_id = -1

    def _wrap(self, fn, layer: str, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, layer, start, end, parent, tracer.op_id)
            if counter is not None:
                tracer.count(counter(args, result))
            return result

        return functools.update_wrapper(traced, fn, updated=())

    def _wrap_detector_for(self, fn):
        """``detector_for`` hands out detectors; trace the detector it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(kind):
            return tracer._wrap(fn(kind), "detect", "detect.detector", lambda _a, r: {
                "detect.flagged": int(r == 1)})

        return traced

    def count(self, values: dict[str, int]) -> None:
        bucket = self.counts.setdefault(self.op_id, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, layer, name, counter in TARGETS:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, layer, name, counter)))
                else:
                    setattr(owner, attr, self._wrap(raw, layer, name, counter))
            saved.append((detect, "detector_for", detect.detector_for))
            detect.detector_for = self._wrap_detector_for(detect.detector_for)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextmanager
    def operation(self, op_id: int):
        """The root span of one operation; every layer span nests under it."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (BENCH, BENCH, start, end, -1, op_id)

    def write(self, path: Path) -> None:
        fields = ("name", "layer", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]), "utf-8")

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per operation: self time and busy time per layer, span counts, counters."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops: dict[int, dict[str, float]] = {}
        for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
            row = ops.setdefault(op, {"spans": 0})
            duration = end - start
            row["spans"] += 1
            row[f"{layer}.self_s"] = row.get(f"{layer}.self_s", 0.0) + duration - child_time[i]
            row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + duration
            # busy time: spans whose parent belongs to another layer
            if parent < 0 or self.spans[parent][1] != layer:
                row[f"{layer}.busy_s"] = row.get(f"{layer}.busy_s", 0.0) + duration
        for op, counters in self.counts.items():
            ops.setdefault(op, {"spans": 0}).update(counters)
        return ops


def mean_of(rows: list[dict[str, float]], key: str) -> float:
    return statistics.fmean(row.get(key, 0) for row in rows)


def median_of(rows: list[dict[str, float]], key: str) -> float:
    return statistics.median(row.get(key, 0) for row in rows)


def total_of(rows: list[dict[str, float]], key: str) -> float:
    return sum(row.get(key, 0) for row in rows)
