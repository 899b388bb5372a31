"""Command-line interface.

Every pipeline stage is exposed as a subcommand, plus ``run`` for the whole
sequence and ``scan`` for single-contract inference. Failures print one JSON
object to stderr and exit nonzero; success exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import cluster as cl
from . import embed, pipeline, vectorize
from ._artifact import read_json
from .errors import EthClusterError, FormatError, PipelineStageError, RateLimited
# perfbench/spans.py wraps confusion, metrics, write_report and render_table on this module.
from .evaluate import confusion, metrics, project2d, render_table, write_points_csv, write_report
from .ingest import (
    DEFAULT_ENDPOINTS,
    RATE_PER_SECOND,
    ContractStore,
    Dataset,
    ExplorerClient,
    build_mixed_dataset,
    records_from_dir,
)
from .pipeline import PipelineConfig, run_pipeline, scan_contract
from .preprocess import load_tokendocs, save_tokendocs

RATE_LIMIT_RETRIES = 5


def cmd_ingest(args) -> int:
    endpoints = None
    if args.endpoint:
        endpoints = dict(DEFAULT_ENDPOINTS)
        endpoints[args.chain] = args.endpoint
    store = ContractStore(args.store)
    lines = map(str.strip, Path(args.addresses).read_text("utf-8-sig", errors="replace").splitlines())
    addresses = [line for line in lines if line and not line.startswith("#")]
    outcomes = {"stored": 0, "duplicate": 0, "failed": 0}
    client = ExplorerClient(endpoints=endpoints, rate_per_second=args.rate)
    for address in addresses:
        for attempt in range(1, RATE_LIMIT_RETRIES + 2):
            try:
                result = store.put(client.fetch_verified_source(args.chain, address))
                break
            except RateLimited:
                result = f"failed: rate limited after {attempt} tries"
                if attempt <= RATE_LIMIT_RETRIES:
                    time.sleep(min(2.0 ** attempt, 30.0))
            except EthClusterError as exc:
                result = f"failed: {exc}"
                break
        outcomes[result.partition(":")[0]] += 1
        print(f"{address} {result}")
    print(f"stored={outcomes['stored']} duplicate={outcomes['duplicate']} "
          f"failed={outcomes['failed']} store={args.store}")
    return 0


def cmd_build_dataset(args) -> int:
    vulnerable = records_from_dir(args.vuln)
    clean = records_from_dir(args.clean)
    dataset = build_mixed_dataset(vulnerable, clean, args.fraction)
    dataset.save(args.out)
    print(f"{len(dataset.entries)} entries ({len(vulnerable)} vulnerable) -> {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    docs = pipeline.preprocess_corpus(Dataset.load(args.input))
    save_tokendocs(docs, args.out)
    print(f"{len(docs)} contracts tokenized -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    detection = pipeline.detect_corpus(load_tokendocs(args.input), args.kind)
    pipeline.save_detection(detection, args.out)
    flags = detection["flags"]
    print(f"{sum(flags)}/{len(flags)} contracts flagged for {args.kind} -> {args.out}")
    return 0


def cmd_train_embedding(args) -> int:
    config = embed.EmbeddingConfig(vector_size=args.dim, epochs=args.epochs, seed=args.seed)
    model = embed.train_embedding([d.tokens for d in load_tokendocs(args.input)], config)
    embed.save_model(model, args.out)
    print(f"vocab={len(model.vocab)} dim={args.dim} -> {args.out}")
    return 0


def cmd_vectorize(args) -> int:
    docs = load_tokendocs(args.input)
    model = embed.load_model(args.embedding)
    detection = pipeline.load_detection(args.flags) if args.flags else None
    keyword_map, vectors = pipeline.vectorize_corpus(docs, model, args.threshold, detection,
                                                     args.out)
    print(f"{len(vectors)} vectors (dim {model.config.vector_size}, "
          f"{len(keyword_map)} keywords) -> {args.out}")
    return 0


def cmd_cluster(args) -> int:
    dataset = Dataset.load(args.dataset) if args.dataset else None
    model = pipeline.cluster_vectors(
        vectorize.load_vectors(args.vectors), args.k, args.max_iter, args.seed, dataset)
    cl.save_cluster_model(model, args.out)
    print(f"k={args.k} iterations={model.iterations_run} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model = cl.load_cluster_model(args.model)
    report = pipeline.evaluate_model(model, Dataset.load(args.dataset))
    kind = args.kind or "unspecified"
    write_report(kind, report, {}, args.out)
    print(render_table(kind, report))
    return 0


def cmd_project(args) -> int:
    vectors = vectorize.load_vectors(args.vectors)
    model = cl.load_cluster_model(args.model)
    X, ids = cl.assign(model, np.array([v.values for v in vectors]))
    rows = project2d(X, ids, [model.labels.get(a, "unlabeled") for a in ids.tolist()])
    write_points_csv(rows, args.out)
    print(f"{len(rows)} points -> {args.out}")
    return 0


def _config_object(payload):
    if type(payload) is not dict:
        raise FormatError(f"a config must be a JSON object; got {type(payload).__name__}")
    return payload


def _resolved_config(args) -> PipelineConfig:
    values = read_json(args.config, _config_object) if args.config else {}
    overrides = {
        "vulnerability": args.vulnerability,
        "dataset": getattr(args, "dataset", None),
        "workdir": args.workdir,
        "seed": getattr(args, "seed", None),
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    return PipelineConfig.resolve(values)


def cmd_run(args) -> int:
    config = _resolved_config(args)
    print(render_table(config.vulnerability, run_pipeline(config)))
    print(f"artifacts under {config.stage_dir()}")
    return 0


def cmd_scan(args) -> int:
    config = _resolved_config(args)
    source = Path(args.contract).read_text("utf-8", errors="replace")
    result = scan_contract(config, source)
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethcluster",
        description="Solidity vulnerability detection by k-means clusters labeled "
                    "by their members' truth labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="fetch verified source from a block explorer")
    p.add_argument("--chain", required=True)
    p.add_argument("--addresses", required=True, help="file with one 0x address per line")
    p.add_argument("--store", default="contracts.ndjson")
    p.add_argument("--endpoint", default=None, help="override the chain's API endpoint")
    p.add_argument("--rate", type=float, default=RATE_PER_SECOND, help="requests per second")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-dataset", help="mix vulnerable and clean dirs into a dataset")
    p.add_argument("--vuln", required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("preprocess", help="tokenize a dataset's contracts into one tokens file")
    p.add_argument("--in", dest="input", required=True, help="dataset file from build-dataset")
    p.add_argument("--out", required=True, help="tokens file (preprocess.json format)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("detect", help="regex-flag a corpus for one vulnerability kind")
    p.add_argument("--kind", required=True)
    p.add_argument("--in", dest="input", required=True, help="tokens file from preprocess")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train-embedding", help="train word vectors over a tokens file")
    p.add_argument("--in", dest="input", required=True, help="tokens file from preprocess")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=embed.DEFAULT_SEED)
    p.add_argument("--epochs", type=int, default=embed.EmbeddingConfig.epochs)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_embedding)

    p = sub.add_parser("vectorize", help="select keywords and build document vectors")
    p.add_argument("--in", dest="input", required=True, help="tokens file from preprocess")
    p.add_argument("--embedding", required=True)
    p.add_argument("--flags", default=None)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("cluster", help="PCA (if high-dimensional) plus seeded k-means")
    p.add_argument("--vectors", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=embed.DEFAULT_SEED)
    p.add_argument("--max-iter", type=int, default=cl.MAX_ITERATIONS)
    p.add_argument("--dataset", default=None, help="label clusters from this dataset")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="confusion matrix and metrics for a labeled model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="export 2D PCA points for plotting")
    p.add_argument("--vectors", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("run", help="run the whole pipeline for one vulnerability")
    p.add_argument("--config", default=None)
    p.add_argument("--vulnerability", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--workdir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("scan", help="classify one contract with trained artifacts")
    p.add_argument("contract", help="path to a .sol file")
    p.add_argument("--config", default=None)
    p.add_argument("--vulnerability", default=None)
    p.add_argument("--workdir", default=None)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PipelineStageError as exc:
        name = "PathError" if isinstance(exc.cause, OSError) else type(exc.cause).__name__
        payload = {"error": name, "message": str(exc.cause), "stage": exc.stage}
    except EthClusterError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
    except OSError as exc:
        payload = {"error": "PathError", "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
