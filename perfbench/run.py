"""Benchmark for the ethcluster pipeline: training, re-clustering and scanning.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads (one per invocation, so peak RSS never carries over):

* ``train.reentrancy`` / ``train.timestamp``: one cold ``run_pipeline``
  per operation on a seeded 30/70 mix, with the ``reentrancy`` defaults
  (dim 10, k=5, no PCA) or the ``timestamp`` defaults (dim 300, k=6, PCA)
  trained for one epoch. Embed does almost all the work, in its two
  regimes: per-pair Python overhead at dim 10, per-dimension arithmetic at
  dim 300.
* ``recluster``: one sweep of ``ethcluster cluster`` + ``ethcluster
  evaluate`` over k in (4, 6, 8) per operation, on a seeded Gaussian
  mixture at dim 100 (PCA active). The pure-Python k-means does the work;
  embed does none.
* ``scan``: one ``scan_contract`` per operation on a held-out
  contract-sized source (200-800 lines), against an ``unchecked_call``
  detector trained during set-up. Preprocess and artifact loading dominate.

The loop is closed with one client in one thread: the next operation starts
when the previous one returns. It runs for ``--seconds`` and at least the
workload's minimum operation count. Every output is checked; a failed
operation or check counts against ``success_rate`` and is never dropped.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``. The speed
of a shared cloud host drifts by a quarter over minutes, which moves every
wall-clock time alike, so the run also times a fixed pure-Python reference
loop around each set-up and every half second between operations. Each
operation and set-up is divided by the mean of the reference samples just
before and after it. The operation times and rate in ``BENCHMARK.json`` are
in these units (``ref``); ``setup_s`` is in seconds on a host on which the
reference loop takes ``REFERENCE_NOMINAL_S``. The wall-clock figures, and
the median reference, are printed beside them. The run re-executes itself
with ``PYTHONHASHSEED=0`` unless that is already set.
``--trace 1`` runs every operation twice, once traced, writes the spans and
a self-time table under ``.perfbench-work/<workload>/`` and prints the
per-layer metrics, including the tracing overhead and the residual between
the summed layer self times and the untraced operation time. Both compare
each traced operation with its untraced twin and report the median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least MIN_SETUPS times and until SETUP_SECONDS have passed,
# each time between two reference samples; setup_s is the median of set-up
# time over the mean of its two samples. A few-millisecond set-up needs tens
# of samples for a steady median. Every set-up must describe the same inputs.
MIN_SETUPS, SETUP_SECONDS = 3, 1.0
# The reference loop takes about REFERENCE_NOMINAL_S on a 2-vCPU cloud host.
REFERENCE_ITERATIONS, REFERENCE_EVERY_S, REFERENCE_NOMINAL_S = 200_000, 0.5, 0.020
# Summed layer self times must match the untraced operation time this closely;
# host speed noise between twin traced and untraced operations dominates the
# residual on train runs, wrapper overhead on scan.
RESIDUAL_BOUND = 0.10


def _import_package():
    src = ROOT / "src"
    if not (src / "ethcluster" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ethcluster sources under {src}")
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy
    from ethcluster import _kernels

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else "unknown"
        sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": _kernels.numba_enabled(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def reference() -> float:
    """Seconds one fixed pure-Python loop takes: the host-speed yardstick."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def measure(bench, seconds: float, tracer=None, refs: tuple[float, ...] = ()) -> dict:
    """Closed loop: run operations until ``seconds`` pass and ``min_ops`` ran.

    Between operations, at most every ``REFERENCE_EVERY_S``, and once at the
    end, the reference loop is timed, so it samples the same host conditions
    as the operations; ``refs`` are earlier samples, from set-up. Each
    untraced operation is kept with the index of the last sample before it.
    With a tracer, attempts 2k and 2k + 1 both run operation k, one of them
    traced, in alternating order; the wrappers are installed for the traced
    attempt only. So each traced attempt has an untraced twin on the same
    input under nearly the same machine conditions.
    """
    latencies, traced, errors, times, bracketed = [], [], [], {}, []
    refs = list(refs)
    i = 0
    step = 2 if tracer else 1
    min_ops = bench.min_ops * step
    now = time.perf_counter()
    deadline, next_ref = now + seconds, now
    while i % step or i < min_ops or time.perf_counter() < deadline:
        if time.perf_counter() >= next_ref:
            refs.append(reference())
            next_ref = time.perf_counter() + REFERENCE_EVERY_S
        k = i // step
        bench.prepare(k)
        tracing = tracer is not None and i % 4 in (1, 2)
        try:
            with tracer.installed() if tracing else nullcontext():
                start = time.perf_counter()
                with tracer.operation(i) if tracing else nullcontext():
                    result = bench.op(k)
                elapsed = time.perf_counter() - start
            bench.check(k, result)
        except Exception as exc:  # every failure is counted and reported
            errors.append(f"op {k}: {type(exc).__name__}: {exc}")
        else:
            (traced if tracing else latencies).append(elapsed)
            times[i] = elapsed
            if not tracing:
                bracketed.append((elapsed, len(refs) - 1))
        i += 1
    refs.append(reference())
    return {"latencies": latencies, "traced": traced, "attempted": i, "errors": errors,
            "refs": refs, "times": times, "bracketed": bracketed}


def tail(latencies: list[float]) -> float:
    """The highest percentile, up to p99, with at least ten samples beyond it.

    Nearest rank; with 20 samples or fewer no percentile above the median
    has ten beyond it, so this is the median.
    """
    n = len(latencies)
    q = min(0.99, 1 - 10 / n) if n > 20 else 0.5
    return sorted(latencies)[max(0, math.ceil(q * n) - 1)]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(bench, run: dict, setup_times: list[float], setup_refs: list[float],
               success: float) -> dict:
    """Every end-to-end metric, raw and in reference units.

    ``setup_refs`` has one more sample than ``setup_times``: the i-th set-up
    ran between samples i and i + 1. Likewise each operation's time is taken
    over the mean of the reference samples just before and after it, so host
    drift slower than the sampling interval cancels.

    The timings are 0 when no operation succeeded.
    """
    lat = run["latencies"] or [0.0]
    refs = run["refs"]
    ref = statistics.median(refs)
    in_ref = [2 * t / (refs[b] + refs[b + 1]) for t, b in run["bracketed"]] or [0.0]
    raw = {
        "setup_wall_s": statistics.median(setup_times),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail(lat),
        "ops_per_s": _share(len(run["latencies"]), sum(lat)),
        "reference_ms": 1e3 * ref,
    }
    return raw | {
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(
            2 * t / (before + after)
            for t, before, after in zip(setup_times, setup_refs, setup_refs[1:])),
        "op_p50_ref": statistics.median(in_ref),
        "op_tail_ref": tail(in_ref),
        "ops_per_ref": _share(len(run["bracketed"]), sum(in_ref)),
        "f_measure": bench.f_measure() if run["latencies"] else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 100.0 * success,
    }


# The roadmap's names for the end-to-end metrics, per workload:
# alias -> (metric, scale, unit).
ALIASES = {
    "train.reentrancy": {"train_s.reentrancy": ("op_p50_ms", 1e-3, "s"),
                         "f_measure.reentrancy": ("f_measure", 1, "%")},
    "train.timestamp": {"train_s.timestamp": ("op_p50_ms", 1e-3, "s"),
                        "f_measure.timestamp": ("f_measure", 1, "%")},
    "recluster": {"recluster_sweep_s": ("op_p50_ms", 1e-3, "s"),
                  "f_measure.recluster": ("f_measure", 1, "%")},
    "scan": {"scan_p50_ms": ("op_p50_ms", 1, "ms"), "scan_p99_ms": ("op_tail_ms", 1, "ms"),
             "scan_per_s": ("ops_per_s", 1, "1/s"), "f_measure.scan": ("f_measure", 1, "%")},
}


def per_layer(tracer, run: dict) -> tuple[dict, list[str]]:
    from spans import BENCH, LAYERS, mean_of, median_of, total_of

    by_op = {op: row for op, row in tracer.per_op().items() if op >= 0}
    rows = [row for _, row in sorted(by_op.items())] or [{}]

    def rate(work: str, busy: str) -> float:
        return _share(total_of(rows, work), total_of(rows, busy))

    metrics = {
        "embed.busy_s": median_of(rows, "embed.busy_s"),
        "embed.pairs": mean_of(rows, "embed.pairs"),
        "embed.pairs_per_s": rate("embed.pairs", "embed.kernel_s"),
        "embed.tokens_per_s": rate("embed.tokens", "embed.train_s"),
        "embed.kernel_calls": mean_of(rows, "embed.kernel_calls"),
        "embed.save_s": median_of(rows, "embed.save_s"),
        "embed.vocab": mean_of(rows, "embed.vocab"),
        "cluster.kmeans_s": median_of(rows, "cluster.kmeans_s"),
        "cluster.kmeans_iters": mean_of(rows, "cluster.kmeans_iters"),
        "cluster.distance_evals": mean_of(rows, "cluster.distance_evals"),
        "cluster.rows_per_s": rate("cluster.assign_rows", "cluster.assign_s"),
        "cluster.pca_s": median_of(rows, "cluster.pca_s"),
        "cluster.save_s": median_of(rows, "cluster.save_s"),
        "cluster.load_s": median_of(rows, "cluster.load_s"),
        "cluster.predict_s": median_of(rows, "cluster.predict_s"),
        "preprocess.busy_s": median_of(rows, "preprocess.busy_s"),
        "preprocess.bytes_per_s": rate("preprocess.bytes", "preprocess.busy_s"),
        "detect.busy_s": median_of(rows, "detect.busy_s"),
        "detect.flagged": mean_of(rows, "detect.flagged"),
        "vectorize.load_s": median_of(rows, "vectorize.load_s"),
        "vectorize.busy_s": median_of(rows, "vectorize.busy_s"),
        "vectorize.keywords": mean_of(rows, "vectorize.keywords"),
        "vectorize.zero_docs": mean_of(rows, "vectorize.zero_docs"),
        "ingest.dataset_load_s": median_of(rows, "ingest.dataset_load_s"),
    }
    for layer in LAYERS + (BENCH,):
        metrics[f"{layer}.self_s"] = median_of(rows, f"{layer}.self_s")
    def layers_self(row: dict) -> float:
        return sum(row.get(f"{layer}.self_s", 0.0) for layer in LAYERS)

    # (untraced, traced, summed layer self time) per traced attempt and its
    # untraced twin.
    times, paired = run["times"], []
    for op, row in by_op.items():
        if op in times and op ^ 1 in times:
            paired.append((times[op ^ 1], times[op], layers_self(row)))
    paired = paired or [(0.0, 0.0, 0.0)]
    layer_self = statistics.median(layers_self(row) for row in rows)
    untraced_op = statistics.median(run["latencies"] or [0.0])
    traced_op = statistics.median(run["traced"] or [0.0])
    metrics.update({
        "trace.op_s": traced_op,
        "trace.untraced_op_s": untraced_op,
        "trace.overhead_s": statistics.median(t - u for u, t, _ in paired),
        "trace.residual": statistics.median(_share(u - own, u) for u, _, own in paired),
        "trace.spans": mean_of(rows, "spans"),
    })
    table = [f"{'layer':<12}{'self ms/op':>14}{'share':>9}{'busy ms/op':>14}{'share':>9}"]
    for layer in LAYERS + (BENCH,):
        own, busy = metrics[f"{layer}.self_s"], median_of(rows, f"{layer}.busy_s")
        table.append(f"{layer:<12}{1e3 * own:>14.3f}{_share(own, traced_op):>9.1%}"
                     f"{1e3 * busy:>14.3f}{_share(busy, traced_op):>9.1%}")
    table.append(f"{'sum layers':<12}{1e3 * layer_self:>14.3f}  vs untraced op "
                 f"{1e3 * untraced_op:.3f} ms: paired residual "
                 f"{metrics['trace.residual']:+.1%} (stated bound {RESIDUAL_BOUND:.0%})")
    embed_share = statistics.median(
        _share(row.get("embed.busy_s", 0.0), row.get(f"{BENCH}_s", 0.0)) for row in rows)
    table.append(f"{'embed busy':<12}{1e3 * metrics['embed.busy_s']:>14.3f}  of traced op: "
                 f"{embed_share:.1%}; tracing overhead "
                 f"{1e3 * metrics['trace.overhead_s']:+.3f} ms/op "
                 f"({_share(metrics['trace.overhead_s'], untraced_op):+.1%})")
    return metrics, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench-work"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workdir = Path(args.workdir) / args.workload
    env = environment()

    setup_times, setup_refs, infos = [], [reference()], []
    setup_end = time.perf_counter() + SETUP_SECONDS
    while len(setup_times) < MIN_SETUPS or time.perf_counter() < setup_end:
        shutil.rmtree(workdir, ignore_errors=True)
        bench = workloads.make(args.workload, workdir)
        start = time.perf_counter()
        infos.append(bench.setup(random.Random(f"{args.seed}:{args.workload}")))
        setup_times.append(time.perf_counter() - start)
        setup_refs.append(reference())
    problems = [] if all(info == infos[0] for info in infos) else ["set-up is not deterministic"]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    run = measure(bench, args.seconds, tracer, tuple(setup_refs))
    extra_attempted, extra_failed = bench.finish()

    attempted = run["attempted"] + extra_attempted
    errors = run["errors"]
    failed = len(errors) + extra_failed
    if extra_failed:
        errors.append(f"{extra_failed} of {extra_attempted} training contracts "
                      "lost their training prediction")
    n_ops = len(run["latencies"]) + len(run["traced"])
    if args.trace:
        metrics, table = per_layer(tracer, run)
        if abs(metrics["trace.residual"]) > RESIDUAL_BOUND:
            problems.append(f"layer self times miss the untraced operation time by "
                            f"{metrics['trace.residual']:+.1%}, beyond {RESIDUAL_BOUND:.0%}")
        tracer.write(workdir / "spans.json")
        (workdir / "selftime.txt").write_text("\n".join(table) + "\n", "utf-8")
        wanted = spec["per_layer"]
    else:
        metrics, table = end_to_end(bench, run, setup_times, setup_refs,
                                    1 - failed / attempted), []
        wanted = spec["end_to_end"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(infos[-1], sort_keys=True))
    for m in wanted:
        count = len(setup_times) if m["name"] == "setup_s" else n_ops
        print(f"  {m['name']:<26}{metrics[m['name']]:>16.6g} {m['unit']:<6} n={count}")
    if not args.trace:
        raw = [("setup_wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
               ("ops_per_s", "1/s")]
        for name, unit in raw:
            count = len(setup_times) if name == "setup_wall_s" else n_ops
            print(f"  {name:<26}{metrics[name]:>16.6g} {unit:<6} n={count}")
        print(f"  {'reference_ms':<26}{metrics['reference_ms']:>16.6g} {'ms':<6} "
              f"n={len(run['refs'])}")
        for alias, (name, scale, unit) in ALIASES[args.workload].items():
            print(f"  {alias:<26}{metrics[name] * scale:>16.6g} {unit:<6} n={n_ops}")
    print(f"  {'error_rate':<26}{failed / attempted:>16.6g} {'share':<6} n={attempted}")
    for line in table:
        print("  " + line)
    for line in problems + errors[:20]:
        print("  FAIL " + line)

    (workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "inputs": infos[-1], "metrics": metrics,
        "attempted": attempted, "failed": failed, "errors": errors,
        "setup_times": setup_times, "setup_refs": setup_refs, "refs": run["refs"],
        "latencies": run["latencies"], "traced": run["traced"],
    }, indent=1, sort_keys=True), "utf-8")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    # String hashing is salted per process, and the salt alone moved scan
    # times by a tenth between runs; a fixed salt takes that noise out.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
