"""Alternating benchmark pairs of two source trees, summarized by the claim rule.

Usage::

    python tools/pairs.py PARENT CHANGE --workload W --pairs 10 --seconds 25 \\
        --first-seed S [--claim METRIC]

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T --trace 0``
in each tree, with that tree as the working directory, so each side builds and
times its own ``src/``. The parent runs first in even pairs and the change in
odd ones. Each run's last line of standard output is its JSON result.

The tool prints every pair: each side's ``correct``, ``attempted`` and
``failed`` counts and its end-to-end metrics. Then, for each end-to-end metric
in the parent's ``BENCHMARK.json`` (read, never written), it prints each side's
median and quartiles, the pairs the change wins by the metric's ``better``
(ties count for neither side), and whether the change's median is worse than
the parent's by more than the metric's relative ``bound``. Beside
``peak_rss_mb`` it prints each side's median ``attempted``: on ``scan`` that
metric follows how many operations a run attempts.

With ``--claim METRIC`` it also says whether the claim rule holds: the change
wins at least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.

Exit status: 0 when every run is correct, no metric is worse by more than its
bound and the claim, if any, holds; 1 otherwise. Standard library only; it is
not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` result of ``tree``: its last line of output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, relative to ``parent``; below 0 is better."""
    gap = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if gap == 0 else gap * float("inf")
    return gap / abs(parent)


def pair_lines(index: int, seed: int, parent: dict, change: dict) -> list[str]:
    lines = [f"pair {index + 1} seed {seed} ({'change' if index % 2 else 'parent'} first)"]
    for side, result in (("parent", parent), ("change", change)):
        values = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
        lines.append(f"  {side} correct={result['correct']} attempted={result['attempted']} "
                     f"failed={result['failed']} {values}")
    return lines


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]],
              claim: str | None = None) -> tuple[list[str], bool]:
    """The summary lines of ``pairs`` of (parent, change) results, and whether
    every run is correct, no metric is beyond its bound and ``claim`` holds."""
    ok = all(result["correct"] for pair in pairs for result in pair)
    lines = [f"{len(pairs)} pairs; every run correct: {ok}"]
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        sides = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = map(quartiles, sides)
        wins = sum(worse_by(p, c, better) < 0 for p, c in zip(*sides))
        ties = sum(p == c for p, c in zip(*sides))
        change = worse_by(p_med, c_med, better)
        beyond = change > bound
        ok &= not beyond
        line = (f"{name} ({metric['unit']}, {better} is better): "
                f"parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}], "
                f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}], {change:+.1%} worse; "
                f"change wins {wins} of {len(pairs)} (ties {ties}); "
                f"{'BEYOND' if beyond else 'within'} bound {bound:.0%}")
        if name == "peak_rss_mb":
            attempted = [statistics.median(r["attempted"] for r in side) for side in zip(*pairs)]
            line += f"; attempted median parent {attempted[0]:.0f}, change {attempted[1]:.0f}"
        lines.append(line)
        if name == claim:
            needed = -(-9 * len(pairs) // 10)
            gap = p_med - c_med if better == "lower" else c_med - p_med
            holds = wins >= needed and gap > p_q3 - p_q1
            ok &= holds
            lines.append(f"claim {name}: {'holds' if holds else 'does not hold'}: "
                         f"change wins {wins} of {len(pairs)}, needs {needed}; "
                         f"median gain {gap:.6g} against the parent's interquartile "
                         f"distance {p_q3 - p_q1:.6g}")
    if claim is not None and claim not in (m["name"] for m in end_to_end):
        lines.append(f"claim {claim}: not an end-to-end metric")
        ok = False
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text("utf-8"))
    pairs = []
    for index in range(args.pairs):
        seed = args.first_seed + index
        first, second = (args.change, args.parent) if index % 2 else (args.parent, args.change)
        results = [run(tree, args.workload, seed, args.seconds) for tree in (first, second)]
        pairs.append(tuple(results[::-1]) if index % 2 else tuple(results))
        print("\n".join(pair_lines(index, seed, *pairs[-1])), flush=True)
    lines, ok = summarize(spec["end_to_end"], pairs, args.claim)
    print(f"workload {args.workload}, {args.seconds:g} s per run")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
