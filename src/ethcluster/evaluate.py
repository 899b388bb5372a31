"""Confusion matrices, detection metrics, and 2D projection export.

Metrics are kept at full precision internally (the F-measure is exactly the
harmonic mean of precision and recall); rendered reports round half-up to two
decimals. Zero-denominator metrics stay undefined (None) instead of being
coerced to 0 or 100, so aggregate reports cannot silently absorb them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Sequence

import numpy as np

from ._artifact import write_json, write_text
from .cluster import pca_fit, pca_transform
from .errors import AlignmentError, EmptyEvaluation, InvalidInput
from .ingest import CLEAN, VULNERABLE


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def ratios(self) -> dict[str, tuple[int, int]]:
        """(numerator, denominator) of each metric: accuracy = (tp+tn)/total,
        precision = tp/(tp+fp), recall = tp/(tp+fn), f = 2tp/(2tp+fn+fp)."""
        return {
            "accuracy": (self.tp + self.tn, self.total),
            "precision": (self.tp, self.tp + self.fp),
            "recall": (self.tp, self.tp + self.fn),
            "f_measure": (2 * self.tp, 2 * self.tp + self.fn + self.fp),
        }


def confusion(predicted: Sequence[str], truth: Sequence[str]) -> ConfusionMatrix:
    """Count tp/fp/fn/tn over aligned label lists (vulnerable is positive)."""
    if len(predicted) != len(truth):
        raise AlignmentError(f"{len(predicted)} predictions vs {len(truth)} truth labels")
    pairs = Counter(zip(predicted, truth))  # first-seen order: the first bad pair is reported
    for pred, actual in pairs:
        if pred not in (VULNERABLE, CLEAN) or actual not in (VULNERABLE, CLEAN):
            raise InvalidInput(f"labels must be '{VULNERABLE}' or '{CLEAN}', got ({pred!r}, {actual!r})")
    return ConfusionMatrix(tp=pairs[VULNERABLE, VULNERABLE], fp=pairs[VULNERABLE, CLEAN],
                           fn=pairs[CLEAN, VULNERABLE], tn=pairs[CLEAN, CLEAN])


def _round2(numerator: int, denominator: int) -> float:
    """Percentage at exact 2-decimal half-up rounding, computed in Decimal."""
    pct = Decimal(numerator) / Decimal(denominator) * 100
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts plus the four metrics as exact percentages.

    None marks a metric whose denominator was zero. ``rounded()`` gives the
    presentation values, recomputed from the integer counts so half-up
    rounding at two decimals is exact.
    """

    cm: ConfusionMatrix
    accuracy: float | None
    precision: float | None
    recall: float | None
    f_measure: float | None

    def rounded(self) -> dict[str, float | None]:
        return {
            name: None if den == 0 else _round2(num, den)
            for name, (num, den) in self.cm.ratios().items()
        }


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """The four detection metrics of :meth:`ConfusionMatrix.ratios` from one
    confusion matrix, each as a percentage. A zero denominator leaves that
    metric undefined.
    """
    if cm.total == 0:
        raise EmptyEvaluation("confusion matrix is empty")
    return MetricsReport(cm=cm, **{
        name: None if den == 0 else 100.0 * num / den
        for name, (num, den) in cm.ratios().items()
    })


def project2d(X: np.ndarray, assignments: Sequence[int],
              labels: Sequence[str]) -> list[tuple[float, float, int, str]]:
    """(x, y, cluster, label) rows from the top-2 PCA projection of X.

    One-dimensional input gets a zero second coordinate. Intended as plotting
    input; rows stay in input order.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if len(assignments) != n or len(labels) != n:
        raise AlignmentError("assignments/labels must align with rows")
    basis = pca_fit(X, num_components=min(2, d))
    proj = pca_transform(basis, X)
    if proj.shape[1] < 2:
        proj = np.hstack([proj, np.zeros((n, 1))])
    return [
        (float(proj[i, 0]), float(proj[i, 1]), int(assignments[i]), str(labels[i]))
        for i in range(n)
    ]


def write_points_csv(rows: Sequence[tuple[float, float, int, str]], path: str | Path) -> None:
    lines = ["x,y,cluster,label"]
    lines += [f"{x!r},{y!r},{cluster},{label}" for x, y, cluster, label in rows]
    write_text("\n".join(lines) + "\n", path)


def render_table(kind: str, report: MetricsReport) -> str:
    """Plain-text aligned confusion/metrics table for one vulnerability."""
    cm, r = report.cm, report.rounded()

    def show(value: float | None) -> str:
        return "undef" if value is None else f"{value:.2f}"

    header = f"{'Vulnerability':<24}{'TP':>6}{'FP':>6}{'FN':>6}{'TN':>6}"
    counts = f"{kind:<24}{cm.tp:>6}{cm.fp:>6}{cm.fn:>6}{cm.tn:>6}"
    header2 = f"{'':<24}{'ACC':>8}{'P':>8}{'R':>8}{'F':>8}"
    values = (f"{'':<24}{show(r['accuracy']):>8}{show(r['precision']):>8}"
              f"{show(r['recall']):>8}{show(r['f_measure']):>8}")
    return "\n".join([header, counts, header2, values])


def write_report(kind: str, report: MetricsReport, params: dict, path: str | Path) -> None:
    """One JSON report per vulnerability: counts, rounded metrics, resolved params."""
    cm = report.cm
    payload = {
        "kind": kind,
        "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
        "metrics": report.rounded(),
        "params": params,
    }
    write_json(payload, path)
