import json
import random

import numpy as np
import pytest

from ethcluster.errors import AlignmentError, EmptyEvaluation, InvalidInput
from ethcluster.evaluate import (
    ConfusionMatrix,
    confusion,
    metrics,
    project2d,
    render_table,
    write_points_csv,
    write_report,
)
from ethcluster.ingest import CLEAN, VULNERABLE

# Reference per-vulnerability confusion counts and the metric percentages
# they must reproduce at 2-decimal half-up rounding.
REFERENCE_ROWS = {
    "reentrancy": ((81, 7, 0, 182), (97.41, 92.05, 100.0, 95.86)),
    "access_control": ((18, 0, 8, 34), (86.67, 100.0, 69.23, 81.82)),
    "timestamp": ((49, 2, 6, 127), (95.65, 96.08, 89.09, 92.45)),
    "tx_origin": ((50, 0, 0, 117), (100.0, 100.0, 100.0, 100.0)),
    "unchecked_call": ((52, 8, 0, 114), (95.4, 86.67, 100.0, 92.86)),
}


def labels_for_counts(tp, fp, fn, tn):
    predicted = ([VULNERABLE] * tp + [VULNERABLE] * fp
                 + [CLEAN] * fn + [CLEAN] * tn)
    truth = ([VULNERABLE] * tp + [CLEAN] * fp
             + [VULNERABLE] * fn + [CLEAN] * tn)
    return predicted, truth


class TestConfusion:
    def test_perfect_prediction(self):
        labels = [VULNERABLE, CLEAN] * 5
        cm = confusion(labels, labels)
        assert cm.fp == 0 and cm.fn == 0
        assert cm.tp == 5 and cm.tn == 5

    def test_all_wrong_positive(self):
        cm = confusion([VULNERABLE] * 5, [CLEAN] * 5)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 5, 0, 0)

    def test_reentrancy_row_counts(self):
        predicted, truth = labels_for_counts(81, 7, 0, 182)
        cm = confusion(predicted, truth)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (81, 7, 0, 182)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            confusion([VULNERABLE], [VULNERABLE, CLEAN])

    def test_unknown_label(self):
        with pytest.raises(InvalidInput):
            confusion(["bad"], [CLEAN])

    def test_permutation_invariance(self):
        predicted, truth = labels_for_counts(11, 4, 3, 23)
        pairs = list(zip(predicted, truth))
        rng = random.Random(17)
        for _ in range(5):
            rng.shuffle(pairs)
            shuffled = confusion([p for p, _ in pairs], [t for _, t in pairs])
            assert shuffled == ConfusionMatrix(11, 4, 3, 23)

    def test_total_partition(self):
        predicted, truth = labels_for_counts(3, 2, 4, 6)
        assert confusion(predicted, truth).total == len(predicted)


class TestMetrics:
    @pytest.mark.parametrize("kind", sorted(REFERENCE_ROWS))
    def test_reference_rows_reproduce(self, kind):
        (tp, fp, fn, tn), (acc, p, r, f) = REFERENCE_ROWS[kind]
        rounded = metrics(ConfusionMatrix(tp, fp, fn, tn)).rounded()
        assert rounded["accuracy"] == acc
        assert rounded["precision"] == p
        assert rounded["recall"] == r
        assert rounded["f_measure"] == f

    def test_zero_denominators_undefined(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
        assert report.accuracy == 100.0
        assert report.precision is None
        assert report.recall is None
        assert report.f_measure is None
        rounded = report.rounded()
        assert rounded["precision"] is None and rounded["f_measure"] is None

    def test_empty_matrix(self):
        with pytest.raises(EmptyEvaluation):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_f_is_harmonic_mean(self):
        rng = random.Random(23)
        for _ in range(200):
            tp = rng.randint(1, 60)
            fp = rng.randint(0, 60)
            fn = rng.randint(0, 60)
            tn = rng.randint(0, 60)
            report = metrics(ConfusionMatrix(tp, fp, fn, tn))
            p, r = report.precision, report.recall
            harmonic = 2 * p * r / (p + r)
            assert abs(report.f_measure - harmonic) < 1e-9

    def test_range(self):
        rng = random.Random(29)
        for _ in range(100):
            cm = ConfusionMatrix(rng.randint(0, 9), rng.randint(0, 9),
                                 rng.randint(0, 9), rng.randint(1, 9))
            report = metrics(cm)
            for value in (report.accuracy, report.precision, report.recall, report.f_measure):
                if value is not None:
                    assert 0.0 <= value <= 100.0

    def test_half_up_rounding(self):
        # 1/800 = 0.125%: an exact midpoint at 2 decimals; half-up gives
        # 0.13 where nearest-even rounding would give 0.12
        assert metrics(ConfusionMatrix(1, 799, 0, 0)).rounded()["precision"] == 0.13
        # 3/800 = 0.375% -> 0.38 (again a midpoint)
        assert metrics(ConfusionMatrix(3, 797, 0, 0)).rounded()["precision"] == 0.38
        # 43/700 = 6.142857...% -> 6.14 (ordinary truncating case)
        assert metrics(ConfusionMatrix(43, 657, 0, 0)).rounded()["precision"] == 6.14


class TestProject2d:
    def test_collinear_input_flattens(self):
        t = np.linspace(0, 5, 8)
        X = np.stack([t, 2 * t], axis=1)
        rows = project2d(X, [0] * 8, [CLEAN] * 8)
        for _, y, _, _ in rows:
            assert abs(y) < 1e-8

    def test_row_count_preserved(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((14, 5))
        rows = project2d(X, list(range(14)), [CLEAN] * 14)
        assert len(rows) == 14

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        args = (X, [0] * 10, [VULNERABLE] * 10)
        assert project2d(*args) == project2d(*args)

    def test_1d_input_zero_fills_y(self):
        X = np.array([[1.0], [2.0], [4.0]])
        rows = project2d(X, [0, 0, 1], [CLEAN, CLEAN, VULNERABLE])
        assert all(y == 0.0 for _, y, _, _ in rows)

    def test_alignment_checked(self):
        with pytest.raises(AlignmentError):
            project2d(np.zeros((3, 2)), [0], [CLEAN] * 3)

    def test_csv_format(self, tmp_path):
        rows = [(1.5, -0.25, 0, CLEAN), (2.0, 0.5, 1, VULNERABLE)]
        path = tmp_path / "points.csv"
        write_points_csv(rows, path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0] == "x,y,cluster,label"
        assert lines[1] == "1.5,-0.25,0,clean"
        assert len(lines) == 3


class TestReportFiles:
    def test_report_json_schema(self, tmp_path):
        cm = ConfusionMatrix(81, 7, 0, 182)
        path = tmp_path / "report.json"
        write_report("reentrancy", metrics(cm), {"seed": 1194}, path)
        payload = json.loads(path.read_text("utf-8"))
        assert payload["kind"] == "reentrancy"
        assert payload["confusion"] == {"tp": 81, "fp": 7, "fn": 0, "tn": 182}
        assert payload["metrics"]["accuracy"] == 97.41
        assert payload["params"] == {"seed": 1194}

    def test_render_table_contains_counts_and_metrics(self):
        cm = ConfusionMatrix(18, 0, 8, 34)
        table = render_table("access_control", metrics(cm))
        assert "access_control" in table
        for token in ("18", "34", "86.67", "100.00", "69.23", "81.82"):
            assert token in table

    def test_render_table_undefined_marker(self):
        cm = ConfusionMatrix(0, 0, 0, 4)
        assert "undef" in render_table("reentrancy", metrics(cm))
