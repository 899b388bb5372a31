"""``tools/pairs.py``'s summary on canned benchmark results.

The tool is loaded by path and only its ``summarize`` runs: no benchmark is
started.
"""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

END_TO_END = [
    {"name": "op_p50_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "f_measure", "unit": "%", "better": "higher", "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _result(op, f, rss, attempted=100, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": 0, "metrics": {
        "op_p50_ref": {"value": op, "unit": "ref"}, "f_measure": {"value": f, "unit": "%"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _pairs(changes, parents=(1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0, 1.02, 0.98)):
    return [(_result(p, 80, 50, attempted=100), _result(c, 80, 50, attempted=120))
            for p, c in zip(parents, changes)]


def _line(lines, prefix):
    [line] = [line for line in lines if line.startswith(prefix)]
    return line


def test_a_gain_in_nine_of_ten_pairs_beyond_the_spread_holds():
    lines, ok = pairs.summarize(END_TO_END, _pairs([0.8] * 9 + [1.2]), "op_p50_ref")
    assert ok
    op = _line(lines, "op_p50_ref")
    assert "parent 1 [0.985, 1.015]" in op and "change 0.8 [0.8, 0.8]" in op
    assert "-20.0% worse" in op and "change wins 9 of 10 (ties 0)" in op and "within" in op
    assert _line(lines, "claim op_p50_ref").startswith("claim op_p50_ref: holds")
    assert "change wins 0 of 10 (ties 10)" in _line(lines, "f_measure")
    assert "attempted median parent 100, change 120" in _line(lines, "peak_rss_mb")


@pytest.mark.parametrize("changes", [
    [0.8] * 8 + [1.2] * 2,   # wins 8 of 10
    [0.99] * 10,             # wins 10 of 10, within the parent's interquartile distance
], ids=["too-few-wins", "within-the-spread"])
def test_a_claim_short_of_the_rule_does_not_hold(changes):
    lines, ok = pairs.summarize(END_TO_END, _pairs(changes), "op_p50_ref")
    assert not ok
    assert "does not hold" in _line(lines, "claim op_p50_ref")


def test_a_median_worse_by_more_than_its_bound_fails():
    runs = [(parent, _result(1.3, 70, 50)) for parent, _ in _pairs([1.0] * 10)]
    lines, ok = pairs.summarize(END_TO_END, runs)
    assert not ok
    assert "BEYOND bound 25%" in _line(lines, "op_p50_ref")
    assert "+12.5% worse" in _line(lines, "f_measure") and "BEYOND" in _line(lines, "f_measure")
    assert "within" in _line(lines, "peak_rss_mb")


def test_an_incorrect_run_fails():
    runs = _pairs([1.0] * 10)
    runs[3] = (runs[3][0], _result(1.0, 80, 50, correct=False))
    lines, ok = pairs.summarize(END_TO_END, runs)
    assert not ok and lines[0] == "10 pairs; every run correct: False"
