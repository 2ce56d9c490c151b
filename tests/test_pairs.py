"""tools/pairs.py's statistics on fixed numbers; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

PAIRS_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("govlab_tools_pairs", PAIRS_PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_interpolate_between_the_values():
    assert pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_lower_median_beyond_the_parents_spread_is_resolved():
    parent = [0.130, 0.134, 0.131, 0.133, 0.132, 0.135, 0.129, 0.131, 0.134, 0.132]
    change = [0.120, 0.121, 0.119, 0.122, 0.118, 0.120, 0.131, 0.121, 0.119, 0.120]
    summary = pairs.summarize(parent, change, "lower")
    assert summary["parent"] == pytest.approx((0.131, 0.132, 0.13375))
    assert summary["change"] == pytest.approx((0.11925, 0.120, 0.121))
    assert summary["won"] == 9 and summary["pairs"] == 10  # pair 7: 0.131 against 0.129
    assert summary["delta"] == pytest.approx(-0.012 / 0.132)
    assert summary["resolved"]


def test_eight_wins_in_ten_or_a_gain_inside_the_spread_is_not_resolved():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    inside = [p - 0.5 for p in parent]  # won every pair, but 0.5 is less than the quartile distance 2
    summary = pairs.summarize(parent, inside, "lower")
    assert summary["won"] == 10 and not summary["resolved"]
    eight = [0.1] * 8 + [9.0, 9.0]
    summary = pairs.summarize(parent, eight, "lower")
    assert summary["won"] == 8 and not summary["resolved"]


def test_a_higher_is_better_metric_counts_gains_upwards():
    parent = [0.5, 0.5, 0.5, 0.5]
    change = [0.9, 0.9, 0.9, 0.4]
    summary = pairs.summarize(parent, change, "higher")
    assert summary["won"] == 3
    assert summary["delta"] == pytest.approx(0.8)
    assert pairs.summarize(parent, change, "lower")["won"] == 1


def test_ties_are_not_wins_and_the_line_shows_every_figure():
    summary = pairs.summarize([2.0, 2.0], [2.0, 1.0], "lower")
    assert summary["won"] == 1
    text = pairs.line("run_s", "s", summary)
    assert text.startswith("run_s ")
    assert "parent 2.0000 [2.0000, 2.0000]" in text and "change 1.5000 [1.2500, 1.7500]" in text
    assert "-25.0 %" in text and "won 1/2" in text and "resolved" not in text
