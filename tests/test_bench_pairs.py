"""The verdict rule of tools/bench_pairs.py, on synthetic run lists."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# Ten parent runs with a tight spread: quartiles 0.99 and 1.01.
PARENT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


def test_gain_needs_nine_wins_and_a_median_gap_wider_than_the_parent_spread():
    after = [v - 0.3 for v in PARENT]
    assert verdict(PARENT, after, 0.25) == "gain"
    # Nine wins of ten still count; eight do not.
    nine = after[:9] + [PARENT[9] + 0.1]
    assert verdict(PARENT, nine, 0.25) == "gain"
    eight = after[:8] + [v + 0.1 for v in PARENT[8:]]
    assert verdict(PARENT, eight, 0.25) == "no change"


def test_ties_count_for_neither_side():
    after = list(PARENT)
    after[:8] = [v - 0.3 for v in PARENT[:8]]  # eight wins, two ties
    assert verdict(PARENT, after, 0.25) == "no change"


def test_ten_narrow_wins_are_no_gain():
    """Every pair won, but by less than the parent's interquartile range."""
    after = [v - 0.001 for v in PARENT]
    assert verdict(PARENT, after, 0.25) == "no change"


def test_regression_past_the_bound():
    assert verdict(PARENT, [v * 1.3 for v in PARENT], 0.25) == "regression"
    assert verdict(PARENT, [v * 1.2 for v in PARENT], 0.25) == "no change"


def test_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.5, 1.6]
    assert verdict(wide, [v * 1.05 for v in wide], 0.25) == "unresolved"
    assert verdict(wide, [0.45] * 10, 0.25) == "no change"


@pytest.mark.parametrize("bound", [0.1, 0.25])
def test_identical_runs_are_no_change(bound):
    assert verdict(PARENT, list(PARENT), bound) == "no change"
