"""Tests for the scripts under tools/."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_pair_summary_counts_wins_by_the_metric_direction():
    # pair 2 ties and counts for neither side
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    lower = bench_pairs.summarize(parent, change, "lower")
    assert lower["parent_median"] == 2.5 and lower["change_median"] == 2.5
    assert lower["parent_quartiles"] == [1.75, 2.5, 3.25]
    assert lower["parent_quartile_spread"] == 1.5
    assert lower["change_better_in"] == "2 of 4" and lower["ratio"] == 1.0
    assert lower["parent_runs"] == parent and lower["change_runs"] == change
    higher = bench_pairs.summarize(parent, change, "higher")
    assert higher["change_better_in"] == "1 of 4"
    one = bench_pairs.summarize([2.0], [1.0], "lower")
    assert one["parent_quartiles"] == [2.0, 2.0, 2.0] and one["median_gap"] == 1.0


def test_pairs_must_be_at_least_one():
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["HEAD", "HEAD", "--pairs", "0"])
