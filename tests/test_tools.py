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
    lower = bench_pairs.summarize(parent, change, "lower", 0.5)
    assert lower["parent_median"] == 2.5 and lower["change_median"] == 2.5
    assert lower["parent_quartiles"] == [1.75, 2.5, 3.25]
    assert lower["parent_quartile_spread"] == 1.5
    assert lower["change_better_in"] == "2 of 4" and lower["ratio"] == 1.0
    assert lower["parent_runs"] == parent and lower["change_runs"] == change
    higher = bench_pairs.summarize(parent, change, "higher", 0.5)
    assert higher["change_better_in"] == "1 of 4"
    one = bench_pairs.summarize([2.0], [1.0], "lower", 0.1)
    assert one["parent_quartiles"] == [2.0, 2.0, 2.0] and one["median_gap"] == 1.0


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, better, bound, want", [
    # a tenth lower in every pair, far past the parent's 0.035 quartile spread
    ([x * 0.9 for x in PARENT], "lower", 0.15, "better"),
    ([x * 0.9 for x in PARENT], "higher", 0.15, "within bound"),
    ([x * 0.9 for x in PARENT], "higher", 0.05, "worse"),
    # lower in 8 of 10 pairs only: not a gain, but no regression
    ([x * 0.9 for x in PARENT[:8]] + PARENT[8:], "lower", 0.15, "within bound"),
    ([x * 1.1 for x in PARENT], "lower", 0.15, "within bound"),
    # the parent's 0.035 spread exceeds a 1% bound: a reading within the
    # bound shows nothing, unless every change run beats every parent run,
    # here by less than the spread, so it is no gain either
    ([x * 1.005 for x in PARENT], "lower", 0.01, "unresolved"),
    ([x * 0.995 for x in PARENT], "lower", 0.01, "unresolved"),
    ([0.969] * 10, "lower", 0.01, "within bound"),
    ([x * 1.1 for x in PARENT], "lower", 0.01, "worse"),
], ids=["better", "within", "worse", "eight-of-ten", "slower-within-bound", "unresolved",
        "unresolved-lower", "all-runs-better", "worse-past-spread"])
def test_each_metric_gets_a_verdict_by_its_bound(change, better, bound, want):
    summary = bench_pairs.summarize(PARENT, change, better, bound)
    assert summary["verdict"] == want


def test_pairs_must_be_at_least_one():
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["HEAD", "HEAD", "--pairs", "0"])
