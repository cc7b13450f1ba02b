"""Tests for the scripts under tools/."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from polyadjoint.norms import NormEstimate


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs, numeric_bits = _tool("bench_pairs"), _tool("numeric_bits")


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


@pytest.mark.parametrize("failed, attempted, shares, more", [
    ({"parent": 0, "change": 0}, {"parent": 40, "change": 50}, (0.0, 0.0), False),
    ({"parent": 1, "change": 1}, {"parent": 40, "change": 50}, (0.025, 0.02), False),
    # more operations attempted can hide one more failure: the share decides
    ({"parent": 1, "change": 2}, {"parent": 40, "change": 100}, (0.025, 0.02), False),
    ({"parent": 1, "change": 2}, {"parent": 40, "change": 50}, (0.025, 0.04), True),
    ({"parent": 0, "change": 1}, {"parent": 0, "change": 50}, (None, 0.02), True),
    ({"parent": 0, "change": 0}, {"parent": 50, "change": 0}, (0.0, None), False),
], ids=["none", "fewer", "more-failed-smaller-share", "larger-share", "parent-idle",
        "change-idle"])
def test_a_larger_failure_share_is_flagged(failed, attempted, shares, more):
    got = bench_pairs.failure_shares(failed, attempted)
    assert got == {"failure_share": dict(zip(bench_pairs.SIDES, shares)),
                   "more_failures": more}


def test_the_estimates_digest_sees_every_bit_and_the_order():
    a = NormEstimate(1.5, (0.6, -0.8), True, 0, "circle-critical-points")
    b = NormEstimate(2.0, (1.0, 0.0), True, 12, "sobol+gradient-ascent")
    c = NormEstimate(0.25, (0.0, 1.0), True, 0, "closed-form", upper=0.25 * (1 + 2 ** -40))
    digest = numeric_bits.estimates_digest
    assert digest([a, b, c]) == digest([a, b, c]) != digest([b, a, c])
    assert digest([]) != digest([a])
    # a sign of zero, one ulp, the upper bound, the method and the count each show
    changed = [NormEstimate(1.5, (0.6, -0.8), True, 0, "circle-critical-points", upper=1.5),
               NormEstimate(1.5, (0.6, -0.8), True, 1, "circle-critical-points"),
               NormEstimate(1.5, (0.6, -0.8), True, 0, "closed-form"),
               NormEstimate(1.5, (0.6, float.fromhex("-0x1.999999999999bp-1")), True, 0,
                            "circle-critical-points")]
    assert len({digest([e]) for e in [a, *changed]}) == 5
    zeros = [NormEstimate(0.0, (1.0, 0.0), True, 0, "closed-form", upper=0.0),
             NormEstimate(0.0, (1.0, -0.0), True, 0, "closed-form", upper=0.0),
             NormEstimate(-0.0, (1.0, 0.0), True, 0, "closed-form", upper=0.0),
             NormEstimate(0.0, (1.0, 0.0), True, 0, "closed-form", upper=-0.0)]
    assert len({digest([e]) for e in zeros}) == 4
