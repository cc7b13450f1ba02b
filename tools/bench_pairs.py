"""Alternating pairs of benchmark runs of two revisions, summarized as JSON.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 20 --seed 36001 \
        --out pairs.json

PARENT and CHANGE name git revisions (a commit, a tag or a tree).  Each is
unpacked with `git archive` into one of two sibling directories, `parent` and
`change`, whose names have equal length, because where a tree is unpacked and
under which name moves `pass_s` and peak RSS.  Pair i runs
`perfbench/run.py --trace 0` once in each tree on seed SEED + i, the parent
first in even pairs and the change first in odd ones, one run at a time, with
PYTHONDONTWRITEBYTECODE=1 on both sides.  The JSON written holds, per workload
and per end-to-end metric of the change's BENCHMARK.json, every run, each
side's median and quartiles (statistics.quantiles, n=4, inclusive), the
ratio of the medians, the pairs the change won (ties count for neither side),
the parent's quartile spread, the gap between the medians and a verdict
against the metric's bound (`summarize`), and per workload each side's
share of failed operations and whether the change's is larger
(`failure_shares`): the record a `BENCH_*.json` cites.  The exit code is 1
when a run's outputs were not all correct.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-verify", "numeric-verify", "cli-requests")
SIDES = ("parent", "change")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="a workload to run (repeatable; default all three)")
    p.add_argument("--tiny", action="store_true", help="pass --tiny to perfbench/run.py")
    p.add_argument("--out", type=Path, help="write the JSON here instead of standard output")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def unpack(revision: str, dest: Path) -> str:
    """Unpack ``revision`` of this repository into the new directory dest;
    returns the id of its tree."""
    tree = subprocess.run(["git", "-C", str(REPO), "rev-parse", f"{revision}^{{tree}}"],
                          capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", tree],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {revision} failed")
    return tree


def run_once(tree: Path, workload: str, seed: int, args: argparse.Namespace) -> dict:
    """One benchmark run in ``tree``: its result line, plus its environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{tree.name}: {' '.join(argv)} exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    header = next((line for line in lines if line.startswith("workload ")), "")
    result["env"] = json.loads(header.split(" env ", 1)[1]) if " env " in header else {}
    return result


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over pairs: parent[i] and change[i] are
    the runs of pair i, ``better`` is "lower" or "higher" and ``bound`` the
    fraction of the parent's median by which the change may read worse (the
    metric's bound in BENCHMARK.json).  The verdict is

    * "worse" when the change's median is worse by more than the bound;
    * "better" when the change wins at least nine tenths of the pairs (ties
      count for neither side) and its median is better by more than the
      parent's quartile spread;
    * "unresolved" when that spread exceeds the bound and not every change
      run is better than every parent run, so a reading within the bound
      does not show that nothing changed;
    * "within bound" otherwise."""
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    spread, gap, limit = pq[2] - pq[0], sign * (pm - cm), bound * abs(pm)
    if gap < -limit:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and gap > spread:
        verdict = "better"
    elif spread > limit and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_median": pm, "parent_quartiles": pq,
            "change_median": cm, "change_quartiles": quartiles(change),
            "ratio": cm / pm if pm else None,
            "change_better_in": f"{wins} of {len(parent)}",
            "parent_quartile_spread": spread, "median_gap": gap, "verdict": verdict,
            "parent_runs": parent, "change_runs": change}


def failure_shares(failed: dict[str, int], attempted: dict[str, int]) -> dict:
    """Each side's share of failed operations (None when it attempted
    none) and ``more_failures``, whether the change's share is larger than
    the parent's: a larger share fails a change whatever its metrics read."""
    share = {side: failed[side] / attempted[side] if attempted[side] else None
             for side in SIDES}
    return {"failure_share": share,
            "more_failures": (share["change"] or 0.0) > (share["parent"] or 0.0)}


def compare(args: argparse.Namespace, trees: dict[str, Path], spec: dict) -> tuple[dict, dict]:
    """Every workload's pairs and summary, and the environment of a run."""
    out, env = {}, {}
    for workload in args.workload or WORKLOADS:
        runs = {side: [] for side in SIDES}
        seeds = [args.seed + i for i in range(args.pairs)]
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(trees[side], workload, seed, args))
                env = env or runs[side][-1]["env"]
        failed, attempted = ({side: sum(r[key] for r in runs[side]) for side in SIDES}
                             for key in ("failed", "attempted"))
        out[workload] = {
            "pairs": args.pairs, "seeds": seeds,
            "first": [SIDES[i % 2] for i in range(args.pairs)],
            "failed": failed, "attempted": attempted, **failure_shares(failed, attempted),
            "correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "summary": {m["name"]: summarize(
                *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES),
                m["better"], m["bound"]) for m in spec["end_to_end"]}}
    return out, env


def main(argv=None) -> int:
    args = parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: work / side for side in SIDES}
        ids = {side: unpack(getattr(args, side), trees[side]) for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads, env = compare(args, trees, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"parent": args.parent, "change": args.change,
              "parent_tree": ids["parent"], "change_tree": ids["change"],
              "method": (f"perfbench/run.py --seconds {args.seconds:g} --trace 0"
                         + (" --tiny" if args.tiny else "")
                         + f", {args.pairs} alternating pairs per workload from two "
                         "`git archive` trees in sibling directories `parent` and `change`, "
                         "seed of pair i = first seed + i, PYTHONDONTWRITEBYTECODE=1"),
              "environment": env, "workloads": workloads}
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
