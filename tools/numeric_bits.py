"""Whether two revisions give every sup-norm estimate of the f64 suite the same bits.

    python3 tools/numeric_bits.py PARENT CHANGE --seed 5 --seed 1729

PARENT and CHANGE name git revisions; each is unpacked with `git archive`
(`bench_pairs.unpack`).  In each tree a fresh interpreter runs
`polyadjoint verify --field f64` at every seed (default 5, 1729, 20260815
and 7, in that order), with `sup_norms` wrapped in every module that binds
it, so every estimate of the pass is seen, those of `sup_norm` included.
Printed as JSON, per side: the count of estimates, one sha256 over all of
them in order (`estimates_digest`) and one sha256 over the report bytes
of every seed in order; then whether the two sides are equal.  The exit
code is 1 when they are not.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable

SEEDS = (5, 1729, 20260815, 7)
# run in a tree: this file's `measure` on the seeds, against that tree's package
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['measure'](sys.argv[2:])"


def estimates_digest(estimates: Iterable) -> str:
    """sha256 over the estimates in order: of each, the value, the
    maximizer and ``upper`` by float.hex (so -0.0 is not 0.0), the method
    and the iteration count, one line per estimate."""
    h = hashlib.sha256()
    for est in estimates:
        upper = "None" if est.upper is None else float.hex(est.upper)
        h.update(" ".join([float.hex(est.value), *map(float.hex, est.maximizer), upper,
                           est.method, str(est.iterations)]).encode() + b"\n")
    return h.hexdigest()


def measure(seeds: list[str]) -> None:
    """Run in a tree's interpreter: verify --field f64 at each seed and
    print the count and digest of the estimates and the reports' digest."""
    from polyadjoint import cli, norms
    if not Path(norms.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"imported {norms.__file__}, not the tree's package")
    real, seen = norms.sup_norms, []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.extend(out)
        return out
    for name, module in list(sys.modules.items()):
        if name.startswith("polyadjoint") and getattr(module, "sup_norms", None) is real:
            module.sup_norms = recorded
    reports = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for seed in seeds:
            cli.main(["verify", "--seed", seed, "--field", "f64", "--out", out])
            reports.update(Path(out).read_bytes())
    print(json.dumps({"estimates": len(seen), "estimates_sha256": estimates_digest(seen),
                      "report_sha256": reports.hexdigest()}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("change", help="git revision of the change")
    p.add_argument("--seed", type=int, action="append",
                   help="a seed of the f64 suite (repeatable; default 5, 1729, 20260815, 7)")
    args = p.parse_args(argv)
    # the script's own directory is on sys.path when it is run
    from bench_pairs import unpack
    seeds = [str(s) for s in args.seed or SEEDS]
    work, sides = Path(tempfile.mkdtemp(prefix="numeric-bits-")), {}
    try:
        for side in ("parent", "change"):
            tree = work / side
            sides[side] = {"revision": getattr(args, side), "tree": unpack(getattr(args, side), tree)}
            env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
            proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).resolve()),
                                   *seeds], cwd=tree, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{side}: the f64 suite exited {proc.returncode}\n{proc.stderr}")
            sides[side].update(json.loads(proc.stdout.strip().splitlines()[-1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    keys = ("estimates", "estimates_sha256", "report_sha256")
    equal = all(sides["parent"][k] == sides["change"][k] for k in keys)
    print(json.dumps({"seeds": [int(s) for s in seeds], **sides, "equal": equal}, indent=1))
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
