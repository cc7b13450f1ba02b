"""Benchmark entry point.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, measured in a separate traced pass.  The lines before it name the
workload's own metrics, the error rate and the environment; a sidecar in
.perfbench_out/ keeps every sample and the full trace.  The exit code is 0
when every output was correct, 1 when one was not and 2 when the program
cannot be found.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-verify", "numeric-verify", "cli-requests")
SETUP_PROBES = 3
IMPORT_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import polyadjoint from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(ROOT), str(src)]
    try:
        import polyadjoint
    except ImportError as exc:
        print(f"error: cannot import polyadjoint from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(polyadjoint.__file__).resolve().parent != (src / "polyadjoint").resolve():
        print(f"error: polyadjoint was imported from {polyadjoint.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return polyadjoint


def set_up(args: argparse.Namespace):
    """Everything a run does before its timed region: import the program
    and build the workload's inputs."""
    import_program()
    from perfbench import workloads
    if args.workload == "cli-requests":
        import polyadjoint.cli  # noqa: F401
        return workloads.round_requests(args.seed, 0, args.tiny)
    return workloads.suite_config(args.workload, args.seed, args.tiny)


def fresh_processes(argv: list[str], n: int) -> list[subprocess.CompletedProcess]:
    """Run argv n times as fresh processes, one after the other."""
    from perfbench.workloads import program_env
    out = []
    for _ in range(n):
        proc = subprocess.run(argv, cwd=ROOT, env=program_env(ROOT),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
        out.append(proc)
    return out


def setup_probe(args: argparse.Namespace) -> None:
    """Set up under a speed probe and print the probe's readings of the
    set-up, from which the parent takes the set-up time."""
    sys.path.insert(0, str(ROOT))
    from perfbench import speed
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        set_up(args)
        t1 = time.perf_counter()
    print(json.dumps({"stretches": probe.stretches(t0, t1), "loops": probe.loop_times()}))


def import_times(n: int) -> dict:
    """cli.import_s and cli.import_scipy_stats_s from `-X importtime`."""
    runs = fresh_processes([sys.executable, "-X", "importtime", "-c", "import polyadjoint.cli"], n)
    total, scipy_stats = [], []
    for run in runs:
        top = stats = 0
        for line in run.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2]
            if name.startswith(" polyadjoint"):  # top level: no nesting indent
                top += cumulative
            if name.strip() == "scipy.stats":
                stats = max(stats, cumulative)
        total.append(top / 1e6)
        scipy_stats.append(stats / 1e6)
    return {"cli.import_s": statistics.median(total),
            "cli.import_scipy_stats_s": statistics.median(scipy_stats)}


def fingerprint() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, where it can be asked."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def layer_metric(name: str, trace: dict, imports: dict) -> float:
    """Value of one per-layer metric, per traced pass where it is a total."""
    stats, passes = trace["stats"], trace["passes"]
    spans, counters, maxima = stats["spans"], stats["counters"], stats["maxima"]

    def share(prefix):
        return sum(s["self_s"] for k, s in spans.items() if k.startswith(prefix)) \
            / trace["traced_wall_s"]

    if name in imports:
        return imports[name]
    if name == "trace.overhead_ratio":
        return trace["overhead_ratio"]
    if name == "trace.wall_s":
        return trace["traced_wall_s"] / passes
    if name == "trace.algebra_self_share":
        return share("algebra.")
    if name == "trace.sup_norm_self_share":
        return share("norms.sup_norm.")
    if name in ("algebra.max_coeff_bits", "adjoint.max_space"):
        return maxima.get(name, 0)
    if name == "norms.sobol_points":
        calls = sum(spans.get(f"norms.sup_norm.{d}", {}).get("calls", 0) for d in ("d2", "d3plus"))
        return counters.get("norms.sobol_points_total", 0) / calls if calls else 0
    if name.startswith("suites.claim."):
        return spans.get(name.removesuffix("_s"), {}).get("total_s", 0.0) / passes
    if name.startswith("norms.method.") or name == "norms.ascent_iterations":
        return counters.get(name, 0) / passes
    span, _, kind = name.rpartition(".")
    if kind in ("calls", "self_s"):
        return spans.get(span, {}).get(kind, 0) / passes
    raise KeyError(f"no rule for per-layer metric {name!r}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    set_up(args)
    from perfbench import speed, workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    oracle = json.loads((ROOT / "perfbench" / "oracle.json").read_text())

    probe_argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                  "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    setup_runs = [json.loads(p.stdout.splitlines()[-1])
                  for p in fresh_processes(probe_argv, 1 if args.tiny else SETUP_PROBES)]

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.seed, args.seconds, bool(args.trace), args.tiny, ROOT, workdir)
    try:
        if args.workload == "cli-requests":
            result = workloads.cli_workload(ctx)
        else:
            result = workloads.suite_workload(ctx, args.workload, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = [speed.steady_time(r["stretches"]) for r in setup_runs]
    setup_wall = [sum(overlap for overlap, _ in r["stretches"]) for r in setup_runs]
    result.setdefault("summary", {})["setup_wall_s"] = (
        statistics.median(setup_wall), "s", f"median of {len(setup_wall)}, as timed")
    samples = {"setup_s": f"median of {len(setup)}, at the reference speed"}
    if args.trace:
        imports = import_times(1 if args.tiny else IMPORT_PROBES)
        metrics = {m["name"]: {"value": layer_metric(m["name"], result["trace"], imports),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        measured = {"setup_s": statistics.median(setup),
                    "pass_s": statistics.median(result["steady_pass_s"]),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        samples["pass_s"] = (f"median of {len(result['steady_pass_s'])} passes, "
                             "at the reference speed")

    tally = ctx.tally
    env = fingerprint()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  env {json.dumps(env)}")
    for name, (value, unit, note) in result.get("summary", {}).items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + (f"  ({samples[name]})" if name in samples else ""))
    print(f"error_rate = {len(tally.failures) / tally.attempted:.6g}  "
          f"({len(tally.failures)} failed of {tally.attempted} operations)")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")

    sidecar = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "tiny": args.tiny, "env": env,
               "setup_s_samples": setup, "setup_wall_s_samples": setup_wall, "samples": samples,
               "summary": result.get("summary", {}), "metrics": metrics,
               "attempted": tally.attempted, "failures": tally.failures,
               **{k: result[k] for k in ("pass_s", "steady_pass_s", "reference_loop_s",
                                 "requests", "report_sha256", "trace")
                  if k in result}}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(sidecar, indent=1, default=str))

    correct = not tally.failures
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
