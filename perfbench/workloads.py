"""The benchmark's three workloads.

exact-verify    the rational claim suite on the default grid, the work of
                `polyadjoint verify --field rational`: many tiny rational
                products, so the exact kernel (algebra, elimination,
                finite type) does the work and the norms layer does none.
numeric-verify  the float claim suite at tol 1e-6, the work of
                `polyadjoint verify --field f64`: almost all of it is
                sup_norm, mostly on the two-variable circle path.
cli-requests    a seeded stream of adjoint, decompose and sup-norm requests
                on maps larger than the suites use, served in-process
                through `polyadjoint.cli.main` (warm) and as fresh
                processes (cold): few large products with growing
                Fractions, sup_norm only on d >= 3, plus serialization and
                CLI start-up, which no suite touches.

Each workload is one client in a closed loop: it sends the next operation
after the previous one has finished.  The seed fixes every input; the
program sees only the generated inputs.  Output checks run outside the
timed regions and use `checks`, never the program's own expansion code.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from perfbench import checks, speed, tracer

# (d, e, m, n, k) of adjoint and decompose requests; each takes 0.02-1.1 s
ADJOINT_SHAPES = ((3, 3, 2, 2, 2), (4, 4, 2, 2, 2), (3, 3, 2, 3, 2), (4, 3, 2, 2, 2),
                  (3, 4, 2, 2, 2), (4, 4, 1, 3, 2), (3, 3, 2, 2, 3))
# (d, e, m) of sup-norm requests: only d >= 3, so the Sobol + ascent path
NORM_SHAPES = tuple((d, 2, m) for d in (3, 4, 5) for m in (2, 3, 4))
# numerators and denominators of the coefficients of adjoint and decompose maps
COEFF_NUMS = (1, 2, 3, 4, 5, 6, 7, 8, 9)
COEFF_DENS = (1, 1, 2, 3, 4)
COLD_REQUESTS = (("adjoint", (2, 2, 2, 2, 1)), ("decompose", (2, 2, 2, 2, 2)),
                 ("norm", (3, 2, 2)))
WARMUP_REQUESTS = (("adjoint", (2, 2, 2, 1, 1)), ("decompose", (2, 2, 2, 1, 1)),
                   ("norm", (3, 2, 2)))
MIN_WARM_REQUESTS = 100  # so that p90 has at least ten samples above it
MIN_PASSES = 2           # so that report bytes can be compared across passes
NORM_TOL = 1e-6

TINY_ADJOINT_SHAPES = ((2, 2, 2, 1, 1), (2, 3, 1, 2, 2))
TINY_NORM_SHAPES = ((3, 2, 2),)


def stream(seed: int, *labels) -> random.Random:
    digest = hashlib.sha256(":".join(map(str, (seed,) + labels)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    root: Path
    workdir: Path
    tally: Tally = field(default_factory=Tally)


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- suite workloads -----------------------------------------------------------

def suite_config(kind: str, seed: int, tiny: bool):
    from polyadjoint.suites import SuiteConfig
    field_ = "rational" if kind == "exact-verify" else "f64"
    if tiny:
        return SuiteConfig(seed=seed, dims=(2,), max_m=1, max_n=1, max_k=1,
                           max_r=1, max_s=1, trials=1, tol=NORM_TOL,
                           restarts=4, samples=256, field=field_)
    return SuiteConfig(seed=seed, tol=NORM_TOL, field=field_)


def _suite_pass(ctx: Context, cfg, label: str) -> tuple[float, float, bytes]:
    """One run_all pass: its start and end times and its report bytes."""
    from polyadjoint.suites import report_to_json, run_all
    t0 = time.perf_counter()
    report = run_all(cfg)
    t1 = time.perf_counter()
    for claim in report["claims"]:
        ctx.tally.record(f"{label} claim {claim['name']}", checks.check_claim(claim, cfg.tol))
    return t0, t1, (report_to_json(report) + "\n").encode()


def suite_workload(ctx: Context, kind: str, oracle: dict) -> dict:
    cfg = suite_config(kind, ctx.seed, ctx.tiny)
    passes: list[float] = []
    reports: list[bytes] = []
    out: dict = {}
    t_start = time.perf_counter()
    if ctx.trace:
        t0, t1, report = _suite_pass(ctx, cfg, "untraced pass")
        passes.append(t1 - t0)
        reports.append(report)
        t = tracer.Tracer()
        t.install()
        try:
            t0, t1, report = _suite_pass(ctx, cfg, "traced pass")
        finally:
            t.uninstall()
        reports.append(report)
        out["trace"] = {"stats": t.stats(), "passes": 1, "traced_wall_s": t1 - t0,
                        "overhead_ratio": (t1 - t0) / passes[0]}
    else:
        spans: list[tuple[float, float]] = []
        with speed.SpeedProbe() as probe:
            while len(spans) < MIN_PASSES or (
                    time.perf_counter() - t_start + passes[-1] <= ctx.seconds):
                t0, t1, report = _suite_pass(ctx, cfg, f"pass {len(spans) + 1}")
                spans.append((t0, t1))
                passes.append(probe.busy(t0, t1))
                reports.append(report)
        out["steady_pass_s"] = [probe.steady(t0, t1) for t0, t1 in spans]
        out["reference_loop_s"] = probe.loop_times()
    for i, report in enumerate(reports[1:], start=2):
        ctx.tally.record(f"report bytes of pass {i}",
                         None if report == reports[0] else "differ from pass 1")
    if kind == "exact-verify" and ctx.seed == oracle["seed"] and not ctx.tiny:
        digest = hashlib.sha256(reports[0]).hexdigest()
        ctx.tally.record("rational report digest",
                         None if digest == oracle["rational_report_sha256"]
                         else f"sha256 {digest} != recorded {oracle['rational_report_sha256']}")
    out["pass_s"] = passes
    out["report_sha256"] = hashlib.sha256(reports[0]).hexdigest()
    name = "exact_verify_s" if kind == "exact-verify" else "numeric_verify_s"
    out["summary"] = {name: (statistics.median(passes), "s", f"median of {len(passes)} passes")}
    return out


# -- request workload ----------------------------------------------------------

@dataclass
class Request:
    op: str
    shape: tuple
    input_obj: dict
    input_bytes: bytes
    q: list = field(default_factory=list)        # adjoint check: q coefficients
    x: list = field(default_factory=list)        # adjoint check: the point
    check_seed: int = 0                          # sup-norm check: sphere points

    def argv(self, in_path: Path, out_path: Path, seed: int) -> list[str]:
        if self.op == "norm":
            extra = ["--claim", "sup", "--seed", str(seed), "--tol", repr(NORM_TOL)]
        else:
            extra = ["--n", str(self.shape[3]), "--k", str(self.shape[4])]
        return [self.op, str(in_path), *extra, "--out", str(out_path)]


def _nonzero_fraction(r: random.Random, num: int, den: int) -> Fraction:
    return Fraction(r.choice([-1, 1]) * r.randint(1, num), r.randint(1, den))


def make_request(seed: int, index, op: str, shape: tuple) -> Request:
    r = stream(seed, "request", index, op, shape)
    if op == "norm":
        d, e, m = shape
        comps = [{a: r.gauss(0.0, 1.0) for a in checks.monomials(d, m)} for _ in range(e)]
        obj = checks.map_to_obj(d, m, comps, "f64")
        return Request(op, shape, obj, _dumps(obj), check_seed=r.getrandbits(63))
    d, e, m, n, k = shape
    basis = checks.monomials(d, m)
    comps = []
    for _ in range(e):
        # the same coefficient sizes in every map, in seeded places and
        # signs: the cost of exact arithmetic follows the numerators and
        # denominators, so this keeps the cost of a shape nearly seed-free
        values = [Fraction(r.choice([-1, 1]) * COEFF_NUMS[i % len(COEFF_NUMS)],
                           COEFF_DENS[i % len(COEFF_DENS)]) for i in range(len(basis))]
        r.shuffle(values)
        comps.append(dict(zip(basis, values)))
    obj = checks.map_to_obj(d, m, comps, "rational")
    q = [_nonzero_fraction(r, 5, 3) for _ in checks.monomials(e, k)]
    x = [_nonzero_fraction(r, 5, 3) for _ in range(d)]
    return Request(op, shape, obj, _dumps(obj), q=q, x=x)


def _dumps(obj: dict) -> bytes:
    return json.dumps(obj, indent=2, sort_keys=True).encode()


def check_response(req: Request, code: int | str, out_path: Path) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(out_path.read_text())
        if req.op == "adjoint":
            return checks.check_adjoint(req.input_obj, req.input_bytes, req.shape[3],
                                        req.shape[4], out, req.q, req.x)
        if req.op == "decompose":
            return checks.check_decompose(req.input_obj, req.shape[3], req.shape[4], out)
        return checks.check_sup_norm(req.input_obj, out, NORM_TOL,
                                     np.random.default_rng(req.check_seed))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def serve_warm(ctx: Context, req: Request, main, label: str) -> tuple[float, float]:
    """Run one request through main(argv) in-process; return the times
    at which it started and ended."""
    in_path = ctx.workdir / "in.json"
    out_path = ctx.workdir / "out.json"
    in_path.write_bytes(req.input_bytes)
    out_path.unlink(missing_ok=True)
    argv = req.argv(in_path, out_path, ctx.seed)
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a traceback is a failed request, not a dead benchmark
        code = f"exception {traceback.format_exc(limit=1)!r}"
    t1 = time.perf_counter()
    ctx.tally.record(f"{label} {req.op} {req.shape}", check_response(req, code, out_path))
    return t0, t1


def serve_cold(ctx: Context, req: Request, label: str) -> float:
    """Run one request as a fresh `python -m polyadjoint.cli` process."""
    in_path = ctx.workdir / "cold-in.json"
    out_path = ctx.workdir / "cold-out.json"
    in_path.write_bytes(req.input_bytes)
    out_path.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "polyadjoint.cli", *req.argv(in_path, out_path, ctx.seed)]
    t0 = time.perf_counter()
    try:
        code = subprocess.run(argv, env=program_env(ctx.root), cwd=ctx.root,
                              capture_output=True, timeout=120).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code = "timeout after 120 s"
    latency = time.perf_counter() - t0
    ctx.tally.record(f"{label} {req.op} {req.shape}", check_response(req, code, out_path))
    return latency


def round_requests(seed: int, index: int, tiny: bool) -> list[Request]:
    """One round: every adjoint and decompose shape and every norm shape
    once, on fresh maps, in a seeded order, so that every round has the
    same mix."""
    adj, nrm = (TINY_ADJOINT_SHAPES, TINY_NORM_SHAPES) if tiny else (ADJOINT_SHAPES, NORM_SHAPES)
    ops = ([("adjoint", s) for s in adj] + [("decompose", s) for s in adj]
           + [("norm", s) for s in nrm])
    stream(seed, "round", index).shuffle(ops)
    return [make_request(seed, (index, j), op, s) for j, (op, s) in enumerate(ops)]


def _latency(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def cli_workload(ctx: Context) -> dict:
    from polyadjoint import cli
    out: dict = {}
    for op, shape in WARMUP_REQUESTS:
        serve_warm(ctx, make_request(ctx.seed, "warmup", op, shape), cli.main, "warm-up")
    t_start = time.perf_counter()
    if ctx.trace:
        # rounds in pairs on the same inputs: untraced, then traced
        plain: list[float] = []
        traced: list[float] = []
        t = tracer.Tracer()
        while not plain or time.perf_counter() - t_start + plain[-1] + traced[-1] <= ctx.seconds:
            reqs = round_requests(ctx.seed, len(plain), ctx.tiny)
            plain.append(sum(_latency(serve_warm(ctx, r, cli.main, "untraced")) for r in reqs))
            t.install()
            try:
                traced.append(sum(_latency(serve_warm(ctx, r, cli.main, "traced")) for r in reqs))
            finally:
                t.uninstall()
        out["trace"] = {"stats": t.stats(), "passes": len(traced),
                        "traced_wall_s": sum(traced),
                        "overhead_ratio": sum(traced) / sum(plain)}
        out["pass_s"] = plain
        return out
    cold = [serve_cold(ctx, make_request(ctx.seed, ("cold", i), op, shape), "cold")
            for i, (op, shape) in enumerate(COLD_REQUESTS[:1 if ctx.tiny else None])]
    rounds: list[list[tuple[Request, tuple[float, float]]]] = []
    round_wall = 0.0  # with the output checks, which the latencies leave out
    min_requests = 1 if ctx.tiny else MIN_WARM_REQUESTS
    with speed.SpeedProbe() as probe:
        while sum(map(len, rounds)) < min_requests or (
                time.perf_counter() - t_start + round_wall <= ctx.seconds):
            t0 = time.perf_counter()
            rounds.append([(r, serve_warm(ctx, r, cli.main, "warm"))
                           for r in round_requests(ctx.seed, len(rounds), ctx.tiny)])
            round_wall = time.perf_counter() - t0
    warm = [(r.op, r.shape, probe.busy(*span), probe.steady(*span))
            for rnd in rounds for r, span in rnd]
    out["pass_s"] = [sum(probe.busy(*span) for _, span in rnd) for rnd in rounds]
    out["steady_pass_s"] = [sum(probe.steady(*span) for _, span in rnd) for rnd in rounds]
    out["reference_loop_s"] = probe.loop_times()
    out["requests"] = warm
    latencies = [w[2] for w in warm]
    n = len(latencies)
    out["summary"] = {
        "warm_request_p50_ms": (1000 * statistics.median(latencies), "ms", f"median of {n} requests"),
        "warm_request_p90_ms": (1000 * percentile(latencies, 90), "ms", f"p90 of {n} requests"),
        "warm_requests_per_s": (n / sum(latencies), "1/s", f"{n} requests over their summed latency"),
        "cold_request_p50_s": (statistics.median(cold), "s", f"median of {len(cold)} processes"),
    }
    return out
