"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, speed, tracer, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_METRICS = {
    "exact-verify": ["exact_verify_s"],
    "numeric-verify": ["numeric_verify_s"],
    "cli-requests": ["warm_request_p50_ms", "warm_request_p90_ms",
                     "warm_requests_per_s", "cold_request_p50_s"],
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(PRINTED_METRICS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    text = "\n".join(lines[:-1])
    assert "error_rate = 0 " in text
    for name in (PRINTED_METRICS[workload] if not trace else []):
        assert f"{name} = " in text


def tiny_context(tmp_path) -> workloads.Context:
    return workloads.Context(seed=3, seconds=1, trace=False, tiny=True,
                             root=ROOT, workdir=tmp_path)


def serve_with(tmp_path, op, shape, corrupt):
    """Serve one request through the real CLI, then let corrupt rewrite the
    output object before the benchmark checks it."""
    from polyadjoint import cli
    ctx = tiny_context(tmp_path)

    def main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        obj = json.loads(out.read_text())
        corrupt(obj)
        out.write_text(json.dumps(obj))
        return code

    workloads.serve_warm(ctx, workloads.make_request(3, "t", op, shape), main, "test")
    return ctx.tally


def test_correct_outputs_pass(tmp_path):
    for op, shape in (("adjoint", (2, 2, 2, 2, 1)), ("decompose", (3, 2, 2, 2, 2)),
                      ("norm", (3, 2, 2))):
        tally = serve_with(tmp_path, op, shape, lambda obj: None)
        assert tally.attempted == 1 and tally.failures == []


def test_corrupted_adjoint_output_is_a_failed_operation(tmp_path):
    def corrupt(obj):
        term = obj["components"][-1][0]
        num, den = term["value"].split("/")
        term["value"] = f"{int(num) + 1}/{den}"

    tally = serve_with(tmp_path, "adjoint", (2, 2, 2, 2, 1), corrupt)
    assert tally.attempted == 1 and len(tally.failures) == 1
    assert "direct evaluation" in tally.failures[0]


def test_wrong_sup_norm_is_a_failed_operation(tmp_path):
    def corrupt(obj):
        obj["value"] *= 1.001

    tally = serve_with(tmp_path, "norm", (3, 2, 2), corrupt)
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_wrong_exit_code_and_term_count_fail(tmp_path):
    ctx = tiny_context(tmp_path)
    req = workloads.make_request(3, "t", "decompose", (3, 2, 2, 2, 2))
    workloads.serve_warm(ctx, req, lambda argv: 2, "test")
    assert ctx.tally.failures == ["test decompose (3, 2, 2, 2, 2): exit code 2"]
    l = checks.coefficient_rank(req.input_obj)
    out = {"n": 2, "k": 2, "rank": l, "terms": []}
    assert "terms, expected" in checks.check_decompose(req.input_obj, 2, 2, out)


def test_speed_probe_scales_work_to_the_reference_speed():
    ref = speed.REFERENCE_LOOP_S
    probe = speed.SpeedProbe()
    probe.starts = [float(i) for i in range(8)]
    loops = [2 * ref] * 8   # a host running at half the reference speed
    loops[4] = 20 * ref     # and one reading that was preempted
    probe.ends = [s + c for s, c in zip(probe.starts, loops)]
    a, b = 0.5, 6.5
    busy = (b - a) - sum(loops[1:7])
    assert probe.busy(a, b) == pytest.approx(busy)
    assert probe.steady(a, b) == pytest.approx(busy / 2)


def test_speed_probe_takes_readings_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.loop_times()) >= 3
    assert 0 < probe.busy(t0, t1) < t1 - t0


def test_tracer_restores_every_binding():
    from polyadjoint import adjoint, algebra, linearization, sampling, suites
    before = (algebra.HomPoly.__mul__, adjoint.compose_scalar,
              linearization.compose_scalar, sampling.random_polymap, suites.EXACT_CLAIMS)
    t = tracer.Tracer()
    t.install()
    try:
        assert adjoint.compose_scalar is not before[1]
        assert adjoint.compose_scalar is linearization.compose_scalar
        p = algebra.HomPoly(2, 1, {(1, 0): 1}) * algebra.HomPoly(2, 1, {(0, 1): 1})
        assert p.coeffs == {(1, 1): 1}
    finally:
        t.uninstall()
    after = (algebra.HomPoly.__mul__, adjoint.compose_scalar,
             linearization.compose_scalar, sampling.random_polymap, suites.EXACT_CLAIMS)
    assert all(a is b for a, b in zip(before, after))
    assert t.calls["algebra.mul"] == 1 and t.missing == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "exact-verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
