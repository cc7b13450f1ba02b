"""End-to-end tests for the command line interface: subcommands, exit codes
and environment-variable defaults."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyadjoint import F64, HomPoly, PolyMap, enumerate_multi_indices, polymap_dumps
from polyadjoint import cli, norms

CLI = [sys.executable, "-m", "polyadjoint.cli"]


def run_cli(*args, stdin: str | None = None, env_extra: dict | None = None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          input=stdin, env=env)


def sample_map_json() -> str:
    P = PolyMap((
        HomPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}),
        HomPoly(2, 2, {(1, 1): Fraction(2)}),
    ))
    return polymap_dumps(P)


def test_no_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2


def test_import_loads_no_scipy():
    code = ("import sys, polyadjoint.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_adjoint_subcommand(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    out = tmp_path / "adj.json"
    proc = run_cli("adjoint", str(src), "--n", "2", "--k", "1", "--out", str(out))
    assert proc.returncode == 0
    obj = json.loads(out.read_text())
    assert obj["provenance"]["op"] == "delta"
    assert obj["provenance"]["n"] == 2
    assert obj["degree"] == 2
    assert len(obj["provenance"]["source"]) == 64


def test_adjoint_reads_stdin():
    proc = run_cli("adjoint", "-", "--n", "1", "--k", "1", stdin=sample_map_json())
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["provenance"]["k"] == 1


def test_norm_sup_subcommand(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    proc = run_cli("norm", str(src), "--claim", "sup")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    # (x^2+y^2)^2 + (2xy)^2 = 1 + 4x^2y^2 on the unit circle, peaking at x = y
    assert abs(obj["value"] - 2.0 ** 0.5) < 1e-9
    assert obj["lower_bound_certified"] is True
    assert len(obj["maximizer"]) == 2


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_norm_sup_at_extreme_coefficient_scales(tmp_path, d, c):
    # c (|x|^2, 2 x_1 x_2) has norm c sqrt(2); unscaled, its squared values
    # underflow to 0 or overflow to inf
    square = {tuple(2 * (j == i) for j in range(d)): c for i in range(d)}
    P = PolyMap((HomPoly(d, 2, square, F64),
                 HomPoly(d, 2, {(1, 1) + (0,) * (d - 2): 2 * c}, F64)))
    src, out = tmp_path / "map.json", tmp_path / "out.json"
    src.write_text(polymap_dumps(P))
    assert cli.main(["norm", str(src), "--claim", "sup", "--out", str(out)]) == 0
    value = json.loads(out.read_text())["value"]
    assert abs(value / (c * 2.0 ** 0.5) - 1.0) < 1e-12


def test_norm_sup_on_a_wide_range_two_variable_map(tmp_path):
    # coefficients from about 1e-150 to 1e148: the circle pass used to end
    # this in an AssertionError traceback (exit 1)
    rng = np.random.default_rng(1)
    basis = enumerate_multi_indices(2, 12)
    P = PolyMap(tuple(
        HomPoly(2, 12, dict(zip(basis, map(float, rng.standard_normal(len(basis))
                                           * 10.0 ** rng.integers(-150, 150, len(basis))))), F64)
        for _ in range(3)))
    src = tmp_path / "map.json"
    src.write_text(polymap_dumps(P))
    proc = run_cli("norm", str(src), "--claim", "sup")
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["method"] == "sobol+gradient-ascent"
    assert obj["value"] > 0


TINY, HUGE = (1e-200, 1e-200), (1e200, 1.0)
# |P| = 1.5e308 sqrt(2) is past the largest double
HUGER = (1.5e308, 1.5e308)


@pytest.mark.parametrize("coeffs, argv, code, message", [
    # the norming functional of P(x) = 1e-200 (1, 1) at its maximizer used
    # to fail as "cannot norm the zero vector" (exit 2), and so did those of
    # 1e-302 (1, 1) and 1e-305 (1, 1), whose |P| are normal doubles
    (TINY, ["norm", "--claim", "delta", "--n", "1", "--k", "1"], 0, "wall_ms="),
    ((1e-302,) * 2, ["norm", "--claim", "delta", "--n", "1", "--k", "1"], 0, "wall_ms="),
    ((1e-305,) * 2, ["norm", "--claim", "delta", "--n", "1", "--k", "1"], 0, "wall_ms="),
    # |P| = 1.4e-310 is subnormal: too few bits to compare with
    ((1e-310,) * 2, ["norm", "--claim", "delta", "--n", "1", "--k", "1"], 3,
     "does not fit a double"),
    # |P|^2 = 2e-400 underflows to 0 and (1e200)^2 overflows: the claim
    # cannot be compared in doubles, which ended in exit 2 and in an
    # OverflowError traceback (exit 1)
    (TINY, ["norm", "--claim", "delta", "--n", "2", "--k", "1"], 3, "does not fit a double"),
    (HUGE, ["norm", "--claim", "delta", "--n", "2", "--k", "1"], 3, "does not fit a double"),
    # the adjoint's coefficients overflow; the writer used to refuse the
    # infinity with exit 2
    (HUGE, ["adjoint", "--n", "2", "--k", "1"], 3, "past the largest double"),
    # every coefficient of P^2, about 1e-400, underflows: it used to exit 0
    # with three empty components
    (TINY, ["adjoint", "--n", "2", "--k", "1"], 3, "below the smallest double"),
    # a sup norm past the largest double is a size cap too: it exited 2
    (HUGER, ["norm", "--claim", "sup"], 3, "exceeds the largest double"),
    (HUGER, ["norm", "--claim", "delta", "--n", "1", "--k", "1"], 3,
     "exceeds the largest double"),
], ids=["tiny-delta-n1", "tiny-302-delta-n1", "tiny-305-delta-n1", "subnormal-delta-n1",
        "tiny-delta-n2", "huge-delta-n2", "huge-adjoint", "tiny-adjoint", "huger-sup",
        "huger-delta-n1"])
def test_f64_requests_far_from_unit_scale_end_in_their_exit(tmp_path, coeffs, argv, code,
                                                            message):
    # the map x |-> c1 x1 + c2 x2
    src = tmp_path / "map.json"
    src.write_text(polymap_dumps(PolyMap((HomPoly(2, 1, dict(zip([(1, 0), (0, 1)], coeffs)),
                                                   F64),))))
    proc = run_cli(argv[0], str(src), *argv[1:])
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["passed"] is True


def test_rational_map_below_the_smallest_double_exits_3(tmp_path, capsys):
    # x |-> 10^-400 (x1 + x2) converts to f64 as the zero map, whose norm
    # used to be reported as 0.0 with exit 0
    tiny = Fraction(1, 10 ** 400)
    src, out = tmp_path / "map.json", tmp_path / "out.json"
    src.write_text(polymap_dumps(PolyMap((HomPoly(2, 1, {(1, 0): tiny, (0, 1): tiny}),))))
    assert cli.main(["norm", str(src), "--claim", "sup", "--out", str(out)]) == 3
    assert not out.exists()
    assert "below the smallest double" in capsys.readouterr().err


def test_rational_map_past_the_largest_double_exits_3(tmp_path, capsys):
    # x |-> 10^400 x does not fit a double when norm converts it to f64: a
    # size cap, as below the smallest double
    src, out = tmp_path / "map.json", tmp_path / "out.json"
    src.write_text(json.dumps({**SCALAR_MAP, "components": [[{"alpha": [1],
                                                              "value": f"{10 ** 400}/1"}]]}))
    assert cli.main(["norm", str(src), "--out", str(out)]) == 3
    assert not out.exists()
    assert "past the largest double" in capsys.readouterr().err


def test_norm_delta_subcommand(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    proc = run_cli("norm", str(src), "--claim", "delta", "--n", "1", "--k", "2",
                   "--restarts", "16")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["passed"] is True
    # the wall time goes to stderr, never into the report
    assert "wall_ms" not in obj


# x |-> (x1^2/2 - 5/4 x1 x2 + 2 x2 x3, 3/4 x1 x3 - 3/2 x3^2), whose sup norm
# takes the search, as in CI
SEARCH_MAP = PolyMap((HomPoly(3, 2, {(2, 0, 0): 0.5, (1, 1, 0): -1.25, (0, 1, 1): 2.0}, F64),
                      HomPoly(3, 2, {(1, 0, 1): 0.75, (0, 0, 2): -1.5}, F64)))


@pytest.mark.parametrize("flags, named", [(["--k", "0"], "n=1, k=0"),
                                          (["--k", "-1"], "n=1, k=-1"),
                                          (["--n", "0"], "n=0, k=1")])
def test_norm_delta_refuses_bad_adjoint_parameters_before_the_search(
        tmp_path, capsys, monkeypatch, flags, named):
    # --k 0 and --k -1 exited 2 with "power requires n >= 1" only after the
    # sup norm of P had run the search
    def no_sup_norm(*args, **kwargs):
        raise AssertionError("a sup norm ran")
    monkeypatch.setattr(norms, "sup_norms", no_sup_norm)
    src = tmp_path / "map.json"
    src.write_text(polymap_dumps(SEARCH_MAP))
    assert cli.main(["norm", str(src), "--claim", "delta", *flags]) == 2
    assert capsys.readouterr().err == f"error: adjoint parameters must be >= 1, got {named}\n"


def test_norm_delta_stdout_is_byte_stable(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    runs = [run_cli("norm", str(src), "--claim", "delta", "--n", "1", "--k", "2",
                    "--seed", "7") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert "wall_ms=" in proc.stderr
    assert runs[0].stdout == runs[1].stdout


def test_adjoint_norm_test_count_ignores_restarts(tmp_path):
    # --restarts sizes the d >= 3 ascent; the number of random test
    # polynomials on the upper side stays at its default
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    counts = []
    for restarts in ("8", "64"):
        proc = run_cli("norm", str(src), "--claim", "delta", "--n", "1", "--k", "2",
                       "--restarts", restarts)
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout)["details"]["q_instances"])
    assert counts[0] == counts[1] == 64


def test_decompose_subcommand(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    proc = run_cli("decompose", str(src), "--n", "1", "--k", "2")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert len(obj["vectors"]) == 2
    assert all("theta" in t for t in obj["terms"])


def test_decompose_of_an_f64_map_exits_2(tmp_path, capsys):
    # finite-rank extraction is exact only: a FieldError, an input error
    src = tmp_path / "map.json"
    src.write_text(polymap_dumps(PolyMap((HomPoly(2, 1, {(1, 0): 1.5, (0, 1): -2.0}, F64),))))
    out = tmp_path / "out.json"
    assert cli.main(["decompose", str(src), "--n", "1", "--k", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "exact only" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("this is not json")
    proc = run_cli("norm", str(src))
    assert proc.returncode == 2
    assert "malformed" in proc.stderr


def test_missing_file_exits_2(tmp_path):
    proc = run_cli("adjoint", str(tmp_path / "nope.json"), "--n", "1", "--k", "1")
    assert proc.returncode == 2


def test_invalid_map_object_exits_2(tmp_path):
    src = tmp_path / "obj.json"
    src.write_text(json.dumps({"domain_dim": 2}))
    proc = run_cli("adjoint", str(src), "--n", "1", "--k", "1")
    assert proc.returncode == 2
    assert "missing" in proc.stderr


# x |-> 3x on R^1: each edit below was once accepted as a different map or
# crashed, because True == 1, int(1.7) == 1 and int() reads "1_000", " 2"
# and non-ASCII digits
SCALAR_MAP = {"domain_dim": 1, "codomain_dim": 1, "degree": 1, "field": "rational",
              "components": [[{"alpha": [1], "value": "3/1"}]]}


@pytest.mark.parametrize("key, value", [
    ("components", [[{"alpha": [1], "value": "1/0"}]]),
    ("components", [[{"alpha": [1], "value": "1/1"}, {"alpha": [1], "value": "5/1"}]]),
    ("degree", True),
    ("domain_dim", True),
    ("codomain_dim", True),
    ("components", [[{"alpha": [1.7], "value": "3/1"}]]),
    ("components", [[{"alpha": [1], "value": "1_000/3"}]]),
    ("components", [[{"alpha": [1], "value": " 2/ 3 "}]]),
    ("components", [[{"alpha": [1], "value": "2/-3"}]]),
    ("components", [[{"alpha": [1], "value": "\u0661/\u0662"}]]),
], ids=["zero-denominator", "repeated-alpha", "bool-degree", "bool-domain-dim",
        "bool-codomain-dim", "float-alpha", "underscore-digits", "spaces",
        "negative-denominator", "arabic-indic-digits"])
def test_bad_map_json_exits_2(tmp_path, capsys, key, value):
    src = tmp_path / "map.json"
    src.write_text(json.dumps({**SCALAR_MAP, key: value}))
    assert cli.main(["adjoint", str(src), "--n", "1", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, argv", [
    ("f64", float("nan"), ["adjoint", "--n", "1", "--k", "1"]),
    ("f64", float("inf"), ["adjoint", "--n", "1", "--k", "1"]),
    ("f64", 10 ** 400, ["adjoint", "--n", "1", "--k", "1"]),
], ids=["nan", "infinity", "401-digit-integer"])
def test_non_finite_f64_exits_2(tmp_path, capsys, field, value, argv):
    src = tmp_path / "map.json"
    src.write_text(json.dumps({**SCALAR_MAP, "field": field,
                               "components": [[{"alpha": [1], "value": value}]]}))
    out = tmp_path / "out.json"
    assert cli.main([argv[0], str(src), *argv[1:], "--out", str(out)]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_overflowing_f64_result_exits_3(tmp_path, capsys):
    # (1e300 x)^2 does not fit a double: the product refuses it as a size
    # cap, so nothing is written
    src = tmp_path / "map.json"
    src.write_text(json.dumps({**SCALAR_MAP, "field": "f64",
                               "components": [[{"alpha": [1], "value": 1e300}]]}))
    out = tmp_path / "out.json"
    assert cli.main(["adjoint", str(src), "--n", "2", "--k", "1", "--out", str(out)]) == 3
    assert not out.exists()
    assert "past the largest double" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["adjoint", "--n", "1", "--k", "1"], ["norm"],
                                     ["decompose"]])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100000 + "]" * 100000)
    assert cli.main([command[0], str(src), *command[1:]]) == 2
    assert "malformed" in capsys.readouterr().err


# 2 GB of address space: a missed cap fails instead of exhausting memory
ADDRESS_LIMIT = 2 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


@pytest.mark.parametrize("command", [["adjoint", "--n", "1", "--k", "1"], ["norm"],
                                     ["decompose"]])
def test_huge_coefficient_space_exits_3_promptly(tmp_path, command):
    # C(51, 12) > 10^11 monomials: the cap must fire before any basis is built
    d, m = 40, 12
    big = {"domain_dim": d, "codomain_dim": 2, "degree": m, "field": "rational",
           "components": [[{"alpha": [m] + [0] * (d - 1), "value": "1/1"}],
                          [{"alpha": [0] * (d - 1) + [m], "value": "2/1"}]]}
    src = tmp_path / "big.json"
    src.write_text(json.dumps(big))
    proc = subprocess.run(CLI + [command[0], str(src)] + command[1:],
                          preexec_fn=_limit_memory, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "cap" in proc.stderr


def test_huge_expansion_degree_exits_3_promptly(tmp_path):
    # C(k+1, k) weak compositions of k into the two parts of a rank-2 map
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    proc = subprocess.run(CLI + ["decompose", str(src), "--k", "30000000"],
                          preexec_fn=_limit_memory, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "cap" in proc.stderr


@pytest.mark.parametrize("command", [["adjoint", "--n", "1", "--k", "1"], ["norm"],
                                     ["decompose"]])
def test_huge_binomial_exits_3_promptly(tmp_path, command):
    # the zero map of degree 10^7 on R^(10^7): the cap must fire without
    # computing C(2*10^7 - 1, 10^7), which alone takes far longer than a minute
    zero = {"domain_dim": 10 ** 7, "codomain_dim": 1, "degree": 10 ** 7,
            "field": "rational", "components": [[]]}
    src = tmp_path / "zero.json"
    src.write_text(json.dumps(zero))
    proc = subprocess.run(CLI + [command[0], str(src)] + command[1:],
                          preexec_fn=_limit_memory, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr


# Runs argv[1:] under ADDRESS_LIMIT in a child of this small interpreter,
# with stdout discarded and stderr passed through, and prints the child's
# exit code and its peak resident set in KiB.  wait4 reads the child alone;
# a child forked from the test process instead would start with that
# process's resident set, and ru_maxrss keeps it across exec.
_MEASURE = f"""
import os, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_LIMIT}, {ADDRESS_LIMIT}))
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
deadline = time.monotonic() + 60
while True:
    done, status, usage = os.wait4(pid, os.WNOHANG)
    if done:
        break
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        done, status, usage = os.wait4(pid, 0)
        break
    time.sleep(0.02)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_measured(argv: list[str]) -> tuple[int, str, float]:
    """Run argv under the memory limit: its exit code, its stderr and its
    own peak resident set in MB."""
    proc = subprocess.run([sys.executable, "-c", _MEASURE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, kib = proc.stdout.split()
    return int(code), proc.stderr, int(kib) / 1024


def test_huge_sample_table_exits_3_promptly(tmp_path):
    # x -> x_1 on R^3000: the basis is small, but the d >= 3 sample floor
    # would build (16384 + 6000) x 3000 value tables, 512 MiB each; the cap
    # fires before the map's (3000 x 3000) exponent table is built
    d = 3000
    obj = {"domain_dim": d, "codomain_dim": 1, "degree": 1, "field": "f64",
           "components": [[{"alpha": [1] + [0] * (d - 1), "value": 1.0}]]}
    src = tmp_path / "wide.json"
    src.write_text(json.dumps(obj))
    code, err, peak_mb = _run_measured(CLI + ["norm", str(src)])
    assert code == 3, err
    assert "cap" in err
    assert peak_mb < 100


@pytest.mark.parametrize("claim", ["sup", "delta"])
def test_huge_one_variable_degree_exits_3_promptly(tmp_path, claim):
    # on R^1 the basis is one monomial at any degree, but the power tables
    # of the numeric layer would have 10^12 + 1 columns
    m = 10 ** 12
    obj = {"domain_dim": 1, "codomain_dim": 1, "degree": m, "field": "f64",
           "components": [[{"alpha": [m], "value": 1.5}]]}
    src = tmp_path / "steep.json"
    src.write_text(json.dumps(obj))
    proc = subprocess.run(CLI + ["norm", str(src), "--claim", claim],
                          preexec_fn=_limit_memory, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_capacity_overflow_exits_3(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    proc = run_cli("adjoint", str(src), "--n", "9", "--k", "9")
    assert proc.returncode == 3
    assert "cap" in proc.stderr


def test_env_defaults_and_flag_precedence(tmp_path):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    # env seed applies when no flag is given
    p1 = run_cli("norm", str(src), "--out", str(out1),
                 env_extra={"POLYADJOINT_SEED": "500"})
    # an explicit flag overrides the env seed
    p2 = run_cli("norm", str(src), "--seed", "500", "--out", str(out2),
                 env_extra={"POLYADJOINT_SEED": "77"})
    assert p1.returncode == p2.returncode == 0
    assert json.loads(out1.read_text())["value"] == \
        json.loads(out2.read_text())["value"]


# the smallest f64 grid: without the check, a tolerance of nan fails every
# numeric claim (exit 1) and one of inf passes every claim (exit 0)
TINY_F64_VERIFY = ["verify", "--field", "f64", "--dims", "2", "--trials", "1", "--max-m", "1",
                   "--max-n", "1", "--max-k", "1", "--max-r", "1", "--max-s", "1"]


@pytest.mark.parametrize("argv, env", [
    ([*TINY_F64_VERIFY, "--tol", "nan"], None),
    ([*TINY_F64_VERIFY, "--tol", "inf"], None),
    (["norm", "MAP", "--claim", "sup", "--tol", "nan"], None),
    (["norm", "MAP", "--claim", "sup"], "nan"),
], ids=["verify-nan", "verify-inf", "norm-nan", "env-nan"])
def test_non_finite_tol_exits_2(tmp_path, capsys, monkeypatch, argv, env):
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    out = tmp_path / "out.json"
    if env is not None:
        monkeypatch.setenv("POLYADJOINT_TOL", env)
    argv = [str(src) if a == "MAP" else a for a in argv]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "tol must be a finite number" in capsys.readouterr().err


def test_bad_env_value_exits_2():
    proc = run_cli("verify", env_extra={"POLYADJOINT_SEED": "not-a-number"})
    assert proc.returncode == 2
    assert "environment" in proc.stderr


@pytest.mark.parametrize("argv", [["--field", "rational", "--restarts", "0"],
                                  ["--restarts", "0"], ["--field", "f64", "--restarts", "0"]],
                         ids=["rational", "both", "f64"])
def test_verify_refuses_bad_settings_before_any_claim_runs(tmp_path, capsys, monkeypatch,
                                                          argv):
    # the rational pass runs no search, yet a bad --restarts is still bad
    # input: it used to exit 0, and the full pass ran every exact claim first
    runs = []
    monkeypatch.setattr(cli, "run_all", runs.append)
    out = tmp_path / "out.json"
    assert cli.main(["verify", *argv, "--out", str(out)]) == 2
    assert runs == [] and not out.exists()
    err = capsys.readouterr().err
    assert "restarts and samples must be >= 1" in err
    assert "PASS" not in err and "FAIL" not in err


@dataclasses.dataclass(frozen=True)
class OtherDefaults(cli.SuiteConfig):
    """SuiteConfig with every default the CLI could restate changed."""

    seed: int = 5
    dims: tuple[int, ...] = (2,)
    max_m: int = 1
    max_n: int = 3
    max_k: int = 1
    max_r: int = 3
    max_s: int = 1
    trials: int = 4
    tol: float = 1e-3
    restarts: int = 8
    field: str = "f64"


@pytest.mark.parametrize("config", [cli.SuiteConfig, OtherDefaults], ids=["real", "other"])
def test_verify_defaults_are_the_suite_configs(tmp_path, monkeypatch, config):
    # verify without flags hands run_all the default config; with the
    # defaults changed in the class, verify follows, as it states none
    for flag in ("SEED", "TOL", "RESTARTS", "DIMS", "FIELD"):
        monkeypatch.delenv(f"POLYADJOINT_{flag}", raising=False)
    seen = []

    def record(cfg):
        seen.append(cfg)
        return {"claims": [], "passed": True}

    monkeypatch.setattr(cli, "run_all", record)
    monkeypatch.setattr(cli, "SuiteConfig", config)
    # the parser reads its defaults when it is built: build it afresh, and
    # again after the test, for the real class
    cli.build_parser.cache_clear()
    try:
        assert cli.main(["verify", "--out", str(tmp_path / "out.json")]) == 0
    finally:
        monkeypatch.undo()
        cli.build_parser.cache_clear()
    assert seen == [config()]


def test_bad_env_value_leaves_commands_without_its_flag_alone(tmp_path, monkeypatch):
    # adjoint and decompose take no --seed or --dims, so they never read
    # POLYADJOINT_SEED or POLYADJOINT_DIMS
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    usual = {}
    for cmd in ("adjoint", "decompose"):
        out = tmp_path / f"{cmd}.json"
        assert cli.main([cmd, str(src), "--n", "1", "--k", "1", "--out", str(out)]) == 0
        usual[cmd] = out.read_bytes()
    monkeypatch.setenv("POLYADJOINT_SEED", "abc")
    monkeypatch.setenv("POLYADJOINT_DIMS", "2,x")
    for cmd in ("adjoint", "decompose"):
        out = tmp_path / f"{cmd}-bad-env.json"
        assert cli.main([cmd, str(src), "--n", "1", "--k", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == usual[cmd]


def test_verify_rational_suite(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--field", "rational", "--trials", "2",
                   "--seed", "99", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["passed"] is True
    assert len(report["claims"]) == 11
    names = {c["name"] for c in report["claims"]}
    assert "composition_identity" in names
    assert "factorization_identities" in names
    # one human-readable PASS line per claim on stderr
    assert proc.stderr.count("PASS") == 11


@pytest.mark.parametrize("dims", ["2", "1", "1,2"])
def test_verify_small_dims(tmp_path, dims):
    # the finite-type claim grows d until there are enough degree-m monomials
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--dims", dims, "--trials", "1", "--field", "rational",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_verify_reports_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = run_cli("verify", "--field", "rational", "--trials", "2",
                       "--seed", "123", "--out", str(out))
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# any JSON value: unbounded integers, non-finite floats, text (including
# strings shaped like the fields it replaces) and nested lists and dicts
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([10 ** 400, 1e300, "1/2", "3/0", "f64", "rational"])
                | st.text(max_size=6))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def malformed_maps(value, term: tuple[int, int]):
    """Every way to put value into a valid map object, rational or f64: as
    one top-level field, or as the alpha or the value of one term."""
    P = PolyMap((HomPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}),
                 HomPoly(2, 2, {(1, 1): Fraction(2)})))
    for text in (polymap_dumps(P.as_field(F64)), polymap_dumps(P)):
        for where in ("domain_dim", "codomain_dim", "degree", "field", "components",
                      "alpha", "value"):
            obj = json.loads(text)
            target = obj["components"][term[0]][term[1]] if where in ("alpha", "value") else obj
            target[where] = value
            yield obj


def _reject_constant(name: str):
    raise AssertionError(f"the output holds {name}, which is not JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES, st.sampled_from([(0, 0), (0, 1), (1, 0)]))
def test_malformed_map_objects_end_in_a_documented_exit(value, term):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "map.json"), os.path.join(tmp, "out.json")
        for obj in malformed_maps(value, term):
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            for argv in (["adjoint", "--n", "1", "--k", "1"], ["norm"], ["decompose"]):
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([argv[0], src, *argv[1:], "--out", out])
                assert code in (0, 2, 3), (obj, argv, code)
                if os.path.exists(out):
                    with open(out, encoding="utf-8") as fh:
                        json.loads(fh.read(), parse_constant=_reject_constant)
                    os.remove(out)


def _pinned_rational_map() -> PolyMap:
    """A fixed d=3, e=3, m=2 rational map with every coefficient present."""
    basis = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    return PolyMap(tuple(
        HomPoly(3, 2, {a: Fraction((-1) ** (i + j) * (2 * i + j + 1), 1 + (i + j) % 4)
                       for j, a in enumerate(basis)})
        for i in range(3)))


def _pinned_f64_map() -> PolyMap:
    """A fixed d=3, e=2, m=2 f64 map, with values whose shortest repr is long."""
    return PolyMap((
        HomPoly(3, 2, {(2, 0, 0): 0.1, (1, 1, 0): -2.5e-8, (0, 1, 1): 1.75,
                       (0, 0, 2): -1 / 3}, F64),
        HomPoly(3, 2, {(1, 0, 1): 3.0, (0, 2, 0): -0.7, (0, 0, 2): 1e16 / 3e16}, F64),
    ))


def _pinned_wide_f64_map(d: int, e: int, m: int) -> PolyMap:
    """A fixed f64 map with every coefficient present and its maximum away
    from the axes, so its sup norm takes tens of ascent steps, whose last
    bits follow the memory layout of the matmul operands."""
    basis = enumerate_multi_indices(d, m)
    return PolyMap(tuple(
        HomPoly(d, m, {a: (-1) ** (j * (j + 1) // 2 + i) * (1 + (5 * j + 2 * i) % 9)
                       / (2 + (j + 3 * i) % 7)
                       for j, a in enumerate(basis)}, F64)
        for i in range(e)))


def _pinned_rank_deficient_map() -> PolyMap:
    """A fixed d=3, e=3, m=2 rational map of rank 2, P3 = P1 - 2 P2, whose
    elimination meets a negative pivot in each of its two pivot rows."""
    P1 = HomPoly(3, 2, {(2, 0, 0): Fraction(-3, 2), (1, 1, 0): 2, (0, 1, 1): Fraction(5, 6),
                        (0, 0, 2): -1})
    P2 = HomPoly(3, 2, {(1, 0, 1): Fraction(-1, 3), (0, 2, 0): -4, (0, 1, 1): Fraction(7, 2)})
    return PolyMap((P1, P2, P1 - P2.scale(2)))


PINNED_WIDE_SHAPES = {"norm-sup-d4-m4": (4, 2, 4), "norm-sup-d5-m4": (5, 2, 4),
                      "norm-sup-d3-m5": (3, 1, 5)}


# sha256 of each output on these fixed maps: users diff these bytes, so no
# change to the writer may move them.  The norm digests also follow numpy's
# float results, and the three wide-map ones the memory layout of the
# kernel's matmul operands; they were recorded with numpy 2.4 on x86-64
PINNED_OUTPUT_SHA256 = {
    "adjoint":
        "ae952da71866ab3ffe5ed030a76ba93ec75ad05110368bd1a1132dd041fb96c0",
    "decompose":
        "1c06d68841f84a83b143545d0bff5ba07d810a07d33f9c4bf5aba5ca04e83f6d",
    "decompose-rank-deficient":
        "f45ad626b2d122ef2bce4a30b9adc5b3b34fe97078e06a7739d3928b9e349f80",
    "norm-sup":
        "0e4c80640cd6f36986bb60af3ebee987ed4af7f75643e349608d32e015d6da06",
    "polymap_dumps-rational":
        "f3ee8d53f6d7bc4c0905916f2673a86724d4c4bb7c762b13bb3d329f27b40556",
    "polymap_dumps-f64":
        "46c1fc6d5d8b5e334673f29130765f6228541d82f9d1781660ac2f734a9338f6",
    "norm-sup-d4-m4":
        "92d3d665d8bc6fffea951ffa6e6f9adee2a9ea4968a24e68879590c1464aa683",
    "norm-sup-d5-m4":
        "32799c537ba433889dee45772778607c28c0e6285db2c38793c945f7da9acc8e",
    "norm-sup-d3-m5":
        "a9db47f39d025ce1f1dfb39794f877760e21946322af87f3e1bea6c996eeb6d0",
}


# sha256 of what `polyadjoint verify --seed 20260815 --field f64` writes,
# and of the same at --seed 7; like the norm digests above they follow
# numpy's float results, and they were recorded with numpy 2.4 on x86-64,
# after f64 arithmetic became exact with one rounding where a value is read
PINNED_F64_REPORT_SHA256 = "e7bc4cb37fb26df46865a70b2ca6d940d23e4c57ad0cdde4bedf650286dfd5d1"
PINNED_F64_REPORT_SEED7_SHA256 = "5b609192e6c94c050e0393dae57f6256f9ed3bddc7a8cf445709f942e53be5eb"

# sha256 of what `polyadjoint verify --seed 7 --field rational` writes: a
# second exact report beside the refactor oracle's seed 20260815 (held in
# perfbench/oracle.json), on other draws; exact, so it follows no library
PINNED_RATIONAL_SEED7_SHA256 = "6137119f00084b7b689d68b0008677953c3c70a62c28f0779d0712829c95b34d"


def _report_digest(tmp_path, seed: str, field: str = "f64") -> str:
    out = tmp_path / f"{field}.json"
    assert cli.main(["verify", "--seed", seed, "--field", field, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_f64_report_bytes_are_pinned(tmp_path):
    assert _report_digest(tmp_path, "20260815") == PINNED_F64_REPORT_SHA256


def test_f64_report_bytes_at_seed_7_are_pinned(tmp_path):
    assert _report_digest(tmp_path, "7") == PINNED_F64_REPORT_SEED7_SHA256


def test_rational_report_bytes_at_seed_7_are_pinned(tmp_path):
    assert _report_digest(tmp_path, "7", "rational") == PINNED_RATIONAL_SEED7_SHA256


def _pinned_requests(tmp_path) -> tuple[dict[str, bytes], list[tuple[str, list[str]]]]:
    """The pinned map files' bytes, and each pinned request as (name, argv)
    on the maps written to tmp_path."""
    rational, real = tmp_path / "rational.json", tmp_path / "f64.json"
    deficient = tmp_path / "rank-deficient.json"
    rational.write_text(polymap_dumps(_pinned_rational_map()))
    real.write_text(polymap_dumps(_pinned_f64_map()))
    deficient.write_text(polymap_dumps(_pinned_rank_deficient_map()))
    files = {"polymap_dumps-rational": rational.read_bytes(),
             "polymap_dumps-f64": real.read_bytes()}
    requests = [("adjoint", ["adjoint", str(rational), "--n", "2", "--k", "2"]),
                ("decompose", ["decompose", str(rational), "--n", "2", "--k", "2"]),
                ("decompose-rank-deficient",
                 ["decompose", str(deficient), "--n", "2", "--k", "2"]),
                ("norm-sup", ["norm", str(real), "--claim", "sup"])]
    for name, shape in PINNED_WIDE_SHAPES.items():
        src = tmp_path / f"{name}-map.json"
        src.write_text(polymap_dumps(_pinned_wide_f64_map(*shape)))
        requests.append((name, ["norm", str(src), "--claim", "sup"]))
    return files, requests


def _digest_of_output(tmp_path, argv: list[str]) -> str:
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    assert cli.main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_request_output_bytes_are_pinned(tmp_path):
    files, requests = _pinned_requests(tmp_path)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    for name, argv in requests:
        digests[name] = _digest_of_output(tmp_path, argv)
    assert digests == PINNED_OUTPUT_SHA256


def test_requests_served_in_one_process_keep_their_pinned_bytes(tmp_path):
    # main builds its parser once per process: serving each command twice,
    # with a parse error between the two, must give the pinned bytes again
    _, requests = _pinned_requests(tmp_path)
    requests.append(("verify", ["verify", "--seed", "20260815", "--field", "f64"]))
    pinned = {**PINNED_OUTPUT_SHA256, "verify": PINNED_F64_REPORT_SHA256}
    for name, argv in requests:
        for _ in range(2):
            assert _digest_of_output(tmp_path, argv) == pinned[name], name
            for bad in ([argv[0], "--no-such-flag"], ["no-such-command"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main(bad)
                assert exc.value.code == 2


def test_main_dispatches_to_the_command_set_on_the_module(tmp_path, monkeypatch):
    # a wrapper set on the module after the first call, as a tracer sets
    # one, is the function the next call runs
    src = tmp_path / "map.json"
    src.write_text(sample_map_json())
    argv = ["adjoint", str(src), "--n", "1", "--k", "1", "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_adjoint", lambda args: seen.append(args.input) or 7)
    assert cli.main(argv) == 7
    assert seen == [str(src)]
