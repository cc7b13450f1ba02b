"""Acceptance gate: every stated criterion, one PASS/FAIL line each.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
each criterion is also its own test so `pytest -v` lists the verdicts.
The exact suite must finish under 60 s, the numeric suite under 120 s, the
rational report must match the digest in perfbench/oracle.json, and two
same-seed verify runs must produce byte-identical reports.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polyadjoint.suites import (
    ClaimResult,
    SuiteConfig,
    report_to_json,
    run_all,
    run_numeric_suite,
)

ACCEPT_SEED = 20260815
EXACT_TOL = 0  # exact claims must have defect identically zero
NUMERIC_TOL = 1e-6
ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.json"


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


@pytest.fixture(scope="module")
def exact():
    cfg = SuiteConfig(seed=ACCEPT_SEED, field="rational")
    t0 = time.perf_counter()
    report = run_all(cfg)
    wall = time.perf_counter() - t0
    results = {c["name"]: ClaimResult(**c) for c in report["claims"]}
    return results, wall, report


@pytest.fixture(scope="module")
def numeric():
    cfg = SuiteConfig(seed=ACCEPT_SEED, tol=NUMERIC_TOL)
    t0 = time.perf_counter()
    results = {r.name: r for r in run_numeric_suite(cfg)}
    wall = time.perf_counter() - t0
    return results, wall


# -- exact criteria ----------------------------------------------------------

def test_composition_identity(exact):
    r = exact[0]["composition_identity"]
    ok = r.passed and r.max_defect == "0/1" and r.instances >= 500
    _report("composition identity exact for m,r,n,k,s <= 2, m*n*k*r*s <= 8", ok)


def test_diagram_identity(exact):
    r = exact[0]["diagram_identity"]
    ok = r.passed and r.max_defect == "0/1" and r.instances >= 500
    _report("evaluation-embedding diagram commutes exactly", ok)


def test_additivity_defect_formula(exact):
    r = exact[0]["additivity_defect_formula"]
    ok = (r.passed and r.max_defect == "0/1" and r.instances >= 80
          and r.details["zero_iff_linear"])
    _report("additivity defect matches the mixed-term formula, zero iff degree 1", ok)


def test_adjoint_homogeneity(exact):
    r = exact[0]["adjoint_homogeneity"]
    ok = (r.passed and r.max_defect == "0/1"
          and set(r.details["lambdas"]) == {"-2", "-1", "1/2", "3"})
    _report("adjoint scales by lambda^(k*n) for lambda in {-2, -1, 1/2, 3}", ok)


def test_nonadditivity_witnesses(exact):
    r = exact[0]["adjoint_nonadditivity"]
    witnessed = r.details["witness_defects"]
    expected_pairs = {(k, n) for k in range(1, 7) for n in range(1, 7)
                      if k * n <= 6 and (k, n) != (1, 1)}
    keys = {tuple(int(v.split("=")[1]) for v in key.split(","))
            for key in witnessed}
    ok = (r.passed
          and keys == expected_pairs
          and all(v not in ("0/1", "NOT FOUND") for v in witnessed.values()))
    _report("non-additivity witnessed for every (k,n) != (1,1) with k*n <= 6; "
            "k = n = 1 additive on 100 instances", ok)


def test_linearization_transpose(exact):
    r = exact[0]["linearization_transpose"]
    ok = r.passed and r.max_defect == "0/1" and r.instances >= 320
    _report("adjoint matrix equals the transpose of the linearization, which "
            "intertwines tensor powers at a rational point per instance", ok)


def test_finite_type_expansion(exact):
    r = exact[0]["finite_type_expansion"]
    ok = (r.passed and r.max_defect == "0/1" and r.instances >= 360
          and r.details["term_count_formula"])
    _report("finite-type expansion reconstructs the adjoint for l <= 3, "
            "k <= 3, n <= 2 with the predicted term count", ok)


def test_factorization_identities(exact):
    r = exact[0]["factorization_identities"]
    five = ("recovery_a", "recovery_b", "rank_one", "sandwich", "unit")
    ok = (r.passed and all(r.details[name] == "0/1" for name in five)
          and r.instances >= 160)
    _report("all five composition-operator factorization identities exact", ok)


def test_inverse_identity(exact):
    r = exact[0]["inverse_identity"]
    ok = r.passed and r.max_defect == "0/1" and r.instances >= 120
    _report("adjoint of an invertible linear map inverts exactly, d <= 3, k <= 3", ok)


def test_injectivity_separation(exact):
    r = exact[0]["injectivity_separation"]
    ok = r.passed and r.details["separated"] == 100 and r.instances == 100
    _report("100 distinct-map pairs separated by a witness, k*n in {1, 3}", ok)


def test_rank_bound(exact):
    r = exact[0]["adjoint_rank_bound"]
    ok = r.passed and r.details["surjective_full_rank"] and r.instances >= 480
    _report("rank of the adjoint matrix within C(rank(P)+k-1, k) on every "
            "instance family", ok)


def test_rational_report_matches_oracle(exact):
    # the refactor oracle: sha256 of what `polyadjoint verify --seed 20260815
    # --field rational` writes; any change to the exact layer must keep it
    want = json.loads(ORACLE.read_text())["rational_report_sha256"]
    got = hashlib.sha256((report_to_json(exact[2]) + "\n").encode()).hexdigest()
    _report("rational report bytes match the recorded oracle digest", got == want)


def test_exact_suite_wall_under_60s(exact):
    wall = exact[1]
    _report(f"exact suite wall time {wall:.1f}s < 60s", wall < 60.0)


# -- numeric criteria --------------------------------------------------------

def test_norm_duality(numeric):
    r = numeric[0]["norm_duality"]
    ok = r.passed and r.instances == 50 and r.max_defect <= NUMERIC_TOL
    _report("norming functionals attain |x|^m within 1e-6 with unit sup norm, "
            "50 points", ok)


def test_adjoint_norm_bracket(numeric):
    r = numeric[0]["adjoint_norm"]
    ok = (r.passed and r.details["q_trials"] == 100
          and r.max_defect <= NUMERIC_TOL)
    _report("adjoint operator norm bracketed within rel 1e-6 "
            "(d = e = 2, m <= 2, (n,k) in {(1,1),(1,2),(2,1)}, 100 q)", ok)


def test_embedding_norm_bracket(numeric):
    r = numeric[0]["embedding_norm"]
    ok = r.passed and r.instances >= 20 and r.max_defect <= NUMERIC_TOL
    _report("evaluation-embedding norm equals |x|^(m*n) within rel 1e-6", ok)


def test_metric_injection(numeric):
    r = numeric[0]["metric_injection"]
    ok = r.passed and r.instances == 20 and r.max_defect <= NUMERIC_TOL
    _report("pullback along a coisometry preserves sup norms within rel 1e-6, "
            "20 q, k <= 3", ok)


def test_two_sided_norm_bound(numeric):
    r = numeric[0]["two_sided_bound"]
    ok = r.passed and r.instances == 20 and r.max_defect <= 1e-9
    _report("two-sided composition norm bound holds with slack >= -1e-9, "
            "20 instances", ok)


def test_numeric_suite_wall_under_120s(numeric):
    wall = numeric[1]
    _report(f"numeric suite wall time {wall:.1f}s < 120s", wall < 120.0)


# -- determinism -------------------------------------------------------------

def test_verify_reports_byte_identical(tmp_path):
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "polyadjoint.cli", "verify",
             "--seed", str(ACCEPT_SEED), "--trials", "2", "--restarts", "16",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and json.loads(outs[0])["passed"]
    _report("two same-seed verify runs emit byte-identical passing reports", ok)
