"""Tests for the suite configuration and report plumbing (the claims
themselves are exercised by the acceptance gate)."""
from __future__ import annotations

import json
import sys

import pytest

from polyadjoint import algebra, sampling
from polyadjoint.errors import PreconditionError
from polyadjoint.linearization import transpose_identity_defect
from polyadjoint.suites import (
    SuiteConfig,
    claim_inverse_identity,
    claim_linearization_transpose,
    report_to_json,
    run_all,
)


def test_config_validation():
    with pytest.raises(PreconditionError):
        SuiteConfig(field="f32")
    with pytest.raises(PreconditionError):
        SuiteConfig(dims=())
    with pytest.raises(PreconditionError):
        SuiteConfig(trials=0)
    with pytest.raises(PreconditionError):
        SuiteConfig(tol=-1.0)


def test_claim_result_obj_is_json_ready():
    cfg = SuiteConfig(seed=1, trials=2, dims=(2,))
    res = claim_inverse_identity(cfg)
    obj = res.to_obj()
    json.dumps(obj)
    assert obj["name"] == "inverse_identity"
    assert obj["field"] == "rational"
    assert obj["passed"] is True
    assert obj["max_defect"] == "0/1"


def test_run_all_report_shape_and_determinism():
    cfg = SuiteConfig(seed=11, trials=2, field="rational")
    rep1 = run_all(cfg)
    rep2 = run_all(cfg)
    assert report_to_json(rep1) == report_to_json(rep2)
    assert rep1["schema"] == 1
    assert rep1["config"]["seed"] == 11
    assert len(rep1["claims"]) == 11
    assert rep1["passed"] is True
    assert "wall" not in report_to_json(rep1)


def test_field_filter_selects_suites():
    cfg = SuiteConfig(seed=11, trials=1, field="rational")
    names = {c["name"] for c in run_all(cfg)["claims"]}
    assert "norm_duality" not in names
    assert "composition_identity" in names


def test_linearization_claim_catches_a_corrupt_power(monkeypatch):
    # double P^(1,1) in the shared expansion, wherever it is bound: the
    # adjoint and linearization matrices stay transposes of each other, so
    # only the intertwining check against direct evaluation can fail
    original = algebra.map_powers

    def corrupt(P, betas):
        betas = list(betas)
        for beta, power in zip(betas, original(P, betas)):
            yield power.scale(2) if beta == (1, 1) else power

    cfg = SuiteConfig(seed=3, dims=(2,), trials=2)
    assert claim_linearization_transpose(cfg).passed
    for mod in list(sys.modules.values()):
        if getattr(mod, "map_powers", None) is original:
            monkeypatch.setattr(mod, "map_powers", corrupt)
    P = sampling.random_polymap(sampling.rng(3, "corrupt"), 2, 2, 2)
    assert transpose_identity_defect(P, 2).is_zero
    assert not claim_linearization_transpose(cfg).passed


def test_instance_counts_on_a_non_default_grid():
    # the oracle runs every cap at 2; caps of 3 and 1 move the grid limits
    # (m*k <= 8 drops m = k = 3) and the range of every claim
    cfg = SuiteConfig(seed=5, dims=(2,), max_m=3, max_n=1, max_k=3, max_r=1,
                      max_s=1, trials=1, field="rational")
    report = run_all(cfg)
    assert {c["name"]: c["instances"] for c in report["claims"]} == {
        "composition_identity": 8,
        "diagram_identity": 8,
        "additivity_defect_formula": 4,
        "adjoint_homogeneity": 32,
        "adjoint_nonadditivity": 113,
        "linearization_transpose": 9,
        "adjoint_rank_bound": 11,
        "finite_type_expansion": 9,
        "inverse_identity": 3,
        "injectivity_separation": 100,
        "factorization_identities": 3,
    }
    assert report["passed"]
