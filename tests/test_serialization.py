"""Round-trip and strictness tests for the JSON interchange formats."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyadjoint import (
    F64,
    RATIONAL,
    HomPoly,
    PolyMap,
    adjoint_matrix,
    enumerate_multi_indices,
    expand_adjoint,
    expansion_to_obj,
    finite_rank_rep,
    linearmap_to_obj,
    materialize_adjoint,
    materialized_to_obj,
    polymap_dumps,
    polymap_from_obj,
    polymap_loads,
    polymap_to_obj,
    sha256_hex,
)
from polyadjoint.errors import DimensionError, FieldError
from polyadjoint import sampling, serialization


def test_polymap_round_trip_rational():
    rng = sampling.rng(3, "roundtrip")
    for _ in range(10):
        P = sampling.random_polymap(rng, 2, 3, 2)
        assert polymap_loads(polymap_dumps(P)) == P


def test_polymap_round_trip_f64():
    P = PolyMap((
        HomPoly(2, 2, {(2, 0): 0.125, (1, 1): -3.5}, F64),
        HomPoly(2, 2, {(0, 2): 2.0}, F64),
    ))
    Q = polymap_loads(polymap_dumps(P))
    assert Q == P
    assert Q.field == F64


def test_sparse_map_round_trip_skips_the_basis(monkeypatch):
    # C(51, 12) > 10^11 monomials: serializing must cost the terms, not the basis
    def no_basis(*args):
        raise AssertionError("serialization walked the monomial basis")

    monkeypatch.setattr(serialization, "enumerate_multi_indices", no_basis, raising=False)
    top = (12,) + (0,) * 39
    mixed = (0,) * 20 + (5, 7) + (0,) * 18
    P = PolyMap((HomPoly(40, 12, {top: Fraction(3, 4), mixed: Fraction(-2)}),))
    text = polymap_dumps(P)
    assert [t["alpha"] for t in json.loads(text)["components"][0]] == [list(top), list(mixed)]
    assert polymap_loads(text) == P


@st.composite
def sparse_maps(draw, field):
    d = draw(st.integers(1, 4))
    e = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    basis = enumerate_multi_indices(d, m)
    values = (st.fractions() if field == RATIONAL
              else st.floats(allow_nan=False, allow_infinity=False))
    comps = tuple(
        HomPoly(d, m, draw(st.dictionaries(st.sampled_from(basis), values, max_size=6)), field)
        for _ in range(e))
    return PolyMap(comps)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((RATIONAL, F64)).flatmap(sparse_maps))
def test_polymap_round_trip_property(P):
    text = polymap_dumps(P)
    assert polymap_loads(text) == P
    # terms are emitted in the canonical basis order
    rank = {alpha: i for i, alpha in enumerate(enumerate_multi_indices(P.domain_dim, P.degree))}
    for terms in json.loads(text)["components"]:
        order = [rank[tuple(t["alpha"])] for t in terms]
        assert order == sorted(order)


def test_rationals_travel_as_num_den_strings():
    P = PolyMap((HomPoly(2, 1, {(1, 0): Fraction(-2, 3)}),))
    obj = polymap_to_obj(P)
    assert obj["components"][0][0]["value"] == "-2/3"


def test_dumps_is_byte_stable():
    rng = sampling.rng(7, "stable")
    P = sampling.random_polymap(rng, 3, 2, 2)
    assert polymap_dumps(P) == polymap_dumps(P)
    # same map built with coefficients inserted in a different order
    comps = []
    for c in P.components:
        items = sorted(c.coeffs.items())
        comps.append(HomPoly(3, 2, dict(items)))
    assert polymap_dumps(PolyMap(tuple(comps))) == polymap_dumps(P)


def test_from_obj_validates_shape():
    P = PolyMap((HomPoly(2, 1, {(1, 0): Fraction(1)}),))
    obj = polymap_to_obj(P)
    missing = dict(obj)
    del missing["degree"]
    with pytest.raises(DimensionError):
        polymap_from_obj(missing)
    wrong_count = dict(obj)
    wrong_count["codomain_dim"] = 2
    with pytest.raises(DimensionError):
        polymap_from_obj(wrong_count)
    bad_field = dict(obj)
    bad_field["field"] = "f32"
    with pytest.raises(FieldError):
        polymap_from_obj(bad_field)


def test_strict_scalar_parsing():
    P = PolyMap((HomPoly(2, 1, {(1, 0): Fraction(1)}),))
    obj = polymap_to_obj(P)
    obj["components"][0][0]["value"] = 0.5  # number where "num/den" expected
    with pytest.raises(FieldError):
        polymap_from_obj(obj)
    obj2 = polymap_to_obj(PolyMap((HomPoly(2, 1, {(1, 0): 1.0}, F64),)))
    obj2["components"][0][0]["value"] = "1/2"  # string where number expected
    with pytest.raises(FieldError):
        polymap_from_obj(obj2)


def test_sha256_frozen():
    assert sha256_hex(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_materialized_obj_carries_provenance():
    rng = sampling.rng(11, "mat")
    P = sampling.random_polymap(rng, 2, 2, 1)
    mat = materialize_adjoint(P, 2, 1)
    raw = polymap_dumps(P).encode()
    obj = materialized_to_obj(mat, sha256_hex(raw))
    assert obj["provenance"]["op"] == "delta"
    assert obj["provenance"]["n"] == 2
    assert obj["provenance"]["k"] == 1
    assert obj["provenance"]["source"] == sha256_hex(raw)
    # the embedded polymap is itself loadable
    clean = {k: v for k, v in obj.items() if k != "provenance"}
    assert polymap_from_obj(clean) == mat.polymap


def test_linearmap_obj_shape():
    rng = sampling.rng(13, "lin")
    P = sampling.random_polymap(rng, 2, 2, 2)
    M = adjoint_matrix(P, 1)
    obj = linearmap_to_obj(M)
    assert obj["rows"] == M.rows and obj["cols"] == M.cols
    assert len(obj["entries"]) == M.rows
    assert all(len(r) == M.cols for r in obj["entries"])
    json.dumps(obj)  # must be serializable as-is


def test_expansion_obj_shape():
    rng = sampling.rng(17, "exp")
    p = sampling.random_hompoly(rng, 2, 2)
    P = PolyMap((p, p.scale(Fraction(2))))
    exp = expand_adjoint(finite_rank_rep(P), 2, 1)
    obj = expansion_to_obj(exp)
    assert obj["n"] == 2 and obj["k"] == 1
    assert len(obj["terms"]) == len(exp.terms)
    for t_obj, t in zip(obj["terms"], exp.terms):
        assert t_obj["theta"] == f"{t.theta.numerator}/{t.theta.denominator}"
        assert "theta_factored" in t_obj
        assert "psi" in t_obj
    json.dumps(obj)
