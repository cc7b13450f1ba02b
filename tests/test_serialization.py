"""Round-trip and strictness tests for the JSON interchange formats."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyadjoint import (
    F64,
    RATIONAL,
    HomPoly,
    PolyMap,
    enumerate_multi_indices,
    expand_adjoint,
    finite_rank_rep,
    materialize_adjoint,
    polymap_dumps,
    polymap_from_obj,
    polymap_loads,
    sha256_hex,
)
from polyadjoint.errors import CapacityError, DimensionError, FieldError
from polyadjoint import cli, sampling, serialization
from polyadjoint.serialization import expansion_to_obj, materialized_to_obj


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
    obj = json.loads(polymap_dumps(P))
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
    obj = json.loads(polymap_dumps(P))
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
    obj = json.loads(polymap_dumps(P))
    obj["components"][0][0]["value"] = 0.5  # number where "num/den" expected
    with pytest.raises(FieldError):
        polymap_from_obj(obj)
    obj2 = json.loads(polymap_dumps(PolyMap((HomPoly(2, 1, {(1, 0): 1.0}, F64),))))
    obj2["components"][0][0]["value"] = "1/2"  # string where number expected
    with pytest.raises(FieldError):
        polymap_from_obj(obj2)


@pytest.mark.parametrize("text", ["1_000/3", " 2/ 3 ", "2/-3", "\u0661/\u0662"],
                         ids=["underscore", "spaces", "negative-denominator", "arabic-indic"])
def test_rationals_take_ascii_digits_only(text):
    # int() would take each of these
    obj = json.loads(polymap_dumps(PolyMap((HomPoly(2, 1, {(1, 0): Fraction(1)}),))))
    obj["components"][0][0]["value"] = text
    with pytest.raises(FieldError):
        polymap_from_obj(obj)


def test_rationals_need_not_be_in_lowest_terms():
    obj = json.loads(polymap_dumps(PolyMap((HomPoly(2, 1, {(1, 0): Fraction(1)}),))))
    obj["components"][0][0]["value"] = "2/4"
    assert polymap_from_obj(obj).components[0].coefficient((1, 0)) == Fraction(1, 2)


def test_exponents_are_stored_as_ints():
    # 1.0 and True hash like 1 but print otherwise: the constructor refuses
    # the one and stores the other as 1, so the file loads back
    with pytest.raises(DimensionError):
        HomPoly(2, 1, {(1.0, 0): Fraction(1)})
    P = PolyMap((HomPoly(2, 1, {(True, False): Fraction(1)}),))
    assert json.loads(polymap_dumps(P))["components"][0][0]["alpha"] == [1, 0]
    assert polymap_loads(polymap_dumps(P)) == P


def test_sha256_frozen():
    assert sha256_hex(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_materialized_obj_carries_provenance():
    rng = sampling.rng(11, "mat")
    P = sampling.random_polymap(rng, 2, 2, 1)
    mat = materialize_adjoint(P, 2, 1)
    raw = polymap_dumps(P).encode()
    obj = json.loads(serialization._json_dumps(materialized_to_obj(mat, sha256_hex(raw))))
    assert obj["provenance"]["op"] == "delta"
    assert obj["provenance"]["n"] == 2
    assert obj["provenance"]["k"] == 1
    assert obj["provenance"]["source"] == sha256_hex(raw)
    # the embedded polymap is itself loadable
    clean = {k: v for k, v in obj.items() if k != "provenance"}
    assert polymap_from_obj(clean) == mat.polymap


def test_expansion_obj_shape():
    rng = sampling.rng(17, "exp")
    p = sampling.random_hompoly(rng, 2, 2)
    P = PolyMap((p, p.scale(Fraction(2))))
    exp = expand_adjoint(finite_rank_rep(P), 2, 1)
    obj = json.loads(serialization._json_dumps(expansion_to_obj(exp)))
    assert obj["n"] == 2 and obj["k"] == 1
    assert len(obj["terms"]) == len(exp.terms)
    for t_obj, t in zip(obj["terms"], exp.terms):
        assert t_obj["theta"] == f"{t.theta.numerator}/{t.theta.denominator}"
        assert "theta_factored" in t_obj
        assert "psi" in t_obj


# -- the JSON writer ------------------------------------------------------------

def stdlib_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# small ints and bools collide under == and hash, so lists that compare
# equal but print differently meet in one tree
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 2) | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([1.0, -0.0, 5e-324, 1e16]) | st.text(max_size=4))
# short lists over look-alike values, so that equal and look-alike lists
# meet at one depth and at different depths
FLAT_LISTS = st.lists(st.sampled_from([0, 1, True, 1.0]), max_size=2)
ROW_KEYS = st.sampled_from(["alpha", "value", "%s", "é"])
JSON_TREES = st.recursive(
    JSON_LEAVES | FLAT_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | ROW_KEYS, inner, max_size=4)
    | st.lists(FLAT_LISTS, min_size=2, max_size=6)
    | inner.map(lambda v: [v, [v]])  # one value at two depths
    # dicts drawn from few keys, so that many share one key set, as terms do
    | st.lists(st.dictionaries(ROW_KEYS, inner, min_size=1, max_size=2), max_size=4),
    max_leaves=20)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(JSON_TREES)
def test_json_writer_matches_stdlib(obj):
    assert serialization._json_dumps(obj) == stdlib_dumps(obj)


@pytest.mark.parametrize("obj", [
    # three look-alike lists at the same depth
    [[1, 1], [1, True], [1.0, 1], [1, 1]],
    [[True, 1], [1, 1], [1, 1.0]],
    # one flat list at two depths
    [[0, 2, 1], [[0, 2, 1]], {"a": [0, 2, 1], "b": [[0, 2, 1]]}],
    # term-like dicts: a different key set, a nested list, empty containers
    [{"alpha": [1, 0], "value": "1/2"}, {"alpha": [0, 1], "other": "3/1"}],
    [{"alpha": [1, 0], "value": "1/2"}, {"alpha": [[0, 1]], "value": "3/1"}],
    [{"alpha": [], "value": "1/2"}, {"alpha": [0, 1], "value": {}}],
    [{"alpha": [1, 0], "value": "1/2"}, {}],
    [{}, {"alpha": [1, 0]}],
    [{"alpha": [1, 0], "value": 1}, [1, 0]],
    [{"%s": 1, "%%": [2, 3], "%d": "%"}, {"%s": 4, "%%": [], "%d": None}],
    # tuples render as lists
    (1, (2, 3), {"t": (True, None)}, ()),
    # strings: non-ASCII, control characters, quotes and backslashes
    ["é中\U0001f600", "\x00\x1f\x7f\n\t", '"\\', ""],
    {"é": 1, "\n": 2, "": 3, "b": 4, "a": 5},
    # floats at the edges of repr
    [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, -1e-7, 2.0 ** 53],
    # scalars at the top level and big integers
    "x", 0, 1.5, None, True, [], {}, [10 ** 100, -(10 ** 30)],
], ids=lambda obj: repr(obj)[:40])
def test_json_writer_named_cases(obj):
    assert serialization._json_dumps(obj) == stdlib_dumps(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [
    lambda x: x,
    lambda x: [1, x],
    lambda x: {"alpha": [0, 1], "value": x},
    lambda x: [{"alpha": [0, 1], "value": "1/1"}, {"alpha": [1, 0], "value": x}],
    lambda x: [{"alpha": [0, x], "value": "1/1"}],
], ids=["top", "flat-list", "dict", "row-value", "row-list-item"])
def test_json_writer_refuses_non_finite_floats(bad, where):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        serialization._json_dumps(where(bad))


@pytest.mark.parametrize("obj", [{1: "a"}, [Fraction(1, 2)], {"a": {1, 2}}])
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        serialization._json_dumps(obj)


def test_polymap_dumps_refuses_nan():
    # the public constructor refuses non-finite values, and an f64 result
    # past the largest double, which f64 arithmetic once carried as inf and
    # then NaN as inf - inf, is refused where the writer reads it; a
    # polynomial forged to hold either is still not written, as
    # polymap_loads would refuse the file
    with pytest.raises(CapacityError, match="past the largest double"):
        polymap_dumps(PolyMap((HomPoly(2, 1, {(1, 0): 1e308}, F64).scale(10.0),)))
    for value in (math.inf, math.nan):
        poly = object.__new__(HomPoly)
        poly.__dict__.update(domain_dim=2, degree=1, field=F64, coeffs={(1, 0): value},
                             _terms=(1, {(1, 0): value}))
        with pytest.raises(ValueError):
            polymap_dumps(PolyMap((poly,)))


# -- the writer against a dict-form oracle --------------------------------------

def oracle_terms(p: HomPoly) -> list[dict]:
    """The term list of p built from its Fraction or float coefficients."""
    def value(c):
        return f"{c.numerator}/{c.denominator}" if p.field == RATIONAL else c
    return [{"alpha": list(alpha), "value": value(p.coeffs[alpha])}
            for alpha in sorted(p.coeffs, reverse=True)]


def oracle_map_text(P: PolyMap) -> str:
    return stdlib_dumps({"codomain_dim": P.codomain_dim,
                         "components": [oracle_terms(c) for c in P.components],
                         "degree": P.degree, "domain_dim": P.domain_dim, "field": P.field})


BIG = st.integers(2 ** 64, 2 ** 80)
ORACLE_VALUES = {
    # numerators and denominators past 2^64, and small ones that share factors
    RATIONAL: st.builds(Fraction, st.integers(-12, 12) | BIG | BIG.map(lambda n: -n),
                        st.integers(1, 12) | BIG),
    # subnormals and values near the top of the double range
    F64: st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([5e-324, -1e-310, 2.2250738585072014e-308,
                       1.7976931348623157e308, -1e308, 9.999999999999999e307]),
}


@st.composite
def oracle_maps(draw):
    field = draw(st.sampled_from((RATIONAL, F64)))
    d, e, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    basis = enumerate_multi_indices(d, m)
    # an empty dict, or one whose values are all zero, is a zero component
    coeffs = st.dictionaries(st.sampled_from(basis),
                             ORACLE_VALUES[field] | st.just(0), max_size=6)
    return PolyMap(tuple(HomPoly(d, m, draw(coeffs), field) for _ in range(e)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(oracle_maps(), oracle_maps())
def test_polymap_dumps_matches_a_dict_form_oracle(P, Q):
    assert polymap_dumps(P) == oracle_map_text(P)
    # polynomials at several depths of one tree, so that one multi-index
    # meets the writer at two depths and twice at one
    tree = {"a": list(Q.components), "b": [[P.components[0]], {"c": P.components[-1]}],
            "d": P.components[0]}
    oracle = {"a": [oracle_terms(c) for c in Q.components],
              "b": [[oracle_terms(P.components[0])], {"c": oracle_terms(P.components[-1])}],
              "d": oracle_terms(P.components[0])}
    assert serialization._json_dumps(tree) == stdlib_dumps(oracle)


@st.composite
def request_maps(draw):
    d, e, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    basis = enumerate_multi_indices(d, m)
    values = st.builds(Fraction, st.integers(-9, 9).filter(bool) | BIG, st.integers(1, 6))
    comps = tuple(HomPoly(d, m, draw(st.dictionaries(st.sampled_from(basis), values,
                                                     min_size=1, max_size=4)))
                  for _ in range(e))
    return PolyMap(comps)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(request_maps(), st.integers(1, 2), st.integers(1, 2))
def test_cli_outputs_are_stdlib_json(P, n, k):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "map.json"), os.path.join(tmp, "out.json")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(polymap_dumps(P))
        for command in ("adjoint", "decompose"):
            assert cli.main([command, src, "--n", str(n), "--k", str(k), "--out", out]) == 0
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            assert text == stdlib_dumps(json.loads(text)) + "\n"


# -- integers past the interpreter's int/str digit limit ----------------------

@contextlib.contextmanager
def digit_limit(n: int):
    """The interpreter's int/str digit limit set to n (0 lifts it) for the
    block, where it has one (CPython from 3.11 and late 3.10 releases)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def current_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@st.composite
def long_ints(draw):
    """Ints of up to about 12,000 digits, both signs, with runs of zeros and
    powers of ten and their neighbours among them."""
    k = draw(st.integers(0, 12000))
    head = draw(st.integers(0, 2 ** 64))
    n = draw(st.sampled_from((head * 10 ** k + draw(st.integers(0, 10 ** 30)),
                              10 ** k, 10 ** k - 1, 10 ** k + 1)))
    return n * draw(st.sampled_from((1, -1)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(long_ints(), st.sampled_from((640, 4300)))
def test_writer_prints_ints_past_the_digit_limit(n, limit):
    with digit_limit(0):
        expected = str(n)
    with digit_limit(limit):
        before = current_limit()
        assert serialization._int_text(n) == expected
        assert serialization._json_dumps({"n": n, "r": [n]}) == (
            '{\n  "n": ' + expected + ',\n  "r": [\n    ' + expected + "\n  ]\n}")
        assert current_limit() == before


@pytest.mark.parametrize("command", ["adjoint", "decompose"])
def test_request_with_a_result_past_the_digit_limit_exits_0(tmp_path, command):
    # x |-> c*x with c of 1000 digits: the adjoint's coefficient c^5 has 5000
    c = 10 ** 999 + 7
    src, out = tmp_path / "map.json", tmp_path / "out.json"
    src.write_text(polymap_dumps(PolyMap((HomPoly(1, 1, {(1,): c}),))))
    with digit_limit(4300), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(src), "--n", "5", "--k", "1", "--out", str(out)])
        assert current_limit() in (4300, None)
    assert code == 0
    obj = json.loads(out.read_text())  # values are strings: no int() of 5000 digits
    if command == "adjoint":
        num, den = obj["components"][0][0]["value"].split("/")
        with digit_limit(0):
            assert (int(num), int(den)) == (c ** 5, 1)


@pytest.mark.parametrize("field, value", [
    ("rational", '"' + "9" * 5000 + '/1"'),
    ("rational", '"1/' + "7" * 5000 + '"'),
    ("rational", '"-' + "9" * 5000 + '/1"'),
    ("f64", "9" * 5000),
])
def test_reading_a_number_past_the_digit_limit_is_a_size_cap(tmp_path, field, value):
    if current_limit() is None:
        pytest.skip("this interpreter has no int/str digit limit")
    text = ('{"domain_dim": 1, "codomain_dim": 1, "degree": 1, "field": "%s", '
            '"components": [[{"alpha": [1], "value": %s}]]}' % (field, value))
    src = tmp_path / "map.json"
    src.write_text(text)
    err = io.StringIO()
    with digit_limit(4300):
        with pytest.raises(CapacityError, match="5000 digits"):
            polymap_loads(text)
        with contextlib.redirect_stderr(err):
            code = cli.main(["adjoint", str(src), "--n", "1", "--k", "1"])
    assert code == 3
    assert "5000 digits exceeds" in err.getvalue()
