"""Tests for two-sided composition operators, their rank-one building blocks
and the exact factorization identities."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from polyadjoint import (
    CompositionInstance,
    F64,
    HomPoly,
    NormConfig,
    PolyMap,
    adjoint_apply,
    check_factorization_identities,
    check_linear_recovery,
    check_recovery_identities,
    check_two_sided_norm,
    compose_scalar,
    compose_three,
    enumerate_multi_indices,
    normalization_witness,
    rank_one_map,
)
from polyadjoint.errors import (
    CapacityError,
    DegreeError,
    DimensionError,
    FieldError,
    PreconditionError,
    SearchBudgetError,
)
from polyadjoint import composition, norms, sampling, suites


def nonzero_polymap(rng, d, e, m):
    P = sampling.random_polymap(rng, d, e, m)
    while P.is_zero:
        P = sampling.random_polymap(rng, d, e, m)
    return P


def test_compose_three_pointwise_oracle():
    rng = sampling.rng(3, "three")
    for (s, m, r) in ((1, 2, 1), (2, 1, 2), (2, 2, 1)):
        B = sampling.random_polymap(rng, 2, 2, s)
        R = sampling.random_polymap(rng, 2, 2, r)
        inst = CompositionInstance(R, B, m)
        P = sampling.random_polymap(rng, 2, 2, m)
        S = compose_three(inst, P)
        assert S.degree == s * m * r
        for _ in range(5):
            x = sampling.random_point(rng, 2)
            assert S.eval_map(x) == R.eval_map(P.eval_map(B.eval_map(x)))


def test_compose_three_validates_middle_degree():
    rng = sampling.rng(5, "validate")
    B = sampling.random_polymap(rng, 2, 2, 1)
    R = sampling.random_polymap(rng, 2, 2, 1)
    inst = CompositionInstance(R, B, 2)
    wrong = sampling.random_polymap(rng, 2, 2, 3)
    with pytest.raises(DegreeError):
        compose_three(inst, wrong)
    wrong_dims = sampling.random_polymap(rng, 3, 2, 2)
    with pytest.raises(DimensionError):
        compose_three(inst, wrong_dims)


def test_rank_one_map_values():
    rng = sampling.rng(7, "rank-one")
    q = sampling.random_hompoly(rng, 2, 2)
    b = (Fraction(2), Fraction(-1), Fraction(3))
    M = rank_one_map(q, b)
    assert M.codomain_dim == 3
    for _ in range(5):
        x = sampling.random_point(rng, 2)
        v = q.eval(x)
        assert M.eval_map(x) == (2 * v, -v, 3 * v)


def test_normalization_witness_property():
    rng = sampling.rng(13, "witness")
    for _ in range(10):
        B = nonzero_polymap(rng, 2, 2, 2)
        phi, z = normalization_witness(B)
        assert phi.eval(B.eval_map(z)) == 1
    with pytest.raises(SearchBudgetError):
        normalization_witness(PolyMap.zero(2, 2, 2))


def test_normalization_witness_refuses_an_f64_map():
    # 1/w is not a double in general: on this map the f64 witness read
    # phi(B(z)) = 0.9999999999999999, which the recovery check refused
    B = sampling._random_f64_map(sampling._np_rng(3, "x"), 2, 2, 1)
    with pytest.raises(FieldError, match="exact only"):
        normalization_witness(B)


def test_recovery_identities_exact():
    rng = sampling.rng(17, "recovery")
    for (s, m, r) in ((1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)):
        B = nonzero_polymap(rng, 2, 2, s)
        R = nonzero_polymap(rng, 2, 2, r)
        inst = CompositionInstance(R, B, m)
        phi, z_a = normalization_witness(B)
        psi, z_b = normalization_witness(R)
        pts = [sampling.random_point(rng, 2) for _ in range(4)]
        forms = [sampling.random_hompoly(rng, 2, 1) for _ in range(4)]
        da, db = check_recovery_identities(inst, phi, z_a, psi, z_b, pts, forms)
        assert da == 0
        assert db == 0


def test_recovery_rejects_bad_normalization():
    rng = sampling.rng(19, "badnorm")
    B = nonzero_polymap(rng, 2, 2, 1)
    R = nonzero_polymap(rng, 2, 2, 1)
    inst = CompositionInstance(R, B, 1)
    phi, z_a = normalization_witness(B)
    psi, z_b = normalization_witness(R)
    with pytest.raises(PreconditionError):
        check_recovery_identities(inst, phi.scale(Fraction(2)), z_a, psi, z_b,
                                  [(Fraction(1), Fraction(0))], [])
    with pytest.raises(DegreeError):
        check_recovery_identities(inst, phi ** 2, z_a, psi, z_b, [], [])


def test_recovery_b_is_the_iterated_adjoint():
    # the (m*r)-fold pullback of a linear form through the inner map
    rng = sampling.rng(23, "adjoint-route")
    B = nonzero_polymap(rng, 2, 2, 2)
    R = nonzero_polymap(rng, 2, 2, 2)
    m = 2
    inst = CompositionInstance(R, B, m)
    psi, z_b = normalization_witness(R)
    phi = sampling.random_hompoly(rng, 2, 1)
    lift = rank_one_map(phi ** m, z_b)
    routed = compose_scalar(psi, compose_three(inst, lift))
    assert routed == adjoint_apply(B, m * R.degree, 1, phi)


def test_linear_recovery_full_space():
    rng = sampling.rng(29, "linear")
    B = nonzero_polymap(rng, 2, 2, 2)
    R = sampling.random_polymap(rng, 2, 2, 1)
    while R.is_zero:
        R = sampling.random_polymap(rng, 2, 2, 1)
    inst = CompositionInstance(R, B, 2)
    psi, z = normalization_witness(R)
    qs = [sampling.random_hompoly(rng, 2, 2) for _ in range(4)]
    assert check_linear_recovery(inst, psi, z, qs) == 0


def test_factorization_identities_exact():
    rng = sampling.rng(31, "factor")
    for (m, r) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        B = nonzero_polymap(rng, 2, 2, 1)
        phi = sampling.random_hompoly(rng, 2, 1)
        b = sampling.random_nonzero_point(rng, 2)
        A = sampling.random_polymap(rng, 2, 2, 1)
        R_mid = sampling.random_polymap(rng, 2, 2, r)
        C = sampling.random_polymap(rng, 2, 2, 1)
        R_scalar = nonzero_polymap(rng, 2, 2, r)
        maps = [sampling.random_polymap(rng, 2, 2, m) for _ in range(3)]
        pts = [sampling.random_point(rng, 2) for _ in range(4)]
        defects = check_factorization_identities(
            m, B, phi, b, A, R_mid, C, R_scalar, maps, pts)
        assert set(defects) == {"rank_one", "sandwich", "unit"}
        assert all(v == 0 for v in defects.values())


def test_factorization_identities_are_exact_on_f64():
    # the unit identity built its R^1 identity and t^m on the rational
    # field, so f64 maps raised FieldError; every product is exact on f64
    rng = sampling._np_rng(3, "x")
    B, A, C = (sampling._random_f64_map(rng, 2, 2, 1) for _ in range(3))
    R_mid, R_scalar = (sampling._random_f64_map(rng, 2, 2, 2) for _ in range(2))
    phi = sampling._random_hompoly_f64(rng, 2, 1)
    b = sampling._random_nonzero_f64_point(rng, 2)
    maps = [sampling._random_f64_map(rng, 2, 2, 2) for _ in range(3)]
    pts = [sampling._random_nonzero_f64_point(rng, 2) for _ in range(4)]
    defects = check_factorization_identities(2, B, phi, b, A, R_mid, C, R_scalar, maps, pts)
    assert defects == {"rank_one": 0.0, "sandwich": 0.0, "unit": 0.0}


def _first_component_scaled(S: PolyMap) -> PolyMap:
    return PolyMap((S.components[0].scale(Fraction(3, 2)), *S.components[1:]))


@pytest.mark.parametrize("name, fault, caught", [
    # b's last coordinate doubled: the rank-one factorization lifts both
    # of its sides through the faulty map and the sandwich never calls it
    ("rank_one_map", lambda real: lambda q, b: real(q, (*b[:-1], 2 * b[-1])),
     {"recovery_a", "recovery_b", "unit", "linear_recovery"}),
    ("compose_three", lambda real: lambda inst, P: _first_component_scaled(real(inst, P)),
     {"recovery_a", "recovery_b", "rank_one", "sandwich", "unit", "linear_recovery"}),
], ids=["rank-one-map", "compose-three"])
def test_each_fault_is_caught_by_its_factorization_defects(monkeypatch, name, fault, caught):
    # the shared routes must not blind any identity that caught the fault
    monkeypatch.setattr(composition, name, fault(getattr(composition, name)))
    res = suites.claim_factorizations(suites.SuiteConfig(
        seed=5, dims=(2,), max_m=2, max_n=2, max_k=2, max_r=2, max_s=2, trials=1,
        field="rational"))
    assert {key for key, v in res.details.items() if v != "0/1"} == caught


def test_two_sided_norm_bound():
    rng = np.random.default_rng(37)
    basis1 = enumerate_multi_indices(2, 1)
    basis2 = enumerate_multi_indices(2, 2)

    def f64_map(deg):
        basis = basis1 if deg == 1 else basis2
        return PolyMap(tuple(
            HomPoly(2, deg,
                    dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))),
                    F64)
            for _ in range(2)))

    # the instances share one memo, as a claim lends them, to the same bits
    memo: dict = {}
    for (kr, mp, nq) in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 1, 2)):
        maps = f64_map(kr), f64_map(mp), f64_map(nq)
        [rep] = check_two_sided_norm([maps], NormConfig(seed=37), memo=memo)
        assert [rep] == check_two_sided_norm([maps], NormConfig(seed=37))
        assert rep.passed
        assert rep.details["slack"] >= -1e-9
    # the composites of degree 2 and 4 on R^2 take the circle pass
    assert ("cross-check", 37) in memo


def test_two_sided_bound_with_a_zero_factor_is_zero():
    # |R| |P|^k overflows and |Q| is 0: inf * 0 made the bound NaN, which
    # passed with rel_err 0.  A zero factor bounds the composite by 0
    big = 1e200
    R = PolyMap.from_matrix([[big, 0.0], [0.0, big]], F64)
    P = PolyMap((HomPoly(2, 2, {(2, 0): big}, F64), HomPoly(2, 2, {(0, 2): big}, F64)))
    Q = PolyMap.from_matrix([[0.0, 0.0], [0.0, 0.0]], F64)
    [rep] = check_two_sided_norm([(R, P, Q)], NormConfig(seed=3))
    assert (rep.passed, rep.lhs, rep.rhs, rep.rel_err) == (True, 0.0, 0.0, 0.0)
    assert rep.details["slack"] == 0.0


def test_two_sided_bound_past_the_largest_double_is_a_size_cap():
    # |R| |P| = 2e400 overflows: the bound was inf and the check failed
    # with a NaN error; R o P is zero, as its two terms cancel exactly
    Q = PolyMap.from_matrix([[1.0, 0.0], [0.0, 1.0]], F64)
    # and below the smallest normal double, where 2e-400 underflows to 0
    for scale in (1e200, 1e-200):
        R = PolyMap.from_matrix([[scale, -scale]], F64)
        P = PolyMap((HomPoly(2, 2, {(2, 0): scale}, F64), HomPoly(2, 2, {(2, 0): scale}, F64)))
        with pytest.raises(CapacityError, match="does not fit a double"):
            check_two_sided_norm([(R, P, Q)], NormConfig(seed=3))


def test_two_sided_bound_refuses_a_batch_with_a_bad_triple_before_any_sup_norm(monkeypatch):
    # the last triple cannot be composed: nothing is normed
    def no_sup_norm(*args, **kwargs):
        raise AssertionError("a sup norm ran")
    monkeypatch.setattr(norms, "sup_norms", no_sup_norm)
    monkeypatch.setattr(composition, "sup_norms", no_sup_norm)
    square = PolyMap.from_matrix([[1.0, 2.0], [0.5, -1.0]], F64)
    wide = PolyMap.from_matrix([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]], F64)
    with pytest.raises(DimensionError, match="not composable"):
        check_two_sided_norm([(square, square, square), (square, square, wide),
                              (square, wide, square)], NormConfig(seed=3))


def test_two_sided_bound_batch_equals_its_one_instance_calls():
    rng = np.random.default_rng(43)

    def f64_map(deg):
        basis = enumerate_multi_indices(2, deg)
        return PolyMap(tuple(HomPoly(2, deg, dict(zip(basis, map(float, rng.standard_normal(
            len(basis))))), F64) for _ in range(2)))
    triples = [tuple(map(f64_map, degs)) for degs in ((1, 1, 1), (2, 1, 2), (1, 2, 1), (1, 1, 1))]
    cfg = NormConfig(seed=43)
    assert check_two_sided_norm(triples, cfg) == [check_two_sided_norm([t], cfg)[0]
                                                  for t in triples]
