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
    integer_points,
    normalization_witness,
    rank_one_map,
)
from polyadjoint.errors import (
    DegreeError,
    DimensionError,
    PreconditionError,
    SearchBudgetError,
)
from polyadjoint import sampling


def nonzero_polymap(rng, d, e, m):
    P = sampling.random_polymap(rng, d, e, m)
    while P.is_zero:
        P = sampling.random_polymap(rng, d, e, m)
    return P


def find_normalizer(R: PolyMap):
    """(psi, z) with psi linear and psi(R(z)) = 1."""
    for z in integer_points(R.domain_dim, 500):
        w = R.eval_map(z)
        for i, wi in enumerate(w):
            if wi != 0:
                coeffs = [Fraction(0)] * R.codomain_dim
                coeffs[i] = Fraction(1) / wi
                return HomPoly.linear_form(coeffs), z
    raise AssertionError("test map is zero")


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
    q = sampling.random_nonzero_hompoly(rng, 2, 2)
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


def test_recovery_identities_exact():
    rng = sampling.rng(17, "recovery")
    for (s, m, r) in ((1, 1, 1), (2, 1, 2), (1, 2, 1), (2, 2, 2)):
        B = nonzero_polymap(rng, 2, 2, s)
        R = nonzero_polymap(rng, 2, 2, r)
        inst = CompositionInstance(R, B, m)
        phi, z_a = normalization_witness(B)
        psi, z_b = find_normalizer(R)
        pts = [sampling.random_point(rng, 2) for _ in range(4)]
        forms = [sampling.random_nonzero_hompoly(rng, 2, 1) for _ in range(4)]
        da, db = check_recovery_identities(inst, phi, z_a, psi, z_b, pts, forms)
        assert da == 0
        assert db == 0


def test_recovery_rejects_bad_normalization():
    rng = sampling.rng(19, "badnorm")
    B = nonzero_polymap(rng, 2, 2, 1)
    R = nonzero_polymap(rng, 2, 2, 1)
    inst = CompositionInstance(R, B, 1)
    phi, z_a = normalization_witness(B)
    psi, z_b = find_normalizer(R)
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
    psi, z_b = find_normalizer(R)
    phi = sampling.random_nonzero_hompoly(rng, 2, 1)
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
    psi, z = find_normalizer(R)
    qs = [sampling.random_hompoly(rng, 2, 2) for _ in range(4)]
    assert check_linear_recovery(inst, psi, z, qs) == 0


def test_factorization_identities_exact():
    rng = sampling.rng(31, "factor")
    for (m, r) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        B = nonzero_polymap(rng, 2, 2, 1)
        phi = sampling.random_nonzero_hompoly(rng, 2, 1)
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

    for (kr, mp, nq) in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 1, 2)):
        rep = check_two_sided_norm(f64_map(kr), f64_map(mp), f64_map(nq),
                                   NormConfig(seed=37))
        assert rep.passed
        assert rep.details["slack"] >= -1e-9
