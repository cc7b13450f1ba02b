"""Tests for the adjoint proper: pullbacks, materialization, the evaluation
embedding and the exact identities tying them together."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from polyadjoint import (
    HomPoly,
    PolyMap,
    adjoint_apply,
    composition_identity_defect,
    compose_scalar,
    diagram_defect,
    enumerate_multi_indices,
    evaluation_embedding,
    injectivity_witness,
    integer_points,
    inverse_adjoint_defects,
    materialize_adjoint,
    multinomial,
    nonadditivity_witness,
)
from polyadjoint.errors import (
    CapacityError,
    DegreeError,
    DimensionError,
    PreconditionError,
    SearchBudgetError,
    SingularMatrixError,
)
from polyadjoint import sampling


def test_adjoint_linear_q_is_contraction():
    # k = n = 1 with a linear q: the pullback is sum_i q_i P_i
    rng = sampling.rng(3, "linear-q")
    for _ in range(10):
        P = sampling.random_polymap(rng, 2, 3, 2)
        q = sampling.random_hompoly(rng, 3, 1)
        got = adjoint_apply(P, 1, 1, q)
        coeffs = q.coeff_vector()
        expect = HomPoly.zero(2, 2)
        for c, comp in zip(coeffs, P.components):
            expect = expect + comp.scale(c)
        assert got == expect


def test_adjoint_frozen_square_example():
    # P = (x^2 + y^2) into R^1, q = t, n = 2: (x^2+y^2)^2
    P = PolyMap((HomPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)}),))
    q = HomPoly(1, 1, {(1,): Fraction(1)})
    got = adjoint_apply(P, 2, 1, q)
    assert got.coeffs == {
        (4, 0): Fraction(1), (2, 2): Fraction(2), (0, 4): Fraction(1)}
    assert got.degree == 4


def test_adjoint_is_power_of_composition():
    rng = sampling.rng(7, "power")
    for _ in range(10):
        P = sampling.random_polymap(rng, 2, 2, 2)
        q = sampling.random_hompoly(rng, 2, 2)
        assert adjoint_apply(P, 3, 2, q) == compose_scalar(q, P) ** 3


def test_adjoint_scaling_in_q():
    # q |-> q(P(.))^n is homogeneous of degree n in q
    rng = sampling.rng(11, "q-scale")
    for n in (1, 2, 3):
        P = sampling.random_polymap(rng, 2, 2, 1)
        q = sampling.random_hompoly(rng, 2, 2)
        lam = Fraction(-3, 2)
        assert adjoint_apply(P, n, 2, q.scale(lam)) == \
            adjoint_apply(P, n, 2, q).scale(lam ** n)


def test_adjoint_validates_arguments():
    P = PolyMap((HomPoly(2, 2, {(2, 0): Fraction(1)}),))
    q2 = HomPoly(1, 2, {(2,): Fraction(1)})
    with pytest.raises(DegreeError):
        adjoint_apply(P, 0, 2, q2)
    with pytest.raises(DegreeError):
        adjoint_apply(P, 1, 1, q2)  # k must match deg q
    q_wrong_dim = HomPoly(2, 2, {(2, 0): Fraction(1)})
    with pytest.raises(DimensionError):
        adjoint_apply(P, 1, 2, q_wrong_dim)


def test_materialized_adjoint_agrees_with_direct_application():
    rng = sampling.rng(13, "materialize")
    for (d, e, m, n, k) in ((2, 2, 2, 2, 1), (2, 3, 1, 2, 2), (3, 2, 2, 1, 2)):
        P = sampling.random_polymap(rng, d, e, m)
        mat = materialize_adjoint(P, n, k)
        assert mat.polymap.degree == n
        assert mat.polymap.domain_dim == math.comb(e + k - 1, k)
        assert mat.polymap.codomain_dim == math.comb(d + m * n * k - 1, m * n * k)
        for _ in range(5):
            q = sampling.random_hompoly(rng, e, k)
            assert mat.apply_to(q) == adjoint_apply(P, n, k, q)


def test_materialized_coefficients_are_multinomial_products():
    # single-component P, k = 1: coefficient of c^mu must be
    # multinomial(n, mu) * prod_beta P_beta^mu_beta
    rng = sampling.rng(17, "multinomial")
    P = sampling.random_polymap(rng, 2, 2, 1)
    n = 3
    mat = materialize_adjoint(P, n, 1)
    mus = enumerate_multi_indices(2, n)
    for mu in mus:
        prod = None
        for j, mj in enumerate(mu):
            if mj == 0:
                continue
            f = P.components[j] ** mj
            prod = f if prod is None else prod * f
        w = multinomial(n, mu)
        for i, gamma in enumerate(enumerate_multi_indices(2, n)):
            got = mat.polymap.components[i].coefficient(mu)
            assert got == w * prod.coefficient(gamma)


def test_evaluation_embedding_oracle():
    # J(x) applied to the coefficients of q returns q(x)^m
    rng = sampling.rng(19, "embedding")
    for (m, n) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        x = sampling.random_point(rng, 2)
        J = evaluation_embedding(x, m, n)
        for _ in range(6):
            q = sampling.random_hompoly(rng, 2, n)
            assert J.eval(q.coeff_vector()) == q.eval(x) ** m


def test_evaluation_embedding_zero_point():
    J = evaluation_embedding((Fraction(0), Fraction(0)), 2, 2)
    assert J.is_zero


def test_composition_identity_exact():
    rng = sampling.rng(23, "composition")
    for (m, r, n, k, s) in ((1, 1, 2, 2, 1), (2, 2, 1, 1, 2), (2, 1, 2, 1, 1)):
        for _ in range(8):
            P = sampling.random_polymap(rng, 2, 3, m)
            Q = sampling.random_polymap(rng, 3, 2, r)
            q = sampling.random_hompoly(rng, 2, k)
            x = sampling.random_point(rng, 2)
            assert composition_identity_defect(P, Q, n, k, s, q, x) == 0


def test_composition_identity_detects_mutation():
    # evaluating with a mismatched power must not be silently zero
    rng = sampling.rng(29, "mutation")
    P = sampling.random_polymap(rng, 2, 2, 2)
    Q = sampling.random_polymap(rng, 2, 2, 1)
    q = sampling.random_hompoly(rng, 2, 2)
    x = (Fraction(1), Fraction(1))
    inner = adjoint_apply(Q, 2, 2, q)
    lhs = adjoint_apply(P, 1, inner.degree, inner).eval(x)
    wrong = adjoint_apply(P, 2, inner.degree, inner).eval(x)
    if lhs not in (0, 1):  # squaring changes any value other than 0 or 1
        assert lhs != wrong


def test_diagram_identity_exact():
    rng = sampling.rng(31, "diagram")
    for (m, n, k, r, s) in ((1, 2, 1, 2, 1), (2, 1, 2, 1, 2), (2, 2, 1, 1, 1)):
        for _ in range(8):
            P = sampling.random_polymap(rng, 2, 2, m)
            q = sampling.random_hompoly(rng, 2, k)
            x = sampling.random_point(rng, 2)
            assert diagram_defect(P, n, k, r, s, q, x) == 0


def test_inverse_identity_and_singular_rejection():
    rng = sampling.rng(37, "inverse")
    for d in (2, 3):
        for k in (1, 2, 3):
            u = PolyMap.from_matrix(sampling.random_invertible_matrix(rng, d))
            da, db = inverse_adjoint_defects(u, k)
            assert da.is_zero and db.is_zero
    singular = PolyMap.from_matrix(
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(SingularMatrixError):
        inverse_adjoint_defects(singular, 2)


def test_integer_points_deterministic_prefix():
    pts = []
    for p in integer_points(2):
        pts.append(tuple(int(v) for v in p))
        if len(pts) == 5:
            break
    assert pts == [(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1)]


def test_injectivity_witness_separates():
    rng = sampling.rng(41, "inject")
    for (n, k) in ((1, 1), (1, 3), (3, 1)):
        for _ in range(5):
            P1 = sampling.random_polymap(rng, 2, 2, 2)
            P2 = sampling.random_polymap(rng, 2, 2, 2)
            if P1 == P2:
                continue
            w = injectivity_witness(P1, P2, n, k)
            assert w is not None
            q, x = w
            assert adjoint_apply(P1, n, k, q).eval(x) != \
                adjoint_apply(P2, n, k, q).eval(x)


def test_injectivity_witness_none_for_equal_maps():
    P = sampling.random_polymap(sampling.rng(43, "eq"), 2, 2, 2)
    assert injectivity_witness(P, P, 1, 1) is None


def test_injectivity_requires_odd_power():
    rng = sampling.rng(47, "odd")
    P1 = sampling.random_polymap(rng, 2, 2, 1)
    P2 = sampling.random_polymap(rng, 2, 2, 1)
    with pytest.raises(PreconditionError):
        injectivity_witness(P1, P2, 2, 1)


def test_nonadditivity_witness_found_and_verified():
    for (n, k) in ((2, 1), (1, 2), (2, 2), (3, 2)):
        P, Q, q, x, defect = nonadditivity_witness(1, n, k)
        assert defect != 0
        direct = (adjoint_apply(P + Q, n, k, q).eval(x)
                  - adjoint_apply(P, n, k, q).eval(x)
                  - adjoint_apply(Q, n, k, q).eval(x))
        assert direct == defect


def test_nonadditivity_budget_error_in_additive_case():
    with pytest.raises(SearchBudgetError):
        nonadditivity_witness(1, 1, 1)


def test_materialize_capacity_error_names_space():
    P = sampling.random_polymap(sampling.rng(53, "cap"), 2, 2, 2)
    with pytest.raises(CapacityError) as exc:
        materialize_adjoint(P, 9, 9)
    assert "exceeding" in str(exc.value)
