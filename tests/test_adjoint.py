"""Tests for the adjoint proper: pullbacks, materialization, the evaluation
embedding and the exact identities tying them together."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from polyadjoint import (
    F64,
    RATIONAL,
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
    polymap_dumps,
)
from polyadjoint.algebra import _built, map_powers
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


def test_materialize_reads_its_products_from_the_map_memo(monkeypatch):
    # every coefficient of c^mu is P^g for g = sum_beta mu_beta beta, which
    # P's own memo keeps, so materializing again on the same P multiplies
    # nothing
    P = sampling.random_polymap(sampling.rng(13, "materialize-memo"), 3, 3, 2)
    made = []
    mul = HomPoly.__mul__

    def counting(self, other):
        made.append(None)
        return mul(self, other)

    monkeypatch.setattr(HomPoly, "__mul__", counting)
    first = materialize_adjoint(P, 2, 2)
    assert made
    made.clear()
    assert materialize_adjoint(P, 2, 2) == first
    assert made == []


@pytest.mark.parametrize("field", [RATIONAL, F64])
def test_materialized_components_equal_their_validated_copies(field):
    # the components skip re-validation: each rational one must be what the
    # public constructor would have built from the same data, key order
    # included; each f64 one is the rational component of the same map
    # until read, and its view rounds each coefficient of it once
    rng = sampling.rng(19, "trusted")
    for (d, e, m, n, k) in ((2, 2, 2, 2, 1), (2, 3, 1, 3, 2), (3, 2, 2, 1, 2)):
        P = sampling.random_polymap(rng, d, e, m).as_field(field)
        mat = materialize_adjoint(P, n, k)
        exact = materialize_adjoint(P.as_field(RATIONAL), n, k)
        kind = Fraction if field == RATIONAL else float
        for c, want in zip(mat.polymap.components, exact.polymap.components):
            assert all(type(v) is kind and v != 0 for v in c.coeffs.values())
            assert c.as_field(RATIONAL) == want
            assert c.coeffs == {a: kind(v) for a, v in want.coeffs.items()}
            if field == RATIONAL:
                copy = HomPoly(c.domain_dim, c.degree, dict(c.coeffs), field)
                assert copy == c
                assert list(copy.coeffs) == list(c.coeffs)


def _two_pass_components(P: PolyMap, n: int, k: int) -> list[HomPoly]:
    """The reference for materialize_adjoint's components: every term
    (mu, w n_gamma, D_mu) is staged in its component's list first, and each
    component is then put over the lcm of its own D_mu."""
    q_basis = enumerate_multi_indices(P.codomain_dim, k)
    out_basis = enumerate_multi_indices(P.domain_dim, P.degree * n * k)
    mus = enumerate_multi_indices(len(q_basis), n)
    gs = [tuple(sum(c * b for c, b in zip(mu, col)) for col in zip(*q_basis)) for mu in mus]
    parts = {gamma: [] for gamma in out_basis}
    for mu, g_mu in zip(mus, map_powers(P, gs)):
        den, nums = g_mu._terms
        for gamma, v in nums.items():
            parts[gamma].append((mu, v * multinomial(n, mu), den))
    comps = []
    for part in parts.values():
        den = math.lcm(*[dm for _, _, dm in part])
        comps.append(_built(len(q_basis), n, {mu: v * (den // dm) for mu, v, dm in part},
                            P.field, den))
    return comps


def _same_components(got: list[HomPoly], want: list[HomPoly]) -> None:
    """Equal integer forms, key order included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.field == w.field and g._terms[0] == w._terms[0]
        assert list(g._terms[1]) == list(w._terms[1])
        assert g._terms == w._terms


def test_materialized_components_equal_the_two_pass_reference():
    rng = sampling.rng(23, "one-pass")
    for d, e, n, k in itertools.product(range(1, 5), range(1, 5), range(1, 4), range(1, 4)):
        m = 1 + (d + e + n + k) % 2
        if math.comb(math.comb(e + k - 1, k) + n - 1, n) * math.comb(d + m * n * k - 1,
                                                                    m * n * k) > 20_000:
            continue
        P = sampling.random_polymap(rng, d, e, m)
        for field in (RATIONAL, F64):
            Pf = P.as_field(field)
            _same_components(list(materialize_adjoint(Pf, n, k).polymap.components),
                             _two_pass_components(Pf, n, k))
    # components over different denominators, and one (x2^2) with no term
    P = PolyMap((HomPoly(2, 2, {(2, 0): Fraction(1, 2), (1, 1): Fraction(-5, 3)}),
                 HomPoly(2, 2, {(2, 0): Fraction(7, 4), (1, 1): Fraction(1, 9)})))
    for n, k in itertools.product(range(1, 4), range(1, 4)):
        mat = materialize_adjoint(P, n, k)
        comps = mat.polymap.components
        _same_components(list(comps), _two_pass_components(P, n, k))
        assert comps[-1].is_zero and len({c._terms[0] for c in comps}) > 2
        for _ in range(3):
            q = sampling.random_hompoly(rng, 2, k)
            assert mat.apply_to(q) == adjoint_apply(P, n, k, q)
    # f64 maps at 2^300 and 2^-300: with nk <= 3 every coefficient, near
    # 2^(+-900), is still a normal double
    for scale in (2.0 ** 300, 2.0 ** -300):
        Pf = sampling.random_polymap(rng, 3, 2, 1).as_field(F64).scale(scale)
        for n, k in ((1, 1), (2, 1), (1, 3), (3, 1)):
            _same_components(list(materialize_adjoint(Pf, n, k).polymap.components),
                             _two_pass_components(Pf, n, k))


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


def test_f64_evaluation_embedding_refuses_values_below_the_smallest_double():
    # x1^2 = 1e-400 rounds to zero, although neither factor is zero: the
    # embedding holds it exactly, and refuses it where it is read
    for x, m, n in (([1e-200, 1.0], 1, 2), ([1.0, 1e-200], 1, 2), ([1e-100, 1.0], 3, 2),
                    ([1e-200, 1e-200], 2, 1)):
        J = evaluation_embedding(x, m, n, field=F64)
        for read in (lambda: J.coeffs, lambda: polymap_dumps(PolyMap((J,)))):
            with pytest.raises(CapacityError, match="below the smallest double"):
                read()
    # a zero coordinate gives true zeros, which are dropped
    assert evaluation_embedding([0.0, 1.0], 1, 2, field=F64).coeffs == {(0, 0, 1): 1.0}
    assert evaluation_embedding([0.0, 0.0], 2, 2, field=F64).is_zero
    assert evaluation_embedding([0.0, 1e-200], 1, 1, field=F64).coeffs == {(0, 1): 1e-200}
    # values that stay above zero, subnormal or not, are kept
    J = evaluation_embedding([1e-160, 1.0], 1, 2, field=F64)
    assert sorted(J.coeffs) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert 0.0 < J.coeffs[(1, 0, 0)] < 1e-300


@pytest.mark.parametrize("x, m, n", [
    ([1e200, 1.0], 1, 2),     # x1^2 = 1e400, a power of a coordinate
    ([1e160, 1e160], 2, 1),   # (x1)^2 = 1e320 among the m-th powers
    ([1e154, 1e154], 2, 1),   # 2 x1 x2 = 2e308, just past it
], ids=["power-of-coordinate", "power-of-monomial", "product"])
def test_f64_evaluation_embedding_refuses_values_past_the_largest_double(x, m, n):
    # the embedding holds the value exactly, and refuses it where it is read
    J = evaluation_embedding(x, m, n, field=F64)
    for read in (lambda: J.coeffs, lambda: polymap_dumps(PolyMap((J,))),
                 lambda: J.eval([1.0] * J.domain_dim)):
        with pytest.raises(CapacityError, match="past the largest double"):
            read()


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


@pytest.mark.parametrize("d", [0, -1])
def test_integer_points_refuse_fewer_than_one_variable(d):
    # R^0 has one point, (), after which every shell is empty and the
    # stream never reached its budget; d = -1 ended in itertools' message
    with pytest.raises(DimensionError, match=rf"^need at least one variable, got d={d}$"):
        next(integer_points(d))


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
