"""Tests for finite-rank representations and the combinatorial expansion of
the adjoint over them."""
from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest

from polyadjoint import (
    F64,
    HomPoly,
    PolyMap,
    adjoint_apply,
    expand_adjoint,
    expansion_defect,
    finite_rank_rep,
    multilinear_functional,
    polarize,
)
from polyadjoint.errors import DegreeError, DimensionError, FieldError
from polyadjoint import sampling
from polyadjoint.linearization import _eliminate, coefficient_matrix


def rank_l_map(rng, d: int, m: int, l: int) -> PolyMap:
    """A degree-m map of coefficient rank exactly l into R^l."""
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(d, m)
    assert len(basis) >= l
    B = sampling.random_invertible_matrix(rng, l)
    comps = []
    for i in range(l):
        coeffs = {}
        for j in range(l):
            coeffs[basis[j]] = B[i][j]
        comps.append(HomPoly(d, m, coeffs))
    return PolyMap(tuple(comps))


def test_rep_frozen_rank_one():
    p = HomPoly(2, 2, {(2, 0): Fraction(1)})
    P = PolyMap((p, p))
    rep = finite_rank_rep(P)
    assert rep.rank == 1
    assert rep.vectors == ((Fraction(1), Fraction(1)),)
    assert rep.scalars[0] == p


def test_rep_reconstructs_pointwise():
    rng = sampling.rng(3, "reconstruct")
    for l in (1, 2, 3):
        P = rank_l_map(rng, 2, 2, l)
        rep = finite_rank_rep(P)
        assert rep.rank == l
        for _ in range(8):
            x = sampling.random_point(rng, 2)
            assert rep.reconstruct(x) == P.eval_map(x)


def test_rep_of_generic_map():
    rng = sampling.rng(5, "generic")
    P = sampling.random_polymap(rng, 2, 3, 2)
    rep = finite_rank_rep(P)
    for _ in range(8):
        x = sampling.random_point(rng, 2)
        assert rep.reconstruct(x) == P.eval_map(x)


def test_multilinear_functional_restitution_and_linearity():
    rng = sampling.rng(7, "psi")
    q = sampling.random_hompoly(rng, 2, 3)
    v = sampling.random_point(rng, 2)
    assert multilinear_functional([(v, 3)], q) == q.eval(v)
    q2 = sampling.random_hompoly(rng, 2, 3)
    w = sampling.random_point(rng, 2)
    lam = Fraction(5, 3)
    lhs = multilinear_functional([(v, 1), (w, 2)], q + q2.scale(lam))
    rhs = (multilinear_functional([(v, 1), (w, 2)], q)
           + lam * multilinear_functional([(v, 1), (w, 2)], q2))
    assert lhs == rhs


def test_multilinear_functional_validates_multiplicities():
    q = HomPoly(2, 2, {(1, 1): Fraction(1)})
    with pytest.raises(DegreeError):
        multilinear_functional([((Fraction(1), Fraction(0)), 3)], q)
    with pytest.raises(DimensionError):
        multilinear_functional([((Fraction(1),), 2)], q)


def test_expansion_term_count_formula():
    rng = sampling.rng(11, "count")
    for l in (1, 2, 3):
        for k in (1, 2, 3):
            for n in (1, 2):
                P = rank_l_map(rng, 3, 1, l)
                rep = finite_rank_rep(P)
                exp = expand_adjoint(rep, n, k)
                expected = math.comb(math.comb(k + l - 1, l - 1) + n - 1, n)
                assert len(exp.terms) == expected


def test_rep_of_a_rank_deficient_map_with_negative_pivots():
    # P3 = P1 - 2 P2, and both pivots of the elimination are negative: each
    # p_j takes the sign into its numerators, so its denominator is positive
    P1 = HomPoly(3, 2, {(2, 0, 0): Fraction(-3, 2), (1, 1, 0): 2, (0, 1, 1): Fraction(5, 6),
                        (0, 0, 2): -1})
    P2 = HomPoly(3, 2, {(1, 0, 1): Fraction(-1, 3), (0, 2, 0): -4, (0, 1, 1): Fraction(7, 2)})
    P = PolyMap((P1, P2, P1 - P2.scale(2)))
    cm = coefficient_matrix(P)
    a, pivots = _eliminate(cm._rows[1], cm.cols)
    assert [a[j][c] < 0 for j, c in enumerate(pivots)] == [True, True]
    rep = finite_rank_rep(P)
    assert rep.rank == 2
    for p in rep.scalars:
        assert p._terms[0] > 0
        assert p == HomPoly(p.domain_dim, p.degree, dict(p.coeffs))
    rng = sampling.rng(11, "negative-pivots")
    for _ in range(5):
        x = sampling.random_point(rng, 3)
        assert rep.reconstruct(x) == P.eval_map(x)


def test_classical_case_splits_over_vectors():
    # n = k = 1: q(P(x)) = sum_j p_j(x) q(b_j), one unit term per vector
    rng = sampling.rng(13, "classical")
    P = rank_l_map(rng, 2, 2, 3)
    rep = finite_rank_rep(P)
    exp = expand_adjoint(rep, 1, 1)
    assert len(exp.terms) == 3
    assert all(t.theta == 1 for t in exp.terms)
    q = sampling.random_hompoly(rng, 3, 1)
    x = sampling.random_point(rng, 2)
    direct = sum(
        (p.eval(x) * q.eval(b) for p, b in zip(rep.scalars, rep.vectors)),
        Fraction(0))
    assert exp.evaluate(q, x) == direct == q.eval(P.eval_map(x))


def test_expansion_matches_adjoint_everywhere():
    rng = sampling.rng(17, "defect")
    for (l, k, n) in ((1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 2, 2), (2, 3, 2)):
        P = rank_l_map(rng, 2, 2, l)
        rep = finite_rank_rep(P)
        exp = expand_adjoint(rep, n, k)
        assert expansion_defect(exp, P, n, k, trials=6, seed=99) == 0


def test_expansion_defect_helper_detects_wrong_map():
    rng = sampling.rng(19, "wrong")
    P = rank_l_map(rng, 2, 2, 2)
    rep = finite_rank_rep(P)
    exp = expand_adjoint(rep, 1, 2)
    other = P + rank_l_map(rng, 2, 2, 2)
    assert expansion_defect(exp, other, 1, 2, trials=6, seed=7) != 0


FACTORIAL_RE = re.compile(r"(\d+)!")


def eval_factored(expr: str) -> Fraction:
    """Evaluate a factored weight string like '2!*(2!)^2/2 * 1/4 [alpha=..]'."""
    expr = expr.split(" [")[0]
    expr = FACTORIAL_RE.sub(lambda m: str(math.factorial(int(m.group(1)))), expr)
    expr = expr.replace("^", "**")
    num = eval(expr, {"__builtins__": {}}, {"Fraction": Fraction})
    return Fraction(num).limit_denominator(10 ** 12)


def test_theta_factored_audits_theta():
    rng = sampling.rng(23, "audit")
    for (l, k, n) in ((2, 2, 2), (3, 2, 1), (2, 3, 2)):
        P = rank_l_map(rng, 3, 1, l)
        exp = expand_adjoint(finite_rank_rep(P), n, k)
        for t in exp.terms:
            assert eval_factored(t.theta_factored) == t.theta


def test_expansion_evaluate_validates_q():
    rng = sampling.rng(29, "validate")
    P = rank_l_map(rng, 2, 2, 2)
    exp = expand_adjoint(finite_rank_rep(P), 1, 2)
    bad = sampling.random_hompoly(rng, 3, 2)
    with pytest.raises(DimensionError):
        exp.evaluate(bad, (Fraction(1), Fraction(0)))


def test_exact_only_inputs_raise_field_error():
    rng = sampling.rng(29, "exact-only")
    P = rank_l_map(rng, 2, 2, 2)
    with pytest.raises(FieldError, match="exact only"):
        finite_rank_rep(P.as_field(F64))
    exp = expand_adjoint(finite_rank_rep(P), 1, 2)
    q = sampling.random_hompoly(rng, 2, 2)
    with pytest.raises(FieldError, match="exact only"):
        exp.evaluate(q.as_field(F64), (Fraction(1), Fraction(2)))
    with pytest.raises(FieldError):
        exp.evaluate(q, (0.5, Fraction(2)))
    with pytest.raises(DimensionError):
        exp.evaluate(q, (Fraction(1),))


def _term_by_term(exp, q: HomPoly, x) -> Fraction:
    """The expansion's value as the sum of its terms, each a product of
    Fractions: theta * p_alpha(x) * prod psi(c)^e, psi through
    polarize(q).apply on the vectors with their multiplicities."""
    form = polarize(q)
    total = Fraction(0)
    for t in exp.terms:
        v = t.theta * t.p_alpha.eval(x)
        for comp, e in t.psi_powers:
            v *= form.apply([b for b, c in zip(exp.vectors, comp) for _ in range(c)]) ** e
        total += v
    return total


def test_evaluate_equals_the_term_by_term_formula():
    # evaluate builds one integer over one denominator; the plain Fraction
    # sum of its terms must give the same value.  The maps have rank 1 to 3
    # on the six monomials of degree 2 on R^3, so the p_j and the vectors
    # have denominators, and a dependent extra component
    rng = sampling.rng(37, "term-by-term")
    for l in (1, 2, 3):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                comps = sampling.random_polymap(rng, 3, l, 2).components
                P = PolyMap(comps + (comps[0].scale(Fraction(-2, 3)) + comps[-1],))
                rep = finite_rank_rep(P)
                assert rep.rank == l
                assert any(p._terms[0] > 1 for p in rep.scalars)
                exp = expand_adjoint(rep, n, k)
                q = sampling.random_hompoly(rng, l + 1, k)
                x = sampling.random_point(rng, 3)
                for point in (x, (Fraction(0), x[1], x[2]), (x[0], Fraction(0), Fraction(0)),
                              (Fraction(0),) * 3):
                    got = exp.evaluate(q, point)
                    assert type(got) is Fraction
                    assert got == _term_by_term(exp, q, point)


def test_theta_values_sum_against_direct_square():
    # n = 2, k = 1, rank 2: (c1 psi1 + c2 psi2)^2 has weights 1, 2, 1
    rng = sampling.rng(31, "square")
    P = rank_l_map(rng, 2, 1, 2)
    rep = finite_rank_rep(P)
    exp = expand_adjoint(rep, 2, 1)
    thetas = sorted(t.theta for t in exp.terms)
    assert thetas == [1, 1, 2]
    q = sampling.random_hompoly(rng, 2, 1)
    x = sampling.random_point(rng, 2)
    assert exp.evaluate(q, x) == adjoint_apply(P, 2, 1, q).eval(x)
