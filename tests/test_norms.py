"""Tests for the float sup-norm estimator and the norm-identity checkers.

The optimizer only ever reports certified lower bounds (values attained at a
feasible point), so oracle comparisons allow it to land exactly on the truth
but never above it.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyadjoint import (
    F64,
    HomPoly,
    NormConfig,
    PolyMap,
    check_adjoint_norm,
    check_embedding_norm,
    check_metric_injection,
    check_norm_duality,
    enumerate_multi_indices,
    norming_functional,
    sup_norm,
    vector_norm,
)
from polyadjoint import norms
from polyadjoint.errors import DegenerateInputError, FieldError, PreconditionError


def linear_map(rows) -> PolyMap:
    return PolyMap.from_matrix([[float(v) for v in row] for row in rows], F64)


def test_linear_sup_norm_matches_largest_singular_value():
    rng = np.random.default_rng(12345)
    for d in (2, 3):
        for _ in range(5):
            A = rng.standard_normal((d, d))
            est = sup_norm(linear_map(A), NormConfig(seed=3))
            sv = float(np.linalg.svd(A, compute_uv=False)[0])
            assert abs(est.value - sv) <= 1e-9 * sv


def test_quadratic_form_sup_norm_matches_largest_eigenvalue():
    # on the sphere |x^T A x| peaks at the largest |eigenvalue| of A: an
    # independent oracle for the circle pass (d = 2) and for the
    # sampling-and-ascent path (d >= 3) on nonlinear maps
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4, 5):
        B = rng.standard_normal((d, d))
        A = (B + B.T) / 2
        coeffs = {}
        for i in range(d):
            for j in range(i, d):
                alpha = [0] * d
                alpha[i] += 1
                alpha[j] += 1
                coeffs[tuple(alpha)] = float(A[i, j] if i == j else 2 * A[i, j])
        est = sup_norm(HomPoly(d, 2, coeffs, F64), NormConfig(seed=7))
        want = float(np.abs(np.linalg.eigvalsh(A)).max())
        if d == 2:
            assert est.method == "circle-critical-points"
            assert est.iterations == 0
        else:
            assert est.method == "sobol+gradient-ascent"
        assert abs(est.value - want) <= 1e-9 * want


def test_circle_pass_missing_the_maximum_fails_loudly(monkeypatch):
    # xy vanishes on the axes and peaks at 1/2 on the diagonals: a circle
    # pass that returns only +-e_1 must trip the random cross-check
    monkeypatch.setattr(norms, "_circle_critical_points",
                        lambda cm: np.array([[1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(AssertionError):
        sup_norm(HomPoly(2, 2, {(1, 1): 1.0}, F64), NormConfig(seed=1))


def test_circle_critical_points_ignore_a_power_of_two_scale():
    # scaling P by 2^j scales S by 4^j; the pass normalizes the coefficients
    # first, so neither 2^500 (S overflows) nor 2^-600 (S underflows) moves a root
    rng = np.random.default_rng(3)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 3)
    rows = rng.standard_normal((2, len(basis)))
    points = [
        norms._circle_critical_points(norms._CompiledMap(PolyMap(tuple(
            HomPoly(2, 3, {a: math.ldexp(float(c), j) for a, c in zip(basis, row)}, F64)
            for row in rows))))
        for j in (-600, 0, 500)]
    assert len(points[1]) > 2
    for pts in points:
        assert np.array_equal(pts, points[1])


def _exact_monomial(alpha, x) -> Fraction:
    return math.prod((v ** a for v, a in zip(x, alpha)), start=Fraction(1))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_kernel_values_and_gradients_match_exact_evaluation(data):
    # the oracle: values from HomPoly.eval in exact arithmetic, partials
    # written out from the coefficients as alpha_j x^(alpha - e_j); the
    # points are multiples of 1/32, so the kernel sees them exactly and
    # only its own rounding is measured, against the sum of the absolute
    # terms of each exact sum
    d, m, e = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    basis = enumerate_multi_indices(d, m)
    rows = [data.draw(st.lists(st.integers(-4, 4), min_size=len(basis), max_size=len(basis)))
            for _ in range(e)]
    points = data.draw(st.lists(st.lists(st.integers(-64, 64), min_size=d, max_size=d),
                                min_size=1, max_size=4))
    P = PolyMap(tuple(HomPoly(d, m, dict(zip(basis, row))) for row in rows))
    X = [[Fraction(p, 32) for p in point] for point in points]
    cm = norms._CompiledMap(P.as_field(F64))
    Xf = np.array([[float(v) for v in x] for x in X])
    V, low = cm.values_and_lower(Xf)
    assert np.array_equal(V, cm.values(Xf))
    G = cm.gradient(V, low)
    for x, v, g in zip(X, V, G):
        absx = [abs(t) for t in x]
        exact = [(p.eval(x), sum(abs(c) * _exact_monomial(a, absx) for a, c in p.coeffs.items()))
                 for p in P.components]
        for got, (want, size) in zip(v, exact):
            assert abs(Fraction(float(got)) - want) <= Fraction(1e-12) * size
        for j in range(d):
            want, size = Fraction(0), Fraction(0)
            for p, (val, val_size) in zip(P.components, exact):
                lowered = [(a[j] * c, a[:j] + (a[j] - 1,) + a[j + 1:])
                           for a, c in p.coeffs.items() if a[j]]
                part = sum((c * _exact_monomial(b, x) for c, b in lowered), Fraction(0))
                part_size = sum((abs(c) * _exact_monomial(b, absx) for c, b in lowered),
                                Fraction(0))
                want += 2 * val * part
                size += 2 * val_size * part_size
            assert abs(Fraction(float(g[j])) - want) <= Fraction(1e-12) * size


def test_sup_norm_diagonal_quadratic_frozen():
    # P = (x^2, y^2): on the unit circle sqrt(x^4 + y^4) peaks at the axes
    P = PolyMap((
        HomPoly(2, 2, {(2, 0): 1.0}, F64),
        HomPoly(2, 2, {(0, 2): 1.0}, F64),
    ))
    est = sup_norm(P, NormConfig(seed=1))
    assert abs(est.value - 1.0) <= 1e-12
    assert est.method == "circle-critical-points"


def test_sup_norm_univariate_endpoints():
    p = HomPoly(1, 3, {(3,): -2.5}, F64)
    est = sup_norm(p, NormConfig(seed=1))
    assert abs(est.value - 2.5) <= 1e-12


def test_sup_norm_scaling_homogeneity():
    rng = np.random.default_rng(777)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 3)
    coeffs = dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis)))))
    p = HomPoly(2, 3, coeffs, F64)
    base = sup_norm(p, NormConfig(seed=5)).value
    scaled = sup_norm(p.scale(-4.0), NormConfig(seed=5)).value
    assert abs(scaled - 4.0 * base) <= 1e-9 * max(1.0, base)


def test_sup_norm_far_from_unit_scale_is_exact():
    # past 2^-256 or 2^256 the map is measured scaled by a power of two; on
    # the circle path that scaling moves no bit, so the value scales exactly
    rng = np.random.default_rng(778)
    basis = enumerate_multi_indices(2, 3)
    rows = rng.standard_normal((2, len(basis)))
    P = PolyMap(tuple(HomPoly(2, 3, dict(zip(basis, map(float, row))), F64) for row in rows))
    base = sup_norm(P)
    for j in (-900, -300, 300, 900):
        est = sup_norm(P.scale(math.ldexp(1.0, j)))
        assert est.value == math.ldexp(base.value, j)
        assert est.maximizer == base.maximizer


def test_sup_norm_past_the_largest_double_raises():
    # (c x, c x) has norm c sqrt(2), which no double holds for c = 1.5e308
    P = PolyMap((HomPoly(1, 1, {(1,): 1.5e308}, F64),) * 2)
    with pytest.raises(PreconditionError):
        sup_norm(P)


def test_sup_norm_maximizer_is_feasible_and_attains_value():
    rng = np.random.default_rng(99)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(3, 2)
    P = PolyMap(tuple(
        HomPoly(3, 2, dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))), F64)
        for _ in range(2)))
    est = sup_norm(P, NormConfig(seed=11))
    x = np.asarray(est.maximizer)
    assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
    val = math.hypot(*P.eval_map(tuple(float(v) for v in x)))
    assert abs(val - est.value) <= 1e-12
    assert est.lower_bound_certified


def test_sup_norm_same_seed_reproduces():
    rng = np.random.default_rng(4242)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(3, 3)
    p = HomPoly(3, 3, dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))), F64)
    a = sup_norm(p, NormConfig(seed=21))
    b = sup_norm(p, NormConfig(seed=21))
    assert a.value == b.value
    assert tuple(a.maximizer) == tuple(b.maximizer)


def test_sup_norm_rejects_rational_input():
    from fractions import Fraction
    p = HomPoly(2, 2, {(2, 0): Fraction(1)})
    with pytest.raises(FieldError):
        sup_norm(p, NormConfig())


def test_vector_norm_and_norming_functional():
    y = [3.0, -4.0]
    assert vector_norm(y) == 5.0
    phi = norming_functional(y)
    assert abs(phi.eval(y) - vector_norm(y)) <= 1e-12
    # dual feasibility: |phi(z)| <= ||z|| on a few sample vectors
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.standard_normal(2)
        assert abs(phi.eval(tuple(float(v) for v in z))) <= \
            vector_norm([float(v) for v in z]) + 1e-12
    with pytest.raises(DegenerateInputError):
        norming_functional([0.0, 0.0])


def test_check_norm_duality_report():
    rep = check_norm_duality([1.5, -2.0], 3, NormConfig(seed=2))
    assert rep.passed
    assert rep.rel_err <= 1e-9
    assert rep.details["attaining_sup_norm"] <= 1.0 + 1e-9
    with pytest.raises(DegenerateInputError):
        check_norm_duality([0.0, 0.0], 2, NormConfig(seed=2))


def test_check_adjoint_norm_report():
    rng = np.random.default_rng(31)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 2)
    P = PolyMap(tuple(
        HomPoly(2, 2, dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))), F64)
        for _ in range(2)))
    rep = check_adjoint_norm(P, 1, 2, NormConfig(seed=31), q_trials=25)
    assert rep.passed
    assert rep.rel_err <= 1e-6
    assert rep.details["worst_upper_ratio"] <= 1.0 + 1e-9
    d = rep.to_dict()
    assert "wall_ms" in d


def test_check_embedding_norm_report():
    rep = check_embedding_norm([0.6, -1.1], 2, 2, NormConfig(seed=5), q_trials=10)
    assert rep.passed
    assert rep.rel_err <= 1e-6


def test_check_metric_injection_requires_orthonormal_rows():
    bad = linear_map([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    q = HomPoly(2, 2, {(2, 0): 1.0}, F64)
    with pytest.raises(PreconditionError):
        check_metric_injection(bad, q, NormConfig(seed=1))


def test_check_metric_injection_passes_for_projection():
    proj = linear_map([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(17)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 3)
    q = HomPoly(2, 3, dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))), F64)
    rep = check_metric_injection(proj, q, NormConfig(seed=17))
    assert rep.passed
    assert rep.rel_err <= 1e-6


def test_norm_config_validation():
    with pytest.raises(PreconditionError):
        NormConfig(restarts=0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            NormConfig(tol=tol)
