"""Tests for the float sup-norm estimator and the norm-identity checkers.

The optimizer only ever reports certified lower bounds (values attained at a
feasible point), so oracle comparisons allow it to land exactly on the truth
but never above it.
"""
from __future__ import annotations

import itertools
import json
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
from polyadjoint.composition import check_two_sided_norm
from polyadjoint.errors import (CapacityError, DegenerateInputError, DegreeError,
                               DimensionError, FieldError, PreconditionError)


def ascent_kernel(P: PolyMap) -> tuple:
    """The shape, (e, T) coefficients and partials the ascent reads for one
    map: each partial as one slice of those `_ascend` builds for a stack."""
    shape, (coeffs,) = norms._coefficient_stack([P])
    return shape, coeffs, [(idx, coeffs[:, mask] * weights)
                           for mask, idx, weights in shape.partials]


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
    # sampling-and-ascent path (d >= 3) on nonlinear maps.  The zero second
    # component makes the map (x^T A x, 0), which the closed form (one
    # component only) does not take, so neither path computes eigenvalues
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
        P = PolyMap((HomPoly(d, 2, coeffs, F64), HomPoly(d, 2, {}, F64)))
        est = sup_norm(P, NormConfig(seed=7))
        want = float(np.abs(np.linalg.eigvalsh(A)).max())
        if d == 2:
            assert est.method == "circle-critical-points"
            assert est.iterations == 0
        else:
            assert est.method == "sobol+gradient-ascent"
        assert est.upper is None
        assert abs(est.value - want) <= 1e-9 * want


# -e_1 and e_1, the circle pass's first critical points
AXES = np.array([[-1.0, 0.0], [1.0, 0.0]])


def test_circle_pass_missing_the_maximum_fails_loudly(monkeypatch):
    # x^2 y - x y^2 vanishes on the axes and not elsewhere on the circle: a
    # circle pass that returns only +-e_1 must trip the half-circle grid
    monkeypatch.setattr(norms, "_circle_points", lambda coeffs, m: [AXES] * len(coeffs))
    with pytest.raises(AssertionError):
        sup_norm(HomPoly(2, 3, {(2, 1): 1.0, (1, 2): -1.0}, F64), NormConfig(seed=1))


def test_circle_pass_missing_one_maximum_in_a_stack_fails_loudly(monkeypatch):
    # the same fault, in the middle map of a stack of three only: the stack
    # fails; with x^3, whose maximum is at +-e_1, in the middle it passes
    basis = enumerate_multi_indices(2, 3)
    rng = np.random.default_rng(8)
    outer = [HomPoly(2, 3, dict(zip(basis, map(float, rng.standard_normal(4)))), F64)
             for _ in range(2)]
    faulty = HomPoly(2, 3, {(2, 1): 1.0, (1, 2): -1.0}, F64)
    cube = HomPoly(2, 3, {(3, 0): 1.0}, F64)
    real = norms._circle_points
    want = norms.sup_norms([outer[0], cube, outer[1]], NormConfig(seed=1))
    assert norms.sup_norms([outer[0], faulty, outer[1]], NormConfig(seed=1))
    monkeypatch.setattr(norms, "_circle_points", lambda coeffs, m: [
        AXES if b == 1 else points for b, points in enumerate(real(coeffs, m))])
    with pytest.raises(AssertionError, match="circle grid point"):
        norms.sup_norms([outer[0], faulty, outer[1]], NormConfig(seed=1))
    assert norms.sup_norms([outer[0], cube, outer[1]], NormConfig(seed=1)) == want


def quadratic_form(M) -> HomPoly:
    """x^T M x for a symmetric M, as a degree-2 f64 HomPoly."""
    d = len(M)
    return HomPoly(d, 2, {tuple(int(t == i) + int(t == j) for t in range(d)):
                          float(M[i][j] if i == j else 2 * M[i][j])
                          for i in range(d) for j in range(i, d)}, F64)


def rotated(diagonal, seed: int) -> np.ndarray:
    """Q diag(diagonal) Q^T for a random orthogonal Q, so that no axis
    attains the norm."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(diagonal),) * 2))[0]
    return Q @ np.diag(diagonal) @ Q.T


def assert_tight_upper(est) -> None:
    assert est.method == "closed-form"
    assert est.iterations == 0
    assert est.value <= est.upper <= est.value * (1.0 + 1e-12)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 8), st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_closed_form_matches_svd_and_eigvalsh_with_a_tight_upper(d, e, form, seed):
    rng = np.random.default_rng(seed)
    if form:
        M = rng.standard_normal((d, d))
        M = (M + M.T) / 2
        est = sup_norm(quadratic_form(M))
        want = float(np.abs(np.linalg.eigvalsh(M)).max())
    else:
        A = rng.standard_normal((e, d))
        est = sup_norm(linear_map(A))
        want = float(np.linalg.svd(A, compute_uv=False)[0])
    assert_tight_upper(est)
    assert abs(est.value - want) <= 1e-12 * want
    assert abs(vector_norm(est.maximizer) - 1.0) <= 1e-12


def _dropping_top_eigenpair(monkeypatch):
    real = np.linalg.eigh

    def eigh(M):
        # each matrix of a stack (or the one matrix) without its top pair
        w, V = real(M)
        keep = np.arange(w.shape[-1]) != np.abs(w).argmax(axis=-1)[..., None]
        rows = np.swapaxes(V, -1, -2)[keep].reshape(*w.shape[:-1], -1, V.shape[-2])
        return w[keep].reshape(*w.shape[:-1], -1), np.swapaxes(rows, -1, -2)

    monkeypatch.setattr(norms.np.linalg, "eigh", eigh)


def test_closed_form_missing_the_top_eigenpair_fails_loudly(monkeypatch):
    # the evaluations fall short of the norm, so u = value (1 + 2^-40) is
    # below it and the exact check refuses; for the form the missed
    # eigenvalue is negative, so only u I + M catches it
    A = rotated([3.0, 1.0, 0.5], seed=1)
    M = rotated([-3.0, 1.0, 2.0], seed=2)
    assert sup_norm(linear_map(A)).upper is not None
    assert sup_norm(quadratic_form(M)).upper is not None
    _dropping_top_eigenpair(monkeypatch)
    for P in (linear_map(A), quadratic_form(M)):
        with pytest.raises(AssertionError):
            sup_norm(P)


def test_integer_check_rejects_an_under_reported_eigenvalue():
    # both bounds are exact: at 2^-40 below the norm the check refuses, at
    # 2^-40 above it proves
    A = rotated([3.0, 1.0, 0.5], seed=3)
    M = rotated([-3.0, 1.0, 2.0], seed=4)
    for P, top in ((linear_map(A), float(np.linalg.svd(A, compute_uv=False)[0])),
                   (quadratic_form(M), float(np.abs(np.linalg.eigvalsh(M)).max()))):
        _, (coeffs,) = norms._coefficient_stack([PolyMap((P,)) if isinstance(P, HomPoly) else P])
        assert norms._proves_upper(coeffs, 3, P.degree, top * (1.0 + 2.0 ** -40))
        assert not norms._proves_upper(coeffs, 3, P.degree, top * (1.0 - 2.0 ** -40))


def _det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions, with row swaps."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


def _all_principal_minors_nonnegative(W) -> bool:
    n = len(W)
    return all(_det([[W[i][j] for j in idx] for i in idx]) >= 0
               for size in range(1, n + 1) for idx in itertools.combinations(range(n), size))


def test_upper_bound_is_psd_by_principal_minors_in_fractions():
    # an oracle that shares no code with the certificate: every principal
    # minor of upper I -+ M and of upper^2 I - A^T A, in exact Fractions
    rng = np.random.default_rng(55)
    for d in (2, 3, 4):
        B = rng.standard_normal((d, d))
        q = quadratic_form((B + B.T) / 2)
        est = sup_norm(q)
        assert_tight_upper(est)
        M = [[Fraction(q.coefficient(tuple(int(t == i) + int(t == j) for t in range(d))))
              / (1 if i == j else 2) for j in range(d)] for i in range(d)]
        u = Fraction(est.upper)
        for sign in (-1, 1):
            assert _all_principal_minors_nonnegative(
                [[(u if i == j else 0) + sign * M[i][j] for j in range(d)] for i in range(d)])
        A = rng.standard_normal((d + 1, d))
        est = sup_norm(linear_map(A))
        assert_tight_upper(est)
        Af = [[Fraction(float(v)) for v in row] for row in A]
        u2 = Fraction(est.upper) ** 2
        assert _all_principal_minors_nonnegative(
            [[(u2 if i == j else 0) - sum(r[i] * r[j] for r in Af) for j in range(d)]
             for i in range(d)])


def test_closed_form_zero_map_has_upper_zero():
    for P in (linear_map([[0.0, 0.0, 0.0]] * 2), HomPoly(3, 2, {}, F64)):
        est = sup_norm(P)
        assert est.method == "closed-form"
        assert est.value == 0.0 and est.upper == 0.0


def wide_closed_form_maps() -> list:
    """Linear maps near 2^300 and 2^-300 (and both in one map), and d = 2
    quadratic forms whose coefficients span 1e-150 to 1e148."""
    rng = np.random.default_rng(61)
    maps = [linear_map(rng.standard_normal((3, 4)) * 2.0 ** j) for j in (300, -300)]
    maps.append(linear_map(rng.standard_normal((3, 4)) * 2.0 ** np.array([[300.0], [-300.0], [0.0]])))
    for _ in range(6):
        c = rng.standard_normal(3) * 10.0 ** rng.uniform(-150, 148, 3)
        maps.append(HomPoly(2, 2, dict(zip([(2, 0), (1, 1), (0, 2)], map(float, c))), F64))
    maps.append(HomPoly(2, 2, {(2, 0): 1e-150, (1, 1): -3e10, (0, 2): 1e148}, F64))
    return maps


def test_closed_form_certifies_maps_far_from_unit_scale(tmp_path):
    from polyadjoint import cli, polymap_dumps
    for P in wide_closed_form_maps():
        est = sup_norm(P)
        assert_tight_upper(est)
        src, out = tmp_path / "map.json", tmp_path / "out.json"
        src.write_text(polymap_dumps(P if isinstance(P, PolyMap) else PolyMap((P,))))
        assert cli.main(["norm", str(src), "--claim", "sup", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "closed-form"


def test_closed_form_stops_at_its_widest_shape():
    # a linear map on one more variable than the closed form takes searches
    rng = np.random.default_rng(17)
    wide = sup_norm(linear_map(rng.standard_normal((2, norms.MAX_CLOSED_FORM_DIM + 1))))
    assert wide.method == "sobol+gradient-ascent"
    assert wide.upper is None
    edge = sup_norm(linear_map(rng.standard_normal((2, norms.MAX_CLOSED_FORM_DIM))))
    assert_tight_upper(edge)


def test_circle_critical_points_ignore_a_power_of_two_scale():
    # scaling P by 2^j scales S by 4^j; the pass normalizes the coefficients
    # first, so neither 2^500 (S overflows) nor 2^-600 (S underflows) moves a root
    rng = np.random.default_rng(3)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 3)
    rows = rng.standard_normal((2, len(basis)))
    shape, coeffs = norms._coefficient_stack([PolyMap(tuple(
        HomPoly(2, 3, {a: math.ldexp(float(c), j) for a, c in zip(basis, row)}, F64)
        for row in rows)) for j in (-600, 0, 500)])
    points = norms._circle_points(coeffs, shape.m)
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
    shape, coeffs, partials = ascent_kernel(P.as_field(F64))
    Xf = np.array([[float(v) for v in x] for x in X])
    tables = shape.monomials(Xf, lower=True)
    mon = tables[:, :len(basis)]
    assert np.array_equal(mon, shape.monomials(Xf))
    V = mon @ coeffs.T
    G = norms._gradient(partials, V, tables)
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


def _per_variable_tables(X, basis, lower_basis, m):
    # the reference: the monomial tables as the kernel first built them, one
    # cumulative power table and one gathered product per variable in turn
    N, d = X.shape
    expts, lower = np.array(basis), np.array(lower_basis)
    mon, low = np.ones((N, len(basis))), np.ones((N, len(lower_basis)))
    for j in range(d):
        powers = np.empty((N, m + 1))
        powers[:, 0] = 1.0
        for a in range(1, m + 1):
            powers[:, a] = powers[:, a - 1] * X[:, j]
        mon *= powers[:, expts[:, j]]
        if m > 1:
            low *= powers[:, lower[:, j]]
    return mon, low


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.flags.c_contiguous and np.array_equal(
        a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("d", range(2, 7))
def test_monomial_tables_equal_the_per_variable_product_bit_for_bit(d):
    # the sample floor's prefix walk and the ascent's gathered product both
    # reproduce every bit of the reference, C-ordered as the matmul needs;
    # with the lower table the gathered product reads both tables in one
    # take per variable, side by side, and a stack of points is row for row
    rng = np.random.default_rng(d)
    for m in range(1, 6):
        shape = norms._shape(d, m)
        basis, lower = enumerate_multi_indices(d, m), enumerate_multi_indices(d, m - 1)
        for N in (1, 7, 64, 16394):
            X = norms._sphere_samples(d, N, rng)
            mon, low = _per_variable_tables(X, basis, lower, m)
            assert _same_bits(shape.floor_monomials(X), mon), (d, m, N)
            if N <= 64:
                assert _same_bits(shape.monomials(X), mon), (d, m, N)
                both = shape.monomials(X, lower=True)
                assert _same_bits(both, np.hstack([mon, low])), (d, m, N)
                assert _same_bits(shape.monomials(X[None], lower=True)[0], both), (d, m, N)


@pytest.mark.parametrize("e", [1, 2, 9])
def test_gradient_equals_one_reduction_per_variable_bit_for_bit(e):
    # the reference reduces each partial's column on its own, as the kernel
    # first did; the kernel now reduces all d of them in one sum
    rng = np.random.default_rng(e)
    for d, m in itertools.product(range(2, 7), range(1, 6)):
        basis, lower = enumerate_multi_indices(d, m), enumerate_multi_indices(d, m - 1)
        P = PolyMap(tuple(HomPoly(d, m, dict(zip(basis, map(float, rng.standard_normal(len(basis))))),
                                  F64) for _ in range(e)))
        shape, coeffs, partials = ascent_kernel(P)
        X = norms._sphere_samples(d, 64, rng)
        tables = shape.monomials(X, lower=True)
        V, low = tables[:, :len(basis)] @ coeffs.T, tables[:, len(basis):]
        where = {a: i for i, a in enumerate(lower)}
        want = np.zeros((64, d))
        for j in range(d):
            keep = [t for t, a in enumerate(basis) if a[j]]
            idx = np.array([where[basis[t][:j] + (basis[t][j] - 1,) + basis[t][j + 1:]]
                            for t in keep], dtype=np.intp)
            dcoeffs = coeffs[:, keep] * np.array([basis[t][j] for t in keep])
            want[:, j] = 2.0 * (V * (low.take(idx, axis=1) @ dcoeffs.T)).sum(axis=1)
        assert _same_bits(norms._gradient(partials, V, tables), want), (d, m)


def _closed_form_reference(P: PolyMap, starts) -> tuple[float, tuple, float]:
    """(value, maximizer, upper) of one linear map or quadratic form as the
    closed form ran map by map: its own eigh, candidate rows and
    evaluations."""
    shape, (raw,) = norms._coefficient_stack([P])
    d, m = shape.d, shape.m
    shift = math.frexp(float(np.abs(raw).max(initial=0.0)))[1]
    shift = shift if abs(shift) > norms.MAX_SCALE_EXP else 0
    C = np.ldexp(raw, -shift)
    if m == 1:
        w, V = np.linalg.eigh(C.T @ C)
    else:
        i, j = np.triu_indices(d)
        M = np.zeros((d, d))
        M[i, j] = np.where(i == j, C[0], 0.5 * C[0])
        M[j, i] = M[i, j]
        w, V = np.linalg.eigh(M)
        w = np.abs(w)
    rows = [V[:, int(w.argmax())][None, :], np.eye(d), -np.eye(d)]
    for start in starts:
        v = np.asarray(start, dtype=float)
        if vector_norm(v) > 1e-300:
            rows.append((v / vector_norm(v))[None, :])
    X = np.vstack(rows)

    def norms_at(Y):
        values = shape.monomials(Y) @ C.T
        return np.sqrt((values * values).sum(axis=1))
    best = X[int(norms_at(X).argmax())]
    n = vector_norm(best)
    if n > 0:
        best = best / n
    value = float(norms_at(best[None, :])[0])
    upper = norms._certified_upper(raw, d, m, value, shift)
    return math.ldexp(value, shift), tuple(best.tolist()), upper


def _hex(est) -> tuple:
    return (est.value.hex(), tuple(v.hex() for v in est.maximizer),
            None if est.upper is None else est.upper.hex())


def closed_form_stacks():
    """(maps, extra starts) of one shape each: d = 2..16, linear maps with
    e = 1..5 and quadratic forms; in each stack one zero map, maps at 2^300
    and 2^-300 (measured scaled), a map with zeros in its basis, and maps
    at unit scale."""
    rng = np.random.default_rng(2026)
    for d in range(2, norms.MAX_CLOSED_FORM_DIM + 1):
        for m, e in [(1, e) for e in range(1, 6)] + [(2, 1)]:
            basis = enumerate_multi_indices(d, m)
            maps = []
            for scale in (0.0, 2.0 ** 300, 2.0 ** -300, 1.0, 1.0, 1.0):
                rows = rng.standard_normal((e, len(basis))) * scale
                if len(maps) == 3:
                    rows[:, ::3] = 0.0
                maps.append(PolyMap(tuple(HomPoly(d, m, dict(zip(basis, map(float, row))), F64)
                                          for row in rows)))
            yield maps, ([rng.standard_normal(d).tolist(), [0.0] * d] if d % 2 else [])


def test_closed_form_equals_the_per_map_reference_bit_for_bit():
    # signed zeros count: float.hex tells -0.0 from 0.0
    for maps, starts in closed_form_stacks():
        for P in maps:
            est = sup_norm(P, NormConfig(), starts)
            assert _hex(est) == tuple(
                x.hex() if isinstance(x, float) else tuple(v.hex() for v in x)
                for x in _closed_form_reference(P, starts)), (P.domain_dim, P.degree)
            assert (est.method, est.iterations) == ("closed-form", 0)


def _circle_points_reference(c: np.ndarray, m: int) -> np.ndarray:
    """The critical points of one map as the circle pass found them map by
    map, with numpy.polynomial."""
    P = np.polynomial.polynomial
    c = np.ldexp(c, -math.frexp(float(np.abs(c).max(initial=0.0)))[1])
    rows, scale = norms._circle_rows(m)
    S = np.zeros(1)
    for ci in c:
        Ni = np.zeros(rows.shape[1])
        for term in (ci[:, None] * rows) * scale:
            Ni += term
        Ni = np.polynomial.polyutils.trimseq(Ni)
        S = P.polyadd(S, P.polymul(Ni, Ni))
    h = P.polysub(P.polymul(P.polyder(S), np.array([1.0, 0.0, 1.0])),
                  4.0 * m * P.polymul(np.array([0.0, 1.0]), S))
    h = np.trim_zeros(h, "b")
    pts = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
    if h.size > 1 and np.abs(h).max() > 0:
        h = h / np.abs(h).max()
        for t in P.polyroots(h):
            if abs(t.imag) < 1e-9 * (1.0 + abs(t.real)):
                tr = t.real
                den = 1.0 + tr * tr
                pts.append(np.array([(1.0 - tr * tr) / den, 2.0 * tr / den]))
    return np.array(pts)


def _circle_picks_reference(shape, coeffs, starts) -> np.ndarray:
    """The picks of a stack of maps as the circle pass made them map by map:
    each map's critical points, candidates and cross-check on its own."""
    picks = []
    for c in coeffs:
        X = np.vstack([_circle_points_reference(c, shape.m), starts])
        vals = norms._row_norms(shape.monomials(X) @ c.T)
        i = int(vals.argmax())
        check = float(norms._row_norms(shape.monomials(norms._HALF_CIRCLE) @ c.T).max())
        if check > float(vals[i]) * (1.0 + 1e-9):
            raise AssertionError(f"a circle grid point reaches {check}")
        picks.append(X[i])
    return np.array(picks)


def circle_stack(rng, m: int, e: int, size: int) -> np.ndarray:
    """(size, e, m + 1) circle coefficients: random maps and, in a stack of
    100, a zero map, maps at 2^300 and 2^-300, one with zeros in its basis,
    3 x^m and y^m, whose h have lower degrees (y^m's roots include t = 0),
    and, for e >= 2, (Re z^m, Im z^m, 0, ...), whose h vanishes."""
    C = rng.standard_normal((size, e, m + 1))
    if size == 100:
        C[0] = 0.0
        C[1] *= 2.0 ** 300
        C[2] *= 2.0 ** -300
        C[3, :, ::2] = 0.0
        C[5:7] = 0.0
        C[5, 0, 0], C[6, 0, -1] = 3.0, 1.0
        if e >= 2:
            # (x + iy)^m = sum over a2 of C(m, a2) i^a2 x^(m - a2) y^a2
            z = np.array([math.comb(m, a2) * 1j ** a2 for a2 in range(m + 1)])
            C[4] = 0.0
            C[4, 0], C[4, 1] = z.real, z.imag
    return C


def test_stacked_circle_head_equals_the_per_map_reference_bit_for_bit(monkeypatch):
    # the heads, and the picks the stacked pick of sup_norms makes from
    # them, where maps past 2^+-256 are measured scaled; with no closed
    # form, the linear maps and quadratic forms take the circle pass too
    rng = np.random.default_rng(2310)
    start = [0.6, -0.8]
    starts = np.vstack([norms._signed_basis(2), np.array([start]) / vector_norm(start)])
    sizes = []

    def eigvals(C):
        sizes.append(C.shape)
        return real(C)
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(norms, "MAX_CLOSED_FORM_DIM", 1)
    for m in range(1, 9):
        shape = norms._shape(2, m)
        for e in (1, 2, 3):
            for size in (1, 2, 100):
                C = circle_stack(rng, m, e, size)
                cfg = NormConfig(seed=m * e + size)
                del sizes[:]
                points = norms._circle_points(C, m)
                assert len(points) == size
                # one eigvals per companion size; the lower-degree h of a
                # stack of 100 give it at least two sizes from m = 2 on
                assert len({n for _, n, _ in sizes}) == len(sizes)
                assert len(sizes) >= 2 or size < 100 or m == 1
                for c, got in zip(C, points):
                    assert _same_bits(got, _circle_points_reference(c, m)), (m, e, size)
                ests = norms.sup_norms([PolyMap(tuple(
                    HomPoly(2, m, dict(zip(shape.basis, map(float, row))), F64) for row in c))
                    for c in C], cfg, [[start]] * size)
                assert {est.method for est in ests} == {"circle-critical-points"}
                picks = _circle_picks_reference(shape, C, starts)
                assert _same_bits(np.array([est.maximizer for est in ests]),
                                  picks / np.sqrt((picks * picks).sum(axis=1))[:, None]), (m, e, size)
                if size == 100 and e >= 2:
                    # |z^m| = 1 on the circle: no critical point beyond +-e_1
                    assert _same_bits(points[4], AXES)


def _recording_draws(monkeypatch) -> list:
    """(d, n, points) of every draw of points on the sphere from now on: the
    search's sample floors, the only draws of a sup-norm call."""
    draws = []
    real = norms._sphere_samples

    def recorded(d, n, rng):
        draws.append((d, n, real(d, n, rng)))
        return draws[-1][2]
    monkeypatch.setattr(norms, "_sphere_samples", recorded)
    return draws


def test_the_cross_check_grid_is_the_fixed_half_circle():
    # CROSS_CHECK points at the angles (j + 1/2) pi / CROSS_CHECK, read-only,
    # so each value of |P| on the circle is seen once
    grid = norms._HALF_CIRCLE
    assert not grid.flags.writeable
    assert grid.shape == (norms.CROSS_CHECK, 2) == (256, 2)
    angles = (np.arange(256) + 0.5) * (math.pi / 256)
    assert np.abs(np.arctan2(grid[:, 1], grid[:, 0]) - angles).max() < 1e-15
    assert np.abs(vector_norm(grid[0]) - 1.0) < 1e-15 and (grid[:, 1] > 0).all()


def test_a_call_without_a_search_draws_nothing(monkeypatch):
    # circle maps in stacks of three shapes, with closed forms and endpoint
    # maps: no call calls the sampler or makes a stream, every stack's guard
    # reads the one grid, and each estimate has the bits of a call of its own
    # at every seed
    rng = np.random.default_rng(30)
    maps = [P for d, m, e in ((2, 3, 1), (2, 4, 2), (2, 2, 2)) for P in random_maps(rng, d, m, e, 2)]
    maps += [linear_map([[1.0, 2.0], [0.5, -1.0]]),
             quadratic_form(np.array([[1.0, 0.5], [0.5, -2.0]])), random_maps(rng, 1, 3, 2, 1)[0]]
    alone = [_hex(sup_norm(P)) for P in maps]

    def refused(*args):
        raise AssertionError("drew")
    monkeypatch.setattr(norms, "_sphere_samples", refused)
    monkeypatch.setattr(norms, "_np_rng", refused)
    read, evaluate = [], norms._Shape.norms

    def recorded(shape, X, coeffs):
        read.append(X)
        return evaluate(shape, X, coeffs)
    monkeypatch.setattr(norms._Shape, "norms", recorded)
    for seed in (0, 1, 2 ** 40):
        got = norms.sup_norms(maps, NormConfig(seed=seed))
        assert [_hex(est) for est in got] == alone
        assert [est.method for est in got] == ["circle-critical-points"] * 6 + [
            "closed-form"] * 2 + ["endpoint-enumeration"]
    # each stack evaluates its candidates and its picks, and each circle
    # stack the grid between them
    assert [X is norms._HALF_CIRCLE for X in read] == (
        [False, True, False] * 3 + [False, False] * 3) * 3


def test_circle_pass_on_a_map_of_constant_norm():
    # (x^2 - y^2, 2xy) has norm 1 everywhere on the circle, so its h
    # vanishes identically and only +-e_1 are critical points
    P = PolyMap((HomPoly(2, 2, {(2, 0): 1.0, (0, 2): -1.0}, F64),
                 HomPoly(2, 2, {(1, 1): 2.0}, F64)))
    shape, coeffs = norms._coefficient_stack([P])
    assert _same_bits(norms._circle_points(coeffs, 2)[0], AXES)
    est = sup_norm(P, NormConfig(seed=4))
    assert est.method == "circle-critical-points"
    assert (est.value, est.maximizer) == (1.0, (-1.0, 0.0))


def random_maps(rng, d: int, m: int, e: int, count: int) -> list:
    basis = enumerate_multi_indices(d, m)
    return [PolyMap(tuple(HomPoly(d, m, dict(zip(basis, map(float, rng.standard_normal(
        len(basis))))), F64) for _ in range(e))) for _ in range(count)]


# over 270 binary orders, so this d = 2 map takes the search
WIDE = PolyMap((HomPoly(2, 3, {(3, 0): 1e-150, (2, 1): 1.0, (0, 3): 1e120}, F64),
                HomPoly(2, 3, {(1, 2): 1.0}, F64)))


def stacks(method: str):
    """(maps, cfg, starts, methods) of the stacks a case runs, with one
    list of extra starts per map."""
    rng = np.random.default_rng(7)
    cfg = NormConfig(samples=512, restarts=8, seed=3)
    if method == "endpoint-enumeration":
        for m, e in ((3, 2), (1, 1), (4, 3)):
            maps = random_maps(rng, 1, m, e, 4) + [random_maps(rng, 1, m, e, 1)[0].scale(0.0)]
            yield maps, cfg, [[[1.0]]] * 5, [method] * 5
    elif method == "closed-form":
        for maps, starts in closed_form_stacks():
            yield maps, NormConfig(), [starts] * len(maps), [method] * len(maps)
    elif method == "circle-critical-points":
        for m, e in ((3, 1), (4, 2), (5, 3)):
            yield random_maps(rng, 2, m, e, 4), cfg, [[[1.0, 1.0]]] * 4, [method] * 4
        basis = enumerate_multi_indices(2, 5)
        yield [PolyMap(tuple(HomPoly(2, 5, dict(zip(basis, map(float, row))), F64) for row in c))
               for c in circle_stack(rng, 5, 3, 100)], cfg, [[[1.0, 2.0]]] * 100, [method] * 100
    else:
        for d, m, e in ((3, 2, 2), (4, 3, 1), (17, 1, 2)):
            yield random_maps(rng, d, m, e, 4), cfg, [[[1.0] * d]] * 4, [method] * 4
        yield [wide_range_map(seed) for seed in (1, 2)], cfg, [[]] * 2, [method] * 2
        # maps whose ascents stop far apart, so each leaves the stacked
        # ascent at another iteration: 25 to 125 for the first stack, over
        # 275 for one map of each other
        for seed, d, m, e in ((26, 3, 4, 1), (2, 4, 3, 2), (13, 5, 4, 1), (1, 5, 3, 2)):
            yield random_maps(np.random.default_rng(seed), d, m, e, 6), cfg, [[]] * 6, [method] * 6
        # a floor of 4 points, so a map keeps 14, 15 or 16 rows by its count
        # of starts and the ascent runs one stack per count: padded to one
        # count, the first map here would stop at another iteration
        rng, few = np.random.default_rng(7), NormConfig(samples=4, restarts=64, seed=3)
        yield (random_maps(rng, 5, 4, 2, 6), few, [rng.standard_normal((b % 3, 5)).tolist()
                                                   for b in range(6)], [method] * 6)


@pytest.mark.parametrize("method", ["endpoint-enumeration", "closed-form", "circle-critical-points",
                                    "sobol+gradient-ascent"])
def test_a_stack_gives_each_map_the_bits_it_gets_alone(method):
    # signed zeros count: float.hex tells -0.0 from 0.0; == compares the
    # iterations too
    for maps, cfg, starts, methods in stacks(method):
        stacked = norms.sup_norms(maps, cfg, starts)
        alone = [sup_norm(P, cfg, own) for P, own in zip(maps, starts)]
        assert stacked == alone
        assert [_hex(est) for est in stacked] == [_hex(est) for est in alone]
        assert [est.method for est in stacked] == methods
        if method == "closed-form":
            assert stacked[0].upper == 0.0 and stacked[0].value == 0.0
        if len(maps) == 6 and cfg.samples == 512:
            its = [est.iterations for est in stacked]
            assert max(its) >= 4 * min(its), its
    # one call over the first two maps of every stack of this method and a
    # map of each other method, interleaved, each map with starts of its own
    rng = np.random.default_rng(35)
    maps = [P for stack, *_ in stacks(method) for P in stack[:2]]
    for other in ("endpoint-enumeration", "closed-form", "circle-critical-points",
                  "sobol+gradient-ascent"):
        if other != method:
            maps.insert(len(maps) // 2, next(stacks(other))[0][-1])
    starts = [rng.standard_normal((b % 3, P.domain_dim)).tolist() for b, P in enumerate(maps)]
    cfg = NormConfig(samples=512, restarts=8, seed=3)
    mixed = norms.sup_norms(maps, cfg, starts)
    assert [_hex(est) for est in mixed] == [
        _hex(sup_norm(P, cfg, own)) for P, own in zip(maps, starts)]
    assert {est.method for est in mixed} == {"endpoint-enumeration", "closed-form",
                                              "circle-critical-points", "sobol+gradient-ascent"}


def _recording_floors(monkeypatch) -> list:
    """(draws, served) of every sample floor served from now on: the dict
    of draws it was served from and the (X, mon) operands it was served."""
    served = []
    real = norms._floor

    def recorded(draws, *args):
        served.append((draws, real(draws, *args)))
        return served[-1][1]
    monkeypatch.setattr(norms, "_floor", recorded)
    return served


def test_a_stack_of_search_maps_draws_its_floor_once(monkeypatch):
    # one call draws one floor per (d, m), which its stacks of every
    # codomain and count of starts share, and each estimate keeps the bits
    # of a call of its own
    rng = np.random.default_rng(29)
    cfg = NormConfig(samples=512, restarts=8, seed=3)
    maps, starts = [], []
    for d, m, e in ((3, 3, 2), (3, 3, 1), (3, 2, 2), (4, 3, 1), (3, 3, 3), (3, 2, 3)):
        for count in (0, 2, 1):
            maps += random_maps(rng, d, m, e, 1)
            starts.append(rng.standard_normal((count, d)).tolist())
    maps.append(WIDE)
    starts.append([[1.0, 2.0]])
    alone = [_hex(sup_norm(P, cfg, own)) for P, own in zip(maps, starts)]
    drawn, served = _recording_draws(monkeypatch), _recording_floors(monkeypatch)
    got = norms.sup_norms(maps, cfg, starts)
    assert [_hex(est) for est in got] == alone
    assert {est.method for est in got} == {"sobol+gradient-ascent"}
    assert [(d, n) for d, n, _ in drawn] == [(3, 512), (3, 512), (4, 512), (2, 512)]
    assert len(served) == len(maps) and all(draws is served[0][0] for draws, _ in served)
    assert list(served[0][0]) == [(3, 3), (3, 2), (4, 3), (2, 3)]


def test_a_call_holds_only_its_search_floors(monkeypatch):
    # circle maps, closed forms and searches in one call: the dict of the
    # call's draws holds one floor per (d, m) of its searches, nothing else
    rng = np.random.default_rng(31)
    maps = random_maps(rng, 2, 3, 2, 2) + [WIDE] + random_maps(rng, 3, 3, 1, 2) + [
        linear_map([[1.0, 2.0], [0.5, -1.0]])]
    served = _recording_floors(monkeypatch)
    got = norms.sup_norms(maps, NormConfig(samples=512, restarts=8, seed=3))
    assert [est.method for est in got] == ["circle-critical-points"] * 2 + [
        "sobol+gradient-ascent"] * 3 + ["closed-form"]
    assert len(served) == 3 and list(served[0][0]) == [(2, 3), (3, 3)]


def test_a_held_floor_grows_only_for_more_starts_than_it_holds(monkeypatch):
    # one call whose maps bring 0, 2, 1, 0, 2 and 1 extra starts: every
    # estimate has the bits of a call of its own, and once the floor holds
    # the most starts, each search reads a prefix of the same buffers
    rng = np.random.default_rng(36)
    cfg = NormConfig(samples=512, restarts=8, seed=3)
    maps = random_maps(rng, 3, 3, 2, 6)
    starts = [rng.standard_normal((count, 3)).tolist() for count in (0, 2, 1, 0, 2, 1)]
    alone = [_hex(sup_norm(P, cfg, own)) for P, own in zip(maps, starts)]
    served = _recording_floors(monkeypatch)
    assert [_hex(est) for est in norms.sup_norms(maps, cfg, starts)] == alone
    held = [floor for _, floor in served]
    assert [len(X) for X, _ in held] == [518, 520, 519, 518, 520, 519]
    assert not np.shares_memory(held[0][1], held[1][1])
    for X, mon in held[2:]:
        assert np.shares_memory(X, held[1][0]) and np.shares_memory(mon, held[1][1])
        assert mon.flags.c_contiguous


def test_stacked_norms_take_every_method_map_by_map():
    # the circle pass and the search refine one map at a time; a stack of
    # them gives each the estimate it gets alone, as does a stack of points
    rng = np.random.default_rng(7)
    cfg = NormConfig(samples=512, restarts=8, seed=3)
    # over 270 binary orders, so this d = 2 map takes the search
    wide = PolyMap((HomPoly(2, 3, {(3, 0): 1e-150, (2, 1): 1.0, (0, 3): 1e120}, F64),))
    methods = {}
    for d, m, e in ((1, 3, 2), (2, 3, 1), (2, 4, 2), (3, 2, 2)):
        basis = enumerate_multi_indices(d, m)
        maps = [PolyMap(tuple(HomPoly(d, m, dict(zip(basis, map(float, rng.standard_normal(
            len(basis))))), F64) for _ in range(e))) for _ in range(4)]
        if (d, m, e) == (2, 3, 1):
            maps.insert(2, wide)
        stacked = norms.sup_norms(maps, cfg, [[[1.0] * d]] * len(maps))
        assert stacked == [sup_norm(P, cfg, [[1.0] * d]) for P in maps]
        assert [_hex(est) for est in stacked] == [
            _hex(sup_norm(P, cfg, [[1.0] * d])) for P in maps]
        methods[d, m, e] = [est.method for est in stacked]
    assert methods[1, 3, 2] == ["endpoint-enumeration"] * 4
    assert methods[2, 3, 1] == ["circle-critical-points"] * 2 + ["sobol+gradient-ascent"] + [
        "circle-critical-points"] * 2
    assert methods[3, 2, 2] == ["sobol+gradient-ascent"] * 4


def test_stacked_circle_pass_in_sup_norm_equals_the_per_map_reference():
    # whole estimates through sup_norms, where maps past 2^+-256 are measured
    # scaled and a map past MAX_CIRCLE_SPREAD takes the search mid-stack;
    # every circle map keeps the pick the per-map reference makes
    rng = np.random.default_rng(2311)
    cfg = NormConfig(samples=512, restarts=8, seed=6)
    basis = enumerate_multi_indices(2, 3)
    C = circle_stack(rng, 3, 2, 100)
    maps = [PolyMap(tuple(HomPoly(2, 3, dict(zip(basis, map(float, row))), F64) for row in c))
            for c in C]
    maps.insert(50, WIDE)
    start = [1.0, 2.0]
    got = norms.sup_norms(maps, cfg, [[start]] * len(maps))
    alone = [sup_norm(P, cfg, [start]) for P in maps]
    assert [_hex(est) for est in got] == [_hex(est) for est in alone]
    assert got == alone
    assert [est.method for est in got] == ["circle-critical-points"] * 50 + [
        "sobol+gradient-ascent"] + ["circle-critical-points"] * 50
    starts = np.vstack([norms._signed_basis(2), np.array([start]) / vector_norm(start)])
    picks = _circle_picks_reference(norms._shape(2, 3), C, starts)
    assert _same_bits(np.array([est.maximizer for est in got[:50] + got[51:]]),
                      picks / np.sqrt((picks * picks).sum(axis=1))[:, None])


def test_stacked_norms_refuse_mixed_shapes_and_fields(monkeypatch):
    # maps of several shapes are normed, one stack per shape; a count of
    # start lists other than the count of maps, a bad start in any stack and
    # a map of another field are refused before any stack is normed
    P = PolyMap.from_matrix([[1.0, 2.0]], F64)
    square = PolyMap.from_matrix([[1.0, 2.0], [3.0, 4.0]], F64)
    cube = PolyMap((HomPoly(3, 3, {(3, 0, 0): 1.0, (1, 1, 1): -2.0}, F64),))
    assert norms.sup_norms([], NormConfig()) == []
    assert norms.sup_norms([P, square, P], NormConfig()) == [sup_norm(P), sup_norm(square),
                                                             sup_norm(P)]

    def no_stack_norms(*args, **kwargs):
        raise AssertionError("a stack was normed")
    monkeypatch.setattr(norms, "_stack_norms", no_stack_norms)
    with pytest.raises(DimensionError, match="^1 lists of extra starts for 2 maps$"):
        norms.sup_norms([P, square], NormConfig(), [[]])
    with pytest.raises(DimensionError, match="^extra start has length 2, expected 3$"):
        norms.sup_norms([P, cube], NormConfig(), [[], [[1.0, 0.0]]])
    with pytest.raises(FieldError):
        norms.sup_norms([P, cube], NormConfig(), [[], [[math.nan, 0.0, 1.0]]])
    with pytest.raises(FieldError):
        norms.sup_norms([P, PolyMap.from_matrix([[1, 2]])], NormConfig())


def _upper_trials_per_q(rng, d, k, q_trials, cfg, ratio):
    # the reference: each q is drawn, normed alone and measured in turn
    worst, tested = 0.0, 0
    for _ in range(q_trials):
        q = norms._random_hompoly_f64(rng, d, k)
        qn = sup_norm(q, cfg).value
        if qn < 1e-12:
            continue
        tested += 1
        worst = float(np.maximum(worst, ratio(q.scale(1.0 / qn))))
    return worst, tested


def test_random_f64_polynomials_equal_validated_ones():
    # built without re-validation: the same dict, in the same key order
    for d, k in ((1, 3), (2, 2), (3, 4)):
        basis = enumerate_multi_indices(d, k)
        got = norms._random_hompoly_f64(norms._np_rng(d, "q"), d, k)
        draws = norms._np_rng(d, "q").standard_normal(len(basis))
        want = HomPoly(d, k, dict(zip(basis, (float(v) for v in draws))), F64)
        assert got == want and list(got.coeffs.items()) == list(want.coeffs.items())
        assert got._terms == want._terms and all(type(c) is float for c in got.coeffs.values())


@pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_upper_trials_draw_in_order_and_match_a_per_q_loop(d, k):
    # each method of sup_norm on the way: closed form, circle and search
    cfg = NormConfig(samples=256, restarts=8, seed=11)
    x = np.random.default_rng(d * k).standard_normal(d).tolist()
    seen = {"loop": [], "stack": []}

    def ratio(side):
        def measure(q):
            seen[side].append(q.coeffs)
            return abs(q.eval(x))
        return measure
    loop_rng, stack_rng = norms._np_rng(5, "trials"), norms._np_rng(5, "trials")
    want = _upper_trials_per_q(loop_rng, d, k, 12, cfg, ratio("loop"))
    unit = norms._unit_trials(stack_rng, d, k, 12, cfg)
    rep = norms.Report.bracket("c", cfg, 1.0, 1.0, (ratio("stack")(q) for q in unit), {})
    got = rep.details["worst_upper_ratio"], len(unit)
    assert got == want and got[1] == 12
    assert seen["stack"] == seen["loop"]
    # both consumed the same draws
    assert stack_rng.standard_normal() == loop_rng.standard_normal()


@pytest.mark.parametrize("position", range(10))
def test_a_nan_ratio_anywhere_fails_the_upper_side(monkeypatch, position):
    # the bracket's fold keeps a NaN wherever it sits, and the report fails
    rep = norms.Report.bracket("c", NormConfig(), 1.0, 1.0,
                               (math.nan if t == position else 0.5 for t in range(10)), {})
    assert math.isnan(rep.details["worst_upper_ratio"]) and math.isnan(rep.rel_err)
    assert not rep.passed
    # the embedding's value is NaN at one trial: its numerator there, which
    # the upper side reads trial by trial, is NaN
    real, calls = norms._numerator, []

    def nan_at(nums, X, table):
        calls.append(X)
        return math.nan if len(calls) == position + 1 else real(nums, X, table)
    monkeypatch.setattr(norms, "_numerator", nan_at)
    [rep] = check_embedding_norm([([0.6, -1.1], 2, 2)], NormConfig(seed=5), q_trials=10)
    assert len(calls) == 10
    assert math.isnan(rep.details["worst_upper_ratio"]) and math.isnan(rep.rel_err)
    assert not rep.passed


EMBEDDING_POINTS = ([0.6, -1.1], [1.5, 0.25], [-0.3, 0.9], [2.0, -0.5])


@pytest.mark.parametrize("position", [0, 4, 9])
def test_a_nan_ratio_against_shared_trials_fails_every_instance_that_reads_it(
        monkeypatch, position):
    # the instances of a batch on one stream share its unit trials, each
    # cleared once to its point: a trial whose ratio is NaN fails each
    # instance measured against it
    cfg = NormConfig(seed=5)
    real_cleared, real_numerator, points = norms._cleared, norms._numerator, []

    def cleared(x, field):
        points.append(real_cleared(x, field))
        return points[-1]

    def nan_on(nums, X, table):
        # the embedding's value at the poisoned trial is NaN
        return math.nan if X is points[position][1] else real_numerator(nums, X, table)
    monkeypatch.setattr(norms, "_cleared", cleared)
    monkeypatch.setattr(norms, "_numerator", nan_on)
    reps = check_embedding_norm([(x, 2, 2) for x in EMBEDDING_POINTS], cfg, 10)
    unit = norms._unit_trials(norms._np_rng(5, "embedding-norm-q-2-2-2"), 2, 2, 10, cfg)
    assert points == [real_cleared(q.coeff_vector(), norms.F64) for q in unit]
    assert all(math.isnan(rep.rel_err) and not rep.passed for rep in reps)


def test_instances_share_unit_trials_but_never_ratios(monkeypatch):
    # a NaN in one instance's ratios stays its own: the instances after it,
    # reading the same unit trials, drawn once, report as they do alone
    cfg = NormConfig(seed=5)
    real, real_numerator, real_trials = (norms.evaluation_embedding, norms._numerator,
                                         norms._unit_trials)
    poisoned, draws = [], []

    def embedding(x, *a, **kw):
        jp = real(x, *a, **kw)
        if list(x) == EMBEDDING_POINTS[0]:
            poisoned.append(jp._terms[1])
        return jp

    def nan_all(nums, X, table):
        # every trial value of the first instance's embedding is NaN; its
        # lower side is evaluated on its own
        return math.nan if any(nums is p for p in poisoned) else real_numerator(nums, X, table)

    def counted(*args):
        draws.append(args)
        return real_trials(*args)
    monkeypatch.setattr(norms, "evaluation_embedding", embedding)
    monkeypatch.setattr(norms, "_numerator", nan_all)
    monkeypatch.setattr(norms, "_unit_trials", counted)
    first, *rest = check_embedding_norm([(x, 2, 2) for x in EMBEDDING_POINTS], cfg, 10)
    assert len(draws) == 1
    assert math.isnan(first.rel_err) and not first.passed
    assert math.isnan(first.details["worst_upper_ratio"]) and abs(first.lhs / first.rhs - 1) < 1e-9
    monkeypatch.setattr(norms, "evaluation_embedding", real)
    monkeypatch.setattr(norms, "_numerator", real_numerator)
    assert rest == [check_embedding_norm([(x, 2, 2)], cfg, q_trials=10)[0]
                    for x in EMBEDDING_POINTS[1:]]
    assert all(rep.passed for rep in rest)


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
    assert est.method == "endpoint-enumeration" and est.iterations == 0
    assert abs(est.value - 2.5) <= 1e-12
    # extra starts join the candidates, but on the line they are the
    # endpoints again (or the zero vector, which is dropped)
    for starts in ([[3.0]], [[-1e-9]], [[0.0]], [[1.0], [-7.0]]):
        assert sup_norm(p, NormConfig(seed=1), extra_starts=starts) == est


def test_an_extra_start_of_another_length_is_refused_before_the_coefficients(monkeypatch):
    # it ended in numpy's "array dimensions must match", after the read
    def no_read(*args):
        raise AssertionError("the coefficients were read")
    monkeypatch.setattr(norms, "_coefficient_stack", no_read)
    with pytest.raises(DimensionError, match=r"^extra start has length 3, expected 2$"):
        sup_norm(linear_map([[1.0, 2.0], [0.5, -1.0]]), NormConfig(seed=1), [[1.0, 2.0, 3.0]])


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


def wide_range_map(seed: int) -> PolyMap:
    """A d=2, m=12, e=3 map whose coefficients span about 10^+-150."""
    rng = np.random.default_rng(seed)
    basis = enumerate_multi_indices(2, 12)
    return PolyMap(tuple(
        HomPoly(2, 12, dict(zip(basis, map(float, rng.standard_normal(len(basis))
                                           * 10.0 ** rng.integers(-150, 150, len(basis))))), F64)
        for _ in range(3)))


def circle_scan(P: PolyMap, points: int) -> float:
    """max |P| over equally spaced points of the unit circle."""
    theta = np.linspace(0.0, 2.0 * np.pi, points)
    c, s = np.cos(theta), np.sin(theta)
    squares = np.zeros(points)
    for comp in P.components:
        v = np.zeros(points)
        for (a1, a2), x in comp.coeffs.items():
            v += x * c ** a1 * s ** a2
        squares += v * v
    return float(np.sqrt(squares.max()))


@pytest.mark.parametrize("seed", [1, 2, 40])
def test_wide_range_two_variable_maps_take_the_search(seed):
    # the circle pass loses the critical polynomial's small coefficients
    # against its large ones: it missed the maximum (seeds 1, 2) or handed
    # infinities to the root-finder (seed 40); the spread routes such maps
    # to the search, whose value is an evaluation at least as high as a
    # dense circle scan (which can undershoot a sharp peak by about 1e-9)
    P = wide_range_map(seed)
    assert norms._exponent_spread(P) > norms.MAX_CIRCLE_SPREAD
    est = sup_norm(P)
    assert est.method == "sobol+gradient-ascent"
    x = tuple(est.maximizer)
    assert abs(math.hypot(*x) - 1.0) <= 1e-12
    assert math.isclose(math.hypot(*P.eval_map(x)), est.value, rel_tol=1e-12)
    scan = circle_scan(P, 200_001)
    assert scan * (1.0 - 1e-12) <= est.value <= scan * (1.0 + 1e-6)


def test_sup_norm_past_the_largest_double_raises():
    # (c x, c x) has norm c sqrt(2), which no double holds for c = 1.5e308:
    # a size cap, as every other f64 result past the largest double
    P = PolyMap((HomPoly(1, 1, {(1,): 1.5e308}, F64),) * 2)
    with pytest.raises(CapacityError, match="exceeds the largest double"):
        sup_norm(P)


# (d, e, m, scale) of a random map per sup_norm method; the last two are
# measured at unit scale and their value scaled back
MAXIMIZER_CASES = [
    ("endpoint-enumeration", (1, 2, 3, 1.0)),
    ("closed-form", (3, 2, 1, 1.0)),
    ("circle-critical-points", (2, 2, 3, 1.0)),
    ("sobol+gradient-ascent", (3, 2, 2, 1.0)),
    ("circle-critical-points", (2, 2, 3, 2.0 ** -300)),
    ("sobol+gradient-ascent", (3, 2, 2, 2.0 ** 300)),
]


def test_sup_norm_maximizer_is_feasible_and_attains_value():
    # whatever the method, the reported value is P at the reported point,
    # and that point lies on the unit sphere
    for method, (d, e, m, scale) in MAXIMIZER_CASES:
        rng = np.random.default_rng(99)
        basis = enumerate_multi_indices(d, m)
        P = PolyMap(tuple(
            HomPoly(d, m, dict(zip(basis, (scale * float(v)
                                           for v in rng.standard_normal(len(basis))))), F64)
            for _ in range(e)))
        est = sup_norm(P, NormConfig(seed=11))
        assert est.method == method, (method, scale)
        x = np.asarray(est.maximizer)
        assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12, (method, scale)
        val = math.hypot(*P.eval_map(tuple(float(v) for v in x)))
        assert math.isclose(val, est.value, rel_tol=1e-12), (method, scale)
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


def test_norming_functional_refuses_only_the_zero_vector():
    # it normalizes 2^-e y, exactly: below 1e-300, where every vector used
    # to be refused, and among subnormals the functional is that of (3, -4)
    unit = norming_functional([3.0, -4.0]).coeffs
    for e in (-1000, -1070):
        assert norming_functional([math.ldexp(3.0, e), math.ldexp(-4.0, e)]).coeffs == unit
    assert norming_functional([5e-324, 0.0]).coeffs == norming_functional([1.0, 0.0]).coeffs
    with pytest.raises(DegenerateInputError):
        norming_functional([0.0, -0.0])


@pytest.mark.parametrize("scale", [-700, -300, 300, 700])
def test_vector_norm_far_from_unit_scale(scale):
    # (3, 4) 2^s has norm 5 * 2^s exactly; unscaled, its squares underflow
    # to 0 or overflow to inf
    assert vector_norm([math.ldexp(3.0, scale), math.ldexp(-4.0, scale)]) == math.ldexp(5.0, scale)
    # a norm past the largest double is inf, without a warning
    assert vector_norm([1.5e308, 1.5e308]) == math.inf
    # norming 1e-200 (1, 1) used to fail as the zero vector
    phi = norming_functional([1e-200, 1e-200])
    assert phi.eval((1e-200, 1e-200)) == pytest.approx(2.0 ** 0.5 * 1e-200, rel=1e-15)


def test_check_norm_duality_report():
    [rep] = check_norm_duality([([1.5, -2.0], 3)], NormConfig(seed=2))
    assert rep.passed
    assert rep.rel_err <= 1e-9
    # the sup norm of the attaining power is the bracket's one upper ratio
    assert rep.details["worst_upper_ratio"] <= 1.0 + 1e-9
    with pytest.raises(DegenerateInputError):
        check_norm_duality([([0.0, 0.0], 2)], NormConfig(seed=2))
    assert check_norm_duality([], NormConfig(seed=2)) == []


@pytest.mark.parametrize("m", [0, -1])
def test_check_norm_duality_checks_m_before_its_power(m):
    # the power of the norming functional refused m first, naming it n
    with pytest.raises(DegreeError, match=rf"^the duality needs m >= 1, got m={m}$"):
        check_norm_duality([([1.0, 2.0], m)])


def test_check_adjoint_norm_report():
    rng = np.random.default_rng(31)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 2)
    P = PolyMap(tuple(
        HomPoly(2, 2, dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))), F64)
        for _ in range(2)))
    [rep] = check_adjoint_norm([(P, 1, 2)], NormConfig(seed=31), q_trials=25)
    assert rep.passed
    assert rep.rel_err <= 1e-6
    assert rep.details["worst_upper_ratio"] <= 1.0 + 1e-9
    d = rep.to_dict()
    # no clock in the report: equal checks give equal reports
    assert "wall_ms" not in d
    assert check_adjoint_norm([(P, 1, 2)], NormConfig(seed=31), q_trials=25) == [rep]


@pytest.mark.parametrize("n, k", [(1, 0), (1, -1), (0, 1), (-2, 0)])
def test_check_adjoint_norm_checks_n_and_k_before_any_sup_norm(monkeypatch, n, k):
    # with adjoint_apply's message: a bad k used to reach HomPoly.__pow__,
    # which named it n, only after the sup norm of P had run
    def no_sup_norm(*args, **kwargs):
        raise AssertionError("a sup norm ran")
    monkeypatch.setattr(norms, "sup_norms", no_sup_norm)
    P = linear_map([[1.0, 2.0], [0.5, -1.0]])
    with pytest.raises(DegreeError,
                       match=rf"^adjoint parameters must be >= 1, got n={n}, k={k}$"):
        check_adjoint_norm([(P, 1, 1), (P, n, k)], NormConfig(seed=3))


ORTHONORMAL = linear_map([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
QUADRATIC = HomPoly(2, 2, {(2, 0): 1.0, (1, 1): -0.5}, F64)


@pytest.mark.parametrize("check, error", [
    (lambda: check_norm_duality([([1.0, 2.0], 2), ([0.5, -1.0, 2.0], 3), ([1.0, 2.0], 0)]),
     DegreeError),
    (lambda: check_metric_injection([(ORTHONORMAL, QUADRATIC),
                                     (linear_map([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), QUADRATIC)]),
     PreconditionError),
    (lambda: check_adjoint_norm([(linear_map([[1.0, 2.0], [0.5, -1.0]]), 1, 2),
                                 (linear_map([[1.0, 2.0], [0.5, -1.0]]), 0, 1)]),
     DegreeError),
    (lambda: check_embedding_norm([([0.6, -1.1], 2, 2), ([1e200, 1e200], 2, 2)]),
     CapacityError),
    (lambda: check_embedding_norm([([0.6, -1.1], 2, 2), ([1.0, 2.0], 0, 2)]), DegreeError),
], ids=["duality", "injection", "adjoint", "embedding-target", "embedding-degree"])
def test_a_bad_instance_last_in_a_batch_is_refused_before_any_sup_norm(monkeypatch, check, error):
    def no_sup_norm(*args, **kwargs):
        raise AssertionError("a sup norm ran")
    monkeypatch.setattr(norms, "sup_norms", no_sup_norm)
    with pytest.raises(error):
        check()


def _report_hex(rep) -> tuple:
    return rep.lhs.hex(), rep.rhs.hex(), rep.rel_err.hex()


def _batches(seed: int) -> list[tuple]:
    """(check, instances, keyword arguments) of each of the five checks."""
    rng = np.random.default_rng(seed)

    def f64_map(d, e, deg):
        basis = enumerate_multi_indices(d, deg)
        return PolyMap(tuple(HomPoly(d, deg, dict(zip(basis, map(float, rng.standard_normal(
            len(basis))))), F64) for _ in range(e)))
    points = [(rng.standard_normal(d).tolist(), m) for d in (2, 3, 2) for m in (1, 2, 3)]
    cubic = HomPoly(2, 3, {(3, 0): 1.0, (1, 2): 2.5, (0, 3): -0.75}, F64)
    pairs = [(ORTHONORMAL, QUADRATIC), (ORTHONORMAL, cubic), (ORTHONORMAL, QUADRATIC)]
    # m = 1 and 2 at one (n, k) and codomain: both read one stream of trials
    adjoint = [(f64_map(2, 2, 1), 1, 2), (f64_map(2, 2, 2), 1, 2), (f64_map(2, 2, 1), 2, 1)]
    embedding = [(rng.standard_normal(d).tolist(), 2, n) for d in (2, 3, 2) for n in (1, 2)]
    triples = [tuple(f64_map(2, 2, deg) for deg in degs) for degs in ((1, 1, 1), (2, 1, 2))]
    return [(check_norm_duality, points, {}), (check_metric_injection, pairs, {}),
            (check_adjoint_norm, adjoint, {"q_trials": 12}),
            (check_embedding_norm, embedding, {"q_trials": 12}),
            (check_two_sided_norm, triples, {})]


def test_batched_identity_checks_equal_their_one_instance_calls():
    # one report per instance, in order, each the report of that instance
    # checked alone, to the bit
    for seed in (4, 41):
        cfg = NormConfig(seed=seed)
        for check, instances, kwargs in _batches(seed):
            batch = check(instances, cfg, **kwargs)
            alone = [check([inst], cfg, **kwargs)[0] for inst in instances]
            assert batch == alone, (seed, check.__name__)
            assert list(map(_report_hex, batch)) == list(map(_report_hex, alone))
            assert len(batch) == len(instances) and all(rep.passed for rep in batch)


@pytest.mark.parametrize("check", [
    lambda: check_adjoint_norm([(linear_map([[1.0, 2.0], [0.5, -1.0]]), 1, 2)],
                               NormConfig(seed=3), q_trials=0),
    lambda: check_embedding_norm([([0.6, -1.1], 2, 2)], NormConfig(seed=5), q_trials=-3),
], ids=["adjoint", "embedding"])
def test_a_check_with_no_upper_trial_is_refused_before_any_sup_norm(monkeypatch, check):
    # with no trial the bracket passed on its lower side alone, reporting
    # q_instances 0
    def no_sup_norm(*args, **kwargs):
        raise AssertionError("a sup norm ran")
    monkeypatch.setattr(norms, "sup_norms", no_sup_norm)
    with pytest.raises(PreconditionError, match=r"^q_trials must be >= 1, got -?\d+$"):
        check()


@pytest.mark.parametrize("rel_err, passed", [
    (1e-6, True),                                  # at the tolerance
    (math.nextafter(1e-6, math.inf), False),       # one rounding above it
    (math.nan, False),
])
def test_report_verdict_is_error_within_tolerance(rel_err, passed):
    cfg = NormConfig(tol=1e-6, seed=3)
    rep = norms.Report("c", 1.0, 1.0, rel_err, cfg.tol, True, cfg.samples, cfg.seed)
    assert rep.passed is passed
    # a bracket takes the tolerance, sample count and seed of its config
    rep = norms.Report.bracket("c", cfg, 1.0, 1.0, [], {})
    assert (rep.tol, rep.samples, rep.seed, rep.certified_lower) == (1e-6, cfg.samples, 3, True)
    assert rep.passed
    with pytest.raises(TypeError):
        norms.Report("c", 1.0, 1.0, 2.0, 1e-6, True, 1, 0, passed=True)


@pytest.mark.parametrize("lhs, rhs, ratios, rel_err, worst", [
    (1.0, 1.0, [], 0.0, 0.0),                      # no upper side: 0.0 for none
    (0.75, 1.0, [0.5], 0.25, 0.5),                 # the lower gap
    (1.0, 2.0, [1.0, 1.25, 0.5], 0.5, 1.25),       # the larger of the two sides
    (2.0, 2.0, [0.5, 1.5], 0.5, 1.5),              # the upper excess alone
    (math.nan, 1.0, [0.5], math.nan, 0.5),
    (1.0, 1.0, [math.nan, 0.5], math.nan, math.nan),
])
def test_bracket_error_is_the_worse_of_its_two_sides(lhs, rhs, ratios, rel_err, worst):
    # a NaN on either side stays NaN, and fails
    details = {"k": 2}
    rep = norms.Report.bracket("c", NormConfig(), lhs, rhs, ratios, details)
    assert details == {"k": 2} and list(rep.details) == ["k", "worst_upper_ratio"]
    assert np.array_equal([rep.rel_err, rep.details["worst_upper_ratio"]], [rel_err, worst],
                          equal_nan=True)
    assert rep.passed is (rel_err <= 1e-6)


def test_a_ratio_as_its_only_upper_side_keeps_the_bits_of_its_gap():
    # metric injection hands the bracket lhs/rhs: max(|r - 1|, r - 1) = |r - 1|
    rng = np.random.default_rng(17)
    for lhs, rhs in itertools.chain(rng.lognormal(0.0, 1e-6, (200, 2)).tolist(),
                                    [(1.0, 1.0), (0.0, 1.0), (3.0, 1.5), (1e-300, 1e300)]):
        rep = norms.Report.bracket("c", NormConfig(), lhs, rhs, [lhs / rhs], {})
        assert rep.rel_err.hex() == abs(lhs / rhs - 1.0).hex()


def test_check_embedding_norm_report():
    [rep] = check_embedding_norm([([0.6, -1.1], 2, 2)], NormConfig(seed=5), q_trials=10)
    assert rep.passed
    assert rep.rel_err <= 1e-6


def test_check_metric_injection_requires_orthonormal_rows():
    bad = linear_map([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    q = HomPoly(2, 2, {(2, 0): 1.0}, F64)
    with pytest.raises(PreconditionError):
        check_metric_injection([(bad, q)], NormConfig(seed=1))


def test_check_metric_injection_measures_q_of_any_normal_size():
    # a q of any size whose norm is a normal double is measured, and only
    # the zero q is refused as zero
    proj = linear_map([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for scale in (1e-290, 1e-302, 1e-305):
        q = HomPoly(2, 2, {(2, 0): scale, (1, 1): scale}, F64)
        [rep] = check_metric_injection([(proj, q)], NormConfig(seed=1))
        assert rep.passed and rep.rel_err == 0.0
    with pytest.raises(CapacityError):
        check_metric_injection([(proj, HomPoly(2, 2, {(2, 0): 1e-310, (1, 1): 1e-310}, F64))],
                               NormConfig(seed=1))
    with pytest.raises(DegenerateInputError, match="q is zero"):
        check_metric_injection([(proj, HomPoly(2, 2, {}, F64))], NormConfig(seed=1))


@pytest.mark.parametrize("check", [
    lambda x: check_norm_duality([(x, 2)], NormConfig(seed=1))[0],
    lambda x: check_embedding_norm([(x, 2, 2)], NormConfig(seed=1))[0],
], ids=["duality", "embedding"])
def test_norm_identity_targets_far_from_unit_scale_are_refused_as_a_size_cap(check):
    # |x|^2 and |x|^4 overflow at 1e200 and underflow at 1e-200: they ended
    # in a bare OverflowError, and duality refused the nonzero 1e-200 x as
    # "x must be nonzero"; only the zero x is degenerate
    for scale in (1e200, 1e-200):
        with pytest.raises(CapacityError, match="does not fit a double"):
            check([scale, scale])
    with pytest.raises(DegenerateInputError, match="x must be nonzero"):
        check([0.0, 0.0])
    # a non-finite x is bad input, not a size cap: the embedding refused a
    # NaN x as a coefficient past the largest double
    for bad in (math.nan, math.inf):
        with pytest.raises(FieldError, match="x must be finite"):
            check([bad, 1.0])
    # a target that is a normal double is measured
    assert check([1e-60, 1e-60]).passed


def test_an_extra_start_of_any_nonzero_size_joins_the_candidates():
    # normalized at unit scale, exactly, a tiny start is the start itself:
    # the search ascends from it as from the unit-scale one
    P = HomPoly(3, 3, {(3, 0, 0): 1.0, (1, 1, 1): 6.0, (0, 0, 3): -0.5}, F64)
    cfg = NormConfig(samples=1, restarts=1, seed=2)
    start = [0.6, 0.55, 0.58]
    want = sup_norm(P, cfg, extra_starts=[start])
    assert want != sup_norm(P, cfg)
    # normal doubles all, so 2^e start keeps the bits of start
    for e in (-1000, -1020):
        tiny = [math.ldexp(v, e) for v in start]
        assert sup_norm(P, cfg, extra_starts=[tiny]) == want
    assert sup_norm(P, cfg, extra_starts=[[0.0, -0.0, 0.0]]) == sup_norm(P, cfg)
    for bad in ([math.nan, 1.0, 0.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(FieldError):
            sup_norm(P, cfg, extra_starts=[bad])


def test_check_metric_injection_passes_for_projection():
    proj = linear_map([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rng = np.random.default_rng(17)
    from polyadjoint import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 3)
    q = HomPoly(2, 3, dict(zip(basis, (float(v) for v in rng.standard_normal(len(basis))))), F64)
    [rep] = check_metric_injection([(proj, q)], NormConfig(seed=17))
    assert rep.passed
    assert rep.rel_err <= 1e-6


def test_norm_config_validation():
    with pytest.raises(PreconditionError):
        NormConfig(restarts=0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            NormConfig(tol=tol)
