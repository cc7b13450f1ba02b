"""Tests for symmetric tensor powers and the matrix views of the adjoint."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyadjoint import (
    HomPoly,
    PolyMap,
    LinearMap,
    adjoint_matrix,
    adjoint_rank_bound,
    coefficient_matrix,
    compose_scalar,
    enumerate_multi_indices,
    linearization_matrix,
    linearize,
    map_rank,
    relabeling_map,
    tensor_power,
    transpose_identity_defect,
)
from polyadjoint.errors import CapacityError, SingularMatrixError
from polyadjoint.linearization import rref
from polyadjoint import sampling


def test_tensor_power_frozen_example():
    # coordinates at (2,0), (1,1), (0,2)
    assert tensor_power((Fraction(2), Fraction(3)), 2) == [
        Fraction(4), Fraction(6), Fraction(9)]


def test_tensor_power_pairing_with_linearize():
    # the covector of q paired with the k-th tensor power of x gives q(x)
    rng = sampling.rng(5, "pairing")
    for k in (1, 2, 3):
        for _ in range(10):
            q = sampling.random_hompoly(rng, 3, k)
            x = sampling.random_point(rng, 3)
            cov = linearize(q)
            t = tensor_power(x, k)
            paired = sum(a * b for a, b in zip(cov.entries[0], t))
            assert paired == q.eval(x)


def test_linearization_matrix_intertwines_tensor_powers():
    # rows are the coefficient vectors of P^beta: the matrix sends the
    # (m*k)-th tensor power of x to the k-th tensor power of P(x)
    rng = sampling.rng(9, "intertwine")
    for (d, e, m, k) in ((2, 2, 2, 1), (2, 3, 1, 2), (3, 2, 2, 2)):
        for _ in range(6):
            P = sampling.random_polymap(rng, d, e, m)
            M = linearization_matrix(P, k)
            x = sampling.random_point(rng, d)
            lhs = M.apply(tensor_power(x, m * k))
            rhs = tensor_power(P.eval_map(x), k)
            assert tuple(lhs) == tuple(rhs)


def test_adjoint_matrix_columns_are_substituted_monomials():
    rng = sampling.rng(13, "columns")
    P = sampling.random_polymap(rng, 2, 3, 2)
    k = 2
    A = adjoint_matrix(P, k)
    basis = enumerate_multi_indices(3, k)
    for j, beta in enumerate(basis):
        mono = HomPoly.monomial(3, beta, 1)
        col = tuple(A.entries[i][j] for i in range(A.rows))
        assert col == tuple(compose_scalar(mono, P).coeff_vector())


def test_adjoint_matrix_acts_on_coefficients():
    rng = sampling.rng(17, "action")
    for _ in range(10):
        P = sampling.random_polymap(rng, 2, 2, 2)
        q = sampling.random_hompoly(rng, 2, 2)
        got = adjoint_matrix(P, 2).apply(q.coeff_vector())
        assert tuple(got) == tuple(compose_scalar(q, P).coeff_vector())


def test_transpose_identity_defect_vanishes():
    rng = sampling.rng(21, "transpose")
    for (d, e, m, k) in ((2, 2, 1, 1), (2, 2, 2, 2), (2, 3, 2, 1), (3, 2, 1, 2)):
        for _ in range(8):
            P = sampling.random_polymap(rng, d, e, m)
            assert transpose_identity_defect(P, k).is_zero


def test_relabeling_map_is_identity_permutation():
    L = relabeling_map(3, 2)
    assert L.rows == L.cols == math.comb(3 + 1, 2)
    for i in range(L.rows):
        for j in range(L.cols):
            assert L.entries[i][j] == (1 if i == j else 0)


def test_map_rank_examples():
    # both components proportional: coefficient matrix has rank 1
    p = HomPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    P = PolyMap((p, p.scale(Fraction(3))))
    assert map_rank(P) == 1
    Q = PolyMap((
        HomPoly(2, 2, {(2, 0): Fraction(1)}),
        HomPoly(2, 2, {(0, 2): Fraction(1)}),
    ))
    assert map_rank(Q) == 2
    assert coefficient_matrix(P).rows == 2


def test_rank_bound_holds_and_is_tight_for_rank_one():
    rng = sampling.rng(25, "bound")
    for _ in range(10):
        P = sampling.random_polymap(rng, 2, 3, 2)
        k = 2
        assert adjoint_matrix(P, k).rank() <= adjoint_rank_bound(P, k)
    # rank-one map: adjoint matrix rank is at most C(1+k-1, k) = 1
    p = sampling.random_hompoly(rng, 2, 2)
    R1 = PolyMap((p, p.scale(Fraction(2)), p.scale(Fraction(-1))))
    assert adjoint_matrix(R1, 3).rank() <= 1
    assert adjoint_rank_bound(R1, 3) == 1


def test_linear_map_inverse_and_rank():
    A = LinearMap(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))))
    B = A.inverse()
    I = A @ B
    assert I.entries == LinearMap.identity(2).entries
    assert A.rank() == 2
    S = LinearMap(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    assert S.rank() == 1
    with pytest.raises(SingularMatrixError):
        S.inverse()


def test_capacity_error_names_offender():
    P = sampling.random_polymap(sampling.rng(1, "cap"), 3, 3, 2)
    with pytest.raises(CapacityError) as exc:
        adjoint_matrix(P, 40)
    assert "3003" in str(exc.value)
    assert "dimension" in str(exc.value)


def _fraction_gauss_jordan(rows, ncols):
    """Oracle: textbook Gauss-Jordan on Fractions with leftmost pivots, each
    pivot row normalized before it eliminates the others."""
    a = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(a):
            break
        pr = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots


@st.composite
def rational_matrices(draw):
    """Rows of ncols + aug rationals (ints among them), with zero rows,
    repeated rows and multiples of rows mixed in."""
    ncols, aug = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    value = st.one_of(st.just(0), st.integers(-5, 5),
                      st.fractions(min_value=-9, max_value=9, max_denominator=12),
                      st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                st.sampled_from((999983, 2 ** 31 - 1, 10 ** 9 + 7))))
    rows = draw(st.lists(st.lists(value, min_size=ncols + aug, max_size=ncols + aug),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeat", "multiple")))
        src = rows[draw(st.integers(0, len(rows) - 1))]
        new = ([0] * (ncols + aug) if kind == "zero" else list(src) if kind == "repeat"
               else [Fraction(-3, 7) * v for v in src])
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, ncols


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_gauss_jordan(matrix):
    rows, ncols = matrix
    reduced, pivots = rref(rows, ncols)
    want_rows, want_pivots = _fraction_gauss_jordan(rows, ncols)
    assert pivots == want_pivots
    # row for row, the rows below the pivots (nonzero only in the augmented
    # columns) included
    assert reduced == want_rows
    assert all(type(v) is Fraction for r in reduced for v in r)
    if ncols == len(rows[0]):
        assert LinearMap(tuple(map(tuple, rows))).rank() == len(want_pivots)
