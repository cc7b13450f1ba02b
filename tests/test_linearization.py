"""Tests for symmetric tensor powers and the matrix views of the adjoint."""
from __future__ import annotations

import copy
import math
import pickle
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
from polyadjoint.errors import CapacityError, DimensionError, FieldError, SingularMatrixError
from polyadjoint.algebra import _common_denominator, map_powers
from polyadjoint.linearization import _eliminate
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
    # rank-one map: adjoint matrix rank is C(1+k-1, k) = 1
    p = sampling.random_hompoly(rng, 2, 2)
    R1 = PolyMap((p, p.scale(Fraction(2)), p.scale(Fraction(-1))))
    assert adjoint_matrix(R1, 3).rank() == 1
    assert adjoint_rank_bound(R1, 3) == 1


@pytest.mark.parametrize("d,e", [(2, 2), (3, 2), (3, 3)])
def test_rank_bound_is_attained_when_the_codomain_is_no_wider(d, e):
    # with e <= d the components of a random map are algebraically
    # independent, so q -> q(P) is injective on degree-k polynomials on R^e
    # and the rank is C(e+k-1, k): a bound one larger fails here.  A draw
    # whose components are linearly dependent (some terms are dropped) has
    # a smaller bound, which it must attain too
    rng = sampling.rng(9, f"bound-attained-{d}-{e}")
    full = 0
    for m in (1, 2):
        for k in (1, 2, 3):
            for _ in range(5):
                P = sampling.random_polymap(rng, d, e, m)
                assert adjoint_matrix(P, k).rank() == adjoint_rank_bound(P, k)
                if map_rank(P) == e:
                    full += 1
                    assert adjoint_rank_bound(P, k) == math.comb(e + k - 1, k)
    # nearly every draw has full rank, so the equality with C(e+k-1, k) runs
    assert full >= 25


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


def test_rational_matrix_holds_only_ints_and_fractions():
    for bad in (0.5, 1.0, True):
        with pytest.raises(FieldError):
            LinearMap(((bad, Fraction(1)), (1, 3)))
    A = LinearMap(((Fraction(1, 2), 1), (1, 3)))
    assert A.rank() == 2
    # matrices are exact only: an f64 map has no coefficient matrix
    with pytest.raises(FieldError):
        coefficient_matrix(PolyMap.from_matrix(((0.5, 1.0), (1.0, 3.0)), "f64"))


def test_identity_needs_a_positive_size():
    for n in (0, -1):
        with pytest.raises(DimensionError):
            LinearMap.identity(n)


def test_capacity_error_names_offender(monkeypatch):
    # the cap fires before any product is built: built first, the powers
    # of P at k = 40 would run for minutes
    P = sampling.random_polymap(sampling.rng(1, "cap"), 3, 3, 2)

    def no_product(self, other):
        raise AssertionError("a product was built before the size cap fired")

    monkeypatch.setattr(HomPoly, "__mul__", no_product)
    for builder in (adjoint_matrix, linearization_matrix):
        with pytest.raises(CapacityError) as exc:
            builder(P, 40)
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
def test_eliminate_matches_fraction_gauss_jordan(matrix):
    rows, ncols = matrix
    # each row cleared of its denominators, a positive multiple of itself
    a, pivots = _eliminate([_common_denominator(r)[1] for r in rows], ncols)
    want_rows, want_pivots = _fraction_gauss_jordan(rows, ncols)
    assert pivots == want_pivots
    # the pivot rows over their pivots, row for row
    reduced = [[Fraction(v, r[c]) for v in r] for r, c in zip(a, pivots)]
    assert reduced == want_rows[:len(want_pivots)]
    if ncols == len(rows[0]):
        assert LinearMap(tuple(map(tuple, rows))).rank() == len(want_pivots)


# -- the matrix kernel against the entry-by-entry Fraction code it replaced

def _ref_matmul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
                 for i in range(len(a)))


def _ref_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _ref_transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def _ref_apply(a, vec):
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in a]


def _ref_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _ref_inverse(a):
    """Fraction Gauss-Jordan on [a | I]; None for a singular a."""
    n = len(a)
    rows, pivots = _fraction_gauss_jordan(
        [list(r) + list(e) for r, e in zip(a, _ref_identity(n))], n)
    return tuple(tuple(r[n:]) for r in rows) if len(pivots) == n else None


_VALUE = st.one_of(st.just(0), st.integers(-5, 5),
                   st.fractions(min_value=-9, max_value=9, max_denominator=12),
                   st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                             st.sampled_from((999983, 2 ** 31 - 1, 10 ** 9 + 7))))


def _entries(rows, cols):
    return st.lists(st.lists(_VALUE, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


@st.composite
def matrix_operands(draw):
    """A and B of one shape, C to multiply A by, a vector for A and a
    square S, each a tuple of rows of ints and Fractions."""
    r, c, s, n = (draw(st.integers(1, 4)) for _ in range(4))
    return (draw(_entries(r, c)), draw(_entries(r, c)), draw(_entries(c, s)),
            draw(st.lists(_VALUE, min_size=c, max_size=c)), draw(_entries(n, n)))


def _assert_same_as_revalidated(M, want):
    """A built matrix equals its re-validated copy in every observable way,
    and its entries equal the reference rows."""
    # pickled and copied before anything reads the entries view
    pickled = pickle.loads(pickle.dumps(M))
    copied = copy.deepcopy(M)
    again = LinearMap(M.entries)
    assert M.entries == want
    assert all(type(v) is Fraction for r in M.entries for v in r)
    for other in (again, pickled, copied):
        assert other == M and M == other
        assert other.entries == M.entries
        assert repr(other) == repr(M)
        assert hash(other) == hash(M)
    assert (M.rows, M.cols) == (len(want), len(want[0]))
    assert M.is_zero == all(v == 0 for r in want for v in r)
    assert M.max_abs() == max(abs(v) for r in want for v in r)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(matrix_operands())
def test_matrix_kernel_matches_fraction_reference(operands):
    a, b, c, vec, s = operands
    A, B, C, S = (LinearMap(x) for x in (a, b, c, s))
    assert A.entries == a
    _assert_same_as_revalidated(A @ C, _ref_matmul(a, c))
    _assert_same_as_revalidated(A - B, _ref_sub(a, b))
    _assert_same_as_revalidated(A.transpose(), _ref_transpose(a))
    _assert_same_as_revalidated(LinearMap.identity(len(s)), _ref_identity(len(s)))
    got = A.apply(vec)
    assert got == _ref_apply(a, vec)
    assert all(type(v) is Fraction for v in got)
    assert A.rank() == len(_fraction_gauss_jordan(a, len(a[0]))[1])
    want = _ref_inverse(s)
    if want is None:
        with pytest.raises(SingularMatrixError):
            S.inverse()
    else:
        _assert_same_as_revalidated(S.inverse(), want)
        assert (S @ S.inverse()).entries == _ref_identity(len(s))


def _ref_coefficient_matrix(P):
    basis = enumerate_multi_indices(P.domain_dim, P.degree)
    return tuple(tuple(c.coefficient(a) for a in basis) for c in P.components)


def _ref_linearization_matrix(P, k):
    row_basis = enumerate_multi_indices(P.codomain_dim, k)
    col_basis = enumerate_multi_indices(P.domain_dim, P.degree * k)
    return tuple(tuple(prod.coefficient(g) for g in col_basis)
                 for prod in map_powers(P, row_basis))


def _ref_adjoint_matrix(P, k):
    e = P.codomain_dim
    col_basis = enumerate_multi_indices(e, k)
    row_basis = enumerate_multi_indices(P.domain_dim, P.degree * k)
    cols = [[compose_scalar(HomPoly.monomial(e, beta, 1), P).coefficient(g) for g in row_basis]
            for beta in col_basis]
    return tuple(tuple(cols[j][i] for j in range(len(col_basis)))
                 for i in range(len(row_basis)))


@st.composite
def rational_maps(draw):
    """A map R^d -> R^e of degree m whose components have unrelated
    denominators (zero components included), and a tensor order k."""
    d, e, m, k = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                  draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    basis = enumerate_multi_indices(d, m)
    comps = tuple(HomPoly(d, m, dict(zip(basis, draw(st.lists(
        _VALUE, min_size=len(basis), max_size=len(basis))))))
        for _ in range(e))
    return PolyMap(comps), k


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(rational_maps())
def test_matrix_builders_match_coefficient_loops(case):
    P, k = case
    _assert_same_as_revalidated(coefficient_matrix(P), _ref_coefficient_matrix(P))
    _assert_same_as_revalidated(linearization_matrix(P, k), _ref_linearization_matrix(P, k))
    _assert_same_as_revalidated(adjoint_matrix(P, k), _ref_adjoint_matrix(P, k))
    q = P.components[0]
    _assert_same_as_revalidated(linearize(q), (tuple(q.coeff_vector()),))
