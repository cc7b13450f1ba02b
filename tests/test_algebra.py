"""Oracle tests for the exact polynomial layer.

Every identity is checked against an independent computation: brute-force
enumeration, pointwise evaluation at random rational points, or a frozen
hand-computed value.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import resource
import struct
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyadjoint import (
    F64,
    RATIONAL,
    HomPoly,
    PolyMap,
    SymForm,
    additivity_defect,
    compose_map,
    compose_scalar,
    enumerate_multi_indices,
    materialize_adjoint,
    multinomial,
    polarize,
    polymap_dumps,
    sup_norm,
)
from polyadjoint.errors import CapacityError, DegreeError, DimensionError, FieldError
from polyadjoint import algebra, sampling


def brute_force_indices(d: int, m: int) -> list[tuple[int, ...]]:
    out = [a for a in itertools.product(range(m + 1), repeat=d) if sum(a) == m]
    return sorted(out, reverse=True)


def test_enumerate_matches_brute_force():
    for d in (1, 2, 3, 4):
        for m in (1, 2, 3, 5):
            got = enumerate_multi_indices(d, m)
            assert got == brute_force_indices(d, m)
            assert len(got) == math.comb(d + m - 1, m)


def test_enumerate_frozen_order():
    assert enumerate_multi_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_multi_indices(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert enumerate_multi_indices(1, 4) == [(4,)]


def test_enumerate_rejects_bad_args():
    with pytest.raises(DimensionError):
        enumerate_multi_indices(0, 2)
    with pytest.raises(DegreeError):
        enumerate_multi_indices(2, -1)


def test_enumerate_owns_the_size_cap():
    # C(14, 6) = 3003 is the cap itself: the degree-6 basis on R^9 is built,
    # the one on R^10 (C(15, 6) = 5005) is refused with its name
    assert len(enumerate_multi_indices(9, 6)) == 3003
    with pytest.raises(CapacityError) as exc:
        enumerate_multi_indices(10, 6)
    assert "degree-6 monomial basis on R^10 " in str(exc.value)
    # as many variables as the cap allows, far beyond the recursion limit
    assert enumerate_multi_indices(3003, 1)[-1] == (0,) * 3002 + (1,)
    with pytest.raises(CapacityError):
        enumerate_multi_indices(3004, 1)


def test_enumerate_hands_out_lists_of_their_own_and_checks_every_call():
    # each basis is built once per shape: a caller that changes its list
    # changes nothing the next caller gets, and the checks run on every call
    first = enumerate_multi_indices(3, 2)
    want = brute_force_indices(3, 2)
    first.reverse()
    first[0] = (9, 9, 9)
    first.append((0, 0, 0))
    assert enumerate_multi_indices(3, 2) == want
    assert enumerate_multi_indices(3, 2) is not enumerate_multi_indices(3, 2)
    for _ in range(3):
        with pytest.raises(CapacityError):
            enumerate_multi_indices(10, 6)
        with pytest.raises(DimensionError):
            enumerate_multi_indices(0, 2)
        with pytest.raises(DegreeError):
            enumerate_multi_indices(2, -1)


def _refused_where_read(result: HomPoly, edge: str) -> None:
    """Each read of an f64 result's coefficients refuses it: the view, the
    writer and sup_norm, every time it is asked."""
    reads = (lambda: result.coeffs, lambda: polymap_dumps(PolyMap((result,))),
             lambda: sup_norm(result), lambda: result.coeffs)
    for read in reads:
        with pytest.raises(CapacityError, match=f"{edge} double"):
            read()


def test_f64_result_past_the_largest_double_is_refused():
    # an f64 result is exact until read, and refused where it is read
    p = HomPoly(2, 1, {(1, 0): 1e200, (0, 1): 1.0}, F64)
    q = HomPoly(2, 1, {(1, 0): 1.5e308}, F64)
    for result in (p * p, p ** 2, p.scale(1e200), q + q):
        _refused_where_read(result, "past the largest")
    # finite products of the same operands are kept
    assert (p * p.scale(1e-200)).coeffs[(2, 0)] == pytest.approx(1e200)
    # and so is a result whose value passed the largest double on the way:
    # the x1^2 coefficient of (p * p) * 1e-300 is 1e400 * 1e-300 = 1e100
    back = (p * p).scale(1e-300)
    assert back.coeffs[(2, 0)] == float(Fraction(1e200) ** 2 * Fraction(1e-300))
    assert back.coeffs[(2, 0)] == pytest.approx(1e100)


def test_f64_result_below_the_smallest_double_is_refused():
    # each product of 1e-200 and 1e-200 is below the smallest double, so
    # P^2, 1e-200 P and q o P would read as zero where they are not; q o P
    # with q = 1e-200 t multiplies in compose_scalar itself, and with q = t^2
    # in P^2
    p = HomPoly(2, 1, {(1, 0): 1e-200, (0, 1): 1e-200}, F64)
    results = (p * p, p ** 2, p.scale(1e-200),
               compose_scalar(HomPoly(1, 1, {(1,): 1e-200}, F64), PolyMap((p,))),
               compose_scalar(HomPoly(1, 2, {(2,): 1.0}, F64), PolyMap((p,))),
               materialize_adjoint(PolyMap((p,)), 2, 1).polymap.components[0])
    for result in results:
        _refused_where_read(result, "below the smallest")
    # zeros that are exact are kept: a scale by zero, a cancellation, and a
    # coefficient whose lost term sits beside one that holds it
    assert p.scale(0.0).is_zero
    plus = HomPoly(2, 1, {(1, 0): 1.0, (0, 1): 1.0}, F64)
    minus = HomPoly(2, 1, {(1, 0): 1.0, (0, 1): -1.0}, F64)
    assert (plus * minus).coeffs == {(2, 0): 1.0, (0, 2): -1.0}
    # x y loses 1e-170 * 1e-170 beside 1 * 1, while z w cancels exactly
    left = HomPoly(4, 1, {(1, 0, 0, 0): 1e-170, (0, 1, 0, 0): 1.0, (0, 0, 1, 0): 1.0,
                          (0, 0, 0, 1): 1.0}, F64)
    right = HomPoly(4, 1, {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1e-170, (0, 0, 1, 0): 1.0,
                           (0, 0, 0, 1): -1.0}, F64)
    product = (left * right).coeffs
    assert product[(1, 1, 0, 0)] == 1.0 and (0, 0, 1, 1) not in product
    # and a value below the smallest double on the way comes back
    assert (p * p).scale(1e300).coeffs[(2, 0)] == float(Fraction(1e-200) ** 2 * Fraction(1e300))
    # products that stay above zero, subnormal or not, are kept
    assert (p * p.scale(1e200)).coeffs[(2, 0)] == pytest.approx(1e-200)
    assert p.scale(1e-110).coeffs[(1, 0)] == 1e-200 * 1e-110


def _limit_memory() -> None:
    # 2 GB of address space: a missed cap fails instead of exhausting memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("call", [
    "adjoint.evaluation_embedding([1] * 40, 8, 1)",
    "linearization.tensor_power([1] * 40, 8)",
    "HomPoly(40, 12, {(12,) + (0,) * 39: 1}).coeff_vector()",
    "sampling.random_hompoly(sampling.rng(0, 'cap'), 40, 8)",
    # the check must not compute C(2*10**7 - 1, 10**7): that takes far longer
    "enumerate_multi_indices(10**7, 10**7)",
])
def test_oversized_basis_raises_capacity_error_promptly(call):
    code = ("from polyadjoint import HomPoly, adjoint, enumerate_multi_indices, "
            "linearization, sampling\n"
            "from polyadjoint.errors import CapacityError\n"
            f"try:\n    {call}\nexcept CapacityError:\n    raise SystemExit(3)\n")
    proc = subprocess.run([sys.executable, "-c", code], preexec_fn=_limit_memory,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(4, (1, 1, 1, 1)) == 24
    with pytest.raises(DegreeError):
        multinomial(3, (1, 1))


def test_multinomial_theorem_total():
    # summing multinomial(m, alpha) over all alpha gives d^m
    for d in (2, 3):
        for m in (1, 2, 4):
            total = sum(multinomial(m, a) for a in enumerate_multi_indices(d, m))
            assert total == d ** m


def test_hompoly_eval_and_homogeneity():
    p = HomPoly(2, 3, {(3, 0): Fraction(1), (1, 2): Fraction(-2)})
    assert p.eval((Fraction(2), Fraction(1))) == 8 - 2 * 2 * 1
    rng = sampling.rng(7, "homog")
    for _ in range(25):
        x = sampling.random_point(rng, 2)
        lam = sampling.random_fraction(rng)
        assert p.eval(tuple(lam * v for v in x)) == lam ** 3 * p.eval(x)


def test_zero_coefficients_dropped():
    p = HomPoly(2, 2, {(2, 0): Fraction(0), (1, 1): Fraction(1)})
    assert (2, 0) not in p.coeffs
    assert p.coefficient((2, 0)) == 0
    assert not p.is_zero
    assert HomPoly(2, 2, {}).is_zero


def test_bad_index_shapes_rejected():
    with pytest.raises(DegreeError):
        HomPoly(2, 2, {(1, 0): Fraction(1)})  # total degree mismatch
    with pytest.raises(DimensionError):
        HomPoly(2, 2, {(1, 1, 0): Fraction(1)})  # wrong arity


def test_rational_field_rejects_floats():
    with pytest.raises(FieldError):
        HomPoly(2, 2, {(2, 0): 0.5})


def test_as_field_f64_refuses_a_coefficient_below_the_smallest_double():
    # 10^-400 rounds to 0.0: the f64 map would be the zero map
    tiny = Fraction(1, 10 ** 400)
    p = HomPoly(2, 1, {(1, 0): tiny, (0, 1): 1})
    for convert in (lambda: p.as_field(F64), lambda: PolyMap((p, p)).as_field(F64)):
        with pytest.raises(CapacityError, match="below the smallest double"):
            convert()
    # a subnormal double is kept
    assert HomPoly(1, 1, {(1,): Fraction(1, 10 ** 310)}).as_field(F64).coeffs == {(1,): 1e-310}


def test_as_field_f64_refuses_a_coefficient_past_the_largest_double():
    # 10^400 and the rational just past the rounding edge of the largest
    # double do not fit one: a size cap, like an f64 product that overflows
    edge = Fraction(2 ** 1024 - 2 ** 970)
    for c in (Fraction(10 ** 400), Fraction(-10 ** 400), edge):
        p = HomPoly(2, 1, {(1, 0): c, (0, 1): 1})
        for convert in (lambda: p.as_field(F64), lambda: PolyMap((p, p)).as_field(F64)):
            with pytest.raises(CapacityError, match="past the largest double"):
                convert()
    # the largest double itself converts
    top = HomPoly(1, 1, {(1,): Fraction(sys.float_info.max)}).as_field(F64)
    assert top.coeffs == {(1,): sys.float_info.max}


def test_as_field_rational_is_exact():
    p = HomPoly(2, 1, {(1, 0): 0.1, (0, 1): 1.0 / 3.0}, F64)
    exact = p.as_field(RATIONAL)
    assert exact.coefficient((1, 0)) == Fraction(0.1)
    assert exact.coefficient((1, 0)) != Fraction(1, 10)
    assert exact.coefficient((0, 1)) == Fraction(1.0 / 3.0)
    assert exact.as_field(F64) == p


def test_coeff_vector_round_trip():
    rng = sampling.rng(3, "roundtrip")
    for _ in range(20):
        p = sampling.random_hompoly(rng, 3, 2)
        v = p.coeff_vector()
        assert HomPoly.from_coeff_vector(3, 2, v) == p


def test_product_evaluates_pointwise():
    rng = sampling.rng(11, "product")
    for _ in range(30):
        p = sampling.random_hompoly(rng, 2, 2)
        q = sampling.random_hompoly(rng, 2, 3)
        x = sampling.random_point(rng, 2)
        prod = p * q
        assert prod.degree == 5
        assert prod.eval(x) == p.eval(x) * q.eval(x)


def test_power_is_repeated_product():
    rng = sampling.rng(13, "power")
    for _ in range(10):
        p = sampling.random_hompoly(rng, 2, 2)
        assert p ** 3 == p * p * p
    with pytest.raises(DegreeError):
        p ** 0


def test_compose_scalar_worked_example():
    # q(u, v) = u*v composed with P = (x^2, y^2) gives x^2 y^2
    q = HomPoly(2, 2, {(1, 1): Fraction(1)})
    P = PolyMap((
        HomPoly(2, 2, {(2, 0): Fraction(1)}),
        HomPoly(2, 2, {(0, 2): Fraction(1)}),
    ))
    comp = compose_scalar(q, P)
    assert comp.coeffs == {(2, 2): Fraction(1)}


def test_compose_scalar_pointwise_oracle():
    rng = sampling.rng(17, "compose")
    for _ in range(25):
        P = sampling.random_polymap(rng, 2, 3, 2)
        q = sampling.random_hompoly(rng, 3, 2)
        x = sampling.random_point(rng, 2)
        assert compose_scalar(q, P).eval(x) == q.eval(P.eval_map(x))


def test_compose_map_pointwise_oracle():
    rng = sampling.rng(19, "compose-map")
    for _ in range(20):
        P = sampling.random_polymap(rng, 2, 3, 2)
        R = sampling.random_polymap(rng, 3, 2, 2)
        x = sampling.random_point(rng, 2)
        comp = compose_map(R, P)
        assert comp.degree == 4
        assert comp.eval_map(x) == R.eval_map(P.eval_map(x))


def test_compose_dimension_mismatch():
    P = sampling.random_polymap(sampling.rng(0, "x"), 2, 3, 2)
    q = sampling.random_hompoly(sampling.rng(0, "y"), 2, 2)
    with pytest.raises(DimensionError):
        compose_scalar(q, P)


def test_polymap_identity_and_from_matrix():
    I = PolyMap.identity(3)
    x = (Fraction(1), Fraction(-2), Fraction(5))
    assert I.eval_map(x) == x
    A = PolyMap.from_matrix([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    assert A.eval_map((Fraction(3), Fraction(1))) == (Fraction(5), Fraction(1))


def alternating_polarization(p: HomPoly, points: list[tuple]) -> Fraction:
    """Independent polarization oracle via the alternating-sign average."""
    m = p.degree
    total = Fraction(0)
    for signs in itertools.product((1, -1), repeat=m):
        combo = tuple(
            sum(signs[j] * points[j][i] for j in range(m))
            for i in range(p.domain_dim))
        term = p.eval(combo)
        for s in signs:
            term *= s
        total += term
    return total / (Fraction(2) ** m * math.factorial(m))


def test_polarize_matches_alternating_oracle():
    rng = sampling.rng(23, "polarize")
    for m in (1, 2, 3):
        for _ in range(8):
            p = sampling.random_hompoly(rng, 2, m)
            form = polarize(p)
            pts = [sampling.random_point(rng, 2) for _ in range(m)]
            assert form.apply(pts) == alternating_polarization(p, pts)


def test_polarize_restitution():
    # plugging the same point into every slot recovers the polynomial
    rng = sampling.rng(29, "restitution")
    for m in (1, 2, 4):
        p = sampling.random_hompoly(rng, 3, m)
        form = polarize(p)
        for _ in range(5):
            x = sampling.random_point(rng, 3)
            assert form.apply([x] * m) == p.eval(x)


def test_polarize_frozen_example():
    p = HomPoly(2, 2, {(1, 1): Fraction(1)})  # xy
    form = polarize(p)
    assert dict(form.entries) == {(0, 1): Fraction(1, 2)}
    e1 = (Fraction(1), Fraction(0))
    e2 = (Fraction(0), Fraction(1))
    assert form.apply([e1, e2]) == Fraction(1, 2)


def test_polarize_symmetry():
    rng = sampling.rng(31, "symmetry")
    p = sampling.random_hompoly(rng, 2, 3)
    form = polarize(p)
    pts = [sampling.random_point(rng, 2) for _ in range(3)]
    for perm in itertools.permutations(range(3)):
        assert form.apply([pts[i] for i in perm]) == form.apply(pts)


def test_additivity_defect_frozen_square():
    # R(x) = x^2 on one variable: W(x, y) = 2xy
    R = PolyMap((HomPoly(1, 2, {(2,): Fraction(1)}),))
    W = additivity_defect(R)
    assert W.domain_dim == 2
    assert W.components[0].coeffs == {(1, 1): Fraction(2)}


def test_additivity_defect_binomial_oracle():
    rng = sampling.rng(37, "defect")
    for m in (1, 2, 3, 4):
        R = sampling.random_polymap(rng, 2, 2, m)
        W = additivity_defect(R)
        x = sampling.random_point(rng, 2)
        y = sampling.random_point(rng, 2)
        for i, comp in enumerate(R.components):
            form = polarize(comp)
            expected = sum(
                (math.comb(m, j) * form.apply([x] * j + [y] * (m - j))
                 for j in range(1, m)), Fraction(0))
            assert W.components[i].eval(tuple(x) + tuple(y)) == expected


def test_additivity_defect_zero_iff_linear():
    rng = sampling.rng(41, "iff")
    for _ in range(10):
        R1 = sampling.random_polymap(rng, 3, 2, 1)
        assert additivity_defect(R1).is_zero
        R2 = sampling.random_polymap(rng, 3, 2, 2)
        if not R2.is_zero:
            assert not additivity_defect(R2).is_zero


def test_mixed_field_arithmetic_rejected():
    p = HomPoly(2, 2, {(2, 0): Fraction(1)})
    q = HomPoly(2, 2, {(2, 0): 1.0}, "f64")
    with pytest.raises(FieldError):
        p + q


def test_symform_validates_arity():
    form = SymForm(2, 2, {(0, 1): Fraction(1)})
    with pytest.raises(DimensionError):
        form.apply([(Fraction(1), Fraction(0))])  # one slot instead of two


def _plain_eval(p: HomPoly, x) -> Fraction:
    """Oracle evaluation on plain Fractions; shares no code with HomPoly.eval."""
    total = Fraction(0)
    for alpha, c in p.coeffs.items():
        term = Fraction(c)
        for xi, a in zip(x, alpha):
            term *= Fraction(xi) ** a
        total += term
    return total


# large primes as denominators: every draw gets a fresh, coprime denominator
_PRIMES = (1000003, 998244353, 1000000007, 2 ** 31 - 1, 2 ** 61 - 1)


def _mirror(coeffs: dict, i: int) -> dict:
    """The coefficients of p(..., -x_i, ...)."""
    return {a: -c if a[i] % 2 else c for a, c in coeffs.items()}


@st.composite
def ring_instances(draw):
    """Sparse rational p, q (degree m), s (degree k), P (degree m, R^d -> R^e),
    Q (degree k, R^e -> R^g), a power n and a rational point x.  Some draws
    use large coprime denominators; some make products and sums cancel."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    large = st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15), st.sampled_from(_PRIMES))
    values = st.one_of(small, large) if draw(st.booleans()) else small

    def coeffs(dim: int, deg: int) -> dict:
        basis = enumerate_multi_indices(dim, deg)
        return draw(st.dictionaries(st.sampled_from(basis), values, max_size=4))

    def poly(dim: int, deg: int) -> HomPoly:
        return HomPoly(dim, deg, coeffs(dim, deg))

    d, e, g = (draw(st.integers(1, 3)) for _ in range(3))
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    p, s = poly(d, m), poly(e, k)
    P = PolyMap(tuple(poly(d, m) for _ in range(e)))
    Q = PolyMap(tuple(poly(e, k) for _ in range(g)))
    mode = draw(st.sampled_from(("plain", "mirror", "negate")))
    if mode == "plain":
        q = poly(d, m)
    elif mode == "negate":
        q = -p  # p + q is the zero polynomial
    else:
        # q(x) = p(-x_1, ...): p + q drops the terms odd in x_1 and p * q
        # loses cross terms, e.g. (x + y)(-x + y) = y^2 - x^2
        q = HomPoly(d, m, _mirror(p.coeffs, 0))
        if e >= 2:
            # equal components and s antisymmetric in u_1, u_2: s o P = 0
            P = PolyMap((P.components[0],) * e)
            t = coeffs(e, k)
            anti: dict = {}
            for a, c in t.items():
                swapped = (a[1], a[0]) + a[2:]
                anti[a] = anti.get(a, 0) + c
                anti[swapped] = anti.get(swapped, 0) - c
            s = HomPoly(e, k, anti)
    x = tuple(draw(st.lists(values, min_size=d, max_size=d)))
    return p, q, s, P, Q, n, x


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(ring_instances())
def test_ring_laws_match_pointwise_evaluation(instance):
    p, q, s, P, Q, n, x = instance
    px, qx = _plain_eval(p, x), _plain_eval(q, x)
    Px = [_plain_eval(c, x) for c in P.components]
    assert p.eval(x) == px and q.eval(x) == qx
    for result, expected in (
            (p + q, px + qx),
            (p - q, px - qx),
            (p * q, px * qx),
            (p ** n, px ** n),
            (p.scale(Fraction(-7, 3)), Fraction(-7, 3) * px),
            (compose_scalar(s, P), _plain_eval(s, Px))):
        assert _plain_eval(result, x) == expected
        assert result.eval(x) == expected
    assert compose_map(Q, P).eval_map(x) == tuple(_plain_eval(c, Px) for c in Q.components)
    # max_abs against the dense coefficient vectors, zero polynomials included
    assert p.max_abs() == max(map(abs, p.coeff_vector()))
    assert P.max_abs() == max(abs(c) for comp in P.components for c in comp.coeff_vector())


def _plain_sum(*terms: dict) -> dict:
    """Term-by-term addition on a plain dict: a key whose sum cancels leaves
    at once, and one that comes back goes to the end."""
    out: dict = {}
    for term in terms:
        for a, c in term.items():
            total = out.get(a, 0) + c
            if total:
                out[a] = total
            else:
                out.pop(a, None)
    return out


def _plain_product(c1: dict, c2: dict) -> dict:
    """Product in double-loop order, the zero sums dropped at the end."""
    out: dict = {}
    for a1, v1 in c1.items():
        for a2, v2 in c2.items():
            a = tuple(i + j for i, j in zip(a1, a2))
            out[a] = out.get(a, 0) + v1 * v2
    return {a: c for a, c in out.items() if c}


def _plain_compose(q: HomPoly, P: PolyMap) -> dict:
    """q o P: each P^beta multiplied up as the kernel does, component powers
    left to right, then the terms c_beta * P^beta added one by one."""
    terms = []
    for beta, c in q.coeffs.items():
        prod = None
        for comp, b in zip(P.components, beta):
            if b:
                power = comp.coeffs
                for _ in range(b - 1):
                    power = _plain_product(power, comp.coeffs)
                prod = power if prod is None else _plain_product(prod, power)
        terms.append({a: c * v for a, v in prod.items()})
    return _plain_sum(*terms)


def _int_form(p: HomPoly) -> tuple:
    """(D, [(alpha, numerator), ...]) in stored order, so key order counts."""
    den, nums = p._terms
    return den, list(nums.items())


def _assert_built_like_validated(result: HomPoly, expected: dict) -> None:
    """A rational result: the values of the plain-dict oracle; no zero
    coefficient; equal to its re-validated copy, so the integer form is
    canonical (D least, no zero numerator).  Key order is not promised:
    evaluation does not depend on it, and the writer sorts terms itself."""
    assert result.field == RATIONAL
    assert result.coeffs == expected
    assert all(type(c) is Fraction and c != 0 for c in result.coeffs.values())
    copy = HomPoly(result.domain_dim, result.degree, dict(result.coeffs), result.field)
    assert copy == result
    assert copy._terms == result._terms


def _assert_rounds_the_exact(result: HomPoly, exact: HomPoly) -> None:
    """An f64 result is the exact result of the same operation on the
    rational copies of its operands until it is read, and its view rounds
    each of that result's coefficients once: float() of the Fraction."""
    assert result.field == F64 and exact.field == RATIONAL
    assert result.as_field(RATIONAL) == exact
    assert result.coeffs == {a: float(c) for a, c in exact.coeffs.items()}
    assert all(type(c) is float and c != 0 for c in result.coeffs.values())


def _exact(x) -> list[Fraction]:
    return [Fraction(v) for v in x]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ring_instances(), st.sampled_from((RATIONAL, F64)))
def test_algebra_results_equal_their_validated_copies(instance, field):
    p, q, s, P, Q, n, x = instance
    if field == RATIONAL:
        c = Fraction(-7, 3)
        cases = [
            (p + q, _plain_sum(p.coeffs, q.coeffs)),
            (p * q, _plain_product(p.coeffs, q.coeffs)),
            (p.scale(c), {a: c * v for a, v in p.coeffs.items()}),
            (p.scale(0), {}),
            (compose_scalar(s, P), _plain_compose(s, P)),
        ]
        for result, expected in cases:
            _assert_built_like_validated(result, expected)
        return
    # each f64 operation against the same one on the rational copies of its
    # operands, coefficient by coefficient, and at a point of doubles
    fp, fq, fs, fP = (v.as_field(F64) for v in (p, q, s, P))
    rp, rq, rs, rP = (v.as_field(RATIONAL) for v in (fp, fq, fs, fP))
    cases = [(fp + fq, rp + rq), (fp - fq, rp - rq), (fp * fq, rp * rq), (fp ** n, rp ** n),
             (fp.scale(-2.5), rp.scale(Fraction(-2.5))), (fp.scale(0), rp.scale(0)),
             (compose_scalar(fs, fP), compose_scalar(rs, rP))]
    point = [float(v) for v in x]
    for result, exact in cases:
        _assert_rounds_the_exact(result, exact)
        assert _same_double(result.eval(point), float(exact.eval(_exact(point))))
    form = polarize(fp)
    exact_form = SymForm(form.domain_dim, form.arity,
                         {t: Fraction(v) for t, v in form.entries.items()})
    args = [[v + j for v in point] for j in range(form.arity)]
    assert _same_double(form.apply(args), float(exact_form.apply([_exact(v) for v in args])))


@pytest.mark.parametrize("field", [RATIONAL, F64])
def test_compose_scalar_drops_a_coefficient_that_cancels_and_returns(field):
    # q = u + v + w on P = (x^2 + y^2, -x^2, x^2): x^2 cancels after the
    # second term and comes back with the third
    x2, y2 = HomPoly.monomial(2, (2, 0), 1, field), HomPoly.monomial(2, (0, 2), 1, field)
    P = PolyMap((x2 + y2, -x2, x2))
    q = HomPoly.linear_form([1, 1, 1], field)
    result = compose_scalar(q, P)
    assert result == x2 + y2
    assert result.coeffs == {(2, 0): 1, (0, 2): 1}
    if field == RATIONAL:
        _assert_built_like_validated(result, _plain_compose(q, P))
    else:
        _assert_rounds_the_exact(result, compose_scalar(q.as_field(RATIONAL),
                                                        P.as_field(RATIONAL)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ring_instances(), st.sampled_from((RATIONAL, F64)), st.integers(0, 2 ** 32))
def test_stored_form_behaves_like_its_validated_copy(instance, field, seed):
    # a result holds its integer form and builds the coeffs view on first
    # read; copies and pickles taken before that read, and the view itself,
    # must be indistinguishable from the same result read first and, on the
    # rational field, from the re-validated polynomial.  An f64 result has
    # no re-validated copy: its view rounds the exact value it holds
    p, q, s, P, Q, n, _ = instance
    p, q, s, P = p.as_field(field), q.as_field(field), s.as_field(field), P.as_field(field)
    c = Fraction(-7, 3) if field == RATIONAL else -2.5

    def results() -> list[HomPoly]:
        return [p + q, p * q, p ** n, p.scale(c), compose_scalar(s, P),
                sampling.random_hompoly(sampling.rng(seed, "stored-form"), p.domain_dim,
                                        p.degree)]
    for result, read in zip(results(), results()):
        int_form = _int_form(result)
        early = [copy.deepcopy(result), pickle.loads(pickle.dumps(result))]
        read.coeffs
        references = [read]
        if result.field == RATIONAL:
            validated = HomPoly(result.domain_dim, result.degree, dict(read.coeffs), RATIONAL)
            assert int_form == _int_form(validated)
            references.append(validated)
        for ref in references:
            assert result == ref and ref == result
            for other in [result, *early, copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))]:
                assert other == ref
                assert repr(other) == repr(ref)
                assert dataclasses.asdict(other) == dataclasses.asdict(ref)
                assert list(other.coeffs) == list(ref.coeffs)
                assert _int_form(other) == _int_form(ref)


def test_composed_power_builds_one_fraction_for_its_value(monkeypatch):
    # a product that is only compared and evaluated never builds its
    # Fraction view: the value at a rational point is the one Fraction made
    r = sampling.rng(7, "one-fraction")
    P = sampling.random_polymap(r, 2, 3, 2)
    q = sampling.random_hompoly(r, 3, 2)
    x = sampling.random_point(r, 2)
    expected = _plain_eval(q, [_plain_eval(c, x) for c in P.components]) ** 2
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(algebra, "Fraction", counting)
    g = compose_scalar(q, P) ** 2
    assert g == compose_scalar(q, P) ** 2
    value = g.eval(x)
    monkeypatch.undo()
    assert len(made) <= 1
    assert value == expected


# -- one integer form for both fields ------------------------------------

def _read_once(exact: Fraction):
    """float(exact), or the CapacityError of an f64 read when that is past
    the largest double or rounds a nonzero value to 0.0."""
    try:
        out = float(exact)
    except OverflowError:
        return "past the largest double"
    return "below the smallest double" if exact and not out else out


def _same_double(got, expected) -> bool:
    return type(got) is float and struct.pack("<d", got) == struct.pack("<d", expected)


_f64_floats = st.one_of(st.floats(-1e3, 1e3, allow_subnormal=True),
                        st.sampled_from((0.0, -0.0, 5e-324, -5e-324)))
_f64_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10 ** 6)
_f64_coordinates = {
    "float": _f64_floats,
    "fraction": _f64_fractions,
    "mixed": st.one_of(_f64_floats, _f64_fractions, st.integers(-50, 50)),
}


@st.composite
def f64_operands(draw):
    """An f64 polynomial or symmetric form, its coefficients scaled by
    2^-300, 1 or 2^300, and points of floats and signed zeros, of
    Fractions, or of both mixed with ints; some draws are the zero
    polynomial or form."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from((2.0 ** -300, 1.0, 2.0 ** 300)))
    values = st.floats(-1e3, 1e3, allow_subnormal=True).map(lambda v: v * scale)
    coeffs = draw(st.dictionaries(st.sampled_from(enumerate_multi_indices(d, m)), values,
                                  max_size=5))
    tuples = sorted({tuple(sorted(t)) for t in itertools.product(range(d), repeat=m)})
    entries = draw(st.dictionaries(st.sampled_from(tuples), values, max_size=5))
    coordinates = _f64_coordinates[draw(st.sampled_from(sorted(_f64_coordinates)))]
    points = [tuple(draw(st.lists(coordinates, min_size=d, max_size=d))) for _ in range(m)]
    return HomPoly(d, m, coeffs, F64), SymForm(d, m, entries, F64), points


def _assert_read_once(read, exact: Fraction) -> None:
    """read() gives the double that exact rounds to, or is refused."""
    want = _read_once(exact)
    if isinstance(want, str):
        with pytest.raises(CapacityError, match=want):
            read()
    else:
        assert _same_double(read(), want)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(f64_operands())
def test_f64_eval_and_apply_round_the_exact_value_once(operands):
    # the exact value, from the rational copies of the polynomial, the form
    # and the points, rounded once, or refused when it does not fit
    p, form, points = operands
    exact_points = [_exact(x) for x in points]
    _assert_read_once(lambda: p.eval(points[0]), p.as_field(RATIONAL).eval(exact_points[0]))
    exact_form = SymForm(form.domain_dim, form.arity,
                         {t: Fraction(v) for t, v in form.entries.items()})
    _assert_read_once(lambda: form.apply(points), exact_form.apply(exact_points))


def test_f64_eval_and_apply_refuse_a_value_that_does_not_fit_a_double():
    # 1e200 * 1e200 and (1e200)^2 are past the largest double, (1e-200)^2
    # below the smallest: refused where the value is rounded, as a size cap
    p = HomPoly(2, 1, {(1, 0): 1e200, (0, 1): 1.0}, F64)
    square = HomPoly(2, 2, {(2, 0): 1.0}, F64)
    form = SymForm(2, 2, {(0, 0): 1.0}, F64)
    cases = ((lambda: p.eval([1e200, 0.0]), "past the largest"),
             (lambda: square.eval([1e200, 0.0]), "past the largest"),
             (lambda: form.apply([[1e200, 0.0], [1e200, 0.0]]), "past the largest"),
             (lambda: square.eval([1e-200, 0.0]), "below the smallest"),
             (lambda: form.apply([[1e-200, 0.0], [1e-200, 0.0]]), "below the smallest"))
    for read, edge in cases:
        with pytest.raises(CapacityError, match=f"has a value {edge} double"):
            read()
    # a point of a NaN or an infinity has no exact value: bad input
    for bad in (math.nan, math.inf):
        with pytest.raises(FieldError):
            p.eval([bad, 1.0])
        with pytest.raises(FieldError):
            form.apply([[1.0, 0.0], [1.0, bad]])
    # a value that fits is exact, whatever its terms passed on the way
    assert HomPoly(2, 2, {(2, 0): 1.0, (0, 2): -1.0}, F64).eval([1e200, 1e200]) == 0.0
    assert square.eval([1e154, 0.0]) == float(Fraction(1e154) ** 2)
    assert form.apply([[1e-160, 1.0], [1e-160, 5.0]]) == float(Fraction(1e-160) ** 2)


def test_f64_zero_polynomial_and_form_evaluate_to_float_zero():
    for x in [(1.5, -0.0), (Fraction(1, 3), 2)]:
        assert _same_double(HomPoly.zero(2, 3, F64).eval(x), 0.0)
        assert _same_double(SymForm(2, 2, {}, F64).apply([x, x]), 0.0)


def _dyadic_integers(values: list[float]) -> list[int]:
    """Reference integers n_i with values[i] = n_i / 2^D for one D, found
    from the bit lengths of the power-of-two denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    D = max(q.bit_length() for _, q in ratios)
    return [p << (D - q.bit_length()) for p, q in ratios]


_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from((5e-324, -2.2e-308, 2.0 ** -1000, 2.0 ** 1000, -(2.0 ** -1074), 0.0)),
)


def _assert_least_exact(values, den, nums):
    assert den >= 1 and len(nums) == len(values)
    assert all(type(n) is int for n in nums)
    assert all(Fraction(n, den) == Fraction(v) for n, v in zip(nums, values))
    # D is least: any smaller common denominator would divide D and every
    # numerator by a common factor
    assert math.gcd(den, *nums) == 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions(), _doubles),
                max_size=8))
def test_common_denominator_is_least_and_exact(values):
    den, nums = algebra._common_denominator(values)
    _assert_least_exact(values, den, nums)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(_doubles, min_size=1, max_size=8))
def test_common_denominator_of_doubles_matches_dyadic_integers(values):
    den, nums = algebra._common_denominator(values)
    assert den & (den - 1) == 0  # a power of two
    assert nums == _dyadic_integers(values)


def test_common_denominator_named_cases():
    assert algebra._common_denominator([]) == (1, [])
    assert algebra._common_denominator([3, -4]) == (1, [3, -4])
    assert algebra._common_denominator([Fraction(1, 6), Fraction(-3, 4), 2]) == (12, [2, -9, 24])
    assert algebra._common_denominator([0.5, 0.25]) == (4, [2, 1])
    for values in ([5e-324, 2.0 ** 1000], [2.0 ** -1000, -(2.0 ** 1000), 3]):
        _assert_least_exact(values, *algebra._common_denominator(values))
    assert algebra._common_denominator([5e-324]) == (2 ** 1074, [1])


@pytest.mark.parametrize("x", [(0.5, 1), (Fraction(1, 2), 1.0), (0.0, 0.0)])
def test_rational_evaluation_refuses_float_points(x):
    p = HomPoly(2, 2, {(2, 0): Fraction(1, 3), (0, 2): 1})
    with pytest.raises(FieldError):
        p.eval(x)
    with pytest.raises(FieldError):
        PolyMap((p, p)).eval_map(x)
    with pytest.raises(FieldError):
        polarize(p).apply([(Fraction(1), 2), x])


def _eval_map_points(rng, d: int, field: str) -> list[tuple]:
    """Seeded points of R^d: Fractions, some coordinates zero, the origin,
    and on f64 also doubles and doubles mixed with Fractions and ints."""
    points = [sampling.random_point(rng, d) for _ in range(3)]
    points.append(tuple(Fraction(0) if i % 2 else c for i, c in enumerate(points[0])))
    points.append((Fraction(0),) * d)
    if field == F64:
        points.append(tuple(float(c) * 1.1 for c in points[1]))
        points.append(tuple(float(c) if i % 2 else c for i, c in enumerate(points[2])))
        points.append((0.0,) * (d - 1) + (-0.0,))
        points.append(tuple(i + 1 for i in range(d)))
    return points


@pytest.mark.parametrize("field", [RATIONAL, F64])
def test_eval_map_gives_each_component_its_own_eval(field):
    # eval_map clears the point once and shares the monomials of the map;
    # every value must still be the one (and on f64 the double) of eval
    rng = sampling.rng(41, "eval-map")
    for d, e, m in ((1, 2, 3), (2, 3, 2), (3, 2, 3), (4, 3, 1), (2, 2, 5)):
        P = sampling.random_polymap(rng, d, e, m).as_field(field)
        for x in _eval_map_points(rng, d, field):
            got = P.eval_map(x)
            want = tuple(c.eval(x) for c in P.components)
            assert len(got) == e
            if field == F64:
                assert all(_same_double(g, w) for g, w in zip(got, want))
            else:
                assert all(type(g) is Fraction for g in got)
                assert got == want


def test_eval_map_refuses_what_eval_refuses():
    # the second component is 1e-300 * (1e-100)^2, nonzero and below the
    # smallest double, while the first fits; float points on the rational
    # field are in test_rational_evaluation_refuses_float_points
    P = PolyMap((HomPoly(1, 2, {(2,): 1.0}, F64), HomPoly(1, 2, {(2,): 1e-300}, F64)))
    assert _same_double(P.components[0].eval([1e-100]), float(Fraction(1e-100) ** 2))
    for read in (lambda: P.components[1].eval([1e-100]), lambda: P.eval_map([1e-100])):
        with pytest.raises(CapacityError, match="below the smallest"):
            read()
    Q = PolyMap((HomPoly(2, 2, {(2, 0): Fraction(1, 3), (1, 1): 2}),
                 HomPoly(2, 2, {(0, 2): Fraction(-5, 7)})))
    for M in (Q, Q.as_field(F64)):
        for x in ((Fraction(1),), (1, 2, 3)):
            with pytest.raises(DimensionError):
                M.eval_map(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_f64_constructors_and_scale_refuse_non_finite_values(bad):
    with pytest.raises(FieldError):
        HomPoly(2, 1, {(1, 0): bad, (0, 1): 1.0}, F64)
    with pytest.raises(FieldError):
        HomPoly.from_coeff_vector(2, 1, [1.0, bad], F64)
    with pytest.raises(FieldError):
        SymForm(2, 2, {(0, 1): bad}, F64)
    with pytest.raises(FieldError):
        HomPoly(2, 1, {(1, 0): 1.0}, F64).scale(bad)


# -- each P^beta once per map --------------------------------------------

def test_compose_map_builds_each_power_once(monkeypatch):
    # every component of Q holds every cubic monomial on R^3: without the
    # memo each component would rebuild the same P^beta
    P = sampling.random_polymap(sampling.rng(16, "power-memo"), 2, 3, 2)
    betas = enumerate_multi_indices(3, 3)
    Q = PolyMap(tuple(HomPoly(3, 3, dict.fromkeys(betas, c)) for c in (1, -2, Fraction(1, 3))))
    # P_i^a = P_i^(a-1) * P_i up to the largest exponent, then one product
    # per further nonzero entry of each beta
    expected = (sum(max(beta[i] for beta in betas) - 1 for i in range(3))
                + sum(sum(1 for b in beta if b) - 1 for beta in betas))
    fresh = compose_map(Q, PolyMap(P.components))
    made = []
    mul = HomPoly.__mul__

    def counting(self, other):
        made.append(None)
        return mul(self, other)

    monkeypatch.setattr(HomPoly, "__mul__", counting)
    first = compose_map(Q, P)
    assert len(made) == expected == 14
    assert compose_map(Q, P) == first == fresh
    assert len(made) == expected


def test_memo_filled_f64_map_gives_the_same_bits_as_a_fresh_one():
    # Gaussian coefficients round in every product: asking for the powers in
    # another order first must not change a single bit or key position
    P = sampling._random_f64_map(sampling._np_rng(16, "power-memo-f64"), 2, 3, 2)
    for deg in (3, 1, 2):
        list(algebra.map_powers(P, enumerate_multi_indices(3, deg)[::-1]))
    fresh = PolyMap(P.components)
    for deg in (1, 2, 3):
        betas = enumerate_multi_indices(3, deg)
        for got, want in zip(algebra.map_powers(P, betas), algebra.map_powers(fresh, betas)):
            assert list(got._terms[1].items()) == list(want._terms[1].items())
    q = HomPoly.from_coeff_vector(3, 2, [0.5, -1.25, 3.0, 0.1, -0.7, 2.2], F64)
    filled, clean = compose_scalar(q, P), compose_scalar(q, PolyMap(P.components))
    assert list(filled._terms[1].items()) == list(clean._terms[1].items())


@pytest.mark.parametrize("field", [RATIONAL, F64])
def test_memo_leaves_map_equality_and_repr_alone(field):
    P = sampling.random_polymap(sampling.rng(16, "power-memo-eq"), 2, 2, 2).as_field(field)
    copy_ = PolyMap(tuple(HomPoly(2, 2, dict(c.coeffs), field) for c in P.components))
    compose_scalar(HomPoly.from_coeff_vector(2, 3, [1, 2, 3, 4], field), P)
    assert "_powers" in P.__dict__ and "_powers" not in copy_.__dict__
    assert P == copy_ and copy_ == P
    assert repr(P) == repr(copy_)
    assert dataclasses.asdict(P) == dataclasses.asdict(copy_)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ring_instances(), st.sampled_from((RATIONAL, F64)))
def test_one_pass_difference_equals_adding_the_negation(instance, field):
    p, q = instance[0].as_field(field), instance[1].as_field(field)
    for a, b in ((p, q), (q, p), (p, p)):
        diff, summed = a - b, a + (-b)
        assert diff._terms[0] == summed._terms[0]
        assert list(diff._terms[1].items()) == list(summed._terms[1].items())
        assert list(diff.coeffs.items()) == list(summed.coeffs.items())


# -- packed rational products ----------------------------------------------

# (d, m1, m2) of the products below: d = 1..6, on both sides of the box rule
_PRODUCT_SHAPES = ((1, 2, 3), (2, 1, 5), (2, 3, 3), (3, 2, 2), (3, 2, 4), (4, 2, 2),
                   (4, 1, 3), (5, 1, 2), (5, 2, 2), (6, 1, 1), (6, 1, 2))


def _packs(d: int, m: int) -> bool:
    """The box rule, recomputed: (m+1)^(d-1) <= 8 * C(d+m-1, m)."""
    return (m + 1) ** (d - 1) <= 8 * math.comb(d + m - 1, m)


@st.composite
def product_operands(draw):
    """Rational p (degree m1) and q (degree m2) on R^d, mostly dense (a
    product packs only with enough term pairs), with numerators of both
    signs up to 4, 2^64 or 2^4096.  In some draws q is p mirrored in x_1, so
    that p * q cancels coefficients to zero, or q is -p."""
    d, m1, m2 = draw(st.sampled_from(_PRODUCT_SHAPES))
    bound = draw(st.sampled_from((4, 2 ** 64, 2 ** 4096)))
    nums = st.integers(-bound, bound)
    dens = st.sampled_from((1, 1, 3, 2 ** 61 - 1))

    def poly(m: int) -> HomPoly:
        basis = enumerate_multi_indices(d, m)
        if draw(st.integers(0, 3)):
            keys = basis
        else:
            keys = draw(st.lists(st.sampled_from(basis), unique=True, max_size=len(basis)))
        return HomPoly(d, m, {a: Fraction(draw(nums), draw(dens)) for a in keys})

    p = poly(m1)
    mode = draw(st.sampled_from(("plain", "mirror", "negate")))
    if mode == "mirror":
        return p, HomPoly(d, m1, _mirror(p.coeffs, 0))
    if mode == "negate":
        return p, -p
    return p, poly(m2)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(product_operands(), st.integers(1, 3))
def test_rational_products_and_powers_match_the_plain_oracle(operands, n):
    p, q = operands
    _assert_built_like_validated(p * q, _plain_product(p.coeffs, q.coeffs))
    expected = p.coeffs
    for _ in range(n - 1):
        expected = _plain_product(expected, p.coeffs)
    _assert_built_like_validated(p ** n, expected)


def test_box_rule_packs_every_d_up_to_4_and_d_5_at_low_degree():
    for d in range(1, 7):
        for m in range(2, 21):
            if math.comb(d + m - 1, m) > algebra.DEFAULT_SIZE_CAP:
                assert algebra._product_slots(d, m) is None
                continue
            assert (algebra._product_slots(d, m) is not None) == _packs(d, m), (d, m)
            assert _packs(d, m) == (d <= 4 or (d == 5 and m <= 3)), (d, m)


def test_dense_products_take_the_packed_path_by_the_box_rule(monkeypatch):
    packed = []

    def spy(*args):
        packed.append(args)
        return kernel(*args)

    kernel = algebra._packed_product
    monkeypatch.setattr(algebra, "_packed_product", spy)
    r = sampling.rng(19, "packed-path")
    sides = set()
    for d, m1, m2 in _PRODUCT_SHAPES:
        p, q = sampling.random_hompoly(r, d, m1), sampling.random_hompoly(r, d, m2)
        p, q = (HomPoly.from_coeff_vector(d, deg, [c or 1 for c in x.coeff_vector()])
                for deg, x in ((m1, p), (m2, q)))
        del packed[:]
        _assert_built_like_validated(p * q, _plain_product(p.coeffs, q.coeffs))
        # and at least two term pairs per basis monomial
        pairs = len(p.coeffs) * len(q.coeffs)
        expected = _packs(d, m1 + m2) and pairs >= 2 * math.comb(d + m1 + m2 - 1, m1 + m2)
        assert len(packed) == expected, (d, m1, m2)
        sides.add(expected)
        # the f64 product and its exact copy take the same path as p * q
        fp, fq = p.as_field(F64), q.as_field(F64)
        _assert_rounds_the_exact(fp * fq, fp.as_field(RATIONAL) * fq.as_field(RATIONAL))
        assert len(packed) == 3 * expected
    assert sides == {False, True}


def test_packed_product_reads_a_coefficient_near_its_slot_bound():
    # p = 12x^3 + x^2y + xy^2 + y^3: |p|_1^2 = 225 and the x^6 coefficient
    # 144 both have 8 bits, so a slot must have 16 bits (one more than 8 for
    # the sign); 8 would not hold 144 above the offset of 2^7
    p = HomPoly(2, 3, {(3, 0): 12, (2, 1): 1, (1, 2): 1, (0, 3): 1})
    square = p * p
    assert square.coefficient((6, 0)) == 144
    _assert_built_like_validated(square, _plain_product(p.coeffs, p.coeffs))
    _assert_built_like_validated(p * (-p), _plain_product(p.coeffs, (-p).coeffs))


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 4095, 4096])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_kernel_holds_a_coefficient_equal_to_its_bound(bits, sign):
    # one term each in d = 1: the coefficient is |v1|_1 * |v2|_1 itself,
    # the largest a slot must hold.  A d = 1 product has one pair per basis
    # monomial and so multiplies pair by pair; the kernel is called directly
    for c1, c2 in ((2 ** bits - 1, sign), (2 ** (bits - 1), sign),
                   (sign * (2 ** (bits // 2) + 1), 2 ** (bits - bits // 2) - 3)):
        got = algebra._packed_product({(2,): c1}, {(3,): c2}, *algebra._product_slots(1, 5))
        assert got == {(5,): c1 * c2}
