"""Two-sided composition operators P |-> R o P o B and their factorizations.

For fixed maps B (degree s, from the test domain into the middle domain)
and R (degree r, from the middle codomain onward), composing a degree-m map
P on both sides yields a degree-mrs map; the operator taking P to that
composite is itself r-homogeneous in P.  This module builds the operator,
the rank-one building blocks that factor operators through it, and exact
checkers for the recovery and factorization identities:

* evaluating the composite of a rank-one lift of x at a normalized point
  recovers R(x);
* sandwiching rank-one lifts of a linear form through the operator recovers
  the (mr-fold) adjoint of B on powers of forms — on all of the degree-m
  space when R is linear;
* the operator of a rank-one linear map factors through the adjoint of B;
* left/right multiplying R by linear maps conjugates the operator by
  left-composition operators;
* with scalar test spaces the operator recovers R itself.

The numeric two-sided bound |R o P o Q| <= |R| |P|^deg(R) |Q|^{deg(P) deg(R)}
is checked with sup norms that are lower bounds up to float rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    F64,
    HomPoly,
    PolyMap,
    Scalar,
    compose_map,
    compose_scalar,
)
from .adjoint import adjoint_apply, integer_points
from .errors import DegreeError, DimensionError, PreconditionError, SearchBudgetError
from .norms import NormConfig, Report, sup_norm


@dataclass(frozen=True)
class CompositionInstance:
    """Fixed flanks of the operator P |-> outer o P o inner.

    ``inner`` maps the test domain into the space where P's arguments live;
    ``outer`` consumes P's values.  ``middle_degree`` fixes the degree m of
    the P's this instance accepts.
    """

    outer: PolyMap
    inner: PolyMap
    middle_degree: int

    def __post_init__(self):
        if self.middle_degree < 1:
            raise DegreeError("middle degree must be >= 1")


def compose_three(inst: CompositionInstance, P: PolyMap) -> PolyMap:
    """outer o P o inner, exactly; degree multiplies out to r*m*s."""
    if P.degree != inst.middle_degree:
        raise DegreeError(
            f"P has degree {P.degree}, instance expects {inst.middle_degree}")
    if P.domain_dim != inst.inner.codomain_dim:
        raise DimensionError("P's domain does not match the inner map's codomain")
    if P.codomain_dim != inst.outer.domain_dim:
        raise DimensionError("P's codomain does not match the outer map's domain")
    return compose_map(inst.outer, compose_map(P, inst.inner))


# -- rank-one building blocks ---------------------------------------------

def rank_one_map(q: HomPoly, b: Sequence) -> PolyMap:
    """The map x |-> q(x) * b."""
    return PolyMap(tuple(q.scale(bi) for bi in b))


def normalization_witness(B: PolyMap) -> tuple[HomPoly, tuple[Fraction, ...]]:
    """Deterministic (phi, z) with phi a linear form and phi(B(z)) = 1.

    Walks the integer grid for a z with B(z) != 0, then rescales the first
    nonvanishing coordinate functional.
    """
    for z in integer_points(B.domain_dim):
        w = B.eval_map(z)
        for i, wi in enumerate(w):
            if wi != 0:
                coeffs = [Fraction(0)] * B.codomain_dim
                coeffs[i] = Fraction(1) / wi
                return HomPoly.linear_form(coeffs, B.field), z
    raise SearchBudgetError("no point with B(z) != 0 found (is B zero?)")


# -- identity checkers -----------------------------------------------------

def check_recovery_identities(inst: CompositionInstance,
                              phi: HomPoly, z_a: Sequence,
                              psi: HomPoly, z_b: Sequence,
                              test_points: Sequence[Sequence],
                              test_forms: Sequence[HomPoly]) -> tuple[Scalar, Scalar]:
    """Defects of the two recovery identities of the composition operator.

    (a) With phi(inner(z_a)) = 1: evaluating the operator's value on the
        rank-one lift of x at z_a returns outer(x); max abs defect over
        ``test_points``.
    (b) With psi(outer(z_b)) = 1 and z_b in the outer map's domain: pushing
        phi' |-> phi'^m tensor z_b through the operator and then through psi
        equals the (m*r)-fold adjoint of the inner map on phi'; coefficient-
        wise max abs defect over ``test_forms``.
    Raises DegreeError unless phi and psi are linear forms, and
    PreconditionError when a normalization fails.
    """
    m = inst.middle_degree
    r = inst.outer.degree
    if phi.degree != 1 or psi.degree != 1:
        raise DegreeError("phi and psi must be linear forms")
    if phi.eval(inst.inner.eval_map(z_a)) != 1:
        raise PreconditionError("phi(inner(z_a)) must equal 1")
    if psi.eval(inst.outer.eval_map(z_b)) != 1:
        raise PreconditionError("psi(outer(z_b)) must equal 1")
    phi_m = phi ** m
    defect_a = Fraction(0)
    for x in test_points:
        got = compose_three(inst, rank_one_map(phi_m, x)).eval_map(z_a)
        want = inst.outer.eval_map(x)
        defect_a = max(defect_a, max(map(abs, (g - w for g, w in zip(got, want))),
                                     default=Fraction(0)))
    defect_b = Fraction(0)
    for form in test_forms:
        got_poly = compose_scalar(psi, compose_three(inst, rank_one_map(form ** m, z_b)))
        want_poly = adjoint_apply(inst.inner, m * r, 1, form)
        defect_b = max(defect_b, (got_poly - want_poly).max_abs())
    return defect_a, defect_b


def check_linear_recovery(inst: CompositionInstance,
                          psi: HomPoly, z: Sequence,
                          test_qs: Sequence[HomPoly]) -> Scalar:
    """Linear-outer variant of recovery (b): for linear outer maps the
    sandwich recovers the adjoint of the inner map on the whole degree-m
    space, not only on powers of forms."""
    if inst.outer.degree != 1:
        raise PreconditionError("this identity needs a linear outer map")
    if psi.degree != 1:
        raise DegreeError("psi must be a linear form")
    if psi.eval(inst.outer.eval_map(z)) != 1:
        raise PreconditionError("psi(outer(z)) must equal 1")
    worst = Fraction(0)
    for q in test_qs:
        got = compose_scalar(psi, compose_three(inst, rank_one_map(q, z)))
        want = adjoint_apply(inst.inner, 1, inst.middle_degree, q)
        worst = max(worst, (got - want).max_abs())
    return worst


def check_factorization_identities(m: int, B: PolyMap,
                                   phi: HomPoly, b: Sequence,
                                   A: PolyMap, R_mid: PolyMap, C: PolyMap,
                                   R_scalar: PolyMap,
                                   test_maps: Sequence[PolyMap],
                                   test_points: Sequence[Sequence]) -> dict[str, Scalar]:
    """Max abs defects of the three operator factorizations, all exact.

    rank_one:  the operator with outer map phi tensor b equals
               (tensor with b) o (adjoint of B on degree m) o (phi o .).
    sandwich:  the operator of C o R_mid o A equals left-composition by C,
               then the operator of R_mid, then left-composition by A.
    unit:      over scalar test spaces, evaluating at 1 after the operator
               of R_scalar undoes the rank-one scalar lift: recovers R_scalar.

    ``test_maps`` supplies the P arguments (degree m, mapping B's codomain
    into A's domain for the sandwich; into phi's space for rank_one);
    ``test_points`` supplies evaluation points for the unit identity.
    """
    defects: dict[str, Scalar] = {}

    # rank-one factorization: operator outer = phi (x) b, inner = B
    rank_one_outer = rank_one_map(phi, b)
    inst1 = CompositionInstance(rank_one_outer, B, m)
    worst = Fraction(0)
    for P in test_maps:
        lhs = compose_three(inst1, P)
        rhs = rank_one_map(adjoint_apply(B, 1, m, compose_scalar(phi, P)), b)
        worst = max(worst, (lhs - rhs).max_abs())
    defects["rank_one"] = worst

    # sandwich factorization
    outer_full = compose_map(C, compose_map(R_mid, A))
    inst_full = CompositionInstance(outer_full, B, m)
    inst_mid = CompositionInstance(R_mid, B, m)
    worst = Fraction(0)
    for P in test_maps:
        lhs = compose_three(inst_full, P)
        rhs = compose_map(C, compose_three(inst_mid, compose_map(A, P)))
        worst = max(worst, (lhs - rhs).max_abs())
    defects["sandwich"] = worst

    # unit factorization over scalar test spaces
    inst_unit = CompositionInstance(R_scalar, PolyMap.identity(1), m)
    t_m = HomPoly.monomial(1, (m,), 1)
    worst = Fraction(0)
    for x in test_points:
        got = compose_three(inst_unit, rank_one_map(t_m, x)).eval_map((Fraction(1),))
        want = R_scalar.eval_map(x)
        worst = max(worst, max(map(abs, (g - w for g, w in zip(got, want))),
                               default=Fraction(0)))
    defects["unit"] = worst
    return defects


def check_two_sided_norm(R: PolyMap, P: PolyMap, Q: PolyMap,
                         cfg: NormConfig = NormConfig()) -> Report:
    """|R o P o Q| <= |R| * |P|^deg(R) * |Q|^(deg(P)*deg(R)), numerically.

    All four sup norms are lower bounds up to float rounding, so a violation
    beyond tolerance would be meaningful; the reported slack is relative,
    and the error is the relative violation, checked at a fixed 1e-9.
    """
    R, P, Q = R.as_field(F64), P.as_field(F64), Q.as_field(F64)
    if Q.codomain_dim != P.domain_dim or P.codomain_dim != R.domain_dim:
        raise DimensionError("R o P o Q is not composable")
    k, m = R.degree, P.degree
    comp = compose_map(R, compose_map(P, Q))
    lhs = sup_norm(comp, cfg).value
    bound = (sup_norm(R, cfg).value
             * sup_norm(P, cfg).value ** k
             * sup_norm(Q, cfg).value ** (m * k))
    slack = (bound - lhs) / bound if bound > 0 else 0.0
    # a NaN slack stays NaN, and fails
    violation = 0.0 if slack >= 0 else -slack
    return Report.measured("two_sided_bound", cfg, lhs, bound, violation,
                           {"slack": slack, "deg_R": k, "deg_P": m, "deg_Q": Q.degree},
                           tol=1e-9)
