"""Two-sided composition operators P |-> R o P o B and their factorizations.

For fixed maps B (degree s, from the test domain into the middle domain)
and R (degree r, from the middle codomain onward), composing a degree-m map
P on both sides yields a degree-mrs map; the operator taking P to that
composite is itself r-homogeneous in P.  This module builds the operator,
the rank-one building blocks that factor operators through it, and exact
checkers, on either field, for six identities that take four routes:

* recovery (a): evaluating the composite of a rank-one lift of x at a
  normalized point recovers R(x); with B the identity of R^1 this is the
  unit factorization;
* recovery (b): sandwiching rank-one lifts of a linear form through the
  operator recovers the (mr-fold) adjoint of B on powers of forms, and on
  all of the degree-m space when R is linear (linear recovery);
* the operator of a rank-one linear map factors through the adjoint of B;
* left/right multiplying R by linear maps conjugates the operator by
  left-composition operators (the sandwich).

The numeric two-sided bound |R o P o Q| <= |R| |P|^deg(R) |Q|^{deg(P) deg(R)}
is checked with sup norms that are lower bounds up to float rounding; the
check takes a sequence of instances (R, P, Q) and norms the four maps of
every instance in one `sup_norms` call.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    F64,
    RATIONAL,
    HomPoly,
    PolyMap,
    Scalar,
    compose_map,
    compose_scalar,
)
from .adjoint import adjoint_apply, integer_points
from .errors import (CapacityError, DegreeError, DimensionError, FieldError,
                     PreconditionError, SearchBudgetError)
from .norms import NormConfig, Report, sup_norms


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
    nonvanishing coordinate functional.  Exact only: 1/B_i(z) is not a
    double in general, so an f64 map raises FieldError.
    """
    if B.field != RATIONAL:
        raise FieldError("the witness is exact only; convert the map to rational first")
    for z in integer_points(B.domain_dim):
        w = B.eval_map(z)
        for i, wi in enumerate(w):
            if wi != 0:
                coeffs = [Fraction(0)] * B.codomain_dim
                coeffs[i] = Fraction(1) / wi
                return HomPoly.linear_form(coeffs), z
    raise SearchBudgetError("no point with B(z) != 0 found (is B zero?)")


# -- identity checkers -----------------------------------------------------

def _check_normalizer(form: HomPoly, M: PolyMap, z: Sequence, name: str, image: str) -> None:
    """DegreeError unless ``form`` is a linear form, PreconditionError
    unless form(M(z)) = 1."""
    if form.degree != 1:
        raise DegreeError(f"{name} must be a linear form")
    if form.eval(M.eval_map(z)) != 1:
        raise PreconditionError(f"{name}({image}) must equal 1")


def _recovery_a_defect(inst: CompositionInstance, phi: HomPoly, z: Sequence,
                       points: Sequence[Sequence]) -> Scalar:
    """max |operator(phi^m tensor x)(z) - outer(x)| over the points and the
    coordinates, for phi(inner(z)) = 1."""
    lift = phi ** inst.middle_degree
    return max((abs(g - w) for x in points
                for g, w in zip(compose_three(inst, rank_one_map(lift, x)).eval_map(z),
                                inst.outer.eval_map(x))), default=Fraction(0))


def _recovery_b_defect(inst: CompositionInstance, psi: HomPoly, z: Sequence,
                       pairs: Iterable[tuple[HomPoly, HomPoly]]) -> Scalar:
    """Coefficient-wise max |psi o operator(q tensor z) - want| over the
    (q, want) pairs, for psi(outer(z)) = 1."""
    return max(((compose_scalar(psi, compose_three(inst, rank_one_map(q, z))) - want).max_abs()
                for q, want in pairs), default=Fraction(0))


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
    _check_normalizer(phi, inst.inner, z_a, "phi", "inner(z_a)")
    _check_normalizer(psi, inst.outer, z_b, "psi", "outer(z_b)")
    m, r = inst.middle_degree, inst.outer.degree
    pairs = ((form ** m, adjoint_apply(inst.inner, m * r, 1, form)) for form in test_forms)
    return (_recovery_a_defect(inst, phi, z_a, test_points),
            _recovery_b_defect(inst, psi, z_b, pairs))


def check_linear_recovery(inst: CompositionInstance,
                          psi: HomPoly, z: Sequence,
                          test_qs: Sequence[HomPoly]) -> Scalar:
    """Linear-outer variant of recovery (b): for linear outer maps the
    sandwich recovers the adjoint of the inner map on the whole degree-m
    space, not only on powers of forms."""
    if inst.outer.degree != 1:
        raise PreconditionError("this identity needs a linear outer map")
    _check_normalizer(psi, inst.outer, z, "psi", "outer(z)")
    return _recovery_b_defect(inst, psi, z, (
        (q, adjoint_apply(inst.inner, 1, inst.middle_degree, q)) for q in test_qs))


def check_factorization_identities(m: int, B: PolyMap,
                                   phi: HomPoly, b: Sequence,
                                   A: PolyMap, R_mid: PolyMap, C: PolyMap,
                                   R_scalar: PolyMap,
                                   test_maps: Sequence[PolyMap],
                                   test_points: Sequence[Sequence]) -> dict[str, Scalar]:
    """Max abs defects of the three operator factorizations, all exact, on
    either field.

    rank_one:  the operator with outer map phi tensor b equals
               (tensor with b) o (adjoint of B on degree m) o (phi o .).
    sandwich:  the operator of C o R_mid o A equals left-composition by C,
               then the operator of R_mid, then left-composition by A.
    unit:      recovery (a) for R_scalar with the identity of R^1 inside,
               phi = t and z = 1: it recovers R_scalar.

    ``test_maps`` supplies the P arguments (degree m, mapping B's codomain
    into A's domain for the sandwich; into phi's space for rank_one);
    ``test_points`` supplies evaluation points for the unit identity.
    """
    inst_rank_one = CompositionInstance(rank_one_map(phi, b), B, m)
    inst_full = CompositionInstance(compose_map(C, compose_map(R_mid, A)), B, m)
    inst_mid = CompositionInstance(R_mid, B, m)
    line = PolyMap.identity(1, R_scalar.field)
    return {
        "rank_one": max(((compose_three(inst_rank_one, P)
                          - rank_one_map(adjoint_apply(B, 1, m, compose_scalar(phi, P)), b)
                          ).max_abs() for P in test_maps), default=Fraction(0)),
        "sandwich": max(((compose_three(inst_full, P)
                          - compose_map(C, compose_three(inst_mid, compose_map(A, P)))
                          ).max_abs() for P in test_maps), default=Fraction(0)),
        "unit": _recovery_a_defect(CompositionInstance(R_scalar, line, m),
                                   line.components[0], (1,), test_points),
    }


def check_two_sided_norm(instances: Iterable[tuple[PolyMap, PolyMap, PolyMap]],
                         cfg: NormConfig = NormConfig()) -> list[Report]:
    """The report of each instance (R, P, Q), in order:
    |R o P o Q| <= |R| * |P|^deg(R) * |Q|^(deg(P)*deg(R)), numerically.

    All four sup norms are lower bounds up to float rounding, so a violation
    beyond tolerance would be meaningful; the reported slack is relative,
    and the error is the relative violation, checked at a fixed 1e-9.  A
    zero factor makes the bound 0, which only a zero composite meets; any
    other bound must be a normal double (CapacityError).  Every instance is
    checked to compose (DimensionError) before any sup norm runs; then the
    four maps of every instance are normed in one `sup_norms` call.
    """
    checked = []
    for R, P, Q in instances:
        R, P, Q = R.as_field(F64), P.as_field(F64), Q.as_field(F64)
        if Q.codomain_dim != P.domain_dim or P.codomain_dim != R.domain_dim:
            raise DimensionError("R o P o Q is not composable")
        checked.append((compose_map(R, compose_map(P, Q)), R, P, Q))
    values = iter(est.value for est in sup_norms([M for maps in checked for M in maps], cfg))
    reports = []
    for (_, R, P, Q), lhs, nR, nP, nQ in zip(checked, values, values, values, values):
        k, m = R.degree, P.degree
        bound, slack = 0.0, 0.0 if lhs == 0 else -math.inf
        if nR and nP and nQ:
            try:
                bound = nR * nP ** k * nQ ** (m * k)
            except OverflowError:
                bound = math.inf
            # an inf times an underflowed 0 is NaN, which this refuses too
            if not sys.float_info.min <= bound <= sys.float_info.max:
                raise CapacityError(f"the bound |R| |P|^{k} |Q|^{m * k} does not fit a double")
            slack = (bound - lhs) / bound
        reports.append(Report("two_sided_bound", lhs, bound, max(0.0, -slack), 1e-9, True,
                              cfg.samples, cfg.seed,
                              {"slack": slack, "deg_R": k, "deg_P": m, "deg_Q": Q.degree}))
    return reports
