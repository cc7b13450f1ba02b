"""
Two-sided composition operators and their factorizations
========================================================

The operator P |-> outer o P o inner acts on whole spaces of polynomial
maps.  Rank-one probes recover both flanking maps from the operator alone,
and the operator factors exactly through the adjoint of the inner map.
"""
from fractions import Fraction

from polyadjoint import (
    CompositionInstance,
    HomPoly,
    PolyMap,
    adjoint_apply,
    compose_scalar,
    compose_three,
    injectivity_witness,
    nonadditivity_witness,
    normalization_witness,
    rank_one_map,
)

inner = PolyMap((
    HomPoly(2, 1, {(1, 0): Fraction(1), (0, 1): Fraction(1)}),
    HomPoly(2, 1, {(0, 1): Fraction(2)}),
))
outer = PolyMap((
    HomPoly(2, 2, {(2, 0): Fraction(1)}),
    HomPoly(2, 2, {(1, 1): Fraction(1)}),
))
m = 2
inst = CompositionInstance(outer, inner, m)

middle = PolyMap((
    HomPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)}),
    HomPoly(2, 2, {(1, 1): Fraction(3)}),
))
S = compose_three(inst, middle)
print("operator output degree:", S.degree)

# recovery (a): normalize phi(inner(z)) = 1, probe with x |-> phi(.)^m x,
# evaluate at z -- the outer map reappears
phi, z = normalization_witness(inner)
x = (Fraction(2), Fraction(-1))
probe = rank_one_map(phi ** m, x)
print("recovered outer(x):", compose_three(inst, probe).eval_map(z),
      "==", outer.eval_map(x))

# recovery (b): with psi(outer(w)) = 1, pushing phi'^m tensor w through the
# operator and then psi yields the iterated adjoint of the inner map
psi, w = normalization_witness(outer)
phi2 = HomPoly.linear_form([Fraction(1), Fraction(1)])
lift = rank_one_map(phi2 ** m, w)
routed = compose_scalar(psi, compose_three(inst, lift))
print("matches the iterated pullback:",
      routed == adjoint_apply(inner, m * outer.degree, 1, phi2))

# the pullback itself is injective on maps (odd total power) but far from
# additive: a concrete witness where the defect is nonzero
P1, Q1, q1, x1, defect = nonadditivity_witness(1, 2, 1)
print("non-additivity defect at the witness:", defect)

q2, x2 = injectivity_witness(inner, inner.scale(Fraction(2)), 1, 1)
print("separating witness found at:", tuple(int(v) for v in x2))
