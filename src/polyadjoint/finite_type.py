"""Finite-rank decomposition and the closed-form expansion of the adjoint.

Every polynomial map into a finite-dimensional space is of finite type:
P(x) = sum_j P_j(x) b_j with the b_j a basis of the span of P's values and
the P_j scalar polynomials.  ``finite_rank_rep`` extracts such a
representation exactly by column elimination of the coefficient matrix with
deterministic (leftmost-pivot, canonical monomial order) pivoting.

Given the representation, the adjoint applied to q expands into a finite
sum indexed by weak compositions of k into rank-many parts and exponent
vectors over those compositions.  Each term is a rational constant times a
product of powers of the P_j times powers of evaluations of the symmetric
form of q at the b_j with multiplicities; ``expand_adjoint`` builds the
terms with the constant premultiplied into a single Fraction while keeping
a human-readable factored string for auditing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    RATIONAL,
    HomPoly,
    MultiIndex,
    PolyMap,
    Scalar,
    enumerate_multi_indices,
    map_powers,
    polarize,
)
from .adjoint import adjoint_apply
from .errors import DegreeError, DimensionError, PreconditionError
from .linearization import coefficient_matrix, rref
from . import sampling


@dataclass(frozen=True)
class FiniteRankRep:
    """P(x) = sum_j scalars[j](x) * vectors[j], with independent vectors."""

    domain_dim: int
    codomain_dim: int
    degree: int
    field: str
    scalars: tuple[HomPoly, ...]
    vectors: tuple[tuple[Scalar, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def reconstruct(self, x: Sequence) -> tuple[Scalar, ...]:
        out = [0] * self.codomain_dim
        for p, b in zip(self.scalars, self.vectors):
            v = p.eval(x)
            for i in range(self.codomain_dim):
                out[i] = out[i] + v * b[i]
        return tuple(out)


def finite_rank_rep(P: PolyMap) -> FiniteRankRep:
    """Exact finite-type representation from the coefficient matrix.

    The vectors are the pivot columns of the coefficient matrix in canonical
    monomial order (leftmost first); the scalar polynomials collect each
    column's expansion in that pivot basis.  The zero map has rank 0.
    """
    if P.field != RATIONAL:
        raise PreconditionError("finite-rank extraction is exact-only; convert to rational first")
    cm = coefficient_matrix(P)
    basis = enumerate_multi_indices(P.domain_dim, P.degree)
    e, ncols = cm.rows, cm.cols
    a, pivots = rref(cm.entries, ncols)
    if not pivots:
        return FiniteRankRep(P.domain_dim, e, P.degree, P.field, (), ())
    vectors = tuple(tuple(cm.entries[i][c] for i in range(e)) for c in pivots)
    # after reduction, row j of `a` holds the coordinates of every column in
    # the pivot basis: column c = sum_j a[j][c] * vectors[j]
    scalars = []
    for j in range(len(pivots)):
        coeffs = {basis[c]: a[j][c] for c in range(ncols) if a[j][c] != 0}
        scalars.append(HomPoly(P.domain_dim, P.degree, coeffs, RATIONAL))
    return FiniteRankRep(P.domain_dim, e, P.degree, P.field, tuple(scalars), vectors)


def multilinear_functional(multiset: Sequence[tuple[Sequence, int]], q: HomPoly) -> Scalar:
    """Evaluate the symmetric form of q on vectors with multiplicities.

    ``multiset`` is a list of (vector, multiplicity) pairs whose
    multiplicities must sum to q.degree.
    """
    arity = sum(mult for _, mult in multiset)
    if arity != q.degree:
        raise DegreeError(
            f"multiplicities sum to {arity}, expected the degree {q.degree}")
    args: list[Sequence] = []
    for vec, mult in multiset:
        if len(vec) != q.domain_dim:
            raise DimensionError("vector length does not match q's space")
        args.extend([vec] * mult)
    return polarize(q).apply(args)


@dataclass(frozen=True)
class ExpansionTerm:
    """One term: theta * p_alpha(x) * prod over (composition, e) of
    the symmetric-form evaluation at that composition, to the e-th power."""

    theta: Fraction
    theta_factored: str
    p_alpha: HomPoly
    psi_powers: tuple[tuple[MultiIndex, int], ...]


@dataclass(frozen=True)
class FiniteTypeExpansion:
    n: int
    k: int
    rank: int
    source_domain_dim: int
    source_codomain_dim: int
    source_degree: int
    vectors: tuple[tuple[Scalar, ...], ...]
    terms: tuple[ExpansionTerm, ...]

    def evaluate(self, q: HomPoly, x: Sequence) -> Scalar:
        if q.domain_dim != self.source_codomain_dim or q.degree != self.k:
            raise DimensionError("q does not match the expansion's codomain and k")
        qform = polarize(q)
        psi_cache: dict[MultiIndex, Scalar] = {}

        def psi(comp: MultiIndex) -> Scalar:
            if comp not in psi_cache:
                args: list[Sequence] = []
                for vec, mult in zip(self.vectors, comp):
                    args.extend([vec] * mult)
                psi_cache[comp] = qform.apply(args)
            return psi_cache[comp]

        total = Fraction(0) if q.field == RATIONAL else 0.0
        for t in self.terms:
            v = t.theta * t.p_alpha.eval(x)
            for comp, exp in t.psi_powers:
                v = v * psi(comp) ** exp
            total += v
        return total


def expand_adjoint(rep: FiniteRankRep, n: int, k: int) -> FiniteTypeExpansion:
    """Closed-form expansion of q |-> q(P(.))^n from a rank-l representation.

    Terms are indexed by exponent vectors alpha of degree n over the weak
    compositions of k into l parts, both enumerated in the canonical
    descending-lex order; the count is C(C(k+l-1, l-1)+n-1, n).  The
    constant of each term is

        n! (k!)^n / prod(alpha!) * prod over compositions c of
        (1 / prod_i c_i!)^{alpha_c}

    premultiplied into one Fraction, with the factored form kept as a string.
    """
    if n < 1 or k < 1:
        raise DegreeError(f"adjoint parameters must be >= 1, got n={n}, k={k}")
    l = rep.rank
    if l < 1:
        raise PreconditionError("expansion needs rank >= 1 (nonzero map)")
    comps = enumerate_multi_indices(l, k)
    alphas = enumerate_multi_indices(len(comps), n)
    # p_alpha = prod over compositions c of prod_j p_j^(c_j * alpha_c)
    exponents = [tuple(sum(comp[j] * a for comp, a in zip(comps, alpha)) for j in range(l))
                 for alpha in alphas]
    terms = []
    for alpha, p_alpha in zip(alphas, map_powers(PolyMap(rep.scalars), exponents)):
        alpha_fact = 1
        for a in alpha:
            alpha_fact *= math.factorial(a)
        kinner = 1  # prod over compositions of (prod_i c_i!)^alpha_c
        for comp, a in zip(comps, alpha):
            if a == 0:
                continue
            cprod = 1
            for ci in comp:
                cprod *= math.factorial(ci)
            kinner *= cprod ** a
        theta = Fraction(math.factorial(n) * math.factorial(k) ** n,
                         alpha_fact * kinner)
        factored = (f"{n}!*({k}!)^{n}/{alpha_fact} * 1/{kinner}"
                    f" [alpha={alpha}]")
        psi_powers = tuple((comp, a) for comp, a in zip(comps, alpha) if a > 0)
        terms.append(ExpansionTerm(theta, factored, p_alpha, psi_powers))
    return FiniteTypeExpansion(n, k, l, rep.domain_dim, rep.codomain_dim,
                               rep.degree, rep.vectors, tuple(terms))


def expansion_defect(expansion: FiniteTypeExpansion, P: PolyMap, n: int, k: int,
                     trials: int = 20, seed: int = 0) -> Fraction:
    """Max |expansion(q)(x) - adjoint_apply(P, n, k, q)(x)| over random
    rational q and x; exactly zero for a representation of P."""
    rng = sampling.rng(seed, "finite-type-defect")
    worst = Fraction(0)
    for _ in range(trials):
        q = sampling.random_hompoly(rng, P.codomain_dim, k)
        x = sampling.random_point(rng, P.domain_dim)
        direct = adjoint_apply(P, n, k, q).eval(x)
        via = expansion.evaluate(q, x)
        worst = max(worst, abs(via - direct))
    return worst
