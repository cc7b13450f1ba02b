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
    _built,
    _cleared,
    _common_denominator,
    _form_numerator,
    _numerator,
    _point,
    enumerate_multi_indices,
    map_powers,
    multinomial,
    polarize,
)
from .adjoint import adjoint_apply
from .errors import DegreeError, DimensionError, FieldError, PreconditionError
from . import linearization, sampling


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
        raise FieldError("finite-rank extraction is exact only; convert the map to rational first")
    den, rows = linearization.coefficient_matrix(P)._rows
    basis = enumerate_multi_indices(P.domain_dim, P.degree)
    # read from the module at call time, as rank and inverse read it, so a
    # replaced elimination reaches all three
    a, pivots = linearization._eliminate(rows, len(basis))
    vectors = tuple(tuple(Fraction(r[c], den) for r in rows) for c in pivots)
    # pivot row j over its pivot holds every column's coordinate on
    # vectors[j]; the pivot's sign goes to the numerators, so that D > 0
    scalars = []
    for row, c in zip(a, pivots):
        sign = -1 if row[c] < 0 else 1
        scalars.append(_built(P.domain_dim, P.degree,
                              {b: sign * v for b, v in zip(basis, row) if v},
                              RATIONAL, sign * row[c]))
    return FiniteRankRep(P.domain_dim, len(rows), P.degree, P.field, tuple(scalars), vectors)


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

    def evaluate(self, q: HomPoly, x: Sequence) -> Fraction:
        """The adjoint applied to q, at x: the sum over the terms of
        theta * p_alpha(x) * prod psi(c)^e, psi(c) the symmetric form of q
        on the vectors, vector j taken c_j times.  Exact only: an f64 q
        raises FieldError, as does a point that is not rational.

        The sum is one integer over one denominator.  x is cleared once to
        X / r and the vectors together to B / s.  q's form is read from its
        integer form n_alpha / D, over E = D times the lcm of the
        multinomial weights, so each psi(c) is an integer over E s^k, and
        each p_alpha(x) an integer N_alpha(X) over D_alpha r^M, M = m k n.
        The terms go
        over the lcm L of the denominators of their theta / D_alpha, and the
        value is total / (L E^n s^(kn) r^M), one Fraction.
        """
        if q.domain_dim != self.source_codomain_dim or q.degree != self.k:
            raise DimensionError("q does not match the expansion's codomain and k")
        if q.field != RATIONAL:
            raise FieldError("the expansion is exact only; convert q to rational first")
        r, X = _point(x, self.source_domain_dim, RATIONAL)
        # q's form has entry n_alpha / (D w_alpha) at the index tuple of
        # alpha, w_alpha the multinomial weight: E = D lcm(w) clears them all
        D, nums = q._terms
        multis = [multinomial(self.k, alpha) for alpha in nums]
        lcm = math.lcm(*multis)
        qden = D * lcm
        entries = {tuple(i for i, a in enumerate(alpha) for _ in range(a)): v * (lcm // w)
                   for (alpha, v), w in zip(nums.items(), multis)}
        e = self.source_codomain_dim
        s, B = _cleared([c for b in self.vectors for c in b], RATIONAL)
        rows = [B[j:j + e] for j in range(0, len(B), e)]
        den, weights = _common_denominator([t.theta / t.p_alpha._terms[0] for t in self.terms])
        psi: dict[MultiIndex, int] = {}
        table: dict[MultiIndex, int] = {}
        total = 0
        for w, t in zip(weights, self.terms):
            v = w * _numerator(t.p_alpha._terms[1], X, table)
            for comp, exp in t.psi_powers:
                if comp not in psi:
                    psi[comp] = _form_numerator(
                        entries, [row for row, c in zip(rows, comp) for _ in range(c)])
                v *= psi[comp] ** exp
            total += v
        kn = self.k * self.n
        return Fraction(total, den * qden ** self.n * s ** kn * r ** (self.source_degree * kn))


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
