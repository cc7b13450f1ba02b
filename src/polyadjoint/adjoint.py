"""The generalized adjoint of a homogeneous polynomial map.

For P of degree m from R^d to R^e and parameters n, k >= 1, the adjoint
sends a degree-k scalar polynomial q on the codomain to the degree-mnk
polynomial x |-> q(P(x))^n on the domain.  With n = k = 1 and P linear this
is the classical transpose; the checks in this module verify the algebraic
identities the general construction satisfies:

* composition: the adjoint of Q o P factors through the adjoints of Q and P
  with re-indexed parameters;
* a commuting square tying the twice-iterated adjoint to the power
  evaluation embeddings of domain and codomain;
* homogeneity in P of weight kn, and failure of additivity in P whenever
  kn > 1 (a closed-form witness gives an explicit counterexample);
* for invertible linear u, the adjoint of the inverse inverts the adjoint;
* for odd kn, distinct maps are separated by a power of a coordinate
  functional at an explicit rational point.

``materialize_adjoint`` expands the adjoint itself as a degree-n polynomial
map between coefficient spaces; everything downstream of it stays exact on
the rational field.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .algebra import (
    HomPoly,
    MultiIndex,
    PolyMap,
    Scalar,
    _built,
    _cleared,
    _eval_monomial,
    compose_map,
    compose_scalar,
    enumerate_multi_indices,
    infer_field,
    map_powers,
    multinomial,
)
from .errors import (
    DegreeError,
    DimensionError,
    FieldError,
    PreconditionError,
    SearchBudgetError,
)
from .linearization import LinearMap, adjoint_matrix, coefficient_matrix


def adjoint_apply(P: PolyMap, n: int, k: int, q: HomPoly) -> HomPoly:
    """x |-> q(P(x))^n, expanded exactly."""
    if n < 1 or k < 1:
        raise DegreeError(f"adjoint parameters must be >= 1, got n={n}, k={k}")
    if q.degree != k:
        raise DegreeError(f"q has degree {q.degree}, expected k={k}")
    if q.domain_dim != P.codomain_dim:
        raise DimensionError(
            f"q lives on R^{q.domain_dim} but P maps into R^{P.codomain_dim}")
    return compose_scalar(q, P) ** n


@dataclass(frozen=True)
class MaterializedAdjoint:
    """The adjoint as a degree-n polynomial map between coefficient spaces.

    ``polymap`` has one input variable per monomial of the degree-k space on
    the codomain of the source map (canonical order ``domain_basis``) and one
    component per degree-mnk monomial on its domain (``codomain_basis``).
    Evaluating it at the coefficient vector of q gives the coefficient vector
    of adjoint_apply(P, n, k, q), exactly.
    """

    polymap: PolyMap
    n: int
    k: int
    source_domain_dim: int
    source_codomain_dim: int
    source_degree: int
    domain_basis: tuple[MultiIndex, ...]
    codomain_basis: tuple[MultiIndex, ...]

    def apply_to(self, q: HomPoly) -> HomPoly:
        if q.domain_dim != self.source_codomain_dim or q.degree != self.k:
            raise DimensionError("q does not match the materialized coefficient space")
        if q.field != self.polymap.field:
            raise FieldError("mixed-field adjoint application")
        values = self.polymap.eval_map(q.coeff_vector())
        return HomPoly(self.source_domain_dim, self.source_degree * self.n * self.k,
                       dict(zip(self.codomain_basis, values)), q.field)


def materialize_adjoint(P: PolyMap, n: int, k: int) -> MaterializedAdjoint:
    """Expand q |-> q(P(.))^n with the coefficients of q as formal variables."""
    if n < 1 or k < 1:
        raise DegreeError(f"adjoint parameters must be >= 1, got n={n}, k={k}")
    d, e, m = P.domain_dim, P.codomain_dim, P.degree
    q_basis = enumerate_multi_indices(e, k)
    out_basis = enumerate_multi_indices(d, m * n * k)
    mus = enumerate_multi_indices(len(q_basis), n)

    # (sum_beta c_beta P^beta)^n expands over exponent vectors mu on the
    # c-variables: c^mu gets the coefficient w P^g, w = multinomial(n, mu),
    # g = sum_beta mu_beta beta, read from P's own memo.  With P^g = sum
    # n_gamma x^gamma / D_mu and L the lcm of every D_mu, component gamma
    # gets n_gamma f_mu / L at mu, f_mu = w L / D_mu, written in one pass in
    # mu order; ``_built`` reduces each to its least denominator.
    gs = [tuple(sum(c * b for c, b in zip(mu, col)) for col in zip(*q_basis)) for mu in mus]
    powers = list(map_powers(P, gs))
    den = math.lcm(*[g._terms[0] for g in powers])
    data: dict[MultiIndex, dict[MultiIndex, int]] = {gamma: {} for gamma in out_basis}
    for mu, g_mu in zip(mus, powers):
        dm, nums = g_mu._terms
        f = multinomial(n, mu) * (den // dm)
        for gamma, v in nums.items():
            data[gamma][mu] = v * f
    comps = tuple(_built(len(q_basis), n, c, P.field, den) for c in data.values())
    return MaterializedAdjoint(PolyMap(comps), n, k, d, e, m, tuple(q_basis), tuple(out_basis))


def evaluation_embedding(x: Sequence, m: int, n: int,
                         field: str | None = None) -> HomPoly:
    """The degree-m polynomial q |-> q(x)^m on the degree-n coefficient space.

    Variables are the coefficients of a degree-n polynomial q on R^len(x) in
    canonical order; evaluating the result at q.coeff_vector() yields q(x)^m.
    With m = n = 1 this is evaluation at x itself.  x = 0 gives the zero
    polynomial.  An f64 result is exact, like every f64 result, until its
    ``coeffs`` or a value is read.
    """
    if m < 1 or n < 1:
        raise DegreeError(f"embedding parameters must be >= 1, got m={m}, n={n}")
    if field is None:
        field = infer_field(x)
    basis = enumerate_multi_indices(len(x), n)
    # a point x = X / r puts every coefficient over r^(nm), so the
    # numerators are built on X and the result from its integer form
    r, X = _cleared(x, field)
    xpow = [_eval_monomial(beta, X) for beta in basis]
    coeffs: dict[MultiIndex, int] = {}
    for mu in enumerate_multi_indices(len(basis), m):
        v = multinomial(m, mu)
        for j, mj in enumerate(mu):
            if mj:
                v = v * xpow[j] ** mj
        coeffs[mu] = v
    return _built(len(basis), m, coeffs, field, r ** (n * m))


def composition_identity_defect(P: PolyMap, Q: PolyMap, n: int, k: int, s: int,
                                q: HomPoly, x: Sequence) -> Scalar:
    """Defect at x of: adjoint of (Q o P) with parameters (ns, k) versus the
    adjoint of P with parameters (s, rnk) applied after the adjoint of Q with
    parameters (n, k).  Exactly zero on the rational field."""
    if P.codomain_dim != Q.domain_dim:
        raise DimensionError("Q cannot be composed with P")
    r = Q.degree
    lhs = adjoint_apply(compose_map(Q, P), n * s, k, q).eval(x)
    inner = adjoint_apply(Q, n, k, q)
    rhs = adjoint_apply(P, s, r * n * k, inner).eval(x)
    return lhs - rhs


def diagram_defect(P: PolyMap, n: int, k: int, r: int, s: int,
                   q: HomPoly, x: Sequence) -> Scalar:
    """Defect at (x, q) of the commuting square relating the twice-iterated
    adjoint of P to the power evaluation embeddings.

    Left route: apply the adjoint of P to q, pair with the embedding of x at
    parameters (r, mnk), raise to the s-th power.  Right route: embed P(x) at
    parameters (nrs, k) and pair with q.  Both equal q(P(x))^{nrs}; only the
    small coefficient spaces are ever materialized.
    """
    if q.domain_dim != P.codomain_dim or q.degree != k:
        raise DimensionError("q does not match P's codomain and k")
    if len(x) != P.domain_dim:
        raise DimensionError("x does not lie in P's domain")
    m = P.degree
    g = adjoint_apply(P, n, k, q)
    j_dom = evaluation_embedding(x, r, m * n * k, field=q.field)
    left = j_dom.eval(g.coeff_vector()) ** s
    j_cod = evaluation_embedding(P.eval_map(x), n * r * s, k, field=q.field)
    right = j_cod.eval(q.coeff_vector())
    return left - right


def inverse_adjoint_defects(u: PolyMap, k: int) -> tuple[LinearMap, LinearMap]:
    """Both defects of: adjoint(u) . adjoint(u^{-1}) = id and the reverse.

    u must be linear, square and invertible (exact rational inversion;
    SingularMatrixError otherwise).  Returns the two difference-from-identity
    matrices, zero exactly.
    """
    if u.degree != 1:
        raise DegreeError("inverse identity needs a linear map")
    if u.domain_dim != u.codomain_dim:
        raise DimensionError("inverse identity needs a square linear map")
    inv = coefficient_matrix(u).inverse()
    u_inv = PolyMap.from_matrix(inv.entries)
    a = adjoint_matrix(u, k)
    b = adjoint_matrix(u_inv, k)
    ident = LinearMap.identity(a.rows)
    return (a @ b) - ident, (b @ a) - ident


def integer_points(d: int, budget: int = 10_000) -> Iterator[tuple[Fraction, ...]]:
    """Deterministic rational point stream: integer grid points ordered by
    max-norm shell, lexicographically within a shell; d must be >= 1."""
    if d < 1:
        raise DimensionError(f"need at least one variable, got d={d}")
    count = 0
    shell = 0
    while count < budget:
        pts = (p for p in itertools.product(range(-shell, shell + 1), repeat=d)
               if max((abs(c) for c in p), default=0) == shell)
        for p in sorted(pts):
            yield tuple(Fraction(c) for c in p)
            count += 1
            if count >= budget:
                return
        shell += 1


def injectivity_witness(P1: PolyMap, P2: PolyMap, n: int, k: int
                        ) -> tuple[HomPoly, tuple[Fraction, ...]] | None:
    """For odd kn: a pair (q, x) with q a k-th power of a coordinate
    functional such that the adjoints of P1 and P2 differ on q at x.

    Returns None when P1 == P2.  Distinct maps differ at some rational grid
    point x0 in some coordinate i; q = (y_i)^k works because t |-> t^{kn} is
    injective on the reals for odd kn.  Raises SearchBudgetError if the
    first 10000 grid points do not separate them (cannot happen for the
    supported degrees and dimensions).
    """
    if (P1.domain_dim, P1.codomain_dim, P1.degree) != (P2.domain_dim, P2.codomain_dim, P2.degree):
        raise DimensionError("maps must share domain, codomain and degree")
    if (n * k) % 2 == 0:
        raise PreconditionError(f"kn must be odd over the reals, got kn={n * k}")
    if P1 == P2:
        return None
    e = P1.codomain_dim
    for x0 in integer_points(P1.domain_dim):
        v1 = P1.eval_map(x0)
        v2 = P2.eval_map(x0)
        for i in range(e):
            if v1[i] != v2[i]:
                alpha = tuple(k if j == i else 0 for j in range(e))
                q = HomPoly.monomial(e, alpha, 1, P1.field)
                return q, x0
    raise SearchBudgetError("no separating point among the first 10000 grid points")


def nonadditivity_witness(m: int, n: int, k: int,
                          ) -> tuple[PolyMap, PolyMap, HomPoly, tuple[Fraction, ...], Scalar]:
    """Data (P, Q, q, x) on the line whose adjoint additivity defect at
    (q, x) is nonzero; exists whenever kn > 1.

    For P = a t^m, Q = b t^m and q = t^k the defect is ((a + b)^{kn} -
    a^{kn} - b^{kn}) t^{mkn}, so a = b = 1 and x = -1 give 2^{kn} - 2, up to
    sign.  That one candidate is computed through the adjoint, so a faulty
    kernel still shows.  For k = n = 1 it is 0, as the defect vanishes
    identically, and SearchBudgetError reports that no witness exists.
    """
    if min(m, n, k) < 1:
        raise DimensionError("all parameters must be >= 1")
    q = HomPoly.monomial(1, (k,))
    P, Q = (PolyMap((HomPoly.monomial(1, (m,)),)) for _ in range(2))
    x = (Fraction(-1),)
    val = (adjoint_apply(P + Q, n, k, q)
           - adjoint_apply(P, n, k, q)
           - adjoint_apply(Q, n, k, q)).eval(x)
    if val == 0:
        raise SearchBudgetError(
            f"no non-additivity witness found for m={m}, n={n}, k={k} (expected only for kn=1)")
    return P, Q, q, x, val
