"""
Matrix views: linearization and the adjoint as a transpose
==========================================================

On coefficient vectors the degree-1 adjoint q |-> q o P is a plain matrix.
That matrix is the transpose of the linearization matrix whose rows expand
the products P^beta: a coefficient space and its tensor-power model share
the monomial basis.
"""
from fractions import Fraction

from polyadjoint import (
    HomPoly,
    PolyMap,
    adjoint_matrix,
    adjoint_rank_bound,
    inverse_adjoint_defects,
    linearization_matrix,
    map_rank,
    tensor_power,
    transpose_identity_defect,
)

P = PolyMap((
    HomPoly(2, 2, {(2, 0): Fraction(1), (1, 1): Fraction(1)}),
    HomPoly(2, 2, {(0, 2): Fraction(2)}),
))
k = 2

# the linearization matrix intertwines symmetric tensor powers:
# rows are the coefficient vectors of P^beta over the domain monomials
M = linearization_matrix(P, k)
x = (Fraction(1), Fraction(-2))
lhs = M.apply(tensor_power(x, P.degree * k))
rhs = tensor_power(P.eval_map(x), k)
print("M sends (x tensor ... tensor x) to (P(x) tensor P(x)):", list(lhs) == list(rhs))

# the adjoint matrix acts on q-coefficients; the transpose identity holds
# with defect exactly zero
A = adjoint_matrix(P, k)
print("adjoint matrix shape:", A.rows, "x", A.cols)
print("transpose identity defect is zero:",
      transpose_identity_defect(P, k).is_zero)

# rank bound: the adjoint matrix rank never exceeds C(rank(P)+k-1, k)
print("coefficient rank of P:", map_rank(P))
print("rank(adjoint) =", A.rank(), "<=", adjoint_rank_bound(P, k))

# for an invertible linear map the degree-k adjoints of u and u^{-1} are
# mutually inverse matrices
u = PolyMap.from_matrix([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
da, db = inverse_adjoint_defects(u, 3)
print("inverse identity defects are zero:", da.is_zero and db.is_zero)
