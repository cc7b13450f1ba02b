"""
Sup norms on the unit sphere and bracketed norm identities
==========================================================

The float backend computes the sup norm of a linear map or quadratic form
in closed form (the top eigenvector of A^T A or of M), with an upper bound
proven in exact integer arithmetic.  Other maps take an exact
critical-point pass in the plane, or random sphere sampling (normalized
Gaussian vectors) plus projected gradient ascent.  Estimates are certified
lower bounds: the reported value is attained at the reported maximizer.
"""
import numpy as np

from polyadjoint import (
    F64,
    HomPoly,
    NormConfig,
    PolyMap,
    check_adjoint_norm,
    check_embedding_norm,
    check_norm_duality,
    norming_functional,
    sup_norm,
    sup_norms,
)

cfg = NormConfig(seed=7)

# a linear map's sup norm is its largest singular value
A = np.array([[3.0, 1.0], [0.0, 2.0]])
lin = PolyMap.from_matrix([[float(v) for v in row] for row in A], F64)
est = sup_norm(lin, cfg)
print("largest singular value:", float(np.linalg.svd(A, compute_uv=False)[0]))
print("estimated sup norm:    ", est.value, f"({est.method})")
print("proven upper bound:    ", est.upper)
print("maximizer on the sphere:", est.maximizer)

# norming functionals: phi attains |y| with sup norm one, so phi^m attains
# |y|^m -- the duality the embedding norms lean on
y = [3.0, -4.0]
phi = norming_functional(y)
print("phi(y) =", phi.eval(y), "against |y| = 5")
# the duality check takes a batch of (x, m) and norms every power at once
reports = check_norm_duality([(y, 1), (y, 3), ([1.0, 2.0, -2.0], 2)], cfg)
print("duality reports pass:", [rep.passed for rep in reports])

# sup_norms norms maps of any shapes in one call, one stack per shape, each
# with its own extra starts
ests = sup_norms([lin, phi ** 3], cfg, [[], [y]])
print("stacked sup norms:", [est.value for est in ests])

# the adjoint norm over the unit ball of degree-k polynomials is bracketed:
# a norming construction from below, normalized random q from above; like
# every check it takes a batch, here of (P, n, k)
P = PolyMap((
    HomPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0}, F64),
    HomPoly(2, 2, {(1, 1): 2.0}, F64),
))
[rep] = check_adjoint_norm([(P, 1, 2)], cfg, q_trials=40)
print("adjoint norm bracket rel err:", rep.rel_err, "passed:", rep.passed)

# the evaluation embedding x |-> (q |-> q(x)^m) has norm exactly |x|^(m*n);
# the two points of this batch, both in R^2, share one stream of random q
reports = check_embedding_norm([([0.8, -0.6], 2, 2), ([1.5, 2.0], 2, 2)], cfg, q_trials=20)
print("embedding norm rel errs:", [rep.rel_err for rep in reports],
      "passed:", [rep.passed for rep in reports])
