"""Sup norms of polynomial maps on the Euclidean unit ball, with certificates.

The sup norm here is the maximum of the Euclidean norm of P(x) over the
Euclidean unit ball of the domain; for homogeneous maps the maximum sits on
the unit sphere.  Estimates are always certified lower bounds: the reported
value is the evaluation of P at the reported maximizer, which lies on the
sphere up to machine precision.

`sup_norm` runs one pipeline for every map.  A method, chosen by shape,
supplies the head of the candidate points; the points +-e_i and any extra
starts, projected to the sphere, follow it, and the candidate of largest
value is picked once.  The heads:

* one variable ("endpoint-enumeration"): none, the endpoints are +-e_1;
* linear maps x -> Ax and scalar quadratic forms x^T M x on 2 to
  MAX_CLOSED_FORM_DIM variables ("closed-form"): the top eigenvector from
  np.linalg.eigh, since the norm is sigma_max(A), the square root of the
  largest eigenvalue of A^T A, or max |lambda(M)| (Courant-Fischer);
* other maps of two variables ("circle-critical-points"): the critical
  points of the squared norm on the circle, solved outright by a rational
  parametrization and companion-matrix root-finding, so the pick is the
  global maximum to near machine precision;
* other maps of three or more variables, and two-variable maps whose
  nonzero coefficients span more than MAX_CIRCLE_SPREAD binary orders of
  magnitude ("sobol+gradient-ascent"): a random sample floor of normalized
  standard-normal vectors, which are uniform on the sphere.  The spread is
  read from the coefficients before any circle work: over such a range the
  critical polynomial's small coefficients are lost against its large ones,
  and its roots miss the maximum or overflow.

Two methods add a step after the pick.  The circle pass is cross-checked by
a few hundred random circle points, none of which may beat it, so a
root-finder that misses the maximum fails loudly.  The search runs batched
projected gradient ascent, with per-restart adaptive step and backtracking,
from the best candidates, and its best point replaces the pick if it is at
least as good.

The tail is shared: the point is renormalized onto the sphere and P is
evaluated there, which gives the certified lower bound; that value is
asserted below the Euclidean norm of the coefficient absolute sums; and it
is scaled back if the map was measured scaled.  Only the closed form also
carries a proven upper bound ``upper = value (1 + 2^-40)``.  Every double
is a dyadic rational, so the proof is exact integer arithmetic: over one
power-of-two denominator, u^2 I - A^T A (or u I - M and u I + M) is
positive definite when every leading principal minor is positive
(Sylvester), and fraction-free symmetric Bareiss elimination without
pivoting yields those minors as its pivots.  A certificate that fails
raises AssertionError.

Each piece of kernel work is done once.  A compiled map holds the degree-m
exponent table for values and one degree-(m-1) table shared by all d
partial derivatives, each of which gathers its monomials from it through an
index array; one power table per variable and batch of points fills both,
and the ascent carries the lower table of its accepted points forward, so
the gradient at an iterate costs no new table.  The circle pass reads the
coefficients of (1-t^2)^{a1} (2t)^{a2} from a table cached per degree.  A
map far from unit scale is measured scaled by a power of two, which is
exact, so no square underflows or overflows.

Verification helpers bracket each norm identity from both sides: an
explicit norming construction certifies the lower bound, random normalized
polynomials confirm the upper bound is never exceeded.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_SIZE_CAP,
    F64,
    HomPoly,
    PolyMap,
    _basis_size_exceeds,
    _common_denominator,
    compose_scalar,
    enumerate_multi_indices,
)
from .adjoint import adjoint_apply, evaluation_embedding
from .errors import (
    CapacityError,
    DegenerateInputError,
    DimensionError,
    FieldError,
    PreconditionError,
)
from .sampling import _np_rng, _random_hompoly_f64

MAX_ASCENT_ITERS = 400
# random circle points that must not beat the circle pass's maximum (d = 2)
CROSS_CHECK = 256
# largest (points x monomials) value table the d >= 3 sample floor may build
MAX_SAMPLE_ENTRIES = 1 << 24
# widest linear map or quadratic form whose norm is computed in closed form
# and proven exactly.  The integer certificate's cost grows with d and with
# the exponent spread of the coefficients: about 0.1 ms at d = 3, a few ms at
# d = 16 near unit scale but about 2 s there when they span 2^+-1000, and
# seconds to minutes at d = 32..64, so wider maps take the search
MAX_CLOSED_FORM_DIM = 16
# the proven upper bound is the value times 1 + CLOSED_FORM_SLACK
CLOSED_FORM_SLACK = 2.0 ** -40
# sup_norm measures a map at unit scale when the binary exponent of its
# largest coefficient (math.frexp) exceeds this in absolute value
MAX_SCALE_EXP = 256
# a two-variable map whose nonzero coefficients span more binary orders of
# magnitude than this takes the search instead of the circle pass: the
# critical polynomial's small coefficients are lost against its large ones,
# so its roots miss the maximum or come back as infinities and NaNs
MAX_CIRCLE_SPREAD = 200
# random test polynomials check_adjoint_norm tries on the upper side
ADJOINT_Q_TRIALS = 64


@dataclass(frozen=True)
class NormConfig:
    """``samples`` and ``restarts`` size the sample floor and the ascent,
    which only the search of sup_norm runs (three or more variables, or
    two over a wide coefficient range)."""

    restarts: int = 64
    samples: int = 1 << 14
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.samples < 1:
            raise PreconditionError("restarts and samples must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise PreconditionError(f"tol must be a finite number >= 0, got {self.tol!r}")


@dataclass(frozen=True)
class NormEstimate:
    """``upper``, when set, is an exactly proven upper bound on the norm;
    only the closed form (method "closed-form") sets it."""

    value: float
    maximizer: tuple[float, ...]
    lower_bound_certified: bool
    iterations: int
    method: str
    upper: float | None = None


@dataclass(frozen=True)
class Report:
    """One verified norm claim, bracketed from below and above."""

    claim: str
    lhs: float
    rhs: float
    rel_err: float
    tol: float
    certified_lower: bool
    samples: int
    seed: int
    wall_ms: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def vector_norm(y: Sequence) -> float:
    v = np.asarray(y, dtype=float)
    return float(np.sqrt((v * v).sum()))


class _CompiledMap:
    """numpy view of a float polynomial map for bulk evaluation.

    Two exponent tables serve every evaluation: the degree-m basis for the
    values and the degree-(m-1) basis for all d partials.  dP/dx_j reads the
    monomials it needs from the shared lower table through an index array,
    so one set of power tables per batch of points yields the values and the
    whole gradient.
    """

    def __init__(self, P: PolyMap):
        self.d = P.domain_dim
        self.e = P.codomain_dim
        self.m = P.degree
        # power tables have m + 1 columns: the basis cap bounds m only at d >= 2
        if self.m + 1 > DEFAULT_SIZE_CAP:
            raise CapacityError(f"a degree-{self.m} map needs power tables of {self.m + 1} "
                                f"columns, exceeding the size cap {DEFAULT_SIZE_CAP}")
        basis = enumerate_multi_indices(self.d, self.m)
        self.expts = np.array(basis, dtype=np.int64)          # (T, d)
        self.coeffs = np.array(
            [[float(c.coefficient(a)) for a in basis] for c in P.components])  # (e, T)
        if not np.isfinite(self.coeffs).all():
            raise FieldError("non-finite coefficient in polynomial map")

    # only the ascent needs the lower table and the partials, so they are
    # built on its first use
    @functools.cached_property
    def lower_expts(self) -> np.ndarray:
        """(T', d) degree-(m-1) exponent table, shared by all partials."""
        return np.array(enumerate_multi_indices(self.d, self.m - 1), dtype=np.int64)

    @functools.cached_property
    def partials(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """dP/dx_j for every variable that occurs: where alpha - e_j sits in
        the lower table, for each monomial alpha containing x_j, and the
        coefficients times alpha_j."""
        where = {a: i for i, a in enumerate(map(tuple, self.lower_expts.tolist()))}
        basis = list(map(tuple, self.expts.tolist()))
        partials = []
        for j in range(self.d):
            mask = self.expts[:, j] > 0
            if mask.any():
                idx = np.array([where[a[:j] + (a[j] - 1,) + a[j + 1:]]
                                for a, keep in zip(basis, mask.tolist()) if keep],
                               dtype=np.intp)
                partials.append((j, idx, self.coeffs[:, mask] * self.expts[mask, j]))
        return partials

    def monomials(self, X: np.ndarray,
                  lower: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """(N, T) degree-m monomial values at the rows of X and, with
        ``lower``, the (N, T') degree-(m-1) ones (else None), both read from
        one cumulative power table per variable."""
        N = X.shape[0]
        mon = np.ones((N, self.expts.shape[0]))
        low = np.ones((N, self.lower_expts.shape[0])) if lower else None
        for j in range(self.d):
            powers = np.empty((N, self.m + 1))
            powers[:, 0] = 1.0
            for a in range(1, self.m + 1):
                powers[:, a] = powers[:, a - 1] * X[:, j]
            mon *= powers[:, self.expts[:, j]]
            if lower and self.m > 1:
                low *= powers[:, self.lower_expts[:, j]]
        return mon, low

    def values_and_lower(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, e) values at the rows of X and their (N, T') lower table."""
        mon, low = self.monomials(X, lower=True)
        return mon @ self.coeffs.T, low

    def values(self, X: np.ndarray) -> np.ndarray:
        """X: (N, d) points -> (N, e) values."""
        return self.monomials(X)[0] @ self.coeffs.T

    def norms(self, X: np.ndarray) -> np.ndarray:
        V = self.values(X)
        return np.sqrt((V * V).sum(axis=1))

    def gradient(self, V: np.ndarray, low: np.ndarray) -> np.ndarray:
        """Gradient of f(x) = |P(x)|_2^2 at N points, given their values V
        and their degree-(m-1) monomial table ``low``."""
        G = np.zeros((V.shape[0], self.d))
        for j, idx, dcoeffs in self.partials:
            # take, not low[:, idx], which is F-ordered: the last bits of
            # the matmul follow the layout of its operands
            dV = low.take(idx, axis=1) @ dcoeffs.T             # (N, e)
            G[:, j] = 2.0 * (V * dV).sum(axis=1)
        return G

    def coeff_sum_bound(self) -> float:
        return vector_norm(np.abs(self.coeffs).sum(axis=1))


def _sphere_samples(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random points on the Euclidean unit sphere: normalized
    standard-normal vectors (Muller 1959)."""
    G = rng.standard_normal((n, d))
    return G / np.sqrt((G * G).sum(axis=1, keepdims=True))


@functools.lru_cache(maxsize=16)
def _circle_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree-m monomials on the circle parametrization, in basis order:
    row alpha of the first table holds the coefficients of
    (1-t^2)^{a1} t^{a2}, and the second holds 2^{a2}, so that
    c (1-t^2)^{a1} (2t)^{a2} is (c * row) * 2^{a2} coefficientwise."""
    P = np.polynomial.polynomial
    basis = enumerate_multi_indices(2, m)
    rows = np.zeros((len(basis), 2 * m + 1))
    for r, (a1, a2) in enumerate(basis):
        a = P.polypow(np.array([1.0, 0.0, -1.0]), a1)
        rows[r, a2:a2 + a.size] = a
    scale = np.ldexp(1.0, np.array([a2 for _, a2 in basis]))[:, None]
    rows.flags.writeable = scale.flags.writeable = False
    return rows, scale


def _exponent_spread(P: PolyMap) -> int:
    """Binary orders of magnitude between the largest and the smallest
    nonzero coefficient of P (0 for the zero map)."""
    exps = [math.frexp(c)[1] for comp in P.components for c in comp.coeffs.values()]
    return max(exps) - min(exps) if exps else 0


def _circle_critical_points(cm: _CompiledMap) -> np.ndarray:
    """All critical points of |P|^2 on the Euclidean circle (d = 2).

    Parametrize x = ((1-t^2)/(1+t^2), 2t/(1+t^2)); each component becomes
    N_i(t)/(1+t^2)^m and the critical equation of the squared norm is the
    polynomial S'(t)(1+t^2) - 4m t S(t) = 0 with S = sum N_i^2.
    """
    P = np.polynomial.polynomial
    # scaling every coefficient by one power of two leaves the roots alone,
    # and with the largest below one S cannot overflow
    coeffs = np.ldexp(cm.coeffs, -math.frexp(float(np.abs(cm.coeffs).max(initial=0.0)))[1])
    rows, scale = _circle_rows(cm.m)
    S = np.zeros(1)
    for c in coeffs:
        # N_i is the sum of its terms in basis order; a zero coefficient
        # adds only zeros, and the trailing zeros go as polyadd drops them
        Ni = np.zeros(rows.shape[1])
        for term in (c[:, None] * rows) * scale:
            Ni += term
        Ni = np.polynomial.polyutils.trimseq(Ni)
        S = P.polyadd(S, P.polymul(Ni, Ni))
    h = P.polysub(P.polymul(P.polyder(S), np.array([1.0, 0.0, 1.0])),
                  4.0 * cm.m * P.polymul(np.array([0.0, 1.0]), S))
    h = np.trim_zeros(h, "b")
    pts = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
    if h.size > 1 and np.abs(h).max() > 0:
        h = h / np.abs(h).max()
        roots = P.polyroots(h)
        for t in roots:
            if abs(t.imag) < 1e-9 * (1.0 + abs(t.real)):
                tr = t.real
                den = 1.0 + tr * tr
                pts.append(np.array([(1.0 - tr * tr) / den, 2.0 * tr / den]))
    return np.array(pts)


def _ascend_batch(cm: _CompiledMap, X: np.ndarray) -> tuple[np.ndarray, int]:
    """Projected gradient ascent on the Euclidean sphere, all rows at once.

    Per-row adaptive step with backtracking: a step is kept only if it
    improves the squared norm; the step then grows, otherwise it shrinks.
    """
    X = X / np.sqrt((X * X).sum(axis=1, keepdims=True))
    V, low = cm.values_and_lower(X)
    f = (V * V).sum(axis=1)
    eta = np.full(X.shape[0], 0.1)
    iters = 0
    stall = 0
    for _ in range(MAX_ASCENT_ITERS):
        iters += 1
        G = cm.gradient(V, low)
        # tangential component; near a maximizer it vanishes
        Gt = G - ((G * X).sum(axis=1, keepdims=True)) * X
        cand = X + eta[:, None] * Gt
        cand /= np.sqrt((cand * cand).sum(axis=1, keepdims=True))
        Vc, low_c = cm.values_and_lower(cand)
        f_new = (Vc * Vc).sum(axis=1)
        better = f_new > f
        X[better] = cand[better]
        V[better] = Vc[better]
        # the accepted rows' lower table is the next gradient's input
        low[better] = low_c[better]
        improvement = np.where(better, f_new - f, 0.0)
        f = np.where(better, f_new, f)
        eta[better] *= 1.3
        eta[~better] *= 0.4
        rel = improvement.max() / max(f.max(), 1e-300)
        if rel < 1e-16:
            stall += 1
            if stall >= 4:
                break
        else:
            stall = 0
        if eta.max() < 1e-18:
            break
    return X, iters


@functools.lru_cache(maxsize=MAX_CLOSED_FORM_DIM)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the degree-2 basis x_i x_j, i <= j: its descending lex
    order is the row-major upper triangle."""
    i, j = np.triu_indices(d)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _form_matrix(c: np.ndarray, d: int) -> np.ndarray:
    """The symmetric M with x^T M x = sum c_alpha x^alpha for degree 2."""
    i, j = _upper_triangle(d)
    M = np.zeros((d, d))
    M[i, j] = np.where(i == j, c, 0.5 * c)
    M[j, i] = M[i, j]
    return M


def _top_eigenvector(cm: _CompiledMap) -> np.ndarray:
    """A unit vector at which the linear map or quadratic form attains its
    norm, up to rounding: the top eigenvector of A^T A, or the eigenvector
    of M whose eigenvalue is largest in absolute value."""
    if cm.m == 1:
        # degree 1 lists the basis e_1, ..., e_d in order, so coeffs is A
        w, V = np.linalg.eigh(cm.coeffs.T @ cm.coeffs)
    else:
        w, V = np.linalg.eigh(_form_matrix(cm.coeffs[0], cm.d))
        w = np.abs(w)
    return V[:, int(w.argmax())]


def _positive_definite(W: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix W is positive definite.

    Sylvester's criterion by fraction-free (Bareiss) elimination without
    pivoting: the k-th pivot is the k-th leading principal minor, and every
    division is exact.
    """
    prev = 1
    while W:
        p, head = W[0][0], W[0]
        if p <= 0:
            return False
        W = [[(p * x - r[0] * h) // prev for x, h in zip(r[1:], head[1:])]
             for r in W[1:]]
        prev = p
    return True


def _proves_upper(coeffs: np.ndarray, d: int, m: int, u: float) -> bool:
    """Exact proof that the linear map (m = 1) or quadratic form (m = 2,
    one row) on d variables with these coefficients has sup norm below u.

    With every number over the least common denominator of the doubles, a
    power of two, so the numerators are exact integers: for A, u^2 I - A^T A
    is positive definite, tested on the smaller Gram matrix (A A^T has the
    same nonzero eigenvalues); for the form, writing N for the integer
    matrix of 2M, both 2u I - N and 2u I + N are.
    """
    e = coeffs.shape[0]
    _, (*ints, a) = _common_denominator(coeffs.ravel().tolist() + [u])
    if m == 1:
        A = [ints[r * d:(r + 1) * d] for r in range(e)]
        if e >= d:
            A = list(zip(*A))
        a2 = a * a
        return _positive_definite([[(a2 if i == j else 0) - sum(x * y for x, y in zip(ri, rj))
                                    for j, rj in enumerate(A)] for i, ri in enumerate(A)])
    N = [[0] * d for _ in range(d)]
    for i, j, n in zip(*map(np.ndarray.tolist, _upper_triangle(d)), ints):
        N[i][j] = N[j][i] = 2 * n if i == j else n
    return all(_positive_definite([[(2 * a if i == j else 0) + sign * x
                                    for j, x in enumerate(row)] for i, row in enumerate(N)])
               for sign in (-1, 1))


def sup_norm(P: PolyMap | HomPoly, cfg: NormConfig = NormConfig(),
             extra_starts: Sequence[Sequence[float]] = ()) -> NormEstimate:
    """Certified lower-bound estimate of the sup norm on the unit ball.

    Requires the f64 field.  The method's head of candidate points, then
    +-e_i and ``extra_starts`` (known good points, projected to the sphere
    first), are evaluated together and the best is picked once; see the
    module docstring for the heads.  Only the search (three or more
    variables, or two over a wide coefficient range) iterates:
    ``cfg.samples`` and ``cfg.restarts`` size it, and
    ``(samples + 2d)`` times the monomial count may not exceed
    MAX_SAMPLE_ENTRIES (CapacityError).  Every other method reports
    ``iterations == 0``.  Only the closed form (linear maps and scalar
    quadratic forms on 2..MAX_CLOSED_FORM_DIM variables) carries ``upper``,
    proven exactly on the map's own coefficients.  A map whose largest
    coefficient is 2^e with |e| > MAX_SCALE_EXP is measured as 2^-e P and
    its value scaled back, both exactly; a norm past the largest double
    raises PreconditionError.
    """
    if isinstance(P, HomPoly):
        P = PolyMap((P,))
    if P.field != F64:
        raise FieldError("sup_norm runs on the f64 field; convert with as_field")
    d, m = P.domain_dim, P.degree
    # a linear map or a scalar quadratic form
    closed_form = 2 <= d <= MAX_CLOSED_FORM_DIM and (m == 1 or (m == 2 and P.codomain_dim == 1))
    search = not closed_form and (
        d > 2 or (d == 2 and _exponent_spread(P) > MAX_CIRCLE_SPREAD))
    points = cfg.samples + 2 * d
    # checked before the compiled map, whose exponent and derivative tables
    # alone grow with d times the monomial count
    if search and _basis_size_exceeds(d, m, MAX_SAMPLE_ENTRIES // points):
        raise CapacityError(
            f"{points} sphere points times C({d + m - 1}, {m}) monomials "
            f"exceed the sample size cap {MAX_SAMPLE_ENTRIES}")
    cm = _CompiledMap(P)
    raw = cm.coeffs
    # |2^-e P| = 2^-e |P|: far from unit scale the squares of the values
    # would underflow or overflow, so there the map measured is 2^-e P (the
    # partials, built on the ascent's first use, read the scaled coefficients)
    shift = math.frexp(float(np.abs(cm.coeffs).max(initial=0.0)))[1]
    if abs(shift) > MAX_SCALE_EXP:
        cm.coeffs = np.ldexp(cm.coeffs, -shift)
    else:
        shift = 0

    # each method supplies the head of the candidate rows: none for d = 1,
    # whose endpoints are the +-e_1 below
    if d == 1:
        method, head = "endpoint-enumeration", np.empty((0, 1))
    elif closed_form:
        method, head = "closed-form", _top_eigenvector(cm)[None, :]
    elif not search:
        # the circle pass is exhaustive (t = infinity is +-e_1), so its
        # best point is the maximum
        method, head = "circle-critical-points", _circle_critical_points(cm)
    else:
        # `norm` prints this label and the benchmark counts by it, so it
        # keeps its name although the samples are now Gaussian
        method = "sobol+gradient-ascent"
        rng = _np_rng(cfg.seed, f"sup-norm-l2-{d}")
        head = _sphere_samples(d, cfg.samples, rng)
    rows = [head, np.eye(d), -np.eye(d)]
    for s in extra_starts:
        v = np.asarray(s, dtype=float)
        n = vector_norm(v)
        if n > 1e-300:
            rows.append((v / n)[None, :])
    X = np.vstack(rows)
    vals = cm.norms(X)
    i = int(vals.argmax())
    best, iters = X[i], 0
    if method == "circle-critical-points":
        # random circle points only guard the root-finder
        rng = _np_rng(cfg.seed, f"sup-norm-l2-{d}")
        check = float(cm.norms(_sphere_samples(d, CROSS_CHECK, rng)).max())
        if check > float(vals[i]) * (1.0 + 1e-9):
            raise AssertionError(
                f"a random circle point reaches {check}, above the circle "
                f"critical-point maximum {float(vals[i])}")
    elif method == "sobol+gradient-ascent":
        order = np.argsort(vals)[::-1]
        starts = X[order[: min(cfg.restarts, X.shape[0])]]
        refined, iters = _ascend_batch(cm, starts.copy())
        rvals = cm.norms(refined)
        j = int(rvals.argmax())
        if float(rvals[j]) >= float(vals[i]):
            best = refined[j]

    # renormalize exactly onto the sphere and re-evaluate: the value reported
    # is an evaluation, hence a certified lower bound
    n = vector_norm(best)
    if n > 0:
        best = best / n
    value = float(cm.norms(best[None, :])[0])
    bound = cm.coeff_sum_bound()
    if value > bound * (1.0 + 1e-9) + 1e-300:
        raise AssertionError(
            f"estimate {value} exceeds the coefficient-sum bound {bound}")
    est = NormEstimate(value, tuple(float(v) for v in best), True, iters, method)
    try:
        if shift:
            est = replace(est, value=math.ldexp(value, shift))
        if closed_form:
            est = replace(est, upper=_certified_upper(raw, d, m, value, shift))
    except OverflowError:
        raise PreconditionError(
            f"the sup norm, {value} * 2^{shift}, exceeds the largest double") from None
    return est


def _certified_upper(raw: np.ndarray, d: int, m: int, value: float, shift: int) -> float:
    """(1 + CLOSED_FORM_SLACK) value 2^shift, rounded up to a double, proven
    an upper bound on the norm of the map with coefficients ``raw``; value is
    the norm of the map scaled by 2^-shift.  AssertionError if the proof
    fails."""
    if not raw.any():
        return 0.0
    scaled = value * (1.0 + CLOSED_FORM_SLACK)
    upper = math.ldexp(scaled, shift)
    if math.ldexp(upper, -shift) < scaled:
        upper = math.nextafter(upper, math.inf)
    if not _proves_upper(raw, d, m, upper):
        raise AssertionError(
            f"the closed form's upper bound {upper} is not proven: "
            f"an eigenvalue was missed or under-reported")
    return upper


def norming_functional(y: Sequence) -> HomPoly:
    """The inner product with y/|y|: a linear functional of dual norm one
    with phi(y) = |y|."""
    v = np.asarray(y, dtype=float)
    n = vector_norm(v)
    if n < 1e-300:
        raise DegenerateInputError("cannot norm the zero vector")
    return HomPoly.linear_form([float(c) for c in v / n], F64)


def _elapsed_ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def check_norm_duality(x: Sequence, m: int, cfg: NormConfig = NormConfig()) -> Report:
    """|x|^m is attained by the m-th power of a norming functional, and that
    power has sup norm at most one.  The error brackets both sides: the
    relative attainment gap and the excess of that sup norm over one."""
    t0 = time.perf_counter()
    xv = [float(v) for v in x]
    target = vector_norm(xv) ** m
    if target == 0.0:
        raise DegenerateInputError("x must be nonzero")
    phi = norming_functional(xv)
    q = phi ** m
    lhs = abs(q.eval(xv))
    rel_lower = abs(lhs / target - 1.0)
    unit = (np.asarray(xv) / vector_norm(xv)).tolist()
    qn = sup_norm(q, cfg, extra_starts=[unit])
    passed = rel_lower <= cfg.tol and qn.value <= 1.0 + cfg.tol
    rel = max(rel_lower, qn.value - 1.0)
    return Report("norm_duality", lhs, target, rel, cfg.tol, True,
                  cfg.samples, cfg.seed, _elapsed_ms(t0), passed,
                  {"attaining_sup_norm": qn.value, "degree": m})


def _upper_trials(rng: np.random.Generator, d: int, k: int, q_trials: int,
                  cfg: NormConfig, rel_lower: float,
                  ratio) -> tuple[float, int, float, bool]:
    """The upper side of a norm identity: ``ratio`` on q_trials random
    degree-k polynomials on R^d, each scaled to sup norm one (those below
    1e-12 are skipped).  Returns the worst ratio, how many q were tested,
    and the relative error and verdict of the bracket with ``rel_lower``."""
    worst_ratio = 0.0
    tested = 0
    for _ in range(q_trials):
        q = _random_hompoly_f64(rng, d, k)
        qn = sup_norm(q, cfg).value
        if qn < 1e-12:
            continue
        tested += 1
        worst_ratio = max(worst_ratio, ratio(q.scale(1.0 / qn)))
    passed = rel_lower <= cfg.tol and worst_ratio <= 1.0 + cfg.tol
    rel = max(rel_lower, max(0.0, worst_ratio - 1.0))
    return worst_ratio, tested, rel, passed


def check_adjoint_norm(P: PolyMap, n: int, k: int,
                       cfg: NormConfig = NormConfig(),
                       q_trials: int = ADJOINT_Q_TRIALS) -> Report:
    """The adjoint's norm equals |P|^{kn}: certified from below by the k-th
    power of a functional norming P at its maximizer, and never exceeded on
    normalized random test polynomials."""
    t0 = time.perf_counter()
    P = P.as_field(F64)
    est = sup_norm(P, cfg)
    if est.value <= 0.0:
        raise DegenerateInputError("zero map has no norming direction")
    target = est.value ** (k * n)
    phi = norming_functional(P.eval_map(est.maximizer))
    q_star = phi ** k
    lower = sup_norm(adjoint_apply(P, n, k, q_star), cfg,
                     extra_starts=[est.maximizer]).value
    rel_lower = abs(lower / target - 1.0)
    rng = _np_rng(cfg.seed, f"adjoint-norm-q-{n}-{k}")
    worst_ratio, tested, rel, passed = _upper_trials(
        rng, P.codomain_dim, k, q_trials, cfg, rel_lower,
        lambda q: sup_norm(adjoint_apply(P, n, k, q), cfg).value / target)
    return Report("adjoint_norm", lower, target, rel, cfg.tol, True,
                  cfg.samples, cfg.seed, _elapsed_ms(t0), passed,
                  {"sup_norm_P": est.value, "worst_upper_ratio": worst_ratio,
                   "q_instances": tested, "n": n, "k": k})


def check_embedding_norm(x: Sequence, m: int, n: int,
                         cfg: NormConfig = NormConfig(),
                         q_trials: int = 32) -> Report:
    """The power evaluation embedding of x has norm |x|^{mn}: attained by the
    n-th power of a norming functional of x, never exceeded by normalized
    random q."""
    t0 = time.perf_counter()
    xv = [float(v) for v in x]
    d = len(xv)
    nx = vector_norm(xv)
    if nx == 0.0:
        raise DegenerateInputError("x must be nonzero")
    target = nx ** (m * n)
    jp = evaluation_embedding(xv, m, n, field=F64)
    phi = norming_functional(xv)
    q_star = phi ** n
    lower = abs(jp.eval(q_star.coeff_vector()))
    rel_lower = abs(lower / target - 1.0)
    rng = _np_rng(cfg.seed, f"embedding-norm-q-{m}-{n}-{d}")
    worst_ratio, _, rel, passed = _upper_trials(
        rng, d, n, q_trials, cfg, rel_lower,
        lambda q: abs(jp.eval(q.coeff_vector())) / target)
    return Report("embedding_norm", lower, target, rel, cfg.tol, True,
                  cfg.samples, cfg.seed, _elapsed_ms(t0), passed,
                  {"worst_upper_ratio": worst_ratio, "m": m, "n": n})


def check_metric_injection(proj: PolyMap, q: HomPoly,
                           cfg: NormConfig = NormConfig()) -> Report:
    """Precomposition with a surjection that maps the ball onto the ball
    preserves the sup norm; here the surjection is a matrix with orthonormal
    rows acting between Euclidean balls."""
    t0 = time.perf_counter()
    proj = proj.as_field(F64)
    if proj.degree != 1:
        raise PreconditionError("proj must be linear")
    e, g = proj.codomain_dim, proj.domain_dim
    A = np.array([c.coeff_vector() for c in proj.components], dtype=float)
    if np.abs(A @ A.T - np.eye(e)).max() > 1e-12:
        raise PreconditionError("proj rows are not orthonormal (not a metric surjection)")
    if q.domain_dim != e:
        raise DimensionError("q must live on the codomain of proj")
    q = q.as_field(F64)
    rhs_est = sup_norm(q, cfg)
    if rhs_est.value < 1e-300:
        raise DegenerateInputError("q is zero")
    lifted_start = (A.T @ np.asarray(rhs_est.maximizer)).tolist()
    lhs_est = sup_norm(compose_scalar(q, proj), cfg, extra_starts=[lifted_start])
    rel = abs(lhs_est.value / rhs_est.value - 1.0)
    passed = rel <= cfg.tol
    return Report("metric_injection", lhs_est.value, rhs_est.value, rel, cfg.tol,
                  True, cfg.samples, cfg.seed, _elapsed_ms(t0), passed,
                  {"domain_dim": g, "codomain_dim": e, "k": q.degree})
