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

Each piece of kernel work is done once.  The index tables a map evaluates
with depend only on its shape (d, m), so they are built once per shape and
cached, not per map: where each degree-m monomial, for the values, and each
degree-(m-1) monomial, for the table shared by all d partial derivatives,
reads its factors in a batch's power table, and where each partial gathers
its monomials from that lower table.  For the ascent's few rows the tables
are products over the variables in turn, and the ascent carries the lower
table of its accepted points forward, so the gradient at an iterate costs no
new table.  The sample floor's many rows take shared prefix products
instead: each monomial is the left-to-right product of x_j^{a_j} over its
nonzero exponents, which is the per-variable product too (its other factors
are 1.0, which is exact), so a depth-first walk of the basis in its own
order, holding one product per depth, writes each column of the same table
with one multiplication, to the same bits.  The circle pass reads the
coefficients of (1-t^2)^{a1} (2t)^{a2} from a table cached per degree.  A
map far from unit scale is measured scaled by a power of two, which is
exact, so no square underflows or overflows; `vector_norm` scales a vector
the same way.

Verification helpers bracket each norm identity from both sides: an
explicit norming construction certifies the lower bound, random normalized
polynomials confirm the upper bound is never exceeded.  Each returns a
`Report` of what it measured; the verdict is one rule, which the report
applies itself: a claim passes exactly when its relative error is within
its tolerance.  No check reads the clock, so same-seed reports are equal.
"""
from __future__ import annotations

import functools
import math
import sys
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
    """One verified norm claim, bracketed from below and above.

    ``passed`` is not an argument: it is ``rel_err <= tol``, so a NaN error
    fails.  ``measured`` is the constructor the checks use."""

    claim: str
    lhs: float
    rhs: float
    rel_err: float
    tol: float
    certified_lower: bool
    samples: int
    seed: int
    passed: bool = field(init=False)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.rel_err <= self.tol)

    @classmethod
    def measured(cls, claim: str, cfg: NormConfig, lhs: float, rhs: float,
                 rel_err: float, details: dict, tol: float | None = None) -> Report:
        """The report of a check run at ``cfg``, whose tolerance it takes
        unless ``tol`` is given; every lower side is an evaluation, hence
        certified."""
        return cls(claim, lhs, rhs, rel_err, cfg.tol if tol is None else tol, True,
                   cfg.samples, cfg.seed, details)

    def to_dict(self) -> dict:
        return asdict(self)


def vector_norm(y: Sequence) -> float:
    """The Euclidean norm of y.  A vector whose largest entry is 2^e with
    |e| > MAX_SCALE_EXP is measured as 2^-e y, exactly, so that no square
    underflows or overflows, and its norm scaled back (inf past the largest
    double)."""
    v = np.asarray(y, dtype=float)
    shift = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
    if abs(shift) <= MAX_SCALE_EXP:
        return float(np.sqrt((v * v).sum()))
    v = np.ldexp(v, -shift)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sqrt((v * v).sum()), shift))


class _Shape:
    """What every degree-m map on R^d evaluates with, built once per (d, m)
    by `_shape`: the basis and, per variable x_j, where each monomial reads
    its power of x_j in a point's power table; on first use, the same for
    the degree-(m-1) basis, the partials' index arrays and the sample
    floor's prefix walk."""

    def __init__(self, d: int, m: int):
        self.d, self.m = d, m
        self.basis = enumerate_multi_indices(d, m)
        self.gather = _gather_index(self.basis, d, m)

    @functools.cached_property
    def lower_gather(self) -> tuple[np.ndarray, ...]:
        return _gather_index(enumerate_multi_indices(self.d, self.m - 1), self.d, self.m)

    @functools.cached_property
    def partials(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(mask, idx, alpha_j) for each variable x_j, in order: which
        monomials alpha contain x_j, where alpha - e_j sits in the lower
        table, and their exponents of x_j."""
        where = {a: i for i, a in enumerate(enumerate_multi_indices(self.d, self.m - 1))}
        expts = np.array(self.basis, dtype=np.int64)
        partials = []
        for j in range(self.d):
            mask = expts[:, j] > 0
            idx = np.array([where[a[:j] + (a[j] - 1,) + a[j + 1:]]
                            for a, keep in zip(self.basis, mask.tolist()) if keep],
                           dtype=np.intp)
            partials.append(_read_only(mask, idx, expts[mask, j]))
        return tuple(partials)

    @functools.cached_property
    def walk(self) -> tuple[tuple[int, int, int, int], ...]:
        return _prefix_walk(self.basis)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _gather_index(basis: list[tuple[int, ...]], d: int, m: int) -> tuple[np.ndarray, ...]:
    """Where x_j^{alpha_j} sits in the flattened (d, m + 1) power table of a
    point, over the basis, one read-only index array per variable."""
    expts = np.array(basis, dtype=np.intp)
    return _read_only(*((m + 1) * j + expts[:, j] for j in range(d)))


def _prefix_walk(basis: list[tuple[int, ...]]) -> tuple[tuple[int, int, int, int], ...]:
    """The steps that build the monomial table from shared prefix products.

    Monomial alpha is the left-to-right product of x_j^{a_j} over its
    nonzero exponents, the product the per-variable table forms too, whose
    extra factors of 1.0 are exact.  In the basis's descending lex order the
    monomials sharing a prefix of those factors are adjacent, so a
    depth-first walk keeps one product per depth.  Step (i, j, a, t) sets
    depth i to depth i - 1 (nothing at i = 0) times x_j^a, and writes that
    into column t of the table when t >= 0 instead.
    """
    walk, live = [], []
    for t, alpha in enumerate(basis):
        factors = [(j, a) for j, a in enumerate(alpha) if a]
        # the products of live[:k] are still held at depths 0..k-1
        k = 0
        while k < min(len(live), len(factors) - 1) and live[k] == factors[k]:
            k += 1
        walk.extend((i, j, a, -1) for i, (j, a) in enumerate(factors[k:-1], k))
        walk.append((len(factors) - 1, *factors[-1], t))
        live = factors[:-1]
    return tuple(walk)


@functools.lru_cache(maxsize=16)
def _shape(d: int, m: int) -> _Shape:
    return _Shape(d, m)


class _CompiledMap:
    """numpy view of a float polynomial map for bulk evaluation.

    Two exponent tables serve every evaluation: the degree-m basis for the
    values and the degree-(m-1) basis for all d partials.  dP/dx_j reads the
    monomials it needs from the shared lower table through an index array,
    so one set of power tables per batch of points yields the values and the
    whole gradient.  Both tables, and the walk that builds the sample
    floor's table, are shared by every map of the same shape.
    """

    def __init__(self, P: PolyMap):
        self.d = P.domain_dim
        self.e = P.codomain_dim
        self.m = P.degree
        # power tables have m + 1 columns: the basis cap bounds m only at d >= 2
        if self.m + 1 > DEFAULT_SIZE_CAP:
            raise CapacityError(f"a degree-{self.m} map needs power tables of {self.m + 1} "
                                f"columns, exceeding the size cap {DEFAULT_SIZE_CAP}")
        self.shape = _shape(self.d, self.m)
        self.coeffs = np.array(
            [[float(c.coefficient(a)) for a in self.shape.basis] for c in P.components])  # (e, T)
        if not np.isfinite(self.coeffs).all():
            raise FieldError("non-finite coefficient in polynomial map")

    # only the ascent needs the partials, so they are built on its first use
    @functools.cached_property
    def partials(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """dP/dx_j for each variable x_j, in order (each occurs at m >= 1):
        where alpha - e_j sits in the lower table, for each monomial alpha
        containing x_j, and the coefficients times alpha_j."""
        return [(idx, self.coeffs[:, mask] * weights)
                for mask, idx, weights in self.shape.partials]

    def monomials(self, X: np.ndarray,
                  lower: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """(N, T) degree-m monomial values at the rows of X and, with
        ``lower``, the (N, T') degree-(m-1) ones (else None), both read from
        one cumulative power table per point: each is the product over the
        variables in turn of the powers gathered from it, a 1.0 for each
        zero exponent included."""
        N = X.shape[0]
        powers = np.empty((N, self.d, self.m + 1))
        powers[:, :, 0] = 1.0
        powers[:, :, 1] = X
        for a in range(2, self.m + 1):
            np.multiply(powers[:, :, a - 1], X, out=powers[:, :, a])
        flat = powers.reshape(N, -1)

        def table(gather: tuple[np.ndarray, ...]) -> np.ndarray:
            out = flat.take(gather[0], axis=1)
            for index in gather[1:]:
                out *= flat.take(index, axis=1)
            return out
        return table(self.shape.gather), table(self.shape.lower_gather) if lower else None

    def floor_monomials(self, X: np.ndarray) -> np.ndarray:
        """The (N, T) table of `monomials` at the many rows of the sample
        floor, equal to it bit for bit, built column by column by the
        shape's prefix walk from one power row per variable and exponent."""
        N = X.shape[0]
        # row a - 1 holds x_j^a: the walk reads no zero exponent
        powers = np.empty((self.d, self.m, N))
        powers[:, 0] = X.T
        for a in range(1, self.m):
            np.multiply(powers[:, a - 1], powers[:, 0], out=powers[:, a])
        mon = np.empty((N, len(self.shape.basis)))
        # a monomial has at most min(d, m) factors, so the walk as many depths
        held = np.empty((min(self.d, self.m), N))
        path = [None] * len(held)
        for i, j, a, t in self.shape.walk:
            factor = powers[j, a - 1]
            if t < 0:
                path[i] = np.multiply(path[i - 1], factor, out=held[i]) if i else factor
            elif i:
                np.multiply(path[i - 1], factor, out=mon[:, t])
            else:
                mon[:, t] = factor
        return mon

    def values_and_lower(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, e) values at the rows of X and their (N, T') lower table."""
        mon, low = self.monomials(X, lower=True)
        return mon @ self.coeffs.T, low

    def values(self, X: np.ndarray) -> np.ndarray:
        """X: (N, d) points -> (N, e) values."""
        return self.monomials(X)[0] @ self.coeffs.T

    def norms(self, X: np.ndarray) -> np.ndarray:
        return _row_norms(self.values(X))

    def gradient(self, V: np.ndarray, low: np.ndarray) -> np.ndarray:
        """Gradient of f(x) = |P(x)|_2^2 at N points, given their values V
        and their degree-(m-1) monomial table ``low``."""
        dV = np.empty((V.shape[0], self.d, self.e))
        for j, (idx, dcoeffs) in enumerate(self.partials):
            # take, not low[:, idx], which is F-ordered: the last bits of
            # the matmul follow the layout of its operands
            dV[:, j] = low.take(idx, axis=1) @ dcoeffs.T
        return 2.0 * (V[:, None, :] * dV).sum(axis=2)

    def coeff_sum_bound(self) -> float:
        return vector_norm(np.abs(self.coeffs).sum(axis=1))


def _row_norms(V: np.ndarray) -> np.ndarray:
    return np.sqrt((V * V).sum(axis=1))


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
        rows = better[:, None]
        np.copyto(X, cand, where=rows)
        np.copyto(V, Vc, where=rows)
        # the accepted rows' lower table is the next gradient's input
        np.copyto(low, low_c, where=rows)
        improvement = np.where(better, f_new - f, 0.0)
        f = np.where(better, f_new, f)
        eta *= np.where(better, 1.3, 0.4)
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
    # the sample floor's many rows take the prefix walk, to the same bits
    mon = cm.floor_monomials(X) if search else cm.monomials(X)[0]
    vals = _row_norms(mon @ cm.coeffs.T)
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


def check_norm_duality(x: Sequence, m: int, cfg: NormConfig = NormConfig()) -> Report:
    """|x|^m is attained by the m-th power of a norming functional, and that
    power has sup norm at most one.  The error brackets both sides: the
    relative attainment gap and the excess of that sup norm over one."""
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
    # np.maximum, unlike max, keeps a NaN on either side, which then fails
    rel = float(np.maximum(rel_lower, qn.value - 1.0))
    return Report.measured("norm_duality", cfg, lhs, target, rel,
                           {"attaining_sup_norm": qn.value, "degree": m})


def _upper_trials(rng: np.random.Generator, d: int, k: int, q_trials: int,
                  cfg: NormConfig, ratio) -> tuple[float, int]:
    """The upper side of a norm identity: ``ratio`` on q_trials random
    degree-k polynomials on R^d, each scaled to sup norm one (those below
    1e-12 are skipped).  Returns the worst ratio, NaN if any ratio is, and
    how many q were tested."""
    worst_ratio = 0.0
    tested = 0
    for _ in range(q_trials):
        q = _random_hompoly_f64(rng, d, k)
        qn = sup_norm(q, cfg).value
        if qn < 1e-12:
            continue
        tested += 1
        worst_ratio = float(np.maximum(worst_ratio, ratio(q.scale(1.0 / qn))))
    return worst_ratio, tested


def check_adjoint_norm(P: PolyMap, n: int, k: int,
                       cfg: NormConfig = NormConfig(),
                       q_trials: int = ADJOINT_Q_TRIALS) -> Report:
    """The adjoint's norm equals |P|^{kn}: certified from below by the k-th
    power of a functional norming P at its maximizer, and never exceeded on
    normalized random test polynomials.  CapacityError when |P|^{kn} is not
    a normal double."""
    P = P.as_field(F64)
    est = sup_norm(P, cfg)
    if est.value <= 0.0:
        raise DegenerateInputError("zero map has no norming direction")
    try:
        target = est.value ** (k * n)
    except OverflowError:
        target = math.inf
    # past the largest double, or below the smallest normal one, where it
    # keeps too few bits to compare with, or none
    if not sys.float_info.min <= target <= sys.float_info.max:
        raise CapacityError(f"the adjoint's norm |P|^{k * n} = ({est.value!r})^{k * n} "
                            f"does not fit a double")
    phi = norming_functional(P.eval_map(est.maximizer))
    q_star = phi ** k
    lower = sup_norm(adjoint_apply(P, n, k, q_star), cfg,
                     extra_starts=[est.maximizer]).value
    rel_lower = abs(lower / target - 1.0)
    rng = _np_rng(cfg.seed, f"adjoint-norm-q-{n}-{k}")
    worst_ratio, tested = _upper_trials(
        rng, P.codomain_dim, k, q_trials, cfg,
        lambda q: sup_norm(adjoint_apply(P, n, k, q), cfg).value / target)
    return Report.measured("adjoint_norm", cfg, lower, target,
                           float(np.maximum(rel_lower, worst_ratio - 1.0)),
                           {"sup_norm_P": est.value, "worst_upper_ratio": worst_ratio,
                            "q_instances": tested, "n": n, "k": k})


def check_embedding_norm(x: Sequence, m: int, n: int,
                         cfg: NormConfig = NormConfig(),
                         q_trials: int = 32) -> Report:
    """The power evaluation embedding of x has norm |x|^{mn}: attained by the
    n-th power of a norming functional of x, never exceeded by normalized
    random q."""
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
    worst_ratio, _ = _upper_trials(
        rng, d, n, q_trials, cfg, lambda q: abs(jp.eval(q.coeff_vector())) / target)
    return Report.measured("embedding_norm", cfg, lower, target,
                           float(np.maximum(rel_lower, worst_ratio - 1.0)),
                           {"worst_upper_ratio": worst_ratio, "m": m, "n": n})


def check_metric_injection(proj: PolyMap, q: HomPoly,
                           cfg: NormConfig = NormConfig()) -> Report:
    """Precomposition with a surjection that maps the ball onto the ball
    preserves the sup norm; here the surjection is a matrix with orthonormal
    rows acting between Euclidean balls."""
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
    return Report.measured("metric_injection", cfg, lhs_est.value, rhs_est.value,
                           abs(lhs_est.value / rhs_est.value - 1.0),
                           {"domain_dim": g, "codomain_dim": e, "k": q.degree})
