"""Sup norms of polynomial maps on the Euclidean unit ball, with certificates.

The sup norm is the maximum of |P(x)| over the Euclidean unit ball; for a
homogeneous map it sits on the unit sphere.  Every estimate's value is P
evaluated in floats at its maximizer, which lies on the sphere up to machine
precision.  It is a lower bound up to that rounding, not to the last bit:
it may exceed the exact |P(x)|/|x|^m at its own maximizer x by a few ulps.

`sup_norms` norms maps of any shapes, one stack per shape (d, m, e), and
runs one pipeline over each stack; `sup_norm` of a single map is a stack of
one.  A method, chosen by shape, supplies the head of each map's candidate
points; the points +-e_i and the map's own extra starts, projected to the
sphere, follow it.  The heads:

* one variable ("endpoint-enumeration"): none, the endpoints are +-e_1;
* linear maps x -> Ax and scalar quadratic forms x^T M x on 2 to
  MAX_CLOSED_FORM_DIM variables ("closed-form"): the top eigenvector, as
  the norm is sigma_max(A) or max |lambda(M)| (Courant-Fischer), from one
  np.linalg.eigh over the (B, d, d) stack;
* other maps of two variables ("circle-critical-points"): the critical
  points of the squared norm on the circle, solved outright by a rational
  parametrization and companion-matrix root-finding, so the pick is the
  global maximum to near machine precision.  Every N_i(t) of the stack is
  built at once, and one np.linalg.eigvals runs per companion size;
* other maps of three or more variables, and two-variable maps whose
  coefficients span more than MAX_CIRCLE_SPREAD binary orders of magnitude
  ("sobol+gradient-ascent"): the points that projected gradient ascent,
  with per-restart adaptive step and backtracking, reaches from the best
  of a random sample floor of normalized standard-normal vectors (uniform
  on the sphere) and the other candidates, then the best of those.  One
  ascent refines the restarts of every map, each map stopping by its own
  rule.

The candidate of largest value is then picked once for the whole stack, by
one monomial table and one stacked matmul over each map's rows, padded to
one length with copies of its last row; the first maximum wins, so a copy
never beats its row and an ascent point at least as good as the floor's
best replaces it.  Random
circle points, the same for every map of a seed, may not beat a circle
pass's pick, so a root-finder that misses the maximum fails loudly.  The
tail is stacked too: each pick is renormalized onto the sphere and its map
evaluated there, which gives the value, asserted below the Euclidean norm
of the coefficient absolute sums and scaled back if the map was measured
scaled.  Every slice of a stacked step computes what the map alone would,
so an estimate has the same bits in a stack as by itself.

Only the closed form also carries an upper bound ``upper = value (1 +
2^-40)``, proven map by map in exact integer arithmetic (`_proves_upper`);
a certificate that fails raises AssertionError.

The index tables a map evaluates with depend only on its shape (d, m), so
`_Shape` builds them once per shape (see it and `_prefix_walk`).  A map far
from unit scale is measured scaled by a power of two, which is exact, so no
square underflows or overflows; `vector_norm` scales a vector the same way.

Each `sup_norms` call owns its random draws, in one dict that its stacks
share and that it drops on return.  A call has one cfg, so the search's
sample floor (its points and their monomial table) depends only on the
shape (d, m), and the circle pass's cross-check points on nothing more:
each is drawn once per call (`_floor`, `_cross_check`).

The four `check_*` functions bracket a norm identity lhs = rhs
(`Report.bracket`): a norming construction attains lhs from below, and on
the upper side no measurement over rhs may exceed one.  The error is the
worse of the two sides, and a report passes exactly when it is within its
tolerance.  Each check, like `composition.check_two_sided_norm`, takes a
sequence of instances, checks every one before any sup norm runs and
returns one report per instance, in order.  `check_norm_duality` and
`check_metric_injection` norm all their maps in one `sup_norms` call.
Random normalized polynomials make the upper side of the adjoint and the
embedding: `_unit_trials` draws one stream's polynomials first and norms
them to unit sup norm in one stack, and every instance on that stream is
measured against those unit trials, drawn once per check call; the
embedding evaluates at each trial's point, cleared once per check call.
No check reads the clock, so same-seed reports are equal.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebra import (DEFAULT_SIZE_CAP, F64, HomPoly, PolyMap, _basis_size_exceeds, _cleared,
                      _common_denominator, _numerator, compose_scalar, enumerate_multi_indices)
from .adjoint import adjoint_apply, evaluation_embedding
from .errors import (CapacityError, DegenerateInputError, DegreeError, DimensionError,
                     FieldError, PreconditionError)
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
    fails.  ``bracket`` is the constructor the identity checks use."""

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
    def bracket(cls, claim: str, cfg: NormConfig, lhs: float, rhs: float,
                ratios: Iterable[float], details: dict) -> Report:
        """The report of the identity lhs = rhs at ``cfg``, lhs attained
        from below and ``ratios``, the upper side's measurements over rhs,
        at most one.  Its error is max(|lhs/rhs - 1|, max(ratios) - 1), NaN
        if any term is (np.maximum, unlike max, keeps it), and the largest
        ratio (0.0 for none) joins ``details`` as ``worst_upper_ratio``.
        Every lower side is a float evaluation at an attaining point, so
        ``certified_lower`` holds up to its rounding (a few ulps relative)."""
        worst = float(functools.reduce(np.maximum, ratios, 0.0))
        rel_err = float(np.maximum(abs(lhs / rhs - 1.0), worst - 1.0))
        return cls(claim, lhs, rhs, rel_err, cfg.tol, True, cfg.samples, cfg.seed,
                   {**details, "worst_upper_ratio": worst})

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
    by `_shape`: where each monomial, and on first use each degree-(m-1)
    one after them, reads its factors in a point's power table, the
    partials' index arrays and the sample floor's prefix walk; and the
    monomial tables of points, which maps of one shape share."""

    def __init__(self, d: int, m: int):
        self.d, self.m = d, m
        self.basis = enumerate_multi_indices(d, m)
        self.gather = _gather_index(self.basis, d, m)

    @functools.cached_property
    def lower_gather(self) -> tuple[np.ndarray, ...]:
        lower = _gather_index(enumerate_multi_indices(self.d, self.m - 1), self.d, self.m)
        return _read_only(*map(np.concatenate, zip(self.gather, lower)))

    @functools.cached_property
    def partials(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(mask, idx, alpha_j) for each variable x_j, in order: which
        monomials alpha contain x_j, where alpha - e_j sits in the table
        `monomials` gives with ``lower``, and their exponents of x_j."""
        where = {a: i for i, a in enumerate(enumerate_multi_indices(self.d, self.m - 1))}
        expts = np.array(self.basis, dtype=np.int64)
        partials = []
        for j in range(self.d):
            mask = expts[:, j] > 0
            idx = np.array([len(self.basis) + where[a[:j] + (a[j] - 1,) + a[j + 1:]]
                            for a, keep in zip(self.basis, mask.tolist()) if keep],
                           dtype=np.intp)
            partials.append(_read_only(mask, idx, expts[mask, j]))
        return tuple(partials)

    @functools.cached_property
    def walk(self) -> tuple[tuple[int, int, int, int], ...]:
        return _prefix_walk(self.basis)

    def monomials(self, X: np.ndarray, lower: bool = False) -> np.ndarray:
        """(..., T) degree-m monomial values at the (..., d) points X, read
        from one cumulative power table per point: each is the product over
        the variables in turn of the powers gathered from it, a 1.0 for each
        zero exponent included.  With ``lower`` the T' degree-(m-1) values
        follow in the same rows, read by the same take per variable, so the
        gradient's operands are columns of the value's table.  Point for
        point, so a stack of maps may share one call."""
        powers = np.empty((*X.shape, self.m + 1))
        powers[..., 0] = 1.0
        powers[..., 1] = X
        for a in range(2, self.m + 1):
            np.multiply(powers[..., a - 1], X, out=powers[..., a])
        flat = powers.reshape(*X.shape[:-1], -1)

        def table(gather: tuple[np.ndarray, ...]) -> np.ndarray:
            out = flat.take(gather[0], axis=-1)
            for index in gather[1:]:
                out *= flat.take(index, axis=-1)
            return out
        return table(self.lower_gather if lower else self.gather)

    def floor_monomials(self, X: np.ndarray) -> np.ndarray:
        """The (N, T) table of `monomials` at the many rows of the sample
        floor, equal to it bit for bit, built column by column by the
        prefix walk from one power row per variable and exponent.  The
        floor is the largest operand a pass builds, so the walk holds as
        few rows beside the table as it can: x_j is read from X, x_j^m,
        which only the monomial x_j^m reads, is written straight into its
        column, and a depth-0 path is its factor itself.  A column-major X
        gives each x_j as one contiguous row (`_floor` holds it so)."""
        N, XT, m = X.shape[0], X.T, self.m
        # row a - 2 holds x_j^a for 2 <= a < m; the walk reads no zero exponent
        powers = np.empty((self.d, max(m - 2, 0), N))
        for a in range(2, m):
            np.multiply(powers[:, a - 3] if a > 2 else XT, XT, out=powers[:, a - 2])

        def factor(j: int, a: int) -> np.ndarray:
            return XT[j] if a == 1 else powers[j, a - 2]
        mon = np.empty((N, len(self.basis)))
        # a monomial of k <= min(d, m) factors keeps the paths of depths 1
        # to k - 2, depth i in row i - 1; depth 0 is a factor row itself
        held = np.empty((max(min(self.d, m) - 2, 0), N))
        path = [None] * min(self.d, m)
        for i, j, a, t in self.walk:
            if a == m > 1:
                np.multiply(factor(j, m - 1), XT[j], out=mon[:, t])
            elif t < 0:
                path[i] = np.multiply(path[i - 1], factor(j, a), out=held[i - 1]) if i \
                    else factor(j, a)
            elif i:
                np.multiply(path[i - 1], factor(j, a), out=mon[:, t])
            else:
                mon[:, t] = factor(j, a)
        return mon

    def norms(self, X: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """(B, R) norms |P_b(x)| at the (B, R, d) stack of points X for the
        (B, e, T) stack of coefficients: one monomial table and one stacked
        matmul, each slice of which is the product of one map alone."""
        return _row_norms(self.monomials(X) @ coeffs.transpose(0, 2, 1))


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
    """The steps that build the sample floor's monomial table from shared
    prefix products, to the bits of the per-variable table.

    Monomial alpha is the left-to-right product of x_j^{a_j} over its
    nonzero exponents, the product the per-variable table forms too, whose
    extra factors of 1.0 are exact.  In the basis's descending lex order the
    monomials sharing a prefix of those factors are adjacent, so a
    depth-first walk keeps one product per depth.  Step (i, j, a, t) sets
    depth i to depth i - 1 (nothing at i = 0) times x_j^a, or writes that
    into column t of the table when t >= 0."""
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


def _coefficient_stack(maps: Sequence[PolyMap]) -> tuple[_Shape, np.ndarray]:
    """The shape (d, m) of maps that share it and their (B, e, T)
    coefficients in basis order; every slice is C-ordered, as the matmul
    needs."""
    d, m = maps[0].domain_dim, maps[0].degree
    # power tables have m + 1 columns: the basis cap bounds m only at d >= 2
    if m + 1 > DEFAULT_SIZE_CAP:
        raise CapacityError(f"a degree-{m} map needs power tables of {m + 1} "
                            f"columns, exceeding the size cap {DEFAULT_SIZE_CAP}")
    shape = _shape(d, m)
    coeffs = np.array([[[c.coeffs.get(a, 0.0) for a in shape.basis] for c in P.components]
                       for P in maps], dtype=float)
    if not np.isfinite(coeffs).all():
        raise FieldError("non-finite coefficient in polynomial map")
    return shape, coeffs


def _row_norms(V: np.ndarray) -> np.ndarray:
    return np.sqrt((V * V).sum(axis=-1))


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
    return _read_only(rows, np.ldexp(1.0, np.array([a2 for _, a2 in basis]))[:, None])


def _exponent_spread(P: PolyMap) -> int:
    """Binary orders of magnitude between the largest and the smallest
    nonzero coefficient of P (0 for the zero map)."""
    exps = [math.frexp(c)[1] for comp in P.components for c in comp.coeffs.values()]
    return max(exps) - min(exps) if exps else 0


# 1 + t^2 and t as coefficient series, and the critical points t = +-infinity
_ONE_PLUS_T2, _T = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0])
_AXES = _read_only(np.array([[-1.0, 0.0], [1.0, 0.0]]))[0]


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c without its trailing zeros, keeping its first entry (trimseq)."""
    if c[-1] != 0:
        return c
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if nonzero.size else c[:1]


def _plus(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """c1 + c2, trimmed, as polyadd adds them: the shorter series into the
    longer, which is overwritten.  c1 - c2 is _plus(c1, -c2) bit for bit."""
    if c1.size > c2.size:
        c1, c2 = c2, c1
    c2[:c1.size] += c1
    return _trimmed(c2)


def _circle_points(coeffs: np.ndarray, m: int) -> list[np.ndarray]:
    """All critical points of |P|^2 on the Euclidean circle (d = 2), -e_1
    and e_1 first, for each map of the (B, e, T) stack.

    Parametrize x = ((1-t^2)/(1+t^2), 2t/(1+t^2)); each component becomes
    N_i(t)/(1+t^2)^m and the critical equation of the squared norm is the
    polynomial h = S'(t)(1+t^2) - 4m t S(t) = 0 with S = sum N_i^2.  Each
    map takes the steps of numpy.polynomial without its input checks, to
    the same bits: np.convolve, whose dots run through BLAS, and the
    eigenvalues of the companion matrix, one eigvals per companion size.
    """
    B, e, T = coeffs.shape
    # scaling a map by one power of two leaves its roots alone, and with its
    # largest coefficient below one S cannot overflow
    exps = np.frexp(np.abs(coeffs).reshape(B, -1).max(axis=1, initial=0.0))[1]
    coeffs = np.ldexp(coeffs, -exps[:, None, None])
    rows, scale = _circle_rows(m)
    # N_i is the sum of its terms in basis order; a zero coefficient adds
    # only zeros, and the trailing zeros go when each N_i is trimmed
    N = np.zeros((B, e, rows.shape[1]))
    for r in range(T):
        N += (coeffs[:, :, r, None] * rows[r]) * scale[r]
    roots = [np.empty(0)] * B
    companions: dict[int, list[tuple[int, np.ndarray]]] = {}
    for b in range(B):
        S = np.zeros(1)
        for Ni in map(_trimmed, N[b]):
            S = _plus(S, _trimmed(np.convolve(Ni, Ni)))
        dS = _trimmed(S[1:] * np.arange(1.0, S.size) if S.size > 1 else S[:1] * 0)
        h = _plus(_trimmed(np.convolve(dS, _ONE_PLUS_T2)),
                  -_trimmed((4.0 * m) * _trimmed(np.convolve(_T, S))))
        if h.size > 1 and np.abs(h).max() > 0:
            h = _trimmed(h / np.abs(h).max())
            if h.size > 1:
                companions.setdefault(h.size - 1, []).append((b, h))
    for n, group in companions.items():
        H = np.array([h for _, h in group])
        # ones below the diagonal and -h[:-1]/h[-1] in the last column
        C = np.zeros((len(H), n, n))
        C.reshape(len(H), -1)[:, n::n + 1] = 1
        C[:, :, -1] -= H[:, :-1] / H[:, -1:]
        for (b, _), w in zip(group, np.linalg.eigvals(C)):
            # real when its own imaginary parts are all zero, as for one map
            roots[b] = np.sort(w.real if (w.imag == 0).all() else w)
    heads = []
    for r in roots:
        t = r.real[np.abs(r.imag) < 1e-9 * (1.0 + np.abs(r.real))]
        den = 1.0 + t * t
        head = np.empty((2 + t.size, 2))
        head[:2], head[2:, 0], head[2:, 1] = _AXES, (1.0 - t * t) / den, 2.0 * t / den
        heads.append(head)
    return heads


def _cross_check(shape: _Shape, coeffs: np.ndarray, cfg: NormConfig, tops: np.ndarray,
                 draws: dict) -> None:
    """Random circle points may not beat ``tops``, the picked value of each
    map of the (B, e, T) stack (d = 2).  The circle pass is exhaustive (t =
    infinity is +-e_1), so its pick is the maximum, and the points only
    guard the root-finder; one monomial table serves them, with one stacked
    matmul.  The CROSS_CHECK points are the first draw of a fresh stream,
    the same for every map of a seed, so a call draws them once."""
    if "cross-check" not in draws:
        draws["cross-check"] = _sphere_samples(2, CROSS_CHECK, _np_rng(cfg.seed, "sup-norm-l2-2"))
    V = shape.monomials(draws["cross-check"]) @ coeffs.transpose(0, 2, 1)
    for check, top in zip(_row_norms(V).max(axis=1).tolist(), tops.tolist()):
        if check > top * (1.0 + 1e-9):
            raise AssertionError(
                f"a random circle point reaches {check}, above the circle "
                f"critical-point maximum {top}")


def _gradient(partials: list[tuple[np.ndarray, np.ndarray]], V: np.ndarray,
              tables: np.ndarray) -> np.ndarray:
    """Gradient of f(x) = |P(x)|_2^2 at points given their (..., e) values
    V, their monomial ``tables`` with the lower ones (`monomials` with
    ``lower``) and, for each variable x_j in order, dP/dx_j: where alpha -
    e_j sits in the tables, for each monomial alpha containing x_j, and the
    (e, T_j) coefficients times alpha_j, or a (B, e, T_j) stack of them for
    the (B, R) points of B maps, one matmul slice per map."""
    dV = np.empty((*V.shape[:-1], len(partials), V.shape[-1]))
    for j, (idx, dcoeffs) in enumerate(partials):
        # take, not tables[..., idx], which is F-ordered: the last bits of
        # the matmul follow the layout of its operands
        dV[..., j, :] = tables.take(idx, axis=-1) @ dcoeffs.swapaxes(-1, -2)
    return 2.0 * (V[..., None, :] * dV).sum(axis=-1)


def _ascend(shape: _Shape, coeffs: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Projected gradient ascent on the Euclidean sphere from the (B, R, d)
    rows X, slice b for the map of coefficients coeffs[b], all rows at
    once: the (B, R, d) rows reached and each map's iterations.  One
    monomial table per batch of points, the degree-(m-1) monomials beside
    the degree-m ones, yields the values and the whole gradient; each
    matmul is stacked, each slice the product of one map alone.

    Per-row adaptive step with backtracking: a step is kept only if it
    improves the squared norm; the step then grows, otherwise it shrinks.
    Each map stops by the rule it follows alone, on its own rows, which
    then leave the stack.
    """
    B, R, d = X.shape
    out, iters, stall, live = np.empty((B, R, d)), [0] * B, [0] * B, list(range(B))
    # only the ascent needs the partials, so it builds them, once per stack;
    # each x_j occurs at m >= 1, so every variable has one
    partials = [(idx, coeffs[:, :, mask] * weights) for mask, idx, weights in shape.partials]
    X = X / np.sqrt((X * X).sum(axis=2, keepdims=True))
    T, tables = len(shape.basis), shape.monomials(X, lower=True)
    V = tables[..., :T] @ coeffs.transpose(0, 2, 1)
    f = (V * V).sum(axis=2)
    eta = np.full((B, R), 0.1)
    while live:
        G = _gradient(partials, V, tables)
        # tangential component; near a maximizer it vanishes
        Gt = G - ((G * X).sum(axis=2, keepdims=True)) * X
        cand = X + eta[..., None] * Gt
        cand /= np.sqrt((cand * cand).sum(axis=2, keepdims=True))
        tables_c = shape.monomials(cand, lower=True)
        Vc = tables_c[..., :T] @ coeffs.transpose(0, 2, 1)
        f_new = (Vc * Vc).sum(axis=2)
        better = f_new > f
        rows = better[..., None]
        np.copyto(X, cand, where=rows)
        np.copyto(V, Vc, where=rows)
        # the accepted rows' tables are the next gradient's input
        np.copyto(tables, tables_c, where=rows)
        improvement = np.where(better, f_new - f, 0.0)
        f = np.where(better, f_new, f)
        eta *= np.where(better, 1.3, 0.4)
        rel = improvement.max(axis=1) / np.maximum(f.max(axis=1), 1e-300)
        keep = []
        for b, r, top in zip(live, rel.tolist(), eta.max(axis=1).tolist()):
            stall[b], iters[b] = stall[b] + 1 if r < 1e-16 else 0, iters[b] + 1
            keep.append(not (stall[b] >= 4 or top < 1e-18 or iters[b] == MAX_ASCENT_ITERS))
        if not all(keep):
            out[[b for b, k in zip(live, keep) if not k]] = X[~np.array(keep)]
            live = [b for b, k in zip(live, keep) if k]
            X, V, tables, f, eta, coeffs = (a[keep] for a in (X, V, tables, f, eta, coeffs))
            partials = [(idx, dcoeffs[keep]) for idx, dcoeffs in partials]
    return out, iters


@functools.lru_cache(maxsize=16)
def _signed_basis(d: int) -> np.ndarray:
    """The (2d, d) rows e_1, ..., e_d, -e_1, ..., -e_d, read-only."""
    return _read_only(np.vstack([np.eye(d), -np.eye(d)]))[0]


@functools.lru_cache(maxsize=MAX_CLOSED_FORM_DIM)
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the degree-2 basis x_i x_j, i <= j: its descending lex
    order is the row-major upper triangle."""
    return _read_only(*np.triu_indices(d))


def _form_matrices(c: np.ndarray, d: int) -> np.ndarray:
    """The symmetric M_b with x^T M_b x = sum c_b,alpha x^alpha for each
    row c_b of degree-2 coefficients: a (B, d, d) stack."""
    i, j = _upper_triangle(d)
    M = np.zeros((len(c), d, d))
    M[:, i, j] = np.where(i == j, c, 0.5 * c)
    M[:, j, i] = M[:, i, j]
    return M


def _top_eigenvectors(coeffs: np.ndarray, d: int, m: int) -> np.ndarray:
    """(B, d): for each linear map or quadratic form of the (B, e, T) stack,
    a unit vector at which it attains its norm, up to rounding: the top
    eigenvector of A^T A, or the eigenvector of M whose eigenvalue is
    largest in absolute value.  One eigh runs over the stack, each slice as
    it would alone."""
    if m == 1:
        # degree 1 lists the basis e_1, ..., e_d in order, so each slice is A
        w, V = np.linalg.eigh(coeffs.transpose(0, 2, 1) @ coeffs)
    else:
        w, V = np.linalg.eigh(_form_matrices(coeffs[:, 0], d))
        w = np.abs(w)
    return V[np.arange(len(V)), :, w.argmax(axis=1)]


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
    """Lower-bound estimate, up to float rounding, of the sup norm on the
    unit ball, on the f64 field; see the module docstring for the methods.
    ``extra_starts`` are known good points, projected to the sphere (the
    zero vector is dropped, a non-finite one raises FieldError, and one
    of another length DimensionError before any coefficient is read).  Only
    the search iterates (every other method reports ``iterations == 0``):
    ``cfg.samples`` and ``cfg.restarts`` size it, and ``(samples + 2d)``
    times the monomial count may not exceed MAX_SAMPLE_ENTRIES
    (CapacityError).  Only the closed form carries ``upper``.  A map whose
    largest coefficient is 2^e with |e| > MAX_SCALE_EXP is measured as
    2^-e P and its value scaled back, both exactly; a norm past the
    largest double raises CapacityError.  A stack of one (`sup_norms`),
    so its random draws are its own."""
    return sup_norms([P], cfg, [extra_starts])[0]


def sup_norms(maps: Sequence[PolyMap | HomPoly], cfg: NormConfig = NormConfig(),
              starts: Sequence[Sequence[Sequence[float]]] | None = None) -> list[NormEstimate]:
    """`sup_norm` of each map, in order, ``starts[b]`` the extra starts of
    ``maps[b]`` (none for every map when None).  The maps of each shape
    (d, m, e) are normed as one stack, in the order each shape first
    appears, and each gets the bits it gets alone.  Every map and start is
    checked, as `sup_norm` checks them, before any is normed, and a count
    of start lists other than the count of maps raises DimensionError.
    The call's random draws, its sample floors and cross-check points, sit
    in one dict that its stacks share and that is dropped on return."""
    maps = [PolyMap((P,)) if isinstance(P, HomPoly) else P for P in maps]
    starts = [()] * len(maps) if starts is None else list(starts)
    if len(starts) != len(maps):
        raise DimensionError(f"{len(starts)} lists of extra starts for {len(maps)} maps")
    if any(P.field != F64 for P in maps):
        raise FieldError("sup_norm runs on the f64 field; convert with as_field")
    groups: dict[tuple[int, int, int], list[int]] = {}
    for b, P in enumerate(maps):
        groups.setdefault((P.domain_dim, P.degree, P.codomain_dim), []).append(b)
    stacks = [_stack([maps[b] for b in group], [starts[b] for b in group], cfg)
              for group in groups.values()]
    out: list[NormEstimate] = [None] * len(maps)
    draws: dict = {}
    for group, stack in zip(groups.values(), stacks):
        for b, est in zip(group, _stack_norms(*stack, cfg, draws)):
            out[b] = est
    return out


def _stack(maps: list[PolyMap], extra_starts: list[Sequence[Sequence[float]]],
           cfg: NormConfig) -> tuple[_Shape, np.ndarray, list[str], list[np.ndarray]]:
    """The checked stack of maps of one shape: its `_Shape`, (B, e, T)
    coefficients, each map's method and each map's candidate rows after
    its head, +-e_i and then its extra starts, projected to the sphere
    (only the zero vector is dropped)."""
    d, m, e = maps[0].domain_dim, maps[0].degree, maps[0].codomain_dim
    # each map's method, which `norm` prints and the benchmark counts (the
    # search keeps its name although its samples are now Gaussian); the shape
    # alone decides it for a linear map or a scalar quadratic form, and on R^1
    by_shape = ("closed-form" if 2 <= d <= MAX_CLOSED_FORM_DIM and (m == 1 or (m == 2 and e == 1))
                else "endpoint-enumeration" if d == 1 else None)
    method = [by_shape or ("sobol+gradient-ascent"
                           if d > 2 or _exponent_spread(P) > MAX_CIRCLE_SPREAD
                           else "circle-critical-points") for P in maps]
    points = cfg.samples + 2 * d
    # checked before the coefficients are read, as the exponent and
    # derivative tables alone grow with d times the monomial count
    if "sobol+gradient-ascent" in method and _basis_size_exceeds(
            d, m, MAX_SAMPLE_ENTRIES // points):
        raise CapacityError(
            f"{points} sphere points times C({d + m - 1}, {m}) monomials "
            f"exceed the sample size cap {MAX_SAMPLE_ENTRIES}")
    if bad := [len(s) for group in extra_starts for s in group if len(s) != d]:
        raise DimensionError(f"extra start has length {bad[0]}, expected {d}")
    shape, raw = _coefficient_stack(maps)
    rows = []
    for group in extra_starts:
        units = []
        for s in group:
            v = np.asarray(s, dtype=float)
            if not np.isfinite(v).all():
                raise FieldError("non-finite extra start")
            if v.any():
                units.append(_unit_direction(v)[None, :])
        rows.append(np.vstack([_signed_basis(d), *units]) if units else _signed_basis(d))
    return shape, raw, method, rows


def _padded(rows: list[np.ndarray], d: int) -> np.ndarray:
    """(B, R, d): each map's rows, padded to one length R with copies of its
    last row.  A copy follows the row it copies, so it never wins the pick,
    which takes the first maximum."""
    if all(r is rows[0] for r in rows):
        return np.broadcast_to(rows[0], (len(rows), *rows[0].shape))
    out = np.empty((len(rows), max(map(len, rows)), d))
    for b, r in enumerate(rows):
        out[b, :len(r)], out[b, len(r):] = r, r[-1]
    return out


def _stack_norms(shape: _Shape, raw: np.ndarray, method: list[str], starts: list[np.ndarray],
                 cfg: NormConfig, draws: dict) -> list[NormEstimate]:
    """The estimates of a checked stack (`_stack`), its random draws read
    from the call's ``draws``."""
    d, m = shape.d, shape.m
    # |2^-s P| = 2^-s |P|: far from unit scale the squares of the values
    # would underflow or overflow, so there the map measured is 2^-s P, with
    # s the binary exponent of its largest coefficient
    shifts = np.frexp(np.abs(raw).reshape(len(raw), -1).max(axis=1, initial=0.0))[1]
    shifts[np.abs(shifts) <= MAX_SCALE_EXP] = 0
    coeffs = np.ldexp(raw, -shifts[:, None, None])
    B, iters = len(raw), {}
    circle = [b for b, name in enumerate(method) if name == "circle-critical-points"]
    if method[0] == "closed-form":
        heads = _top_eigenvectors(coeffs, d, m)[:, None]
    elif method[0] == "endpoint-enumeration":
        # no head: the endpoints +-e_1 are the first starts
        heads = np.empty((B, 0, d))
    else:
        ragged = dict(zip(circle, _circle_points(coeffs[circle], m))) if circle else {}
        if search := [b for b, name in enumerate(method) if name == "sobol+gradient-ascent"]:
            found, counts = _search_heads(shape, coeffs[search], cfg, [starts[b] for b in search],
                                          draws)
            ragged.update(zip(search, found))
            iters = dict(zip(search, counts))
        heads = _padded([ragged[b] for b in range(B)], d)

    # one pick for every method, over each map's head and then its starts
    X = np.concatenate([heads, _padded(starts, d)], axis=1)
    vals = shape.norms(X, coeffs)
    best = X[np.arange(B), vals.argmax(axis=1)]
    if circle:
        _cross_check(shape, coeffs[circle], cfg, vals[circle].max(axis=1), draws)

    # renormalize exactly onto the sphere and re-evaluate: the value reported
    # is an evaluation, hence a lower bound up to its rounding
    best = best / np.sqrt((best * best).sum(axis=1))[:, None]
    values = shape.norms(best[:, None], coeffs)[:, 0]
    bounds = _row_norms(np.abs(coeffs).sum(axis=2))
    over = values > bounds * (1.0 + 1e-9) + 1e-300
    if over.any():
        b = int(over.argmax())
        raise AssertionError(
            f"estimate {values[b]} exceeds the coefficient-sum bound {bounds[b]}")
    out = []
    for b, value in enumerate(values.tolist()):
        shift = int(shifts[b])
        try:
            upper = (_certified_upper(raw[b], d, m, value, shift)
                     if method[b] == "closed-form" else None)
            if shift:
                value = math.ldexp(value, shift)
        except OverflowError:
            raise CapacityError(
                f"the sup norm, {value} * 2^{shift}, exceeds the largest double") from None
        out.append(NormEstimate(value, tuple(best[b].tolist()), True, iters.get(b, 0), method[b], upper))
    return out


def _search_heads(shape: _Shape, coeffs: np.ndarray, cfg: NormConfig,
                  starts: list[np.ndarray], draws: dict) -> tuple[list[np.ndarray], list[int]]:
    """The search's head for each map of the (B, e, T) stack, and the
    ascent's iterations: the rows gradient ascent refined from the best
    candidates of the sample floor and the map's ``starts``, then the best
    of those candidates, which the pick keeps only if no refined row is as
    good.  The floor is drawn and tabulated once per call (`_floor`).
    One ascent (`_ascend`) refines the rows of all maps with as many rows,
    which is every map unless the floor and starts number under
    cfg.restarts: a matmul's last bits follow its row count, so no map's
    rows are padded."""
    seeds, tops, groups = [], [], {}
    for b, (c, s) in enumerate(zip(coeffs, starts)):
        X, mon = _floor(draws, shape, cfg, s)
        vals = _row_norms(mon @ c.T)
        # copied out, as the next map's starts overwrite the floor's tail
        seeds.append(X[np.argsort(vals)[::-1][:cfg.restarts]])
        tops.append(X[[vals.argmax()]])
        groups.setdefault(len(seeds[b]), []).append(b)
    heads, iters = [None] * len(coeffs), [0] * len(coeffs)
    for group in groups.values():
        refined, counts = _ascend(shape, coeffs[group], np.array([seeds[b] for b in group]))
        for b, rows, n in zip(group, refined, counts):
            heads[b], iters[b] = np.vstack([rows, tops[b]]), n
    return heads, iters


def _floor(draws: dict, shape: _Shape, cfg: NormConfig,
           starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the sample floor and then ``starts``, and their monomial
    table, as one (N + s, d) and one (N + s, T) operand.

    The floor, cfg.samples points uniform on the sphere, is the first draw
    of a fresh stream, so within one call, whose cfg is one, its points
    depend on d alone and their table on m too: both are made, the table
    by the prefix walk, on the call's first search of shape (d, m), and
    read from the call's ``draws`` after, where only the tail rows are
    rewritten for the starts.  Both are held for the most starts seen at
    the shape, as the maps of one call may bring different numbers, and a
    search reads the (N + s)-row prefix, which a C-ordered table gives the
    matmul as a fresh one.  A table row is its point's alone, so a held
    row has the bits a fresh table would give it.  The points are held
    column by column, so that the prefix walk reads each coordinate as one
    contiguous row; the rows the search takes from them are copied out
    C-ordered, as fancy indexing gives them."""
    key = (shape.d, shape.m)
    N, n = cfg.samples, cfg.samples + len(starts)
    if key not in draws:
        rng = _np_rng(cfg.seed, f"sup-norm-l2-{shape.d}")
        X = _by_columns(_sphere_samples(shape.d, N, rng), starts)
        draws[key] = X, shape.floor_monomials(X)
        return draws[key]
    X, mon = draws[key]
    if len(X) < n:
        # more starts than ever at this shape: the floor moves to taller operands
        X = _by_columns(X[:N], starts)
        mon = np.vstack([mon[:N], np.empty((len(starts), mon.shape[1]))])
        draws[key] = X, mon
    X, mon = X[:n], mon[:n]
    X[N:] = starts
    mon[N:] = shape.floor_monomials(starts)
    return X, mon


def _by_columns(points: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The rows of ``points`` and then of ``starts`` as one column-major
    (N + s, d) array."""
    XT = np.empty((points.shape[1], len(points) + len(starts)))
    XT[:, :len(points)], XT[:, len(points):] = points.T, starts.T
    return XT.T


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


def _unit_direction(v: np.ndarray) -> np.ndarray:
    """v/|v| for a finite nonzero v of any size, which is first brought to
    unit scale as 2^-e v, with 2^e its largest entry, exactly."""
    v = np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])
    return v / vector_norm(v)


def norming_functional(y: Sequence) -> HomPoly:
    """The inner product with y/|y| (`_unit_direction`): a linear functional
    of dual norm one with phi(y) = |y|."""
    v = np.asarray(y, dtype=float)
    if not v.any():
        raise DegenerateInputError("cannot norm the zero vector")
    return HomPoly.linear_form([float(c) for c in _unit_direction(v)], F64)


def _normal_power(base: float, power: int, name: str) -> float:
    """base^power, the target of a norm identity, which must be a normal
    double: past the largest (an OverflowError counts as inf) or below the
    smallest normal one, where it keeps too few bits, CapacityError."""
    try:
        target = base ** power
    except OverflowError:
        target = math.inf
    if not sys.float_info.min <= target <= sys.float_info.max:
        raise CapacityError(f"{name} = ({base!r})^{power} does not fit a double")
    return target


def _point_target(x: Sequence, power: int, name: str) -> tuple[list[float], float, float]:
    """x as floats, |x| and the target |x|^power (`_normal_power`); x must
    be finite (FieldError) and nonzero (DegenerateInputError)."""
    xv = [float(v) for v in x]
    if not np.isfinite(xv).all():
        raise FieldError("x must be finite")
    nx = vector_norm(xv)
    if nx == 0.0:
        raise DegenerateInputError("x must be nonzero")
    return xv, nx, _normal_power(nx, power, name)


def check_norm_duality(instances: Iterable[tuple[Sequence, int]],
                       cfg: NormConfig = NormConfig()) -> list[Report]:
    """The report of each instance (x, m), in order: |x|^m is attained by
    the m-th power of a norming functional, and that power has sup norm at
    most one, the bracket's one upper ratio.  DegreeError unless m >= 1;
    CapacityError when |x|^m is not a normal double; every instance is
    checked before any sup norm runs.  The powers are normed in one
    `sup_norms` call, each handed its unit point."""
    checked = []
    for x, m in instances:
        if m < 1:
            raise DegreeError(f"the duality needs m >= 1, got m={m}")
        xv, nx, target = _point_target(x, m, f"|x|^{m}")
        checked.append((xv, m, target, norming_functional(xv) ** m,
                        (np.asarray(xv) / nx).tolist()))
    ests = sup_norms([q for *_, q, _ in checked], cfg, [[unit] for *_, unit in checked])
    return [Report.bracket("norm_duality", cfg, abs(q.eval(xv)), target, [est.value],
                           {"degree": m})
            for (xv, m, target, q, _), est in zip(checked, ests)]


def _unit_trials(rng: np.random.Generator, d: int, k: int, q_trials: int,
                 cfg: NormConfig) -> tuple[HomPoly, ...]:
    """One stream of upper-side trials: q_trials random degree-k polynomials
    on R^d, all drawn from rng first, in order, normed in one `sup_norms`
    call and each scaled to sup norm one (those below 1e-12 are skipped).
    A stream depends on the seed and label of rng, on d, k and q_trials
    and, through the norming, on cfg; not on the instance measured against
    it, so the instances of one check that draw on one label share it."""
    qs = [_random_hompoly_f64(rng, d, k) for _ in range(q_trials)]
    return tuple(q.scale(1.0 / est.value) for q, est in zip(qs, sup_norms(qs, cfg))
                 if not est.value < 1e-12)


def check_adjoint_norm(instances: Iterable[tuple[PolyMap, int, int]],
                       cfg: NormConfig = NormConfig(),
                       q_trials: int = ADJOINT_Q_TRIALS) -> list[Report]:
    """The report of each instance (P, n, k), in order: the adjoint's norm
    equals |P|^{kn}, certified from below by the k-th power of a functional
    norming P at its maximizer, and never exceeded on normalized random test
    polynomials.  n and k of every instance, and q_trials, are checked
    before any sup norm runs; CapacityError, once P is normed, when
    |P|^{kn} is not a normal double.  The instances on one stream of trials,
    one per (n, k) and codomain of P, share its unit trials (`_unit_trials`);
    P, its lower side and the images of the trials are normed instance by
    instance."""
    instances = list(instances)
    for _, n, k in instances:
        if n < 1 or k < 1:
            raise DegreeError(f"adjoint parameters must be >= 1, got n={n}, k={k}")
    # with no trial, the bracket would pass on its lower side alone
    if q_trials < 1:
        raise PreconditionError(f"q_trials must be >= 1, got {q_trials}")
    streams, reports = {}, []
    # P and its lower side go through sup_norm, whose calls perfbench's
    # tracer counts; one stack of every instance's trial images would hold
    # a larger circle cross-check table and gave no time back
    for P, n, k in instances:
        P = P.as_field(F64)
        est = sup_norm(P, cfg)
        if est.value <= 0.0:
            raise DegenerateInputError("zero map has no norming direction")
        target = _normal_power(est.value, k * n, f"the adjoint's norm |P|^{k * n}")
        q_star = norming_functional(P.eval_map(est.maximizer)) ** k
        lower = sup_norm(adjoint_apply(P, n, k, q_star), cfg, [est.maximizer]).value
        label, e = f"adjoint-norm-q-{n}-{k}", P.codomain_dim
        if (label, e) not in streams:
            streams[label, e] = _unit_trials(_np_rng(cfg.seed, label), e, k, q_trials, cfg)
        unit = streams[label, e]
        trials = sup_norms([adjoint_apply(P, n, k, q) for q in unit], cfg)
        reports.append(Report.bracket(
            "adjoint_norm", cfg, lower, target, (trial.value / target for trial in trials),
            {"sup_norm_P": est.value, "q_instances": len(unit), "n": n, "k": k}))
    return reports


def check_embedding_norm(instances: Iterable[tuple[Sequence, int, int]],
                         cfg: NormConfig = NormConfig(), q_trials: int = 32) -> list[Report]:
    """The report of each instance (x, m, n), in order: the power evaluation
    embedding of x has norm |x|^{mn}, attained by the n-th power of a
    norming functional of x and never exceeded by normalized random q.
    q_trials >= 1 (PreconditionError), and every x, its target and its
    embedding are checked before any sup norm runs; CapacityError when
    |x|^{mn} is not a normal double.  The instances on one stream of
    trials, one per (m, n) and dimension of x, share its unit trials, each
    cleared once to its integer point (r, X), the vector X / r, where every
    such embedding is evaluated."""
    if q_trials < 1:
        raise PreconditionError(f"q_trials must be >= 1, got {q_trials}")
    checked = []
    for x, m, n in instances:
        xv, _, target = _point_target(x, m * n, f"the embedding's norm |x|^{m * n}")
        checked.append((xv, n, target, evaluation_embedding(xv, m, n, field=F64),
                        f"embedding-norm-q-{m}-{n}-{len(xv)}", {"m": m, "n": n}))
    points = {}
    for xv, n, _, _, label, _ in checked:
        if label not in points:
            points[label] = [_cleared(q.coeff_vector(), F64) for q in _unit_trials(
                _np_rng(cfg.seed, label), len(xv), n, q_trials, cfg)]
    return [Report.bracket("embedding_norm", cfg,
                           abs(jp.eval((norming_functional(xv) ** n).coeff_vector())), target,
                           (abs(jp._value(_numerator(jp._terms[1], X, {}), r)) / target
                            for r, X in points[label]), details)
            for xv, n, target, jp, label, details in checked]


def check_metric_injection(instances: Iterable[tuple[PolyMap, HomPoly]],
                           cfg: NormConfig = NormConfig()) -> list[Report]:
    """The report of each instance (proj, q), in order: precomposition with
    a surjection that maps the ball onto the ball preserves the sup norm;
    here the surjection is a matrix with orthonormal rows acting between
    Euclidean balls.  Every instance is checked before any sup norm runs;
    then each q and each q(proj x) are normed in one `sup_norms` call, and
    CapacityError unless each |q| is normal.  No search is handed a start,
    so the norm of q(proj x) is measured against a value it was not given."""
    checked = []
    for proj, q in instances:
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
        if q.is_zero:
            raise DegenerateInputError("q is zero")
        checked.append((q, compose_scalar(q, proj), {"domain_dim": g, "codomain_dim": e,
                                                     "k": q.degree}))
    ests = iter(sup_norms([M for q, pulled, _ in checked for M in (q, pulled)], cfg))
    reports = []
    for (_, _, details), qn, pulled in zip(checked, ests, ests):
        rhs = _normal_power(qn.value, 1, "the sup norm of q")
        # the ratio's excess over one adds nothing to |lhs/rhs - 1|
        reports.append(Report.bracket("metric_injection", cfg, pulled.value, rhs,
                                      [pulled.value / rhs], details))
    return reports
