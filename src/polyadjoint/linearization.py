"""Symmetric tensor powers and the exact matrix view of the linear-case
adjoint.

The k-th symmetric tensor power of R^d is coordinatized by the monomial
basis: the tensor power of a vector x has coordinate x^alpha at the
multi-index alpha, so pairing a degree-k polynomial's coefficient vector
with those coordinates by a plain dot product evaluates the polynomial.
A coefficient space and its tensor-power model therefore share one basis,
and no relabeling between them is needed.

A ``LinearMap`` is exact and stores integers over one common denominator,
as a rational ``HomPoly`` does; ``coefficient_matrix`` is the one builder
of a matrix from polynomials.  With P of degree m from R^d to R^e, k >= 1:

* ``linearization_matrix(P, k)``, the coefficient matrix of (P^beta)_beta,
  sends the mk-th tensor power of x to the k-th tensor power of P(x);
* ``adjoint_matrix(P, k)``, the transpose of the coefficient matrix of
  (x^beta o P)_beta, sends the coefficient vector of a degree-k q on R^e to
  that of q o P on R^d.

``transpose_identity_defect`` checks that they are transposes of each other.

``_eliminate`` is the one elimination: rank, inverse, the finite-type
representation and the sampler's full-rank test all run it on integer
rows, and only their results are turned into Fractions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

from .algebra import (
    RATIONAL,
    HomPoly,
    PolyMap,
    _built,
    _cleared,
    _common_denominator,
    _eval_monomial,
    compose_scalar,
    enumerate_multi_indices,
    map_powers,
)
from .errors import DimensionError, FieldError, SingularMatrixError


def tensor_power(x: Sequence, k: int) -> list:
    """Coordinates of the k-th tensor power of x: x^alpha at each alpha, in
    canonical order, in the arithmetic of x's entries (exact for ints and
    Fractions)."""
    if k < 1:
        raise DimensionError(f"tensor order must be >= 1, got {k}")
    return [_eval_monomial(alpha, x) for alpha in enumerate_multi_indices(len(x), k)]


def _eliminate(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan (after Bareiss, Math. Comp. 22, 1968) on
    integer rows: a row is reduced against the pivot row as
    ``row*pv - f*pivot_row`` and then divided by its content, so every row
    stays a nonzero rational multiple of the row that Fraction elimination
    would hold.  Returns the integer rows, pivot rows first, and the
    (leftmost) pivot columns; pivot row i divided by its pivot, which may be
    negative, is row i of the reduced echelon form."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(a):
            break
        pr = next((r for r in range(row, len(a)) if a[r][col]), None)
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        prow = a[row]
        pv = prow[col]
        for r in range(len(a)):
            f = a[r][col]
            if r != row and f:
                ints = [v * pv - f * w for v, w in zip(a[r], prow)]
                g = math.gcd(*ints) or 1
                a[r] = [v // g for v in ints]
        pivots.append(col)
    return a, pivots


def _matrix(den: int, rows: Sequence[Sequence[int]]) -> LinearMap:
    """The matrix rows[i][j] / den (den > 0), built without re-validation,
    over the least common denominator."""
    rows = tuple(map(tuple, rows))
    g = math.gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den //= g
        rows = tuple(tuple(v // g for v in r) for r in rows)
    self = object.__new__(LinearMap)
    self.__dict__["_rows"] = (den, rows)
    return self


@dataclass(frozen=True)
class LinearMap:
    """Dense exact matrix; rows and columns follow the canonical monomial
    order of the spaces it maps between.  Every operation reads ``_rows =
    (D, integer rows)``, D the least common denominator; ``entries`` holds
    the ints and Fractions given or, for a computed matrix (``_matrix``),
    Fractions built on first read."""

    entries: tuple[tuple[Fraction | int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and column")
        ncol = len(rows[0])
        if any(len(r) != ncol for r in rows):
            raise DimensionError("ragged matrix")
        # a bool is an int but not a number anyone meant
        kinds = set(map(type, chain.from_iterable(rows)))
        if not kinds <= {int, Fraction}:
            bad = sorted(k.__name__ for k in kinds - {int, Fraction})
            raise FieldError(f"matrix entries must be int or Fraction, got {', '.join(bad)}")
        den, flat = _common_denominator(chain.from_iterable(rows))
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_rows", (den, tuple(
            tuple(flat[i:i + ncol]) for i in range(0, len(flat), ncol))))

    def __getattr__(self, name: str):
        """Build the ``entries`` view of a matrix made by ``_matrix``, the
        one attribute that can be missing, from its integer form, once."""
        rows = self.__dict__.get("_rows")
        if name != "entries" or rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, ints = rows
        entries = tuple(tuple(Fraction(v, den) for v in r) for r in ints)
        self.__dict__["entries"] = entries
        return entries

    @property
    def rows(self) -> int:
        return len(self._rows[1])

    @property
    def cols(self) -> int:
        return len(self._rows[1][0])

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self._rows[1]))

    def max_abs(self) -> Fraction:
        den, rows = self._rows
        return Fraction(max(abs(v) for r in rows for v in r), den)

    @classmethod
    def identity(cls, n: int) -> LinearMap:
        if n < 1:
            raise DimensionError("matrix must have at least one row and column")
        return _matrix(1, [[int(i == j) for j in range(n)] for i in range(n)])

    def transpose(self) -> LinearMap:
        den, rows = self._rows
        return _matrix(den, zip(*rows))

    def __matmul__(self, other: LinearMap) -> LinearMap:
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (d1, a), (d2, b) = self._rows, other._rows
        columns = list(zip(*b))
        return _matrix(d1 * d2, [[sum(map(mul, r, c)) for c in columns] for r in a])

    def __sub__(self, other: LinearMap) -> LinearMap:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ")
        (d1, a), (d2, b) = self._rows, other._rows
        return _matrix(d1 * d2, [[d2 * v - d1 * w for v, w in zip(ra, rb)]
                                 for ra, rb in zip(a, b)])

    def apply(self, vec: Sequence) -> list[Fraction]:
        """With vec = X / r of ints and Fractions, entry i is row_i . X / (D r)."""
        if len(vec) != self.cols:
            raise DimensionError(f"vector length {len(vec)} != {self.cols} columns")
        den, rows = self._rows
        r, X = _cleared(vec, RATIONAL)
        return [Fraction(sum(map(mul, row, X)), den * r) for row in rows]

    def rank(self) -> int:
        return len(_eliminate(self._rows[1], self.cols)[1])

    def inverse(self) -> LinearMap:
        """A^-1 = D (A_int)^-1, read off the elimination of [A_int | I]."""
        if self.rows != self.cols:
            raise DimensionError("only square matrices can be inverted")
        n = self.rows
        den, rows = self._rows
        a, pivots = _eliminate([list(r) + [int(i == j) for j in range(n)]
                                for i, r in enumerate(rows)], n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        # pivot row i is its pivot times row i of [I | (A_int)^-1]
        lcd = math.lcm(*(r[i] for i, r in enumerate(a)))
        return _matrix(lcd, [[den * (lcd // r[i]) * v for v in r[n:]] for i, r in enumerate(a)])


def linearize(q: HomPoly) -> LinearMap:
    """Covector pairing tensor-power coordinates to the value of q."""
    return coefficient_matrix(PolyMap((q,)))


def relabeling_map(d: int, k: int) -> LinearMap:
    """Explicit identity between a degree-k coefficient space on R^d and its
    tensor-power model (the identity under monomial coordinates)."""
    return LinearMap.identity(len(enumerate_multi_indices(d, k)))


def linearization_matrix(P: PolyMap, k: int) -> LinearMap:
    """Matrix taking order-mk tensor coordinates on the domain to the
    order-k tensor coordinates of P(x); rows indexed by codomain
    multi-indices beta (row beta holds the coefficients of P^beta), columns
    by domain multi-indices gamma."""
    if k < 1:
        raise DimensionError(f"k must be >= 1, got {k}")
    betas = enumerate_multi_indices(P.codomain_dim, k)
    # the size cap of the domain basis is checked before any product is built
    enumerate_multi_indices(P.domain_dim, P.degree * k)
    return coefficient_matrix(PolyMap(tuple(map_powers(P, betas))))


def adjoint_matrix(P: PolyMap, k: int) -> LinearMap:
    """Matrix of q |-> q o P on coefficient vectors, for degree-k q: columns
    indexed by the codomain monomials beta, rows by the domain monomials of
    degree mk."""
    if k < 1:
        raise DimensionError(f"k must be >= 1, got {k}")
    betas = enumerate_multi_indices(P.codomain_dim, k)
    enumerate_multi_indices(P.domain_dim, P.degree * k)
    images = tuple(compose_scalar(_built(P.codomain_dim, k, {beta: 1}, RATIONAL), P)
                   for beta in betas)
    return coefficient_matrix(PolyMap(images)).transpose()


def transpose_identity_defect(P: PolyMap, k: int) -> LinearMap:
    """Defect of: adjoint matrix == (linearization matrix)^T; zero exactly,
    since both hold the coefficients of the P^beta in the shared basis."""
    return adjoint_matrix(P, k) - linearization_matrix(P, k).transpose()


def coefficient_matrix(P: PolyMap) -> LinearMap:
    """e x C(d+m-1, m) matrix of component coefficient vectors, read from
    their integer forms; FieldError for an f64 map."""
    if P.field != RATIONAL:
        raise FieldError("matrices are exact only; convert the map to rational first")
    basis = enumerate_multi_indices(P.domain_dim, P.degree)
    terms = [c._terms for c in P.components]
    den = math.lcm(*(d for d, _ in terms))
    return _matrix(den, [[den // d * nums.get(a, 0) for a in basis] for d, nums in terms])


def map_rank(P: PolyMap) -> int:
    """Rank of the coefficient matrix = dimension of the span of P's values."""
    return coefficient_matrix(P).rank()


def adjoint_rank_bound(P: PolyMap, k: int) -> int:
    """C(rank(P)+k-1, k): the rank of adjoint_matrix(P, k) never exceeds this."""
    r = map_rank(P)
    return math.comb(r + k - 1, k)
