"""Symmetric tensor powers and the matrix view of the linear-case adjoint.

The k-th symmetric tensor power of R^d is coordinatized by the monomial
basis: the tensor power of a vector x has coordinate x^alpha at the
multi-index alpha, so pairing a degree-k polynomial's coefficient vector
with those coordinates by a plain dot product evaluates the polynomial.
A coefficient space and its tensor-power model therefore share one basis,
and no relabeling between them is needed.

Degree counting for the two matrices built here, with P of degree m from
R^d to R^e and k >= 1:

* ``linearization_matrix(P, k)`` is the matrix L with
  L . (coords of the mk-th tensor power of x) = coords of the k-th tensor
  power of P(x) — the linearization of the composed-power map.
* ``adjoint_matrix(P, k)`` sends the coefficient vector of a degree-k
  polynomial q on R^e to the coefficient vector of q o P on R^d.

The transpose identity checked by ``transpose_identity_defect`` says these
two matrices are transposes of each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .algebra import (
    RATIONAL,
    HomPoly,
    PolyMap,
    Scalar,
    _common_denominator,
    _eval_monomial,
    compose_scalar,
    enumerate_multi_indices,
    infer_field,
    map_powers,
)
from .errors import DimensionError, FieldError, SingularMatrixError


def tensor_power(x: Sequence, k: int, field: str | None = None) -> list[Scalar]:
    """Coordinates of the k-th tensor power of x: x^alpha at each alpha, in
    canonical order."""
    if k < 1:
        raise DimensionError(f"tensor order must be >= 1, got {k}")
    if field is None:
        field = infer_field(x)
    coords = [_eval_monomial(alpha, x) for alpha in enumerate_multi_indices(len(x), k)]
    return coords if field == RATIONAL else [float(v) for v in coords]


def _eliminate(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan (after Bareiss, Math. Comp. 22, 1968) on
    rational rows: each row is cleared of denominators, a row is reduced
    against the pivot row as ``row*pv - f*pivot_row`` and then divided by its
    content, so every row stays a nonzero rational multiple of the row that
    Fraction elimination would hold.  Returns the integer rows, pivot rows
    first, and the pivot columns."""
    a: list[list[int]] = []
    for r in rows:
        _, ints = _common_denominator(r)
        g = math.gcd(*ints) or 1
        a.append([v // g for v in ints])
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


def rref(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over the first ``ncols`` columns with
    leftmost pivots: the reduced pivot rows and the pivot columns.  The rows
    hold rationals (ints or Fractions) and may carry further (augmented)
    columns; the rows below the pivots, zero in the first ``ncols`` columns,
    are not returned.

    The elimination runs on integers (``_eliminate``), and each pivot row is
    divided by its pivot only when it is returned, so the output equals the
    pivot rows of Fraction elimination row for row."""
    a, pivots = _eliminate(rows, ncols)
    return [[Fraction(v, a[i][c]) for v in a[i]] for i, c in enumerate(pivots)], pivots


@dataclass(frozen=True)
class LinearMap:
    """Dense matrix; rows and columns follow the canonical monomial order of
    the spaces it maps between."""

    entries: tuple[tuple[Scalar, ...], ...]
    field: str = RATIONAL

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and column")
        ncol = len(rows[0])
        if any(len(r) != ncol for r in rows):
            raise DimensionError("ragged matrix")
        if self.field == RATIONAL:
            # exact elimination reads numerators and denominators; a bool
            # is an int but not a number anyone meant
            kinds = set(map(type, chain.from_iterable(rows)))
            if not kinds <= {int, Fraction}:
                bad = sorted(k.__name__ for k in kinds - {int, Fraction})
                raise FieldError(f"rational matrix entries must be int or Fraction, "
                                 f"got {', '.join(bad)}")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for r in self.entries for v in r)

    def max_abs(self) -> Scalar:
        return max(abs(v) for r in self.entries for v in r)

    @classmethod
    def identity(cls, n: int, field: str = RATIONAL) -> LinearMap:
        one = Fraction(1) if field == RATIONAL else 1.0
        zero = Fraction(0) if field == RATIONAL else 0.0
        ent = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls(ent, field)

    def transpose(self) -> LinearMap:
        ent = tuple(tuple(self.entries[i][j] for i in range(self.rows))
                    for j in range(self.cols))
        return LinearMap(ent, self.field)

    def __matmul__(self, other: LinearMap) -> LinearMap:
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.field != other.field:
            raise FieldError("mixed-field matrix product")
        ent = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows))
        return LinearMap(ent, self.field)

    def __sub__(self, other: LinearMap) -> LinearMap:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shapes differ")
        ent = tuple(tuple(a - b for a, b in zip(ra, rb))
                    for ra, rb in zip(self.entries, other.entries))
        return LinearMap(ent, self.field)

    def apply(self, vec: Sequence) -> list[Scalar]:
        if len(vec) != self.cols:
            raise DimensionError(f"vector length {len(vec)} != {self.cols} columns")
        return [sum(r[j] * vec[j] for j in range(self.cols)) for r in self.entries]

    # -- exact elimination (rational field) ----------------------------
    def _require_rational(self) -> None:
        if self.field != RATIONAL:
            raise FieldError("exact elimination needs the rational field")

    def rank(self) -> int:
        self._require_rational()
        return len(_eliminate(self.entries, self.cols)[1])

    def inverse(self) -> LinearMap:
        self._require_rational()
        if self.rows != self.cols:
            raise DimensionError("only square matrices can be inverted")
        n = self.rows
        augmented = [list(r) + [Fraction(int(i == j)) for j in range(n)]
                     for i, r in enumerate(self.entries)]
        a, pivots = rref(augmented, n)
        if len(pivots) < n:
            raise SingularMatrixError("matrix is singular")
        ent = tuple(tuple(r[n:]) for r in a)
        return LinearMap(ent, RATIONAL)


def linearize(q: HomPoly) -> LinearMap:
    """Covector pairing tensor-power coordinates to the value of q."""
    return LinearMap((tuple(q.coeff_vector()),), q.field)


def relabeling_map(d: int, k: int, field: str = RATIONAL) -> LinearMap:
    """Explicit identity between a degree-k coefficient space on R^d and its
    tensor-power model (the identity under monomial coordinates)."""
    return LinearMap.identity(len(enumerate_multi_indices(d, k)), field)


def linearization_matrix(P: PolyMap, k: int) -> LinearMap:
    """Matrix taking order-mk tensor coordinates on the domain to the
    order-k tensor coordinates of P(x); rows indexed by codomain
    multi-indices beta (row beta holds the coefficients of P^beta), columns
    by domain multi-indices gamma."""
    if k < 1:
        raise DimensionError(f"k must be >= 1, got {k}")
    row_basis = enumerate_multi_indices(P.codomain_dim, k)
    col_basis = enumerate_multi_indices(P.domain_dim, P.degree * k)
    rows = tuple(tuple(prod.coefficient(g) for g in col_basis)
                 for prod in map_powers(P, row_basis))
    return LinearMap(rows, P.field)


def adjoint_matrix(P: PolyMap, k: int) -> LinearMap:
    """Matrix of q |-> q o P on coefficient vectors, for degree-k q.

    Columns are indexed by the codomain monomials beta (the basis of the
    q-space), rows by the domain monomials of degree mk.
    """
    if k < 1:
        raise DimensionError(f"k must be >= 1, got {k}")
    e = P.codomain_dim
    col_basis = enumerate_multi_indices(e, k)
    row_basis = enumerate_multi_indices(P.domain_dim, P.degree * k)
    cols = []
    for beta in col_basis:
        image = compose_scalar(HomPoly.monomial(e, beta, 1, P.field), P)
        cols.append([image.coefficient(g) for g in row_basis])
    ent = tuple(tuple(cols[j][i] for j in range(len(col_basis)))
                for i in range(len(row_basis)))
    return LinearMap(ent, P.field)


def transpose_identity_defect(P: PolyMap, k: int) -> LinearMap:
    """Defect of: adjoint matrix == (linearization matrix)^T.

    Zero exactly for every P and k, since both matrices hold the
    coefficients of the P^beta in the shared monomial basis.
    """
    return adjoint_matrix(P, k) - linearization_matrix(P, k).transpose()


def coefficient_matrix(P: PolyMap) -> LinearMap:
    """e x C(d+m-1, m) matrix of component coefficient vectors."""
    basis = enumerate_multi_indices(P.domain_dim, P.degree)
    ent = tuple(tuple(c.coefficient(a) for a in basis) for c in P.components)
    return LinearMap(ent, P.field)


def map_rank(P: PolyMap) -> int:
    """Rank of the coefficient matrix = dimension of the span of P's values."""
    return coefficient_matrix(P).rank()


def adjoint_rank_bound(P: PolyMap, k: int) -> int:
    """C(rank(P)+k-1, k): the rank of adjoint_matrix(P, k) never exceeds this."""
    r = map_rank(P)
    return math.comb(r + k - 1, k)
