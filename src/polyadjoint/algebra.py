"""Exact arithmetic for homogeneous polynomials in several real variables.

Representation
--------------
A homogeneous polynomial of degree m on R^d is stored sparsely as a dict
mapping multi-indices (length-d tuples of non-negative ints summing to m) to
coefficients.  Coefficients are `fractions.Fraction` under the "rational"
field tag and `float` under "f64"; the tag travels with every object and
mixed-field operations are rejected.  Zero coefficients are dropped on
construction, so equality of the dicts is equality of polynomials.

Every polynomial holds its integer form ``_terms = (D, {alpha: c*D})``, D
the least common denominator of its coefficients; the form is canonical
(zeros dropped, D least), so equal forms are equal polynomials.  A double
is a dyadic rational, so an f64 polynomial built from doubles has a power
of two for D.  Sums, products, scaling, composition, evaluation,
``is_zero`` and ``==`` read the integer form alone, with one code path for
both fields, and are exact on both: an f64 result is exact until it is
read.  ``coeffs`` is a view of that form, built on first read and then
cached: for rational, the dict of Fractions, so a product that is only
composed, evaluated, compared or folded into a defect never builds a
Fraction; for f64, each coefficient n/D rounded once to the nearest double.
That rounding, like the one of an f64 value of ``eval``, ``max_abs`` or
``SymForm.apply``, refuses what does not fit a double: a value past the
largest double, or a nonzero one that rounds to 0.0, raises CapacityError.
There are two constructors: the public ``HomPoly(...)`` checks every index
and coefficient (an f64 one must be a finite double), and ``_built`` stores
what the algebra computes from validated operands without re-checking it.

The canonical basis order everywhere is descending lexicographic on the
exponent tuples — e.g. for d=2, m=2: (2,0), (1,1), (0,2) — and the
coefficient-vector helpers read and write that order.  Each basis is built
once per shape (d, m) and kept; every caller gets a list of its own.

A product of degree m on R^d is one big-integer multiplication (Kronecker
substitution).  The monomial alpha goes to the slot
sum_{i<d-1} alpha_i (m+1)^(d-2-i); the last exponent follows from
homogeneity, and no exponent exceeds m, so slots add without carries.  Every
product coefficient is at most N = |v1|_1 * |v2|_1 in absolute value, so a
slot of w = 8 * ceil((bitlen(N) + 1) / 8) bits holds it signed.  Each
operand's numerators are packed into one int, the two are multiplied,
2^(w-1) is added to every slot so that each is non-negative, and only the
slots of the product's basis are read back, in canonical order.  Two kinds of
product keep the pair-by-pair loop: a shape whose slot box (m+1)^(d-1)
exceeds 8 times the basis C(d+m-1, m) (every d >= 6, and d = 5 from m = 4;
every d <= 4 packs), and a product with fewer than two term pairs per basis
monomial.

A polynomial map R^d -> R^e is a tuple of e scalar polynomials sharing
domain dimension, degree and field.  ``eval_map`` clears a point once for
the whole map and computes each monomial x^alpha once for all components,
with the numerator routine ``eval`` uses.  Every substituted monomial P^beta
that composition and the adjoint build comes from ``map_powers``, which
keeps them in a memo on the map: each is built once per map, the memo lives
and dies with its map, and every caller gets the same (immutable) component
objects.  A symmetric m-linear form is stored by its entries on sorted index
tuples i_1 <= ... <= i_m; `polarize` produces the unique symmetric form
whose diagonal restriction recovers the polynomial.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul
from typing import Collection, Iterable, Iterator, Sequence

from .errors import CapacityError, DegreeError, DimensionError, FieldError

RATIONAL = "rational"
F64 = "f64"
FIELDS = (RATIONAL, F64)

MultiIndex = tuple[int, ...]
Scalar = Fraction | float

DEFAULT_SIZE_CAP = 3003  # C(14, 6); largest monomial basis ever built

_ZERO = {RATIONAL: Fraction(0), F64: 0.0}
_RATIONALS = (int, Fraction)


def _coerce(value, field: str) -> Scalar:
    if field == RATIONAL:
        if type(value) is Fraction:
            return value
        if isinstance(value, float):
            raise FieldError("float coefficient given for the rational field")
        return Fraction(value)
    if field == F64:
        return _finite_f64(value)
    raise FieldError(f"unknown field {field!r}")


def _finite_f64(value) -> float:
    """float(value); FieldError when that is not a finite double."""
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise FieldError(f"{value!r} is not a finite f64 value")
    return out


def _check_field(field: str) -> None:
    if field not in FIELDS:
        raise FieldError(f"unknown field {field!r}")


def infer_field(values: Iterable) -> str:
    """'f64' if any value is a float, else 'rational'."""
    return F64 if any(isinstance(v, float) for v in values) else RATIONAL


def _basis_size_exceeds(d: int, m: int, cap: int) -> bool:
    """C(d+m-1, m) > cap, without computing a huge binomial: C(n, i) grows
    with i up to i = min(m, d-1) <= n/2, so the product can stop as soon as
    it passes the cap."""
    n, c = d + m - 1, 1
    for i in range(1, min(m, d - 1) + 1):
        c = c * (n - i + 1) // i
        if c > cap:
            return True
    return False


def enumerate_multi_indices(d: int, m: int) -> list[MultiIndex]:
    """All length-d multi-indices of total degree m, descending lex order.

    The count is C(d+m-1, m).  d must be >= 1; m >= 0 is allowed (m=0 yields
    the single all-zero index).  Every coefficient space the package builds
    comes from here, so this is where the size cap is enforced: a basis over
    DEFAULT_SIZE_CAP raises CapacityError before anything is built.  Each
    basis is built once per (d, m); every call checks d, m and the cap and
    gets a list of its own.
    """
    if d < 1:
        raise DimensionError(f"need at least one variable, got d={d}")
    if m < 0:
        raise DegreeError(f"degree must be non-negative, got {m}")
    if _basis_size_exceeds(d, m, DEFAULT_SIZE_CAP):
        raise CapacityError(f"degree-{m} monomial basis on R^{d} has dimension "
                            f"C({d + m - 1}, {m}), exceeding the size cap {DEFAULT_SIZE_CAP}")
    return list(_basis(d, m))


@lru_cache(maxsize=256, typed=True)
def _basis(d: int, m: int) -> tuple[MultiIndex, ...]:
    # the exponent counts of each sorted tuple of m variable indices: the
    # tuples come in lex order, and a lex-smaller tuple has the larger counts
    out = []
    for indices in itertools.combinations_with_replacement(range(d), m):
        a = [0] * d
        for i in indices:
            a[i] += 1
        out.append(tuple(a))
    return tuple(out)


def multinomial(m: int, alpha: MultiIndex) -> int:
    """m! / (alpha_1! ... alpha_d!); requires |alpha| == m."""
    if sum(alpha) != m:
        raise DegreeError(f"multi-index {alpha} does not have degree {m}")
    out = math.factorial(m)
    for a in alpha:
        out //= math.factorial(a)
    return out


def _eval_monomial(alpha: MultiIndex, x: Sequence):
    return math.prod(map(pow, x, alpha))


def _numerator(nums: dict[MultiIndex, int], X: Sequence[int],
               table: dict[MultiIndex, int]) -> int:
    """sum n_alpha X^alpha over the numerators at the integer point X;
    ``table`` holds the monomials X^alpha of that point as they are first
    read, so polynomials evaluated at one point compute each of them once."""
    total = 0
    for alpha, n in nums.items():
        v = table.get(alpha)
        if v is None:
            v = table[alpha] = _eval_monomial(alpha, X)
        total += n * v
    return total


def _common_denominator(values: Iterable) -> tuple[int, list[int]]:
    """(D, [v*D for v in values]) with D the least common denominator of
    ints, Fractions or finite doubles; the products are exact integers."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in ratios])
    return den, [p * (den // q) for p, q in ratios]


def _cleared(x: Sequence, field: str) -> tuple[int, list[int]]:
    """(r, X) with x = X / r, r the least common denominator of the point
    and X its integer numerators.  The rational field takes ints and
    Fractions only, f64 finite doubles too; anything else, a NaN or an
    infinity among them, raises FieldError."""
    if field == RATIONAL:
        if not all(isinstance(v, _RATIONALS) for v in x):
            raise FieldError("the rational field takes points of ints and Fractions only")
        return _common_denominator(x)
    try:
        return _common_denominator(x)
    except (AttributeError, ValueError, OverflowError):  # no exact integer ratio
        raise FieldError("the f64 field takes points of ints, Fractions and finite "
                         "doubles only") from None


def _point(x: Sequence, d: int, field: str) -> tuple[int, list[int]]:
    """_cleared(x) of a point that must lie in R^d."""
    if len(x) != d:
        raise DimensionError(f"point has length {len(x)}, expected {d}")
    return _cleared(x, field)


def _rounded(nums: Collection[int], den: int, d: int, m: int,
             what: str = "coefficient") -> list[float]:
    """[n / den for n in nums], each correctly rounded to a double: the one
    rounding of an f64 read of a degree-m result on R^d.  CapacityError when
    one is past the largest double, or when n is nonzero and it rounds to
    0.0, which would lose the value unseen."""
    try:
        out = [n / den for n in nums]
    except OverflowError:
        raise CapacityError(f"a degree-{m} f64 result on R^{d} has a {what} "
                            f"past the largest double") from None
    if 0.0 in out and any(n for n, v in zip(nums, out) if not v):
        raise CapacityError(f"a degree-{m} f64 result on R^{d} has a {what} "
                            f"below the smallest double")
    return out


def _built(d: int, m: int, values: dict[MultiIndex, int], field: str,
           den: int = 1) -> HomPoly:
    """The polynomial with coefficients values[alpha] / den, values integer
    numerators, built without re-validation.  The result takes ``values``
    as its own when no value is zero, so the caller hands over a dict it no
    longer uses; otherwise the zeros are dropped in a copy.  Dividing out
    the gcd of den and every numerator, in place, leaves the least common
    denominator, and the result stores that integer form; its ``coeffs``
    view is built only if something reads it."""
    nums = values
    if 0 in values.values():
        nums = {a: v for a, v in values.items() if v != 0}
    g = math.gcd(den, *nums.values())
    if g > 1:
        den //= g
        for a, v in nums.items():
            nums[a] = v // g
    self = object.__new__(HomPoly)
    self.__dict__.update(domain_dim=d, degree=m, field=field, _terms=(den, nums))
    return self


def _of_doubles(d: int, m: int, values: dict[MultiIndex, float]) -> HomPoly:
    """The f64 polynomial with these finite double coefficients, built from
    their integer form without re-validation.  Its ``coeffs`` view is the
    nonzero values themselves, which rounding the form would give back."""
    den, nums = _common_denominator(values.values())
    out = _built(d, m, dict(zip(values, nums)), F64, den)
    kept = out._terms[1]
    out.__dict__["coeffs"] = values if len(kept) == len(values) else {a: values[a] for a in kept}
    return out


# a rational product packs when its slot box (m+1)^(d-1) is at most
# _BOX_PER_BASIS times its basis C(d+m-1, m) and it has at least
# _PAIRS_PER_BASIS term pairs per basis monomial.  Measured on dense and
# sparse operands: packing won by 2-4x on dense d <= 4 products, broke even
# near a box of 8 bases (d = 5, m = 3) and lost beyond it; below about two
# pairs per basis monomial the reads of the basis slots cost more than the
# pairs they replace
_BOX_PER_BASIS = 8
_PAIRS_PER_BASIS = 2


@lru_cache(maxsize=64)
def _product_slots(d: int, m: int) -> tuple[tuple[int, ...], ...] | None:
    """(weights, basis, slots) of the packed product of degree m on R^d, or
    None when that shape multiplies pair by pair.  slot(alpha) =
    sum(alpha_i * weights_i), weights_i = (m+1)^(d-2-i) for i < d-1 and 0 for
    the last exponent, which homogeneity implies; slots[j] is the slot of
    basis[j], the basis in canonical order and so the slots descending."""
    if _basis_size_exceeds(d, m, DEFAULT_SIZE_CAP):
        return None
    basis = _basis(d, m)
    if (m + 1) ** (d - 1) > _BOX_PER_BASIS * len(basis):
        return None
    weights = tuple((m + 1) ** (d - 2 - i) for i in range(d - 1)) + (0,)
    return weights, basis, tuple(sum(map(mul, a, weights)) for a in basis)


def _packed(nums: dict, weights: tuple[int, ...], width: int) -> int:
    """sum(c * 2^(8 * width * slot(alpha))) over the numerators: magnitudes
    written into a positive and a negative buffer of width-byte slots."""
    at = [sum(map(mul, a, weights)) * width for a in nums]
    size = max(at) + width
    pos, neg = bytearray(size), bytearray(size)
    for i, c in zip(at, nums.values()):
        if c > 0:
            pos[i:i + width] = c.to_bytes(width, "little")
        else:
            neg[i:i + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _packed_product(v1: dict, v2: dict, weights: tuple[int, ...],
                    basis: tuple[MultiIndex, ...], slots: tuple[int, ...]) -> dict:
    """The product of two nonzero numerator dicts as one integer product
    (Kronecker substitution), read back in canonical order.  Every product
    coefficient is at most N = |v1|_1 * |v2|_1 in absolute value, so a slot
    of 8 * width >= bitlen(N) + 1 bits holds it signed; adding 2^(8*width-1)
    to every slot makes every slot non-negative and the bytes readable."""
    width = (sum(map(abs, v1.values())) * sum(map(abs, v2.values()))).bit_length() // 8 + 1
    count = slots[0] + 1  # (m, 0, ..., 0) is first and has the top slot
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    buf = (_packed(v1, weights, width) * _packed(v2, weights, width) + offset).to_bytes(
        count * width, "little")
    half = 1 << (8 * width - 1)
    values = [int.from_bytes(buf[i:i + width], "little") - half for i in [s * width for s in slots]]
    return {a: c for a, c in zip(basis, values) if c}


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial of fixed degree on R^domain_dim."""

    domain_dim: int
    degree: int
    coeffs: dict[MultiIndex, Scalar]
    field: str = RATIONAL

    def __post_init__(self):
        _check_field(self.field)
        if self.domain_dim < 1:
            raise DimensionError(f"domain_dim must be >= 1, got {self.domain_dim}")
        if self.degree < 1:
            raise DegreeError(f"degree must be >= 1, got {self.degree}")
        clean: dict[MultiIndex, Scalar] = {}
        for alpha, c in self.coeffs.items():
            # exponents are stored as exact ints: 1.0 or True would hash like
            # 1 but print otherwise
            try:
                alpha = tuple(map(operator.index, alpha))
            except TypeError:
                raise DimensionError(f"multi-index {alpha!r} holds a non-integer") from None
            if len(alpha) != self.domain_dim or any(a < 0 for a in alpha):
                raise DimensionError(f"bad multi-index {alpha} for d={self.domain_dim}")
            if sum(alpha) != self.degree:
                raise DegreeError(f"multi-index {alpha} has degree != {self.degree}")
            c = _coerce(c, self.field)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "coeffs", clean)
        den, nums = _common_denominator(clean.values())
        object.__setattr__(self, "_terms", (den, dict(zip(clean, nums))))

    def __getattr__(self, name: str):
        """Build the ``coeffs`` view of a result of ``_built``, the one
        attribute that can be missing, from its integer form, once: Fractions
        on the rational field, each rounded once to a double on f64."""
        terms = self.__dict__.get("_terms")
        if name != "coeffs" or terms is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, nums = terms
        if self.field == RATIONAL:
            coeffs = {a: Fraction(v, den) for a, v in nums.items()}
        else:
            coeffs = dict(zip(nums, _rounded(nums.values(), den, self.domain_dim, self.degree)))
        self.__dict__["coeffs"] = coeffs
        return coeffs

    def __eq__(self, other):
        # the integer form is canonical, so equal forms are equal polynomials
        # and no Fraction view is needed
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain_dim == other.domain_dim and self.degree == other.degree
                and self.field == other.field and self._terms == other._terms)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, d: int, m: int, field: str = RATIONAL) -> HomPoly:
        return cls(d, m, {}, field)

    @classmethod
    def monomial(cls, d: int, alpha: MultiIndex, coeff=1, field: str = RATIONAL) -> HomPoly:
        return cls(d, sum(alpha), {tuple(alpha): coeff}, field)

    @classmethod
    def linear_form(cls, coeffs: Sequence, field: str = RATIONAL) -> HomPoly:
        """The functional x |-> sum coeffs[i] * x_i."""
        d = len(coeffs)
        data = {}
        for i, c in enumerate(coeffs):
            alpha = tuple(1 if j == i else 0 for j in range(d))
            data[alpha] = c
        return cls(d, 1, data, field)

    @classmethod
    def from_coeff_vector(cls, d: int, m: int, values: Sequence, field: str = RATIONAL) -> HomPoly:
        basis = enumerate_multi_indices(d, m)
        if len(values) != len(basis):
            raise DimensionError(
                f"expected {len(basis)} coefficients for d={d}, m={m}, got {len(values)}"
            )
        return cls(d, m, dict(zip(basis, values)), field)

    # -- queries ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms[1]

    def coefficient(self, alpha: MultiIndex) -> Scalar:
        return self.coeffs.get(tuple(alpha), _ZERO[self.field])

    def max_abs(self) -> Scalar:
        """Largest absolute coefficient; the field's zero for the zero polynomial."""
        den, nums = self._terms
        top = max(map(abs, nums.values()), default=0)
        if self.field == RATIONAL:
            return Fraction(top, den)
        return _rounded([top], den, self.domain_dim, self.degree)[0]

    def coeff_vector(self) -> list[Scalar]:
        """Coefficients in canonical (descending lex) basis order."""
        zero = _ZERO[self.field]
        return [self.coeffs.get(a, zero) for a in enumerate_multi_indices(self.domain_dim, self.degree)]

    def eval(self, x: Sequence) -> Scalar:
        """p(x), exactly; on f64 the exact value rounded once to a double."""
        r, X = _point(x, self.domain_dim, self.field)
        return self._value(_numerator(self._terms[1], X, {}), r)

    def _value(self, total: int, r: int) -> Scalar:
        """p(X / r) from its numerator total = sum n_alpha X^alpha: by
        homogeneity the value is total / (D r^m)."""
        den = self._terms[0] * r ** self.degree
        if self.field == RATIONAL:
            return Fraction(total, den)
        return _rounded([total], den, self.domain_dim, self.degree, "value")[0]

    # -- arithmetic ---------------------------------------------------
    def _require_same_shape(self, other: HomPoly) -> None:
        if self.domain_dim != other.domain_dim:
            raise DimensionError("polynomials live on different spaces")
        if self.field != other.field:
            raise FieldError("mixed-field polynomial arithmetic")

    def _combine(self, other: HomPoly, sign: int) -> HomPoly:
        """self + sign * other (sign = 1 or -1) in one pass over the
        numerators, both brought over the lcm of their denominators."""
        self._require_same_shape(other)
        if self.degree != other.degree:
            raise DegreeError("cannot add homogeneous polynomials of different degrees")
        (d1, n1), (d2, n2) = self._terms, other._terms
        den = math.lcm(d1, d2)
        f1, f2 = den // d1, sign * (den // d2)
        data = {a: f1 * v for a, v in n1.items()}
        for alpha, v in n2.items():
            data[alpha] = data.get(alpha, 0) + f2 * v
        return _built(self.domain_dim, self.degree, data, self.field, den)

    def __add__(self, other: HomPoly) -> HomPoly:
        return self._combine(other, 1)

    def __neg__(self) -> HomPoly:
        return self.scale(-1)

    def __sub__(self, other: HomPoly) -> HomPoly:
        return self._combine(other, -1)

    def scale(self, c) -> HomPoly:
        num, cden = _coerce(c, self.field).as_integer_ratio()
        den, nums = self._terms
        data = {a: num * v for a, v in nums.items()}
        return _built(self.domain_dim, self.degree, data, self.field, den * cden)

    def __mul__(self, other: HomPoly) -> HomPoly:
        """Pointwise product; degrees add.  The integer numerators are
        multiplied, over the denominator D1*D2: as one packed integer product
        where the shape allows, otherwise pair by pair (see the module
        docstring)."""
        self._require_same_shape(other)
        (d1, v1), (d2, v2) = self._terms, other._terms
        d, m = self.domain_dim, self.degree + other.degree
        slots = _product_slots(d, m)
        if slots is not None and len(v1) * len(v2) >= _PAIRS_PER_BASIS * len(slots[1]):
            data = _packed_product(v1, v2, *slots)
        else:
            right = list(v2.items())
            data = {}
            for a1, c1 in v1.items():
                for a2, c2 in right:
                    a = tuple(map(add, a1, a2))
                    data[a] = data.get(a, 0) + c1 * c2
        return _built(d, m, data, self.field, d1 * d2)

    def __pow__(self, n: int) -> HomPoly:
        if n < 1:
            raise DegreeError(f"power requires n >= 1, got {n}")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def as_field(self, field: str) -> HomPoly:
        _check_field(field)
        if field == self.field:
            return self
        den, nums = self._terms
        d, m = self.domain_dim, self.degree
        if field == RATIONAL:
            # the exact value, which an f64 polynomial holds until it is read
            return _built(d, m, dict(nums), field, den)
        # each coefficient rounded once, as the f64 view rounds it
        return _of_doubles(d, m, dict(zip(nums, _rounded(nums.values(), den, d, m))))


@dataclass(frozen=True)
class PolyMap:
    """Homogeneous polynomial map R^d -> R^e: a tuple of e scalar components."""

    components: tuple[HomPoly, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DimensionError("a polynomial map needs at least one component")
        d, m, f = comps[0].domain_dim, comps[0].degree, comps[0].field
        for c in comps:
            if (c.domain_dim, c.degree, c.field) != (d, m, f):
                raise DimensionError("components disagree in domain, degree or field")
        object.__setattr__(self, "components", comps)

    @property
    def domain_dim(self) -> int:
        return self.components[0].domain_dim

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def field(self) -> str:
        return self.components[0].field

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def max_abs(self) -> Scalar:
        """Largest absolute coefficient over all components."""
        return max(c.max_abs() for c in self.components)

    @classmethod
    def zero(cls, d: int, e: int, m: int, field: str = RATIONAL) -> PolyMap:
        return cls(tuple(HomPoly.zero(d, m, field) for _ in range(e)))

    @classmethod
    def identity(cls, d: int, field: str = RATIONAL) -> PolyMap:
        return cls(tuple(
            HomPoly.monomial(d, tuple(1 if j == i else 0 for j in range(d)), 1, field)
            for i in range(d)))

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence], field: str = RATIONAL) -> PolyMap:
        """Linear map with the given e x d coefficient matrix."""
        return cls(tuple(HomPoly.linear_form(r, field) for r in rows))

    def eval_map(self, x: Sequence) -> tuple[Scalar, ...]:
        """(P_1(x), ..., P_e(x)), each as ``HomPoly.eval`` gives it; x is
        cleared once and each monomial x^alpha computed once for the map."""
        r, X = _point(x, self.domain_dim, self.field)
        table: dict[MultiIndex, int] = {}
        return tuple(c._value(_numerator(c._terms[1], X, table), r) for c in self.components)

    def __add__(self, other: PolyMap) -> PolyMap:
        if self.codomain_dim != other.codomain_dim:
            raise DimensionError("maps have different codomains")
        return PolyMap(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: PolyMap) -> PolyMap:
        if self.codomain_dim != other.codomain_dim:
            raise DimensionError("maps have different codomains")
        return PolyMap(tuple(a - b for a, b in zip(self.components, other.components)))

    def scale(self, c) -> PolyMap:
        return PolyMap(tuple(p.scale(c) for p in self.components))

    def as_field(self, field: str) -> PolyMap:
        return PolyMap(tuple(c.as_field(field) for c in self.components))


def map_powers(P: PolyMap, betas: Iterable[MultiIndex]) -> Iterator[HomPoly]:
    """P^beta = P_1^beta_1 * ... * P_e^beta_e for each codomain multi-index
    beta (a tuple, |beta| >= 1), in order.

    Each P^beta is built once per map: the map keeps a memo (in its
    ``__dict__``, as a ``HomPoly`` keeps its ``coeffs`` view) of the
    component powers P_i^a and of every P^beta asked for, which lives and
    dies with the map.  So every caller, and every call with the same map,
    gets the same ``HomPoly`` objects, which are immutable and shared."""
    memo = P.__dict__.get("_powers")
    if memo is None:
        # powers[i][a - 1] = P_i ** a; products[beta] = P ** beta
        memo = P.__dict__["_powers"] = ([[c] for c in P.components], {})
    powers, products = memo
    for beta in betas:
        prod = products.get(beta)
        if prod is None:
            for pw, b in zip(powers, beta):
                if b == 0:
                    continue
                while len(pw) < b:
                    pw.append(pw[-1] * pw[0])
                prod = pw[b - 1] if prod is None else prod * pw[b - 1]
            if prod is None:
                raise DegreeError(f"P^beta needs |beta| >= 1, got beta={beta}")
            products[beta] = prod
        yield prod


def compose_scalar(q: HomPoly, P: PolyMap) -> HomPoly:
    """q o P: substitute the components of P into q.  Degree multiplies."""
    if q.domain_dim != P.codomain_dim:
        raise DimensionError(
            f"q has {q.domain_dim} variables but P has codomain dimension {P.codomain_dim}")
    if q.field != P.field:
        raise FieldError("mixed-field composition")
    qden, qnums = q._terms
    terms = list(map_powers(P, qnums))
    # with q = sum c_beta x^beta / Q and P^beta = sum n_gamma x^gamma / D_beta,
    # every term goes over Q * lcm(D_beta)
    den = math.lcm(*[t._terms[0] for t in terms])
    out: dict[MultiIndex, int] = {}
    for c, term in zip(qnums.values(), terms):
        tden, values = term._terms
        c *= den // tden
        for gamma, v in values.items():
            out[gamma] = out.get(gamma, 0) + c * v
    return _built(P.domain_dim, P.degree * q.degree, out, q.field, qden * den)


def compose_map(Q: PolyMap, P: PolyMap) -> PolyMap:
    """Q o P for polynomial maps; degrees multiply."""
    return PolyMap(tuple(compose_scalar(c, P) for c in Q.components))


@dataclass(frozen=True)
class SymForm:
    """Symmetric multilinear form, entries keyed by sorted index tuples."""

    domain_dim: int
    arity: int
    entries: dict[tuple[int, ...], Scalar]
    field: str = RATIONAL

    def __post_init__(self):
        _check_field(self.field)
        clean = {}
        for t, v in self.entries.items():
            t = tuple(t)
            if len(t) != self.arity or any(not (0 <= i < self.domain_dim) for i in t):
                raise DimensionError(f"bad index tuple {t}")
            if tuple(sorted(t)) != t:
                raise DimensionError(f"index tuple {t} is not sorted")
            v = _coerce(v, self.field)
            if v != 0:
                clean[t] = v
        object.__setattr__(self, "entries", clean)

    @cached_property
    def _int_entries(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """(E, {t: v*E}), E the least common denominator of the entries."""
        den, nums = _common_denominator(self.entries.values())
        return den, dict(zip(self.entries, nums))

    def apply(self, args: Sequence[Sequence]) -> Scalar:
        """Evaluate on arity-many vectors: each entry times the sum, over the
        distinct orderings of its index tuple, of the product of the
        argument coordinates, exactly; on f64 the exact value rounded once
        to a double."""
        if len(args) != self.arity:
            raise DimensionError(f"expected {self.arity} vectors, got {len(args)}")
        for v in args:
            if len(v) != self.domain_dim:
                raise DimensionError("argument vector has wrong length")
        # with vector j = X_j / r_j and entry t = e_t / E the value is
        # sum_t e_t S_t(X) / (E prod r_j)
        cleared = [_cleared(v, self.field) for v in args]
        den, entries = self._int_entries
        total = _form_numerator(entries, [X for _, X in cleared])
        den *= math.prod(r for r, _ in cleared)
        if self.field == RATIONAL:
            return Fraction(total, den)
        return _rounded([total], den, self.domain_dim, self.arity, "value")[0]


def _form_numerator(entries: dict[tuple[int, ...], int], rows: Sequence[Sequence[int]]) -> int:
    """sum_t e_t * S_t, S_t the sum over the distinct orderings of the index
    tuple t of prod_j rows[j][order_j]: a symmetric form's value on integer
    vectors, over the form's denominator.  ``_orderings`` is looked up at
    call time, so a replacement on the module reaches every caller."""
    total = 0
    for t, e in entries.items():
        s = 0
        for order in _orderings(t):
            prod = 1
            for X, i in zip(rows, order):
                prod *= X[i]
            s += prod
        total += e * s
    return total


@lru_cache(maxsize=1024)
def _orderings(t: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of an index tuple, in sorted order."""
    return tuple(sorted(set(itertools.permutations(t))))


def polarize(p: HomPoly) -> SymForm:
    """The symmetric m-linear form whose diagonal is p.

    Entry at the sorted tuple of a monomial's variable indices is the
    coefficient divided by the multinomial weight, so that restricting the
    form to the diagonal recovers p exactly.
    """
    entries: dict[tuple[int, ...], Scalar] = {}
    for alpha, c in p.coeffs.items():
        t = tuple(i for i, a in enumerate(alpha) for _ in range(a))
        w = multinomial(p.degree, alpha)
        entries[t] = c / w
    return SymForm(p.domain_dim, p.degree, entries, p.field)


def additivity_defect(R: PolyMap) -> PolyMap:
    """W(x, y) = R(x+y) - R(x) - R(y), exactly, on 2d variables.

    Zero as a polynomial iff R is linear (degree 1); for degree m the
    defect collects all mixed terms of the expansion of R(x+y).
    """
    d = R.domain_dim
    f = R.field
    # linear substitution maps on 2d variables: (x, y) |-> x+y, x, y
    def var(i: int) -> HomPoly:
        return HomPoly.monomial(2 * d, tuple(1 if j == i else 0 for j in range(2 * d)), 1, f)

    sum_map = PolyMap(tuple(var(i) + var(d + i) for i in range(d)))
    first = PolyMap(tuple(var(i) for i in range(d)))
    second = PolyMap(tuple(var(d + i) for i in range(d)))
    return compose_map(R, sum_map) - compose_map(R, first) - compose_map(R, second)
