"""Deterministic random generators for rational and float test data.

Seeding goes through sha256 of (seed, label) so that every suite and check
draws from its own reproducible stream regardless of execution order.
Rational data comes from `random.Random`, which is platform-stable for the
operations used here; float data comes from numpy's default generator.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np

from .algebra import RATIONAL, HomPoly, PolyMap, _built, _of_doubles, enumerate_multi_indices
from .linearization import _eliminate


def _stream_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng(seed: int, label: str) -> random.Random:
    return random.Random(_stream_seed(seed, label))


def _np_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(_stream_seed(seed, label))


def random_fraction(r: random.Random, max_num: int = 9, max_den: int = 4) -> Fraction:
    return Fraction(r.randint(-max_num, max_num), r.randint(1, max_den))


def random_point(r: random.Random, d: int, max_num: int = 9, max_den: int = 4) -> tuple[Fraction, ...]:
    return tuple(random_fraction(r, max_num, max_den) for _ in range(d))


def random_nonzero_point(r: random.Random, d: int) -> tuple[Fraction, ...]:
    while True:
        x = random_point(r, d)
        if any(c != 0 for c in x):
            return x


def random_hompoly(r: random.Random, d: int, m: int) -> HomPoly:
    """Random rational polynomial, each term kept with probability 0.9; at
    least one term is always kept.  Each kept term is a random_fraction,
    drawn as its integer numerator over 12 = lcm(1, ..., 4), so the result
    is built from its integer form without a Fraction per term."""
    basis = enumerate_multi_indices(d, m)
    nums = {}
    for alpha in basis:
        if r.random() < 0.9:
            num, den = r.randint(-9, 9), r.randint(1, 4)
            if num:
                nums[alpha] = num * (12 // den)
    if not nums:
        nums[basis[r.randrange(len(basis))]] = 12
    return _built(d, m, nums, RATIONAL, 12)


def random_polymap(r: random.Random, d: int, e: int, m: int) -> PolyMap:
    return PolyMap(tuple(random_hompoly(r, d, m) for _ in range(e)))


def random_invertible_matrix(r: random.Random, d: int) -> list[list[Fraction]]:
    """Small-integer matrix of full rank (retry loop), as Fractions."""
    while True:
        rows = [[r.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if len(_eliminate(rows, d)[1]) == d:
            return [[Fraction(v) for v in row] for row in rows]


def _random_hompoly_f64(rng: np.random.Generator, d: int, k: int) -> HomPoly:
    """Standard-normal coefficients in basis order, built from their integer
    form without re-validating them: they are finite doubles by
    construction."""
    basis = enumerate_multi_indices(d, k)
    return _of_doubles(d, k, dict(zip(basis, rng.standard_normal(len(basis)).tolist())))


def _random_f64_map(rng: np.random.Generator, d: int, e: int, m: int) -> PolyMap:
    return PolyMap(tuple(_random_hompoly_f64(rng, d, m) for _ in range(e)))


def _random_nonzero_f64_point(rng: np.random.Generator, d: int) -> list[float]:
    x = rng.standard_normal(d)
    while float(np.abs(x).max()) < 1e-6:
        x = rng.standard_normal(d)
    return [float(v) for v in x]
