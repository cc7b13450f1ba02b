"""Deterministic random generators for rational test data.

Seeding goes through sha256 of (seed, label) so that every suite and check
draws from its own reproducible stream regardless of execution order;
`random.Random` is platform-stable for the operations used here.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .algebra import RATIONAL, HomPoly, PolyMap, enumerate_multi_indices
from .linearization import rref


def rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


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
    least one term is always kept."""
    basis = enumerate_multi_indices(d, m)
    coeffs = {}
    for alpha in basis:
        if r.random() < 0.9:
            c = random_fraction(r)
            if c != 0:
                coeffs[alpha] = c
    if not coeffs:
        coeffs[basis[r.randrange(len(basis))]] = Fraction(1)
    return HomPoly(d, m, coeffs, RATIONAL)


def random_nonzero_hompoly(r: random.Random, d: int, m: int) -> HomPoly:
    while True:
        p = random_hompoly(r, d, m)
        if not p.is_zero:
            return p


def random_polymap(r: random.Random, d: int, e: int, m: int) -> PolyMap:
    return PolyMap(tuple(random_hompoly(r, d, m) for _ in range(e)))


def random_invertible_matrix(r: random.Random, d: int) -> list[list[Fraction]]:
    """Small-integer matrix of full rank (retry loop)."""
    while True:
        rows = [[Fraction(r.randint(-4, 4)) for _ in range(d)] for _ in range(d)]
        if len(rref(rows, d)[1]) == d:
            return rows
