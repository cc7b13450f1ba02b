"""Output checks for the benchmark that share no code with polyadjoint.

Every check here re-derives the expected answer from the request input with
its own arithmetic: its own monomial enumeration, its own polynomial
evaluation, its own elimination and its own float evaluator.  A check
returns None when the output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


def monomials(d: int, m: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree m in d variables, descending lex."""
    if d == 1:
        return [(m,)]
    return [(first,) + rest
            for first in range(m, -1, -1)
            for rest in monomials(d - 1, m - first)]


def parse_rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def map_to_obj(d: int, m: int, comps: list[dict], field: str) -> dict:
    """The polynomial-map JSON object for components given as
    {exponent tuple: coefficient} dicts."""
    def value(c):
        return f"{c.numerator}/{c.denominator}" if field == "rational" else float(c)
    return {"domain_dim": d, "codomain_dim": len(comps), "degree": m,
            "field": field,
            "components": [[{"alpha": list(a), "value": value(comp[a])}
                            for a in monomials(d, m) if a in comp]
                           for comp in comps]}


def _terms(component: list[dict]) -> list[tuple[tuple[int, ...], Fraction]]:
    return [(tuple(t["alpha"]), parse_rational(t["value"])) for t in component]


def _eval(terms, x) -> Fraction:
    total = Fraction(0)
    for alpha, c in terms:
        v = c
        for xi, a in zip(x, alpha):
            if a:
                v *= xi ** a
        total += v
    return total


def check_adjoint(input_obj: dict, input_bytes: bytes, n: int, k: int,
                  out_obj: dict, q: list[Fraction], x: list[Fraction]) -> str | None:
    """The materialized adjoint, evaluated at the coefficient vector q and
    then at the point x, must equal q(P(x))**n evaluated directly."""
    d, e, m = input_obj["domain_dim"], input_obj["codomain_dim"], input_obj["degree"]
    q_basis = monomials(e, k)
    out_basis = monomials(d, m * n * k)
    prov = out_obj.get("provenance", {})
    if (prov.get("op"), prov.get("n"), prov.get("k")) != ("delta", n, k):
        return f"provenance {prov!r} does not name delta with n={n}, k={k}"
    if prov.get("source") != hashlib.sha256(input_bytes).hexdigest():
        return "provenance source is not the sha256 of the input"
    if (out_obj["field"], out_obj["degree"], out_obj["domain_dim"],
            out_obj["codomain_dim"]) != ("rational", n, len(q_basis), len(out_basis)):
        return "output shape does not match the coefficient spaces"
    image = [_eval(_terms(comp), q) for comp in out_obj["components"]]
    lhs = _eval(list(zip(out_basis, image)), x)
    px = [_eval(_terms(comp), x) for comp in input_obj["components"]]
    rhs = _eval(list(zip(q_basis, q)), px) ** n
    if lhs != rhs:
        return f"adjoint output evaluates to {lhs}, direct evaluation gives {rhs}"
    return None


def coefficient_rank(input_obj: dict) -> int:
    """Rank of the components' coefficient matrix by exact elimination."""
    basis = monomials(input_obj["domain_dim"], input_obj["degree"])
    rows = []
    for comp in input_obj["components"]:
        coeffs = dict(_terms(comp))
        rows.append([coeffs.get(a, Fraction(0)) for a in basis])
    rank = 0
    for col in range(len(basis)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_decompose(input_obj: dict, n: int, k: int, out_obj: dict) -> str | None:
    """The rank must be the coefficient rank of the input and the term count
    must be C(C(k+l-1, l-1)+n-1, n)."""
    l = coefficient_rank(input_obj)
    if (out_obj["n"], out_obj["k"], out_obj["rank"]) != (n, k, l):
        return (f"decompose reports n={out_obj['n']} k={out_obj['k']} "
                f"rank={out_obj['rank']}, expected n={n} k={k} rank={l}")
    want = math.comb(math.comb(k + l - 1, l - 1) + n - 1, n)
    if len(out_obj["terms"]) != want:
        return f"decompose has {len(out_obj['terms'])} terms, expected {want}"
    return None


def _float_map(input_obj: dict) -> tuple[np.ndarray, np.ndarray]:
    basis = monomials(input_obj["domain_dim"], input_obj["degree"])
    coeffs = np.zeros((input_obj["codomain_dim"], len(basis)))
    index = {a: j for j, a in enumerate(basis)}
    for i, comp in enumerate(input_obj["components"]):
        for t in comp:
            coeffs[i, index[tuple(t["alpha"])]] = float(t["value"])
    return np.array(basis, dtype=float), coeffs


def _float_norms(expts: np.ndarray, coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    mono = np.prod(X[:, None, :] ** expts[None, :, :], axis=2)
    V = mono @ coeffs.T
    return np.sqrt((V * V).sum(axis=1))


def check_sup_norm(input_obj: dict, out_obj: dict, tol: float,
                   rng: np.random.Generator, samples: int = 4096) -> str | None:
    """A sup norm on the Euclidean ball must stay under the coefficient-sum
    bound, reproduce at its maximizer on the sphere, and reach the maximum
    over an independent set of sphere points up to tol."""
    expts, coeffs = _float_map(input_obj)
    value = float(out_obj["value"])
    x = np.asarray(out_obj["maximizer"], dtype=float)
    bound = float(np.sqrt((np.abs(coeffs).sum(axis=1) ** 2).sum()))
    if value > bound * (1.0 + 1e-9):
        return f"sup norm {value} exceeds the coefficient-sum bound {bound}"
    if x.shape != (expts.shape[1],) or abs(float(np.sqrt(x @ x)) - 1.0) > 1e-9:
        return "maximizer is not a point of the unit sphere"
    again = float(_float_norms(expts, coeffs, x[None, :])[0])
    if abs(again - value) > 1e-9 * max(1.0, value):
        return f"sup norm {value} does not reproduce at its maximizer ({again})"
    Y = rng.standard_normal((samples, expts.shape[1]))
    Y /= np.sqrt((Y * Y).sum(axis=1, keepdims=True))
    sampled = float(_float_norms(expts, coeffs, Y).max())
    if value < (1.0 - tol) * sampled:
        return f"sup norm {value} is below the sampled maximum {sampled}"
    return None


def check_claim(claim: dict, tol: float) -> str | None:
    """A rational claim must pass with defect exactly 0/1, a float claim
    with its worst error within tol."""
    exact = claim["field"] == "rational"
    if claim["passed"] and (claim["max_defect"] == "0/1" if exact
                            else claim["max_defect"] <= tol):
        return None
    return f"passed={claim['passed']} max_defect={claim['max_defect']}"
