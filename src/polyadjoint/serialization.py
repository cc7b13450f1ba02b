"""JSON interchange for polynomial maps, matrices and expansions.

Rational scalars travel as "num/den" strings (always with the slash, e.g.
"3/4", "-2/1"), f64 scalars as JSON numbers.  A polynomial map is

    {"domain_dim": d, "codomain_dim": e, "degree": m,
     "field": "rational" | "f64",
     "components": [[{"alpha": [...], "value": ...}, ...], ...]}

with one inner list per component; scalar polynomials are the e = 1 case.
Component terms are emitted in canonical (descending lex) order so that
equal objects serialize to identical bytes.  A materialized adjoint is a
polynomial map plus {"op": "delta", "n": n, "k": k, "source": <sha256>}.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .algebra import F64, RATIONAL, HomPoly, PolyMap, _finite_f64
from .adjoint import MaterializedAdjoint
from .errors import DimensionError, FieldError
from .finite_type import FiniteTypeExpansion
from .linearization import LinearMap


def _scalar_to_json(v, field: str):
    if field == RATIONAL:
        f = Fraction(v)
        return f"{f.numerator}/{f.denominator}"
    return float(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _scalar_from_json(v, field: str):
    if field == RATIONAL:
        if not isinstance(v, str) or "/" not in v:
            raise FieldError(f"rational values must look like 'num/den', got {v!r}")
        num, den = (int(p) for p in v.split("/", 1))
        if den == 0:
            raise FieldError(f"rational value {v!r} has a zero denominator")
        return Fraction(num, den)
    if not (_is_int(v) or isinstance(v, float)):
        raise FieldError(f"f64 values must be JSON numbers, got {v!r}")
    return _finite_f64(v)


def hompoly_to_obj(p: HomPoly) -> list[dict]:
    # reverse tuple order is the canonical descending-lex order
    return [{"alpha": list(alpha), "value": _scalar_to_json(p.coeffs[alpha], p.field)}
            for alpha in sorted(p.coeffs, reverse=True)]


def polymap_to_obj(P: PolyMap) -> dict:
    return {
        "domain_dim": P.domain_dim,
        "codomain_dim": P.codomain_dim,
        "degree": P.degree,
        "field": P.field,
        "components": [hompoly_to_obj(c) for c in P.components],
    }


def polymap_from_obj(obj: dict) -> PolyMap:
    for key in ("domain_dim", "codomain_dim", "degree", "field", "components"):
        if key not in obj:
            raise DimensionError(f"polynomial map object is missing {key!r}")
    d, e, m = obj["domain_dim"], obj["codomain_dim"], obj["degree"]
    for key, v in (("domain_dim", d), ("codomain_dim", e), ("degree", m)):
        if not _is_int(v):
            raise DimensionError(f"{key} must be an integer, got {v!r}")
    field = obj["field"]
    if field not in (RATIONAL, F64):
        raise FieldError(f"unknown field {field!r}")
    comps = obj["components"]
    if len(comps) != e:
        raise DimensionError(f"expected {e} components, found {len(comps)}")
    out = []
    for terms in comps:
        coeffs = {}
        for t in terms:
            alpha = t["alpha"]
            if not isinstance(alpha, (list, tuple)) or not all(_is_int(a) for a in alpha):
                raise DimensionError(f"alpha must be a list of integers, got {alpha!r}")
            alpha = tuple(alpha)
            if alpha in coeffs:
                raise DimensionError(f"alpha {list(alpha)} appears twice in one component")
            coeffs[alpha] = _scalar_from_json(t["value"], field)
        out.append(HomPoly(d, m, coeffs, field))
    return PolyMap(tuple(out))


def polymap_dumps(P: PolyMap) -> str:
    return json.dumps(polymap_to_obj(P), indent=2, sort_keys=True)


def polymap_loads(text: str) -> PolyMap:
    return polymap_from_obj(json.loads(text))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def materialized_to_obj(mat: MaterializedAdjoint, source_hash: str) -> dict:
    obj = polymap_to_obj(mat.polymap)
    obj["provenance"] = {"op": "delta", "n": mat.n, "k": mat.k,
                         "source": source_hash}
    return obj


def linearmap_to_obj(M: LinearMap) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "field": M.field,
        "entries": [[_scalar_to_json(v, M.field) for v in row] for row in M.entries],
    }


def expansion_to_obj(exp: FiniteTypeExpansion) -> dict:
    terms = []
    for t in exp.terms:
        terms.append({
            "theta": f"{t.theta.numerator}/{t.theta.denominator}",
            "theta_factored": t.theta_factored,
            "p_alpha": hompoly_to_obj(t.p_alpha),
            "psi": [{"composition": list(c), "exponent": e} for c, e in t.psi_powers],
        })
    return {
        "n": exp.n,
        "k": exp.k,
        "rank": exp.rank,
        "domain_dim": exp.source_domain_dim,
        "codomain_dim": exp.source_codomain_dim,
        "degree": exp.source_degree,
        "vectors": [[_scalar_to_json(v, RATIONAL) for v in vec] for vec in exp.vectors],
        "terms": terms,
    }
