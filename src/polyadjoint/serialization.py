"""JSON interchange for polynomial maps and expansions.

Rational scalars travel as "num/den" strings (always with the slash, e.g.
"3/4", "-2/1"), f64 scalars as JSON numbers.  A polynomial map is

    {"domain_dim": d, "codomain_dim": e, "degree": m,
     "field": "rational" | "f64",
     "components": [[{"alpha": [...], "value": ...}, ...], ...]}

with one inner list per component; scalar polynomials are the e = 1 case.
Component terms are emitted in canonical (descending lex) order so that
equal objects serialize to identical bytes.  A materialized adjoint is a
polynomial map plus {"op": "delta", "n": n, "k": k, "source": <sha256>}.

Every JSON text the package writes (maps, request results, suite reports)
comes from one writer, ``_json_dumps``.  Its output is byte for byte that of
``json.dumps(obj, indent=2, sort_keys=True)``, so files stay diffable and
same-input outputs stay byte-identical, and it is always strict: NaN and
infinities raise ValueError instead of being written as bare ``NaN`` or
``Infinity``.  It is faster than the standard library's pure-Python indent
encoder because it renders each repeated list of integers (the multi-indices
of a map) once per call and each list of same-keyed dicts (the terms of a
component) through one format string.
"""
from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import F64, RATIONAL, HomPoly, PolyMap, _finite_f64
from .adjoint import MaterializedAdjoint
from .errors import DimensionError, FieldError
from .finite_type import FiniteTypeExpansion


_INDENT = "  "
_INT_ONLY = frozenset({int})


def _scalar_text(o) -> str | None:
    """The JSON text of a str, int, float, bool or None, tested in the order
    json's encoder tests them; None for anything else."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    return None


def _block(items: list[str], depth: int, brackets: str) -> str:
    """Rendered items inside brackets, one per line, the brackets at depth."""
    inner = "\n" + _INDENT * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + _INDENT * depth + brackets[1]


def _json_dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for trees of
    dicts with str keys, lists, tuples, str, int, float, bool and None.  A
    non-finite float raises ValueError: the output is always strict JSON."""
    # (depth, *items) -> text of a list whose items all have type int; keying
    # on exact ints keeps [1, 1], [1, True] and [1.0, 1] apart, which compare
    # and hash alike
    int_lists: dict[tuple, str] = {}
    # (depth, keys) -> %-format of one dict of a row list
    row_formats: dict[tuple, str] = {}

    def flat(o, depth: int) -> str | None:
        """A list or tuple of scalars at depth, or None if it holds a container."""
        if not o:
            return "[]"
        key = None
        if set(map(type, o)) == _INT_ONLY:
            key = (depth, *o)
            text = int_lists.get(key)
            if text is not None:
                return text
        items = []
        for x in o:
            text = _scalar_text(x)
            if text is None:
                return None
            items.append(text)
        text = _block(items, depth, "[]")
        if key is not None:
            int_lists[key] = text
        return text

    def rows(o, depth: int) -> str | None:
        """A list of dicts with one key set whose values are scalars or flat
        lists, each dict through one format string; None for other shapes."""
        first = o[0]
        if type(first) is not dict or not first:
            return None
        keys = first.keys()
        order = tuple(sorted(keys))
        fmt = row_formats.get((depth, order))
        if fmt is None:
            fmt = _block([_quote(k).replace("%", "%%") + ": %s" for k in order], depth + 1, "{}")
            row_formats[(depth, order)] = fmt
        out = []
        for row in o:
            if type(row) is not dict or row.keys() != keys:
                return None
            values = []
            for k in order:
                v = row[k]
                text = flat(v, depth + 2) if isinstance(v, (list, tuple)) else _scalar_text(v)
                if text is None:
                    return None
                values.append(text)
            out.append(fmt % tuple(values))
        return _block(out, depth, "[]")

    def value(o, depth: int) -> str:
        text = _scalar_text(o)
        if text is not None:
            return text
        if isinstance(o, (list, tuple)):
            text = flat(o, depth)
            if text is None:
                text = rows(o, depth)
            if text is None:
                text = _block([value(x, depth + 1) for x in o], depth, "[]")
            return text
        if isinstance(o, dict):
            if not o:
                return "{}"
            for k in o:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
            return _block([_quote(k) + ": " + value(o[k], depth + 1) for k in sorted(o)],
                          depth, "{}")
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    return value(obj, 0)


def _scalar_to_json(v, field: str):
    if field == RATIONAL:
        return f"{v.numerator}/{v.denominator}"
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
    return _json_dumps(polymap_to_obj(P))


def polymap_loads(text: str) -> PolyMap:
    return polymap_from_obj(json.loads(text))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def materialized_to_obj(mat: MaterializedAdjoint, source_hash: str) -> dict:
    obj = polymap_to_obj(mat.polymap)
    obj["provenance"] = {"op": "delta", "n": mat.n, "k": mat.k,
                         "source": source_hash}
    return obj


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
