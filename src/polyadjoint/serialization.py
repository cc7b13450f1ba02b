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
``Infinity``.  The tree makers (``polymap_to_obj``, ``materialized_to_obj``,
``expansion_to_obj``) put each ``HomPoly`` itself where its term list goes,
so their trees are the writer's input, not plain JSON data.  The writer
renders a rational ``HomPoly`` straight from its integer form
``(D, {alpha: n})``, each value as n/D in lowest terms, and an f64 one from
its view, each value n/D rounded once to a double (CapacityError when
that does not fit one), and the text of each term up to its value once per multi-index and depth,
so no dict is built per term.

Integers of any length are written, past CPython's limit on int-to-text
conversion (4300 digits by default), and no process-wide setting changes.
Reading keeps that limit: a longer integer in the input raises
CapacityError, which the CLI reports as a size cap (exit 3).
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import F64, RATIONAL, HomPoly, PolyMap, _finite_f64
from .adjoint import MaterializedAdjoint
from .errors import CapacityError, DimensionError, FieldError
from .finite_type import FiniteTypeExpansion


_INDENT = "  "
_RATIO = re.compile(r"-?[0-9]+/[0-9]+")


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
        return _int_text(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    return None


def _int_text(n: int) -> str:
    """The decimal text of an int of any size.  CPython refuses to turn an
    int of more digits than its limit (4300 by default, see
    sys.set_int_max_str_digits) into text; such a number is split at a power
    of ten into parts it will turn, so no process-wide setting changes."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    k = n.bit_length() * 3 // 20  # about half its digits
    hi, lo = divmod(n, 10 ** k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _parse_int(text: str) -> int:
    """int(text) of a string of ASCII digits with an optional sign.  Reading
    keeps the interpreter's digit limit: a longer number is a size cap."""
    try:
        return int(text)
    except ValueError:
        raise CapacityError(f"an integer of {len(text.lstrip('-'))} digits exceeds this "
                            "interpreter's limit for integer string conversion") from None


def _json_loads(text: str):
    """json.loads, with an integer past the digit limit a CapacityError."""
    return json.loads(text, parse_int=_parse_int)


def _block(items: list[str], depth: int, brackets: str) -> str:
    """Rendered items inside brackets, one per line, the brackets at depth."""
    inner = "\n" + _INDENT * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + _INDENT * depth + brackets[1]


def _json_dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for trees of
    dicts with str keys, lists, tuples, str, int, float, bool, None and
    ``HomPoly`` nodes, a node standing for the list of its term dicts
    {"alpha": [...], "value": ...} in descending-lex order.  A non-finite
    float raises ValueError: the output is always strict JSON."""
    # depth -> alpha -> text of one term dict up to its value,
    # '{"alpha": [...], "value": '; exponents are exact ints (the HomPoly
    # constructor makes them so), so equal keys render alike
    heads: dict[int, dict[tuple, str]] = {}

    def poly(p: HomPoly, depth: int) -> str:
        den, nums = p._terms
        if not nums:
            return "[]"
        at = heads.setdefault(depth, {})
        key_line = "\n" + _INDENT * (depth + 2)
        tail = "\n" + _INDENT * (depth + 1) + "}"
        rational = p.field == RATIONAL
        # an f64 value is the double its view rounds it to
        values = nums if rational else p.coeffs
        out = []
        for alpha in sorted(nums, reverse=True):
            head = at.get(alpha)
            if head is None:
                head = at[alpha] = ("{" + key_line + '"alpha": '
                                    + _block(list(map(str, alpha)), depth + 2, "[]")
                                    + "," + key_line + '"value": ')
            n = values[alpha]
            if rational:
                # _ratio_text inlined: a call per term costs about a seventh
                # of the writer's time on request outputs
                g = math.gcd(n, den)
                try:
                    out.append(f'{head}"{n // g}/{den // g}"{tail}')
                except ValueError:  # past the digit limit of int-to-text
                    out.append(f'{head}"{_int_text(n // g)}/{_int_text(den // g)}"{tail}')
            else:
                out.append(head + _scalar_text(n) + tail)
        return _block(out, depth, "[]")

    def value(o, depth: int) -> str:
        text = _scalar_text(o)
        if text is not None:
            return text
        if type(o) is HomPoly:
            return poly(o, depth)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            return _block([value(x, depth + 1) for x in o], depth, "[]")
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _scalar_from_json(v, field: str):
    if field == RATIONAL:
        # ASCII digits only: int() would also take "1_000", " 2" and "\u0661"
        if not isinstance(v, str) or _RATIO.fullmatch(v) is None:
            raise FieldError(f"rational values must look like 'num/den', got {v!r}")
        num, den = map(_parse_int, v.split("/"))
        if den == 0:
            raise FieldError(f"rational value {v!r} has a zero denominator")
        return Fraction(num, den)
    if not (_is_int(v) or isinstance(v, float)):
        raise FieldError(f"f64 values must be JSON numbers, got {v!r}")
    return _finite_f64(v)


def _ratio_text(num: int, den: int) -> str:
    """"n/d" of num / den (den > 0) in lowest terms, as a Fraction prints it."""
    g = math.gcd(num, den)
    return f"{_int_text(num // g)}/{_int_text(den // g)}"


def polymap_to_obj(P: PolyMap) -> dict:
    return {
        "domain_dim": P.domain_dim,
        "codomain_dim": P.codomain_dim,
        "degree": P.degree,
        "field": P.field,
        "components": list(P.components),
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
    return polymap_from_obj(_json_loads(text))


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
            "theta": _ratio_text(*t.theta.as_integer_ratio()),
            "theta_factored": t.theta_factored,
            "p_alpha": t.p_alpha,
            "psi": [{"composition": list(c), "exponent": e} for c, e in t.psi_powers],
        })
    return {
        "n": exp.n,
        "k": exp.k,
        "rank": exp.rank,
        "domain_dim": exp.source_domain_dim,
        "codomain_dim": exp.source_codomain_dim,
        "degree": exp.source_degree,
        "vectors": [[_ratio_text(*v.as_integer_ratio()) for v in vec] for vec in exp.vectors],
        "terms": terms,
    }
