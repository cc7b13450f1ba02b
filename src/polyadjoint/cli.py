"""Command line interface.

Subcommands:
  verify     run the exact and numeric claim suites, emit a JSON report
  adjoint    materialize the adjoint of a polynomial map read from JSON
  norm       certify sup-norm or adjoint-norm claims for a map from JSON
  decompose  finite-type representation and expansion terms for a map

POLYADJOINT_SEED, POLYADJOINT_TOL, POLYADJOINT_DIMS, POLYADJOINT_FIELD and
POLYADJOINT_RESTARTS supply defaults; explicit flags always win.  --seed,
--tol and --restarts belong to verify and norm, the two commands that run a
numeric search, and --dims and --field to verify; a variable is read only
by a command that takes its flag, so a bad value fails that command alone.

Exit codes: 0 all claims hold, 1 a claim failed, 2 bad input, 3 a size cap
would be exceeded (an input integer longer than the interpreter's limit for
integer string conversion counts as one).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .algebra import F64, RATIONAL
from .adjoint import materialize_adjoint
from .errors import CapacityError, DegenerateInputError, SearchBudgetError
from .finite_type import expand_adjoint, finite_rank_rep
from .norms import NormConfig, check_adjoint_norm, sup_norm
from .serialization import (
    _json_dumps,
    _json_loads,
    expansion_to_obj,
    materialized_to_obj,
    polymap_from_obj,
    sha256_hex,
)
from .suites import SuiteConfig, run_all, report_to_json

# ValueError is the base of every input error and covers a result that
# overflowed to a non-finite float, which the JSON writer refuses
INPUT_ERRORS = (SearchBudgetError, KeyError, TypeError, ValueError, OSError)


def _env_defaults(args: argparse.Namespace, **extra) -> None:
    """Fill each flag left out with POLYADJOINT_<FLAG>, else its fallback:
    the numeric-search flags and any ``extra`` ones, each given as
    flag=(convert, fallback).  Only verify and norm call this, so no other
    command reads the environment; a value that does not convert is bad
    input, and the error names its variable."""
    table = dict(seed=(int, 1729), tol=(float, 1e-6), restarts=(int, 64), **extra)
    for flag, (convert, fallback) in table.items():
        if getattr(args, flag) is not None:
            continue
        name = f"POLYADJOINT_{flag.upper()}"
        raw = os.environ.get(name)
        try:
            value = fallback if raw is None else convert(raw)
        except ValueError as exc:
            raise ValueError(f"bad environment variable {name}={raw!r}: {exc}") from None
        setattr(args, flag, value)


def _parse_dims(raw: str) -> tuple[int, ...]:
    dims = tuple(int(p) for p in raw.split(",") if p.strip())
    if not dims:
        raise ValueError(f"empty dims spec: {raw!r}")
    return dims


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing
    leaves it as it was, so every call can share it."""
    parser = argparse.ArgumentParser(
        prog="polyadjoint",
        description="adjoint calculus for homogeneous polynomial maps")
    sub = parser.add_subparsers(dest="command")

    def out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None,
                       help="write the JSON result here instead of stdout")

    def numeric(p: argparse.ArgumentParser) -> None:
        """The knobs of the sup-norm search; only verify and norm run one.
        A flag left out is filled in by ``_env_defaults``."""
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--restarts", type=int)

    pv = sub.add_parser("verify", help="run every claim suite")
    out(pv)
    numeric(pv)
    pv.add_argument("--dims", type=_parse_dims)
    pv.add_argument("--max-m", type=int, default=2)
    pv.add_argument("--max-n", type=int, default=2)
    pv.add_argument("--max-k", type=int, default=2)
    pv.add_argument("--max-r", type=int, default=2)
    pv.add_argument("--max-s", type=int, default=2)
    pv.add_argument("--trials", type=int, default=20)
    pv.add_argument("--field", choices=("rational", "f64", "both"))

    pa = sub.add_parser("adjoint", help="materialize the adjoint of a map")
    out(pa)
    pa.add_argument("input", help="polynomial-map JSON file, or - for stdin")
    pa.add_argument("--n", type=int, required=True, help="power of the pullback")
    pa.add_argument("--k", type=int, required=True,
                    help="degree of the scalar test polynomials")

    pn = sub.add_parser("norm", help="certify a norm claim for a map")
    out(pn)
    numeric(pn)
    pn.add_argument("input", help="polynomial-map JSON file, or - for stdin")
    pn.add_argument("--claim", choices=("sup", "delta"), default="sup")
    pn.add_argument("--n", type=int, default=1)
    pn.add_argument("--k", type=int, default=1)

    pd = sub.add_parser("decompose",
                        help="finite-type representation and expansion")
    out(pd)
    pd.add_argument("input", help="polynomial-map JSON file, or - for stdin")
    pd.add_argument("--n", type=int, default=1)
    pd.add_argument("--k", type=int, default=1)

    return parser


def _read_input(path: str) -> tuple[dict, bytes]:
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    text = raw.decode("utf-8")
    try:
        return _json_loads(text), raw
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    _env_defaults(args, dims=(_parse_dims, (2, 3)), field=(str, "both"))
    cfg = SuiteConfig(seed=args.seed, dims=tuple(args.dims),
                      max_m=args.max_m, max_n=args.max_n, max_k=args.max_k,
                      max_r=args.max_r, max_s=args.max_s, trials=args.trials,
                      tol=args.tol, restarts=args.restarts, field=args.field)
    report = run_all(cfg)
    for claim in report["claims"]:
        status = "PASS" if claim["passed"] else "FAIL"
        print(f"{status}  {claim['name']}  instances={claim['instances']}  "
              f"max_defect={claim['max_defect']}", file=sys.stderr)
    _emit(report_to_json(report), args.out)
    return 0 if report["passed"] else 1


def cmd_adjoint(args: argparse.Namespace) -> int:
    obj, raw = _read_input(args.input)
    # the map, with the memo of powers it keeps, is freed before the writer
    # runs: the memo holds as many terms as the adjoint
    mat = materialize_adjoint(polymap_from_obj(obj), args.n, args.k)
    out_obj = materialized_to_obj(mat, sha256_hex(raw))
    _emit(_json_dumps(out_obj), args.out)
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    _env_defaults(args)
    obj, _ = _read_input(args.input)
    P = polymap_from_obj(obj)
    if P.field == RATIONAL:
        P = P.as_field(F64)
    cfg = NormConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)
    if args.claim == "sup":
        est = sup_norm(P, cfg)
        out_obj = {
            "claim": "sup_norm",
            "value": est.value,
            "maximizer": list(est.maximizer),
            "lower_bound_certified": est.lower_bound_certified,
            "iterations": est.iterations,
            "method": est.method,
        }
        _emit(_json_dumps(out_obj), args.out)
        return 0
    # the wall time goes to stderr, so same-seed stdout stays byte-identical
    t0 = time.perf_counter()
    rep = check_adjoint_norm(P, args.n, args.k, cfg)
    print(f"wall_ms={(time.perf_counter() - t0) * 1000.0:.3f}", file=sys.stderr)
    _emit(_json_dumps(rep.to_dict()), args.out)
    return 0 if rep.passed else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    obj, _ = _read_input(args.input)
    P = polymap_from_obj(obj)
    rep = finite_rank_rep(P)
    if rep.rank == 0:
        raise DegenerateInputError("the zero map has no finite-type expansion")
    expansion = expand_adjoint(rep, args.n, args.k)
    _emit(_json_dumps(expansion_to_obj(expansion)), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    try:
        # looked up at call time, so a wrapper set on the module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
