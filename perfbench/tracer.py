"""Layer spans recorded from outside the program.

`Tracer.install` wraps the public functions and methods of each polyadjoint
layer in spans; `Tracer.uninstall` puts the originals back.
A span records its call count, its total duration and its self time: the
duration minus the time its child spans cover.  A function bound into
another module by `from .x import f` is replaced wherever it is bound, so
every call path is seen.  Targets that a later version of the program no
longer has are skipped and listed in `Tracer.missing`.

Spans are aggregated by name as they close (no per-call records are kept),
so memory stays flat however many calls a pass makes.
"""
from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from collections import defaultdict
from fractions import Fraction


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs.values():
        if isinstance(c, Fraction):
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def metric_name(text: str) -> str:
    """Replace characters outside [A-Za-z0-9_.-] so a label can be a metric name."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", text)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name, fn, post=None):
        """Wrap fn in a span; name may be a function of the call's arguments.
        post(result, args) runs after the span closes and before the parent
        resumes, so its cost counts for neither.  With name None there is no
        span: post only counts, and the time stays with the caller."""
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                post(result, args)
                return result
            return counted
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack.append(0.0)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                child = stack.pop()
                calls[label] += 1
                total_s[label] += t1 - t0
                self_s[label] += t1 - t0 - child
                if ok and post is not None:
                    post(result, args)
                if stack:
                    stack[-1] += clock() - t0
            return result

        return wrapper

    def patch(self, owner, attr: str, name, post=None) -> None:
        """Replace owner.attr by a span; a module-level function is replaced
        in every polyadjoint module that binds it."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(label)
            return
        if inspect.isgeneratorfunction(original):
            return  # its work happens after the call returns
        wrapper = self.span(name, original, post)
        targets = [owner]
        if inspect.ismodule(owner):
            targets = [mod for key, mod in list(sys.modules.items())
                       if key.split(".")[0] == "polyadjoint" and mod is not None]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, key, original))
                    setattr(target, key, wrapper)

    def install(self) -> None:
        """Wrap every layer of the imported polyadjoint package.  Installing
        again after `uninstall` keeps adding to the same totals."""
        from polyadjoint import (adjoint, algebra, cli, composition, finite_type,
                                 linearization, norms, sampling, serialization, suites)

        self.missing.clear()

        def coeff_bits(result, args):
            if isinstance(result, algebra.HomPoly):
                self.maxima["algebra.max_coeff_bits"] = max(
                    self.maxima["algebra.max_coeff_bits"], _coeff_bits(result))

        def materialized(result, args):
            space = max(len(result.domain_basis), len(result.codomain_basis))
            self.maxima["adjoint.max_space"] = max(self.maxima["adjoint.max_space"], space)

        def estimate(result, args):
            self.counters["norms.ascent_iterations"] += result.iterations
            self.counters[f"norms.method.{metric_name(result.method)}.calls"] += 1

        def sup_norm_name(args):
            P = args[0]
            d = P.domain_dim
            return "norms.sup_norm.d1" if d == 1 else (
                "norms.sup_norm.d2" if d == 2 else "norms.sup_norm.d3plus")

        def sobol(result, args):
            self.counters["norms.sobol_points_total"] += len(result)

        HomPoly = algebra.HomPoly
        self.patch(HomPoly, "__mul__", "algebra.mul", coeff_bits)
        self.patch(HomPoly, "__add__", "algebra.add", coeff_bits)
        self.patch(HomPoly, "__pow__", "algebra.pow")
        self.patch(HomPoly, "scale", "algebra.scale")
        self.patch(HomPoly, "eval", "algebra.eval")
        self.patch(algebra.SymForm, "apply", "algebra.symform_apply")
        self.patch(algebra, "compose_scalar", "algebra.compose_scalar", coeff_bits)
        for fn in ("compose_map", "polarize", "additivity_defect"):
            self.patch(algebra, fn, "algebra.other")

        self.patch(adjoint, "materialize_adjoint", "adjoint.materialize", materialized)
        self.patch(adjoint, "adjoint_apply", "adjoint.apply")
        self.patch(adjoint, "evaluation_embedding", "adjoint.evaluation_embedding")
        self.patch(adjoint.MaterializedAdjoint, "apply_to", "adjoint.other")
        for fn in ("composition_identity_defect", "diagram_defect",
                   "inverse_adjoint_defects", "injectivity_witness", "nonadditivity_witness"):
            self.patch(adjoint, fn, "adjoint.other")

        LinearMap = linearization.LinearMap
        self.patch(LinearMap, "rank", "linearization.rank")
        self.patch(LinearMap, "inverse", "linearization.inverse")
        self.patch(LinearMap, "__matmul__", "linearization.matmul")
        self.patch(linearization, "adjoint_matrix", "linearization.adjoint_matrix")
        self.patch(linearization, "linearization_matrix", "linearization.linearization_matrix")
        for fn in ("transpose_identity_defect", "coefficient_matrix", "map_rank",
                   "adjoint_rank_bound", "tensor_power", "relabeling_map", "linearize"):
            self.patch(linearization, fn, "linearization.other")

        self.patch(finite_type, "finite_rank_rep", "finite_type.rep")
        self.patch(finite_type, "expand_adjoint", "finite_type.expand")
        self.patch(finite_type, "expansion_defect", "finite_type.expansion_defect")
        self.patch(finite_type.FiniteTypeExpansion, "evaluate", "finite_type.other")
        self.patch(finite_type, "multilinear_functional", "finite_type.other")

        for fn, value in list(vars(composition).items()):
            if inspect.isfunction(value) and value.__module__ == composition.__name__ \
                    and not fn.startswith("_"):
                self.patch(composition, fn, "composition.checks")

        self.patch(norms, "sup_norm", sup_norm_name, estimate)
        # a counter, not a span: splitting sup_norm's time needs spans inside it
        self.patch(norms, "_sphere_samples", None, sobol)
        for fn in ("check_norm_duality", "check_adjoint_norm", "check_embedding_norm",
                   "check_metric_injection", "norming_functional"):
            self.patch(norms, fn, "norms.other")

        for module, name in ((sampling, "sampling"), (serialization, "serialization")):
            for fn, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__ \
                        and not fn.startswith("_"):
                    self.patch(module, fn, name)

        # run_exact_suite and run_numeric_suite read these tuples at call time
        for attr in ("EXACT_CLAIMS", "NUMERIC_CLAIMS"):
            claims = getattr(suites, attr, None)
            if claims is None:
                self.missing.append(f"suites.{attr}")
                continue
            wrapped = tuple(self.span(f"suites.claim.{c.__name__.removeprefix('claim_')}", c)
                            for c in claims)
            self._restore.append((suites, attr, claims))
            setattr(suites, attr, wrapped)

        self.patch(cli, "main", "cli.main")
        for fn in ("cmd_verify", "cmd_adjoint", "cmd_norm", "cmd_decompose"):
            self.patch(cli, fn, "cli.command")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def stats(self) -> dict:
        return {
            "spans": {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                          "total_s": self.total_s[k]} for k in sorted(self.calls)},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "missing": list(self.missing),
        }
