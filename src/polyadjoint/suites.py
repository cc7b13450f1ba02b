"""Claim-by-claim verification suites behind the `verify` subcommand.

The exact suite re-proves every algebraic identity of the adjoint calculus
on randomized rational instances (defects must vanish identically); the
numeric suite brackets the norm identities on the float backend at a stated
tolerance.  Every claim draws from its own seeded stream, so reports are
reproducible byte for byte for a fixed configuration.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable

import numpy as np

from .algebra import (
    F64,
    RATIONAL,
    HomPoly,
    PolyMap,
    additivity_defect,
    enumerate_multi_indices,
    polarize,
)
from .adjoint import (
    adjoint_apply,
    composition_identity_defect,
    diagram_defect,
    injectivity_witness,
    inverse_adjoint_defects,
    materialize_adjoint,
    nonadditivity_witness,
)
from .composition import (
    CompositionInstance,
    check_factorization_identities,
    check_linear_recovery,
    check_recovery_identities,
    check_two_sided_norm,
    normalization_witness,
)
from .errors import PreconditionError, SearchBudgetError
from .finite_type import expand_adjoint, expansion_defect, finite_rank_rep
from .linearization import (
    adjoint_matrix,
    adjoint_rank_bound,
    linearization_matrix,
    map_rank,
    tensor_power,
    transpose_identity_defect,
)
from .norms import (
    NormConfig,
    check_adjoint_norm,
    check_embedding_norm,
    check_metric_injection,
    check_norm_duality,
    _np_rng,
    _random_hompoly_f64,
)
from . import sampling

REPORT_SCHEMA = 1


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 1729
    dims: tuple[int, ...] = (2, 3)
    max_m: int = 2
    max_n: int = 2
    max_k: int = 2
    max_r: int = 2
    max_s: int = 2
    trials: int = 20
    tol: float = 1e-6
    restarts: int = 64
    samples: int = 1 << 14
    field: str = "both"

    def __post_init__(self):
        if self.field not in ("rational", "f64", "both"):
            raise PreconditionError(f"field must be rational, f64 or both, got {self.field!r}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise PreconditionError("dims must be positive")
        if min(self.max_m, self.max_n, self.max_k, self.max_r, self.max_s) < 1:
            raise PreconditionError("grid caps must be >= 1")
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        if self.tol < 0:
            raise PreconditionError("tol must be >= 0")

    def norm_config(self) -> NormConfig:
        return NormConfig(restarts=self.restarts, samples=self.samples,
                          tol=self.tol, seed=self.seed)


@dataclass
class ClaimResult:
    name: str
    field: str
    instances: int
    max_defect: str | float
    passed: bool
    details: dict = dataclass_field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "instances": self.instances,
            "max_defect": self.max_defect,
            "passed": self.passed,
            "details": self.details,
        }


def _frac_str(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _dims_cycle(cfg: SuiteConfig, i: int) -> int:
    return cfg.dims[i % len(cfg.dims)]


# -- exact claims -----------------------------------------------------------

def claim_composition_identity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "composition-identity")
    worst = Fraction(0)
    count = 0
    for m in range(1, cfg.max_m + 1):
        for r in range(1, cfg.max_r + 1):
            for n in range(1, cfg.max_n + 1):
                for k in range(1, cfg.max_k + 1):
                    for s in range(1, cfg.max_s + 1):
                        if m * n * k * r * s > 8:
                            continue
                        for t in range(cfg.trials):
                            d = _dims_cycle(cfg, t)
                            e = _dims_cycle(cfg, t + 1)
                            g = _dims_cycle(cfg, t)
                            P = sampling.random_polymap(rng, d, e, m)
                            Q = sampling.random_polymap(rng, e, g, r)
                            q = sampling.random_hompoly(rng, g, k)
                            x = sampling.random_point(rng, d)
                            worst = max(worst, abs(
                                composition_identity_defect(P, Q, n, k, s, q, x)))
                            count += 1
    return ClaimResult("composition_identity", RATIONAL, count,
                       _frac_str(worst), worst == 0)


def claim_diagram_identity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "diagram-identity")
    worst = Fraction(0)
    count = 0
    for m in range(1, cfg.max_m + 1):
        for n in range(1, cfg.max_n + 1):
            for k in range(1, cfg.max_k + 1):
                for r in range(1, cfg.max_r + 1):
                    for s in range(1, cfg.max_s + 1):
                        if m * n * k * r * s > 8:
                            continue
                        for t in range(cfg.trials):
                            d = _dims_cycle(cfg, t)
                            e = _dims_cycle(cfg, t + 1)
                            P = sampling.random_polymap(rng, d, e, m)
                            q = sampling.random_hompoly(rng, e, k)
                            x = sampling.random_point(rng, d)
                            worst = max(worst, abs(
                                diagram_defect(P, n, k, r, s, q, x)))
                            count += 1
    return ClaimResult("diagram_identity", RATIONAL, count,
                       _frac_str(worst), worst == 0)


def claim_additivity_formula(cfg: SuiteConfig) -> ClaimResult:
    """W(x,y) matches both the direct expansion and the binomial sum over
    mixed polarized slots, and vanishes exactly when the degree is one."""
    rng = sampling.rng(cfg.seed, "additivity-defect")
    worst = Fraction(0)
    count = 0
    iff_holds = True
    for m in range(1, 5):
        for t in range(cfg.trials):
            d = _dims_cycle(cfg, t)
            e = _dims_cycle(cfg, t + 1)
            R = sampling.random_polymap(rng, d, e, m)
            W = additivity_defect(R)
            if m == 1 and not W.is_zero:
                iff_holds = False
            if m > 1 and not R.is_zero and W.is_zero:
                # mixed terms exist for every nonzero map of degree > 1
                iff_holds = False
            x = sampling.random_point(rng, d)
            y = sampling.random_point(rng, d)
            direct = tuple(c.eval(tuple(x) + tuple(y)) for c in W.components)
            expansion = tuple(R.eval_map(tuple(a + b for a, b in zip(x, y)))[i]
                              - R.eval_map(x)[i] - R.eval_map(y)[i]
                              for i in range(e))
            via_polar = []
            for comp in R.components:
                form = polarize(comp)
                v = Fraction(0)
                for j in range(1, m):
                    v += math.comb(m, j) * form.apply([x] * j + [y] * (m - j))
                via_polar.append(v)
            for i in range(e):
                worst = max(worst, abs(direct[i] - expansion[i]))
                worst = max(worst, abs(direct[i] - via_polar[i]))
            count += 1
    return ClaimResult("additivity_defect_formula", RATIONAL, count,
                       _frac_str(worst), worst == 0 and iff_holds,
                       {"zero_iff_linear": iff_holds})


def claim_homogeneity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "homogeneity")
    lambdas = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3))
    worst = Fraction(0)
    count = 0
    for m in range(1, cfg.max_m + 1):
        for n in range(1, cfg.max_n + 1):
            for k in range(1, cfg.max_k + 1):
                if m * n * k > 8:
                    continue
                for t in range(cfg.trials):
                    d = _dims_cycle(cfg, t)
                    e = _dims_cycle(cfg, t + 1)
                    P = sampling.random_polymap(rng, d, e, m)
                    base = materialize_adjoint(P, n, k)
                    q = sampling.random_hompoly(rng, e, k)
                    x = sampling.random_point(rng, d)
                    for lam in lambdas:
                        scaled = materialize_adjoint(P.scale(lam), n, k)
                        diff = scaled.polymap - base.polymap.scale(lam ** (k * n))
                        if not diff.is_zero:
                            worst = max(worst, max(abs(c) for comp in diff.components
                                                   for c in comp.coeffs.values()))
                        pointwise = (adjoint_apply(P.scale(lam), n, k, q).eval(x)
                                     - lam ** (k * n) * adjoint_apply(P, n, k, q).eval(x))
                        worst = max(worst, abs(pointwise))
                        count += 1
    return ClaimResult("adjoint_homogeneity", RATIONAL, count,
                       _frac_str(worst), worst == 0,
                       {"lambdas": [str(l) for l in lambdas]})


def claim_nonadditivity(cfg: SuiteConfig) -> ClaimResult:
    """Witnesses must exist whenever kn > 1; for k = n = 1 the adjoint is
    additive in the map on 100 random instances."""
    rng = sampling.rng(cfg.seed, "nonadditivity")
    found = {}
    ok = True
    count = 0
    for k in range(1, 7):
        for n in range(1, 7):
            if k * n > 6 or (k, n) == (1, 1):
                continue
            try:
                _, _, _, _, val = nonadditivity_witness(1, n, k)
                found[f"k={k},n={n}"] = _frac_str(val)
            except SearchBudgetError:
                found[f"k={k},n={n}"] = "NOT FOUND"
                ok = False
            count += 1
    worst = Fraction(0)
    for t in range(100):
        d = _dims_cycle(cfg, t)
        e = _dims_cycle(cfg, t + 1)
        m = 1 + (t % 2)
        P = sampling.random_polymap(rng, d, e, m)
        Q = sampling.random_polymap(rng, d, e, m)
        q = sampling.random_hompoly(rng, e, 1)
        diff = (adjoint_apply(P + Q, 1, 1, q)
                - adjoint_apply(P, 1, 1, q) - adjoint_apply(Q, 1, 1, q))
        if not diff.is_zero:
            worst = max(worst, max(abs(c) for c in diff.coeffs.values()))
        count += 1
    return ClaimResult("adjoint_nonadditivity", RATIONAL, count,
                       _frac_str(worst), ok and worst == 0,
                       {"witness_defects": found})


def claim_linearization_transpose(cfg: SuiteConfig) -> ClaimResult:
    """The adjoint matrix is the transpose of the linearization matrix, and
    the linearization matrix sends x^(tensor mk) to P(x)^(tensor k) at a
    random rational point.  Both matrices expand P^beta with the same code;
    the point check compares against direct evaluation of P instead."""
    rng = sampling.rng(cfg.seed, "linearization-transpose")
    points = sampling.rng(cfg.seed, "linearization-intertwining")
    worst = Fraction(0)
    count = 0
    for d in cfg.dims:
        for e in cfg.dims:
            for m in range(1, min(cfg.max_m, 2) + 1):
                for k in range(1, min(cfg.max_k, 2) + 1):
                    for _ in range(cfg.trials):
                        P = sampling.random_polymap(rng, d, e, m)
                        defect = transpose_identity_defect(P, k)
                        if not defect.is_zero:
                            worst = max(worst, defect.max_abs())
                        x = sampling.random_point(points, d)
                        image = linearization_matrix(P, k).apply(tensor_power(x, m * k))
                        for got, want in zip(image, tensor_power(P.eval_map(x), k)):
                            worst = max(worst, abs(got - want))
                        count += 1
    return ClaimResult("linearization_transpose", RATIONAL, count,
                       _frac_str(worst), worst == 0)


def claim_rank_bound(cfg: SuiteConfig) -> ClaimResult:
    """rank(adjoint matrix) <= C(rank(P)+k-1, k) on random maps, with
    equality to the full column dimension for surjective linear maps."""
    rng = sampling.rng(cfg.seed, "rank-bound")
    ok = True
    count = 0
    surjective_ok = True
    for d in cfg.dims:
        for e in cfg.dims:
            for m in range(1, min(cfg.max_m, 2) + 1):
                for k in range(1, max(cfg.max_k, 3) + 1):
                    for _ in range(cfg.trials):
                        P = sampling.random_polymap(rng, d, e, m)
                        if adjoint_matrix(P, k).rank() > adjoint_rank_bound(P, k):
                            ok = False
                        count += 1
    for k in range(1, min(cfg.max_k, 3) + 1):
        for _ in range(cfg.trials):
            d = max(cfg.dims)
            e = min(cfg.dims)
            rows = [sampling.random_point(rng, d, max_num=4, max_den=1) for _ in range(e)]
            u = PolyMap.from_matrix(rows)
            if map_rank(u) < e:
                continue  # not surjective; skip the draw
            if adjoint_matrix(u, k).rank() != math.comb(e + k - 1, k):
                surjective_ok = False
            count += 1
    return ClaimResult("adjoint_rank_bound", RATIONAL, count, "0/1",
                       ok and surjective_ok,
                       {"surjective_full_rank": surjective_ok})


def claim_finite_type(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "finite-type")
    worst = Fraction(0)
    count = 0
    term_counts_ok = True
    for l in range(1, 4):
        for k in range(1, max(cfg.max_k, 3) + 1):
            for n in range(1, min(cfg.max_n, 2) + 1):
                m = 2 if 2 * n * k <= 8 else 1
                for _ in range(cfg.trials):
                    d = _dims_cycle(cfg, count)
                    while math.comb(d + m - 1, m) < l:
                        d += 1
                    basis = enumerate_multi_indices(d, m)
                    B = sampling.random_invertible_matrix(rng, l)
                    comps = []
                    for i in range(l):
                        coeffs = {}
                        for j in range(l):
                            c = sampling.random_fraction(rng)
                            scale = c if c != 0 else Fraction(1)
                            coeffs[basis[j]] = coeffs.get(basis[j], Fraction(0)) + B[i][j] * scale
                        comps.append(HomPoly(d, m, coeffs))
                    P = PolyMap(tuple(comps))
                    rep = finite_rank_rep(P)
                    if rep.rank < 1:
                        continue
                    exp = expand_adjoint(rep, n, k)
                    expected_terms = math.comb(
                        math.comb(k + rep.rank - 1, rep.rank - 1) + n - 1, n)
                    if len(exp.terms) != expected_terms:
                        term_counts_ok = False
                    worst = max(worst, expansion_defect(exp, P, n, k, trials=3,
                                                        seed=cfg.seed + count))
                    count += 1
    return ClaimResult("finite_type_expansion", RATIONAL, count,
                       _frac_str(worst), worst == 0 and term_counts_ok,
                       {"term_count_formula": term_counts_ok})


def claim_inverse_identity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "inverse-identity")
    worst = Fraction(0)
    count = 0
    for d in cfg.dims:
        for k in range(1, max(cfg.max_k, 3) + 1):
            for _ in range(cfg.trials):
                u = PolyMap.from_matrix(sampling.random_invertible_matrix(rng, d))
                da, db = inverse_adjoint_defects(u, k)
                if not da.is_zero:
                    worst = max(worst, da.max_abs())
                if not db.is_zero:
                    worst = max(worst, db.max_abs())
                count += 1
    return ClaimResult("inverse_identity", RATIONAL, count,
                       _frac_str(worst), worst == 0)


def claim_injectivity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "injectivity")
    pairs = ((1, 1), (3, 1), (1, 3))
    separated = 0
    count = 0
    for t in range(100):
        k, n = pairs[t % len(pairs)]
        d = _dims_cycle(cfg, t)
        e = _dims_cycle(cfg, t + 1)
        m = 1 + (t % 2)
        P1 = sampling.random_polymap(rng, d, e, m)
        P2 = sampling.random_polymap(rng, d, e, m)
        if P1 == P2:
            P2 = P2 + PolyMap(tuple(
                HomPoly.monomial(d, tuple([m] + [0] * (d - 1)), 1)
                for _ in range(e)))
        witness = injectivity_witness(P1, P2, n, k)
        count += 1
        if witness is None:
            continue
        q, x0 = witness
        if adjoint_apply(P1, n, k, q).eval(x0) != adjoint_apply(P2, n, k, q).eval(x0):
            separated += 1
    return ClaimResult("injectivity_separation", RATIONAL, count, "0/1",
                       separated == count, {"separated": separated})


def claim_factorizations(cfg: SuiteConfig) -> ClaimResult:
    """The five exact factorization identities of the two-sided composition
    operator: the two recovery identities, the rank-one factorization, the
    sandwich conjugation and the scalar unit identity."""
    rng = sampling.rng(cfg.seed, "factorizations")
    names = ("recovery_a", "recovery_b", "rank_one", "sandwich", "unit")
    worst: dict[str, Fraction] = {nm: Fraction(0) for nm in names}
    worst["linear_recovery"] = Fraction(0)
    count = 0
    dim = min(2, min(cfg.dims))
    for m in range(1, min(cfg.max_m, 2) + 1):
        for r in range(1, min(cfg.max_r, 2) + 1):
            for s in range(1, min(cfg.max_s, 2) + 1):
                for _ in range(cfg.trials):
                    B = sampling.random_polymap(rng, dim, dim, s)
                    while B.is_zero:
                        B = sampling.random_polymap(rng, dim, dim, s)
                    R = sampling.random_polymap(rng, dim, dim, r)
                    phi, z_a = normalization_witness(B)
                    if R.is_zero:
                        continue  # no normalization exists
                    psi, z_b = normalization_witness(R)
                    inst = CompositionInstance(R, B, m)
                    test_points = [sampling.random_point(rng, dim) for _ in range(4)]
                    test_forms = [sampling.random_nonzero_hompoly(rng, dim, 1)
                                  for _ in range(4)]
                    da, db = check_recovery_identities(inst, phi, z_a, psi, z_b,
                                                       test_points, test_forms)
                    worst["recovery_a"] = max(worst["recovery_a"], da)
                    worst["recovery_b"] = max(worst["recovery_b"], db)
                    if r == 1:
                        test_qs = [sampling.random_hompoly(rng, dim, m) for _ in range(3)]
                        worst["linear_recovery"] = max(
                            worst["linear_recovery"],
                            check_linear_recovery(inst, psi, z_b, test_qs))
                    phi_e = sampling.random_nonzero_hompoly(rng, dim, 1)
                    b_vec = sampling.random_nonzero_point(rng, dim)
                    A = sampling.random_polymap(rng, dim, dim, 1)
                    R_mid = sampling.random_polymap(rng, dim, dim, r)
                    C = sampling.random_polymap(rng, dim, dim, 1)
                    test_maps = [sampling.random_polymap(rng, dim, dim, m)
                                 for _ in range(3)]
                    defects = check_factorization_identities(
                        m, B, phi_e, b_vec, A, R_mid, C, R,
                        test_maps, test_points)
                    for nm in ("rank_one", "sandwich", "unit"):
                        worst[nm] = max(worst[nm], defects[nm])
                    count += 1
    overall = max(worst.values())
    return ClaimResult("factorization_identities", RATIONAL, count,
                       _frac_str(overall), overall == 0,
                       {nm: _frac_str(v) for nm, v in worst.items()})


# -- numeric claims ---------------------------------------------------------

def _random_f64_map(rng: np.random.Generator, d: int, e: int, m: int) -> PolyMap:
    return PolyMap(tuple(_random_hompoly_f64(rng, d, m) for _ in range(e)))


def _tolerance_flag(details: dict, cfg: SuiteConfig, rel_err: float) -> None:
    if cfg.tol == 0 and rel_err <= 1e-9:
        details["tolerance_bound"] = True


def claim_norm_duality(cfg: SuiteConfig) -> ClaimResult:
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "norm-duality-x")
    worst = 0.0
    count = 0
    all_pass = True
    for t in range(50):
        d = _dims_cycle(cfg, t)
        m = 1 + t % 3
        x = rng.standard_normal(d)
        while float(np.abs(x).max()) < 1e-6:
            x = rng.standard_normal(d)
        rep = check_norm_duality([float(v) for v in x], m, ncfg)
        worst = max(worst, rep.rel_err,
                    max(0.0, rep.details["attaining_sup_norm"] - 1.0))
        all_pass = all_pass and rep.passed
        count += 1
    details = {"worst_rel_err": worst}
    _tolerance_flag(details, cfg, worst)
    return ClaimResult("norm_duality", F64, count, worst, all_pass, details)


def claim_adjoint_norm(cfg: SuiteConfig) -> ClaimResult:
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "adjoint-norm-P")
    worst = 0.0
    count = 0
    all_pass = True
    for m in range(1, min(cfg.max_m, 2) + 1):
        for n, k in ((1, 1), (1, 2), (2, 1)):
            P = _random_f64_map(rng, 2, 2, m)
            rep = check_adjoint_norm(P, n, k, ncfg, q_trials=100)
            worst = max(worst, rep.rel_err)
            all_pass = all_pass and rep.passed
            count += 1
    details = {"worst_rel_err": worst, "q_trials": 100}
    _tolerance_flag(details, cfg, worst)
    return ClaimResult("adjoint_norm", F64, count, worst, all_pass, details)


def claim_embedding_norm(cfg: SuiteConfig) -> ClaimResult:
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "embedding-norm-x")
    worst = 0.0
    count = 0
    all_pass = True
    for m in range(1, min(cfg.max_m, 2) + 1):
        for n in range(1, min(cfg.max_n, 2) + 1):
            for t in range(20):
                d = 3 if t % 5 == 4 else 2
                x = rng.standard_normal(d)
                while float(np.abs(x).max()) < 1e-6:
                    x = rng.standard_normal(d)
                rep = check_embedding_norm([float(v) for v in x], m, n, ncfg,
                                           q_trials=12)
                worst = max(worst, rep.rel_err)
                all_pass = all_pass and rep.passed
                count += 1
    details = {"worst_rel_err": worst}
    _tolerance_flag(details, cfg, worst)
    return ClaimResult("embedding_norm", F64, count, worst, all_pass, details)


def claim_metric_injection(cfg: SuiteConfig) -> ClaimResult:
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "metric-injection")
    drop_last = PolyMap.from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], F64)
    worst = 0.0
    count = 0
    all_pass = True
    for t in range(20):
        k = 1 + t % 3
        if t % 2 == 0:
            proj = drop_last
        else:
            # orthonormal rows from a seeded QR factorization
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            proj = PolyMap.from_matrix([[float(v) for v in Q[:, 0]],
                                        [float(v) for v in Q[:, 1]]], F64)
        q = _random_hompoly_f64(rng, 2, k)
        rep = check_metric_injection(proj, q, ncfg)
        worst = max(worst, rep.rel_err)
        all_pass = all_pass and rep.passed
        count += 1
    details = {"worst_rel_err": worst}
    _tolerance_flag(details, cfg, worst)
    return ClaimResult("metric_injection", F64, count, worst, all_pass, details)


def claim_two_sided_bound(cfg: SuiteConfig) -> ClaimResult:
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "two-sided")
    worst_violation = 0.0
    count = 0
    all_pass = True
    degs = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2), (2, 1, 2))
    for t in range(20):
        kr, mp, nq = degs[t % len(degs)]
        R = _random_f64_map(rng, 2, 2, kr)
        P = _random_f64_map(rng, 2, 2, mp)
        Q = _random_f64_map(rng, 2, 2, nq)
        rep = check_two_sided_norm(R, P, Q, ncfg)
        worst_violation = max(worst_violation, max(0.0, -rep.details["slack"]))
        all_pass = all_pass and rep.passed
        count += 1
    return ClaimResult("two_sided_bound", F64, count, worst_violation, all_pass,
                       {"worst_violation": worst_violation})


EXACT_CLAIMS: tuple[Callable[[SuiteConfig], ClaimResult], ...] = (
    claim_composition_identity,
    claim_diagram_identity,
    claim_additivity_formula,
    claim_homogeneity,
    claim_nonadditivity,
    claim_linearization_transpose,
    claim_rank_bound,
    claim_finite_type,
    claim_inverse_identity,
    claim_injectivity,
    claim_factorizations,
)

NUMERIC_CLAIMS: tuple[Callable[[SuiteConfig], ClaimResult], ...] = (
    claim_norm_duality,
    claim_adjoint_norm,
    claim_embedding_norm,
    claim_metric_injection,
    claim_two_sided_bound,
)


def run_exact_suite(cfg: SuiteConfig) -> list[ClaimResult]:
    return [claim(cfg) for claim in EXACT_CLAIMS]


def run_numeric_suite(cfg: SuiteConfig) -> list[ClaimResult]:
    return [claim(cfg) for claim in NUMERIC_CLAIMS]


def run_all(cfg: SuiteConfig) -> dict:
    claims: list[ClaimResult] = []
    if cfg.field in ("rational", "both"):
        claims.extend(run_exact_suite(cfg))
    if cfg.field in ("f64", "both"):
        claims.extend(run_numeric_suite(cfg))
    return {
        "schema": REPORT_SCHEMA,
        "config": {
            "seed": cfg.seed,
            "dims": list(cfg.dims),
            "max_m": cfg.max_m,
            "max_n": cfg.max_n,
            "max_k": cfg.max_k,
            "max_r": cfg.max_r,
            "max_s": cfg.max_s,
            "trials": cfg.trials,
            "tol": cfg.tol,
            "restarts": cfg.restarts,
            "samples": cfg.samples,
            "field": cfg.field,
        },
        "claims": [c.to_obj() for c in claims],
        "passed": all(c.passed for c in claims),
    }


def report_to_json(report: dict) -> str:
    """Deterministic serialization: fixed key order, no timestamps."""
    return json.dumps(report, indent=2, sort_keys=True)
