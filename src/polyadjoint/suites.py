"""Claim-by-claim verification suites behind the `verify` subcommand.

The exact suite re-proves every algebraic identity of the adjoint calculus
on randomized rational instances (defects must vanish identically); the
numeric suite brackets the norm identities on the float backend at a stated
tolerance.  Every claim draws from its own seeded stream, so reports are
reproducible byte for byte for a fixed configuration.

Each claim draws its instances over a parameter grid (`_grid`) and folds
them once per field: an exact claim yields one defect per instance to
`_exact_claim`, a failed side condition counting as a defect of 1, and a
numeric claim one `Report` per instance to `_numeric_fold`.  The duality,
metric-injection and two-sided claims draw every instance first, in the
order they always drew them, and check them all in one call, which norms
their maps in one `sup_norms` call.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import (F64, RATIONAL, HomPoly, PolyMap, Scalar, additivity_defect,
                      enumerate_multi_indices, polarize)
from .adjoint import (adjoint_apply, composition_identity_defect, diagram_defect,
                      injectivity_witness, inverse_adjoint_defects, materialize_adjoint,
                      nonadditivity_witness)
from .composition import (CompositionInstance, check_factorization_identities,
                          check_linear_recovery, check_recovery_identities,
                          check_two_sided_norm, normalization_witness)
from .errors import PreconditionError, SearchBudgetError
from .finite_type import expand_adjoint, expansion_defect, finite_rank_rep
from .linearization import (adjoint_matrix, adjoint_rank_bound, linearization_matrix,
                            map_rank, tensor_power)
from .norms import (NormConfig, Report, check_adjoint_norm, check_embedding_norm,
                    check_metric_injection, check_norm_duality)
from . import sampling
from .sampling import (_np_rng, _random_f64_map, _random_hompoly_f64,
                       _random_nonzero_f64_point)
from .serialization import _json_dumps, _ratio_text

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
    # the pass's NormConfig states these three defaults and checks them
    tol: float = NormConfig.tol
    restarts: int = NormConfig.restarts
    samples: int = NormConfig.samples
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
        self.norm_config()

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
        return asdict(self)


def _frac_str(x: Fraction | int) -> str:
    return _ratio_text(*x.as_integer_ratio())


def _dims_cycle(cfg: SuiteConfig, i: int) -> int:
    return cfg.dims[i % len(cfg.dims)]


def _grid(*caps: int, limit: int | None = None) -> Iterator[tuple[int, ...]]:
    """Parameter tuples whose i-th entry runs over 1..caps[i], in nested-loop
    order (the last entry fastest); with ``limit``, only the tuples whose
    product is at most ``limit``."""
    for params in itertools.product(*(range(1, cap + 1) for cap in caps)):
        if limit is None or math.prod(params) <= limit:
            yield params


def _exact_fold(defects: Iterable[Scalar]) -> tuple[Fraction, int]:
    """The worst |defect| over the instances, and how many there were."""
    worst, count = Fraction(0), 0
    for count, defect in enumerate(defects, 1):
        worst = max(worst, abs(defect))
    return worst, count


def _exact_claim(name: str, defects: Iterable[Scalar], details: dict | None = None,
                 **flags: list[bool]) -> ClaimResult:
    """Fold ``defects``; each flag holds when every instance met that side
    condition (the lists fill in while the fold draws the instances) and
    joins ``details``.  The claim passes when the worst defect is zero and
    every flag holds."""
    worst, count = _exact_fold(defects)
    held = {key: all(hits) for key, hits in flags.items()}
    return ClaimResult(name, RATIONAL, count, _frac_str(worst),
                       worst == 0 and all(held.values()), {**(details or {}), **held})


# -- exact claims -----------------------------------------------------------

def claim_composition_identity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "composition-identity")

    def defects():
        for m, r, n, k, s in _grid(cfg.max_m, cfg.max_r, cfg.max_n, cfg.max_k,
                                   cfg.max_s, limit=8):
            for t in range(cfg.trials):
                d, e = _dims_cycle(cfg, t), _dims_cycle(cfg, t + 1)
                P = sampling.random_polymap(rng, d, e, m)
                Q = sampling.random_polymap(rng, e, d, r)
                q = sampling.random_hompoly(rng, d, k)
                x = sampling.random_point(rng, d)
                yield composition_identity_defect(P, Q, n, k, s, q, x)

    return _exact_claim("composition_identity", defects())


def claim_diagram_identity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "diagram-identity")

    def defects():
        for m, n, k, r, s in _grid(cfg.max_m, cfg.max_n, cfg.max_k, cfg.max_r,
                                   cfg.max_s, limit=8):
            for t in range(cfg.trials):
                d, e = _dims_cycle(cfg, t), _dims_cycle(cfg, t + 1)
                P = sampling.random_polymap(rng, d, e, m)
                q = sampling.random_hompoly(rng, e, k)
                x = sampling.random_point(rng, d)
                yield diagram_defect(P, n, k, r, s, q, x)

    return _exact_claim("diagram_identity", defects())


def claim_additivity_formula(cfg: SuiteConfig) -> ClaimResult:
    """W(x,y) matches both the direct expansion and the binomial sum over
    mixed polarized slots, and vanishes exactly when the degree is one."""
    rng = sampling.rng(cfg.seed, "additivity-defect")
    zero_iff_linear: list[bool] = []

    def defects():
        for m in range(1, 5):
            for t in range(cfg.trials):
                d, e = _dims_cycle(cfg, t), _dims_cycle(cfg, t + 1)
                R = sampling.random_polymap(rng, d, e, m)
                W = additivity_defect(R)
                # random maps are never zero, and every nonzero map of
                # degree > 1 has mixed terms
                zero_iff_linear.append(W.is_zero == (m == 1))
                x = sampling.random_point(rng, d)
                y = sampling.random_point(rng, d)
                direct = W.eval_map(tuple(x) + tuple(y))
                expansion = [s - a - b for s, a, b in zip(
                    R.eval_map(tuple(a + b for a, b in zip(x, y))),
                    R.eval_map(x), R.eval_map(y))]
                forms = [polarize(comp) for comp in R.components]
                via_polar = [sum((math.comb(m, j) * form.apply([x] * j + [y] * (m - j))
                                  for j in range(1, m)), Fraction(0))
                             for form in forms]
                yield max(max(abs(w - a), abs(w - b))
                          for w, a, b in zip(direct, expansion, via_polar))

    return _exact_claim("additivity_defect_formula", defects(),
                        zero_iff_linear=zero_iff_linear)


def claim_homogeneity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "homogeneity")
    lambdas = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3))

    def defects():
        for m, n, k in _grid(cfg.max_m, cfg.max_n, cfg.max_k, limit=8):
            for t in range(cfg.trials):
                d, e = _dims_cycle(cfg, t), _dims_cycle(cfg, t + 1)
                P = sampling.random_polymap(rng, d, e, m)
                base = materialize_adjoint(P, n, k)
                q = sampling.random_hompoly(rng, e, k)
                x = sampling.random_point(rng, d)
                value = adjoint_apply(P, n, k, q).eval(x)
                # q(P(x))^n evaluates no product polynomial, so a wrong
                # expansion, which both sides below share, shows here
                direct = abs(value - q.eval(P.eval_map(x)) ** n)
                for lam in lambdas:
                    P_lam, weight = P.scale(lam), lam ** (k * n)
                    scaled = materialize_adjoint(P_lam, n, k)
                    pointwise = adjoint_apply(P_lam, n, k, q).eval(x) - weight * value
                    yield max((scaled.polymap - base.polymap.scale(weight)).max_abs(),
                              abs(pointwise), direct)

    return _exact_claim("adjoint_homogeneity", defects(),
                        {"lambdas": [str(l) for l in lambdas]})


def claim_nonadditivity(cfg: SuiteConfig) -> ClaimResult:
    """Witnesses must exist whenever kn > 1, and a missing one is a defect
    of 1, as is any error of a witness's value against q(P(x) + Q(x))^n -
    q(P(x))^n - q(Q(x))^n, evaluated directly at its point x, without the
    adjoint's expansion; for k = n = 1 the adjoint is additive in the map on
    100 random instances."""
    rng = sampling.rng(cfg.seed, "nonadditivity")

    def witness(k: int, n: int) -> tuple[str, Fraction | int]:
        """The witness's value, or "NOT FOUND", and its defect."""
        try:
            P, Q, q, x, val = nonadditivity_witness(1, n, k)
        except SearchBudgetError:
            return "NOT FOUND", 1
        p, r = P.eval_map(x), Q.eval_map(x)
        direct = q.eval([a + b for a, b in zip(p, r)]) ** n - q.eval(p) ** n - q.eval(r) ** n
        return _frac_str(val), abs(val - direct)

    witnesses = {f"k={k},n={n}": witness(k, n)
                 for k, n in _grid(6, 6, limit=6) if (k, n) != (1, 1)}
    found = {key: text for key, (text, _) in witnesses.items()}

    def defects():
        for _, defect in witnesses.values():
            yield defect
        for t in range(100):
            d, e = _dims_cycle(cfg, t), _dims_cycle(cfg, t + 1)
            m = 1 + (t % 2)
            P = sampling.random_polymap(rng, d, e, m)
            Q = sampling.random_polymap(rng, d, e, m)
            q = sampling.random_hompoly(rng, e, 1)
            yield (adjoint_apply(P + Q, 1, 1, q)
                   - adjoint_apply(P, 1, 1, q) - adjoint_apply(Q, 1, 1, q)).max_abs()

    return _exact_claim("adjoint_nonadditivity", defects(), {"witness_defects": found})


def claim_linearization_transpose(cfg: SuiteConfig) -> ClaimResult:
    """The adjoint matrix is the transpose of the linearization matrix, and
    the linearization matrix sends x^(tensor mk) to P(x)^(tensor k) at a
    random rational point.  Both matrices read the same memoized P^beta
    objects (``map_powers``), so the transpose comparison checks only what
    lies between those and the matrices: the accumulation in
    ``compose_scalar`` that builds each adjoint column, and
    ``coefficient_matrix`` and ``transpose``.  A fault in the products
    themselves reaches both sides alike; the point check, which compares
    against direct evaluation of P, is the one that catches it."""
    rng = sampling.rng(cfg.seed, "linearization-transpose")
    points = sampling.rng(cfg.seed, "linearization-intertwining")

    def defects():
        for d, e, (m, k) in itertools.product(
                cfg.dims, cfg.dims, _grid(cfg.max_m, cfg.max_k)):
            for _ in range(cfg.trials):
                P = sampling.random_polymap(rng, d, e, m)
                L = linearization_matrix(P, k)
                x = sampling.random_point(points, d)
                image = L.apply(tensor_power(x, m * k))
                yield max((adjoint_matrix(P, k) - L.transpose()).max_abs(),
                          *(abs(got - want) for got, want
                            in zip(image, tensor_power(P.eval_map(x), k))))

    return _exact_claim("linearization_transpose", defects())


def claim_rank_bound(cfg: SuiteConfig) -> ClaimResult:
    """rank(adjoint matrix) <= C(rank(P)+k-1, k) on random maps, with
    equality to the full column dimension for surjective linear maps.  The
    defect is the rank's excess over the bound, or its deficit under the
    full column dimension.  On the random maps the matrix itself is checked
    too: applied to the coefficient vector of a random q, it gives that of
    q o P, which must take the value q(P(x)) at a random point x; the other
    side evaluates q and P directly, so no expansion code is shared."""
    rng = sampling.rng(cfg.seed, "rank-bound")
    oracle = sampling.rng(cfg.seed, "rank-bound-oracle")
    surjective_full_rank: list[bool] = []

    def defects():
        for d, e, (m, k) in itertools.product(
                cfg.dims, cfg.dims, _grid(cfg.max_m, max(cfg.max_k, 3))):
            for _ in range(cfg.trials):
                P = sampling.random_polymap(rng, d, e, m)
                A = adjoint_matrix(P, k)
                q = sampling.random_hompoly(oracle, e, k)
                x = sampling.random_point(oracle, d)
                image = HomPoly.from_coeff_vector(d, m * k, A.apply(q.coeff_vector()))
                yield max(A.rank() - adjoint_rank_bound(P, k),
                          abs(image.eval(x) - q.eval(P.eval_map(x))))
        d, e = max(cfg.dims), min(cfg.dims)
        for k in range(1, cfg.max_k + 1):
            for _ in range(cfg.trials):
                rows = [sampling.random_point(rng, d, max_num=4, max_den=1) for _ in range(e)]
                u = PolyMap.from_matrix(rows)
                if map_rank(u) == e:  # a draw that is not surjective is skipped
                    deficit = math.comb(e + k - 1, k) - adjoint_matrix(u, k).rank()
                    surjective_full_rank.append(deficit == 0)
                    yield deficit

    return _exact_claim("adjoint_rank_bound", defects(),
                        surjective_full_rank=surjective_full_rank)


def claim_finite_type(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "finite-type")
    term_counts: list[bool] = []

    def defects():
        for l, k, n in _grid(3, max(cfg.max_k, 3), cfg.max_n):
            m = 2 if 2 * n * k <= 8 else 1
            for _ in range(cfg.trials):
                # the instance index picks d and the expansion seed
                d = _dims_cycle(cfg, len(term_counts))
                while math.comb(d + m - 1, m) < l:
                    d += 1
                basis = enumerate_multi_indices(d, m)
                B = sampling.random_invertible_matrix(rng, l)
                # l components on l basis monomials: B's entries, each times a nonzero draw
                P = PolyMap(tuple(
                    HomPoly(d, m, {basis[j]: B[i][j] * (sampling.random_fraction(rng) or 1)
                                   for j in range(l)})
                    for i in range(l)))
                rep = finite_rank_rep(P)
                if rep.rank < 1:
                    continue
                exp = expand_adjoint(rep, n, k)
                seed = cfg.seed + len(term_counts)
                term_counts.append(len(exp.terms) == math.comb(
                    math.comb(k + rep.rank - 1, rep.rank - 1) + n - 1, n))
                yield expansion_defect(exp, P, n, k, trials=3, seed=seed)

    return _exact_claim("finite_type_expansion", defects(), term_count_formula=term_counts)


def claim_inverse_identity(cfg: SuiteConfig) -> ClaimResult:
    rng = sampling.rng(cfg.seed, "inverse-identity")

    def defects():
        for d, k in itertools.product(cfg.dims, range(1, max(cfg.max_k, 3) + 1)):
            for _ in range(cfg.trials):
                u = PolyMap.from_matrix(sampling.random_invertible_matrix(rng, d))
                da, db = inverse_adjoint_defects(u, k)
                yield max(da.max_abs(), db.max_abs())

    return _exact_claim("inverse_identity", defects())


def claim_injectivity(cfg: SuiteConfig) -> ClaimResult:
    """Each instance that the witness fails to separate is a defect of 1;
    each side of a separation, the adjoint of P_i on q at x0, adds its error
    against q(P_i(x0))^n, evaluated directly, without the adjoint's
    expansion."""
    rng = sampling.rng(cfg.seed, "injectivity")
    pairs = ((1, 1), (3, 1), (1, 3))

    def separation(t: int) -> tuple[bool, Fraction | int]:
        """Whether the witness separates the instance's maps, and the error
        of its two sides."""
        k, n = pairs[t % len(pairs)]
        d, e = _dims_cycle(cfg, t), _dims_cycle(cfg, t + 1)
        m = 1 + (t % 2)
        P1 = sampling.random_polymap(rng, d, e, m)
        P2 = sampling.random_polymap(rng, d, e, m)
        if P1 == P2:
            P2 = P2 + PolyMap(tuple(
                HomPoly.monomial(d, tuple([m] + [0] * (d - 1)), 1)
                for _ in range(e)))
        witness = injectivity_witness(P1, P2, n, k)
        if witness is None:
            return False, 0
        q, x0 = witness
        sides = [adjoint_apply(P, n, k, q).eval(x0) for P in (P1, P2)]
        error = sum(abs(side - q.eval(P.eval_map(x0)) ** n) for side, P in zip(sides, (P1, P2)))
        return sides[0] != sides[1], error

    results = [separation(t) for t in range(100)]
    return _exact_claim("injectivity_separation", (int(not hit) + error for hit, error in results),
                        {"separated": sum(hit for hit, _ in results)})


def claim_factorizations(cfg: SuiteConfig) -> ClaimResult:
    """Six exact defects of the two-sided composition operator from four
    routes: recovery (a), and the unit identity as (a) on R^1; recovery (b),
    and linear recovery for linear R; the rank-one and sandwich ones."""
    rng = sampling.rng(cfg.seed, "factorizations")
    names = ("recovery_a", "recovery_b", "rank_one", "sandwich", "unit",
             "linear_recovery")
    dim = min(cfg.dims)

    def instances():  # named defects; linear_recovery only for linear R
        for m, r, s in _grid(cfg.max_m, cfg.max_r, cfg.max_s):
            for _ in range(cfg.trials):
                B = sampling.random_polymap(rng, dim, dim, s)
                R = sampling.random_polymap(rng, dim, dim, r)
                phi, z_a = normalization_witness(B)
                psi, z_b = normalization_witness(R)
                inst = CompositionInstance(R, B, m)
                test_points = [sampling.random_point(rng, dim) for _ in range(4)]
                test_forms = [sampling.random_hompoly(rng, dim, 1) for _ in range(4)]
                defects = dict(zip(names, check_recovery_identities(
                    inst, phi, z_a, psi, z_b, test_points, test_forms)))
                if r == 1:
                    test_qs = [sampling.random_hompoly(rng, dim, m) for _ in range(3)]
                    defects["linear_recovery"] = check_linear_recovery(inst, psi, z_b, test_qs)
                phi_e = sampling.random_hompoly(rng, dim, 1)
                b_vec = sampling.random_nonzero_point(rng, dim)
                A = sampling.random_polymap(rng, dim, dim, 1)
                R_mid = sampling.random_polymap(rng, dim, dim, r)
                C = sampling.random_polymap(rng, dim, dim, 1)
                test_maps = [sampling.random_polymap(rng, dim, dim, m)
                             for _ in range(3)]
                defects.update(check_factorization_identities(
                    m, B, phi_e, b_vec, A, R_mid, C, R, test_maps, test_points))
                yield defects

    rows = list(instances())
    worst = {nm: _exact_fold(row.get(nm, 0) for row in rows)[0] for nm in names}
    return _exact_claim("factorization_identities", (max(row.values()) for row in rows),
                        {nm: _frac_str(v) for nm, v in worst.items()})


# -- numeric claims ---------------------------------------------------------

def _numeric_fold(reports: Iterable[Report]) -> tuple[float, int, bool]:
    """The worst error over the reports, how many there were, and whether
    every one passed."""
    worst, count, passed = 0.0, 0, True
    for count, rep in enumerate(reports, 1):
        worst = max(worst, rep.rel_err)
        passed = passed and rep.passed
    return worst, count, passed


def _norm_claim(name: str, cfg: SuiteConfig, reports: Iterable[Report],
                **details) -> ClaimResult:
    """A norm identity bracketed at ``cfg.tol``: its reports pass and its
    worst relative error is recorded; at tol 0 an error within 1e-9 is
    flagged as the tolerance bound."""
    worst, count, passed = _numeric_fold(reports)
    details["worst_rel_err"] = worst
    if cfg.tol == 0 and worst <= 1e-9:
        details["tolerance_bound"] = True
    return ClaimResult(name, F64, count, worst, passed, details)


def claim_norm_duality(cfg: SuiteConfig) -> ClaimResult:
    """The reports of `check_norm_duality` on every instance, all drawn
    first and checked in one call, so they share the sample floors and
    cross-check points; nothing outlives the claim."""
    rng = _np_rng(cfg.seed, "norm-duality-x")
    instances = [(_random_nonzero_f64_point(rng, _dims_cycle(cfg, t)), 1 + t % 3)
                 for t in range(50)]
    return _norm_claim("norm_duality", cfg, check_norm_duality(instances, cfg.norm_config()))


def claim_adjoint_norm(cfg: SuiteConfig) -> ClaimResult:
    """The report of `check_adjoint_norm` on each instance.  The instances
    on one stream of upper-side trials share its unit trials, drawn and
    normed once per claim, as they share the searches' sample floors;
    nothing outlives the claim."""
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "adjoint-norm-P")
    memo: dict = {}
    reports = (check_adjoint_norm(_random_f64_map(rng, 2, 2, m), n, k, ncfg, 100, memo=memo)
               for m, (n, k) in itertools.product(range(1, cfg.max_m + 1),
                                                  ((1, 1), (1, 2), (2, 1))))
    return _norm_claim("adjoint_norm", cfg, reports, q_trials=100)


def claim_embedding_norm(cfg: SuiteConfig) -> ClaimResult:
    """The report of `check_embedding_norm` on each instance, its unit
    trials shared as in `claim_adjoint_norm`."""
    ncfg = cfg.norm_config()
    rng = _np_rng(cfg.seed, "embedding-norm-x")
    memo: dict = {}
    reports = (check_embedding_norm(_random_nonzero_f64_point(rng, 3 if t % 5 == 4 else 2),
                                    m, n, ncfg, 12, memo=memo)
               for m, n in _grid(cfg.max_m, cfg.max_n)
               for t in range(20))
    return _norm_claim("embedding_norm", cfg, reports)


def claim_metric_injection(cfg: SuiteConfig) -> ClaimResult:
    """The reports of `check_metric_injection` on every instance, drawn
    and checked as in `claim_norm_duality`."""
    rng = _np_rng(cfg.seed, "metric-injection")
    drop_last = PolyMap.from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], F64)
    instances = []
    for t in range(20):
        if t % 2 == 0:
            proj = drop_last
        else:
            # orthonormal rows from a seeded QR factorization
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            proj = PolyMap.from_matrix(Q[:, :2].T.tolist(), F64)
        instances.append((proj, _random_hompoly_f64(rng, 2, 1 + t % 3)))
    return _norm_claim("metric_injection", cfg,
                       check_metric_injection(instances, cfg.norm_config()))


def claim_two_sided_bound(cfg: SuiteConfig) -> ClaimResult:
    """The bound's report error is its relative violation, max(0, -slack),
    checked at the report's own fixed tolerance rather than ``cfg.tol``;
    the instances are drawn and checked as in `claim_norm_duality`."""
    rng = _np_rng(cfg.seed, "two-sided")
    # the degrees of R, P and Q, drawn in that order
    degs = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2), (2, 1, 2))
    instances = [tuple(_random_f64_map(rng, 2, 2, deg) for deg in degs[t % len(degs)])
                 for t in range(20)]
    worst, count, passed = _numeric_fold(check_two_sided_norm(instances, cfg.norm_config()))
    return ClaimResult("two_sided_bound", F64, count, worst, passed,
                       {"worst_violation": worst})


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
        "config": asdict(cfg),
        "claims": [c.to_obj() for c in claims],
        "passed": all(c.passed for c in claims),
    }


def report_to_json(report: dict) -> str:
    """Deterministic serialization: fixed key order, no timestamps, and
    strict JSON (a non-finite number raises ValueError)."""
    return _json_dumps(report)
