"""Tests for the suite configuration and report plumbing (the claims
themselves are exercised by the acceptance gate)."""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from polyadjoint import algebra, finite_type, linearization, norms, sampling, suites
from polyadjoint.algebra import HomPoly
from polyadjoint.composition import check_two_sided_norm
from polyadjoint.errors import PreconditionError, SearchBudgetError
from polyadjoint.linearization import transpose_identity_defect
from polyadjoint.norms import (check_adjoint_norm, check_embedding_norm, check_metric_injection,
                               check_norm_duality)
from polyadjoint.suites import (
    EXACT_CLAIMS,
    NUMERIC_CLAIMS,
    SuiteConfig,
    claim_factorizations,
    claim_inverse_identity,
    claim_linearization_transpose,
    report_to_json,
    run_all,
)


def test_config_validation():
    with pytest.raises(PreconditionError):
        SuiteConfig(field="f32")
    with pytest.raises(PreconditionError):
        SuiteConfig(dims=())
    with pytest.raises(PreconditionError):
        SuiteConfig(trials=0)
    # restarts and samples are checked by the pass's NormConfig, as tol is
    for bad in ({"restarts": 0}, {"samples": 0}):
        with pytest.raises(PreconditionError, match="must be >= 1"):
            SuiteConfig(**bad)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(PreconditionError):
            SuiteConfig(tol=tol)


def test_claim_result_obj_is_json_ready():
    cfg = SuiteConfig(seed=1, trials=2, dims=(2,))
    res = claim_inverse_identity(cfg)
    obj = res.to_obj()
    json.dumps(obj)
    assert obj["name"] == "inverse_identity"
    assert obj["field"] == "rational"
    assert obj["passed"] is True
    assert obj["max_defect"] == "0/1"


def test_run_all_report_shape_and_determinism():
    cfg = SuiteConfig(seed=11, trials=2, field="rational")
    rep1 = run_all(cfg)
    rep2 = run_all(cfg)
    assert report_to_json(rep1) == report_to_json(rep2)
    assert rep1["schema"] == 1
    assert rep1["config"]["seed"] == 11
    assert len(rep1["claims"]) == 11
    assert rep1["passed"] is True
    assert "wall" not in report_to_json(rep1)


def test_field_filter_selects_suites():
    cfg = SuiteConfig(seed=11, trials=1, field="rational")
    names = {c["name"] for c in run_all(cfg)["claims"]}
    assert "norm_duality" not in names
    assert "composition_identity" in names


def test_linearization_claim_catches_a_corrupt_power(monkeypatch):
    # double P^(1,1) in the shared expansion, wherever it is bound: the
    # adjoint and linearization matrices stay transposes of each other, so
    # only the intertwining check against direct evaluation can fail
    original = algebra.map_powers

    def corrupt(P, betas):
        betas = list(betas)
        for beta, power in zip(betas, original(P, betas)):
            yield power.scale(2) if beta == (1, 1) else power

    cfg = SuiteConfig(seed=3, dims=(2,), trials=2)
    assert claim_linearization_transpose(cfg).passed
    for mod in list(sys.modules.values()):
        if getattr(mod, "map_powers", None) is original:
            monkeypatch.setattr(mod, "map_powers", corrupt)
    P = sampling.random_polymap(sampling.rng(3, "corrupt"), 2, 2, 2)
    assert transpose_identity_defect(P, 2).is_zero
    assert not claim_linearization_transpose(cfg).passed


def test_instance_counts_on_a_non_default_grid():
    # the oracle runs every cap at 2; caps of 3 and 1 move the grid limits
    # (m*k <= 8 drops m = k = 3) and the range of every claim
    cfg = SuiteConfig(seed=5, dims=(2,), max_m=3, max_n=1, max_k=3, max_r=1,
                      max_s=1, trials=1, field="rational")
    report = run_all(cfg)
    assert {c["name"]: c["instances"] for c in report["claims"]} == {
        "composition_identity": 8,
        "diagram_identity": 8,
        "additivity_defect_formula": 4,
        "adjoint_homogeneity": 32,
        "adjoint_nonadditivity": 113,
        "linearization_transpose": 9,
        "adjoint_rank_bound": 11,
        "finite_type_expansion": 9,
        "inverse_identity": 3,
        "injectivity_separation": 100,
        "factorization_identities": 3,
    }
    assert report["passed"]


def test_factorizations_run_on_the_smallest_configured_dimension(monkeypatch):
    # the report echoes the configured dims, so the sampled maps must live there
    original = sampling.random_polymap
    domains = set()

    def recording(rng, d, e, m):
        domains.add(d)
        return original(rng, d, e, m)

    monkeypatch.setattr(sampling, "random_polymap", recording)
    cfg = SuiteConfig(seed=2, dims=(3,), max_m=1, max_r=1, max_s=1, trials=1,
                      field="rational")
    assert claim_factorizations(cfg).passed
    assert domains == {3}


def test_unseparated_injectivity_instance_is_a_defect(monkeypatch):
    # at the origin both adjoints vanish, so no instance is separated
    def at_origin(P1, P2, n, k):
        e = P1.codomain_dim
        return HomPoly.monomial(e, (k,) + (0,) * (e - 1)), (Fraction(0),) * P1.domain_dim

    monkeypatch.setattr(suites, "injectivity_witness", at_origin)
    result = suites.claim_injectivity(SuiteConfig(seed=5, dims=(2,), trials=1))
    assert (result.passed, result.max_defect, result.instances) == (False, "1/1", 100)
    assert result.details == {"separated": 0}


def test_missing_nonadditivity_witness_is_a_defect(monkeypatch):
    def none_found(m, n, k):
        raise SearchBudgetError("none")

    monkeypatch.setattr(suites, "nonadditivity_witness", none_found)
    result = suites.claim_nonadditivity(SuiteConfig(seed=5, dims=(2,), trials=1))
    assert (result.passed, result.max_defect, result.instances) == (False, "1/1", 113)
    assert set(result.details["witness_defects"].values()) == {"NOT FOUND"}


def _verdicts(cfg: SuiteConfig, claims=EXACT_CLAIMS) -> dict[str, str]:
    """Each claim's verdict: "pass", "fail", or the name of the error it
    raised, so one claim that stops on a fault hides none of the others; a
    failed assertion inside sup_norm is a verdict of its own."""
    out = {}
    for claim in claims:
        try:
            out[claim.__name__] = "pass" if claim(cfg).passed else "fail"
        except (AssertionError, ValueError, RuntimeError) as exc:
            out[claim.__name__] = type(exc).__name__
    return out


def _doubled_product_coefficient(mul):
    def faulty(self, other):
        p = mul(self, other)
        if p.is_zero:
            return p
        coeffs = dict(p.coeffs)
        first = next(iter(coeffs))
        coeffs[first] *= 2
        return algebra.HomPoly(p.domain_dim, p.degree, coeffs, p.field)
    return faulty


def _view_off_by_one(getattr_):
    # the Fraction view of a stored integer form, one numerator too large
    def faulty(self, name):
        coeffs = getattr_(self, name)
        if coeffs:
            den, nums = self._terms
            first = next(iter(nums))
            coeffs[first] = Fraction(nums[first] + 1, den)
        return coeffs
    return faulty


def _one_ordering_skipped(orderings):
    def faulty(t):
        out = orderings(t)
        return out[:-1] if len(out) > 1 else out
    return faulty


def _first_numerator_bumped(matrix):
    # every matrix the module computes, one numerator too large
    def faulty(den, rows):
        rows = [list(r) for r in rows]
        rows[0][0] += 1
        return matrix(den, rows)
    return faulty


def _product_entry_off(matmul):
    def faulty(self, other):
        den, rows = matmul(self, other)._rows
        rows = [list(r) for r in rows]
        rows[0][0] += den
        return linearization._matrix(den, rows)
    return faulty


def _last_pivot_row_perturbed(eliminate):
    # the pivots stay where they are, so every rank reads true
    def faulty(rows, ncols):
        a, pivots = eliminate(rows, ncols)
        if pivots:
            row = a[len(pivots) - 1]
            row[-1] += row[pivots[-1]]
        return a, pivots
    return faulty


def _numerators_only(cleared):
    # vectors read as their integer numerators X, without the r of X / r
    def faulty(x, field):
        return 1, cleared(x, field)[1]
    return faulty


def _last_pivot_dropped(eliminate):
    def faulty(rows, ncols):
        reduced, pivots = eliminate(rows, ncols)
        return reduced, pivots[:-1]
    return faulty


def test_exact_suite_catches_injected_kernel_faults(monkeypatch):
    # the claims that catch each fault are recorded here, so a refactor that
    # blinds the suite to one of them breaks this test
    cfg = SuiteConfig(seed=5, dims=(2,), max_m=2, max_n=2, max_k=2, max_r=1,
                      max_s=1, trials=1, field="rational")
    clean = _verdicts(cfg)
    assert set(clean.values()) == {"pass"}

    with monkeypatch.context() as patch:
        patch.setattr(algebra.HomPoly, "__mul__",
                      _doubled_product_coefficient(algebra.HomPoly.__mul__))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {
        "claim_composition_identity": "fail",
        "claim_diagram_identity": "fail",
        "claim_homogeneity": "fail",
        "claim_additivity_formula": "fail",
        "claim_nonadditivity": "fail",
        "claim_linearization_transpose": "fail",
        "claim_rank_bound": "fail",
        "claim_finite_type": "fail",
        "claim_inverse_identity": "fail",
        "claim_injectivity": "fail",
        "claim_factorizations": "fail",
    }

    # a wrong coeffs view reaches every claim that reads coefficients one by
    # one (coefficient vectors, polarization) while the kernel and the
    # matrices read the integer form, as the finite-type expansion reads q
    with monkeypatch.context() as patch:
        patch.setattr(algebra.HomPoly, "__getattr__",
                      _view_off_by_one(algebra.HomPoly.__getattr__))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {
        "claim_diagram_identity": "fail",
        "claim_additivity_formula": "fail",
        "claim_rank_bound": "fail",
    }

    with monkeypatch.context() as patch:
        patch.setattr(linearization, "_matrix",
                      _first_numerator_bumped(linearization._matrix))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {
        "claim_linearization_transpose": "fail",
        "claim_rank_bound": "fail",
        "claim_finite_type": "fail",
        "claim_inverse_identity": "fail",
    }

    with monkeypatch.context() as patch:
        patch.setattr(linearization.LinearMap, "__matmul__",
                      _product_entry_off(linearization.LinearMap.__matmul__))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {"claim_inverse_identity": "fail"}

    with monkeypatch.context() as patch:
        patch.setattr(linearization, "_eliminate",
                      _last_pivot_row_perturbed(linearization._eliminate))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {
        "claim_finite_type": "fail",
        "claim_inverse_identity": "fail",
    }

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_orderings", _one_ordering_skipped(algebra._orderings))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    # only the polarization side of additivity and the finite-type psi
    # evaluate the symmetric form
    assert caught == {
        "claim_additivity_formula": "fail",
        "claim_finite_type": "fail",
    }

    # in finite_type only FiniteTypeExpansion.evaluate clears vectors: the
    # expansion's vectors, once for all its psi values
    with monkeypatch.context() as patch:
        patch.setattr(finite_type, "_cleared", _numerators_only(finite_type._cleared))
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {"claim_finite_type": "fail"}

    # a dropped pivot reaches rank, inverse and finite_rank_rep, which all
    # eliminate with linearization._eliminate; the sampler keeps the true
    # elimination: random_invertible_matrix retries until it sees full rank,
    # which a dropped pivot would never report
    with monkeypatch.context() as patch:
        eliminate = linearization._eliminate
        patch.setattr(linearization, "_eliminate", _last_pivot_dropped(eliminate))
        patch.setattr(sampling, "_eliminate", eliminate)
        caught = {k: v for k, v in _verdicts(cfg).items() if v != "pass"}
    assert caught == {
        "claim_rank_bound": "fail",
        "claim_finite_type": "fail",
        "claim_inverse_identity": "SingularMatrixError",
    }
    assert _verdicts(cfg) == clean


# sha256 of every exact draw of the rational pass at seed 20260815, the
# refactor oracle's configuration (`_draw_digest`): a refactor that changes
# what the claims draw moves it, while the report's verdicts may not move
PINNED_DRAW_SHA256 = "8b9bdb1710e5dc8c34a33d93ccd4569b60bbad287bb2eee5ac4607afe84f7bee"


def _canonical(draw) -> tuple:
    """The canonical form of one exact draw: a polynomial as (d, m, D) and
    its sorted (alpha, numerator) pairs over D, a Fraction as (num, den),
    and a matrix as its rows of those."""
    if isinstance(draw, HomPoly):
        den, nums = draw._terms
        return draw.domain_dim, draw.degree, den, tuple(sorted(nums.items()))
    if isinstance(draw, Fraction):
        return draw.numerator, draw.denominator
    return tuple(tuple(map(_canonical, row)) for row in draw)


def _draw_digest(monkeypatch, cfg: SuiteConfig, **faults) -> str:
    """sha256 over the canonical form of every result of
    `sampling.random_hompoly`, `random_fraction` and
    `random_invertible_matrix` while the exact suite runs at ``cfg``, in draw
    order.  Every exact draw reaches one of them through the module, the
    points through `random_fraction` and the maps through `random_hompoly`.
    ``faults`` replace those samplers first, and are digested in their
    place."""
    digest = hashlib.sha256()

    def recorded(sampler):
        def draw(*args, **kwargs):
            out = sampler(*args, **kwargs)
            digest.update(repr(_canonical(out)).encode())
            return out
        return draw
    with monkeypatch.context() as patch:
        for name, fault in faults.items():
            patch.setattr(sampling, name, fault)
        for name in ("random_hompoly", "random_fraction", "random_invertible_matrix"):
            patch.setattr(sampling, name, recorded(getattr(sampling, name)))
        suites.run_exact_suite(cfg)
    return digest.hexdigest()


def _x1_power(r, d: int, m: int) -> HomPoly:
    # every polynomial x_1^m, with coefficient 1, drawing nothing
    return HomPoly.monomial(d, (m,) + (0,) * (d - 1), 1)


def _denominator_dropped(r, max_num: int = 9, max_den: int = 4) -> Fraction:
    # the same draws from the stream, the denominator thrown away
    num = r.randint(-max_num, max_num)
    r.randint(1, max_den)
    return Fraction(num)


@pytest.mark.parametrize("faults", [{}, {"random_hompoly": _x1_power},
                                    {"random_fraction": _denominator_dropped}],
                         ids=["clean", "x1-power", "denominator-dropped"])
def test_exact_draws_are_pinned(monkeypatch, faults):
    # every exact claim still passes at this seed under either fault, so
    # only a digest of the draws sees them
    got = _draw_digest(monkeypatch, SuiteConfig(seed=20260815, field="rational"), **faults)
    assert (got == PINNED_DRAW_SHA256) == (not faults)


def _top_root_dropped(circle_points):
    # each map's critical points on the circle without the top root; its
    # antipode has the same value, |P(-x)| = |P(x)|, so it goes too, while
    # the axes -e_1 and e_1 stay
    def faulty(coeffs, m):
        shape, heads = norms._shape(2, m), []
        for b, head in enumerate(circle_points(coeffs, m)):
            roots = shape.norms(head[None], coeffs[b:b + 1])[0, 2:]
            if roots.size:
                head = head[np.concatenate([[True, True],
                                            roots < roots.max() * (1.0 - 1e-9)])]
            heads.append(head)
        return heads
    return faulty


def _bottom_eigenvectors(coeffs, d, m):
    # the closed form's head at the eigenvalue smallest in absolute value,
    # not the largest
    if m == 1:
        w, V = np.linalg.eigh(coeffs.transpose(0, 2, 1) @ coeffs)
    else:
        w, V = np.linalg.eigh(norms._form_matrices(coeffs[:, 0], d))
        w = np.abs(w)
    return V[np.arange(len(V)), :, w.argmin(axis=1)]


def _against_the_gradient(gradient):
    # the ascent steps downhill: every gradient it reads is negated
    return lambda partials, V, tables: -gradient(partials, V, tables)


def _no_step_accepted(shape, coeffs, X):
    # the ascent refuses every step: each row stays where it starts, and
    # four stalled iterations end each map's
    return X / np.sqrt((X * X).sum(axis=2, keepdims=True)), [4] * len(X)


def test_numeric_suite_catches_injected_sup_norm_faults(monkeypatch):
    # the numeric row of the fault table: one fault in each head of
    # sup_norm, and the claims that catch it
    cfg = SuiteConfig(seed=5, field="f64")
    clean = _verdicts(cfg, NUMERIC_CLAIMS)
    assert set(clean.values()) == {"pass"}

    # the pick falls below the maximum, and the half-circle grid beats it
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_circle_points", _top_root_dropped(norms._circle_points))
        caught = {k: v for k, v in _verdicts(cfg, NUMERIC_CLAIMS).items() if v != "pass"}
    assert caught == {
        "claim_adjoint_norm": "AssertionError",
        "claim_metric_injection": "AssertionError",
        "claim_two_sided_bound": "AssertionError",
    }

    # the value falls short of the norm, so the exact upper-bound proof fails
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_top_eigenvectors", _bottom_eigenvectors)
        caught = {k: v for k, v in _verdicts(cfg, NUMERIC_CLAIMS).items() if v != "pass"}
    assert caught == {
        "claim_adjoint_norm": "AssertionError",
        "claim_embedding_norm": "AssertionError",
        "claim_metric_injection": "AssertionError",
        "claim_two_sided_bound": "AssertionError",
    }

    # a search that never climbs from its sample floor: metric_injection
    # hands neither of its searches a start, so the search on q(proj x)
    # falls short of the norm of q and the claim fails.  norm_duality still
    # hands its search the unit point, which attains the norm, and its upper
    # side fails only on an excess over one, so it cannot catch this
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_ascend", _no_step_accepted)
        caught = {k: v for k, v in _verdicts(cfg, NUMERIC_CLAIMS).items() if v != "pass"}
    assert caught == {"claim_metric_injection": "fail"}

    # an ascent cut off after its first step falls short in the same place
    with monkeypatch.context() as patch:
        patch.setattr(norms, "MAX_ASCENT_ITERS", 1)
        caught = {k: v for k, v in _verdicts(cfg, NUMERIC_CLAIMS).items() if v != "pass"}
    assert caught == {"claim_metric_injection": "fail"}

    # and so does an ascent that steps against the gradient
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_gradient", _against_the_gradient(norms._gradient))
        caught = {k: v for k, v in _verdicts(cfg, NUMERIC_CLAIMS).items() if v != "pass"}
    assert caught == {"claim_metric_injection": "fail"}
    assert _verdicts(cfg, NUMERIC_CLAIMS) == clean


def _adjoint_norm_per_instance(cfg: SuiteConfig) -> suites.ClaimResult:
    # the reference: the public check on each instance, drawing and norming
    # its own trials
    ncfg = cfg.norm_config()
    rng = sampling._np_rng(cfg.seed, "adjoint-norm-P")
    reports = (check_adjoint_norm([(sampling._random_f64_map(rng, 2, 2, m), n, k)], ncfg,
                                  q_trials=100)[0]
               for m in range(1, cfg.max_m + 1) for n, k in ((1, 1), (1, 2), (2, 1)))
    return suites._norm_claim("adjoint_norm", reports, q_trials=100)


def _embedding_norm_per_instance(cfg: SuiteConfig) -> suites.ClaimResult:
    ncfg = cfg.norm_config()
    rng = sampling._np_rng(cfg.seed, "embedding-norm-x")
    reports = (check_embedding_norm([(sampling._random_nonzero_f64_point(
                   rng, 3 if t % 5 == 4 else 2), m, n)], ncfg, q_trials=12)[0]
               for m in range(1, cfg.max_m + 1) for n in range(1, cfg.max_n + 1)
               for t in range(20))
    return suites._norm_claim("embedding_norm", reports)


@pytest.mark.parametrize("claim, reference, shared, per_instance", [
    (suites.claim_embedding_norm, _embedding_norm_per_instance, 8, 80),
    (suites.claim_adjoint_norm, _adjoint_norm_per_instance, 3, 6),
], ids=["embedding", "adjoint"])
@pytest.mark.parametrize("seed", [1729, 20260815])
def test_norm_claims_draw_each_trial_stream_once_and_fold_as_the_checks(
        monkeypatch, claim, reference, shared, per_instance, seed):
    # a claim draws and norms each stream of unit trials once, and its
    # result is the fold of the public check run instance by instance
    draws = []
    real = norms._unit_trials

    def counted(*args):
        draws.append(args)
        return real(*args)
    monkeypatch.setattr(norms, "_unit_trials", counted)
    cfg = SuiteConfig(seed=seed, field="f64")
    got = claim(cfg)
    assert len(draws) == shared
    draws.clear()
    want = reference(cfg)
    assert len(draws) == per_instance
    assert got == want and got.passed


def _norm_duality_per_instance(cfg: SuiteConfig) -> suites.ClaimResult:
    # the reference: the public check on each instance, each search drawing
    # its own floor
    ncfg = cfg.norm_config()
    rng = sampling._np_rng(cfg.seed, "norm-duality-x")
    reports = (check_norm_duality([(sampling._random_nonzero_f64_point(
                   rng, cfg.dims[t % len(cfg.dims)]), 1 + t % 3)], ncfg)[0]
               for t in range(50))
    return suites._norm_claim("norm_duality", reports)


def _metric_injection_per_instance(cfg: SuiteConfig) -> suites.ClaimResult:
    ncfg = cfg.norm_config()
    rng = sampling._np_rng(cfg.seed, "metric-injection")
    drop_last = algebra.PolyMap.from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], algebra.F64)

    def reports():
        for t in range(20):
            if t % 2 == 0:
                proj = drop_last
            else:
                Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                proj = algebra.PolyMap.from_matrix(Q[:, :2].T.tolist(), algebra.F64)
            yield check_metric_injection(
                [(proj, sampling._random_hompoly_f64(rng, 2, 1 + t % 3))], ncfg)[0]
    return suites._norm_claim("metric_injection", reports())


@pytest.mark.parametrize("claim, reference, per_instance", [
    (suites.claim_norm_duality, _norm_duality_per_instance, 8),
    (suites.claim_metric_injection, _metric_injection_per_instance, 6),
], ids=["duality", "injection"])
@pytest.mark.parametrize("seed", [1729, 20260815])
def test_norm_claims_draw_each_search_floor_once_and_fold_as_the_checks(
        monkeypatch, claim, reference, per_instance, seed):
    # a claim draws the d = 3 sample floor of its searches once, and its
    # result is the fold of the public check run instance by instance
    draws = []
    real = norms._sphere_samples

    def counted(d, n, rng):
        if d >= 3:
            draws.append((d, n))
        return real(d, n, rng)
    monkeypatch.setattr(norms, "_sphere_samples", counted)
    cfg = SuiteConfig(seed=seed, field="f64")
    got = claim(cfg)
    assert draws == [(3, cfg.samples)]
    draws.clear()
    want = reference(cfg)
    assert draws == [(3, cfg.samples)] * per_instance
    assert got == want and got.passed


def _two_sided_bound_per_instance(cfg: SuiteConfig) -> suites.ClaimResult:
    # the reference: the check on each instance alone, drawn in the claim's
    # order
    ncfg = cfg.norm_config()
    rng = sampling._np_rng(cfg.seed, "two-sided")
    degs = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2), (2, 1, 2))
    reports = (check_two_sided_norm([tuple(sampling._random_f64_map(rng, 2, 2, deg)
                                           for deg in degs[t % len(degs)])], ncfg)[0]
               for t in range(20))
    worst, count, passed = suites._numeric_fold(reports)
    return suites.ClaimResult("two_sided_bound", algebra.F64, count, worst, passed,
                              {"worst_violation": worst})


@pytest.mark.parametrize("seed", [1729, 20260815])
def test_two_sided_bound_claim_folds_as_the_check(seed):
    # the claim checks its instances in one call; its result is the fold of
    # the check run instance by instance
    cfg = SuiteConfig(seed=seed, field="f64")
    got = suites.claim_two_sided_bound(cfg)
    assert got == _two_sided_bound_per_instance(cfg) and got.passed
    assert got.instances == 20
