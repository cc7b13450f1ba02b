"""Every documented refusal of a bad input, each raising its documented
exception type in process, for the refusals that no other test reaches."""
from __future__ import annotations

import argparse

import numpy as np
import pytest

from polyadjoint import (
    F64,
    HomPoly,
    LinearMap,
    NormConfig,
    PolyMap,
    SymForm,
    adjoint_matrix,
    check_adjoint_norm,
    check_metric_injection,
    compose_scalar,
    composition_identity_defect,
    diagram_defect,
    expand_adjoint,
    finite_rank_rep,
    injectivity_witness,
    inverse_adjoint_defects,
    linearization_matrix,
    materialize_adjoint,
    nonadditivity_witness,
    polymap_dumps,
    sup_norm,
    tensor_power,
)
from polyadjoint import cli
from polyadjoint.algebra import map_powers
from polyadjoint.composition import CompositionInstance, check_linear_recovery, compose_three
from polyadjoint.errors import (CapacityError, DegenerateInputError, DegreeError,
                                DimensionError, FieldError, PreconditionError, SearchBudgetError)
from polyadjoint.sampling import _random_nonzero_f64_point
from polyadjoint.suites import SuiteConfig

# x and y on R^2, x on R^3, and maps built from them
X = HomPoly(2, 1, {(1, 0): 1})
Y = HomPoly(2, 1, {(0, 1): 1})
X3 = HomPoly(3, 1, {(1, 0, 0): 1})
# x_2^3 and x_2 x_1^2 on R^10 agree wherever x_1 = +-1 and |x_2| <= 1, which
# holds at the origin and all the first 19683 grid points of shell 1
CUBE, SHEARED = (PolyMap((HomPoly(10, 3, {a: 1}),))
                 for a in ((0, 3) + (0,) * 8, (2, 1) + (0,) * 8))
IDENTITY = PolyMap((X, Y))
SQUARES = PolyMap((X * X, Y * Y))
FLAT = PolyMap((X,))
F64_MAP = PolyMap((X * Y,)).as_field(F64)


def _linear(rows) -> LinearMap:
    return LinearMap(tuple(tuple(r) for r in rows))


def _instance(outer: PolyMap, middle_degree: int = 1) -> CompositionInstance:
    return CompositionInstance(outer=outer, inner=IDENTITY, middle_degree=middle_degree)


REFUSALS = {
    # algebra
    "hompoly-unknown-field": (FieldError, lambda: HomPoly(2, 1, {(1, 0): 1}, "complex")),
    "symform-unknown-field": (FieldError, lambda: SymForm(2, 1, {(0,): 1}, "complex")),
    "coeff-vector-length": (DimensionError, lambda: HomPoly.from_coeff_vector(2, 2, [1, 2])),
    "add-different-domains": (DimensionError, lambda: X + X3),
    "add-different-degrees": (DegreeError, lambda: X + X * Y),
    "polymap-empty": (DimensionError, lambda: PolyMap(())),
    "polymap-mismatched": (DimensionError, lambda: PolyMap((X, X3))),
    "polymap-add-codomains": (DimensionError, lambda: IDENTITY + FLAT),
    "polymap-sub-codomains": (DimensionError, lambda: IDENTITY - FLAT),
    "map-powers-zero-beta": (DegreeError, lambda: list(map_powers(IDENTITY, [(0, 0)]))),
    "compose-mixed-fields": (FieldError, lambda: compose_scalar(X, IDENTITY.as_field(F64))),
    "symform-bad-index": (DimensionError, lambda: SymForm(2, 2, {(0, 2): 1})),
    "symform-unsorted-index": (DimensionError, lambda: SymForm(2, 2, {(1, 0): 1})),
    "symform-apply-length": (DimensionError,
                             lambda: SymForm(2, 2, {(0, 1): 1}).apply([[1, 2], [1]])),
    # adjoint
    "apply-to-shape": (DimensionError,
                       lambda: materialize_adjoint(IDENTITY, 1, 1).apply_to(X * X)),
    "apply-to-field": (FieldError,
                       lambda: materialize_adjoint(IDENTITY, 1, 1).apply_to(X.as_field(F64))),
    "materialize-n": (DegreeError, lambda: materialize_adjoint(IDENTITY, 0, 1)),
    "materialize-k": (DegreeError, lambda: materialize_adjoint(IDENTITY, 1, 0)),
    "composition-defect-dims": (DimensionError, lambda: composition_identity_defect(
        IDENTITY, PolyMap((X3,)), 1, 1, 1, X, (1, 1))),
    "diagram-defect-q": (DimensionError,
                         lambda: diagram_defect(IDENTITY, 1, 1, 1, 1, X * X, (1, 1))),
    "diagram-defect-x": (DimensionError,
                         lambda: diagram_defect(IDENTITY, 1, 1, 1, 1, X, (1, 1, 1))),
    "inverse-degree": (DegreeError, lambda: inverse_adjoint_defects(SQUARES, 1)),
    "inverse-square": (DimensionError, lambda: inverse_adjoint_defects(FLAT, 1)),
    "injectivity-shapes": (DimensionError, lambda: injectivity_witness(IDENTITY, FLAT, 1, 1)),
    "injectivity-budget": (SearchBudgetError, lambda: injectivity_witness(CUBE, SHEARED, 1, 1)),
    "nonadditivity-parameters": (DimensionError, lambda: nonadditivity_witness(0, 1, 2)),
    # linearization
    "tensor-power-order": (DimensionError, lambda: tensor_power([1, 2], 0)),
    "linear-map-empty": (DimensionError, lambda: _linear([])),
    "linear-map-ragged": (DimensionError, lambda: _linear([[1, 2], [3]])),
    "matmul-shapes": (DimensionError, lambda: _linear([[1, 2]]) @ _linear([[1, 2]])),
    "sub-shapes": (DimensionError, lambda: _linear([[1, 2]]) - _linear([[1], [2]])),
    "apply-shape": (DimensionError, lambda: _linear([[1, 2]]).apply([1])),
    "inverse-non-square": (DimensionError, lambda: _linear([[1, 2]]).inverse()),
    "linearization-matrix-k": (DimensionError, lambda: linearization_matrix(IDENTITY, 0)),
    "adjoint-matrix-k": (DimensionError, lambda: adjoint_matrix(IDENTITY, 0)),
    # composition
    "middle-degree": (DegreeError, lambda: _instance(IDENTITY, 0)),
    "compose-three-codomain": (DimensionError,
                               lambda: compose_three(_instance(PolyMap((X3,))), IDENTITY)),
    "linear-recovery-outer": (PreconditionError, lambda: check_linear_recovery(
        _instance(PolyMap((X * X,))), X, (1, 0), [X])),
    # finite_type
    "expand-n": (DegreeError, lambda: expand_adjoint(finite_rank_rep(IDENTITY), 0, 1)),
    "expand-k": (DegreeError, lambda: expand_adjoint(finite_rank_rep(IDENTITY), 1, 0)),
    "expand-rank-zero": (PreconditionError,
                         lambda: expand_adjoint(finite_rank_rep(IDENTITY.scale(0)), 1, 1)),
    # norms
    "adjoint-norm-zero-map": (DegenerateInputError,
                              lambda: check_adjoint_norm([(F64_MAP.scale(0.0), 1, 1)])),
    "metric-injection-nonlinear": (PreconditionError, lambda: check_metric_injection(
        [(SQUARES.as_field(F64), X.as_field(F64))])),
    "metric-injection-q-space": (DimensionError, lambda: check_metric_injection(
        [(FLAT.as_field(F64), X.as_field(F64))])),
    # on R^1 the basis is one monomial at any degree; the power table is not
    "power-table-cap": (CapacityError, lambda: sup_norm(HomPoly(1, 3003, {(3003,): 1.0}, F64))),
    # refused before any point is drawn
    "sample-cap": (CapacityError, lambda: sup_norm(PolyMap((X3 * X3,) * 2).as_field(F64),
                                                   NormConfig(samples=1 << 24))),
    # suites and cli
    "suite-grid-caps": (PreconditionError, lambda: SuiteConfig(max_m=0)),
    "parse-dims-empty": (ValueError, lambda: cli._parse_dims(",")),
}


@pytest.mark.parametrize("error, call", REFUSALS.values(), ids=REFUSALS.keys())
def test_each_bad_input_raises_its_documented_error(error, call):
    with pytest.raises(error) as info:
        call()
    # the documented type itself, not a broader one that happens to match
    assert type(info.value) is error


class _ScriptedNormals:
    """A generator stub whose standard_normal returns ``draws`` in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, d):
        return np.array(self.draws.pop(0), dtype=float)


def test_a_point_too_near_zero_is_drawn_again():
    # the first draw's largest entry is below 1e-6, so the second is taken
    rng = _ScriptedNormals([1e-7, -5e-7], [0.25, -2.0], [9.0, 9.0])
    assert _random_nonzero_f64_point(rng, 2) == [0.25, -2.0]
    assert rng.draws == [[9.0, 9.0]]


def test_a_bad_environment_variable_is_named(monkeypatch):
    monkeypatch.setenv("POLYADJOINT_SEED", "five")
    with pytest.raises(ValueError, match="POLYADJOINT_SEED='five'") as info:
        cli._env_defaults(argparse.Namespace(seed=None))
    assert type(info.value) is ValueError


def test_decompose_refuses_the_zero_map(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(polymap_dumps(IDENTITY.scale(0)))
    with pytest.raises(DegenerateInputError) as info:
        cli.cmd_decompose(argparse.Namespace(input=str(path), n=1, k=1, out=None))
    assert type(info.value) is DegenerateInputError
