"""Layering: no module of the package reaches into the private names of
`norms`, and each sup norm call owns its draws: no public callable takes a
``memo`` and no call anywhere passes one."""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import polyadjoint

PACKAGE = Path(polyadjoint.__file__).parent


def _private_norms_names(tree: ast.Module) -> list[str]:
    """The `_`-prefixed names a module takes from `norms`: imported from it
    (``from .norms import _x``, ``from polyadjoint.norms import _x``) or read
    off it as an attribute (``norms._x`` after ``from . import norms``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("norms", "polyadjoint.norms"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "norms" and node.attr.startswith("_")):
            found.append(node.attr)
    return found


def test_only_norms_uses_its_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "norms.py" in {path.name for path in modules}
    offenders = {path.name: names for path in modules if path.name != "norms.py"
                 if (names := _private_norms_names(ast.parse(path.read_text())))}
    assert offenders == {}


def test_the_layering_check_sees_each_form_of_reach():
    source = ("from .norms import NormConfig, _stack\n"
              "from polyadjoint.norms import _floor\n"
              "from . import norms\n"
              "norms._unit_trials\n"
              "norms.sup_norm\n")
    assert _private_norms_names(ast.parse(source)) == ["_stack", "_floor", "_unit_trials"]


def _memo_keywords(tree: ast.Module) -> list[int]:
    """The lines of the calls that pass a ``memo`` keyword."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "memo"]


def test_no_call_passes_a_memo():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "norms.py" in {path.name for path in modules}
    offenders = {path.name: lines for path in modules
                 if (lines := _memo_keywords(ast.parse(path.read_text())))}
    assert offenders == {}


def test_the_memo_check_sees_a_memo_keyword():
    source = ("sup_norm(P, cfg)\n"
              "sup_norms(maps, cfg, memo={})\n"
              "memo = {}\n"
              "check(x, memo=memo, cfg=cfg)\n")
    assert _memo_keywords(ast.parse(source)) == [2, 4]


def _public_callables() -> dict[str, object]:
    """Every public function the package exports and every public method of
    the classes it exports, by name."""
    found = {}
    for name in dir(polyadjoint):
        obj = getattr(polyadjoint, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            found.update((f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                         if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)))
        elif callable(obj):
            found[name] = obj
    return found


PUBLIC = _public_callables()


def test_the_public_callables_are_the_exports_and_their_methods():
    assert {"sup_norm", "sup_norms", "check_norm_duality", "check_adjoint_norm",
            "check_embedding_norm", "check_metric_injection", "check_two_sided_norm",
            "integer_points", "PolyMap.eval_map", "HomPoly.linear_form",
            "LinearMap.identity"} <= set(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_no_check_takes_a_memo(name):
    # every sup norm call makes the dict for its own draws and drops it on
    # return, so no public function or method takes one
    assert "memo" not in inspect.signature(PUBLIC[name]).parameters
