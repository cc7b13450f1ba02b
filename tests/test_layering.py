"""Layering: no module of the package reaches into the private names of `norms`."""
from __future__ import annotations

import ast
from pathlib import Path

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
    source = ("from .norms import NormConfig, _stream\n"
              "from polyadjoint.norms import _floor\n"
              "from . import norms\n"
              "norms._unit_trials\n"
              "norms.sup_norm\n")
    assert _private_norms_names(ast.parse(source)) == ["_stream", "_floor", "_unit_trials"]
