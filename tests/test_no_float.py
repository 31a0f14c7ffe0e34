"""Lint for "no floating point anywhere": a syntax-tree scan of the package.

Every module is free of float literals and ``float(...)`` calls.  The
integer layers (``algebra``, ``genfunc`` and ``trees``) also use no true
division ``/`` and do not import ``fractions``: their coefficients are
ints, and a ``/`` there would turn one into a float.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jumpstat"
INTEGER_MODULES = {"algebra.py", "genfunc.py", "trees.py"}


def float_uses(source: str, integer_only: bool) -> list[str]:
    """One 'line: what' entry per forbidden construct in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            found.append(f"{line}: float(...) call")
        elif not integer_only:
            continue
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{line}: / operator")
        elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "fractions" for a in node.names):
            found.append(f"{line}: import fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"{line}: from fractions import")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_floating_point(path):
    assert float_uses(path.read_text(), path.name in INTEGER_MODULES) == []


def test_integer_modules_exist():
    assert INTEGER_MODULES <= {p.name for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("source, integer_only", [
    ("x = 0.5", False),
    ("x = 2j", False),
    ("x = float(3)", False),
    ("x = a / b", True),
    ("x /= 2", True),
    ("import fractions", True),
    ("from fractions import Fraction", True),
])
def test_lint_flags_each_forbidden_construct(source, integer_only):
    assert len(float_uses(source, integer_only)) == 1


def test_lint_allows_integer_division_and_fractions_outside_integer_modules():
    source = "from fractions import Fraction\nx = Fraction(1, 2) / 3 // 2"
    assert float_uses(source, integer_only=False) == []
    assert float_uses("x = a // b", integer_only=True) == []
