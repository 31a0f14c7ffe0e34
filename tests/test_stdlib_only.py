"""Lint for "standard library only": a syntax-tree scan of the package.

Every module under ``src/jumpstat`` imports only modules of the standard
library (``sys.stdlib_module_names``) and of its own package, by relative
or absolute import.  Imports inside functions count too.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jumpstat"


def foreign_imports(source: str, package: str = "jumpstat") -> list[str]:
    """One 'line: module' entry per import of a module that is neither in
    the standard library nor in the package."""
    allowed = sys.stdlib_module_names | {package}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in allowed]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import numpy",
    "import os, sympy",
    "from gmpy2 import mpz",
    "import hypothesis.strategies",
    "def f():\n    import pytest",
])
def test_lint_flags_each_foreign_import(source):
    assert len(foreign_imports(source)) == 1


def test_lint_allows_the_standard_library_and_the_package():
    source = ("from __future__ import annotations\nimport os.path, json\n"
              "from fractions import Fraction\nfrom . import moments\n"
              "from .algebra import Poly2\nimport jumpstat.trees\n")
    assert foreign_imports(source) == []
