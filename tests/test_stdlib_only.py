"""Lint for "standard library only": a syntax-tree scan of the package.

Every module under ``src/jumpstat`` imports only modules of the standard
library (``sys.stdlib_module_names``) and of its own package, by relative
or absolute import.  Imports inside functions count too.

A start-up guard: importing the package, or running a CLI command, loads
neither ``dataclasses`` nor ``inspect``, which together with ``ast``,
``dis`` and ``tokenize`` cost a fresh process several milliseconds.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jumpstat"
SLOW_TO_IMPORT = ("dataclasses", "inspect")


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


@pytest.mark.parametrize("code", [
    "import jumpstat",
    "import jumpstat.cli",
    "import contextlib, os, jumpstat.cli\n"
    "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
    "    jumpstat.cli.main(['verify', '2', '--order', '4'])",
], ids=["package", "cli", "verify"])
def test_start_up_loads_neither_dataclasses_nor_inspect(code):
    check = ("\nimport sys\n"
             f"print(*[m for m in {SLOW_TO_IMPORT!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code + check], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
