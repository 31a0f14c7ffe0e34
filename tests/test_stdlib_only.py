"""Lint for "standard library only": a syntax-tree scan of the package.

Every module under ``src/jumpstat`` imports only modules of the standard
library (``sys.stdlib_module_names``) and of its own package, by relative
or absolute import.  Imports inside functions count too.

Start-up guards, each run in a fresh interpreter:

* Importing the package, or running a CLI command, loads neither
  ``dataclasses`` nor ``inspect``, which together with ``ast``, ``dis``
  and ``tokenize`` cost a fresh process several milliseconds.
* A command loads only the layers it runs.  ``import jumpstat`` and
  ``import jumpstat.cli`` load neither ``moments`` nor ``guess``, and
  nor do ``stats``, ``enumerate``, ``series`` and ``verify``, so none of
  them loads ``fractions`` either; ``moments``, ``guess`` and ``limits``
  load both.  Each module a process loads is compiled from source when
  no bytecode cache is written.
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
MOMENT_LAYERS = ("jumpstat.moments", "jumpstat.guess", "fractions")


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


def loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Those of ``modules`` that a fresh interpreter has loaded after
    running ``code``."""
    check = ("\nimport sys\n"
             f"print(*[m for m in {modules!r} if m in sys.modules])")
    env = {k: v for k, v in os.environ.items() if not k.startswith("JUMPSTAT_")}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    done = subprocess.run([sys.executable, "-c", code + check], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def cli_run(*argv: str) -> str:
    """Code that runs one CLI command, output discarded, and fails unless
    it exits 0."""
    return ("import contextlib, os, jumpstat.cli\n"
            "with open(os.devnull, 'w') as out, "
            "contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
            f"    code = jumpstat.cli.main({list(argv)!r})\n"
            "assert code == 0, code")


@pytest.mark.parametrize("code", [
    "import jumpstat",
    "import jumpstat.cli",
    cli_run("verify", "2", "--order", "4"),
], ids=["package", "cli", "verify"])
def test_start_up_loads_neither_dataclasses_nor_inspect(code):
    assert loaded_after(code, SLOW_TO_IMPORT) == []


@pytest.mark.parametrize("code,loaded", [
    ("import jumpstat", []),
    ("import jumpstat.cli", []),
    (cli_run("verify", "2", "--order", "4"), []),
    (cli_run("series", "K", "--order", "4"), []),
    (cli_run("stats", "."), []),
    (cli_run("enumerate", "3"), []),
    (cli_run("moments", "jumps", "--nmax", "6", "--check"), MOMENT_LAYERS),
    (cli_run("guess", "jumps", "--moment", "mean", "--n-to", "12"),
     MOMENT_LAYERS),
    (cli_run("limits"), MOMENT_LAYERS),
], ids=["package", "cli", "verify", "series", "stats", "enumerate",
        "moments", "guess", "limits"])
def test_a_command_loads_only_the_layers_it_runs(code, loaded):
    assert loaded_after(code, MOMENT_LAYERS) == list(loaded)
