"""The package namespace is part of the public API: ``__all__``, each
name's object, ``dir``, ``from jumpstat import *``, the submodules as
attributes and the error for an unknown name.

``HOMES`` is the literal list of what ``jumpstat/__init__.py`` exported,
name by name and submodule by submodule, when it imported every layer
eagerly; the names now load on first access and must bind the same
objects.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import jumpstat

SRC = Path(__file__).resolve().parents[1] / "src"

HOMES = {
    "algebra": ("Poly2", "Series", "fixed_point_solve"),
    "genfunc": ("SelfCheckError", "Verdict", "solve_catalan", "solve_F",
                "solve_H", "solve_Jdepth", "solve_K", "verify_F_closed_form",
                "verify_theorem"),
    "guess": ("AmbiguousFitError", "GuessError", "NoFitError",
              "RationalFunctionN", "fit_rational", "guess_rational"),
    "moments": ("REFERENCE_FORMULAS", "MomentTable", "check_closed_forms",
                "moment_table", "q_log_derivative_power"),
    "trees": ("LEAF", "EnumerationCapError", "Node", "TreeParseError",
              "TreeStats", "brute_force_enumerator", "catalan",
              "compute_stats", "enumerate_trees", "enumerate_trees_with_stats",
              "format_tree", "parse_tree"),
}
PUBLIC = [name for names in HOMES.values() for name in names]


def fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_all_lists_every_public_name_in_order():
    assert jumpstat.__all__ == [*PUBLIC, "__version__"]
    assert jumpstat.__version__ == "0.1.0"


@pytest.mark.parametrize("module", HOMES)
def test_each_public_name_is_its_submodules_object(module):
    home = import_module(f"jumpstat.{module}")
    for name in HOMES[module]:
        assert getattr(jumpstat, name) is getattr(home, name), name


def test_dir_lists_every_public_name_and_submodule():
    assert set(PUBLIC) | set(HOMES) | {"__version__"} <= set(dir(jumpstat))


def test_star_import_in_a_fresh_interpreter_binds_every_public_name():
    code = ("namespace = {}\n"
            "exec('from jumpstat import *', namespace)\n"
            "del namespace['__builtins__']\n"
            "import jumpstat\n"
            "assert list(namespace) == jumpstat.__all__, list(namespace)\n"
            f"for module, names in {HOMES!r}.items():\n"
            "    home = getattr(jumpstat, module)\n"
            "    for name in names:\n"
            "        assert namespace[name] is getattr(home, name), name\n"
            "print('ok')")
    assert fresh(code) == "ok\n"


def test_a_submodule_is_an_attribute_after_a_bare_import():
    code = ("import sys, jumpstat\n"
            "print(jumpstat.moments is sys.modules['jumpstat.moments'],\n"
            "      jumpstat.moments.moment_table is jumpstat.moment_table)")
    assert fresh(code) == "True True\n"


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        jumpstat.no_such_name
    assert str(info.value) == "module 'jumpstat' has no attribute 'no_such_name'"
