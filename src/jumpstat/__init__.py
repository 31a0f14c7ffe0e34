"""Exact jump statistics on full binary trees.

Submodules: ``trees`` (trees, statistics, exhaustive enumeration),
``algebra`` (exact polynomial and truncated-series arithmetic),
``genfunc`` (series solvers and identity verification), ``moments``
(exact moment tables and reference closed forms), ``guess`` (rational
function fitting), ``cli`` (the command-line entry point).  The public
API is unchanged, but its names and the submodules load on first access
(PEP 562): ``import jumpstat`` itself loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_HOMES = {name: module for module, names in {
    "algebra": "Poly2 Series fixed_point_solve",
    "genfunc": "SelfCheckError Verdict solve_catalan solve_F solve_H "
               "solve_Jdepth solve_K verify_F_closed_form verify_theorem",
    "guess": "AmbiguousFitError GuessError NoFitError RationalFunctionN "
             "fit_rational guess_rational",
    "moments": "REFERENCE_FORMULAS MomentTable check_closed_forms "
               "moment_table q_log_derivative_power",
    "trees": "LEAF EnumerationCapError Node TreeParseError TreeStats "
             "brute_force_enumerator catalan compute_stats enumerate_trees "
             "enumerate_trees_with_stats format_tree parse_tree",
}.items() for name in names.split()}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _HOMES.values():
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES.values()})
