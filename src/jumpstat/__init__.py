"""Exact jump statistics on full binary trees.

Submodules: ``trees`` (trees, statistics, exhaustive enumeration),
``algebra`` (exact polynomial and truncated-series arithmetic),
``genfunc`` (series solvers and identity verification), ``moments``
(exact moment tables and reference closed forms), ``guess`` (rational
function fitting), ``cli`` (the command-line entry point).
"""

from .algebra import Poly2, Series, fixed_point_solve
from .genfunc import (SelfCheckError, Verdict, solve_catalan, solve_F,
                      solve_H, solve_Jdepth, solve_K, verify_F_closed_form,
                      verify_theorem)
from .guess import (AmbiguousFitError, GuessError, NoFitError,
                    RationalFunctionN, fit_rational, guess_rational)
from .moments import (REFERENCE_FORMULAS, MomentTable, check_closed_forms,
                      moment_table, q_log_derivative_power)
from .trees import (LEAF, EnumerationCapError, Node, TreeParseError,
                    TreeStats, brute_force_enumerator, catalan,
                    compute_stats, enumerate_trees, enumerate_trees_with_stats,
                    format_tree, parse_tree)

__version__ = "0.1.0"

__all__ = [
    "Poly2", "Series", "fixed_point_solve",
    "SelfCheckError", "Verdict", "solve_catalan", "solve_F", "solve_H",
    "solve_Jdepth", "solve_K", "verify_F_closed_form", "verify_theorem",
    "AmbiguousFitError", "GuessError", "NoFitError", "RationalFunctionN",
    "fit_rational", "guess_rational",
    "REFERENCE_FORMULAS", "MomentTable", "check_closed_forms",
    "moment_table", "q_log_derivative_power",
    "LEAF", "EnumerationCapError", "Node", "TreeParseError", "TreeStats",
    "brute_force_enumerator", "catalan", "compute_stats", "enumerate_trees",
    "enumerate_trees_with_stats", "format_tree", "parse_tree",
    "__version__",
]
