"""Command-line interface.

Subcommands:

* ``stats TREE``       — the four statistics of one tree given as text.
* ``enumerate N``      — list all trees of size N, optionally with stats.
* ``series NAME``      — print a solved series as JSON.
* ``verify ID``        — check one of the identities 0..6, print a verdict.
* ``moments STAT``     — exact moment table as JSON or CSV, with optional
                         closed-form checks.
* ``guess STAT``       — fit a rational function in n to a moment column.
* ``limits``           — reference closed forms and their limits.

Exit codes: 0 success, 1 a verification, solver self-check or fit failed,
2 usage or parse error, 3 a resource cap refused the request (an
enumeration size, a series order above ``genfunc.ORDER_CAPS``, or a
moment order above ``moments.MOMENT_CAP``).

Every value-taking flag can be defaulted from the environment as
JUMPSTAT_<FLAG> (dashes to underscores, upper case), e.g. JUMPSTAT_ORDER=24.
Explicit flags always win: a variable is read only for a flag of the
chosen subcommand that argv leaves out.  A value read that way that is
not an integer, or not one of the flag's choices, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import genfunc, guess, moments
from .trees import (DEFAULT_ENUMERATION_CAP, EnumerationCapError,
                    compute_stats, enumerate_trees_with_stats, format_tree,
                    parse_tree)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

SERIES_ALIASES = {
    "f": "f", "catalan": "f",
    "F": "F", "trivariate": "F",
    "H": "H", "jumps": "H",
    "J": "J", "depth": "J",
    "K": "K", "jumpdist": "K",
}

_SOLVERS = {
    "f": genfunc.solve_catalan,
    "F": genfunc.solve_F,
    "H": genfunc.solve_H,
    "J": genfunc.solve_Jdepth,
    "K": genfunc.solve_K,
}


# the flag that sets each capped quantity (``ResourceCapError.limit``) of
# each command: the series order, and the moment order
_CAP_FLAGS = {"order": {"series": "--order", "verify": "--order",
                        "moments": "--nmax", "guess": "--n-to"},
              "moment": {"moments": "--max-moment", "guess": "R in --moment"}}


class _UsageError(Exception):
    pass


class _EnvDefault:
    """Default of a value-taking flag: JUMPSTAT_<FLAG> if set, else the
    fallback.  Resolved after parsing, so only the chosen subcommand's
    flags that argv leaves out read the environment."""

    def __init__(self, flag: str, fallback, choices: list[str] | None = None):
        self.name = "JUMPSTAT_" + flag.lstrip("-").upper().replace("-", "_")
        self.fallback, self.choices = fallback, choices

    def __str__(self) -> str:   # what %(default)s shows in --help
        return str(self.fallback)

    def resolve(self):
        raw = os.environ.get(self.name)
        if raw is None:
            return self.fallback
        if self.choices is None:
            try:
                return int(raw)
            except ValueError:
                raise _UsageError(
                    f"{self.name} must be an integer, got {raw!r}") from None
        if raw not in self.choices:
            raise _UsageError(f"{self.name} must be one of "
                              f"{', '.join(self.choices)}, got {raw!r}")
        return raw


def _flag(p: argparse.ArgumentParser, flag: str, fallback,
          choices: list[str] | None = None, **kw) -> None:
    p.add_argument(flag, type=None if choices else int, choices=choices,
                   default=_EnvDefault(flag, fallback, choices), **kw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpstat",
        description="Exact jump statistics on full binary trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="statistics of one tree")
    p.add_argument("tree", help="tree text, e.g. '[[.,.],.]'")

    p = sub.add_parser("enumerate", help="list all trees of a size")
    p.add_argument("n", type=int)
    _flag(p, "--cap", DEFAULT_ENUMERATION_CAP,
          help="refuse sizes above this (default %(default)s)")
    p.add_argument("--with-stats", action="store_true",
                   help="print JSON lines with statistics instead of bare trees")

    p = sub.add_parser("series", help="print a solved series as JSON")
    p.add_argument("name", choices=sorted(SERIES_ALIASES),
                   help="f/catalan, F/trivariate, H/jumps, J/depth, K/jumpdist")
    _flag(p, "--order", 10)

    p = sub.add_parser("verify", help="check one identity, print a verdict")
    p.add_argument("theorem", choices=list(genfunc.THEOREM_IDS))
    _flag(p, "--order", 40)
    _flag(p, "--oracle-cap", genfunc.DEFAULT_ORACLE_CAP,
          help="exhaustive-enumeration bound for id 1 (default %(default)s)")

    p = sub.add_parser("moments", help="exact moment table")
    p.add_argument("stat", choices=list(moments.STATS))
    _flag(p, "--max-moment", moments.DEFAULT_MAX_MOMENT)
    _flag(p, "--nmax", moments.DEFAULT_N_MAX)
    _flag(p, "--format", "json", ["json", "csv"])
    p.add_argument("--check", action="store_true",
                   help="also check the reference closed forms "
                        "(results on stderr; failures set exit code 1)")

    p = sub.add_parser("guess", help="fit a rational function to a moment column")
    p.add_argument("stat", choices=list(moments.STATS))
    p.add_argument("--moment", required=True,
                   help="mean | variance | raw:R | central:R | scaled:R "
                        "(odd scaled moments use their squared values)")
    _flag(p, "--n-from", 2)
    _flag(p, "--n-to", 40)
    _flag(p, "--holdout", guess.DEFAULT_HOLDOUT)
    _flag(p, "--max-total-degree", guess.DEFAULT_MAX_TOTAL_DEGREE)

    p = sub.add_parser("limits", help="reference closed forms and their limits")
    _flag(p, "--stat", "all", ["all", *moments.STATS])

    return parser


def _cmd_stats(args) -> int:
    st = compute_stats(parse_tree(args.tree))
    print(json.dumps({"internal": st.internal, "jumps": st.jumps,
                      "depth": st.depth, "jumpdist": st.jumpdist}))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for tree, st in enumerate_trees_with_stats(args.n, cap=args.cap):
        if args.with_stats:
            print(json.dumps({"tree": format_tree(tree),
                              "internal": st.internal, "jumps": st.jumps,
                              "depth": st.depth, "jumpdist": st.jumpdist}))
        else:
            print(format_tree(tree))
    return EXIT_OK


def _cmd_series(args) -> int:
    name = SERIES_ALIASES[args.name]
    if args.order < 0:
        raise _UsageError("--order must be >= 0")
    series = _SOLVERS[name](args.order)
    print(json.dumps({"name": name, "order": series.order,
                      "series": series.to_json()}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.order < 0:
        raise _UsageError("--order must be >= 0")
    if args.oracle_cap < 0:
        raise _UsageError("--oracle-cap must be >= 0")
    verdict = genfunc.verify_theorem(args.theorem, args.order,
                                     oracle_cap=args.oracle_cap)
    print(json.dumps(verdict.to_json()))
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _cmd_moments(args) -> int:
    table = moments.moment_table(args.stat, max_moment=args.max_moment,
                                 n_max=args.nmax)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print(table.to_json_text())
    if not args.check:
        return EXIT_OK
    checks = moments.check_closed_forms(table)
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        extra = "" if check.passed else (
            f" (first mismatch n={check.first_mismatch_n}: {check.detail})")
        print(f"check {check.tag}: {status} "
              f"[n={check.checked_from}..{check.checked_to}]{extra}",
              file=sys.stderr)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_FAIL


def _parse_moment_spec(spec: str) -> tuple[str, int]:
    if spec == "mean":
        return "raw", 1
    if spec == "variance":
        return "central", 2
    kind, sep, digits = spec.partition(":")
    if sep and digits.isdigit():
        r = int(digits)
        if kind == "raw" and r >= 1:
            return kind, r
        if kind == "central" and r >= 2:
            return kind, r
        if kind == "scaled" and r >= 2:
            # odd scaled moments are fitted by their squared values
            return kind if r % 2 == 0 else "scaled_squared", r
    raise _UsageError(
        f"bad --moment {spec!r}: expected mean, variance, raw:R, "
        f"central:R (R>=2), or scaled:R (R>=2)")


def _cmd_guess(args) -> int:
    kind, r = _parse_moment_spec(args.moment)
    if args.n_to <= args.n_from:
        raise _UsageError("--n-to must exceed --n-from")
    table = moments.moment_table(args.stat, max_moment=r, n_max=args.n_to)
    points = []
    for n in range(max(args.n_from, 0), args.n_to + 1):
        value = table.row(n).value(kind, r)
        if value is not None:
            points.append((n, value))
    result = guess.guess_rational(points, holdout=args.holdout,
                                  max_total_degree=args.max_total_degree)
    out = {"stat": args.stat, "moment": {"kind": kind, "r": r},
           "points": {"from": points[0][0], "to": points[-1][0],
                      "holdout": args.holdout}}
    out.update(result.to_json())
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_limits(args) -> int:
    refs = [ref for ref in moments.REFERENCE_FORMULAS
            if args.stat in ("all", ref.stat)]
    print(json.dumps([ref.to_json() for ref in refs], indent=2))
    return EXIT_OK


_COMMANDS = {
    "stats": _cmd_stats,
    "enumerate": _cmd_enumerate,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "moments": _cmd_moments,
    "guess": _cmd_guess,
    "limits": _cmd_limits,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for dest, value in list(vars(args).items()):
            if isinstance(value, _EnvDefault):
                setattr(args, dest, value.resolve())
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"jumpstat: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationCapError as exc:
        print(f"jumpstat: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except genfunc.ResourceCapError as exc:
        print(f"jumpstat: {exc}; {_CAP_FLAGS[exc.limit][args.command]} must "
              f"be at most {exc.cap}", file=sys.stderr)
        return EXIT_REFUSED
    except (guess.GuessError, genfunc.SelfCheckError) as exc:
        print(f"jumpstat: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, ZeroDivisionError) as exc:
        print(f"jumpstat: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
