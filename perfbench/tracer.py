"""Per-layer timing of jumpstat, applied from outside the package.

``install`` replaces the public functions of each layer (``trees``,
``algebra``, ``genfunc``, ``moments``, ``guess``, ``cli``) with wrappers
that record one span per call: name, parent span, start and end.  Every
binding of a wrapped function is replaced -- module attributes, names
imported into other modules, class attributes such as ``Series.__rmul__``
and module-level tables such as ``cli._SOLVERS`` -- because the modules
call each other through those bindings.  The wrappers call the original
objects, so the solvers' ``lru_cache`` statistics stay readable.

Spans are kept in memory and summarised once, when the process ends.

Run as a script, it executes one traced CLI command and writes the
summary as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_OUT moments jumps --nmax 8
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SOLVERS = ("solve_catalan", "solve_F", "solve_H", "solve_Jdepth", "solve_K")

COUNTERS = ("algebra.mul.coeff_products", "algebra.mul.max_coeff_bits",
            "algebra.fixed_point.iterations", "guess.fit.accepted",
            "guess.guess_rational.accepted", "trees.trees_enumerated")


class Tracer:
    """Spans and counters of one process.

    A span is ``[name, parent index or -1, start, end]``; spans come from
    a call stack, so each one lies inside its parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.caches: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs
        on each successful return, outside the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total seconds (nested calls of the same
        name counted once) and self seconds; plus counters and the
        solvers' cache statistics."""
        selfs = self_times(self.spans)
        names = [s[0] for s in self.spans]
        out: dict[str, dict] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += selfs[i]
            while parent != -1 and names[parent] != name:
                parent = self.spans[parent][1]
            if parent == -1:
                agg["s"] += end - start
        infos = [c.cache_info() for c in self.caches]
        return {"spans": out, "counters": dict(self.counters),
                "cache": {"hits": sum(i.hits for i in infos),
                          "misses": sum(i.misses for i in infos)}}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Raises ValueError when a child does not lie inside its parent, which
    would make the self time meaningless.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent == -1:
            continue
        _, _, p_start, p_end = spans[parent]
        if start < p_start or end > p_end:
            raise ValueError(f"span {name} lies outside its parent")
        covered[parent] += end - start
    return [s[3] - s[2] - covered[i] for i, s in enumerate(spans)]


def _rebind(modules, classes, original, replacement) -> int:
    """Replace every binding of ``original``; returns how many there were."""
    count = 0
    for owner in (*modules, *classes):
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)
                count += 1
            elif isinstance(value, dict) and owner in modules:
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement
                        count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions in ``tracer`` spans."""
    import jumpstat
    from jumpstat import algebra, cli, genfunc, guess, moments, trees

    modules = (jumpstat, algebra, cli, genfunc, guess, moments, trees)
    counters = tracer.counters

    def patch(name, original, fn=None, after=None, owner=modules, classes=()):
        wrapped = tracer.wrap(name, fn or original, after)
        if not _rebind(owner, classes, original, wrapped):
            raise RuntimeError(f"no binding of {name} found to trace")

    def count_mul(args, result):
        if result is NotImplemented:
            return
        a, b = args
        if isinstance(b, algebra.Series):
            sizes_b = [len(c.items()) for c in b.coefficients()]
        else:
            sizes_b = [len(b.items()) if isinstance(b, algebra.Poly2) else 1]
        # sum over i + j <= order of |a_i| * |b_j|, by prefix sums of |b_j|
        order = result.order
        prefix, acc = [], 0
        for size in sizes_b[: order + 1]:
            acc += size
            prefix.append(acc)
        products = 0
        for i, c in enumerate(a.coefficients()[: order + 1]):
            products += len(c.items()) * prefix[min(order - i, len(prefix) - 1)]
        counters["algebra.mul.coeff_products"] += products
        # the top coefficient holds the largest values of these series;
        # scanning every coefficient would cost a fifth of the product
        bits = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                    for _, v in result.coefficient(order).items()), default=0)
        if bits > counters["algebra.mul.max_coeff_bits"]:
            counters["algebra.mul.max_coeff_bits"] = bits

    series = algebra.Series
    patch("algebra.mul", series.__mul__, after=count_mul, owner=(),
          classes=(series,))
    patch("algebra.sqrt", series.sqrt, owner=(), classes=(series,))
    patch("algebra.inverse", series.inverse, owner=(), classes=(series,))

    solve = algebra.fixed_point_solve

    def fixed_point_solve(phi, order):
        def counted(s):
            counters["algebra.fixed_point.iterations"] += 1
            return phi(s)
        return solve(counted, order)

    patch("algebra.fixed_point", solve, fn=fixed_point_solve)

    for name in SOLVERS:
        solver = getattr(genfunc, name)
        tracer.caches.append(solver)
        patch(f"genfunc.{name}", solver)
    patch("genfunc.verify", genfunc.verify_theorem)
    patch("genfunc.verify", genfunc.verify_F_closed_form)

    patch("moments.moment_table", moments.moment_table)
    patch("moments.q_log_derivative", moments.q_log_derivative_power)
    patch("moments.check_closed_forms", moments.check_closed_forms)

    def count(counter):
        def after(args, result):
            counters[counter] += 1
        return after

    patch("guess.guess_rational", guess.guess_rational,
          after=count("guess.guess_rational.accepted"))
    patch("guess.fit", guess.fit_rational, after=count("guess.fit.accepted"))

    def count_trees(args, result):
        counters["trees.trees_enumerated"] += sum(
            v for c in result.coefficients() for _, v in c.items())

    patch("trees.enumerator", trees.brute_force_enumerator, after=count_trees)
    patch("cli.main", cli.main)


def _run_cli(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from jumpstat import cli
    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1:]))
