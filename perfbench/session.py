"""The paper-session workload: one interpreter, public API only.

Verifies the identities, tabulates both statistics, checks the closed
forms, then re-guesses every reference formula at three sample ranges,
so later calls find earlier series in the solvers' caches.  Prints one
canonical JSON object (sorted keys) of the verdicts, checks and guessed
formulas; the seed only shuffles the order of the columns, so the output
does not depend on it.

    PYTHONPATH=src python3 perfbench/session.py {full|tiny} SEED [TRACE_OUT]

With TRACE_OUT, the layers are traced and the summary written there.
"""

from __future__ import annotations

import json
import random
import sys

SIZES = {
    # the oracle's cap, identity order, table size, sample ranges and the
    # largest total degree of a formula that the smallest range can fit
    "full": {"oracle": 11, "order": 32, "n_max": 32, "n_to": (32, 29, 26),
             "max_degree": 18},
    "tiny": {"oracle": 6, "order": 10, "n_max": 16, "n_to": (16, 14),
             "max_degree": 6},
}


def _column(row, ref):
    if ref.kind == "raw":
        return row.raw_moment(ref.r)
    if ref.kind == "central":
        return row.central_moment(ref.r)
    if ref.kind == "scaled":
        return row.scaled_even[ref.r]
    return row.scaled_odd_squared[ref.r][1]


def session(js, size: dict, seed: int) -> dict:
    verdicts = {"1": js.verify_theorem("1", size["oracle"],
                                       oracle_cap=size["oracle"]).passed}
    for tid in ("0", "2", "3", "4", "5", "6"):
        verdicts[tid] = js.verify_theorem(tid, size["order"]).passed

    checks = {}
    for stat in ("jumps", "jumpdist"):
        table = js.moment_table(stat, max_moment=10, n_max=size["n_max"])
        for check in js.check_closed_forms(table):
            checks[check.tag] = {"pass": check.passed,
                                 "first_mismatch_n": check.first_mismatch_n}

    columns = [ref for ref in js.REFERENCE_FORMULAS
               if sum(ref.formula.degrees()) <= size["max_degree"]]
    random.Random(seed).shuffle(columns)
    guesses = {}
    for n_to in size["n_to"]:
        found = guesses[str(n_to)] = {}
        for ref in columns:
            table = js.moment_table(ref.stat, max_moment=ref.r, n_max=n_to)
            points = [(n, _column(table.row(n), ref))
                      for n in range(2, n_to + 1)]
            result = js.guess_rational(points)
            found[ref.tag] = {"formula": result.formula.to_json(),
                              "matches_reference": result.formula == ref.formula}
    return {"verdicts": verdicts, "checks": checks, "guesses": guesses}


def main(argv: list[str]) -> int:
    size, seed = SIZES[argv[0]], int(argv[1])
    tracer = None
    if len(argv) > 2:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import jumpstat
    print(json.dumps(session(jumpstat, size, seed), sort_keys=True))
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
