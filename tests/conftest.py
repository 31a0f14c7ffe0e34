"""Shared fixtures: exhaustive statistic counts used as ground truth.

The counters map a size n to a Counter over TreeStats tuples, built by
walking every tree once.  Unit tests use the small sweep (n <= 8); the
acceptance suite uses the full one (n <= 12) as the brute-force oracle
for the jump-distance skewness sign.  Both are session-scoped, so each
is paid for once per run.

Every test starts with no moment table cached (``cold_tables``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from jumpstat import moments
from jumpstat.trees import enumerate_trees_with_stats


def _count_stats(n_max: int) -> dict[int, Counter]:
    counts: dict[int, Counter] = {}
    for n in range(n_max + 1):
        acc: Counter = Counter()
        for _, st in enumerate_trees_with_stats(n):
            acc[st] += 1
        counts[n] = acc
    return counts


@pytest.fixture(autouse=True)
def cold_tables():
    """Empty every statistic's table cache: a table an earlier test built
    would serve each request it covers, and the tests that count decodes
    or inject faults need their table built."""
    for tables in moments._TABLES.values():
        tables.cache_clear()


@pytest.fixture(scope="session")
def stat_counts_small() -> dict[int, Counter]:
    return _count_stats(8)


@pytest.fixture(scope="session")
def stat_counts_full() -> dict[int, Counter]:
    return _count_stats(12)


@pytest.fixture
def acceptance_report(request):
    """Record one PASS/FAIL line per acceptance criterion; the lines are
    replayed uncaptured in the terminal summary."""
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is None:
        lines = request.config._acceptance_lines = []

    def report(criterion: str, ok: bool, detail: str) -> None:
        lines.append(
            f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
