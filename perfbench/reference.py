"""A fixed computation that times the host, not jumpstat.

The host this benchmark runs on is a shared virtual machine whose speed
changes by up to 1.7x within a second, and drifts over minutes.  While
a job runs, ``run.py`` times ``chunk`` again and again on the same CPU,
and reports the job's CPU time in units of the chunk's mean CPU time,
which cancels the host's speed.  The chunk mixes two kinds of work the
program does: a big-integer power series and elimination modulo a
prime.  It imports nothing from jumpstat, so no change to the program
moves it.
"""

from __future__ import annotations

EXPECTED = 272229001  # chunk()'s result


def big_series(order: int) -> int:
    """Catalan-like series c = 1 + x c^2 to ``order``, in exact integers."""
    c = [1] + [0] * order
    for n in range(1, order + 1):
        c[n] = sum(c[i] * c[n - 1 - i] for i in range(n))
    sq = [sum(c[i] * c[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return sum(sq) % 1000003


def elimination(size: int, prime: int) -> int:
    """Rank of a fixed pseudo-random matrix modulo ``prime``."""
    seed, rows = 12345, []
    for _ in range(size):
        row = []
        for _ in range(size):
            seed = (seed * 1103515245 + 12345) % 2147483648
            row.append(seed % prime)
        rows.append(row)
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], prime - 2, prime)
        rows[rank] = [v * inv % prime for v in rows[rank]]
        for r in range(size):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % prime
                           for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank * 1000 + sum(rows[0]) % 1000


def chunk() -> int:
    """About 6 ms of work on the hardware the benchmark was written on."""
    return big_series(100) * 1000 + elimination(25, 1000003)
