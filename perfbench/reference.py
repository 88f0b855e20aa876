"""The reference work: fixed interpreter work that does not depend on the
repository, timed around every benchmark step so that step times can be
expressed in multiples of it (the unit ``ref``).

The machine the benchmark was built on is a shared VM whose speed drifts
by up to 80% over tens of seconds; a step's time divided by the time of
this work, measured just before and just after it, stays put while the
machine's speed moves.  The work mixes the kinds of work the library
does: exact fractions, tuples as keys of a dict larger than the caches, a
sort and a JSON round trip.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction


def work() -> None:
    x = Fraction(1)
    for i in range(1, 100):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    table = {}
    for i in range(10000):
        key = (i & 1023, (i * 7919) % 4093)
        table[key] = table.get(key, 0) + i
    rows = sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    json.loads(json.dumps(rows[:1250]))


def seconds() -> float:
    """Mean time of three runs of the reference work.  The mean, not the
    fastest: a step lives through the machine's slow moments too."""
    started = time.perf_counter()
    for _ in range(3):
        work()
    return (time.perf_counter() - started) / 3
