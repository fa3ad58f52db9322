"""How fast the shared machine runs right now, from a fixed probe kernel.

Other tenants slow this machine down by up to 2x for seconds to minutes at
a time.  ``probe()`` times a few milliseconds of pure-Python work that
churns small dicts, sets and frozensets, as the package does, without
touching the package.  A time ``t`` measured while the probe takes ``p``
is ``t * REF_S / p`` reference seconds: the time it would take on a
machine where the probe takes ``REF_S``.
"""

from __future__ import annotations

import time

ROUNDS = 200
# Roughly the probe's time on the 2-core x86-64 VM (Python 3.11) that
# baseline.json was recorded on, at a quiet moment.
REF_S = 0.004


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for r in range(ROUNDS):
        table = {i: frozenset(range(i % 7)) for i in range(40)}
        total += sum(len(v) for v in table.values())
        total += len(set(range(r % 50)) - {1, 2, 3})
    return time.perf_counter() - start
