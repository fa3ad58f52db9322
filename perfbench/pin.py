"""Rewrite ``pinned.json``: the per-item answer digests of every workload at
the pinned seed, which ``run.py`` checks to catch a changed answer or
report byte.

    python3 perfbench/pin.py

Re-pin only in a change that means to alter answers or reports, and say so
in that change.
"""

from __future__ import annotations

import json
import sys
import time

import run

PIN_SEED = 1


def main() -> int:
    pinned = {"seed": PIN_SEED, "workloads": {}}
    for workload in run.WORKLOADS:
        if workload == "sweep":
            run.write_hosts(PIN_SEED, False)
        deadline = time.monotonic() + run.TIME_LIMIT_S
        result = run.run_worker(workload, PIN_SEED, False, False, deadline)
        if not all(result["ok"]):
            print(f"error: {workload} has items that fail their checks", file=sys.stderr)
            return 1
        pinned["workloads"][workload] = {
            "digest": run.run_digest(result["digests"]),
            "items": [d[:16] for d in result["digests"]],
        }
    with open(run.PINNED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
