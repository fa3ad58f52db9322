"""The planecharge benchmark.

    python3 perfbench/run.py --workload {choose,enumerate,sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each repeat ("pass") of a workload runs in a
fresh interpreter (``worker.py``), one item at a time, so the package's
caches start cold as they do for every CLI run.  With ``--trace 0`` whole
passes run back to back, at least two, while the next one is expected to
end within ``--seconds``.

The machine is shared, and other tenants slow it down by up to 2x for
tens of seconds at a time.  So the worker runs a fixed probe kernel about
every tenth of a second, and every item time is scaled to the speed at which
that kernel takes ``speed.REF_S``: times are "reference seconds".
``wall_s`` sums each item's median time over the passes.
``item_p50_ms`` and ``item_tail_ms`` are quantiles of every item time of
every pass: the median, and the highest percentile that still has 10
items of a pass beyond it (the detail line names that percentile and the
item count).  Unscaled pass times and probe times are in the detail line
and in ``out/``.
``peak_rss_mb`` is the median over passes of each pass's ``ru_maxrss``.
``setup_s`` is the median wall time, unscaled, of ``SETUP_LAUNCHES`` fresh
interpreters that import planecharge and build catalog() and
named_examples(); scaling by the probe made it no steadier.

With ``--trace 1`` one untraced and one traced pass run.  The per-layer
metrics come from the traced one, with its times unscaled;
``trace_overhead_s`` is the traced pass's ``wall_s`` minus the untraced
one's, both in reference seconds.  Metric names and units are read from
``BENCHMARK.json``.

Every answer is checked; an item fails when it raises, fails its check, or
when its SHA-256 digest differs from the other passes of the run or from
``pinned.json`` (the digests at the pinned seed; ``enumerate`` ignores the
seed, so its digests are checked at every seed).  The line before the
result carries the details: machine, passes, item count, the percentile
that ``item_tail_ms`` reports, and the run's digest.

Workloads (all closed loops, one process, no threads):

* ``choose``: verify_catalog; k=2 on K_{2,4}, K_{3,3} and C_4; the
  clique demand grid of acceptance criterion 4 without the K_4 multisets
  that contain a 6 (245 queries); and 29 seeded random graphs on 3-5
  vertices with demands 1-3 (``worker.py`` says why these cuts).
* ``enumerate``: a cold enumerate_class(7), every planar embedding of each
  member, and find_any_reducible on each embedding.  The seed is unused.
* ``sweep``: 150 seeded lattice patches of 20-200 vertices, square and
  hexagonal in turn, written as graph files before timing; per host, cli.run for inspect, match and
  discharge --ledger with to_json(), and reconcile_face on every 6+-face.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT = os.path.join(BENCH_DIR, "out")
HOST_DIR = os.path.join(OUT, "hosts")
PINNED = os.path.join(BENCH_DIR, "pinned.json")

WORKLOADS = ("choose", "enumerate", "sweep")
SEEDED = {"choose": True, "enumerate": False, "sweep": True}
SETUP_LAUNCHES = 11
MIN_PASSES = 2
PROBE_WINDOW = 5
SWEEP_HOSTS = 150
SWEEP_SIZES = (20, 200)
TIME_LIMIT_S = 170.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import planecharge; "
    "planecharge.catalog(); planecharge.named_examples()"
)


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr, with no result."""


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing planecharge and
    building catalog() and named_examples(); one unmeasured launch first."""
    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True, text=True
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def sweep_sizes(tiny: bool) -> list[int]:
    if tiny:
        return [20, 25, 30]
    lo, hi = SWEEP_SIZES
    return [lo + (hi - lo) * i // (SWEEP_HOSTS - 1) for i in range(SWEEP_HOSTS)]


def write_hosts(seed: int, tiny: bool) -> None:
    """Seeded lattice members as graph files, for the sweep workload."""
    sys.path.insert(0, SRC)
    from planecharge.corpus import random_class_member
    from planecharge.plane_graph import dump_graph_file

    os.makedirs(HOST_DIR, exist_ok=True)
    for name in os.listdir(HOST_DIR):
        os.remove(os.path.join(HOST_DIR, name))
    rng = random.Random(seed)
    for i, n in enumerate(sweep_sizes(tiny)):
        # Alternate square-lattice patches (with degree-4 vertices) and
        # hexagonal ones, so that every seed has as many of each size band.
        while True:
            graph = random_class_member(rng.randrange(2**32), n)
            if (max(graph.degree(v) for v in range(n)) == 4) == (i % 2 == 0):
                break
        dump_graph_file(graph, os.path.join(HOST_DIR, f"h{i:03d}.graph"))


def run_worker(workload: str, seed: int, tiny: bool, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within {TIME_LIMIT_S:.0f}s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = sum(result["times"])
    return result


def local_probe(probes: list[float], before: int) -> float:
    """The machine's speed around an item: the median of the PROBE_WINDOW
    probes before it and the PROBE_WINDOW after it."""
    first = max(before + 1 - PROBE_WINDOW, 0)
    return statistics.median(probes[first : before + 1 + PROBE_WINDOW])


def tail_index(samples: int, items: int) -> tuple[int, float]:
    """Index into ``samples`` sorted item times from passes of ``items``
    items, and its percentile: the highest percentile that still has at
    least 10 items of a pass beyond it."""
    beyond = min(10, items - 1)
    index = -(-samples * (items - beyond) // items) - 1
    return index, 100.0 * (items - beyond) / items


def tally(result: dict, references: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) for one pass.  An item fails when it failed its
    check or its digest differs from a reference; items missing from the
    pass, or extra, count as attempted and failed."""
    digests = result["digests"]
    attempted = max([len(digests)] + [len(r) for r in references])
    failed = attempted - len(digests)
    for i, ok in enumerate(result["ok"]):
        failed += not ok or any(
            i >= len(r) or digests[i][: len(r[i])] != r[i] for r in references
        )
    return attempted, failed


def run_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def pinned_items(workload: str, seed: int, tiny: bool) -> list[str] | None:
    """The pinned item digests that apply to this run, if any."""
    if tiny:
        return None
    try:
        with open(PINNED, encoding="utf-8") as fh:
            pinned = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {PINNED}: {exc.strerror}")
    if SEEDED[workload] and seed != pinned["seed"]:
        return None
    return pinned["workloads"][workload]["items"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not os.path.isfile(os.path.join(SRC, "planecharge", "__init__.py")):
            raise BenchError(f"no planecharge package under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        pinned = pinned_items(args.workload, args.seed, args.tiny)
        os.makedirs(OUT, exist_ok=True)
        setup_s = measure_setup() if not args.trace else None
        if args.workload == "sweep":
            write_hosts(args.seed, args.tiny)

        passes = []
        if args.trace:
            passes.append(run_worker(args.workload, args.seed, args.tiny, False, deadline))
            passes.append(run_worker(args.workload, args.seed, args.tiny, True, deadline))
        else:
            start = time.monotonic()
            while True:
                began = time.monotonic()
                passes.append(run_worker(args.workload, args.seed, args.tiny, False, deadline))
                now = time.monotonic()
                last = now - began
                if len(passes) >= MIN_PASSES and now - start + last > args.seconds:
                    break
                if now + last > deadline:
                    break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = passes[0]["digests"]
    references = [first] + ([pinned] if pinned is not None else [])
    attempted = failed = 0
    for p in passes:
        a, f = tally(p, references)
        attempted += a
        failed += f

    name = f"passes-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(passes, fh)
    count = min(len(p["times"]) for p in passes)
    scaled = [
        [t * speed.REF_S / local_probe(p["probes"], b) for t, b in zip(p["times"], p["before"])]
        for p in passes
    ]
    pooled = sorted(t for row in scaled for t in row[:count])
    index, tail_pct = tail_index(len(pooled), count)
    if args.trace:
        untraced, traced = passes
        values = dict(traced["layers"])
        values["trace_overhead_s"] = sum(scaled[1][:count]) - sum(scaled[0][:count])
        values["fail_frac"] = failed / max(attempted, 1)
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": sum(statistics.median(row[i] for row in scaled) for i in range(count)),
            "item_p50_ms": 1000.0 * statistics.median(pooled),
            "item_tail_ms": 1000.0 * pooled[index],
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
            "setup_s": setup_s,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "passes": len(passes),
        "items": count,
        "item_tail_pct": tail_pct,
        "fail_frac": failed / max(attempted, 1),
        "digest": run_digest(first),
        "digest_pinned": pinned is not None,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_probe_ms": [1000.0 * statistics.median(p["probes"]) for p in passes],
        "pass_rss_mb": [p["rss_kb"] / 1024.0 for p in passes],
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
