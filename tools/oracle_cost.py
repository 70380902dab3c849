"""Per-event cost of each exact reference policy, fully associative, as JSON.

Run from anywhere, against the ``src`` directory of any checkout:

    python3 tools/oracle_cost.py --src ../parent/src > parent.json
    python3 tools/oracle_cost.py > change.json

Each of fifo, lru, lfu and hyperbolic replays one fixed-seed Zipf(10^6, 0.99)
trace (seed 1, 2x10^4 events by default) through ``ReferenceCache(policy,
capacity, 1)`` at capacities 128, 512 and 2048, on a fresh cache per run.
Each (policy, capacity) cell runs five times, and the cells take turns: every
round replays each cell once, so load on the host during a run slows all
cells alike rather than one block of them.  ``us_per_event`` holds each
cell's best run and ``us_per_event_range`` its best and worst, in
microseconds per event; a wide range marks a noisy run.  Only the ``fetch``
calls are timed: building the trace and the cache is outside the timed
loop.  The checkout's ``dpcache`` is imported from ``--src``, which defaults
to this checkout's own ``src``; only the standard library is used besides
it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

POLICIES = ("fifo", "lru", "lfu", "hyperbolic")
CAPACITIES = (128, 512, 2048)
ZIPF_N, ZIPF_S, SEED = 10**6, 0.99, 1
REPEAT = 5


def us_per_event(cache, keys: list[int]) -> float:
    """One replay of ``keys`` through ``cache``, in microseconds per event."""
    fetch = cache.fetch
    start = time.perf_counter()
    for key in keys:
        fetch(key)
    return (time.perf_counter() - start) / len(keys) * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose dpcache is timed")
    parser.add_argument("--events", type=int, default=20_000)
    parser.add_argument("--capacities", type=lambda s: [int(c) for c in s.split(",")],
                        default=list(CAPACITIES), help="comma-separated, default 128,512,2048")
    args = parser.parse_args(argv)
    if args.events < 1 or min(args.capacities) < 1:
        parser.error("--events and every capacity must be >= 1")

    sys.path.insert(0, str(args.src.resolve()))
    from dpcache.oracle import ReferenceCache
    from dpcache.traces import ZipfSpec, generate_zipf

    keys = generate_zipf(ZipfSpec(N=ZIPF_N, s=ZIPF_S, length=args.events, seed=SEED)).keys.tolist()
    cells = [(policy, capacity) for policy in POLICIES for capacity in args.capacities]
    runs: dict[tuple[str, int], list[float]] = {cell: [] for cell in cells}
    for _ in range(REPEAT):
        for policy, capacity in cells:
            runs[policy, capacity].append(us_per_event(ReferenceCache(policy, capacity, 1), keys))
    best, spread = {}, {}
    for (policy, capacity), costs in runs.items():
        low, high = round(min(costs), 3), round(max(costs), 3)
        best.setdefault(policy, {})[str(capacity)] = low
        spread.setdefault(policy, {})[str(capacity)] = [low, high]
    record = {"events": args.events, "zipf": [ZIPF_N, ZIPF_S, SEED], "repeat": REPEAT,
              "us_per_event": best, "us_per_event_range": spread}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
