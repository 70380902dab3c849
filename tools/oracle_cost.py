"""Per-event cost of each exact reference policy, fully associative, as JSON.

Run from anywhere, against the ``src`` directory of any checkout:

    python3 tools/oracle_cost.py --src ../parent/src > parent.json
    python3 tools/oracle_cost.py > change.json

Each of fifo, lru, lfu and hyperbolic replays one fixed-seed Zipf(10^6, 0.99)
trace (seed 1, 2x10^4 events by default) through ``ReferenceCache(policy,
capacity, 1)`` at capacities 128, 512 and 2048, on a fresh cache per run.
The figure is the best of three runs, in microseconds per event, and
covers the ``fetch`` calls only: building the trace and the cache is outside
the timed loop.  The checkout's ``dpcache`` is imported from ``--src``, which
defaults to this checkout's own ``src``; only the standard library is used
besides it.
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
REPEAT = 3


def us_per_event(cache_of, keys: list[int]) -> float:
    """Best of ``REPEAT`` replays of ``keys``, each through a fresh ``cache_of()``."""
    best = float("inf")
    for _ in range(REPEAT):
        fetch = cache_of().fetch
        start = time.perf_counter()
        for key in keys:
            fetch(key)
        best = min(best, time.perf_counter() - start)
    return best / len(keys) * 1e6


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
    table = {
        policy: {str(capacity): round(us_per_event(
            lambda: ReferenceCache(policy, capacity, 1), keys), 3)
            for capacity in args.capacities}
        for policy in POLICIES
    }
    record = {"events": args.events, "zipf": [ZIPF_N, ZIPF_S, SEED],
              "repeat": REPEAT, "us_per_event": table}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
