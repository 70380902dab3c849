"""Cost of parsing plain trace files of 64-bit ids, per line, as JSON.

Run from anywhere, against the ``src`` directory of any checkout:

    python3 tools/ingest_cost.py --src ../parent/src > parent.json
    python3 tools/ingest_cost.py > change.json

For each size (10^5 and 10^6 lines by default), a plain file of seeded
random 64-bit ids (seed 1, so in practice every id is distinct) is written
to a temporary directory, which is removed at the end.  Each file is parsed
with ``parse_trace`` five times by default, and the sizes take turns: every
round parses each file once, so load on the host during a run slows all
sizes alike.  ``ns_per_line`` holds each size's best run and
``ns_per_line_range`` its best and worst, in nanoseconds per line; a wide
range marks a noisy run.  One more parse of each file runs under
``tracemalloc``, and ``peak_mb`` is its peak in MB (2^20 bytes).  Writing
the files is not timed.  The checkout's ``dpcache`` is imported from
``--src``, which defaults to this checkout's own ``src``; only the standard
library is used besides it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SIZES = (10**5, 10**6)
SEED = 1
REPEAT = 5
WRITE_CHUNK = 1 << 16  # ids per write


def write_ids(path: Path, lines: int, seed: int) -> None:
    """A plain trace of ``lines`` seeded random 64-bit ids."""
    rng = random.Random(seed)
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, lines, WRITE_CHUNK):
            ids = [rng.getrandbits(64) for _ in range(min(WRITE_CHUNK, lines - start))]
            fh.write("\n".join(map(str, ids)) + "\n")


def ns_per_line(parse_trace, path: Path, lines: int) -> float:
    """One parse of the file at ``path``, in nanoseconds per line."""
    start = time.perf_counter()
    parse_trace(str(path))
    return (time.perf_counter() - start) / lines * 1e9


def traced(parse_trace, path: Path) -> tuple[int, float]:
    """The distinct keys of one parse of ``path`` and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        trace = parse_trace(str(path))
        return trace.max_key, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory whose dpcache is timed")
    parser.add_argument("--lines", type=lambda s: [int(n) for n in s.split(",")],
                        default=list(SIZES), help="comma-separated, default 100000,1000000")
    parser.add_argument("--repeat", type=int, default=REPEAT)
    args = parser.parse_args(argv)
    if min(args.lines) < 1 or args.repeat < 1:
        parser.error("--repeat and every size must be >= 1")

    sys.path.insert(0, str(args.src.resolve()))
    from dpcache.traces import parse_trace

    with tempfile.TemporaryDirectory(prefix="ingest-cost-") as tmp:
        paths = {lines: Path(tmp) / f"ids-{lines}.trace" for lines in args.lines}
        for lines, path in paths.items():
            write_ids(path, lines, SEED)
        runs: dict[int, list[float]] = {lines: [] for lines in paths}
        for _ in range(args.repeat):
            for lines, path in paths.items():
                runs[lines].append(ns_per_line(parse_trace, path, lines))
        memory = {lines: traced(parse_trace, path) for lines, path in paths.items()}
    record = {
        "lines": args.lines, "seed": SEED, "repeat": args.repeat,
        "distinct": {str(lines): memory[lines][0] for lines in paths},
        "ns_per_line": {str(lines): round(min(costs), 1) for lines, costs in runs.items()},
        "ns_per_line_range": {str(lines): [round(min(costs), 1), round(max(costs), 1)]
                              for lines, costs in runs.items()},
        "peak_mb": {str(lines): round(memory[lines][1], 2) for lines in paths},
    }
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
