"""Cost of trace ingest, as JSON: parsing files, per line, and generating Zipf traces, per draw.

Run from anywhere, against the ``src`` directory of any checkout:

    python3 tools/ingest_cost.py --src ../parent/src > parent.json
    python3 tools/ingest_cost.py > change.json

For each size (10^5 and 10^6 lines by default), three files are written
to a temporary directory, which is removed at the end:

* a plain file of seeded random 64-bit ids (seed 1, so in practice every id
  is distinct);
* a plain file of repeated keys in the benchmark's shape: seed-1
  Zipf(10^6, 0.99) ranks from ``generate_zipf``, each times
  ``0x9E3779B97F4A7C15`` mod 2^64;
* a ``csv`` file of the same Zipf keys, one ``ts,key`` row each under that
  header, ``ts`` being the row's index.

Each file is parsed with ``parse_trace`` five times by default, and the
files take turns: every round parses each file once, and then draws one
seed-1 Zipf(N, 0.99) trace with ``generate_zipf`` for N = 10^4 and 10^6, as
many keys as the largest size, so load on the host during a run slows all
files and draws alike.  ``ns_per_line`` holds each size's best
run and ``ns_per_line_range`` its best and worst, in nanoseconds per line; a
wide range marks a noisy run.  One more parse of each file runs under
``tracemalloc``, and ``peak_mb`` is its peak in MB (2^20 bytes).
``distinct`` is the number of distinct keys of each file.  The top-level
fields are the id files'; the ``zipf`` and ``csv`` fields hold the same four
fields for the plain and the CSV Zipf files.  A line of a CSV file is one
row; its header is not counted.  The ``generate`` fields are keyed by N:
``ns_per_draw`` and ``ns_per_draw_range`` time the draws alone, each N's
weight table having been built before the rounds, and ``peak_mb`` is the
``tracemalloc`` peak of one more draw that builds its table, 8 bytes per
rank, as a fresh process does.  Writing the files is not timed.  The checkout's
``dpcache`` is imported from ``--src``, which defaults to this checkout's
own ``src``; only the standard library is used besides it.
"""

from __future__ import annotations

import argparse
import functools
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
ZIPF_N, ZIPF_S = 10**6, 0.99
SCRAMBLE = 0x9E3779B97F4A7C15  # the odd constant a Zipf rank is multiplied by
KINDS = ("ids", "zipf", "csv")
UNIVERSES = (10**4, ZIPF_N)  # the N of each generated trace


def write_ids(path: Path, lines: int, seed: int) -> None:
    """A plain trace of ``lines`` seeded random 64-bit ids."""
    rng = random.Random(seed)
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, lines, WRITE_CHUNK):
            ids = [rng.getrandbits(64) for _ in range(min(WRITE_CHUNK, lines - start))]
            fh.write("\n".join(map(str, ids)) + "\n")


def write_zipf(path: Path, ranks, csv: bool = False) -> None:
    """A trace of the Zipf ``ranks``, each scrambled as the benchmark does it:
    one key per line, or with ``csv`` one ``ts,key`` row per key under that
    header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ts,key\n" if csv else "")
        for start in range(0, len(ranks), WRITE_CHUNK):
            keys = (rank * SCRAMBLE % 2**64 for rank in ranks[start:start + WRITE_CHUNK])
            rows = (f"{ts},{key}" for ts, key in enumerate(keys, start)) if csv else map(str, keys)
            fh.write("\n".join(rows) + "\n")


def ns_per_line(parse_trace, path: Path, lines: int) -> float:
    """One parse of the file at ``path``, in nanoseconds per line."""
    start = time.perf_counter()
    parse_trace(str(path))
    return (time.perf_counter() - start) / lines * 1e9


def ns_per_draw(generate_zipf, spec) -> float:
    """One ``generate_zipf(spec)``, in nanoseconds per draw."""
    start = time.perf_counter()
    generate_zipf(spec)
    return (time.perf_counter() - start) / spec.length * 1e9


def traced(fn):
    """The trace ``fn()`` returns and the call's tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2**20
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
    from dpcache import traces
    from dpcache.traces import ZipfSpec, generate_zipf, parse_trace

    with tempfile.TemporaryDirectory(prefix="ingest-cost-") as tmp:
        paths = {(kind, lines): Path(tmp) / f"{kind}-{lines}.trace"
                 for lines in args.lines for kind in KINDS}
        for (kind, lines), path in paths.items():
            if kind == "ids":
                write_ids(path, lines, SEED)
            else:
                write_zipf(path, generate_zipf(ZipfSpec(ZIPF_N, ZIPF_S, lines, SEED)).keys,
                           csv=kind == "csv")
        parse = {kind: functools.partial(parse_trace, format="csv" if kind == "csv" else "plain")
                 for kind in KINDS}
        specs = {("generate", n): ZipfSpec(n, ZIPF_S, max(args.lines), SEED) for n in UNIVERSES}
        for spec in specs.values():
            traces._zipf_cdf(spec.N, float(spec.s))  # the weight table, built before the timed draws
        runs: dict[tuple[str, int], list[float]] = {key: [] for key in [*paths, *specs]}
        for _ in range(args.repeat):
            for (kind, lines), path in paths.items():
                runs[kind, lines].append(ns_per_line(parse[kind], path, lines))
            for key, spec in specs.items():
                runs[key].append(ns_per_draw(generate_zipf, spec))
        memory = {}  # (kind, size) -> (max_key, peak_mb)
        for (kind, lines), path in paths.items():
            trace, peak = traced(functools.partial(parse[kind], str(path)))
            memory[kind, lines] = trace.max_key, peak
        for key, spec in specs.items():
            traces._zipf_cdf.cache_clear()
            trace, peak = traced(functools.partial(generate_zipf, spec))
            memory[key] = trace.max_key, peak

    def timed(kind: str, sizes, unit: str) -> dict:
        costs = {str(size): runs[kind, size] for size in sizes}
        return {
            f"ns_per_{unit}": {size: round(min(times), 1) for size, times in costs.items()},
            f"ns_per_{unit}_range": {size: [round(min(times), 1), round(max(times), 1)]
                                     for size, times in costs.items()},
            "peak_mb": {str(size): round(memory[kind, size][1], 2) for size in sizes},
        }

    def fields(kind: str) -> dict:
        return {"distinct": {str(lines): memory[kind, lines][0] for lines in args.lines},
                **timed(kind, args.lines, "line")}

    record = {"lines": args.lines, "seed": SEED, "repeat": args.repeat, **fields("ids"),
              **{kind: {"universe": ZIPF_N, "s": ZIPF_S, **fields(kind)} for kind in ("zipf", "csv")},
              "generate": {"s": ZIPF_S, "draws": max(args.lines), **timed("generate", UNIVERSES, "draw")}}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
