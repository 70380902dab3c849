"""Alternating parent/change runs of one benchmark workload, summarised per metric.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload lru-k64-zipf-miss --seed 1 --pairs 10 --seconds 20 --out pairs.json

Before the first run, both checkouts must hold the same benchmark: the same
``BENCHMARK.json`` and the same files under ``bench/`` (``bench/_work/`` and
``__pycache__/`` aside), compared by sha256.  If they differ, the script names
every differing path and exits with status 1.

Each pair runs ``bench/run.py --trace 0`` once in each checkout, the parent
first in even pairs and the change first in odd ones, so drift of the host's
speed falls on both sides alike.  Every run must report ``correct: true``; the
first that does not stops the script with status 1.  The end-to-end metrics
and the direction in which each is better are read from the change's
``BENCHMARK.json``.

The JSON file, rewritten after every pair, holds the benchmark's digest
(``benchmark_sha256``), each pair's metrics and, per
metric, each side's median and quartiles (``statistics.quantiles`` with the
inclusive method), the change's wins, losses and ties, and ``gain``: the
change won at least nine tenths of the pairs (ties count for neither side)
and its median is better than the parent's by more than the distance between
the parent's quartiles.  ``within_bound`` is the no-regression rule: the
change's median is worse than the parent's by at most the metric's ``bound``
in ``BENCHMARK.json``, as a fraction of the parent's median.  A metric is
``unresolved`` when the parent's own runs spread wider than that bound (the
distance between its quartiles, as a fraction of its median), unless every
run of the change is better than every run of the parent: such a metric
cannot show a regression of the bound's size either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict[str, dict[str, float]]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Per-metric medians, quartiles, wins, the gain rule and the bound rule over ``pairs``.

    Each pair is ``{"parent": {metric: value}, "change": {metric: value}}``;
    ``better`` maps each metric to ``"higher"`` or ``"lower"`` and ``bounds``
    to its allowed regression; ``within_bound`` and ``unresolved`` are None
    for a metric without a bound.
    """
    bounds = bounds or {}
    summary = {}
    for metric, direction in better.items():
        sign = 1 if direction == "higher" else -1
        parent = [pair["parent"][metric] for pair in pairs]
        change = [pair["change"][metric] for pair in pairs]
        gaps = [sign * (c - p) for p, c in zip(parent, change)]
        wins = sum(gap > 0 for gap in gaps)
        losses = sum(gap < 0 for gap in gaps)
        base, new = quartiles(parent), quartiles(change)
        spread = base["q3"] - base["q1"]
        bound = bounds.get(metric)
        beats_every_parent_run = min(sign * c for c in change) > max(sign * p for p in parent)
        summary[metric] = {
            "better": direction,
            "parent": base,
            "change": new,
            "ratio": new["median"] / base["median"] if base["median"] else None,
            "wins": wins,
            "losses": losses,
            "ties": len(pairs) - wins - losses,
            "gain": wins >= 0.9 * len(pairs) and sign * (new["median"] - base["median"]) > spread,
            "within_bound": None if bound is None else
            sign * (base["median"] - new["median"]) <= bound * abs(base["median"]),
            "unresolved": None if bound is None else
            spread > bound * abs(base["median"]) and not beats_every_parent_run,
        }
    return summary


def benchmark_files(checkout: Path) -> dict[str, str]:
    """sha256 of ``BENCHMARK.json`` and of each file under ``bench/``, by relative path.

    ``bench/_work/`` (run outputs) and ``__pycache__/`` directories are left out.
    """
    paths = [checkout / "BENCHMARK.json", *(checkout / "bench").rglob("*")]
    hashes = {}
    for path in paths:
        rel = path.relative_to(checkout)
        if rel.parts[:2] == ("bench", "_work") or "__pycache__" in rel.parts or path.is_dir():
            continue
        hashes[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def compare_benchmarks(parent: Path, change: Path) -> tuple[str, list[str]]:
    """The digest of the parent's benchmark files and the paths whose hashes differ."""
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    differing = sorted(path for path in ours.keys() | theirs.keys()
                       if ours.get(path) != theirs.get(path))
    listing = "".join(f"{path} {ours[path]}\n" for path in sorted(ours))
    return hashlib.sha256(listing.encode()).hexdigest(), differing


def end_to_end(checkout: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Each end-to-end metric of the benchmark: the direction that is better, and its bound."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    return ({metric["name"]: metric["better"] for metric in metrics},
            {metric["name"]: metric["bound"] for metric in metrics})


def run_once(checkout: Path, workload: str, seed: int, seconds: float, metrics) -> dict[str, float]:
    """One untraced benchmark run in ``checkout``; exits unless it is correct."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(f"bench_pairs: {checkout} is not correct on {workload} seed {seed} "
                         f"(exit {proc.returncode})\n{proc.stderr}")
        sys.exit(1)
    return {name: result["metrics"][name]["value"] for name in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digest, differing = compare_benchmarks(sides["parent"], sides["change"])
    if differing:
        sys.stderr.write("bench_pairs: the checkouts run different benchmarks; differing: "
                         + ", ".join(differing) + "\n")
        return 1
    better, bounds = end_to_end(sides["change"])
    pairs: list[dict[str, dict[str, float]]] = []
    for i in range(args.pairs):
        pair = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            pair[side] = run_once(sides[side], args.workload, args.seed, args.seconds, better)
        pairs.append(pair)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "benchmark_sha256": digest,
            "pairs": pairs,
            "summary": summarise(pairs, better, bounds),
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{name} {pair['parent'][name]:.4g} -> {pair['change'][name]:.4g}" for name in better),
            flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
