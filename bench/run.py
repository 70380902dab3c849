"""dpcache benchmark: four named workloads through the public harness API.

Run one workload for a number of seconds from the repository root:

    python3 bench/run.py --workload lru-k64-zipf-miss --seed 1 --seconds 10 --trace 0

Every repetition replays the workload's full experiment (trace ingest,
``build_cache``, replay, ``emit_report``) on caches that start empty, until
``--seconds`` have passed.  ``--trace 0`` prints the end-to-end metrics as
medians over the repetitions; ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics.  Every simulated statistic is
checked against ``pins.json`` (for pinned seeds) or against the first
repetition and the seed-independent invariants (for any other seed); a
mismatch makes the run exit with status 1.

The last line of standard output is the result object; the line before it
holds the run record: environment, every per-repetition sample and every
check.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_PINS = BENCH_DIR / "pins.json"
# trace files are written relative to the root, so reports name the same
# path in every checkout
WORK_DIR = Path("bench") / "_work"

DEFAULT_SEED = 1

if not (SRC / "dpcache" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no dpcache sources under {SRC}; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dpcache  # noqa: E402
from dpcache import harness  # noqa: E402
from dpcache.harness import CacheSpec, ExperimentConfig  # noqa: E402
from dpcache.traces import ZipfSpec  # noqa: E402

from tracer import Tracer, histogram_quantile  # noqa: E402

if Path(dpcache.__file__).resolve().parent != SRC / "dpcache":
    sys.stderr.write(f"bench: imported dpcache from {dpcache.__file__}, not {SRC}\n")
    sys.exit(2)

ZIPF_S = 0.99
STAT_FIELDS = ("events", "hits", "total_tcam", "total_reads", "total_writes",
               "max_tcam", "max_reads", "max_writes")


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    cache: CacheSpec
    universe: int
    events: int
    from_file: bool
    sweep: dict = field(default_factory=dict)

    def config(self, seed: int, events: int) -> ExperimentConfig:
        if self.from_file:
            return ExperimentConfig(self.engine, self.cache,
                                    trace_path=str(trace_file(self, seed, events)))
        return ExperimentConfig(self.engine, self.cache,
                                zipf=ZipfSpec(self.universe, ZIPF_S, events, seed))

    def grid(self) -> list[CacheSpec]:
        """The cache of each grid point, in ``run_sweep`` order."""
        if "integer_factors" in self.sweep:
            return [replace(self.cache, integer_factor=f) for f in self.sweep["integer_factors"]]
        if "sizes" in self.sweep:
            return [replace(self.cache, k=size) for size in self.sweep["sizes"]]
        return [self.cache]


WINDOW_TINYLFU = CacheSpec("lru", 16, 16, window_policy="lru", k_w=4, d_w=16, filter="tinylfu")

WORKLOADS = {w.name: w for w in [
    Workload("lru-k64-zipf-miss", "restricted", CacheSpec("lru", 64, 8),
             universe=10**6, events=20_000, from_file=False),
    Workload("wtinylfu-trace-hit", "restricted", WINDOW_TINYLFU,
             universe=10**4, events=25_000, from_file=True),
    Workload("hyperbolic-if-sweep", "restricted", CacheSpec("hyperbolic", 16, 32),
             universe=10**4, events=12_000, from_file=False,
             sweep={"integer_factors": ["1", "100"]}),
    Workload("oracle-lru-sizes", "reference", CacheSpec("lru", 128, 1),
             universe=10**6, events=100_000, from_file=True,
             sweep={"sizes": [128, 256, 512, 1024, 2048]}),
]}


# -- inputs -----------------------------------------------------------------

def zipf_ranks(universe: int, length: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. Zipf(universe, 0.99) ranks, drawn by the benchmark itself."""
    cdf = np.cumsum(np.arange(1, universe + 1, dtype=np.float64) ** -ZIPF_S)
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.searchsorted(cdf, rng.random(length) * cdf[-1], side="left") + 1


def trace_file(workload: Workload, seed: int, events: int) -> Path:
    return WORK_DIR / f"{workload.name}-seed{seed}-n{events}.trace"


def write_trace_file(workload: Workload, seed: int, events: int) -> Path:
    """Plain trace of scrambled 64-bit ids (rank times an odd constant)."""
    ranks = zipf_ranks(workload.universe, events, seed).astype(np.uint64)
    ids = ranks * np.uint64(0x9E3779B97F4A7C15)
    path = trace_file(workload, seed, events)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(map(str, ids.tolist())) + "\n", encoding="ascii")
    return path


@contextmanager
def workload_config(workload: Workload, seed: int, events: int):
    """The experiment config, with its trace file on disk while in use."""
    path = write_trace_file(workload, seed, events) if workload.from_file else None
    try:
        yield workload.config(seed, events)
    finally:
        if path is not None:
            path.unlink()


def clear_program_caches() -> None:
    """Empty every lru_cache in dpcache, so set-up pays what a fresh process pays."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("dpcache"):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


# -- host speed -------------------------------------------------------------

# On a host whose cores are shared with other tenants, CPU speed swings by up
# to 2x over seconds.  Each repetition is bracketed by a fixed interpreter-
# bound loop (dict LRU and big-int slicing, the simulator's two kinds of work)
# and its host times are scaled by host_speed = CALIBRATION_NOMINAL_S / loop
# time, which cancels most of the drift common to both.  The nominal time is
# the loop's time on a quiet 2-core x86-64 host, so scaled times read as if
# measured there.
CALIBRATION_ITERATIONS = 25_000
CALIBRATION_NOMINAL_S = 0.015
_CALIBRATION_WORD = (1 << 6144) // 7


def calibration_s() -> float:
    """Best of three calibration loops, so one interruption does not count."""
    return min(_calibration_once() for _ in range(3))


def _calibration_once() -> float:
    """Wall time of the fixed calibration loop."""
    t0 = time.perf_counter()
    lru: OrderedDict[int, int] = OrderedDict()
    acc = 0
    mask = (1 << 96) - 1
    for i in range(CALIBRATION_ITERATIONS):
        k = (i * 2654435761) % 4099
        if k in lru:
            lru.move_to_end(k)
        else:
            lru[k] = i
            if len(lru) > 512:
                lru.popitem(last=False)
        acc ^= (_CALIBRATION_WORD >> ((i & 63) * 96)) & mask
    return time.perf_counter() - t0


# -- one repetition ---------------------------------------------------------

def run_pipeline(workload: Workload, config: ExperimentConfig, tracer: Tracer):
    """Load, build, replay and emit once; returns (reports, wall seconds)."""
    clear_program_caches()
    tracer.install()
    try:
        t0 = time.perf_counter()
        if workload.sweep:
            reports = harness.run_sweep(config, **workload.sweep)
        else:
            trace = harness.load_trace(config)
            reports = [harness.run_experiment(config, trace)]
        harness.emit_report(reports, "csv")
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return reports, wall


def phase_sample(reports, wall: float, tracer: Tracer, calibration: list[float]) -> dict:
    """Raw host times of one repetition and their host-speed scaled forms.

    ``calibration`` holds the calibration times just before and just after
    the repetition.
    """
    host_speed = CALIBRATION_NOMINAL_S / (sum(calibration) / len(calibration))
    build = tracer.total("harness.build_cache").total_ns / 1e9
    setup = tracer.total("traces.ingest").total_ns / 1e9 + build
    replay = tracer.total("harness.run_experiment").total_ns / 1e9 - build
    events = sum(r.events for r in reports)
    return {"raw_wall_s": wall, "raw_setup_s": setup, "raw_replay_s": replay,
            "calibration_s": calibration, "host_speed": host_speed, "events": events,
            "wall_s": wall * host_speed, "setup_s": setup * host_speed,
            "events_per_s": events / (replay * host_speed)}


# -- correctness ------------------------------------------------------------

def report_stats(report) -> dict:
    stats = {name: getattr(report, name) for name in STAT_FIELDS}
    stats["sha256"] = hashlib.sha256(harness.emit_report(report, "csv").encode()).hexdigest()
    return stats


def stream_digest(streams) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update(len(stream).to_bytes(8, "little"))
        h.update(bytes(stream))
    return h.hexdigest()


def load_pins(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def pin_key(seed: int, events: int) -> str:
    return f"seed={seed},events={events}"


def compare(expected: list[dict], actual: list[dict]) -> tuple[int, int]:
    """(statistics checked, statistics mismatched) over every grid point."""
    checked = mismatched = 0
    for i, exp in enumerate(expected):
        got = actual[i] if i < len(actual) else {}
        for name, value in exp.items():
            checked += 1
            mismatched += got.get(name) != value
    if len(actual) != len(expected):
        checked += 1
        mismatched += 1
    return checked, mismatched


def invariant_checks(workload: Workload, reports, events: int, ref_hits: list[int]) -> dict:
    """Seed-independent properties of one repetition's reports."""
    checks = {"events": all(r.events == events for r in reports),
              "grid_size": len(reports) == len(workload.grid())}
    if workload.engine == "restricted":
        spec = workload.cache
        tcam = 2 if spec.multi_region else 1
        budget = (2 + 2 * spec.k_w + 2 * spec.k) if spec.multi_region else 1 + 2 * spec.k
        checks["cost_model"] = all(
            r.max_tcam == tcam and r.total_tcam == tcam * r.events
            and 1 <= r.max_reads <= budget and 1 <= r.max_writes <= budget
            for r in reports)
    if workload.name == "lru-k64-zipf-miss":
        # restricted LRU matches its oracle exactly (c01)
        checks["oracle_exact"] = [r.hits for r in reports] == ref_hits
    if "sizes" in workload.sweep:
        hits = [r.hits for r in reports]
        checks["lru_inclusion"] = hits == sorted(hits)
    return checks


def reference_replay(workload: Workload, trace, tracer: Tracer | None) -> tuple[list[int], list[str]]:
    """Oracle hits per grid point and the oracle's hit/miss stream digests."""
    hits, digests = [], []
    for spec in workload.grid():
        cache = harness.build_cache(ExperimentConfig("reference", spec), trace)
        fetch = cache.fetch if tracer is None else tracer.wrap("oracle.fetch", cache.fetch)
        stream = bytearray(fetch(key)[0] for key in trace.keys)
        hits.append(sum(stream))
        digests.append(stream_digest([stream]))
    return hits, digests


def plain_stream(workload: Workload, config: ExperimentConfig, trace) -> str:
    """Hit/miss stream of every grid point, replayed without any wrapper."""
    streams = []
    for spec in workload.grid():
        cache = harness.build_cache(replace(config, cache=spec), trace)
        fetch = cache.fetch
        streams.append(bytearray(fetch(key)[0] for key in trace.keys))
    return stream_digest(streams)


# -- environment ------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- metrics ----------------------------------------------------------------

def end_to_end(samples: list[dict], reports, rss_mb: float) -> dict:
    hits = sum(r.hits for r in reports)
    events = sum(r.events for r in reports)
    return {
        "events_per_s": (statistics.median(s["events_per_s"] for s in samples), "events/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "hit_ratio": (hits / events, "fraction"),
    }


def reg_ops_per_event(reports) -> float:
    """Modelled register operations per packet over a repetition's grid."""
    return sum(r.total_reads + r.total_writes for r in reports) / sum(r.events for r in reports)


def trace_bytes_per_event(trace) -> float:
    """Memory held by ``Trace.keys``: the list plus each distinct int object."""
    keys = trace.keys
    distinct = {id(k): k for k in keys}
    return (sys.getsizeof(keys) + sum(sys.getsizeof(k) for k in distinct.values())) / len(keys)


def per_layer(tracer: Tracer, reports_per_rep: list, untraced_walls: list[float],
              traced_walls: list[float], gap_points: float) -> dict:
    events = sum(r.events for reps in reports_per_rep for r in reps)
    hits = sum(r.hits for reps in reports_per_rep for r in reps)
    reps = len(reports_per_rep)

    def ns(name: str) -> float:
        span = tracer.total(name)
        return span.self_ns / span.count if span.count else 0.0

    def per_event(name: str) -> float:
        return tracer.total(name).count / events

    serve_main = tracer.total("policies.serve_hit@main").count
    serve_window = tracer.total("policies.serve_hit@window").count
    replay_self = tracer.total("harness.replay").self_ns + tracer.total("harness.run_experiment").self_ns
    return {
        "traces.ingest_ns_per_event": (tracer.total("traces.ingest").total_ns / tracer.loaded_events, "ns/event"),
        "traces.bytes_per_event": (trace_bytes_per_event(tracer.last_trace), "bytes/event"),
        "core.ternary_lookup.ns": (ns("core.ternary_lookup"), "ns"),
        "core.ternary_lookup.per_event": (per_event("core.ternary_lookup"), "calls/event"),
        "core.read_set_raw.ns": (ns("core.read_set_raw"), "ns"),
        "core.read_set_raw.per_event": (per_event("core.read_set_raw"), "calls/event"),
        "core.write_set_raw.ns": (ns("core.write_set_raw"), "ns"),
        "core.write_set_raw.per_event": (per_event("core.write_set_raw"), "calls/event"),
        "core.read_way.ns": (ns("core.read_way"), "ns"),
        "core.write_way_field.ns": (ns("core.write_way_field"), "ns"),
        "core.reg_ops_per_event": (reg_ops_per_event(reports_per_rep[-1]), "ops/packet"),
        "policies.fold.ns": (ns("policies.fold"), "ns"),
        "policies.serve_hit.ns": (ns("policies.serve_hit"), "ns"),
        "policies.fetch.p50_ns": (histogram_quantile(tracer.hist, 0.5), "ns"),
        "policies.fetch.p999_ns": (histogram_quantile(tracer.hist, 0.999), "ns"),
        "policies.miss_share": (1 - hits / events, "fraction"),
        "policies.sweeps_per_mevent": (tracer.sweeps / events * 1e6, "1/Mevent"),
        "hyperbolic.lookup.ns": (ns("hyperbolic.lookup"), "ns"),
        "hyperbolic.lookup.per_event": (per_event("hyperbolic.lookup"), "calls/event"),
        "hyperbolic.halving_fetch_ns": (
            tracer.halving_fetch_ns / tracer.halvings if tracer.halvings else 0.0, "ns"),
        "multiregion.record_access.ns": (ns("multiregion.record_access"), "ns"),
        "multiregion.age_step.ns": (ns("multiregion.age_step"), "ns"),
        "multiregion.age_step.per_event": (per_event("multiregion.age_step"), "calls/event"),
        "multiregion.count.per_event": (per_event("multiregion.count"), "calls/event"),
        "multiregion.main_hit_share": (
            serve_main / (serve_main + serve_window) if serve_main + serve_window else 0.0, "fraction"),
        "oracle.fetch.ns": (ns("oracle.fetch"), "ns"),
        "oracle.gap_points": (gap_points, "points"),
        "harness.accounting_ns_per_event": (replay_self / events, "ns/event"),
        "harness.build_s": (tracer.total("harness.build_cache").total_ns / 1e9 / reps, "s"),
        "harness.emit_s": (tracer.total("harness.emit_report").total_ns / 1e9 / reps, "s"),
        "trace_overhead": (statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio"),
    }


# -- entry points -----------------------------------------------------------

def measure(workload: Workload, config: ExperimentConfig, seed: int, seconds: float,
            traced: bool, events: int, pins_path: Path) -> tuple[dict, dict]:
    """Run repetitions for ``seconds``, then check them; returns (record, result)."""
    samples, reports_per_rep = [], []
    traced_reports, traced_walls = [], []
    tracer = Tracer(detailed=True)
    deadline = time.perf_counter() + seconds
    calibration = [calibration_s()]
    while not samples or time.perf_counter() < deadline:
        phases = Tracer(detailed=False)
        reports, wall = run_pipeline(workload, config, phases)
        calibration.append(calibration_s())
        samples.append(phase_sample(reports, wall, phases, calibration[-2:]))
        reports_per_rep.append(reports)
        if traced:
            reports, wall = run_pipeline(workload, config, tracer)
            traced_reports.append(reports)
            traced_walls.append(wall)
    rss_mb = peak_rss_mb()

    # everything below is outside the measured region
    trace = harness.load_trace(config)
    if workload.engine == "reference":
        # the workload is the oracle itself: there is no gap to measure
        ref_hits, ref_digests, gap_points = [], [], 0.0
    else:
        ref_hits, ref_digests = reference_replay(workload, trace, tracer if traced else None)
        gap_points = max(abs(r.hits - h) / r.events * 100
                         for r, h in zip(reports_per_rep[0], ref_hits))

    pinned = load_pins(pins_path).get(workload.name, {}).get(pin_key(seed, events))
    first = [report_stats(r) for r in reports_per_rep[0]]
    expected = pinned["reports"] if pinned else first
    checked = mismatched = failed = 0
    all_reps = reports_per_rep + traced_reports
    for reports in all_reps:
        c, m = compare(expected, [report_stats(r) for r in reports])
        checked += c
        mismatched += m
        failed += m > 0
    checks = {}
    for reports in all_reps:
        for name, ok in invariant_checks(workload, reports, events, ref_hits).items():
            checks[name] = checks.get(name, True) and ok

    layers = None
    if traced:
        plain = plain_stream(workload, config, trace)
        grid = len(workload.grid())
        rep_digests = [stream_digest(tracer.streams[i * grid:(i + 1) * grid])
                       for i in range(len(traced_reports))]
        checks["traced_stream_matches_untraced"] = all(d == plain for d in rep_digests)
        if pinned:
            checks["stream_matches_pin"] = plain == pinned["stream_sha256"]
        if workload.name == "lru-k64-zipf-miss":
            checks["stream_matches_oracle"] = stream_digest(tracer.streams[:1]) == ref_digests[0]
        layers = per_layer(tracer, traced_reports, [s["raw_wall_s"] for s in samples],
                           traced_walls, gap_points)

    error_frac = mismatched / checked
    correct = failed == 0 and all(checks.values())
    last = reports_per_rep[-1]
    record = {
        "workload": workload.name,
        "seed": seed,
        "events_per_replay": events,
        "environment": environment(seed),
        "pinned": pinned is not None,
        "error_frac": error_frac,
        "statistics_checked": checked,
        "checks": checks,
        "reg_ops_per_event": reg_ops_per_event(last),
        "oracle_gap_points": gap_points,
        "reports": first,
        "samples": samples,
        "traced_walls_s": traced_walls,
    }
    metrics = layers if traced else end_to_end(samples, last, rss_mb)
    result = {
        "correct": correct,
        "attempted": len(all_reps) * len(expected),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, result


def write_pins(workload: Workload, seed: int, events: int, pins_path: Path) -> None:
    """Record one repetition's statistics and hit/miss stream as the pinned truth."""
    with workload_config(workload, seed, events) as config:
        reports, _ = run_pipeline(workload, config, Tracer(detailed=False))
        stream = plain_stream(workload, config, harness.load_trace(config))
    pins = load_pins(pins_path)
    pins.setdefault(workload.name, {})[pin_key(seed, events)] = {
        "reports": [report_stats(r) for r in reports],
        "stream_sha256": stream,
    }
    pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--events", type=int,
                        help="events per replay (default: the workload's own length)")
    parser.add_argument("--pins", type=Path, default=DEFAULT_PINS,
                        help="pinned statistics to check against")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this seed's statistics into --pins instead of measuring")
    args = parser.parse_args(argv)

    pins = args.pins.resolve()
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    events = args.events or workload.events
    if args.write_pins:
        write_pins(workload, args.seed, events, pins)
        return 0
    with workload_config(workload, args.seed, events) as config:
        record, result = measure(workload, config, args.seed, args.seconds, bool(args.trace),
                                 events, pins)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
