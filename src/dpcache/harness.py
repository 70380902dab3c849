"""Experiment engine: replay traces through configured caches, report results.

A run replays every event of one trace through one cache and aggregates the
hit/miss stream together with the per-packet operation counts.  For restricted
engines the accountant asserts the cost model on every packet: a single-region
hit costs exactly one ternary match, one set read and one set write; a miss
adds at most 2k auxiliary read/write pairs for the eviction fold.  Multi-region
caches match one ternary table per region on every packet.

Reports are deterministic: identical config (including the trace seed) yields
byte-identical CSV and JSON serialisations.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

from .core import LayoutConfig, OpCounter
from .hyperbolic import checked_factor
from .multiregion import (
    FILTER_NONE,
    FILTER_TINYLFU,
    MultiRegionCache,
    MultiRegionConfig,
    RegionSpec,
)
from .oracle import ReferenceCache, ReferenceMultiCache
from .policies import make_engine
from .traces import Trace, ZipfSpec, generate_zipf, parse_trace

ENGINE_RESTRICTED = "restricted"
ENGINE_REFERENCE = "reference"

CSV_COLUMNS = [
    "engine", "policy", "k_w", "d_w", "k_m", "d_m", "integer_factor",
    "trace", "seed", "events", "hits", "hit_ratio",
    "max_tcam", "max_reads", "max_writes",
]


class ConfigError(ValueError):
    """Raised for invalid experiment configurations."""


@dataclass(frozen=True)
class CacheSpec:
    """Cache geometry: single region, or window x main when a window policy
    and a window region (k_w, d_w) are given together."""

    policy: str
    k: int
    d: int
    window_policy: str | None = None
    k_w: int = 0
    d_w: int = 0
    filter: str = FILTER_NONE
    integer_factor: str = "100"

    @property
    def multi_region(self) -> bool:
        return self.k_w > 0

    def policy_label(self) -> str:
        if not self.multi_region:
            return self.policy
        label = f"{self.window_policy}*{self.policy}"
        if self.filter == FILTER_TINYLFU:
            label += "*tinylfu"
        return label

    def validate(self) -> None:
        if self.window_policy or self.k_w or self.d_w:
            if not self.window_policy:
                raise ConfigError("a window region (k_w, d_w) needs a window policy")
            if self.k_w < 1 or self.d_w < 1:
                raise ConfigError("a window policy needs a window region with k_w >= 1 and d_w >= 1")
        elif self.filter == FILTER_TINYLFU:
            raise ConfigError("the admission filter applies to multi-region caches only")


@dataclass(frozen=True)
class ExperimentConfig:
    engine: str
    cache: CacheSpec
    trace_path: str | None = None
    trace_format: str = "plain"
    key_column: str = "key"
    zipf: ZipfSpec | None = None

    def validate(self) -> None:
        if self.engine not in (ENGINE_RESTRICTED, ENGINE_REFERENCE):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if (self.trace_path is None) == (self.zipf is None):
            raise ConfigError("exactly one of trace_path or zipf must be given")
        self.cache.validate()


@dataclass(frozen=True)
class ExperimentReport:
    engine: str
    policy: str
    k_w: int
    d_w: int
    k_m: int
    d_m: int
    integer_factor: str
    trace: str
    seed: int | None
    events: int
    hits: int
    misses: int
    hit_ratio: float
    total_tcam: int
    total_reads: int
    total_writes: int
    max_tcam: int
    max_reads: int
    max_writes: int
    generator: str | None

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> list[str]:
        d = self.to_dict()
        d["hit_ratio"] = f"{self.hit_ratio:.4f}"
        d["seed"] = "" if self.seed is None else str(self.seed)
        return [str(d[col]) for col in CSV_COLUMNS]


def load_trace(config: ExperimentConfig) -> Trace:
    if config.trace_path is not None:
        return parse_trace(config.trace_path, config.trace_format, config.key_column)
    return generate_zipf(config.zipf)


def build_cache(config: ExperimentConfig, trace: Trace):
    spec = config.cache
    universe = trace.max_key + 1
    if config.engine == ENGINE_REFERENCE:
        if spec.multi_region:
            return ReferenceMultiCache(
                spec.window_policy, spec.policy,
                spec.k_w, spec.d_w, spec.k, spec.d,
                key_universe=universe,
                use_filter=spec.filter == FILTER_TINYLFU,
            )
        return ReferenceCache(spec.policy, spec.k, spec.d)
    if spec.multi_region:
        return MultiRegionCache(
            MultiRegionConfig(
                window=RegionSpec(spec.window_policy, spec.k_w, spec.d_w),
                main=RegionSpec(spec.policy, spec.k, spec.d),
                key_universe=universe,
                filter=spec.filter,
                integer_factor=spec.integer_factor,
            )
        )
    layout = LayoutConfig(k=spec.k, d=spec.d)
    return make_engine(spec.policy, layout, integer_factor=spec.integer_factor)


def check_cache(config: ExperimentConfig) -> None:
    """Raise what ``build_cache`` would raise for this geometry or integer factor.

    Builds no cache and no log table, so the log table's build cache stays
    cold for the set-up that follows.
    """
    spec = config.cache
    regions = [(spec.k_w, spec.d_w), (spec.k, spec.d)] if spec.multi_region else [(spec.k, spec.d)]
    if config.engine == ENGINE_REFERENCE:
        if any(k < 1 or d < 1 for k, d in regions):
            raise ConfigError("k and d must be >= 1")
        return
    for k, d in regions:
        LayoutConfig(k=k, d=d)
    policies = {spec.policy.lower(), (spec.window_policy or "").lower()}
    if "hyperbolic" in policies:
        try:
            checked_factor(spec.integer_factor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _replay_restricted(cache, keys: Sequence[int]) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
    """Replay and enforce the per-packet operation ceilings."""
    multi = isinstance(cache, MultiRegionCache)
    if multi:
        counter: OpCounter = cache.counter
        tcam_budget = 2
        rw_budget = 2 + 2 * cache.window.layout.k + 2 * cache.main.layout.k
        fetch = cache.fetch
    else:
        counter = cache.store.counter
        tcam_budget = 1
        rw_budget = 1 + 2 * cache.layout.k
        fetch = cache.fetch
    hits = 0
    max_t = max_r = max_w = 0
    tot_t = tot_r = tot_w = 0
    for key in keys:
        counter.reset()
        hit = fetch(key).hit
        t = counter.tcam_matches
        r = counter.register_reads
        w = counter.register_writes
        if hit:
            hits += 1
            if t != tcam_budget or r != 1 or w != 1:
                raise AssertionError(
                    f"hit cost ({t},{r},{w}) violates the ({tcam_budget},1,1) model on key {key}"
                )
        else:
            if t != tcam_budget or r > rw_budget or w > rw_budget:
                raise AssertionError(
                    f"miss cost ({t},{r},{w}) exceeds ({tcam_budget},{rw_budget},{rw_budget}) on key {key}"
                )
        if t > max_t:
            max_t = t
        if r > max_r:
            max_r = r
        if w > max_w:
            max_w = w
        tot_t += t
        tot_r += r
        tot_w += w
    return hits, (tot_t, tot_r, tot_w), (max_t, max_r, max_w)


def run_experiment(config: ExperimentConfig, trace: Trace | None = None) -> ExperimentReport:
    config.validate()
    if trace is None:
        trace = load_trace(config)
    cache = build_cache(config, trace)
    if config.engine == ENGINE_RESTRICTED:
        hits, totals, maxes = _replay_restricted(cache, trace.keys)
    else:
        fetch = cache.fetch
        hits = 0
        for key in trace.keys:
            if fetch(key)[0]:
                hits += 1
        totals = maxes = (0, 0, 0)
    events = len(trace.keys)
    spec = config.cache
    return ExperimentReport(
        engine=config.engine,
        policy=spec.policy_label(),
        k_w=spec.k_w,
        d_w=spec.d_w,
        k_m=spec.k,
        d_m=spec.d,
        integer_factor=spec.integer_factor,
        trace=trace.source,
        seed=trace.seed,
        events=events,
        hits=hits,
        misses=events - hits,
        hit_ratio=hits / events,
        total_tcam=totals[0],
        total_reads=totals[1],
        total_writes=totals[2],
        max_tcam=maxes[0],
        max_reads=maxes[1],
        max_writes=maxes[2],
        generator=trace.generator,
    )


def run_sweep(
    config: ExperimentConfig,
    k_values: list[int] | None = None,
    capacity: int | None = None,
    sizes: list[int] | None = None,
    integer_factors: list[str] | None = None,
) -> list[ExperimentReport]:
    """Expand one sweep axis into a list of independent runs.

    ``k_values`` with ``capacity`` varies associativity at fixed total size;
    ``sizes`` varies total size at the configured k; ``integer_factors``
    varies the hyperbolic fixed-point scale.  Runs share one resolved trace.
    """
    config.validate()
    axes = [k_values is not None, sizes is not None, integer_factors is not None]
    if sum(axes) != 1:
        raise ConfigError("exactly one sweep axis must be given")
    grid: list[ExperimentConfig] = []
    if k_values is not None:
        if capacity is None:
            raise ConfigError("a k sweep needs the fixed capacity (k*d)")
        for k in k_values:
            if k < 1 or capacity % k:
                raise ConfigError(f"k={k} does not divide capacity {capacity}")
            grid.append(replace(config, cache=replace(config.cache, k=k, d=capacity // k)))
    elif sizes is not None:
        k = config.cache.k
        for size in sizes:
            if config.cache.d == 1:
                # a single set means full associativity: k tracks the size
                grid.append(replace(config, cache=replace(config.cache, k=size)))
                continue
            if k < 1 or size % k:
                raise ConfigError(f"k={k} does not divide cache size {size}")
            grid.append(replace(config, cache=replace(config.cache, d=size // k)))
    else:
        for factor in integer_factors:
            grid.append(replace(config, cache=replace(config.cache, integer_factor=str(factor))))
    for cfg in grid:
        check_cache(cfg)
    trace = load_trace(config)
    return [run_experiment(cfg, trace) for cfg in grid]


def emit_report(reports: list[ExperimentReport] | ExperimentReport, format: str = "csv",
                out: str | None = None) -> str:
    """Serialise reports to CSV (fixed column order) or JSON."""
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.csv_row())
        text = buf.getvalue()
    elif format == "json":
        text = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    else:
        raise ConfigError(f"unknown report format {format!r}")
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
