"""Experiment engine: replay traces through configured caches, report results.

A run replays every event of one trace through one cache and aggregates the
hit/miss stream together with the per-packet operation counts.  For restricted
engines the accountant asserts the exact cost of every packet, as (ternary
matches, set reads, set writes).  A multi-region cache matches one ternary
table per region on every packet, so T is 1 or 2:

- a hit costs (T, 1, 1);
- a single-region miss costs (1, 1 + 2k, 1 + 2k): the set read and write and
  2k fold reads and writes;
- a two-region miss that the window absorbs costs (2, 1 + 2k_w, 1 + 2k_w);
- a two-region miss whose window victim meets the main region costs
  (2, 2 + 2k_w + 2k_m, 2 + 2k_w + 2k_m).

Reports are deterministic: identical config (including the trace seed) yields
byte-identical CSV and JSON serialisations.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from itertools import accumulate

from .core import LayoutConfig, OpCounter
from .hyperbolic import checked_factor
from .multiregion import FILTER_NONE, FILTER_TINYLFU, FILTERS, MultiRegionCache, RegionSpec
from .oracle import ReferenceCache, ReferenceMultiCache
from .policies import DEFAULT_INTEGER_FACTOR, POLICIES, make_engine
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
    integer_factor: str = str(DEFAULT_INTEGER_FACTOR)

    @property
    def multi_region(self) -> bool:
        return self.k_w > 0

    def regions(self) -> list[RegionSpec]:
        """``[window, main]`` for a two-region cache, else ``[main]``."""
        main = RegionSpec(self.policy, self.k, self.d)
        if not self.multi_region:
            return [main]
        return [RegionSpec(self.window_policy, self.k_w, self.d_w), main]

    def policy_label(self) -> str:
        if not self.multi_region:
            return self.policy
        label = f"{self.window_policy}*{self.policy}"
        if self.filter == FILTER_TINYLFU:
            label += "*tinylfu"
        return label

    def validate(self) -> None:
        if self.filter not in FILTERS:
            raise ConfigError(f"unknown filter {self.filter!r}")
        if self.window_policy or self.k_w or self.d_w:
            if not self.window_policy:
                raise ConfigError("a window region (k_w, d_w) needs a window policy")
            if self.k_w < 1 or self.d_w < 1:
                raise ConfigError("a window policy needs a window region with k_w >= 1 and d_w >= 1")
        elif self.filter == FILTER_TINYLFU:
            raise ConfigError("the admission filter applies to multi-region caches only")
        for region in self.regions():
            if region.policy.lower() not in POLICIES:
                raise ConfigError(f"unknown policy {region.policy!r}")
            if region.k < 1 or region.d < 1:
                raise ConfigError("k and d must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    engine: str
    cache: CacheSpec
    trace_path: str | None = None
    trace_format: str = "plain"
    key_column: str = "key"
    zipf: ZipfSpec | None = None

    def validate(self) -> None:
        """Raise what building this run's cache would raise, before any trace loads.

        The integer factor is checked for every policy and engine, because
        every report prints it.  Builds no cache and no log table, so the log
        table's build cache stays cold for the set-up that follows.
        """
        if self.engine not in (ENGINE_RESTRICTED, ENGINE_REFERENCE):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if (self.trace_path is None) == (self.zipf is None):
            raise ConfigError("exactly one of trace_path or zipf must be given")
        self.cache.validate()
        if self.engine == ENGINE_RESTRICTED:
            for region in self.cache.regions():
                LayoutConfig(k=region.k, d=region.d)
        try:
            checked_factor(self.cache.integer_factor)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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
            return ReferenceMultiCache(*spec.regions(), universe, spec.filter)
        return ReferenceCache(spec.policy, spec.k, spec.d)
    if spec.multi_region:
        return MultiRegionCache(*spec.regions(), universe, spec.filter,
                                integer_factor=spec.integer_factor)
    layout = LayoutConfig(k=spec.k, d=spec.d)
    return make_engine(spec.policy, layout, integer_factor=spec.integer_factor)


def _replay_restricted(cache, keys: Sequence[int]) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
    """Replay and assert the exact cost of every packet (see the module docstring).

    A packet's cost is the change in the counter's running values across its
    fetch.  Every packet is checked to cost (T, r, r), so the maxima are (T, max r, max r).
    """
    regions = [cache.window, cache.main] if isinstance(cache, MultiRegionCache) else [cache]
    # the two-region cache's engines share one counter
    counter: OpCounter = regions[0].store.counter
    tcam_cost = len(regions)
    # a miss reads and writes each region it reaches in order, window first
    miss_costs = list(accumulate(1 + 2 * region.layout.k for region in regions))
    fetch = cache.fetch
    t0, r0, w0 = last_t, last_r, last_w = counter.tcam_matches, counter.register_reads, counter.register_writes
    hits = max_r = 0
    for key in keys:
        hit = fetch(key)[0]
        now_t, now_r, now_w = counter.tcam_matches, counter.register_reads, counter.register_writes
        t, r, w = now_t - last_t, now_r - last_r, now_w - last_w
        last_t, last_r, last_w = now_t, now_r, now_w
        if hit:
            hits += 1
            if t != tcam_cost or r != 1 or w != 1:
                raise AssertionError(
                    f"hit cost ({t},{r},{w}) is not ({tcam_cost},1,1) on key {key}"
                )
        elif t != tcam_cost or r != w or r not in miss_costs:
            raise AssertionError(
                f"miss cost ({t},{r},{w}) is not ({tcam_cost},c,c) for c in {miss_costs} on key {key}"
            )
        elif r > max_r:
            max_r = r
    max_r = max_r or min(hits, 1)  # no miss: a hit's one read, or none without packets
    return hits, (last_t - t0, last_r - r0, last_w - w0), (tcam_cost if max_r else 0, max_r, max_r)


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

    ``k_values`` with ``capacity`` varies associativity at fixed total size
    (``capacity`` with another axis is an error);
    ``sizes`` varies total size at the configured k; ``integer_factors``
    varies the hyperbolic fixed-point scale.  Runs share one resolved trace,
    which loads only once every grid point has passed validation.
    """
    axes = [k_values is not None, sizes is not None, integer_factors is not None]
    if sum(axes) != 1:
        raise ConfigError("exactly one sweep axis must be given")
    if capacity is not None and k_values is None:
        raise ConfigError("capacity applies to the k_values axis only")
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
    if not grid:
        raise ConfigError("the sweep axis has no values")
    for cfg in grid:
        cfg.validate()
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
