"""Two-region cache (window + main) with an optional counting admission filter.

New keys enter the window region; the window's eviction victim contends for a
slot in the main region.  Without a filter the main region's own victim is
evicted unconditionally.  With the filter, the candidate admitted at main way
0 is compared against the main fold's victim by recent access frequency, and
the main victim is restored (overwriting the newcomer) if it has the strictly
higher count — so a rejected window victim is the element that actually leaves.

Each region keeps its own register arrays with one SCN word per element, so
an element carries only the metadata of the region holding it: a window
victim admitted to the main region takes a fresh main-region SCN.

The filter keeps one explicit counter per key in the universe, aged in a
de-amortized fashion: every ``n`` accesses a fixed-size slice of the counter
array is halved in cyclic order, so that a full halving pass completes once
per ``W`` accesses without ever pausing a packet for a full sweep.  The aging
constants are fixed here for both this cache and the reference composition
(``oracle.ReferenceMultiCache``): W = 16 x the total capacity, n = 16, and
counters saturate at 2**15 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MISS, CacheElement, LayoutConfig, OpCounter, StorageError
from .policies import FetchResult, PolicyEngine, make_engine

FILTER_NONE = "none"
FILTER_TINYLFU = "tinylfu"

AGING_STRIDE = 16
COUNTER_CAP = (1 << 15) - 1


def aging_window(capacity: int) -> int:
    """Accesses per full halving epoch for a cache of ``capacity`` entries."""
    return 16 * capacity


@dataclass(frozen=True)
class RegionSpec:
    policy: str
    k: int
    d: int

    @property
    def capacity(self) -> int:
        return self.k * self.d


@dataclass(frozen=True)
class MultiRegionConfig:
    """Geometry and policy of both regions, the filter, and the SCN width.

    The filter's aging is fixed by the module constants; ``integer_factor``
    applies to a hyperbolic region.
    """

    window: RegionSpec
    main: RegionSpec
    key_universe: int
    filter: str = FILTER_TINYLFU
    scn_bits: int = 32
    integer_factor: object = 100

    def __post_init__(self) -> None:
        if self.filter not in (FILTER_NONE, FILTER_TINYLFU):
            raise ValueError(f"unknown filter {self.filter!r}")
        if self.key_universe < 2:
            raise ValueError("key_universe must cover at least one live key")


class CountingFilter:
    """Explicit per-key frequency counters with de-amortized halving."""

    def __init__(
        self,
        key_universe: int,
        aging_window: int,
        aging_stride: int,
        counter_cap: int = COUNTER_CAP,
        counter: OpCounter | None = None,
    ) -> None:
        if not 0 < aging_stride < aging_window:
            raise ValueError("need 0 < aging_stride < aging_window")
        if not 0 < counter_cap < (1 << 32):
            raise ValueError("counter_cap must fit 32 bits")
        self.key_universe = key_universe
        self.aging_window = aging_window
        self.aging_stride = aging_stride
        self.counter_cap = counter_cap
        self.counters = np.zeros(key_universe, dtype=np.uint32)
        self.access_counter = 0
        self.cursor = 0
        # counters halved per aging step
        self.step_size = -(-key_universe * aging_stride // aging_window)
        self.ops = counter if counter is not None else OpCounter()

    def record_access(self, key: int) -> None:
        counters = self.counters
        if counters[key] < self.counter_cap:
            counters[key] += 1
        self.ops.extra_reads += 1
        self.ops.extra_writes += 1
        self.access_counter += 1
        if self.access_counter % self.aging_stride == 0:
            self.age_step()

    def age_step(self) -> None:
        """Halve the next slice of counters in cyclic order."""
        n, size = self.key_universe, self.step_size
        start = self.cursor
        end = start + size
        if end <= n:
            self.counters[start:end] >>= 1
        else:
            self.counters[start:] >>= 1
            self.counters[: end - n] >>= 1
        self.cursor = end % n
        self.ops.extra_reads += size
        self.ops.extra_writes += size

    def count(self, key: int) -> int:
        self.ops.extra_reads += 1
        return int(self.counters[key])


class MultiRegionCache:
    """Window and main engines composed behind two ternary tables."""

    def __init__(
        self,
        config: MultiRegionConfig,
        counter: OpCounter | None = None,
        check_invariants: bool = False,
    ) -> None:
        self.config = config
        self.counter = counter if counter is not None else OpCounter()

        def engine(spec: RegionSpec) -> PolicyEngine:
            return make_engine(
                spec.policy, LayoutConfig(scn_bits=config.scn_bits, k=spec.k, d=spec.d),
                counter=self.counter, check_invariants=check_invariants,
                integer_factor=config.integer_factor,
            )

        self.window = engine(config.window)
        self.main = engine(config.main)
        if config.filter == FILTER_TINYLFU:
            self.filter: CountingFilter | None = CountingFilter(
                config.key_universe,
                aging_window(config.window.capacity + config.main.capacity),
                AGING_STRIDE,
                counter=self.counter,
            )
        else:
            self.filter = None

    def fetch(self, key: int) -> FetchResult:
        if not 1 <= key < self.config.key_universe:
            raise StorageError(f"key {key} outside universe [1, {self.config.key_universe})")
        flt = self.filter
        if flt is not None:
            flt.record_access(key)

        h_main = key % self.main.layout.d
        h_window = key % self.window.layout.d
        way_main = self.main.store.ternary_lookup(h_main, key)
        way_window = self.window.store.ternary_lookup(h_window, key)
        if way_main != MISS:
            return self.main.serve_hit(h_main, way_main)
        if way_window != MISS:
            return self.window.serve_hit(h_window, way_window)

        window, main = self.window, self.main
        value = key & window.value_mask
        window_victim, pending = window.insert_pending_raw(h_window, window.stamp((key, value)))
        window.store.write_set_raw(h_window, pending)
        victim_key = window_victim[0]
        if not victim_key:
            return FetchResult(False, value, None)

        h2 = victim_key % main.layout.d
        main_victim, pending = main.insert_pending_raw(h2, main.stamp(window_victim))
        main_victim_key = main_victim[0]
        if not main_victim_key:
            main.store.write_set_raw(h2, pending)
            return FetchResult(False, value, None)

        if flt is not None and flt.count(main_victim_key) > flt.count(victim_key):
            # admission denied: the fold's victim keeps its slot at way 0 and
            # the window victim is the element that leaves the cache
            for row, x in zip(pending, main_victim):
                row[0] = x
            main.store.write_set_raw(h2, pending)
            return FetchResult(False, value, CacheElement.from_way(window_victim))
        main.store.write_set_raw(h2, pending)
        return FetchResult(False, value, CacheElement.from_way(main_victim))
