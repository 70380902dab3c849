"""Two-region cache (window + main) with an optional counting admission filter.

New keys enter the window region; the window's eviction victim contends for a
slot in the main region.  Each region takes a key through its engine's
``admit``.  Without a filter the main region's own victim is evicted
unconditionally.  With the filter, ``admit`` runs the contest: the candidate
admitted at main way 0 is compared against the main fold's victim by recent
access frequency, and the main victim is restored (overwriting the newcomer)
if it has the strictly higher count — so a rejected window victim is the
element that actually leaves.
The restored victim keeps way 0, the newcomer's slot: an LRU main orders its
ways by SCN, so nothing changes there, but in a FIFO main way 0 is the newest
slot, so an oldest element that wins a contest gets a second chance where
the reference composition keeps it oldest.

Each region keeps its own register arrays with one SCN word per element, so
an element carries only the metadata of the region holding it: a window
victim admitted to the main region takes a fresh main-region SCN.

The filter keeps one explicit counter per key in the universe, aged in a
de-amortized fashion: every ``n`` accesses a fixed-size slice of the counter
array is halved in cyclic order, so that a full halving pass completes once
per ``W`` accesses without ever pausing a packet for a full sweep.  The aging
constants are fixed here for both this cache and the reference composition
(``oracle.ReferenceMultiCache``): W = 16 x the total capacity, n = 16 (n = W
in the reference, which halves every counter at once), and counters saturate
at 2**15 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MISS, LayoutConfig, OpCounter, StorageError
from .policies import DEFAULT_INTEGER_FACTOR, PolicyEngine, make_engine

FILTER_NONE = "none"
FILTER_TINYLFU = "tinylfu"
FILTERS = (FILTER_NONE, FILTER_TINYLFU)

AGING_STRIDE = 16
COUNTER_CAP = (1 << 15) - 1


def aging_window(capacity: int) -> int:
    """Accesses per full halving epoch for a cache of ``capacity`` entries."""
    return 16 * capacity


@dataclass(frozen=True)
class RegionSpec:
    """One region's policy and geometry: ``d`` sets of ``k`` ways."""

    policy: str
    k: int
    d: int

    @property
    def capacity(self) -> int:
        return self.k * self.d


def check_composition(filter: str, key_universe: int) -> None:
    """ValueError unless ``filter`` is a known filter and the universe holds a live key."""
    if filter not in FILTERS:
        raise ValueError(f"unknown filter {filter!r}")
    if key_universe < 2:
        raise ValueError("key_universe must cover at least one live key")


class CountingFilter:
    """Explicit per-key frequency counters, a slice halved every ``stride`` accesses.

    ``age_step`` halves the next ``ceil(key_universe * stride / aging_window)``
    counters in cyclic order.  The default stride is the sliced schedule a
    switch runs; ``stride=aging_window`` is the batch one, which halves them all.
    ``counters`` is a ``uint32`` numpy array.  The per-packet ``record_access``
    and ``count`` read and write the same buffer through a memoryview, which
    yields plain ints and skips numpy's per-element scalar boxing.
    """

    def __init__(
        self,
        key_universe: int,
        aging_window: int,
        counter: OpCounter | None = None,
        *,
        stride: int = AGING_STRIDE,
    ) -> None:
        if aging_window < stride:
            raise ValueError(f"aging_window must be at least the aging stride {stride}")
        self.key_universe = key_universe
        self.aging_window = aging_window
        self.aging_stride = stride
        self.counter_cap = COUNTER_CAP
        self.counters = np.zeros(key_universe, dtype=np.uint32)
        self._counts = memoryview(self.counters)
        self.access_counter = 0
        self.cursor = 0
        # counters halved per aging step
        self.step_size = -(-key_universe * stride // aging_window)
        self.ops = counter if counter is not None else OpCounter()

    def record_access(self, key: int) -> None:
        counts = self._counts
        c = counts[key]
        if c < self.counter_cap:
            counts[key] = c + 1
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
        return self._counts[key]


class MultiRegionCache:
    """Window and main engines composed behind two ternary tables.

    Both regions use one-word layouts of ``scn_bits``; ``integer_factor``
    applies to a hyperbolic region.  The filter's aging is fixed by the module
    constants.  Both regions and the filter charge one ``OpCounter``,
    ``counter``.
    """

    def __init__(
        self,
        window: RegionSpec,
        main: RegionSpec,
        key_universe: int,
        filter: str = FILTER_TINYLFU,
        *,
        scn_bits: int = 32,
        integer_factor: object = DEFAULT_INTEGER_FACTOR,
    ) -> None:
        check_composition(filter, key_universe)
        self.key_universe = key_universe
        self.counter = OpCounter()

        def engine(spec: RegionSpec) -> PolicyEngine:
            return make_engine(
                spec.policy, LayoutConfig(scn_bits=scn_bits, k=spec.k, d=spec.d),
                counter=self.counter, integer_factor=integer_factor,
            )

        self.window = engine(window)
        self.main = engine(main)
        if filter == FILTER_TINYLFU:
            epoch = aging_window(window.capacity + main.capacity)
            self.filter: CountingFilter | None = CountingFilter(key_universe, epoch, counter=self.counter)
        else:
            self.filter = None

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if not 1 <= key < self.key_universe:
            raise StorageError(f"key {key} outside universe [1, {self.key_universe})")
        flt = self.filter
        if flt is not None:
            flt.record_access(key)

        window, main = self.window, self.main
        h_main = key % main.d
        h_window = key % window.d
        way_main = main.store.ternary_lookup(h_main, key)
        way_window = window.store.ternary_lookup(h_window, key)
        if way_main != MISS:
            return main.serve_hit(h_main, way_main)
        if way_window != MISS:
            return window.serve_hit(h_window, way_window)

        victim = window.admit(h_window, key)
        if victim is None:
            return False, None
        return False, main.admit(victim % main.d, victim, None if flt is None else self._rejects)

    def _rejects(self, candidate: int, incumbent: int) -> bool:
        """The admission contest: the main victim stays on a strictly higher count."""
        return self.filter.count(incumbent) > self.filter.count(candidate)
