"""Single-region cache engines built from the insert-at-way-0 + fold pattern.

Every policy shares the same restricted shape: membership is decided by one
ternary comparison, a hit updates at most the hit element's metadata word, and
a miss inserts the new element at way 0 and threads the displaced element
through the remaining ways as a "candidate" with a fixed, unrolled sequence of
compare-and-swap steps.  The element carried out of the last way is the
victim; an all-zero victim means an empty way absorbed the insertion.

Engines work on the store's field rows and flat way tuples internally and
expose decoded ``CacheElement`` values at their boundaries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (
    MISS,
    SCN_FIELD,
    CacheElement,
    LayoutConfig,
    OpCounter,
    RegisterStore,
    StorageError,
)

# hyperbolic integer factor default, shared by make_engine and the hyperbolic module
DEFAULT_INTEGER_FACTOR = Fraction(100)


class FetchResult(NamedTuple):
    """Outcome of one keyed access.

    ``evicted`` is the element that fully left the cache this step, if any;
    it is always None on a hit, and None on a miss that an empty way absorbed.
    """

    hit: bool
    value: int
    evicted: CacheElement | None


class PolicyEngine:
    """Base engine: storage wiring, the fetch skeleton and the fold driver.

    Subclasses define how metadata is initialised and refreshed on a hit, and
    the metric row the eviction fold compares (by default the SCN row).

    ``fold_observer``, when set, receives the two metric values of every fold
    comparison; it exists for divergence analysis and costs one branch per
    fold otherwise.
    """

    name = "base"

    def __init__(
        self,
        layout: LayoutConfig,
        counter: OpCounter | None = None,
        check_invariants: bool = False,
    ) -> None:
        self.layout = layout
        self.store = RegisterStore(layout, counter, check_invariants)
        # a miss serves the key itself, truncated to the value width
        self.value_mask = (1 << layout.value_bits) - 1
        self.fold_observer: Callable[[int, int], None] | None = None
        self._scn_max = layout.max_scn()

    # -- policy hooks --------------------------------------------------------

    def _initial_scn(self) -> int:
        raise NotImplementedError

    def serve_hit(self, h: int, way: int) -> FetchResult:
        raise NotImplementedError

    def _age(self, rows: list[list[int]]) -> None:
        """Adjust the set read for an insertion before the fold; none by default."""

    def _metric(self, rows: list[list[int]]) -> list[int]:
        """Per-way values the fold carries the minimum of."""
        return rows[SCN_FIELD]

    # -- shared machinery ----------------------------------------------------

    def stamp(self, way: tuple[int, ...]) -> tuple[int, ...]:
        """``way``'s key and value with a fresh initial SCN.

        As given to a newly inserted or admitted element; an admitted
        element's SCN from the other region is dropped.
        """
        return way[:SCN_FIELD] + (self._initial_scn(),)

    def fetch(self, key: int) -> FetchResult:
        h = key % self.layout.d
        way = self.store.ternary_lookup(h, key)
        if way != MISS:
            return self.serve_hit(h, way)
        value = key & self.value_mask
        victim, rows = self.insert_pending_raw(h, self.stamp((key, value)))
        self.store.write_set_raw(h, rows)
        if victim[0]:
            return FetchResult(False, value, CacheElement.from_way(victim))
        return FetchResult(False, value, None)

    def insert_pending_raw(self, h: int, way: tuple[int, ...]) -> tuple[tuple[int, ...], list[list[int]]]:
        """Insert at way 0 and run the eviction fold; the set is not written.

        Returns (victim way, pending field rows).  The caller commits the
        pending rows with ``write_set_raw`` — split out so an admission filter
        can overrule the fold before the single end-of-pipeline set write.
        Each of the k fold/insert steps reads and writes auxiliary registers
        (candidate and keys registers), which is accounted here.
        """
        k = self.layout.k
        counter = self.store.counter
        counter.register_reads += 2 * k
        counter.register_writes += 2 * k
        rows = self.store.read_set_raw(h)
        self._age(rows)
        victim, skipped = self._fold(self._metric(rows)) if k > 1 else (0, [])
        out = []
        for row, x in zip(rows, way):
            out.append(row.pop(victim))
            row.insert(0, x)
            # the shift put the candidate on each step that kept its
            # element: swap them back, the candidate moves on
            for s in skipped:
                row[s], row[s + 1] = row[s + 1], row[s]
        return tuple(out), rows

    def _fold(self, metric: list[int]) -> tuple[int, list[int]]:
        """The unrolled compare-and-swap fold over old ways 0..k-1.

        The displaced way-0 element starts as the candidate; at step i (way
        order 1..k-1) way i swaps with it if its metric is strictly smaller.
        Returns the old way of the element carried out and the steps before
        it that kept their element; with the new element at way 0, every
        other way up to the victim moves on by one.
        """
        ways = iter(metric)
        best = next(ways)
        victim = i = cut = 0
        skipped = []
        for m in ways:
            i += 1
            if m < best:
                best = m
                victim = i
                cut = len(skipped)
            else:
                skipped.append(i)
        observer = self.fold_observer
        if observer is not None:
            best = metric[0]
            for m in metric[1:]:
                observer(m, best)
                if m < best:
                    best = m
        # steps after the victim kept their ways without any shift
        del skipped[cut:]
        return victim, skipped

    def dump(self) -> list[list[CacheElement]]:
        """Decoded contents of every set; bypasses operation accounting."""
        return [self.store.peek_set(h) for h in range(self.layout.d)]

    def live_keys(self) -> set[int]:
        return {key for rows in self.store.rows for key in rows[0] if key}

    def clone(self):
        other = self.__class__.__new__(self.__class__)
        other.__dict__.update(self.__dict__)
        other.store = self.store.clone()
        return other


class FifoEngine(PolicyEngine):
    """First-in-first-out: hits are read-only, the fold shifts unconditionally."""

    name = "fifo"

    def _initial_scn(self) -> int:
        return 0

    def serve_hit(self, h: int, way: int) -> FetchResult:
        element = self.store.read_way(h, way)
        self.store.writeback(h)
        return FetchResult(True, element[1], None)

    def _fold(self, metric: list[int]) -> tuple[int, list[int]]:
        # unconditional swaps leave a pure shift: the last way exits
        return len(metric) - 1, []


class LruEngine(PolicyEngine):
    """Least-recently-used via a strictly increasing per-engine SCN clock.

    Every fetch consumes exactly one clock tick; the fold carries out the
    minimum-SCN element, which with unique timestamps is exactly the least
    recently used one.  When the clock nears the SCN field limit, all stored
    timestamps are compressed to dense per-set ranks (order-preserving) and
    the clock restarts just above them.
    """

    name = "lru"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.layout.max_scn() <= self.layout.k + 2:
            raise StorageError("scn_bits too small to rescale an LRU clock")
        self.clock = 0

    def _next_scn(self) -> int:
        nxt = self.clock + 1
        if nxt >= self._scn_max:
            self._rescale()
            nxt = self.clock + 1
        self.clock = nxt
        return nxt

    _initial_scn = _next_scn

    def _rescale(self) -> None:
        top = 0

        def ranks(live: list[int]) -> list[int]:
            nonlocal top
            rank = {s: r for r, s in enumerate(sorted(set(live)), start=1)}
            top = max(top, len(rank))
            return [rank[s] for s in live]

        self.store.map_scn(ranks)
        self.clock = top

    def serve_hit(self, h: int, way: int) -> FetchResult:
        scn = self._next_scn()
        element = self.store.read_way(h, way)
        self.store.write_way_field(h, way, scn)
        return FetchResult(True, element[1], None)


class LfuEngine(PolicyEngine):
    """Least-frequently-used with in-place aging.

    The SCN word holds a saturating access count.  A hit increments only the
    hit element's count (the hit path has the same shape as LRU's).  When an
    insertion touches a set, every pre-existing live element's count is
    decremented by 1 (floored at 1) as part of the whole-set rewrite, so the
    count tracks recent rather than lifetime frequency.  The fold carries out
    the minimum-count element; ties resolve positionally through the strict
    comparison.
    """

    name = "lfu"

    def _initial_scn(self) -> int:
        return 1

    def _age(self, rows: list[list[int]]) -> None:
        """Decrement every live element's count by 1, floored at 1."""
        keys, counts = rows[0], rows[SCN_FIELD]
        for way, count in enumerate(counts):
            if count > 1 and keys[way]:
                counts[way] = count - 1

    def serve_hit(self, h: int, way: int) -> FetchResult:
        element = self.store.read_way(h, way)
        scn = element[SCN_FIELD]
        if scn < self._scn_max:
            self.store.write_way_field(h, way, scn + 1)
        else:
            self.store.writeback(h)
        return FetchResult(True, element[1], None)


def make_engine(
    policy: str,
    layout: LayoutConfig,
    counter: OpCounter | None = None,
    check_invariants: bool = False,
    *,
    integer_factor: int | float | str | Fraction = DEFAULT_INTEGER_FACTOR,
) -> PolicyEngine:
    """Build an engine by policy name ("fifo", "lru", "lfu", "hyperbolic").

    ``integer_factor`` scales the hyperbolic log table; the other policies
    have no log table and ignore it.
    """
    # imported here so the hyperbolic module can build on this one
    from .hyperbolic import HyperbolicEngine

    classes: dict[str, type[PolicyEngine]] = {
        "fifo": FifoEngine,
        "lru": LruEngine,
        "lfu": LfuEngine,
        "hyperbolic": HyperbolicEngine,
    }
    try:
        cls = classes[policy.lower()]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None
    if cls is HyperbolicEngine:
        return cls(layout, counter, check_invariants, integer_factor=integer_factor)
    return cls(layout, counter, check_invariants)
