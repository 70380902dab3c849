"""Single-region cache engines built from the insert-at-way-0 + fold pattern.

Every policy shares the same restricted shape: membership is decided by one
ternary comparison, a hit rewrites only the hit element's metadata word, and
a miss inserts the new element at way 0 and threads the displaced element
through the remaining ways as a "candidate" with a fixed, unrolled sequence of
compare-and-swap steps.  The element carried out of the last way is the
victim; an all-zero victim means an empty way absorbed the insertion.

One fetch path, one hit path and one miss path (``admit``) serve all four
policies, which differ only in how they set the SCN word; ``PolicyEngine``
lists the six hooks that say it.

A miss edits the set's own key and SCN rows in place, and one
``write_set_raw`` naming the key that left commits them.  A fetch returns
``(hit, evicted_key)``, the shape the reference caches return:
``evicted_key`` is None on a hit and on a miss that an empty way absorbed.
``dump`` hands out the same ``(key, scn)`` ways; a way's value is the key
truncated to the value width, so it is neither stored nor read.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Callable

from .core import MISS, SCN_FIELD, LayoutConfig, OpCounter, RegisterStore, StorageError

# hyperbolic integer factor default, shared by make_engine and the hyperbolic module
DEFAULT_INTEGER_FACTOR = Fraction(100)

# policy names every engine, reference and front end accepts (case-insensitively)
POLICIES = ("fifo", "lru", "lfu", "hyperbolic")


class PolicyEngine:
    """Base engine: storage wiring, the fetch skeleton, the hit and miss paths, the fold driver.

    Subclasses make no store call on a fetch; their hooks only say how the
    SCN is set on an insert and on a hit, and what row the fold compares.

    ``fold_observer``, when set, receives the two metric values of every fold
    comparison; it exists for divergence analysis and costs one branch per
    fold otherwise.
    """

    name = "base"

    def __init__(self, layout: LayoutConfig, counter: OpCounter | None = None) -> None:
        self.layout = layout
        self.d = layout.d
        self.store = RegisterStore(layout, counter)
        self.fold_observer: Callable[[int, int], None] | None = None
        self._scn_max = layout.max_scn()
        self.epoch = 0

    # -- policy hooks --------------------------------------------------------

    # _initial_scn() is an inserted element's SCN, _hit_scn(scn) the SCN a hit
    # writes over ``scn``.  _tick() advances the clock once per access, before
    # the set is read, and a restart bumps ``epoch``; FIFO and LFU keep no clock.
    def _initial_scn(self) -> int:
        raise NotImplementedError

    def _hit_scn(self, scn: int) -> int:
        raise NotImplementedError

    def _tick(self) -> None:
        pass

    # Optional hooks, None unless a policy defines them:
    # _rebase(scns, missed) returns a stale set's SCN row after ``missed`` epochs;
    # _age(rows) adjusts the set read for an insertion before the fold (LFU);
    # _metric(rows) returns the per-way values the fold carries the minimum of,
    # in place of the SCN row (hyperbolic).
    _rebase: Callable[[list[int], int], list[int]] | None = None
    _age: Callable[[list[list[int]]], None] | None = None
    _metric: Callable[[list[list[int]]], list[int]] | None = None

    # -- shared machinery ----------------------------------------------------

    def serve_hit(self, h: int, way: int) -> tuple[bool, int | None]:
        """One set read and one SCN write; a hit that changes nothing writes the SCN back.

        The clock ticks before the read, and a set it left stale is normalised.
        """
        store = self.store
        self._tick()
        if store.epochs[h] != self.epoch:
            store.normalise(h, self.epoch, self._rebase)
        _, scn = store.read_way(h, way)
        store.write_way_field(h, way, self._hit_scn(scn))
        return True, None

    def fetch(self, key: int) -> tuple[bool, int | None]:
        h = key % self.d
        way = self.store.ternary_lookup(h, key)
        if way != MISS:
            return self.serve_hit(h, way)
        return False, self.admit(h, key)

    def admit(self, h: int, key: int, rejects: Callable[[int, int], bool] | None = None) -> int | None:
        """The one miss path: insert ``key`` into set ``h``, return the key that leaves or None.

        If the fold carries out a live key and ``rejects(key, victim)`` holds,
        the victim goes back to way 0 of the set's rows and ``key`` leaves
        instead; one ``write_set_raw`` commits the set either way.
        """
        self._tick()
        evicted, scn = self.insert_pending_raw(h, key, self._initial_scn())
        if evicted and rejects is not None and rejects(key, evicted):
            keys, scns = self.store.rows[h]
            keys[0], scns[0] = evicted, scn
            evicted = key
        self.store.write_set_raw(h, evicted)
        return evicted or None

    def insert_pending_raw(self, h: int, key: int, scn: int) -> tuple[int, int]:
        """Insert ``(key, scn)`` at way 0 and run the eviction fold in the set's own rows.

        Returns the ``(key, scn)`` way carried out; ``admit`` commits the
        edited set with ``write_set_raw``.  Each of the k fold/insert steps
        reads and writes auxiliary registers (candidate and keys registers),
        which is accounted here.

        Only LFU defines ``_age`` and only hyperbolic ``_metric``; FIFO and
        LRU fold over the SCN row with no hook call.  The key and SCN rows
        are each rewritten by name.
        """
        k = self.layout.k
        store = self.store
        counter = store.counter
        counter.register_reads += 2 * k
        counter.register_writes += 2 * k
        rows = store.read_set_raw(h)
        if store.epochs[h] != self.epoch:
            store.normalise(h, self.epoch, self._rebase)
        keys, scns = rows
        if self._age is not None:
            self._age(rows)
        if k > 1:
            victim, skipped = self._fold(scns if self._metric is None else self._metric(rows))
        else:
            victim, skipped = 0, []
        out = keys.pop(victim), scns.pop(victim)
        keys.insert(0, key)
        scns.insert(0, scn)
        # the shift put the candidate on each step that kept its element:
        # swap them back, the candidate moves on
        for s in skipped:
            t = s + 1
            keys[s], keys[t] = keys[t], keys[s]
            scns[s], scns[t] = scns[t], scns[s]
        return out

    def _fold(self, metric: list[int]) -> tuple[int, list[int]]:
        """The unrolled compare-and-swap fold over old ways 0..k-1.

        The displaced way-0 element starts as the candidate; at step i (way
        order 1..k-1) way i swaps with it if its metric is strictly smaller.
        Returns the old way of the element carried out and the steps before
        it that kept their element; with the new element at way 0, every
        other way up to the victim moves on by one.  The kept steps are
        recorded in order and cut once, after the scan, by ``bisect_left``.
        """
        ways = iter(metric)
        best = next(ways)
        victim = i = 0
        skipped = []
        for m in ways:
            i += 1
            if m < best:
                best = m
                victim = i
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
        del skipped[bisect_left(skipped, victim):]
        return victim, skipped

    def dump(self) -> list[list[tuple[int, int]]]:
        """Every set as ``(key, scn)`` ways, normalised first; bypasses operation accounting."""
        store = self.store
        for h, epoch in enumerate(store.epochs):
            if epoch != self.epoch:
                store.normalise(h, self.epoch, self._rebase)
        return [store.peek_set(h) for h in range(self.layout.d)]

    def live_keys(self) -> set[int]:
        return self.store.live_keys()

    def clone(self):
        other = self.__class__.__new__(self.__class__)
        other.__dict__.update(self.__dict__)
        other.store = self.store.clone()
        return other


class FifoEngine(PolicyEngine):
    """First-in-first-out: a hit writes its SCN back unchanged, the fold shifts unconditionally."""

    name = "fifo"

    def _initial_scn(self) -> int:
        return 0

    def _hit_scn(self, scn: int) -> int:
        return scn

    def _fold(self, metric: list[int]) -> tuple[int, list[int]]:
        # unconditional swaps leave a pure shift: the last way exits
        return len(metric) - 1, []


class LruEngine(PolicyEngine):
    """Least-recently-used via a strictly increasing per-engine SCN clock.

    Every fetch consumes exactly one clock tick; the fold carries out the
    minimum-SCN element, which with unique timestamps is exactly the least
    recently used one.  At the SCN field limit the clock restarts one above the
    most live keys of any set; each set's timestamps become dense ranks
    (order-preserving) when a packet next reads it, below every new one.
    """

    name = "lru"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.layout.max_scn() <= self.layout.k + 2:
            raise StorageError("scn_bits too small to rescale an LRU clock")
        self.clock = 0

    def _tick(self) -> None:
        self.clock = clock = self.clock + 1
        if clock >= self._scn_max:
            self.epoch += 1
            self.clock = self.store.peak_live + 1

    def _initial_scn(self) -> int:
        return self.clock

    def _hit_scn(self, scn: int) -> int:
        return self.clock

    def _rebase(self, scns: list[int], missed: int) -> list[int]:
        # ranks of ranks are the same ranks, so one pass covers any number of
        # missed epochs; an empty way's 0 ranks 0
        rank = {s: r for r, s in enumerate(sorted({0, *scns}))}
        return [rank[s] for s in scns]


class LfuEngine(PolicyEngine):
    """Least-frequently-used with in-place aging.

    The SCN word holds a saturating access count.  A hit increments only the
    hit element's count, and writes a saturated count back unchanged.  When an
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

    def _hit_scn(self, scn: int) -> int:
        return scn + 1 if scn < self._scn_max else scn


def make_engine(
    policy: str,
    layout: LayoutConfig,
    counter: OpCounter | None = None,
    *,
    integer_factor: int | float | str | Fraction = DEFAULT_INTEGER_FACTOR,
) -> PolicyEngine:
    """Build an engine by policy name, one of ``POLICIES`` in any case.

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
        return cls(layout, counter, integer_factor=integer_factor)
    return cls(layout, counter)
