"""Unrestricted reference caches with exact arithmetic.

These are the textbook implementations the restricted engines are validated
against: per-set move-to-front LRU, per-set insertion-order FIFO, perfect LFU
with least-recently-used tie-breaking, and hyperbolic priorities compared as
exact rationals (cross multiplication, never floating division).  Each policy
is its own subclass of `ReferenceCache`, so no per-event code branches on the
policy name.  Each fact is kept once: FIFO and LRU sets hold keys in
eviction order, an LFU set maps a key to its count, and a hyperbolic set to
its count and insert tick; hyperbolic alone keeps a clock.  No eviction
scans its set: FIFO and LRU evict the first key of an ordered set, LFU the
first key of its lowest count bucket, and hyperbolic compares only the
oldest key of each count.  Fully associative behaviour is the k = capacity,
d = 1 special case.

`exhaustive_check` enumerates every key sequence up to a length bound and
compares hit/miss streams between a restricted engine and its reference; for
the policies whose restricted form is approximate (LFU, hyperbolic) it also
asks `has_metric_tie` to explain each divergence, which cannot fail yet: it
has found a tie in every sequence tried (ROADMAP item 14).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .core import LayoutConfig
from .multiregion import FILTER_TINYLFU, CountingFilter, RegionSpec, aging_window, check_composition
from .policies import DEFAULT_INTEGER_FACTOR, PolicyEngine, make_engine

_MAX_ENUMERATION_NODES = 5_000_000
_TICK = itemgetter(0)  # the insert tick of a hyperbolic bucket entry


class ReferenceCache:
    """Exact k-way set-associative cache, one of fifo/lru/lfu/hyperbolic.

    ``ReferenceCache(policy, k, d)`` builds the policy's own subclass.
    ``fetch`` returns (hit, evicted_key).  Every policy answers to three
    hooks: ``_touch(h, key)`` serves a hit and is False on a miss,
    ``victim(h)`` names the key set ``h`` would evict now, or None while the
    set has room, and ``_insert(h, key, victim)`` places a missed key after
    evicting that victim.  The miss path, ``admit``, runs the last two; the
    base ``fetch`` and both regions of ``ReferenceMultiCache`` call it, and
    LRU serves ``fetch`` in one body over its ordered set, where a miss
    stores its key before it pops the oldest.  A fourth hook, ``_tick()``,
    steps the clock once per fetch after the key check; it does nothing
    here, so FIFO, LRU and LFU, whose order lives in their sets or buckets,
    keep no clock (hyperbolic keeps one).  ``tie_seen`` latches when the key
    an eviction picks shares the minimal metric with another key of its set
    (LFU equal frequencies, hyperbolic equal exact priorities); a tie between
    keys that a strictly smaller one beats does not count.
    """

    policy: str
    _new_set = dict

    def __new__(cls, policy: str, k: int, d: int) -> "ReferenceCache":
        chosen = _BY_POLICY.get(policy.lower())
        if chosen is None:
            raise ValueError(f"unknown reference policy {policy!r}")
        return super().__new__(chosen)

    def __init__(self, policy: str, k: int, d: int) -> None:
        if k < 1 or d < 1:
            raise ValueError("k and d must be >= 1")
        self.k = k
        self.d = d
        self.tie_seen = False
        self.sets: list = [self._new_set() for _ in range(d)]

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if key < 1:
            raise ValueError("keys must be >= 1")
        self._tick()
        h = key % self.d
        if self._touch(h, key):
            return True, None
        return False, self.admit(h, key)

    def _tick(self) -> None:
        """One fetch's clock step; a policy without a clock has nothing to step."""

    def admit(self, h: int, key: int, rejects: Callable[[int, int], bool] | None = None) -> int | None:
        """The miss path: return the key that leaves set ``h``, or None.  A full set
        whose ``rejects(key, victim)`` holds is left as it was, and ``key`` leaves."""
        victim = self.victim(h)
        if victim is not None and rejects is not None and rejects(key, victim):
            return key
        self._insert(h, key, victim)
        return victim

    def live_keys(self) -> set[int]:
        return {k for s in self.sets for k in s}

    def clone(self) -> "ReferenceCache":
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.sets = [s.copy() for s in self.sets]
        return other


class _OrderedReference(ReferenceCache):
    """Sets of keys in eviction order: a miss on a full set evicts the first."""

    _new_set = OrderedDict

    def victim(self, h: int) -> int | None:
        s = self.sets[h]
        if len(s) < self.k:
            return None
        return next(iter(s))

    def _insert(self, h: int, key: int, victim: int | None) -> None:
        s = self.sets[h]
        if victim is not None:
            del s[victim]
        s[key] = None


class _FifoReference(_OrderedReference):
    """Keys in insertion order; hits change nothing."""

    policy = "fifo"

    def _touch(self, h: int, key: int) -> bool:
        return key in self.sets[h]


class _LruReference(_OrderedReference):
    """Keys in access order: a hit moves its key to the back."""

    policy = "lru"

    def fetch(self, key: int) -> tuple[bool, int | None]:
        s = self.sets[key % self.d]
        if key in s:
            s.move_to_end(key)
            return True, None
        # no key below 1 is ever stored, so a bad key raises here, before any write
        if key < 1:
            raise ValueError("keys must be >= 1")
        s[key] = None
        if len(s) > self.k:
            # positional: popitem(last=False) takes OrderedDict's slower keyword path
            return False, s.popitem(False)[0]
        return False, None

    def _touch(self, h: int, key: int) -> bool:
        s = self.sets[h]
        if key not in s:
            return False
        s.move_to_end(key)
        return True


class _LfuReference(ReferenceCache):
    """Perfect LFU; among keys of the lowest count, the least recently used goes.

    Each set maps a key to its access count.  ``buckets[h]`` maps each count
    present in set ``h`` to a dict of its keys in last-access order, and
    ``low[h]`` is the lowest of those counts (Shah, Mitra & Matani's O(1)
    LFU).  The victim is the first key of the lowest bucket, so every hook
    runs in O(1), no eviction scans its set, and recency lives in the bucket
    order rather than in a clock.
    """

    policy = "lfu"

    def __init__(self, policy: str, k: int, d: int) -> None:
        super().__init__(policy, k, d)
        self.buckets: list[dict[int, dict[int, None]]] = [{} for _ in range(d)]
        self.low = [1] * d

    def clone(self) -> "_LfuReference":
        other = super().clone()
        other.buckets = [{f: bucket.copy() for f, bucket in buckets.items()}
                         for buckets in self.buckets]
        other.low = self.low[:]
        return other

    def _touch(self, h: int, key: int) -> bool:
        s = self.sets[h]
        f = s.get(key)
        if f is None:
            return False
        s[key] = f + 1
        buckets = self.buckets[h]
        bucket = buckets[f]
        del bucket[key]
        if not bucket:
            del buckets[f]
            if self.low[h] == f:
                self.low[h] = f + 1
        buckets.setdefault(f + 1, {})[key] = None
        return True

    def victim(self, h: int) -> int | None:
        if len(self.sets[h]) < self.k:
            return None
        bucket = self.buckets[h][self.low[h]]
        if len(bucket) > 1:
            self.tie_seen = True
        return next(iter(bucket))

    def _insert(self, h: int, key: int, victim: int | None) -> None:
        s, buckets = self.sets[h], self.buckets[h]
        if victim is not None:
            f = s.pop(victim)
            bucket = buckets[f]
            del bucket[victim]
            if not bucket:
                del buckets[f]
        s[key] = 1
        buckets.setdefault(1, {})[key] = None
        self.low[h] = 1


class _HyperbolicReference(ReferenceCache):
    """Exact hyperbolic priorities n / (now - t), t the key's insert tick.

    ``seq`` counts fetches, stepped by ``_tick``, and each set maps a key to
    its ``(count, insert tick)``.  Among keys of equal count n, the one with
    the smallest insert tick t has strictly the lowest n / (now - t) at every
    clock value, so the victim is always the oldest key of some count.
    ``buckets[h]`` maps each count present in set ``h`` to its keys'
    ``(insert tick, key)`` entries in ascending order; ticks are unique within
    a set, since a fetch inserts at most once per cache, so the entries sort
    by tick and are found by it.  A key's entry is built once, when the key is
    inserted: a hit moves it to the next bucket and builds only the new
    record, so it makes one tuple.  An eviction compares one bucket head per
    distinct count.
    """

    policy = "hyperbolic"

    def __init__(self, policy: str, k: int, d: int) -> None:
        super().__init__(policy, k, d)
        self.seq = 0
        self.buckets: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(d)]

    def _tick(self) -> None:
        self.seq += 1

    def clone(self) -> "_HyperbolicReference":
        other = super().clone()
        other.buckets = [{f: entries[:] for f, entries in buckets.items()}
                         for buckets in self.buckets]
        return other

    @staticmethod
    def _unfile(buckets: dict[int, list[tuple[int, int]]], f: int, t: int) -> tuple[int, int]:
        """Take the entry of tick ``t`` out of bucket ``f``, and the bucket out
        once it is empty; returns the entry."""
        entries = buckets[f]
        if len(entries) == 1:
            del buckets[f]
            return entries[0]
        return entries.pop(bisect_left(entries, t, key=_TICK))

    def _touch(self, h: int, key: int) -> bool:
        s = self.sets[h]
        rec = s.get(key)
        if rec is None:
            return False
        f, t = rec
        s[key] = (f + 1, t)
        buckets = self.buckets[h]
        insort(buckets.setdefault(f + 1, []), self._unfile(buckets, f, t), key=_TICK)
        return True

    def victim(self, h: int) -> int | None:
        if len(self.sets[h]) < self.k:
            return None
        # minimise n/(now - t) over the bucket heads exactly; the smallest tick
        # wins ties, the first inserted.  The start is a priority 1/0 above
        # every head: a key's insert precedes the fetch that evicts, so life >= 1.
        now = self.seq
        best_n, best_life, best = 1, 0, (0, 0)
        tied = False  # whether the running minimum is shared
        for n, entries in self.buckets[h].items():
            head = entries[0]
            life = now - head[0]
            lhs = n * best_life
            rhs = best_n * life
            if lhs < rhs:
                best_n, best_life, best = n, life, head
                tied = False
            elif lhs == rhs:
                tied = True
                if head < best:
                    best = head
        if tied:
            self.tie_seen = True
        return best[1]

    def _insert(self, h: int, key: int, victim: int | None) -> None:
        s, buckets = self.sets[h], self.buckets[h]
        if victim is not None:
            f, t = s.pop(victim)
            self._unfile(buckets, f, t)
        s[key] = (1, self.seq)
        # the newest tick of the set: it goes last in bucket 1
        buckets.setdefault(1, []).append((self.seq, key))


_BY_POLICY = {cls.policy: cls for cls in
              (_FifoReference, _LruReference, _LfuReference, _HyperbolicReference)}


class ReferenceMultiCache:
    """Unrestricted window x main composition with the counting filter.

    Takes the regions and the filter name of ``MultiRegionCache``; with
    filter "none" ``filter`` is None and every window victim is admitted.
    With "tinylfu" it is the restricted cache's ``CountingFilter`` on the
    batch schedule (``stride`` = the aging window), which halves every
    counter at once, so that c05 weighs the sliced schedule against it; with
    a sliced-schedule filter in its place, this is an exact oracle of the
    filtered cache with an LRU main region.
    """

    def __init__(
        self,
        window: RegionSpec,
        main: RegionSpec,
        key_universe: int,
        filter: str = FILTER_TINYLFU,
    ) -> None:
        check_composition(filter, key_universe)
        self.window = ReferenceCache(window.policy, window.k, window.d)
        self.main = ReferenceCache(main.policy, main.k, main.d)
        self.key_universe = key_universe
        if filter == FILTER_TINYLFU:
            epoch = aging_window(window.capacity + main.capacity)
            self.filter: CountingFilter | None = CountingFilter(key_universe, epoch, stride=epoch)
        else:
            self.filter = None

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if not 1 <= key < self.key_universe:
            raise ValueError(f"key {key} outside universe [1, {self.key_universe})")
        flt = self.filter
        if flt is not None:
            flt.record_access(key)

        window, main = self.window, self.main
        main._tick()
        window._tick()
        if main._touch(key % main.d, key) or window._touch(key % window.d, key):
            return True, None
        victim = window.admit(key % window.d, key)
        if victim is None:
            return False, None
        return False, main.admit(victim % main.d, victim, None if flt is None else self._rejects)

    def _rejects(self, candidate: int, incumbent: int) -> bool:
        """The admission contest: the main victim stays on a strictly higher count."""
        return self.filter.count(incumbent) > self.filter.count(candidate)


# ---------------------------------------------------------------------------
# exhaustive small-instance equivalence check
# ---------------------------------------------------------------------------

EXACT_POLICIES = ("fifo", "lru")


@dataclass
class ExhaustiveReport:
    policy: str
    k: int
    d: int
    alphabet_size: int
    max_len: int
    sequences_checked: int
    divergent_sequences: int
    untagged_divergences: int
    first_divergence: tuple[int, ...] | None
    first_divergence_dump: str | None

    @property
    def passed(self) -> bool:
        if self.policy.lower() in EXACT_POLICIES:
            return self.divergent_sequences == 0
        return self.untagged_divergences == 0

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        return (
            f"[{status}] {self.policy} k={self.k} d={self.d} "
            f"alphabet={self.alphabet_size} len<={self.max_len}: "
            f"{self.sequences_checked} sequences, "
            f"{self.divergent_sequences} divergent, "
            f"{self.untagged_divergences} unexplained"
        )


def _fresh_engine(policy: str, k: int, d: int, integer_factor) -> PolicyEngine:
    layout = LayoutConfig(key_bits=16, value_bits=16, scn_bits=32, k=k, d=d)
    return make_engine(policy, layout, integer_factor=integer_factor)


def has_metric_tie(
    policy: str,
    k: int,
    d: int,
    sequence: tuple[int, ...],
    integer_factor=DEFAULT_INTEGER_FACTOR,
) -> bool:
    """Replay a sequence and report whether its metric ever lost strict order.

    Ties counted: equal metric operands in any restricted fold comparison
    (for hyperbolic, scores within one quantisation unit of each other, which
    is the zone where integer scores can disagree with the exact ratios), two
    live elements of one set holding equal counts after any LFU access, and a
    non-unique metric minimum at any reference eviction.  It has returned
    True for every LFU and hyperbolic sequence tried (ROADMAP item 14).
    """
    policy = policy.lower()
    engine = _fresh_engine(policy, k, d, integer_factor)
    reference = ReferenceCache(policy, k, d)
    found = False
    slack = 1 if policy == "hyperbolic" else 0

    def observer(a: int, b: int) -> None:
        nonlocal found
        if abs(a - b) <= slack:
            found = True

    engine.fold_observer = observer
    for key in sequence:
        engine.fetch(key)
        reference.fetch(key)
        if policy == "lfu" and not found:
            for row in engine.dump():
                scns = [scn for key, scn in row if key]
                if len(scns) != len(set(scns)):
                    found = True
                    break
    return found or reference.tie_seen


def _dump_states(engine: PolicyEngine, reference: ReferenceCache) -> str:
    rows = []
    for h, row in enumerate(engine.dump()):
        cells = ", ".join(
            f"(key={key}, scn={scn})" if key else "(empty)" for key, scn in row
        )
        rows.append(f"  engine set {h}: [{cells}]")
    rows.append(f"  reference sets: {[list(s) for s in reference.sets]}")
    return "\n".join(rows)


def exhaustive_check(
    policy: str,
    k: int = 2,
    d: int = 1,
    alphabet_size: int = 3,
    max_len: int = 6,
    integer_factor=DEFAULT_INTEGER_FACTOR,
) -> ExhaustiveReport:
    """Compare engine vs reference on every key sequence up to ``max_len``.

    Sequences are explored as a prefix tree, so each prefix is evaluated once;
    once a prefix diverges, every extension is divergent as well and the
    subtree is counted without being walked.  Every figure counts sequences.
    For LFU and hyperbolic, ``untagged_divergences`` has not yet been seen
    above 0, since ``has_metric_tie`` ties every sequence (ROADMAP item 14).
    """
    if alphabet_size < 1 or max_len < 1:
        raise ValueError("alphabet_size and max_len must be >= 1")
    # summed level by level, so a huge max_len stops at the first level past the limit
    nodes, level = 0, 1
    for _ in range(max_len):
        level *= alphabet_size
        nodes += level
        if nodes > _MAX_ENUMERATION_NODES:
            raise ValueError(f"enumeration of more than {_MAX_ENUMERATION_NODES} "
                             "sequences is too large")
    engine = _fresh_engine(policy, k, d, integer_factor)
    if alphabet_size >> engine.layout.key_bits:
        raise ValueError(f"alphabet_size {alphabet_size} exceeds {engine.layout.key_bits}-bit keys")

    divergent = 0
    untagged = 0
    first_divergence: tuple[int, ...] | None = None
    first_dump: str | None = None

    def walk(engine: PolicyEngine, reference: ReferenceCache, path: tuple[int, ...]) -> None:
        nonlocal divergent, untagged, first_divergence, first_dump
        for key in range(1, alphabet_size + 1):
            # the last child takes this node's own state: nothing reads it after
            if key < alphabet_size:
                eng, ref = engine.clone(), reference.clone()
            else:
                eng, ref = engine, reference
            hit_e = eng.fetch(key)[0]
            hit_r = ref.fetch(key)[0]
            seq = path + (key,)
            if hit_e != hit_r:
                # every extension of a divergent prefix diverges too; a tie
                # seen while replaying the prefix is seen by every extension,
                # so the prefix alone is classified for its whole subtree
                subtree = sum(alphabet_size**j for j in range(max_len - len(seq) + 1))
                divergent += subtree
                if not has_metric_tie(policy, k, d, seq, integer_factor):
                    untagged += subtree
                if first_divergence is None:
                    first_divergence = seq
                    first_dump = _dump_states(eng, ref)
                continue
            if len(seq) < max_len:
                walk(eng, ref, seq)

    walk(engine, ReferenceCache(policy, k, d), ())
    return ExhaustiveReport(
        policy=policy,
        k=k,
        d=d,
        alphabet_size=alphabet_size,
        max_len=max_len,
        sequences_checked=nodes,
        divergent_sequences=divergent,
        untagged_divergences=untagged,
        first_divergence=first_divergence,
        first_divergence_dump=first_dump,
    )
