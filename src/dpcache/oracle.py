"""Unrestricted reference caches with exact arithmetic.

These are the textbook implementations the restricted engines are validated
against: per-set move-to-front LRU, per-set FIFO queues, perfect LFU with
least-recently-used tie-breaking, and hyperbolic priorities compared as exact
rationals (cross multiplication, never floating division).  Each policy is
its own subclass of `ReferenceCache`, so no per-event code branches on the
policy name.  Fully associative behaviour is the k = capacity, d = 1 special
case.

`exhaustive_check` enumerates every key sequence up to a length bound and
compares hit/miss streams between a restricted engine and its reference; for
the policies whose restricted form is approximate (LFU, hyperbolic) it also
verifies that every divergence is explained by a metric tie.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from .core import LayoutConfig
from .multiregion import COUNTER_CAP, aging_window
from .policies import PolicyEngine, make_engine

_MAX_ENUMERATION_NODES = 5_000_000


class ReferenceCache:
    """Exact k-way set-associative cache, one of fifo/lru/lfu/hyperbolic.

    ``ReferenceCache(policy, k, d)`` builds the policy's own subclass.
    ``fetch`` returns (hit, evicted_key).  ``tie_seen`` latches whenever an
    eviction decision had more than one metric-minimal candidate (LFU equal
    frequencies, hyperbolic equal exact priorities).  The base ``fetch`` runs
    the per-policy hooks (``_touch``, ``victim``, ``_remove``, ``_place``),
    which ``ReferenceMultiCache`` also composes; FIFO and LRU override it with
    one body over their queue.
    """

    policy: str

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
        self.seq = 0  # fetch counter: LFU recency + hyperbolic clock
        self.sets: list = [self._new_set() for _ in range(d)]

    @classmethod
    def full(cls, policy: str, capacity: int) -> "ReferenceCache":
        """Fully associative cache: a single set holding `capacity` ways."""
        return cls(policy, k=capacity, d=1)

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if key < 1:
            raise ValueError("keys must be >= 1")
        self.seq += 1
        h = key % self.d
        if self._touch(h, key):
            return True, None
        return False, self._insert(h, key)

    def _insert(self, h: int, key: int) -> int | None:
        victim = self.victim(h)
        if victim is not None:
            self._remove(h, victim)
        self._place(h, key)
        return victim

    def victim(self, h: int) -> int | None:
        """The key this set would evict now, or None while it has room."""
        s = self.sets[h]
        if len(s) < self.k:
            return None
        return self._victim_of(s)

    def _remove(self, h: int, key: int) -> None:
        del self.sets[h][key]

    def live_keys(self) -> set[int]:
        return {k for s in self.sets for k in s}

    def clone(self) -> "ReferenceCache":
        other = object.__new__(type(self))
        other.k, other.d = self.k, self.d
        other.tie_seen = self.tie_seen
        other.seq = self.seq
        other.sets = [self._copy_set(s) for s in self.sets]
        return other


class _FifoReference(ReferenceCache):
    """Per-set insertion-order queues; hits change nothing."""

    policy = "fifo"
    _new_set = _copy_set = deque

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if key < 1:
            raise ValueError("keys must be >= 1")
        self.seq += 1
        s = self.sets[key % self.d]
        if key in s:
            return True, None
        victim = s.popleft() if len(s) >= self.k else None
        s.append(key)
        return False, victim

    def _touch(self, h: int, key: int) -> bool:
        return key in self.sets[h]

    def _victim_of(self, s: deque) -> int:
        return s[0]

    def _remove(self, h: int, key: int) -> None:
        self.sets[h].remove(key)

    def _place(self, h: int, key: int) -> None:
        self.sets[h].append(key)


class _LruReference(ReferenceCache):
    """Per-set move-to-front lists, least recent first."""

    policy = "lru"
    _new_set = _copy_set = OrderedDict

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if key < 1:
            raise ValueError("keys must be >= 1")
        self.seq += 1
        s = self.sets[key % self.d]
        if key in s:
            s.move_to_end(key)
            return True, None
        victim = s.popitem(last=False)[0] if len(s) >= self.k else None
        s[key] = None
        return False, victim

    def _touch(self, h: int, key: int) -> bool:
        s = self.sets[h]
        if key not in s:
            return False
        s.move_to_end(key)
        return True

    def _victim_of(self, s: OrderedDict) -> int:
        return next(iter(s))

    def _place(self, h: int, key: int) -> None:
        self.sets[h][key] = None


class _RecordReference(ReferenceCache):
    """Sets of ``key -> [freq, tick]`` records; a new key starts at freq 1."""

    _new_set = dict

    @staticmethod
    def _copy_set(s: dict) -> dict:
        return {k: list(v) for k, v in s.items()}

    def _place(self, h: int, key: int) -> None:
        self.sets[h][key] = [1, self.seq]


class _LfuReference(_RecordReference):
    """Perfect LFU; the tick is the last access, so recency breaks ties."""

    policy = "lfu"

    def _touch(self, h: int, key: int) -> bool:
        rec = self.sets[h].get(key)
        if rec is None:
            return False
        rec[0] += 1
        rec[1] = self.seq
        return True

    def _victim_of(self, s: dict) -> int:
        best = min(s.items(), key=lambda kv: (kv[1][0], kv[1][1]))
        if sum(1 for rec in s.values() if rec[0] == best[1][0]) > 1:
            self.tie_seen = True
        return best[0]


class _HyperbolicReference(_RecordReference):
    """Exact hyperbolic priorities; the tick is the insertion time."""

    policy = "hyperbolic"

    def _touch(self, h: int, key: int) -> bool:
        rec = self.sets[h].get(key)
        if rec is None:
            return False
        rec[0] += 1
        return True

    def _victim_of(self, s: dict) -> int:
        # minimise freq/(now - insert_tick) exactly; first-inserted wins ties
        now = self.seq
        best_key = None
        best_n = best_life = 0
        for key, (n, t) in s.items():
            life = now - t
            if best_key is None:
                best_key, best_n, best_life = key, n, life
                continue
            lhs = n * best_life
            rhs = best_n * life
            if lhs < rhs:
                best_key, best_n, best_life = key, n, life
            elif lhs == rhs:
                self.tie_seen = True
        return best_key


_BY_POLICY = {cls.policy: cls for cls in
              (_FifoReference, _LruReference, _LfuReference, _HyperbolicReference)}


class ReferenceMultiCache:
    """Unrestricted window x main composition with the counting filter.

    Aging here is the original batch scheme: all counters are halved at once
    every ``aging_window`` accesses.  This intentionally differs from the
    restricted engine's de-amortized slicing so the admission behaviour of the
    two schemes can be compared; the window length and the counter cap are
    the restricted cache's own (``multiregion.aging_window``, ``COUNTER_CAP``).
    """

    def __init__(
        self,
        window_policy: str,
        main_policy: str,
        k_w: int,
        d_w: int,
        k_m: int,
        d_m: int,
        key_universe: int,
        use_filter: bool = True,
    ) -> None:
        self.window = ReferenceCache(window_policy, k_w, d_w)
        self.main = ReferenceCache(main_policy, k_m, d_m)
        self.use_filter = use_filter
        self.key_universe = key_universe
        self.aging_window = aging_window(k_w * d_w + k_m * d_m)
        self.counter_cap = COUNTER_CAP
        self.counters = np.zeros(key_universe, dtype=np.uint32)
        self.access_counter = 0

    def fetch(self, key: int) -> tuple[bool, int | None]:
        if not 1 <= key < self.key_universe:
            raise ValueError(f"key {key} outside universe")
        if self.use_filter:
            if self.counters[key] < self.counter_cap:
                self.counters[key] += 1
            self.access_counter += 1
            if self.access_counter % self.aging_window == 0:
                self.counters >>= 1

        self.main.seq += 1
        self.window.seq += 1
        if self.main._touch(key % self.main.d, key):
            return True, None
        if self.window._touch(key % self.window.d, key):
            return True, None

        window_victim = self.window._insert(key % self.window.d, key)
        if window_victim is None:
            return False, None
        h2 = window_victim % self.main.d
        main_victim = self.main.victim(h2)
        if main_victim is None:
            self.main._place(h2, window_victim)
            return False, None
        if self.use_filter and self.counters[main_victim] > self.counters[window_victim]:
            # admission denied; the window victim leaves the cache entirely
            return False, window_victim
        self.main._remove(h2, main_victim)
        self.main._place(h2, window_victim)
        return False, main_victim


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
        if self.policy in EXACT_POLICIES:
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


def _small_layout(k: int, d: int) -> LayoutConfig:
    return LayoutConfig(key_bits=16, value_bits=16, scn_bits=32, k=k, d=d)


def _fresh_engine(policy: str, k: int, d: int, integer_factor) -> PolicyEngine:
    return make_engine(policy, _small_layout(k, d), integer_factor=integer_factor)


def has_metric_tie(
    policy: str,
    k: int,
    d: int,
    sequence: tuple[int, ...],
    integer_factor=100,
) -> bool:
    """Replay a sequence and report whether its metric ever lost strict order.

    Ties counted: equal metric operands in any restricted fold comparison
    (for hyperbolic, scores within one quantisation unit of each other, which
    is the zone where integer scores can disagree with the exact ratios), two
    live elements of one set holding equal counts after any LFU access, and a
    non-unique metric minimum at any reference eviction.
    """
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
                scns = [e.scn for e in row if e.key]
                if len(scns) != len(set(scns)):
                    found = True
                    break
    return found or reference.tie_seen


def _dump_states(engine: PolicyEngine, reference: ReferenceCache) -> str:
    rows = []
    for h, row in enumerate(engine.dump()):
        cells = ", ".join(
            f"(key={e.key}, scn={e.scn})" if e.key else "(empty)" for e in row
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
    integer_factor=100,
) -> ExhaustiveReport:
    """Compare engine vs reference on every key sequence up to ``max_len``.

    Sequences are explored as a prefix tree, so each prefix is evaluated once;
    once a prefix diverges, every extension is divergent as well and the
    subtree is counted without being walked.
    """
    nodes = sum(alphabet_size**j for j in range(1, max_len + 1))
    if nodes > _MAX_ENUMERATION_NODES:
        raise ValueError(f"enumeration of {nodes} sequences is too large")

    checked = 0
    divergent = 0
    untagged = 0
    first_divergence: tuple[int, ...] | None = None
    first_dump: str | None = None

    def subtree_count(depth: int) -> int:
        return sum(alphabet_size**j for j in range(0, max_len - depth + 1))

    def walk(engine: PolicyEngine, reference: ReferenceCache, path: tuple[int, ...]) -> None:
        nonlocal checked, divergent, untagged, first_divergence, first_dump
        for key in range(1, alphabet_size + 1):
            eng = engine.clone()
            ref = reference.clone()
            hit_e = eng.fetch(key).hit
            hit_r = ref.fetch(key)[0]
            seq = path + (key,)
            checked += 1
            if hit_e != hit_r:
                # every extension of a divergent prefix diverges too; a tie
                # seen while replaying the prefix is seen by every extension,
                # so the prefix alone is classified
                divergent += subtree_count(len(seq))
                if not has_metric_tie(policy, k, d, seq, integer_factor):
                    untagged += 1
                if first_divergence is None:
                    first_divergence = seq
                    first_dump = _dump_states(eng, ref)
                continue
            if len(seq) < max_len:
                walk(eng, ref, seq)

    walk(_fresh_engine(policy, k, d, integer_factor), ReferenceCache(policy, k, d), ())
    return ExhaustiveReport(
        policy=policy,
        k=k,
        d=d,
        alphabet_size=alphabet_size,
        max_len=max_len,
        sequences_checked=checked,
        divergent_sequences=divergent,
        untagged_divergences=untagged,
        first_divergence=first_divergence,
        first_divergence_dump=first_dump,
    )
