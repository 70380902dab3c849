import random
from collections import deque

import pytest

from dpcache.core import CacheElement, LayoutConfig, OpCounter, StorageError
from dpcache.oracle import ReferenceCache
from dpcache.policies import (
    FifoEngine,
    LruEngine,
    make_engine,
)

# ---------------------------------------------------------------------------
# independent brute-force oracles (deliberately not the package's reference)
# ---------------------------------------------------------------------------


class QueueFifo:
    """Per-set FIFO queues of capacity k."""

    def __init__(self, k, d):
        self.k, self.d = k, d
        self.sets = [deque() for _ in range(d)]

    def fetch(self, key):
        s = self.sets[key % self.d]
        if key in s:
            return True, None
        s.append(key)
        if len(s) > self.k:
            return False, s.popleft()
        return False, None


class ListLru:
    """Per-set move-to-front lists of capacity k."""

    def __init__(self, k, d):
        self.k, self.d = k, d
        self.sets = [[] for _ in range(d)]

    def fetch(self, key):
        s = self.sets[key % self.d]
        if key in s:
            s.remove(key)
            s.append(key)
            return True, None
        evicted = None
        if len(s) == self.k:
            evicted = s.pop(0)
        s.append(key)
        return False, evicted


class AgedCounterLfu:
    """Explicit counters applying the engine's aging rule.

    Hits bump only the hit key's count; an insertion into a set first
    decrements the set's resident counts (floored at 1), then evicts the
    minimum aged count, least recently used first among ties.
    """

    def __init__(self, k, d):
        self.k, self.d = k, d
        self.sets = [{} for _ in range(d)]
        self.clock = 0

    def fetch(self, key):
        self.clock += 1
        s = self.sets[key % self.d]
        if key in s:
            s[key][0] += 1
            s[key][1] = self.clock
            return True, None
        for rec in s.values():
            rec[0] = max(1, rec[0] - 1)
        evicted = None
        if len(s) == self.k:
            evicted = min(s, key=lambda x: (s[x][0], s[x][1]))
            del s[evicted]
        s[key] = [1, self.clock]
        return False, evicted


def replay(engine, keys):
    out = []
    for key in keys:
        r = engine.fetch(key)
        out.append((r.hit, r.evicted.key if r.evicted else None))
    return out


def replay_oracle(oracle, keys):
    return [oracle.fetch(key) for key in keys]


def random_trace(seed, length, universe):
    rng = random.Random(seed)
    return [rng.randint(1, universe) for _ in range(length)]


# ---------------------------------------------------------------------------
# FIFO
# ---------------------------------------------------------------------------


class TestFifo:
    def test_three_inserts(self):
        eng = make_engine("fifo", LayoutConfig(k=2, d=1))
        results = replay(eng, [1, 2, 3])
        assert results == [(False, None), (False, None), (False, 1)]
        assert eng.live_keys() == {3, 2}

    def test_hit_is_read_only(self):
        eng = make_engine("fifo", LayoutConfig(k=2, d=1))
        replay(eng, [1, 2])
        before = list(eng.store.sets)
        r = eng.fetch(1)
        assert r.hit and eng.store.sets == before

    def test_eviction_order_is_insertion_order(self):
        eng = make_engine("fifo", LayoutConfig(k=4, d=1))
        oracle = QueueFifo(4, 1)
        keys = [1, 2, 3, 4, 5]
        assert replay(eng, keys) == replay_oracle(oracle, keys)
        assert replay(eng, [6])[0] == (False, 2)

    @pytest.mark.parametrize("k,d", [(1, 1), (2, 2), (4, 3)])
    def test_matches_queue_oracle(self, k, d):
        eng = make_engine("fifo", LayoutConfig(k=k, d=d))
        oracle = QueueFifo(k, d)
        keys = random_trace(11, 3000, universe=4 * k * d)
        assert replay(eng, keys) == replay_oracle(oracle, keys)


# ---------------------------------------------------------------------------
# LRU
# ---------------------------------------------------------------------------


class TestLru:
    def test_textbook_example(self):
        eng = make_engine("lru", LayoutConfig(k=2, d=1))
        results = replay(eng, [1, 2, 1, 3])
        assert results[-1] == (False, 2)
        assert eng.live_keys() == {1, 3}

    def test_empty_way_absorbs_first_insert(self):
        eng = make_engine("lru", LayoutConfig(k=2, d=1))
        r = eng.fetch(5)
        assert (r.hit, r.evicted) == (False, None)
        assert eng.dump()[0][0] == CacheElement(5, 5, 1)

    def test_least_recent_evicted(self):
        eng = make_engine("lru", LayoutConfig(k=3, d=1))
        results = replay(eng, [1, 2, 3, 1, 4])
        assert results[-1] == (False, 2)

    def test_clock_advances_once_per_fetch(self):
        eng = make_engine("lru", LayoutConfig(k=2, d=1))
        for i, key in enumerate([1, 2, 1, 1, 3], start=1):
            eng.fetch(key)
            assert eng.clock == i
        scns = [e.scn for row in eng.dump() for e in row if e.key]
        assert all(s <= eng.clock for s in scns)

    @pytest.mark.parametrize("k,d", [(1, 1), (2, 1), (3, 2), (8, 4)])
    def test_matches_list_oracle(self, k, d):
        eng = make_engine("lru", LayoutConfig(k=k, d=d))
        oracle = ListLru(k, d)
        keys = random_trace(id(self) % 1000, 3000, universe=4 * k * d)
        assert replay(eng, keys) == replay_oracle(oracle, keys)

    def test_rescaling_preserves_exactness(self):
        # 6-bit SCN clock overflows every ~60 fetches; order must survive
        lay = LayoutConfig(scn_bits=6, k=3, d=2)
        eng = make_engine("lru", lay, check_invariants=True)
        oracle = ListLru(3, 2)
        keys = random_trace(99, 5000, universe=20)
        assert replay(eng, keys) == replay_oracle(oracle, keys)
        assert eng.clock < 63

    def test_scn_bits_too_small_rejected(self):
        with pytest.raises(StorageError):
            make_engine("lru", LayoutConfig(scn_bits=2, k=3, d=1))


# ---------------------------------------------------------------------------
# LFU
# ---------------------------------------------------------------------------


class TestLfu:
    def test_aged_eviction(self):
        eng = make_engine("lfu", LayoutConfig(k=2, d=1))
        results = replay(eng, [1, 1, 1, 2, 3])
        assert results[-1] == (False, 2)

    def test_fresh_insert_has_count_one(self):
        eng = make_engine("lfu", LayoutConfig(k=2, d=1))
        eng.fetch(5)
        assert eng.dump()[0][0].scn == 1

    def test_aging_floors_hot_key_rival(self):
        eng = make_engine("lfu", LayoutConfig(k=2, d=1))
        results = replay(eng, [1, 2] + [2] * 40 + [3])
        assert results[-1] == (False, 1)

    def test_count_saturates(self):
        lay = LayoutConfig(scn_bits=3, k=2, d=1)
        eng = make_engine("lfu", lay)
        replay(eng, [1] * 20)
        assert eng.dump()[0][0].scn == 7

    def test_matches_counter_oracle(self):
        # tie-free sequence: the fold's positional tie-break never engages,
        # so the counter oracle pins the full outcome stream
        eng = make_engine("lfu", LayoutConfig(k=2, d=1))
        oracle = AgedCounterLfu(2, 1)
        keys = [1, 1, 2, 2, 2, 3, 2, 2, 3, 4]
        assert replay(eng, keys) == replay_oracle(oracle, keys)

    def test_reference_gap_on_desk_trace(self, desk_trace):
        eng = make_engine("lfu", LayoutConfig(k=8, d=16))
        hits = sum(1 for key in desk_trace.keys if eng.fetch(key).hit)
        ref = ReferenceCache("lfu", 8, 16)
        ref_hits = sum(1 for key in desk_trace.keys if ref.fetch(key)[0])
        gap = abs(hits - ref_hits) / len(desk_trace.keys) * 100
        assert gap <= 4.0, f"restricted vs reference LFU gap {gap:.2f} points"


# ---------------------------------------------------------------------------
# shared engine behaviour
# ---------------------------------------------------------------------------


class TestBacking:
    """The value source: a miss serves the key truncated to the value width."""

    def test_identity_default(self):
        eng = make_engine("lru", LayoutConfig(k=2, d=1))
        assert eng.fetch(7).value == 7
        assert eng.fetch(7).value == 7  # hit returns the cached value

    def test_truncation(self):
        for policy in ["fifo", "lru", "lfu", "hyperbolic"]:
            eng = make_engine(policy, LayoutConfig(key_bits=16, value_bits=8, k=2, d=1))
            assert eng.fetch(0x1234).value == 0x34
            assert eng.fetch(0x1234) == (True, 0x34, None)
            assert eng.store.rows[0][1][0] == 0x34


class TestKeyRange:
    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_key_zero_and_negative_keys_rejected(self, policy):
        # key 0 marks an empty way, so it would hit every fresh set; the
        # ternary lookup is the only check on a single-region fetch
        for d in (1, 4):
            eng = make_engine(policy, LayoutConfig(k=2, d=d))
            for key in (0, -1, -d - 1):
                with pytest.raises(StorageError):
                    eng.fetch(key)
            assert eng.live_keys() == set()
            assert eng.store.counter == OpCounter()


class TestOpAccounting:
    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_hit_costs_exactly_one_of_each(self, policy):
        counter = OpCounter()
        eng = make_engine(policy, LayoutConfig(k=4, d=2), counter=counter)
        eng.fetch(3)
        counter.reset()
        r = eng.fetch(3)
        assert r.hit
        assert (counter.tcam_matches, counter.register_reads,
                counter.register_writes) == (1, 1, 1)

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_miss_within_fold_budget(self, policy):
        k = 4
        counter = OpCounter()
        eng = make_engine(policy, LayoutConfig(k=k, d=2), counter=counter)
        for key in [1, 3, 5, 7, 9, 11]:
            counter.reset()
            r = eng.fetch(key)
            assert not r.hit
            assert counter.tcam_matches == 1
            assert counter.register_reads <= 1 + 2 * k
            assert counter.register_writes <= 1 + 2 * k

    @pytest.mark.parametrize("policy", ["lru", "lfu", "hyperbolic"])
    def test_fold_runs_exactly_k_minus_1_steps(self, policy):
        k = 5
        eng = make_engine(policy, LayoutConfig(k=k, d=1))
        comparisons = []
        eng.fold_observer = lambda a, b: comparisons.append((a, b))
        eng.fetch(1)
        assert len(comparisons) == k - 1
        comparisons.clear()
        eng.fetch(1)  # hit: no fold
        assert comparisons == []


class TestHitPathIsolation:
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_hit_touches_only_the_hit_elements_scn(self, policy):
        eng = make_engine(policy, LayoutConfig(k=3, d=1))
        for key in [1, 2, 3]:
            eng.fetch(key)
        before = eng.dump()[0]
        way = next(i for i, e in enumerate(before) if e.key == 2)
        r = eng.fetch(2)
        assert r.hit
        after = eng.dump()[0]
        for i, (a, b) in enumerate(zip(before, after)):
            if i == way:
                assert (a.key, a.value) == (b.key, b.value)
                assert a.scn != b.scn
            else:
                assert a == b


class TestFetchResultInvariants:
    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_at_most_one_departure_per_fetch(self, policy):
        eng = make_engine(policy, LayoutConfig(k=3, d=2))
        previous = set()
        for key in random_trace(5, 2000, universe=40):
            r = eng.fetch(key)
            live = eng.live_keys()
            departed = previous - live
            assert len(departed) <= 1
            if r.hit:
                assert r.evicted is None and departed == set()
            elif r.evicted is not None:
                assert departed == {r.evicted.key}
            else:
                assert departed == set()
            previous = live

    def test_keys_register_always_derivable(self):
        eng = make_engine("lru", LayoutConfig(k=3, d=2), check_invariants=True)
        for key in random_trace(8, 1500, universe=30):
            eng.fetch(key)
            for h in range(2):
                derived = 0
                keys = eng.store.decode_set(eng.store.sets[h])[0]
                for i, key in enumerate(keys):
                    derived |= key << (i * eng.layout.key_bits)
                assert derived == eng.store.keys_register[h]
