import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import assert_written, checked
from dpcache.core import LayoutConfig, OpCounter, StorageError
from dpcache.multiregion import MultiRegionCache, RegionSpec
from dpcache.oracle import ReferenceCache
from dpcache.policies import (
    POLICIES,
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


def replay(cache, keys):
    """The (hit, evicted key) stream of an engine or an oracle."""
    return [cache.fetch(key) for key in keys]


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
        before = [[row[:] for row in rows] for rows in eng.store.rows]
        assert eng.fetch(1)[0] and eng.store.rows == before

    def test_eviction_order_is_insertion_order(self):
        eng = make_engine("fifo", LayoutConfig(k=4, d=1))
        oracle = QueueFifo(4, 1)
        keys = [1, 2, 3, 4, 5]
        assert replay(eng, keys) == replay(oracle, keys)
        assert replay(eng, [6])[0] == (False, 2)

    @pytest.mark.parametrize("k,d", [(1, 1), (2, 2), (4, 3)])
    def test_matches_queue_oracle(self, k, d):
        eng = make_engine("fifo", LayoutConfig(k=k, d=d))
        oracle = QueueFifo(k, d)
        keys = random_trace(11, 3000, universe=4 * k * d)
        assert replay(eng, keys) == replay(oracle, keys)


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
        assert eng.fetch(5) == (False, None)
        assert eng.dump()[0][0] == (5, 1)

    def test_least_recent_evicted(self):
        eng = make_engine("lru", LayoutConfig(k=3, d=1))
        results = replay(eng, [1, 2, 3, 1, 4])
        assert results[-1] == (False, 2)

    def test_clock_advances_once_per_fetch(self):
        eng = make_engine("lru", LayoutConfig(k=2, d=1))
        for i, key in enumerate([1, 2, 1, 1, 3], start=1):
            eng.fetch(key)
            assert eng.clock == i
        scns = [scn for row in eng.dump() for key, scn in row if key]
        assert all(s <= eng.clock for s in scns)

    @pytest.mark.parametrize("k,d", [(1, 1), (2, 1), (3, 2), (8, 4)])
    def test_matches_list_oracle(self, k, d):
        eng = make_engine("lru", LayoutConfig(k=k, d=d))
        oracle = ListLru(k, d)
        keys = random_trace(id(self) % 1000, 3000, universe=4 * k * d)
        assert replay(eng, keys) == replay(oracle, keys)

    def test_rescaling_preserves_exactness(self):
        # 6-bit SCN clock overflows every ~60 fetches; order must survive
        lay = LayoutConfig(scn_bits=6, k=3, d=2)
        eng = checked(make_engine("lru", lay))
        oracle = ListLru(3, 2)
        keys = random_trace(99, 5000, universe=20)
        assert replay(eng, keys) == replay(oracle, keys)
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
        assert eng.dump()[0][0][1] == 1

    def test_aging_floors_hot_key_rival(self):
        eng = make_engine("lfu", LayoutConfig(k=2, d=1))
        results = replay(eng, [1, 2] + [2] * 40 + [3])
        assert results[-1] == (False, 1)

    def test_count_saturates(self):
        lay = LayoutConfig(scn_bits=3, k=2, d=1)
        eng = make_engine("lfu", lay)
        replay(eng, [1] * 20)
        assert eng.dump()[0][0][1] == 7

    def test_matches_counter_oracle(self):
        # tie-free sequence: the fold's positional tie-break never engages,
        # so the counter oracle pins the full outcome stream
        eng = make_engine("lfu", LayoutConfig(k=2, d=1))
        oracle = AgedCounterLfu(2, 1)
        keys = [1, 1, 2, 2, 2, 3, 2, 2, 3, 4]
        assert replay(eng, keys) == replay(oracle, keys)

    def test_reference_gap_on_desk_trace(self, desk_trace):
        eng = make_engine("lfu", LayoutConfig(k=8, d=16))
        hits = sum(1 for key in desk_trace.keys if eng.fetch(key)[0])
        ref = ReferenceCache("lfu", 8, 16)
        ref_hits = sum(1 for key in desk_trace.keys if ref.fetch(key)[0])
        gap = abs(hits - ref_hits) / len(desk_trace.keys) * 100
        assert gap <= 4.0, f"restricted vs reference LFU gap {gap:.2f} points"


# ---------------------------------------------------------------------------
# shared engine behaviour
# ---------------------------------------------------------------------------


class TestBacking:
    """Keys wider than the value field: no value is stored or read."""

    def test_identity_default(self):
        eng = make_engine("lru", LayoutConfig(k=2, d=1))
        assert eng.fetch(7) == (False, None)
        assert eng.fetch(7) == (True, None)

    def test_truncation(self):
        # a key wider than the value field hits and evicts like any other
        for policy in ["fifo", "lru", "lfu", "hyperbolic"]:
            eng = make_engine(policy, LayoutConfig(key_bits=16, value_bits=8, k=2, d=1))
            assert eng.fetch(0x1234) == (False, None)
            assert eng.fetch(0x1234) == (True, None)
            assert eng.dump()[0][0][0] == 0x1234
            assert eng.fetch(0x2345) == (False, None)
            hit, evicted = eng.fetch(0x3456)
            assert not hit and evicted in (0x1234, 0x2345)

        # two regions of one way each: key 1 is admitted to main and later
        # displaced by 2; 3 is denied admission against the twice-hit 2
        cache = MultiRegionCache(RegionSpec("fifo", 1, 1), RegionSpec("lru", 1, 1), 100)
        evicted = []
        for key in [1, 2, 3, 2, 2, 4]:
            _, out = cache.fetch(key)
            if out is not None:
                evicted.append(out)
        assert evicted == [1, 3]


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
        assert eng.fetch(3)[0]
        assert (counter.tcam_matches, counter.register_reads,
                counter.register_writes) == (1, 1, 1)

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_miss_within_fold_budget(self, policy):
        # at the default 32-bit SCN width, which the narrow-width test below
        # does not run: one lookup, the set read and write, and 2k fold steps
        k = 4
        counter = OpCounter()
        eng = make_engine(policy, LayoutConfig(k=k, d=2), counter=counter)
        for key in [1, 3, 5, 7, 9, 11]:
            counter.reset()
            assert not eng.fetch(key)[0]
            assert (counter.tcam_matches, counter.register_reads,
                    counter.register_writes) == (1, 1 + 2 * k, 1 + 2 * k)

    # SCN widths narrow enough that LRU rescales, LFU counts saturate and
    # hyperbolic halves its insert times within the trace
    NARROW_SCN_BITS = {"fifo": 4, "lru": 4, "lfu": 3, "hyperbolic": 6}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_exact_hit_and_miss_costs(self, policy):
        # a miss: one lookup, the set read and write, and 2k fold/insert reads
        # and writes; a hit: one lookup, one read and one write, also where it
        # writes its SCN back unchanged (FIFO, a saturated count)
        k = 4
        counter = OpCounter()
        eng = checked(make_engine(policy, LayoutConfig(scn_bits=self.NARROW_SCN_BITS[policy],
                                                       k=k, d=2), counter=counter))
        clocks, misses = [], 0
        rng = random.Random(19)
        # keys in [1, 24], skewed towards 1 so that hot counts saturate
        for key in [1 + int(24 * rng.random() ** 3) for _ in range(600)]:
            counter.reset()
            if eng.fetch(key)[0]:
                cost = (1, 1, 1)
            else:
                misses += 1
                cost = (1, 1 + 2 * k, 1 + 2 * k)
            assert (counter.tcam_matches, counter.register_reads, counter.register_writes) == cost
            clocks.append(getattr(eng, "tick", getattr(eng, "clock", 0)))
        assert_written(eng)
        assert 100 < misses < 500
        assert (eng.store.unchanged_writes > 10) == (policy != "lru")
        if policy in ("lru", "hyperbolic"):
            assert any(b < a for a, b in zip(clocks, clocks[1:])), "no maintenance sweep ran"

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


class TestAdmit:
    """``admit(h, key, rejects)`` is every miss: ``fetch`` calls it with no
    ``rejects``, and a two-region cache's main region with its contest."""

    K = 4

    def full_set(self, policy):
        # keys 2, 4, 6 and 8 fill set 0; hits on 2 and 6 spread the SCNs
        counter = OpCounter()
        eng = checked(make_engine(policy, LayoutConfig(k=self.K, d=2), counter=counter))
        for key in [2, 4, 6, 8, 2, 6]:
            eng.fetch(key)
        return eng, counter

    @pytest.mark.parametrize("policy", POLICIES)
    def test_refusal_puts_the_fold_victim_back_at_way_0(self, policy):
        k = self.K
        eng, counter = self.full_set(policy)
        twin = eng.clone()
        victim = twin.fetch(10)[1]  # the key an accepting miss evicts
        before = eng.live_keys()
        asked = []

        def refuse(candidate, incumbent):
            asked.append((candidate, incumbent))
            return True

        counter.reset()
        assert eng.admit(0, 10, refuse) == 10
        assert asked == [(10, victim)]
        assert (counter.tcam_matches, counter.register_reads,
                counter.register_writes) == (0, 1 + 2 * k, 1 + 2 * k)
        assert_written(eng)
        assert eng.live_keys() == before
        assert eng.store.members[0] == set(eng.store.rows[0][0]) - {0}
        ways, folded = eng.store.peek_set(0), twin.store.peek_set(0)
        # the fold ran as on the accepting miss; only way 0 holds the victim
        assert ways[0][0] == victim and ways[1:] == folded[1:]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_acceptance_is_the_fetch_miss(self, policy):
        eng, _ = self.full_set(policy)
        twin = eng.clone()
        expected = twin.fetch(10)[1]
        assert expected is not None
        assert eng.admit(0, 10, lambda candidate, incumbent: False) == expected
        assert_written(eng)
        assert eng.dump() == twin.dump()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_an_empty_way_asks_nothing(self, policy):
        eng, _ = self.full_set(policy)

        def refuse(candidate, incumbent):
            raise AssertionError("no live key left the set")

        assert eng.admit(1, 1, refuse) is None
        assert 1 in eng.live_keys()


class TestHitPathIsolation:
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_hit_touches_only_the_hit_elements_scn(self, policy):
        eng = make_engine(policy, LayoutConfig(k=3, d=1))
        for key in [1, 2, 3]:
            eng.fetch(key)
        before = eng.dump()[0]
        way = next(i for i, (key, _) in enumerate(before) if key == 2)
        assert eng.fetch(2)[0]
        after = eng.dump()[0]
        for i, (a, b) in enumerate(zip(before, after)):
            if i == way:
                assert a[0] == b[0]
                assert a[1] != b[1]
            else:
                assert a == b


class TestFetchResultInvariants:
    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_at_most_one_departure_per_fetch(self, policy):
        eng = make_engine(policy, LayoutConfig(k=3, d=2))
        previous = set()
        for key in random_trace(5, 2000, universe=40):
            hit, evicted = eng.fetch(key)
            live = eng.live_keys()
            departed = previous - live
            assert len(departed) <= 1
            if hit:
                assert evicted is None and departed == set()
            elif evicted is not None:
                assert departed == {evicted}
            else:
                assert departed == set()
            previous = live

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_result_agrees_with_live_keys(self, data):
        # 3- to 5-bit SCN words under skewed keys: the LRU clock rescales,
        # LFU counts saturate and the hyperbolic tick halves
        scn_bits = data.draw(st.integers(3, 5), label="scn_bits")
        regions = [RegionSpec(data.draw(st.sampled_from(POLICIES), label="policy"),
                              data.draw(st.integers(1, 4), label="k"),
                              data.draw(st.integers(1, 3), label="d"))
                   for _ in range(data.draw(st.sampled_from([1, 2]), label="regions"))]
        capacity = sum(region.capacity for region in regions)
        universe = data.draw(st.integers(capacity + 2, 3 * capacity + 2), label="universe")
        if len(regions) == 1:
            policy, k, d = regions[0].policy, regions[0].k, regions[0].d
            cache = checked(make_engine(policy, LayoutConfig(scn_bits=scn_bits, k=k, d=d)))
            live_keys = cache.live_keys
        else:
            cache = checked(MultiRegionCache(*regions, universe, "tinylfu", scn_bits=scn_bits))

            def live_keys():
                return cache.window.live_keys() | cache.main.live_keys()

        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        before = live_keys()
        for _ in range(60 * capacity):
            key = 1 + int((universe - 2) * rng.random() ** 3)
            hit, evicted = cache.fetch(key)
            after = live_keys()
            assert key in after
            if evicted is not None:
                assert evicted in before and evicted not in after
            assert len(after) - len(before) == (not hit and evicted is None)
            before = after

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu"])
    @pytest.mark.parametrize("scn_bits", [32, 8, 6])
    def test_a_set_with_an_empty_way_evicts_no_live_key(self, policy, scn_bits):
        """A miss on a set with an empty way fills it: FIFO's shift, and LRU's
        and LFU's strict fold over a row where an empty way's 0 is below every
        live SCN, carry the empty way out.

        Hyperbolic is the exception: an empty way scores ``entries[0] -
        entries[tick]``, a frequency-1 way whose quantised lifetime log equals
        the tick's scores the same, and the strict fold keeps the way it
        already carries, which may be the live one.
        """
        rng = random.Random(scn_bits)
        for k, d in [(2, 1), (4, 3), (8, 2), (16, 4)]:
            eng = make_engine(policy, LayoutConfig(scn_bits=scn_bits, k=k, d=d))
            universe = 4 * k * d
            for _ in range(5000):
                key = 1 + int((universe - 1) * rng.random() ** 3)
                had_room = 0 in eng.store.rows[key % d][0]
                _, evicted = eng.fetch(key)
                assert not (had_room and evicted), (k, d, key, evicted)


class TestClockStep:
    """Only ``PolicyEngine`` steps the clock, once per access; a hook names an SCN."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_initial_scn_leaves_the_clock_alone(self, policy):
        # 8-bit SCNs: the LRU clock restarts and the hyperbolic tick halves in the replay
        eng = make_engine(policy, LayoutConfig(scn_bits=8, k=4, d=2))
        for key in random_trace(3, 300, universe=20):
            eng.fetch(key)

        def state():
            return (eng._initial_scn(), getattr(eng, "clock", getattr(eng, "tick", None)),
                    eng.epoch)

        assert state() == state()


class TestPolicyNames:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_engine_and_reference_build_every_name_in_any_case(self, policy):
        for name in (policy, policy.upper()):
            assert make_engine(name, LayoutConfig(k=2, d=2)).fetch(1)[0] is False
            assert ReferenceCache(name, 2, 2).policy == policy

    def test_other_names_are_rejected(self):
        assert POLICIES == ("fifo", "lru", "lfu", "hyperbolic")
        with pytest.raises(ValueError, match="unknown policy 'arc'"):
            make_engine("arc", LayoutConfig(k=2, d=2))
        with pytest.raises(ValueError, match="unknown reference policy 'arc'"):
            ReferenceCache("arc", 2, 2)
