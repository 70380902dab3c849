import random

import numpy as np
import pytest

from checked import assert_written, checked, stores
from dpcache.core import StorageError
from dpcache.multiregion import (
    COUNTER_CAP,
    CountingFilter,
    MultiRegionCache,
    RegionSpec,
)
from dpcache.oracle import ReferenceMultiCache


def make_cache(window=("fifo", 2, 1), main=("lru", 2, 1), universe=100,
               filter="tinylfu", **kwargs) -> MultiRegionCache:
    return MultiRegionCache(RegionSpec(*window), RegionSpec(*main), universe, filter, **kwargs)


def random_trace(seed, length, universe):
    rng = random.Random(seed)
    return [rng.randint(1, universe - 1) for _ in range(length)]


class TestConfig:
    def test_default_window_is_16x_capacity(self):
        cache = make_cache(window=("fifo", 4, 16), main=("lru", 16, 16), universe=10)
        assert cache.filter.aging_window == 16 * (64 + 256)
        assert (cache.filter.aging_stride, cache.filter.counter_cap) == (16, 2**15 - 1)

    def test_reference_composition_ages_alike(self):
        # c05 compares the two schemes' admission behaviour, so both must
        # read the same epoch length and counter cap for one geometry
        for window, main in [(("fifo", 4, 16), ("lru", 16, 16)), (("lru", 1, 1), ("lru", 1, 1))]:
            cache = make_cache(window=window, main=main, universe=10)
            ref = ReferenceMultiCache(RegionSpec(*window), RegionSpec(*main), 10)
            assert cache.filter.aging_window == ref.filter.aging_window
            assert cache.filter.counter_cap == ref.filter.counter_cap

    @pytest.mark.parametrize("build", [MultiRegionCache, ReferenceMultiCache])
    @pytest.mark.parametrize("universe, filter, key, message", [
        (100, "bogus", 1, "^unknown filter 'bogus'$"),
        (1, "none", 1, "^key_universe must cover at least one live key$"),
        (100, "tinylfu", 0, r"^key 0 outside universe \[1, 100\)$"),
        (100, "tinylfu", 100, r"^key 100 outside universe \[1, 100\)$"),
    ], ids=["filter", "universe", "key-0", "key-universe"])
    def test_both_compositions_reject_the_same_input(self, build, universe, filter, key, message):
        # a bad filter or universe fails the build; a key outside [1, universe) the fetch
        with pytest.raises(ValueError, match=message):
            build(RegionSpec("lru", 2, 1), RegionSpec("lru", 2, 1), universe, filter).fetch(key)

    def test_each_region_keeps_one_scn_word_per_element(self):
        cache = make_cache(window=("lru", 2, 4), main=("hyperbolic", 4, 8), scn_bits=12)
        for engine, k in ((cache.window, 2), (cache.main, 4)):
            assert engine.layout.set_width == k * (32 + 32 + 12)
            assert all(len(rows) == 2 for rows in engine.store.rows)
        assert cache.main.log_table.max_scn == 64

    def test_key_outside_universe_rejected(self):
        cache = make_cache(universe=10)
        with pytest.raises(StorageError):
            cache.fetch(10)
        with pytest.raises(StorageError):
            cache.fetch(0)

    def test_miss_serves_the_key(self):
        cache = make_cache(universe=100)
        assert cache.fetch(42) == (False, None)
        assert cache.fetch(42) == (True, None)
        # the window holds the key
        cached = [key for key, _ in cache.window.dump()[42 % cache.window.d] if key == 42]
        assert cached == [42]


class TestCountingFilter:
    def test_step_size_example(self):
        f = CountingFilter(key_universe=100, aging_window=1600)
        assert f.step_size == 1

    def test_halving_is_integer_shift(self):
        f = CountingFilter(100, 1600)
        f.counters[0] = 7
        f.age_step()
        assert f.counters[0] == 3

    def test_full_cycle_per_window(self):
        f = CountingFilter(100, 1600)
        for key in range(1, 100):
            f.counters[key] = 64
        for i in range(1600):
            f.record_access(1 + (i % 99))
        # one full halving cycle completed; replay bound from the snapshot
        for key in range(1, 100):
            accesses = len([i for i in range(1600) if 1 + (i % 99) == key])
            assert f.counters[key] <= (64 >> 1) + accesses
        assert f.cursor == 0

    def test_saturation_at_cap(self):
        f = CountingFilter(10, 160)  # halves counters 0 and 1 in 40 accesses
        f.counters[3] = COUNTER_CAP - 1
        for _ in range(40):
            f.record_access(3)
        assert f.counters[3] == COUNTER_CAP

    def test_per_packet_path_shares_the_counter_array(self):
        # record_access and count work on the buffer of ``counters``: writes
        # to the array are seen, both return plain ints, and the cap and the
        # slice halving show through either side
        cap, half = COUNTER_CAP, COUNTER_CAP >> 1
        f = CountingFilter(10, 60)  # halves 3 counters per 16 accesses
        f.counters[3] = cap - 1
        assert f.count(3) == cap - 1 and type(f.count(3)) is int
        f.record_access(3)
        assert f.counters[3] == cap
        f.record_access(np.int64(3))
        assert f.counters[3] == cap and f.count(3) == cap  # saturated at the cap
        f.counters[:] = cap
        f.age_step()  # cursor 0: halves counters 0..2
        assert [f.count(key) for key in range(10)] == [half] * 3 + [cap] * 7
        for _ in range(14):
            f.record_access(7)  # at the cap: no increment; the 16th access halves 3..5
        assert type(f.count(7)) is int and f.count(7) == cap
        assert list(f.counters) == [half] * 6 + [cap] * 4

    def test_batch_schedule_halves_every_counter_on_the_window_access(self):
        f = CountingFilter(10, 60, stride=60)
        assert (f.step_size, f.key_universe) == (10, 10)
        f.counters[:] = counts = [8] * 10
        for i in range(59):
            f.record_access(1 + i % 9)
            counts[1 + i % 9] += 1
        assert list(f.counters) == counts and f.cursor == 0
        f.record_access(3)  # the 60th access halves all 10 counters at once
        counts[3] += 1
        assert list(f.counters) == [c >> 1 for c in counts] and f.cursor == 0

    def test_window_shorter_than_the_stride_rejected(self):
        with pytest.raises(ValueError, match="aging stride 16$"):
            CountingFilter(10, 15)
        with pytest.raises(ValueError, match="aging stride 60$"):
            CountingFilter(10, 59, stride=60)

    def test_wraparound_slice(self):
        f = CountingFilter(10, 60)  # step = ceil(10*16/60) = 3
        assert f.step_size == 3
        f.counters[:] = 8
        f.cursor = 8
        f.age_step()
        assert list(f.counters) == [4, 8, 8, 8, 8, 8, 8, 8, 4, 4]


class TestAdmission:
    def _primed(self, w_count, m_count, main="lru", build=make_cache):
        # main holds keys 2 (victim-to-be) and 4; window holds 1 and 3;
        # next miss on 5 pushes window victim 1 toward main
        cache = build(window=("fifo", 2, 1), main=(main, 2, 1), universe=100)
        for key in [2, 4, 1, 3]:
            cache.fetch(key)
        assert cache.main.live_keys() == {2, 4}
        assert cache.window.live_keys() == {1, 3}
        cache.filter.counters[:] = 0
        cache.filter.counters[1] = w_count
        main_victim = 2  # the older of the two main residents
        cache.filter.counters[main_victim] = m_count
        return cache

    def test_window_victim_admitted_on_higher_count(self):
        cache = self._primed(w_count=5, m_count=3)
        assert cache.fetch(5) == (False, 2)
        assert cache.main.live_keys() == {1, 4}

    def test_window_victim_rejected_on_lower_count(self):
        cache = self._primed(w_count=2, m_count=6)
        before = cache.main.live_keys()
        assert cache.fetch(5) == (False, 1)
        assert cache.main.live_keys() == before

    def test_tie_admits_window_victim(self):
        # strict > is required to restore the main victim
        cache = self._primed(w_count=4, m_count=4)
        assert cache.fetch(5) == (False, 2)
        assert cache.main.live_keys() == {1, 4}

    def test_denied_admission_puts_a_fifo_victim_at_the_newest_way(self):
        # the fold's victim is put back at way 0, which in a FIFO main is the
        # newest slot: the reference keeps key 2 oldest, the restricted cache
        # makes key 4 the oldest, so the next admitted key evicts another key
        def reference(window, main, universe):
            return ReferenceMultiCache(RegionSpec(*window), RegionSpec(*main), universe)

        cache = self._primed(w_count=2, m_count=6, main="fifo")
        ref = self._primed(w_count=2, m_count=6, main="fifo", build=reference)
        assert [key for key, _ in cache.main.dump()[0]] == [4, 2]
        assert cache.fetch(5) == ref.fetch(5) == (False, 1)
        assert [key for key, _ in cache.main.dump()[0]] == [2, 4]
        assert list(ref.main.sets[0]) == [2, 4]  # oldest first
        for flt in (cache.filter, ref.filter):
            flt.counters[3] = 9  # window victim 3 wins the next contest
        assert cache.fetch(6) == (False, 4)
        assert ref.fetch(6) == (False, 2)

    def test_filterless_evicts_main_victim_unconditionally(self):
        cache = make_cache(window=("fifo", 2, 1), main=("lru", 2, 1),
                           universe=100, filter="none")
        assert cache.filter is None
        for key in [2, 4, 1, 3]:
            cache.fetch(key)
        assert cache.fetch(5) == (False, 2)


class TestComposition:
    @pytest.mark.parametrize("window,main", [
        (("fifo", 2, 2), ("lru", 3, 2)),
        (("lru", 2, 1), ("lru", 4, 2)),
        (("fifo", 1, 3), ("lfu", 2, 2)),
        (("fifo", 2, 2), ("hyperbolic", 2, 2)),
    ])
    def test_membership_disjoint_and_bounded(self, window, main):
        cache = make_cache(window=window, main=main, universe=60)
        capacity = window[1] * window[2] + main[1] * main[2]
        for key in random_trace(3, 2500, 60):
            cache.fetch(key)
            w, m = cache.window.live_keys(), cache.main.live_keys()
            assert not w & m
            assert len(w) + len(m) <= capacity

    def test_exactly_one_region_serves_a_hit(self):
        cache = make_cache(universe=50)
        for key in random_trace(4, 800, 50):
            if cache.fetch(key)[0]:
                live = cache.window.live_keys() | cache.main.live_keys()
                assert key in live

    @pytest.mark.parametrize("window,main", [
        (("fifo", 4, 4), ("lru", 4, 8)),
        (("fifo", 2, 8), ("lru", 8, 4)),
        (("lru", 4, 4), ("lru", 4, 8)),
    ])
    def test_filterless_matches_reference_exactly(self, window, main):
        cache = make_cache(window=window, main=main, universe=400, filter="none")
        ref = ReferenceMultiCache(RegionSpec(*window), RegionSpec(*main), 400, "none")
        for key in random_trace(5, 6000, 400):
            assert cache.fetch(key)[0] == ref.fetch(key)[0]

    def test_main_lru_rescale_matches_reference_exactly(self):
        # 6-bit SCNs: the main region's LRU clock, kept in the main region's
        # own SCN row, wraps and rescales every few dozen fetches
        cache = make_cache(window=("lru", 2, 4), main=("lru", 4, 4), universe=120,
                           filter="none", scn_bits=6)
        ref = ReferenceMultiCache(RegionSpec("lru", 2, 4), RegionSpec("lru", 4, 4), 120, "none")
        rescales = 0
        clock = cache.main.clock
        for key in random_trace(13, 5000, 120):
            assert cache.fetch(key) == ref.fetch(key)
            assert cache.main.live_keys() == ref.main.live_keys()
            assert cache.window.live_keys() == ref.window.live_keys()
            rescales += cache.main.clock < clock
            clock = cache.main.clock
        assert rescales > 10

    def test_a_hyperbolic_main_ticks_only_on_the_fetches_that_reach_it(self):
        # the restricted main region ticks in its own serve_hit and admit; the
        # reference composition ticks both regions on every fetch
        regions = RegionSpec("lru", 2, 4), RegionSpec("hyperbolic", 4, 4)
        cache = MultiRegionCache(*regions, 120, "none")
        ref = ReferenceMultiCache(*regions, 120, "none")
        main, window = cache.main, cache.window
        trace = random_trace(14, 1500, 120)
        reached = 0
        for step, key in enumerate(trace, 1):
            tick, main_before, window_before = main.tick, main.live_keys(), window.live_keys()
            cache.fetch(key)
            ref.fetch(key)
            # a main hit, or a window victim handed to the main region's admit
            reaches = key in main_before or bool(window_before - window.live_keys())
            assert main.tick - tick == reaches, f"event {step} (key {key})"
            assert ref.main.seq == step
            reached += reaches
        assert main.tick == reached < len(trace)

    def test_filter_divergence_starts_at_contended_admission(self):
        # with and without the filter, behaviour can first differ only after
        # the filter rejected a window victim that met a full main set
        trace = random_trace(6, 4000, 120)
        with_filter = make_cache(window=("fifo", 2, 2), main=("lru", 2, 2),
                                 universe=120, filter="tinylfu")
        without = make_cache(window=("fifo", 2, 2), main=("lru", 2, 2),
                             universe=120, filter="none")
        d, k = with_filter.main.layout.d, with_filter.main.layout.k
        rejected = []
        state_split = outcome_split = None
        for step, key in enumerate(trace):
            window_before = with_filter.window.live_keys()
            main_before = with_filter.main.live_keys()
            unfiltered_main_before = without.main.live_keys()
            a_hit, a_evicted = with_filter.fetch(key)
            b_hit, b_evicted = without.fetch(key)
            departed = window_before - with_filter.window.live_keys()
            if not a_hit and departed:
                victim = departed.pop()
                contended = sum(1 for x in main_before if x % d == victim % d) == k
                if (contended and a_evicted == victim
                        and b_evicted is not None and b_evicted != victim
                        and b_evicted in unfiltered_main_before):
                    rejected.append(step)
            if state_split is None and (
                    with_filter.window.live_keys() != without.window.live_keys()
                    or with_filter.main.live_keys() != without.main.live_keys()):
                state_split = step
            if a_hit != b_hit:
                outcome_split = step
                break
        assert outcome_split is not None, "the seeded trace no longer diverges"
        # the first rejected contended admission is what splits the states,
        # and it comes strictly before the first different outcome
        assert rejected and rejected[0] == state_split < outcome_split

    def test_first_state_divergence_is_a_filtered_admission(self):
        trace = random_trace(9, 4000, 120)
        with_filter = make_cache(window=("fifo", 2, 2), main=("lru", 2, 2),
                                 universe=120, filter="tinylfu")
        without = make_cache(window=("fifo", 2, 2), main=("lru", 2, 2),
                             universe=120, filter="none")
        for key in trace:
            full_sets = {
                h for h, (keys, _) in enumerate(with_filter.main.store.rows)
                if all(keys)
            }
            window_before = with_filter.window.live_keys()
            with_filter.fetch(key)
            without.fetch(key)
            same = (with_filter.window.live_keys() == without.window.live_keys()
                    and with_filter.main.live_keys() == without.main.live_keys())
            if not same:
                # the step produced a window victim aimed at a full main set
                departed = window_before - with_filter.window.live_keys()
                assert departed, "divergence without a window eviction"
                victim = departed.pop()
                assert victim % with_filter.main.layout.d in full_sets
                return
        pytest.skip("no divergence in this trace")


class TestMultiOpAccounting:
    # (window, main, universe, scn_bits): both regions of one policy at SCN
    # widths narrow enough that LRU rescales, LFU counts saturate and
    # hyperbolic halves in the trace, and a FIFO window before an LRU main
    # region of another width at 32-bit SCNs
    SHAPES = [pytest.param((policy, 2, 2), (policy, 4, 2), 40, scn_bits, id=f"{policy}-{scn_bits}")
              for policy, scn_bits in [("fifo", 4), ("lru", 4), ("lfu", 3), ("hyperbolic", 6)]]
    SHAPES.append(pytest.param(("fifo", 2, 2), ("lru", 3, 2), 100, 32, id="fifo-lru-32"))

    @pytest.mark.parametrize("flt", ["none", "tinylfu"])
    @pytest.mark.parametrize("window, main, universe, scn_bits", SHAPES)
    def test_exact_hit_and_miss_costs(self, window, main, universe, scn_bits, flt):
        # a miss: the window's set read and write with its 2k_w fold steps,
        # and the main region's when a window victim contends; a hit in
        # either region: two lookups, one read and one write, also where it
        # writes its SCN back unchanged (FIFO, a saturated count); with the
        # filter, every packet also reads and writes a counter
        k_w, k_m = window[1], main[1]
        cache = checked(make_cache(window=window, main=main, universe=universe, filter=flt,
                                   scn_bits=scn_bits))
        contests = 0
        hits = {"window": 0, "main": 0}
        clocks = []
        rng = random.Random(23)
        # skewed towards key 1, so that hot counts saturate
        for key in [1 + int((universe - 1) * rng.random() ** 3) for _ in range(800)]:
            before = cache.window.live_keys()
            cache.counter.reset()
            hit = cache.fetch(key)[0]
            c = cache.counter
            if flt == "tinylfu":
                assert c.extra_reads >= 1 and c.extra_writes >= 1
            clocks.append(getattr(cache.main, "tick", getattr(cache.main, "clock", 0)))
            if hit:
                hits["window" if key in before else "main"] += 1
                assert (c.tcam_matches, c.register_reads, c.register_writes) == (2, 1, 1)
                continue
            cost = 1 + 2 * k_w
            if before - cache.window.live_keys():
                contests += 1  # a key left the window for the main region
                cost += 1 + 2 * k_m
            assert (c.tcam_matches, c.register_reads, c.register_writes) == (2, cost, cost)
        assert_written(cache)
        assert contests > 100
        assert all(hits.values()), hits
        unchanged = sum(store.unchanged_writes for store in stores(cache))
        assert (unchanged > 10) == (window[0] != "lru")
        if main[0] in ("lru", "hyperbolic") and scn_bits < 32:
            assert any(b < a for a, b in zip(clocks, clocks[1:])), "no maintenance sweep ran"

    def test_shared_counter_across_regions(self):
        cache = MultiRegionCache(RegionSpec("fifo", 2, 1), RegionSpec("lru", 2, 1), 50)
        counter = cache.counter
        assert cache.window.store.counter is counter and cache.main.store.counter is counter
        assert cache.filter.ops is counter
        cache.fetch(1)
        assert counter.tcam_matches == 2
