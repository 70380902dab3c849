import random

import pytest

from dpcache.core import OpCounter, StorageError
from dpcache.multiregion import (
    CountingFilter,
    MultiRegionCache,
    MultiRegionConfig,
    RegionSpec,
)
from dpcache.oracle import ReferenceMultiCache


def make_cache(window=("fifo", 2, 1), main=("lru", 2, 1), universe=100,
               filter="tinylfu", **kwargs) -> MultiRegionCache:
    cfg = MultiRegionConfig(
        window=RegionSpec(*window),
        main=RegionSpec(*main),
        key_universe=universe,
        filter=filter,
        **kwargs,
    )
    return MultiRegionCache(cfg)


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
            ref = ReferenceMultiCache(window[0], main[0], *window[1:], *main[1:], key_universe=10)
            assert cache.filter.aging_window == ref.aging_window
            assert cache.filter.counter_cap == ref.counter_cap

    def test_each_region_keeps_one_scn_word_per_element(self):
        cache = make_cache(window=("lru", 2, 4), main=("hyperbolic", 4, 8), scn_bits=12)
        for engine, k in ((cache.window, 2), (cache.main, 4)):
            assert engine.layout.set_width == k * (32 + 32 + 12)
            assert all(len(rows) == 3 for rows in engine.store.rows)
        assert cache.main.log_table.max_scn == 64

    def test_key_outside_universe_rejected(self):
        cache = make_cache(universe=10)
        with pytest.raises(StorageError):
            cache.fetch(10)
        with pytest.raises(StorageError):
            cache.fetch(0)

    def test_miss_serves_the_key(self):
        cache = make_cache(universe=100)
        assert cache.fetch(42) == (False, 42, None)
        assert cache.fetch(42) == (True, 42, None)


class TestCountingFilter:
    def test_step_size_example(self):
        f = CountingFilter(key_universe=100, aging_window=1000, aging_stride=10)
        assert f.step_size == 1

    def test_halving_is_integer_shift(self):
        f = CountingFilter(100, 1000, 10)
        f.counters[0] = 7
        f.age_step()
        assert f.counters[0] == 3

    def test_full_cycle_per_window(self):
        f = CountingFilter(100, 1000, 10)
        for key in range(1, 100):
            f.counters[key] = 64
        for i in range(1000):
            f.record_access(1 + (i % 99))
        # one full halving cycle completed; replay bound from the snapshot
        for key in range(1, 100):
            accesses = len([i for i in range(1000) if 1 + (i % 99) == key])
            assert f.counters[key] <= (64 >> 1) + accesses
        assert f.cursor == 0

    def test_saturation_at_cap(self):
        f = CountingFilter(10, 160, 16, counter_cap=5)
        for _ in range(40):
            f.record_access(3)
        assert f.counters[3] <= 5

    def test_wraparound_slice(self):
        f = CountingFilter(10, 20, 6)  # step = ceil(10*6/20) = 3
        assert f.step_size == 3
        f.counters[:] = 8
        f.cursor = 8
        f.age_step()
        assert list(f.counters) == [4, 8, 8, 8, 8, 8, 8, 8, 4, 4]


class TestAdmission:
    def _primed(self, w_count, m_count):
        # main holds keys 2 (victim-to-be) and 4; window holds 1 and 3;
        # next miss on 5 pushes window victim 1 toward main
        cache = make_cache(window=("fifo", 2, 1), main=("lru", 2, 1), universe=100)
        for key in [2, 4, 1, 3]:
            cache.fetch(key)
        assert cache.main.live_keys() == {2, 4}
        assert cache.window.live_keys() == {1, 3}
        cache.filter.counters[:] = 0
        cache.filter.counters[1] = w_count
        main_victim = 2  # LRU-older of the two main residents
        cache.filter.counters[main_victim] = m_count
        return cache

    def test_window_victim_admitted_on_higher_count(self):
        cache = self._primed(w_count=5, m_count=3)
        result = cache.fetch(5)
        assert result.evicted.key == 2
        assert cache.main.live_keys() == {1, 4}

    def test_window_victim_rejected_on_lower_count(self):
        cache = self._primed(w_count=2, m_count=6)
        before = cache.main.live_keys()
        result = cache.fetch(5)
        assert result.evicted.key == 1
        assert cache.main.live_keys() == before

    def test_tie_admits_window_victim(self):
        # strict > is required to restore the main victim
        cache = self._primed(w_count=4, m_count=4)
        result = cache.fetch(5)
        assert result.evicted.key == 2
        assert cache.main.live_keys() == {1, 4}

    def test_filterless_evicts_main_victim_unconditionally(self):
        cache = make_cache(window=("fifo", 2, 1), main=("lru", 2, 1),
                           universe=100, filter="none")
        assert cache.filter is None
        for key in [2, 4, 1, 3]:
            cache.fetch(key)
        result = cache.fetch(5)
        assert result.evicted.key == 2


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
            r = cache.fetch(key)
            if r.hit:
                live = cache.window.live_keys() | cache.main.live_keys()
                assert key in live

    @pytest.mark.parametrize("window,main", [
        (("fifo", 4, 4), ("lru", 4, 8)),
        (("fifo", 2, 8), ("lru", 8, 4)),
        (("lru", 4, 4), ("lru", 4, 8)),
    ])
    def test_filterless_matches_reference_exactly(self, window, main):
        cache = make_cache(window=window, main=main, universe=400, filter="none")
        ref = ReferenceMultiCache(window[0], main[0], window[1], window[2],
                                  main[1], main[2], key_universe=400,
                                  use_filter=False)
        for key in random_trace(5, 6000, 400):
            assert cache.fetch(key).hit == ref.fetch(key)[0]

    def test_main_lru_rescale_matches_reference_exactly(self):
        # 6-bit SCNs: the main region's LRU clock, kept in the main region's
        # own SCN row, wraps and rescales every few dozen fetches
        cache = make_cache(window=("lru", 2, 4), main=("lru", 4, 4), universe=120,
                           filter="none", scn_bits=6)
        ref = ReferenceMultiCache("lru", "lru", 2, 4, 4, 4, key_universe=120,
                                  use_filter=False)
        rescales = 0
        clock = cache.main.clock
        for key in random_trace(13, 5000, 120):
            result = cache.fetch(key)
            hit, evicted = ref.fetch(key)
            assert result.hit == hit
            assert (result.evicted.key if result.evicted else None) == evicted
            assert cache.main.live_keys() == ref.main.live_keys()
            assert cache.window.live_keys() == ref.window.live_keys()
            rescales += cache.main.clock < clock
            clock = cache.main.clock
        assert rescales > 10

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
            a = with_filter.fetch(key)
            b = without.fetch(key)
            departed = window_before - with_filter.window.live_keys()
            if not a.hit and departed:
                victim = departed.pop()
                contended = sum(1 for x in main_before if x % d == victim % d) == k
                if (contended and a.evicted is not None and a.evicted.key == victim
                        and b.evicted is not None and b.evicted.key != victim
                        and b.evicted.key in unfiltered_main_before):
                    rejected.append(step)
            if state_split is None and (
                    with_filter.window.live_keys() != without.window.live_keys()
                    or with_filter.main.live_keys() != without.main.live_keys()):
                state_split = step
            if a.hit != b.hit:
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
                h for h, word in enumerate(with_filter.main.store.sets)
                if all(with_filter.main.store.decode_set(word)[0])
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
    def test_main_hit_costs_two_tcam_one_rw(self):
        cache = make_cache(window=("fifo", 2, 1), main=("lru", 2, 1), universe=100)
        for key in [2, 4, 1, 3]:
            cache.fetch(key)
        assert 2 in cache.main.live_keys()
        cache.counter.reset()
        r = cache.fetch(2)
        assert r.hit
        c = cache.counter
        assert (c.tcam_matches, c.register_reads, c.register_writes) == (2, 1, 1)
        assert c.extra_reads >= 1 and c.extra_writes >= 1  # filter counter

    def test_window_hit_costs_two_tcam_one_rw(self):
        cache = make_cache(window=("fifo", 2, 1), main=("lru", 2, 1), universe=100)
        cache.fetch(7)
        cache.counter.reset()
        r = cache.fetch(7)
        assert r.hit
        c = cache.counter
        assert (c.tcam_matches, c.register_reads, c.register_writes) == (2, 1, 1)

    def test_miss_stays_within_composite_budget(self):
        k_w, k_m = 2, 3
        cache = make_cache(window=("fifo", k_w, 2), main=("lru", k_m, 2),
                           universe=100)
        budget = 2 + 2 * k_w + 2 * k_m
        for key in random_trace(7, 400, 100):
            cache.counter.reset()
            r = cache.fetch(key)
            c = cache.counter
            if not r.hit:
                assert c.tcam_matches == 2
                assert c.register_reads <= budget
                assert c.register_writes <= budget

    def test_shared_counter_across_regions(self):
        counter = OpCounter()
        cfg = MultiRegionConfig(window=RegionSpec("fifo", 2, 1),
                                main=RegionSpec("lru", 2, 1), key_universe=50)
        cache = MultiRegionCache(cfg, counter=counter)
        cache.fetch(1)
        assert counter.tcam_matches == 2
