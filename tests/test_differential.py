"""Whole engines against their exact oracles at the edges of the layout.

Random traces replay through restricted FIFO and LRU engines and through
`ReferenceCache`, and through the filterless two-region cache and
`ReferenceMultiCache`; every event's (hit, evicted key) must agree.  The
layouts sit where the restricted model is tightest: ternary masks at exactly
the 2048-bit limit, single-set and multi-set geometry, and SCN clocks narrow
enough that LRU rescales every few ticks to every few hundred.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcache.core import TCAM_MASK_BITS, LayoutConfig, LayoutError
from dpcache.multiregion import MultiRegionCache, MultiRegionConfig, RegionSpec
from dpcache.oracle import ReferenceCache, ReferenceMultiCache
from dpcache.policies import make_engine


def assert_same_stream(engine, oracle, keys):
    for i, key in enumerate(keys):
        r = engine.fetch(key)
        got = (r.hit, r.evicted.key if r.evicted else None)
        assert got == oracle.fetch(key), f"event {i} (key {key}) diverges"


def random_keys(seed, length, lo, hi):
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(length)]


@st.composite
def traces(draw, capacity, key_bits):
    """Uniform keys over a range 1.1x to 3x the capacity, placed anywhere in
    [1, 2**key_bits), so the largest representable key is drawn as well."""
    span = draw(st.integers(capacity + capacity // 10, 3 * capacity), label="span")
    top = (1 << key_bits) - 1
    lo = draw(st.sampled_from([1, top - span + 1]), label="lo")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return random_keys(seed, 5 * capacity + 200, lo, lo + span - 1)


class TestTcamLimit:
    """k * key_bits exactly at the ternary mask limit: 128 ways of 16-bit keys."""

    def test_limit_is_exact(self):
        assert 128 * 16 == TCAM_MASK_BITS
        LayoutConfig(key_bits=16, k=128, d=1)
        with pytest.raises(LayoutError):
            LayoutConfig(key_bits=16, k=129, d=1)

    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    @pytest.mark.parametrize("d", [1, 8])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, policy, d, data):
        keys = data.draw(traces(128 * d, 16), label="keys")
        engine = make_engine(policy, LayoutConfig(key_bits=16, k=128, d=d), check_invariants=True)
        assert_same_stream(engine, ReferenceCache(policy, 128, d), keys)

    def test_eight_bit_keys_fill_256_ways_without_evicting(self):
        # 8-bit keys also reach the limit at k=256, but only keys 1..255 exist
        # (0 marks an empty way), so one set of 256 ways never fills
        engine = make_engine("lru", LayoutConfig(key_bits=8, k=256, d=1))
        keys = list(range(1, 256))
        first = [engine.fetch(key) for key in keys]
        assert not any(r.hit or r.evicted for r in first)
        assert all(engine.fetch(key).hit for key in reversed(keys))


class TestNarrowClock:
    """LRU whose SCN clock wraps often, so rescaling runs all the time."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_eight_bit_clock_at_128_ways(self, data):
        # the clock restarts above <= 128 ranks and wraps at 255: a rescale
        # every ~125 ticks
        keys = data.draw(traces(128, 16), label="keys")
        engine = make_engine("lru", LayoutConfig(key_bits=16, scn_bits=8, k=128, d=1))
        assert_same_stream(engine, ReferenceCache("lru", 128, 1), keys)

    @pytest.mark.parametrize("d", [1, 3])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_three_bit_clock_at_4_ways(self, d, data):
        # max SCN 7 with 4 ways: the clock rescales every 2 to 3 ticks
        keys = data.draw(traces(4 * d, 32), label="keys")
        engine = make_engine("lru", LayoutConfig(scn_bits=3, k=4, d=d), check_invariants=True)
        assert_same_stream(engine, ReferenceCache("lru", 4, d), keys)
        assert engine.clock < 7


class TestTwoRegion:
    """The filterless window + main cache against ``ReferenceMultiCache`` for
    every FIFO/LRU pairing.  At 4- and 5-bit SCNs each LRU region's own clock
    rescales every few to few dozen of its ticks."""

    @pytest.mark.parametrize("window", ["fifo", "lru"])
    @pytest.mark.parametrize("main", ["fifo", "lru"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, window, main, data):
        k_w, d_w = data.draw(st.sampled_from([(1, 1), (2, 1), (4, 2)]), label="window k, d")
        k_m, d_m = data.draw(st.sampled_from([(2, 1), (4, 1), (4, 3), (8, 2)]), label="main k, d")
        scn_bits = data.draw(st.sampled_from([4, 5, 32]), label="scn_bits")
        capacity = k_w * d_w + k_m * d_m
        universe = data.draw(st.integers(capacity + 2, 3 * capacity), label="universe")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        keys = random_keys(seed, 10 * capacity + 400, 1, universe - 1)
        cache = MultiRegionCache(MultiRegionConfig(
            window=RegionSpec(window, k_w, d_w), main=RegionSpec(main, k_m, d_m),
            key_universe=universe, filter="none", scn_bits=scn_bits,
        ), check_invariants=True)
        rescales = {"window": 0, "main": 0}
        for region in rescales:
            store = getattr(cache, region).store
            sweep = store.map_scn

            def counted(remap, _region=region, _sweep=sweep):
                rescales[_region] += 1
                _sweep(remap)

            store.map_scn = counted
        oracle = ReferenceMultiCache(window, main, k_w, d_w, k_m, d_m,
                                     key_universe=universe, use_filter=False)
        assert_same_stream(cache, oracle, keys)
        if scn_bits < 32:
            for region, policy in (("window", window), ("main", main)):
                assert (rescales[region] > 0) == (policy == "lru"), region
