"""Whole engines against their exact oracles at the edges of the layout.

Random traces replay through restricted FIFO and LRU engines and through
`ReferenceCache`, and through the two-region cache and `ReferenceMultiCache`,
filtered with an LRU main region and filterless otherwise; every event's
(hit, evicted key) must agree, and for single-region FIFO and LRU the set
each event touched must map onto the reference's set.  The layouts sit
where the restricted model is tightest: ternary masks at exactly the
2048-bit limit, single-set and multi-set geometry, and SCN clocks narrow
enough that LRU rescales every few ticks to every few hundred.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import assert_written, checked
from dpcache.core import TCAM_MASK_BITS, LayoutConfig, LayoutError
from dpcache.multiregion import CountingFilter, MultiRegionCache, RegionSpec
from dpcache.oracle import ReferenceCache, ReferenceMultiCache
from dpcache.policies import make_engine
from dpcache.traces import ZipfSpec, generate_zipf


def sliced_reference(window, main, universe, flt):
    """``ReferenceMultiCache`` with its filter, if any, on the restricted
    cache's sliced aging schedule in place of the batch one."""
    oracle = ReferenceMultiCache(window, main, universe, flt)
    if oracle.filter is not None:
        oracle.filter = CountingFilter(universe, oracle.filter.aging_window)
    return oracle


def assert_same_stream(engine, oracle, keys):
    for i, key in enumerate(keys):
        assert engine.fetch(key) == oracle.fetch(key), f"event {i} (key {key}) diverges"


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
        engine = checked(make_engine(policy, LayoutConfig(key_bits=16, k=128, d=d)))
        assert_same_stream(engine, ReferenceCache(policy, 128, d), keys)
        assert_written(engine)

    def test_eight_bit_keys_fill_256_ways_without_evicting(self):
        # 8-bit keys also reach the limit at k=256, but only keys 1..255 exist
        # (0 marks an empty way), so one set of 256 ways never fills
        engine = make_engine("lru", LayoutConfig(key_bits=8, k=256, d=1))
        keys = list(range(1, 256))
        first = [engine.fetch(key) for key in keys]
        assert all(r == (False, None) for r in first)
        assert all(engine.fetch(key)[0] for key in reversed(keys))


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
        engine = checked(make_engine("lru", LayoutConfig(scn_bits=3, k=4, d=d)))
        assert_same_stream(engine, ReferenceCache("lru", 4, d), keys)
        assert_written(engine)
        assert engine.clock < 7


class TestRefinement:
    """The state of restricted FIFO and LRU, mapped onto the reference's sets.

    After every event, only the set just touched is mapped, so the check is
    O(k) per event: LRU's live keys sorted by SCN, and FIFO's live ways in
    reverse (way 0 holds the newest key), must both list the reference set's
    keys, oldest first.  LRU runs at the narrowest SCN width it accepts for
    each k, where its clock restarts every few ticks, and at 32 bits.
    """

    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("narrow", [True, False])
    def test_touched_set_maps_to_reference(self, policy, k, d, narrow):
        # the narrowest clock an LRU engine accepts: max SCN above k + 2
        scn_bits = (k + 3).bit_length() if narrow else 32
        engine = make_engine(policy, LayoutConfig(scn_bits=scn_bits, k=k, d=d))
        reference = ReferenceCache(policy, k, d)
        keys = random_keys(k * 100 + d * 10 + scn_bits, 2000, 1, 2 * k * d + 1)
        for i, key in enumerate(keys):
            assert engine.fetch(key) == reference.fetch(key), f"event {i} (key {key}) diverges"
            h = key % d
            ways = engine.store.peek_set(h)
            if policy == "lru":
                mapped = [key for key, scn in sorted(ways, key=lambda way: way[1]) if key]
            else:
                mapped = [key for key, _ in reversed(ways) if key]
            assert mapped == list(reference.sets[h]), f"event {i} (key {key}): set {h} maps apart"
        if policy == "lru" and narrow:
            assert engine.epoch > 10  # the clock restarted over and over


class TestTwoRegion:
    """The window + main cache against ``ReferenceMultiCache`` for every
    FIFO/LRU pairing.  At 4- and 5-bit SCNs each LRU region's own clock
    rescales every few to few dozen of its ticks.

    With an LRU main the filtered cache is drawn too, against a reference
    whose filter ages on the restricted cache's sliced schedule.  FIFO mains
    run filterless only: a denied admission puts the main victim back at way
    0, the newest slot of a FIFO main, where the reference keeps it oldest
    (``TestAdmission`` in ``test_multiregion.py``)."""

    @pytest.mark.parametrize("window", ["fifo", "lru"])
    @pytest.mark.parametrize("main", ["fifo", "lru"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, window, main, data):
        flt = data.draw(st.sampled_from(["none", "tinylfu"] if main == "lru" else ["none"]),
                        label="filter")
        k_w, d_w = data.draw(st.sampled_from([(1, 1), (2, 1), (4, 2)]), label="window k, d")
        k_m, d_m = data.draw(st.sampled_from([(2, 1), (4, 1), (4, 3), (8, 2)]), label="main k, d")
        scn_bits = data.draw(st.sampled_from([4, 5, 32]), label="scn_bits")
        capacity = k_w * d_w + k_m * d_m
        universe = data.draw(st.integers(capacity + 2, 3 * capacity), label="universe")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        keys = random_keys(seed, 10 * capacity + 400, 1, universe - 1)
        regions = RegionSpec(window, k_w, d_w), RegionSpec(main, k_m, d_m)
        cache = checked(MultiRegionCache(*regions, universe, flt, scn_bits=scn_bits))
        # a rescale restarts a region's LRU clock: count the fetches after which it fell
        rescales = {"window": 0, "main": 0}
        clocks = {region: getattr(getattr(cache, region), "clock", 0) for region in rescales}
        oracle = sliced_reference(*regions, universe, flt)
        for i, key in enumerate(keys):
            assert cache.fetch(key) == oracle.fetch(key), f"event {i} (key {key}) diverges"
            for region, old in clocks.items():
                clocks[region] = getattr(getattr(cache, region), "clock", 0)
                rescales[region] += clocks[region] < old
        assert_written(cache)
        if scn_bits < 32:
            for region, policy in (("window", window), ("main", main)):
                assert (rescales[region] > 0) == (policy == "lru"), region

    @pytest.mark.parametrize("window", ["fifo", "lru"])
    def test_only_the_sliced_schedule_is_exact(self, window):
        # c05's geometry on a Zipf trace: the batch reference, which halves
        # every counter at once, decides some admissions differently
        regions = RegionSpec(window, 4, 16), RegionSpec("lru", 16, 16)
        trace = generate_zipf(ZipfSpec(N=2000, s=0.8, length=20_000, seed=1))
        universe = trace.max_key + 1
        cache = checked(MultiRegionCache(*regions, universe, "tinylfu", scn_bits=6))
        sliced = sliced_reference(*regions, universe, "tinylfu")
        batch = ReferenceMultiCache(*regions, universe, "tinylfu")
        differences = 0
        for i, key in enumerate(trace.keys):
            result = cache.fetch(key)
            assert result == sliced.fetch(key), f"event {i} (key {key}) diverges"
            differences += result != batch.fetch(key)
        assert_written(cache)
        assert differences > 1000
