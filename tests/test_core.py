import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checked import CheckedStore, assert_written, check_store, checked, load_set, stores
from dpcache.core import (
    MISS,
    LayoutConfig,
    LayoutError,
    OpCounter,
    RegisterStore,
    StorageError,
)
from dpcache.multiregion import FILTER_NONE, FILTER_TINYLFU, MultiRegionCache, RegionSpec
from dpcache.policies import POLICIES, make_engine


def long_division_mod(dividend_digits: str, divisor: int) -> int:
    """Schoolbook long division over the decimal string; independent of %."""
    remainder = 0
    for ch in dividend_digits:
        remainder = remainder * 10 + int(ch)
        while remainder >= divisor:
            remainder -= divisor
    return remainder


def rows_of(ways: list[tuple[int, int]]) -> list[list[int]]:
    """Field rows ``[keys, scns]`` of ``(key, scn)`` ways."""
    return [[key for key, _ in ways], [scn for _, scn in ways]]


def first_fault(keys, scns, widths):
    """The message of a set's first fault in way order, or None: a field out
    of its width, or a live key already seen in an earlier way."""
    seen = set()
    for way in zip(keys, scns):
        for name, x, width in zip(("key", "scn"), way, widths):
            if not 0 <= x < 1 << width:
                return f"{name} {x} exceeds {width} bits"
        key = way[0]
        if key in seen:
            return f"duplicate key {key} within one set"
        if key:
            seen.add(key)
    return None


class TestLayoutConfig:
    def test_element_width(self):
        lay = LayoutConfig(key_bits=32, value_bits=32, scn_bits=16, k=4, d=8)
        assert lay.element_width == 80
        assert lay.set_width == 320

    def test_mask_limit(self):
        # 64 ways of 32-bit keys is exactly the 2048-bit ternary mask
        LayoutConfig(key_bits=32, k=64, d=1)
        with pytest.raises(LayoutError):
            LayoutConfig(key_bits=32, k=65, d=1)

    @pytest.mark.parametrize("kwargs", [
        dict(key_bits=0), dict(value_bits=0), dict(scn_bits=0),
        dict(k=0), dict(d=0), dict(key_bits=33, k=64),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(LayoutError):
            LayoutConfig(**kwargs)


def set_of(key: int, d: int) -> int:
    """The set an engine's fetch puts ``key`` in, found from the store."""
    engine = make_engine("lru", LayoutConfig(k=1, d=d))
    engine.fetch(key)
    (h,) = [h for h, rows in enumerate(engine.store.rows) if rows[0][0] == key]
    return h


class TestHashToSet:
    """A fetch indexes set ``key % d``; the ternary lookup rejects keys < 1
    and keys wider than ``key_bits``."""

    def test_examples(self):
        assert set_of(37, 16) == 5
        assert set_of(16, 16) == 0

    def test_large_key_against_long_division(self):
        expected = long_division_mod("1000003", 7)
        assert set_of(1_000_003, 7) == expected

    def test_rejects_key_zero(self):
        engine = make_engine("lru", LayoutConfig(k=2, d=16))
        with pytest.raises(StorageError):
            engine.fetch(0)
        assert engine.store.rows == make_engine("lru", LayoutConfig(k=2, d=16)).store.rows

    @pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "hyperbolic"])
    def test_rejects_key_wider_than_key_bits(self, policy):
        engine = make_engine(policy, LayoutConfig(key_bits=8, k=2, d=1))
        for key in (256, 300):
            with pytest.raises(StorageError, match=f"^key {key} exceeds 8 bits$"):
                engine.fetch(key)
        assert engine.live_keys() == set()
        assert engine.fetch(255)[0] is False and engine.fetch(255)[0]

    def test_two_region_cache_rejects_key_wider_than_key_bits(self):
        # a universe past the default 32-bit keys reaches the ternary lookup
        cache = MultiRegionCache(RegionSpec("lru", 2, 1), RegionSpec("lru", 2, 1),
                                 (1 << 32) + 2, "none")
        with pytest.raises(StorageError, match="^key 4294967296 exceeds 32 bits$"):
            cache.fetch(1 << 32)
        assert cache.window.live_keys() == cache.main.live_keys() == set()


class TestTernary:
    def test_match_examples(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=1)
        store = RegisterStore(lay)
        load_set(store, 0, [[7, 0, 9], [0, 0, 0]])
        assert store.ternary_lookup(0, 9) == 2
        assert store.ternary_lookup(0, 3) == MISS

    def test_zero_bit_slice(self):
        # XOR of the matched way's slice of the keys register is all-zero;
        # others are not
        key_bits = 8
        store = RegisterStore(LayoutConfig(key_bits=key_bits, value_bits=8, scn_bits=8, k=4, d=1))
        load_set(store, 0, [[5, 6, 7, 8], [0] * 4])
        assert store.ternary_lookup(0, 5) == 0
        rep = sum(5 << (i * key_bits) for i in range(4))
        keys_word = sum(key << (i * key_bits) for i, key in enumerate(store.rows[0][0]))
        x = keys_word ^ rep
        slices = [(x >> (i * key_bits)) & 0xFF for i in range(4)]
        assert slices[0] == 0
        assert all(s != 0 for s in slices[1:])

    def test_rejects_key_zero(self):
        # an all-empty set would match key 0 in every way
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1))
        for key in (0, -1):
            with pytest.raises(StorageError):
                store.ternary_lookup(0, key)
        assert store.counter.tcam_matches == 0

    def test_rejects_key_wider_than_key_bits(self):
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1))
        assert store.ternary_lookup(0, 255) == MISS
        with pytest.raises(StorageError, match="^key 256 exceeds 8 bits$"):
            store.ternary_lookup(0, 256)
        assert store.counter.tcam_matches == 1

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=8),
        probe=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_linear_scan(self, keys, probe):
        # enforce the distinct-nonzero invariant the store maintains
        seen = set()
        entry = []
        for key in keys:
            if key and key in seen:
                key = 0
            seen.add(key)
            entry.append(key)
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=len(entry), d=1))
        load_set(store, 0, [entry, [0] * len(entry)])
        got = store.ternary_lookup(0, probe)
        expected = next((i for i, key in enumerate(entry) if key == probe), MISS)
        assert got == expected

    def test_counts_one_tcam_match(self):
        store = RegisterStore(LayoutConfig(k=2, d=4))
        store.ternary_lookup(1, 9)
        store.ternary_lookup(1, 9)
        assert store.counter.tcam_matches == 2


class TestRegisterStore:
    def test_write_read_roundtrip_example(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        store = RegisterStore(lay)
        ways = [(3, 2), (0, 0)]
        load_set(store, 0, rows_of(ways))
        rows = store.read_set_raw(0)
        assert rows == [[3, 0], [2, 0]]
        rows[0][:], rows[1][:] = [4, 3], [5, 2]  # a miss inserts key 4 at way 0
        store.write_set_raw(0, 0)
        assert store.peek_set(0) == [(4, 5)] + ways[:1]

    def test_fresh_store_reads_empty(self):
        lay = LayoutConfig(k=3, d=2)
        store = RegisterStore(lay)
        assert store.read_set_raw(0) == [[0] * 3] * 2
        assert store.peek_set(1) == [(0, 0)] * 3

    def test_field_width_violations(self):
        lay = LayoutConfig(key_bits=4, value_bits=4, scn_bits=4, k=1, d=1)
        for key, scn, field in ((16, 0, "key"), (1, 16, "scn")):
            checked = check_store(RegisterStore(lay))
            rows = checked.read_set_raw(0)
            rows[0][0], rows[1][0] = key, scn
            with pytest.raises(StorageError, match=f"^{field} 16 exceeds 4 bits$"):
                checked.write_set_raw(0, 0)

    def test_duplicate_live_keys_rejected(self):
        store = check_store(RegisterStore(LayoutConfig(k=2, d=1)))
        load_set(store, 0, rows_of([(5, 0), (0, 0)]))
        rows = store.read_set_raw(0)
        rows[0][:], rows[1][:] = [5, 5], [1, 0]  # a miss inserts 5 beside itself
        with pytest.raises(StorageError, match="^duplicate key 5 within one set$"):
            store.write_set_raw(0, 0)

    def test_read_write_counting(self):
        store = RegisterStore(LayoutConfig(k=2, d=1))
        load_set(store, 0, [[1, 0], [0, 0]])  # a fixture charges nothing
        assert store.counter == OpCounter()
        rows = store.read_set_raw(0)
        rows[0][:] = [2, 1]
        store.write_set_raw(0, 0)
        assert store.counter.register_writes == 1
        assert store.counter.register_reads == 1

    def test_raw_path_equals_typed_path(self):
        # the stored rows and the ways of a raw write
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=1)
        store = RegisterStore(lay)
        ways = [(3, 1), (0, 0), (11, 4)]
        rows = [[3, 0, 11], [1, 0, 4]]
        assert rows_of(ways) == rows
        load_set(store, 0, rows)
        assert store.rows[0] == rows
        assert store.read_set_raw(0) == rows
        assert store.peek_set(0) == ways

    def test_peek_set_is_the_zipped_rows_and_charges_nothing(self):
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=2))
        load_set(store, 1, [[4, 0, 2], [6, 0, 3]])
        for h in range(2):
            assert store.peek_set(h) == list(zip(*store.rows[h]))
        assert store.peek_set(1) == [(4, 6), (0, 0), (2, 3)]
        assert store.counter == OpCounter()

    def test_read_way_and_patch(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        store = check_store(RegisterStore(lay))
        load_set(store, 0, [[3, 5], [2, 7]])
        assert store.read_way(0, 1) == (5, 7)
        store.write_way_field(0, 1, 9)
        assert store.read_way(0, 1) == (5, 9)
        assert store.peek_set(0) == [(3, 2), (5, 9)]
        with pytest.raises(StorageError, match="^scn 256 exceeds 8 bits$"):
            store.write_way_field(0, 0, 256)

    def test_rows_follow_every_write_path(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=3, d=2)
        store = RegisterStore(lay)
        rows = [[4, 0, 2], [6, 0, 3]]

        def assert_rows(expected):
            assert store.rows == [[[0] * 3] * 2, expected]
            assert store.peek_set(1) == list(zip(*expected))

        load_set(store, 1, rows)
        assert_rows(rows)
        store.write_way_field(1, 2, 5)
        assert_rows([[4, 0, 2], [6, 0, 5]])
        got = store.read_set_raw(1)
        got[0][:], got[1][:] = [8, 4, 2], [7, 6, 5]  # a miss fills the empty way
        store.write_set_raw(1, 0)
        assert_rows([[8, 4, 2], [7, 6, 5]])
        assert store.ternary_lookup(1, 2) == 2 and store.ternary_lookup(1, 8) == 0
        assert store.ternary_lookup(1, 3) == MISS

    def test_raw_rows_are_the_set_on_read_and_write(self):
        # a miss is one read-modify-write of the register: no copy either way
        store = RegisterStore(LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=2))
        rows = load_set(store, 0, [[7, 0], [1, 0]])
        got = store.read_set_raw(0)
        assert got is rows and store.read_set_raw(1) is store.rows[1]
        got[0][:], got[1][:] = [9, 7], [5, 1]  # a miss inserts key 9 at way 0
        assert store.peek_set(0) == [(9, 5), (7, 1)]
        store.write_set_raw(0, 0)
        assert store.rows[0] is rows and store.peek_set(0) == [(9, 5), (7, 1)]
        assert store.members[0] == {7, 9} and store.ternary_lookup(0, 9) == 0
        assert store.counter == OpCounter(tcam_matches=1, register_reads=2, register_writes=1)

    def test_checked_raw_write_rejects_overwide_slice(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=1)
        edits = [
            (StorageError, "^scn 256 exceeds 8 bits$", [[1, 0], [1 << lay.scn_bits, 0]]),
            (StorageError, "^duplicate key 3 within one set$", [[3, 3], [0, 0]]),
            (AssertionError, "does not hold 2 ways", [[1, 0]]),  # the scn row is missing
        ]
        for error, message, fault in edits:
            store = check_store(RegisterStore(lay))
            store.read_set_raw(0)[:] = fault  # the set's own rows, edited in place
            with pytest.raises(error, match=message):
                store.write_set_raw(0, 0)

    def test_normalise_rewrites_one_set_validated_and_unaccounted(self):
        lay = LayoutConfig(key_bits=8, value_bits=8, scn_bits=8, k=2, d=3)
        store = RegisterStore(lay)
        store.rows[1] = [[3, 0], [2, 0]]
        store.rows[2] = [[5, 6], [7, 4]]
        store.epochs[2] = 1
        seen = []

        def bump(scns, missed):
            seen.append((scns[:], missed))
            return [s + 10 * missed for s in scns]

        store.normalise(2, 3, bump)
        assert seen == [([7, 4], 2)]  # the row, and the epochs the set missed
        assert store.peek_set(2) == [(5, 27), (6, 24)]
        assert store.peek_set(1) == [(3, 2), (0, 0)]  # no other set is touched
        assert store.epochs == [0, 0, 3]
        assert store.counter == OpCounter()
        with pytest.raises(StorageError, match="^scn 256 exceeds 8 bits$"):
            store.normalise(1, 1, lambda scns, missed: [256] * len(scns))
        with pytest.raises(StorageError, match="^duplicate key 5 within one set$"):
            store.rows[0] = [[5, 5], [0, 0]]
            store.normalise(0, 1, lambda scns, missed: scns)
        assert store.counter == OpCounter()

    @pytest.mark.parametrize("field, name", [(0, "key"), (1, "scn")])
    @pytest.mark.parametrize("bad", ["negative", "overwide"])
    def test_check_rows_rejects_out_of_range_in_every_row(self, field, name, bad):
        lay = LayoutConfig(key_bits=6, value_bits=7, scn_bits=5, k=3, d=1)
        store = RegisterStore(lay)
        width = (6, 5)[field]
        x = -1 if bad == "negative" else 1 << width
        store.rows[0] = [[4, 0, 9], [3, 0, 4]]
        store.rows[0][field][2] = x
        with pytest.raises(StorageError, match=f"^{name} {x} exceeds {width} bits$"):
            store._check_rows(0)

    def test_check_rows_duplicates_and_empty_ways(self):
        lay = LayoutConfig(key_bits=6, value_bits=7, scn_bits=5, k=4, d=1)
        store = RegisterStore(lay)
        store.rows[0] = [[0, 5, 0, 0], [0, 2, 0, 0]]
        store._check_rows(0)  # several empty ways are not duplicates
        store.rows[0] = [[5, 0, 5, 0], [0, 0, 0, 0]]
        with pytest.raises(StorageError, match="^duplicate key 5 within one set$"):
            store._check_rows(0)
        # the first fault in way order is reported
        store.rows[0] = [[5, 5, 0, 0], [0, 0, 0, 1 << 5]]
        with pytest.raises(StorageError, match="^duplicate key 5"):
            store._check_rows(0)
        store.rows[0] = [[5, 0, 0, 0], [0, 0, 0]]
        with pytest.raises(AssertionError, match="does not hold 4 ways"):
            store._check_rows(0)

    @settings(max_examples=400, deadline=None)
    @given(k=st.integers(1, 8), data=st.data())
    def test_check_rows_agrees_with_a_way_order_scan(self, k, data):
        """``_check_rows`` raises exactly when a way-order scan finds a fault,
        with that scan's first fault: its whole-row decision misses none."""
        widths = (6, 5)
        keys = data.draw(st.lists(st.one_of(st.just(0), st.integers(1, 4), st.integers(-2, -1),
                                            st.integers(62, 65)), min_size=k, max_size=k))
        scns = data.draw(st.lists(st.one_of(st.integers(0, 31), st.integers(-2, -1),
                                            st.integers(31, 33)), min_size=k, max_size=k))
        store = RegisterStore(LayoutConfig(key_bits=6, value_bits=7, scn_bits=5, k=k, d=1))
        store.rows[0] = [keys, scns]
        fault = first_fault(keys, scns, widths)
        if fault is None:
            store._check_rows(0)
        else:
            with pytest.raises(StorageError, match=f"^{re.escape(fault)}$"):
                store._check_rows(0)

    def test_clone_has_own_rows_and_a_fresh_counter(self):
        lay = LayoutConfig(key_bits=8, value_bits=4, scn_bits=8, k=2, d=2)
        store = check_store(RegisterStore(lay))
        load_set(store, 1, [[0x35, 0], [7, 0]])
        other = store.clone()
        assert other.counter == OpCounter() and other.counter is not store.counter
        assert other.rows == store.rows and other.members == store.members
        assert other.peek_set(1) == [(0x35, 7), (0, 0)]
        other.write_way_field(1, 0, 9)
        rows = other.read_set_raw(0)
        rows[0][0], rows[1][0] = 1, 1
        other.write_set_raw(0, 0)
        assert store.rows == [[[0, 0], [0, 0]], [[0x35, 0], [7, 0]]]
        assert store.members == [set(), {0x35}] and other.members == [{1}, {0x35}]
        assert store.counter == OpCounter()
        with pytest.raises(StorageError):
            other.write_way_field(1, 0, 256)

    def test_op_counter_reset(self):
        c = OpCounter(tcam_matches=3, register_reads=2, register_writes=1,
                      extra_reads=5, extra_writes=5)
        c.reset()
        assert (c.tcam_matches, c.register_reads, c.register_writes,
                c.extra_reads, c.extra_writes) == (0, 0, 0, 0, 0)


class ScanCheckedStore(CheckedStore):
    """A checked store whose every lookup is also answered by a scan of the key row."""

    def ternary_lookup(self, h, key):
        way = super().ternary_lookup(h, key)
        keys = self.rows[h][0]
        assert way == (keys.index(key) if key in keys else MISS), f"set {h}, key {key}"
        return way


def scan_checked(cache):
    """Check every store of ``cache`` and compare each of its lookups with a scan."""
    for store in stores(checked(cache)):
        store.__class__ = ScanCheckedStore
    return cache


def replay(cache, keys):
    """Replay ``keys``; the number of misses whose main-region admission was overruled.

    An overruled miss evicts the window's victim, the only way a key that sat
    in the window before the fetch leaves the cache.
    """
    overrules = 0
    window = getattr(cache, "window", None)
    for key in keys:
        before = window.live_keys() if window is not None else set()
        _, evicted = cache.fetch(key)
        overrules += evicted in before
    assert_written(cache)
    return overrules


def row_keys(engine):
    return {key for rows in engine.store.rows for key in rows[0] if key}


class TestKeyIndex:
    """Each store's per-set index of live keys answers every lookup as a scan
    of the key row would, through misses, overrules, clones and whole-set writes."""

    @pytest.mark.parametrize("policy", POLICIES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_engine_lookups_match_a_key_row_scan(self, policy, data):
        # three-bit clocks rescale (LRU) or halve (hyperbolic) every few ticks
        scn_bits = data.draw(st.integers(3, 6), label="scn_bits")
        k = data.draw(st.sampled_from([1, 2, 4]), label="k")
        d = data.draw(st.integers(1, 3), label="d")
        keys = data.draw(st.lists(st.integers(1, 3 * k * d), max_size=150), label="keys")
        engine = scan_checked(make_engine(policy, LayoutConfig(scn_bits=scn_bits, k=k, d=d)))
        replay(engine, keys)
        assert engine.live_keys() == row_keys(engine)

    @pytest.mark.parametrize("filter", [FILTER_NONE, FILTER_TINYLFU])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_region_lookups_match_a_key_row_scan(self, filter, data):
        scn_bits = data.draw(st.integers(4, 6), label="scn_bits")
        regions = [RegionSpec(data.draw(st.sampled_from(POLICIES), label=f"{name} policy"),
                              data.draw(st.sampled_from([1, 2, 4]), label=f"{name} k"),
                              data.draw(st.integers(1, 3), label=f"{name} d"))
                   for name in ("window", "main")]
        universe = 3 * sum(region.capacity for region in regions) + 2
        keys = data.draw(st.lists(st.integers(1, universe - 1), max_size=200), label="keys")
        cache = scan_checked(MultiRegionCache(*regions, universe, filter, scn_bits=scn_bits))
        overrules = replay(cache, keys)
        assert filter == FILTER_TINYLFU or overrules == 0
        for engine in (cache.window, cache.main):
            assert engine.live_keys() == row_keys(engine)

    def test_the_filter_overrules_admissions_in_the_replay(self):
        # the two-region replay above reaches the overrule: a skewed trace
        # refuses window victims many times over
        rng = random.Random(7)
        keys = [min(int(rng.paretovariate(1.0)), 60) for _ in range(3000)]
        regions = RegionSpec("lru", 2, 2), RegionSpec("lfu", 4, 2)
        cache = scan_checked(MultiRegionCache(*regions, 61, FILTER_TINYLFU, scn_bits=5))
        assert replay(cache, keys) > 100
        cache = scan_checked(MultiRegionCache(*regions, 61, FILTER_NONE, scn_bits=5))
        assert replay(cache, keys) == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_clones_misses_leave_the_original_lookups_unchanged(self, policy):
        engine = checked(make_engine(policy, LayoutConfig(scn_bits=8, k=4, d=2)))
        for key in range(1, 9):
            engine.fetch(key)
        store = engine.store
        probes = range(1, 17)
        before = [store.ternary_lookup(key % 2, key) for key in probes]
        assert MISS not in before[:8] and before[8:] == [MISS] * 8
        other = engine.clone()
        for key in range(9, 17):
            hit, evicted = other.fetch(key)
            assert not hit and evicted is not None  # every miss evicts a key
        assert other.live_keys() != set(range(1, 9))
        assert [store.ternary_lookup(key % 2, key) for key in probes] == before
        assert engine.live_keys() == set(range(1, 9))

    def test_a_whole_set_write_replaces_the_set_index(self):
        engine = checked(make_engine("lru", LayoutConfig(scn_bits=8, k=3, d=2)))
        for key in (2, 4, 6, 1):
            engine.fetch(key)
        store = engine.store
        # key 7 sits outside set 7 % 2: the index is per set, not per hash
        load_set(store, 0, [[8, 0, 7], [1, 0, 2]])
        assert [store.ternary_lookup(0, key) for key in (2, 4, 6)] == [MISS] * 3
        assert store.ternary_lookup(0, 8) == 0 and store.ternary_lookup(0, 7) == 2
        assert store.ternary_lookup(1, 1) == 0  # the other set keeps its index
        assert engine.live_keys() == {1, 7, 8}
        # the set's own rows, edited in place as a miss that evicts 7 does
        rows = store.read_set_raw(0)
        rows[0][:] = [12, 8, 0]
        rows[1][:] = [3, 1, 0]
        store.write_set_raw(0, 7)
        assert store.ternary_lookup(0, 12) == 0 and store.ternary_lookup(0, 7) == MISS
        assert engine.fetch(8)[0] and engine.fetch(2) == (False, None)
        assert engine.live_keys() == {1, 2, 8, 12}


class TestPeakLive:
    """``RegisterStore.peak_live``, the most live keys any set has held: a miss
    raises it only when an empty way absorbed the key, and the LRU clock
    restarts one above it."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rises_only_when_an_empty_way_absorbs_a_miss(self, policy):
        engine = checked(make_engine(policy, LayoutConfig(scn_bits=8, k=3, d=2)))
        store = engine.store
        peaks = []
        for key in (2, 4, 1, 2, 6, 8, 3, 10, 5, 7, 9):
            peak = store.peak_live
            hit, evicted = engine.fetch(key)
            if hit or evicted is not None:
                assert store.peak_live == peak, key  # a hit or an eviction
            else:
                assert store.peak_live == max(peak, len(store.members[key % 2])), key
            peaks.append(store.peak_live)
        assert peaks == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]
        assert store.peak_live == max(map(len, store.members))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_stays_put_on_an_admission_overrule(self, policy):
        engine = checked(make_engine(policy, LayoutConfig(scn_bits=8, k=2, d=1)))
        engine.fetch(1)
        engine.fetch(2)
        before = engine.dump()
        asked = []

        def rejects(key, victim):
            asked.append((key, victim))
            return True

        assert engine.admit(0, 3, rejects) == 3
        [(key, victim)] = asked
        assert key == 3 and engine.live_keys() == {1, 2} and engine.store.peak_live == 2
        # the victim is back at way 0 with its own SCN word
        assert engine.dump()[0][0] == next(way for way in before[0] if way[0] == victim)
        assert_written(engine)

    def test_is_copied_by_clone(self):
        engine = checked(make_engine("lru", LayoutConfig(scn_bits=8, k=4, d=2)))
        for key in (2, 4, 1):
            engine.fetch(key)
        other = engine.clone()
        assert other.store.peak_live == engine.store.peak_live == 2
        other.fetch(6)
        assert other.store.peak_live == 3 and engine.store.peak_live == 2

    def test_the_lru_clock_restarts_one_above_it(self):
        # 4-bit SCNs: the clock restarts at its 15th tick
        engine = checked(make_engine("lru", LayoutConfig(scn_bits=4, k=4, d=2)))
        for tick, key in enumerate([2, 4] * 7 + [2], start=1):
            engine.fetch(key)
            assert (engine.epoch, engine.clock) == ((0, tick) if tick < 15 else (1, 3))
        restarts = 0
        rng = random.Random(3)
        for _ in range(300):
            peak, epoch = engine.store.peak_live, engine.epoch
            engine.fetch(rng.randint(1, 12))
            if engine.epoch != epoch:
                restarts += 1
                assert engine.clock == peak + 1
        assert restarts > 20 and engine.store.peak_live == 4
